package wlog

// QueueLen returns the resident event count for app: how the tests see
// a trim. Nothing outside them asks.
func (l *Log) QueueLen(app string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	q, ok := l.apps[app]
	if !ok {
		return 0
	}
	return len(q.events)
}
