package recovery

import "sort"

// DeadSlots returns the dead-unrecovered backlog: slots confirmed dead
// that no spare has been promoted into yet. The spare-exhaustion test
// watches the backlog through it; outside the tests the pushed view's
// Down list reports the stranded part of it.
func (s *Supervisor) DeadSlots() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, 0, len(s.dead))
	for slot := range s.dead {
		out = append(out, slot)
	}
	sort.Ints(out)
	return out
}
