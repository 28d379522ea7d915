package wlog

import (
	"fmt"
	"sort"

	"gospaces/internal/codec"
)

// snapQueue is one component's event queue in a snapshot. Under the
// lock it captures the queue copy-on-write: the event pointer-slice
// header plus the scalars. The header is safe to read after unlock
// because events are immutable once appended and every compaction
// reallocates the backing array (full slice expressions cap the shared
// prefix), so concurrent appends land past the captured length, never
// inside it.
type snapQueue struct {
	App       string
	Events    []*Event
	NextSeq   int64
	NextChk   int64
	Replaying bool
	Cursor    int
	Anchor    int
}

// ValidateWire is the queue's decode check (codec.Validator). A
// snapshot arrives from a peer or a supervisor, and the log indexes
// Events by Anchor on the next recovery and by Cursor while replaying:
// an index outside the queue must fail the decode, not the server.
func (q *snapQueue) ValidateWire() error {
	n := len(q.Events)
	if q.Anchor < -1 || q.Anchor >= n {
		return fmt.Errorf("wlog: queue %q: anchor %d outside %d events", q.App, q.Anchor, n)
	}
	// The cursor is stale, and never read, once a replay has ended.
	if q.Cursor < 0 || q.Replaying && q.Cursor > n {
		return fmt.Errorf("wlog: queue %q: cursor %d outside %d events", q.App, q.Cursor, n)
	}
	for i, e := range q.Events {
		if e == nil || e.Kind < KindPut || e.Kind > KindCheckpoint {
			return fmt.Errorf("wlog: queue %q: event %d is not a put, get or checkpoint", q.App, i)
		}
	}
	return nil
}

// snapReader is one (app, name) -> newest-version-read entry.
type snapReader struct {
	App, Name string
	Version   int64
}

// snapshot is the log's wire and storage form. Only slices and scalars,
// both sorted, so the encoding is byte-exact for equal log states.
type snapshot struct {
	Queues  []snapQueue
	Readers []snapReader
}

// ValidateWire rejects a snapshot naming one component twice: Restore
// would count the shadowed queue's events in the frontier indexes and
// nothing would ever trim them.
func (s *snapshot) ValidateWire() error {
	for i := 1; i < len(s.Queues); i++ {
		if s.Queues[i-1].App >= s.Queues[i].App {
			return fmt.Errorf("wlog: queues out of order at %q", s.Queues[i].App)
		}
	}
	return nil
}

// Ids 1024–1279 are wlog's (DESIGN.md §7 has the whole table).
func init() { codec.Register(1024, snapshot{}) }

// Snapshot serializes the complete log state — events, cursors,
// anchors, newest versions read, nextSeq/nextChk — into a deterministic
// byte string (a codec message): two logs in the same state produce
// identical bytes.
//
// The lock is held only to capture slice headers and flatten the small
// readers maps — O(queues + readers), not O(events). The sort and the
// encode (the expensive part, linear in resident log bytes) run outside
// the lock, so a snapshot for wlog replication does not stall
// concurrent puts and gets.
func (l *Log) Snapshot() ([]byte, error) {
	l.mu.Lock()
	snap := snapshot{Queues: make([]snapQueue, 0, len(l.apps))}
	for a, q := range l.apps {
		snap.Queues = append(snap.Queues, snapQueue{
			App:       a,
			Events:    q.events,
			NextSeq:   q.nextSeq,
			NextChk:   q.nextChk,
			Replaying: q.replaying,
			Cursor:    q.cursor,
			Anchor:    q.anchor,
		})
	}
	for name, m := range l.readers {
		for app, v := range m {
			snap.Readers = append(snap.Readers, snapReader{App: app, Name: name, Version: v})
		}
	}
	l.mu.Unlock()

	sort.Slice(snap.Queues, func(i, j int) bool { return snap.Queues[i].App < snap.Queues[j].App })
	sort.Slice(snap.Readers, func(i, j int) bool {
		a, b := snap.Readers[i], snap.Readers[j]
		if a.App != b.App {
			return a.App < b.App
		}
		return a.Name < b.Name
	})
	out, err := codec.Append(nil, snap)
	if err != nil {
		return nil, fmt.Errorf("wlog: snapshot encode: %w", err)
	}
	return out, nil
}

// Restore replaces the log's entire state with a Snapshot taken from
// another log. The frontier indexes and memory accounting are rebuilt
// from the restored events. Bytes that are not a valid snapshot (see
// the ValidateWire methods) fail with the codec's decode error —
// codec.ErrCorrupt, or codec.ErrUnknownType for what is no codec
// message at all — and leave the log as it was.
func (l *Log) Restore(state []byte) error {
	msg, err := codec.Unmarshal(state)
	if err != nil {
		return fmt.Errorf("wlog: snapshot decode: %w", err)
	}
	snap, ok := msg.(snapshot)
	if !ok {
		return fmt.Errorf("wlog: snapshot decode: %w: a %T, not a snapshot", codec.ErrCorrupt, msg)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.apps = make(map[string]*appQueue, len(snap.Queues))
	l.getEvents = make(map[string]*verCounts)
	l.readers = make(map[string]map[string]int64)
	l.metaBytes = 0
	for _, sq := range snap.Queues {
		for _, e := range sq.Events {
			l.metaBytes += e.metaBytes()
			if e.Kind == KindGet {
				l.indexGetEvent(e.Name, e.Version)
			}
		}
		l.apps[sq.App] = &appQueue{
			events:    sq.Events,
			nextSeq:   sq.NextSeq,
			nextChk:   sq.NextChk,
			replaying: sq.Replaying,
			cursor:    sq.Cursor,
			anchor:    sq.Anchor,
		}
	}
	for _, r := range snap.Readers {
		l.indexReader(r.App, r.Name, r.Version)
	}
	return nil
}
