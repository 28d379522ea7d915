package wlog

import (
	"fmt"

	"gospaces/internal/domain"
)

// Op classifies one record of the incremental log-mutation stream. A
// primary staging server emits one record per completed log mutation;
// replicas feed the stream to Apply and converge on the same state
// machine, so a spare can take over the primary's event queues after a
// fail-stop.
type Op int

// Stream operations.
const (
	// OpPut appends a Put event (CommitPut on the primary).
	OpPut Op = iota + 1
	// OpGet appends a Get event (CommitGet on the primary).
	OpGet
	// OpCheckpoint runs the checkpoint transition: exit replay, fresh
	// W_Chk_ID, trim the queue (OnCheckpoint on the primary).
	OpCheckpoint
	// OpRecovery re-arms the replay cursor (OnRecoveryFrom on the
	// primary); Version carries the covered-version bound (0 = none).
	OpRecovery
	// OpAdvance moves the replay cursor one step: a suppressed put or a
	// replayed get consumed the next logged event (BeginPut/BeginGet on
	// the primary while replaying); Req is the replayed get's number,
	// stamped on the event as the primary stamped it. It also covers the
	// replay-exit transition when the cursor already sits at the end of
	// the queue.
	OpAdvance
)

func (o Op) String() string {
	switch o {
	case OpPut:
		return "put"
	case OpGet:
		return "get"
	case OpCheckpoint:
		return "checkpoint"
	case OpRecovery:
		return "recovery"
	case OpAdvance:
		return "advance"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Record is one deterministic log mutation. Applying the primary's
// records in emission order reproduces the primary's Log byte-exactly
// (validation already happened on the primary, so Apply performs the
// state transition without re-checking request/event agreement).
type Record struct {
	Op      Op
	App     string
	Name    string      // put/get
	Version int64       // put/get; recovery: covered-version bound
	BBox    domain.BBox // put/get
	Bytes   int64       // put/get payload accounting
	Req     uint64      // get, advance: the get request's number (RetriedGet), 0 for none
}

// Apply replays one mutation record onto l. Records must be applied in
// the order the primary emitted them.
func (l *Log) Apply(r Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch r.Op {
	case OpPut:
		l.commitPutLocked(r.App, r.Name, r.Version, r.BBox, r.Bytes)
	case OpGet:
		l.commitGetLocked(r.App, r.Name, r.Version, r.BBox, r.Bytes, r.Req)
	case OpCheckpoint:
		l.onCheckpointLocked(r.App)
	case OpRecovery:
		l.onRecoveryFromLocked(r.App, r.Version)
	case OpAdvance:
		q := l.queue(r.App)
		if !q.replaying {
			return fmt.Errorf("wlog: advance record for %s, but replica is not replaying", r.App)
		}
		if q.cursor < len(q.events) {
			q.consume(r.Req)
		} else {
			q.exitReplay()
		}
	default:
		return fmt.Errorf("wlog: unknown record op %v", r.Op)
	}
	return nil
}
