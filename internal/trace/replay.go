package trace

import "fmt"

// Executor applies one trace event to a live system. internal/workflow
// provides the concrete executor that drives a staging group; keeping
// the interface here lets the replay engine live with the format
// (trace cannot import workflow — staging imports trace).
type Executor interface {
	Apply(ev Event) error
}

// DivergenceError reports a replay that stopped reproducing the
// recorded run: the event at logical clock LC produced a different
// outcome than the recording (wrong bytes on a get, a wlog replay
// divergence, an operation that cannot complete).
type DivergenceError struct {
	LC  uint64
	Ev  Event
	Err error
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("trace: replay diverged at lc=%d (%s): %v", e.LC, e.Ev, e.Err)
}

func (e *DivergenceError) Unwrap() error { return e.Err }

// Replay drives x through a recorded trace in logical clock order. The
// clock is the trace itself — replay never consults wall time, so
// outcomes cannot depend on machine speed. Note events are skipped
// (they carry no replay semantics). Any executor error is wrapped in a
// DivergenceError naming the logical clock it happened at, so a failing
// replay pinpoints the exact step of the recorded schedule.
func Replay(events []Event, x Executor) error {
	for i, ev := range events {
		if i > 0 && ev.LC <= events[i-1].LC {
			return fmt.Errorf("%w: lc=%d after lc=%d", ErrOrder, ev.LC, events[i-1].LC)
		}
		if ev.Kind == EvNote {
			continue
		}
		if err := x.Apply(ev); err != nil {
			if _, ok := err.(*DivergenceError); ok {
				return err
			}
			return &DivergenceError{LC: ev.LC, Ev: ev, Err: err}
		}
	}
	return nil
}
