package qos

import (
	"container/list"
	"errors"
	"sync"

	"gospaces/internal/metrics"
)

// Lane classifies a request for the weighted two-lane concurrency gate.
type Lane int

const (
	// LaneControl bypasses the gate entirely: health pings, leases,
	// membership, stats, and wlog replication must never queue behind
	// data traffic (and replication must never be shed — a gated
	// replication apply behind a gated put on the peer would deadlock
	// two mutually-replicating servers under symmetric overload).
	LaneControl Lane = iota
	// LaneForeground carries application puts/gets.
	LaneForeground
	// LaneRecovery carries recovery traffic: CoREC rebuild shard
	// fetch/store, recovery scans, wlog install into promoted spares.
	LaneRecovery
)

func (l Lane) String() string {
	switch l {
	case LaneControl:
		return "control"
	case LaneForeground:
		return "foreground"
	case LaneRecovery:
		return "recovery"
	}
	return "unknown"
}

// ErrSchedClosed fails waiters when the scheduler shuts down.
var ErrSchedClosed = errors.New("qos: scheduler closed")

// Scheduler is the weighted two-lane concurrency gate at server
// dispatch: at most maxConcurrent gated requests run at once, and when
// both lanes have waiters, grants alternate in the laneWeights
// foreground:recovery ratio so neither CoREC rebuilds nor foreground
// traffic can starve the other. LaneControl bypasses the
// gate. Queue depths are exported as qos.queue.foreground /
// qos.queue.recovery gauges.
type Scheduler struct {
	reg *metrics.Registry

	mu     sync.Mutex
	closed bool
	slots  int    // free slots
	credit [2]int // remaining grants in the current weight round
	queues [2]*list.List
	depth  [2]*metrics.Gauge
}

// laneIdx maps gated lanes onto queue indices.
func laneIdx(l Lane) int {
	if l == LaneRecovery {
		return 1
	}
	return 0
}

// NewScheduler builds the gate, reporting into reg (nil allocates a
// private registry). No Config field sizes it: it admits maxConcurrent
// gated requests at once, in the laneWeights ratio.
func NewScheduler(_ Config, reg *metrics.Registry) *Scheduler {
	return newScheduler(maxConcurrent, reg)
}

// newScheduler is NewScheduler with slots gated requests at once.
func newScheduler(slots int, reg *metrics.Registry) *Scheduler {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Scheduler{
		reg:    reg,
		slots:  slots,
		credit: laneWeights,
		queues: [2]*list.List{list.New(), list.New()},
	}
	s.depth = [2]*metrics.Gauge{
		reg.Gauge("qos.queue.foreground"),
		reg.Gauge("qos.queue.recovery"),
	}
	return s
}

// QueueDepth reports the total number of queued (not yet granted)
// requests across both gated lanes — one of the controller's
// retry-after pressure signals.
func (s *Scheduler) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queues[0].Len() + s.queues[1].Len()
}

// Acquire blocks until the request may run (or the scheduler closes).
// LaneControl is admitted immediately without consuming a slot. The
// caller must pair every successful gated Acquire with Release.
func (s *Scheduler) Acquire(l Lane) error {
	if l == LaneControl {
		return nil
	}
	i := laneIdx(l)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrSchedClosed
	}
	if s.slots > 0 && s.queues[0].Len() == 0 && s.queues[1].Len() == 0 {
		s.slots--
		s.mu.Unlock()
		return nil
	}
	ch := make(chan struct{})
	el := s.queues[i].PushBack(ch)
	s.depth[i].Set(int64(s.queues[i].Len()))
	s.mu.Unlock()
	<-ch
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return ErrSchedClosed
	}
	_ = el
	return nil
}

// Release returns a gated slot and hands it to the next waiter, chosen
// by weighted round-robin across lanes with waiters: the current lane's
// credit is spent first; when a lane's credit or queue runs out the
// grant moves to the other lane; when both credits are spent the round
// resets. LaneControl releases are no-ops.
func (s *Scheduler) Release(l Lane) {
	if l == LaneControl {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.slots++
	s.grantLocked()
}

// grantLocked moves freed slots to waiters under the weight policy.
func (s *Scheduler) grantLocked() {
	for s.slots > 0 {
		i, ok := s.pickLocked()
		if !ok {
			return
		}
		el := s.queues[i].Front()
		s.queues[i].Remove(el)
		s.depth[i].Set(int64(s.queues[i].Len()))
		s.slots--
		s.credit[i]--
		close(el.Value.(chan struct{}))
	}
}

// pickLocked chooses the lane for the next grant: a lane with waiters
// and remaining round credit wins; if only one lane has waiters it wins
// regardless of credit (work conservation); when both lanes' credits
// are exhausted the round resets.
func (s *Scheduler) pickLocked() (int, bool) {
	w0, w1 := s.queues[0].Len() > 0, s.queues[1].Len() > 0
	switch {
	case !w0 && !w1:
		return 0, false
	case w0 && !w1:
		return 0, true
	case w1 && !w0:
		return 1, true
	}
	// Both lanes contend: honor the weight ratio.
	if s.credit[0] <= 0 && s.credit[1] <= 0 {
		s.credit = laneWeights
	}
	if s.credit[0] >= s.credit[1] {
		if s.credit[0] > 0 {
			return 0, true
		}
		return 1, true
	}
	if s.credit[1] > 0 {
		return 1, true
	}
	return 0, true
}

// Close wakes every waiter with ErrSchedClosed and rejects future
// Acquires. Idempotent.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for i := range s.queues {
		for el := s.queues[i].Front(); el != nil; el = el.Next() {
			close(el.Value.(chan struct{}))
		}
		s.queues[i].Init()
		s.depth[i].Set(0)
	}
	s.mu.Unlock()
}
