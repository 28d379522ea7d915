// Package sim is a deterministic discrete-event simulation kernel.
//
// The paper's evaluation measures total workflow execution time on up to
// 11,264 Cori cores. This repository reproduces those experiments by
// running the actual crash-consistency protocol (the internal/wlog state
// machine, the checkpoint engines, the failure injector) on a virtual
// clock instead of Cray hardware. sim provides the kernel: processes are
// goroutines scheduled cooperatively one at a time, so a run is fully
// deterministic given its inputs; simulated time advances only through
// the event queue.
//
// Primitives:
//
//   - Env.Spawn starts a process; Env.Run drives the event loop.
//   - Proc.Sleep advances a process's virtual time.
//   - Mailbox is an unbounded FIFO channel between processes.
//   - Resource is a counting semaphore with a FIFO wait queue; Bandwidth
//     models a shared byte pipe (PFS or staging link) on top of it.
//   - Env.Interrupt cancels a process's current wait, which is how
//     fail-stop process failures are injected mid-computation.
//
// The staging service itself runs on free-running goroutines, not
// processes, so it reads time through a Clock (clock.go): Wall in
// production, Manual in a test that moves time by hand.
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"time"
)

// ErrInterrupted is returned from a blocking primitive when the waiting
// process was interrupted (e.g. by an injected failure).
var ErrInterrupted = errors.New("sim: interrupted")

// ErrDeadlock is returned by Run when no events remain but processes are
// still blocked on mailboxes or resources.
var ErrDeadlock = errors.New("sim: deadlock: processes blocked with empty event queue")

type event struct {
	at          time.Duration
	seq         uint64
	p           *Proc
	interrupted bool
	canceled    bool
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)    { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)      { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any        { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }
func (h *eventHeap) pushEv(e *event) { heap.Push(h, e) }
func (h *eventHeap) popEv() *event   { return heap.Pop(h).(*event) }

// Env is a simulation environment: one virtual clock and one event queue.
// An Env and all its processes must be driven from a single Run call;
// processes themselves may only use the environment through their Proc.
type Env struct {
	now    time.Duration
	seq    uint64
	queue  eventHeap
	parked chan struct{}
	alive  int
	nextID int
}

// NewEnv returns an empty environment at virtual time zero.
func NewEnv() *Env {
	return &Env{parked: make(chan struct{})}
}

// Now returns the current virtual time.
func (e *Env) Now() time.Duration { return e.now }

func (e *Env) schedule(p *Proc, at time.Duration, interrupted bool) *event {
	e.seq++
	ev := &event{at: at, seq: e.seq, p: p, interrupted: interrupted}
	e.queue.pushEv(ev)
	return ev
}

// Proc is a simulated process. Its body function runs on a dedicated
// goroutine but only ever executes while it holds the scheduler token,
// so no locking is needed inside process bodies.
type Proc struct {
	env    *Env
	id     int
	name   string
	resume chan bool
	// cancelWait removes the process from whatever wait list it is
	// parked on; nil when the process is runnable. Used by Interrupt.
	cancelWait func() bool
	done       bool
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Env returns the owning environment.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.env.now }

// Spawn creates a process named name running fn and schedules it to
// start at the current virtual time. It may be called before Run or from
// inside a running process.
func (e *Env) Spawn(name string, fn func(p *Proc)) *Proc {
	e.nextID++
	p := &Proc{env: e, id: e.nextID, name: name, resume: make(chan bool)}
	e.alive++
	e.schedule(p, e.now, false)
	go func() {
		<-p.resume // wait for the start event
		defer func() {
			p.done = true
			e.alive--
			e.parked <- struct{}{}
		}()
		fn(p)
	}()
	return p
}

// park hands the token back to the scheduler and blocks until this
// process is woken again. Returns true if the wake was an interrupt.
func (p *Proc) park() bool {
	p.env.parked <- struct{}{}
	intr := <-p.resume
	p.cancelWait = nil
	return intr
}

// Sleep advances the process's virtual time by d (clamped to >= 0).
// It returns ErrInterrupted if the process is interrupted mid-sleep.
func (p *Proc) Sleep(d time.Duration) error {
	if d < 0 {
		d = 0
	}
	ev := p.env.schedule(p, p.env.now+d, false)
	p.cancelWait = func() bool {
		if ev.canceled {
			return false
		}
		ev.canceled = true
		return true
	}
	if p.park() {
		return ErrInterrupted
	}
	return nil
}

// Interrupt cancels p's current wait (sleep, mailbox receive, or
// resource acquire) and wakes it with ErrInterrupted at the current
// virtual time. Interrupting a runnable or finished process is a no-op
// and returns false.
func (e *Env) Interrupt(p *Proc) bool {
	if p.done || p.cancelWait == nil {
		return false
	}
	if !p.cancelWait() {
		return false
	}
	p.cancelWait = nil
	e.schedule(p, e.now, true)
	return true
}

// Run drives the event loop until no events remain or until limit (if
// positive) would be exceeded. It returns ErrDeadlock if processes are
// still blocked when the queue drains.
func (e *Env) Run(limit time.Duration) error {
	for e.queue.Len() > 0 {
		ev := e.queue.popEv()
		if ev.canceled {
			continue
		}
		if limit > 0 && ev.at > limit {
			// Put it back for a later Run and stop at the limit.
			e.queue.pushEv(ev)
			e.now = limit
			return nil
		}
		if ev.at < e.now {
			panic(fmt.Sprintf("sim: event at %v in the past (now %v)", ev.at, e.now))
		}
		e.now = ev.at
		ev.p.resume <- ev.interrupted
		<-e.parked
	}
	if e.alive > 0 {
		return fmt.Errorf("%w (%d alive)", ErrDeadlock, e.alive)
	}
	return nil
}
