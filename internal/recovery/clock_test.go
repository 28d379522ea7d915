package recovery

import (
	"testing"
	"time"

	"gospaces/internal/sim"
	"gospaces/internal/transport"
)

// The recovery tests run on a manual clock that the in-process
// transport carries, so the servers' leases, the chaos windows, the
// detector and the supervisor all read it. Nothing in them sleeps: a
// test moves the clock one probe period at a time (step), and only at
// barriers the code exposes — once no supervisor has a recovery in
// flight (recovery.in_flight, whose changes wake WaitIdle's waiters),
// and then not again before the probe round the step started has ended
// on every live detector (Detector.Round) and every supervisor's loop
// has confirmed it: handled its transitions, a death's promotion
// included. A probe round here never waits on the clock itself: the
// members are in-process and a fault is a blackout, which fails a call
// at once.

// period is the probe period of fastDetector and haDetector.
const period = 5 * time.Millisecond

// idleTimeout bounds every WaitIdle, in clock time.
const idleTimeout = 10 * time.Second

// manualWorld returns an in-process transport whose world runs on a
// manual clock.
func manualWorld() *transport.InProc {
	tr := transport.NewInProc()
	tr.Clock = sim.NewManual()
	return tr
}

// manualOf returns the manual clock a test world built on manualWorld
// runs on.
func manualOf(tr transport.Transport) *sim.Manual {
	return transport.ClockOf(tr).(*sim.Manual)
}

// quiet returns once s has no recovery in flight, or is stopped.
func (s *Supervisor) quiet() {
	for {
		s.mu.Lock()
		busy, wake := s.reg.Counter("recovery.in_flight").Value() > 0, s.wake
		s.mu.Unlock()
		if !busy || s.stopped() {
			return
		}
		select {
		case <-wake:
		case <-s.stop:
		}
	}
}

// confirmed returns once s's loop has confirmed every probe round that
// has ended — the round it waits on next is still open — or s is
// stopped.
func (s *Supervisor) confirmed() {
	for {
		s.mu.Lock()
		next, wake := s.next, s.wake
		s.mu.Unlock()
		select {
		case <-next:
		default:
			return
		}
		if s.stopped() {
			return
		}
		select {
		case <-wake:
		case <-s.stop:
		}
	}
}

// step advances clk one period once no supervisor has a recovery in
// flight, and returns when the probe round it starts has ended on every
// supervisor's detector and each supervisor has confirmed it (a stopped
// supervisor's detector is closed, so never waited on).
func step(clk *sim.Manual, period time.Duration, sups ...*Supervisor) {
	for _, s := range sups {
		s.quiet()
	}
	rounds := make([]<-chan struct{}, len(sups))
	for i, s := range sups {
		rounds[i] = s.det.Round()
	}
	clk.Advance(period)
	for i, r := range rounds {
		<-r
		sups[i].confirmed()
	}
}

// stepUntil steps the clock until cond holds, checking it at every
// step, and fails the test once limit of clock time has passed without
// it.
func stepUntil(t *testing.T, clk *sim.Manual, limit time.Duration, cond func() bool, sups ...*Supervisor) {
	t.Helper()
	for end := clk.Now().Add(limit); !cond(); step(clk, period, sups...) {
		if clk.Now().After(end) {
			t.Fatalf("condition not reached in %v of clock time", limit)
		}
	}
}

// idleResult is what one WaitIdle returned, and the clock's reading
// just after.
type idleResult struct {
	err error
	at  time.Time
}

// waitIdleAsync calls sup.WaitIdle on a goroutine of its own and
// returns once the call has taken its start time, which it does just
// before arming its timeout on clk. It counts armed deadlines, so it is
// for a world whose clock nothing else arms or disarms meanwhile: no
// probe round in progress. The channel yields the result.
func waitIdleAsync(clk *sim.Manual, sup *Supervisor) <-chan idleResult {
	armed := len(clk.Pending())
	out := goWaitIdle(clk, sup)
	clk.AwaitPending(armed + 1)
	return out
}

func goWaitIdle(clk *sim.Manual, sup *Supervisor) <-chan idleResult {
	out := make(chan idleResult, 1)
	go func() {
		err := sup.WaitIdle(idleTimeout)
		out <- idleResult{err: err, at: clk.Now()}
	}()
	return out
}

// waitIdle is sup.WaitIdle on a clock that steps by every (the
// detectors' probe period), with every supervisor in sups as a barrier,
// until it returns.
func waitIdle(clk *sim.Manual, every time.Duration, sup *Supervisor, sups ...*Supervisor) idleResult {
	res := goWaitIdle(clk, sup)
	sups = append(sups, sup)
	for {
		select {
		case r := <-res:
			return r
		default:
			step(clk, every, sups...)
		}
	}
}
