package recovery

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"gospaces/internal/health"
	"gospaces/internal/staging"
	"gospaces/internal/transport"
)

// The tests in this file pin what WaitIdle confirms: it returns once no
// recovery is in flight and every watched slot has answered a probe
// sent after the call (and after the last recovery), never on a quiet
// spell of time. Where they bound how long it takes, they count probe
// rounds on the manual clock.

// seenAt returns the verdict WaitIdle last decided on for slot.
func (s *Supervisor) seenAt(slot int) health.Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen[slot]
}

// TestWaitIdleConfirmsPromotedSpare: for every victim, FailStop then
// WaitIdle returns with the slot promoted exactly once, the membership
// naming the spare, and the spare having answered a probe — the dead
// member's address can answer none after the kill.
func TestWaitIdleConfirmsPromotedSpare(t *testing.T) {
	const n = 4
	for victim := 0; victim < n; victim++ {
		h := startHarness(t, replGroupConfig(n, 1))
		if err := h.exec(script[0]); err != nil {
			t.Fatal(err)
		}
		spare := h.g.Spares()[0]
		killed := h.clk.Now()
		if err := h.g.FailStop(victim); err != nil {
			t.Fatal(err)
		}
		if err := h.waitIdle(); err != nil {
			t.Fatalf("victim %d: %v", victim, err)
		}
		st := h.sup.seenAt(victim)
		if p := h.sup.Metrics().Counter("recovery.promotions").Value(); p != 1 {
			t.Fatalf("victim %d: %d promotions when WaitIdle returned, want 1", victim, p)
		}
		if a := h.g.Membership().Addr(victim); a != spare {
			t.Fatalf("victim %d: slot names %s, want the spare %s", victim, a, spare)
		}
		if st.State != health.Alive || !st.Heard.After(killed) {
			t.Fatalf("victim %d: WaitIdle returned on %+v: the spare had not answered since the kill at %v", victim, st, killed)
		}
	}
}

// TestWaitIdleOverRetryingDetector: a detector over the retrying
// transport waits out the retry layer's back-off on every probe of a
// dead member, so a death takes longer to confirm than a detection
// window. WaitIdle must not report idle in the meantime: the dead
// member never answers.
//
// The back-off waits on the clock, so a probe round here may end only
// as the clock moves: after each step the test waits until the round
// has ended and the supervisor has confirmed it, or the round is parked
// on the clock — a back-off timer armed beside the detector's ticker.
// The probe timeout is out of reach, so a probe ends when its call does
// and no verdict depends on how far the clock runs ahead of a probe.
func TestWaitIdleOverRetryingDetector(t *testing.T) {
	tr := manualWorld()
	clk := manualOf(tr)
	g, err := staging.StartGroup(tr, "stage", groupConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	spare, err := g.AddSpare()
	if err != nil {
		t.Fatal(err)
	}
	pol := transport.DefaultRetryPolicy()
	retry := transport.WithRetry(tr, pol)
	defer retry.Close()
	det := health.NewDetector(retry, "supervisor/0", health.Config{Period: period, Timeout: time.Hour, SuspectAfter: 2, DeadAfter: 4})
	sup := New(tr, det, g.Membership(), g, Config{})
	defer sup.Close()
	sup.Start()
	// parked reports a back-off timer armed: besides the detector's
	// ticker, a deadline within the policy's longest back-off. The
	// supervisor's lease ticker, WaitIdle's timeout and the probes'
	// hour-long timeouts all lie beyond it.
	parked := func() bool {
		n := 0
		for _, d := range clk.Pending() {
			if d <= pol.MaxDelay {
				n++
			}
		}
		return n > 1
	}
	waitRunning := func() {
		t.Helper()
		res := goWaitIdle(clk, sup)
		for {
			select {
			case r := <-res:
				if r.err != nil {
					t.Fatal(r.err)
				}
				return
			default:
			}
			sup.quiet()
			round := sup.det.Round()
			clk.Advance(period)
			for ended := false; !ended && !parked(); runtime.Gosched() {
				select {
				case <-round:
					sup.confirmed()
					ended = true
				default:
				}
			}
		}
	}
	waitRunning()
	if err := g.FailStop(1); err != nil {
		t.Fatal(err)
	}
	waitRunning()
	if p, a := sup.Metrics().Counter("recovery.promotions").Value(), g.Membership().Addr(1); p != 1 || a != spare {
		t.Fatalf("WaitIdle reported idle with %d promotions and slot 1 at %s; want 1 and the spare %s", p, a, spare)
	}
}

// TestWaitIdleFaultFreeWithinTwoRounds: with nothing failing, WaitIdle
// costs at most the probe round in progress at the call plus the one
// after it, whose probes all leave after the call. On a clock that
// moves only between rounds no round is in progress at the call: it
// returns on the first round, one step of the clock, and no more.
func TestWaitIdleFaultFreeWithinTwoRounds(t *testing.T) {
	tr := manualWorld()
	clk := manualOf(tr)
	g, err := staging.StartGroup(tr, "stage", groupConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	sup := New(tr, fastDetector(tr), g.Membership(), g, Config{})
	defer sup.Close()
	sup.Start()
	for i := 0; i < 5; i++ {
		res := waitIdleAsync(clk, sup)
		step(clk, period, sup)
		// The round is over; confirming it takes the supervisor no more
		// clock, so WaitIdle returns without another step.
		if r := <-res; r.err != nil {
			t.Fatalf("call %d: %v", i, r.err)
		}
	}
}

// TestWaitIdleHeldByBlackout: a member blacked out (too briefly to be
// declared dead) holds WaitIdle until it answers again, and nothing is
// promoted.
func TestWaitIdleHeldByBlackout(t *testing.T) {
	chaos := transport.NewChaos(manualWorld(), 3)
	clk := manualOf(chaos)
	g, err := staging.StartGroup(chaos, "stage", groupConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.AddSpare(); err != nil {
		t.Fatal(err)
	}
	det := health.NewDetector(chaos, "supervisor/0", health.Config{
		Period: period, Timeout: 20 * time.Millisecond, SuspectAfter: 2, DeadAfter: 1000,
	})
	sup := New(chaos, det, g.Membership(), g, Config{})
	defer sup.Close()
	sup.Start()
	if r := waitIdle(clk, period, sup); r.err != nil {
		t.Fatal(r.err)
	}
	const dark = 60 * time.Millisecond
	from := clk.Now()
	chaos.Blackout(g.Membership().Addr(2), dark)
	r := waitIdle(clk, period, sup)
	if r.err != nil {
		t.Fatal(r.err)
	}
	if held := r.at.Sub(from); held < dark {
		t.Fatalf("WaitIdle returned %v into a %v blackout of member 2", held, dark)
	}
	if st := sup.seenAt(2); st.State != health.Alive || st.Heard.Before(from.Add(dark)) {
		t.Fatalf("member 2 at return: %+v, want alive and heard since the blackout ended", st)
	}
	if p := sup.Metrics().Counter("recovery.promotions").Value(); p != 0 {
		t.Fatalf("%d promotions for a blackout", p)
	}
}

// promptGroup is a 4-member group with a spare under a supervisor whose
// periodic probe round is period away on a clock the test moves: a
// test drives the promotion by hand (killByHand), not through
// detection. At the promotion's pushed stage, atPushed runs and then
// WaitIdle is called on a goroutine of its own, which has taken its
// start time before the repair ends; once the promotion has run, the
// returned func yields its result.
func promptGroup(t *testing.T, tr transport.Transport, period time.Duration, atPushed func()) (*staging.Group, *Supervisor, func() idleResult) {
	t.Helper()
	g, err := staging.StartGroup(tr, "stage", groupConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	if _, err := g.AddSpare(); err != nil {
		t.Fatal(err)
	}
	det := health.NewDetector(tr, "supervisor/0", health.Config{Period: period, Timeout: 50 * time.Millisecond, SuspectAfter: 2, DeadAfter: 4})
	var sup *Supervisor
	var res <-chan idleResult
	sup = New(tr, det, g.Membership(), g, Config{
		PromotionHook: func(stage string, _ int) {
			if stage == "pushed" {
				atPushed()
				res = waitIdleAsync(manualOf(tr), sup)
			}
		},
	})
	t.Cleanup(func() { sup.Close() })
	sup.Start()
	return g, sup, func() idleResult { return <-res }
}

// killByHand fail-stops slot and hands the supervisor its death verdict
// directly, so the promotion runs now instead of a detection later.
func killByHand(t *testing.T, g *staging.Group, sup *Supervisor, slot int) {
	t.Helper()
	addr := g.Membership().Addr(slot)
	if err := g.FailStop(slot); err != nil {
		t.Fatal(err)
	}
	sup.handleEvent(health.Event{Server: slot, Addr: addr, State: health.Dead})
	if p := sup.Metrics().Counter("recovery.promotions").Value(); p != 1 {
		t.Fatalf("%d promotions after the death verdict, want 1", p)
	}
}

// TestWaitIdleConfirmsRepairAtOnce: the end of a recovery starts a probe
// round, so WaitIdle, called while the promotion runs, returns on it
// with the clock standing still: the periodic round, a second away,
// never runs.
func TestWaitIdleConfirmsRepairAtOnce(t *testing.T) {
	g, sup, idle := promptGroup(t, manualWorld(), time.Second, func() {})
	killByHand(t, g, sup, 1)
	if r := idle(); r.err != nil {
		t.Fatal(r.err)
	}
	if n := sup.det.Metrics().Counter("health.rounds").Value(); n != 1 {
		t.Fatalf("health.rounds = %d, want the one round the repair asked for", n)
	}
	if st := sup.seenAt(1); st.State != health.Alive || st.Heard.IsZero() {
		t.Fatalf("the spare at return: %+v, want alive and heard", st)
	}
}

// TestWaitIdleSpareMissesRequestedRound: a spare that does not answer the
// round the repair asked for keeps WaitIdle waiting for a periodic
// round it answers; the missed requested round counts toward nothing.
func TestWaitIdleSpareMissesRequestedRound(t *testing.T) {
	const dark, every = 60 * time.Millisecond, 250 * time.Millisecond
	chaos := transport.NewChaos(manualWorld(), 4)
	clk := manualOf(chaos)
	var (
		from      time.Time
		g         *staging.Group
		sup       *Supervisor
		requested <-chan struct{}
	)
	g, sup, idle := promptGroup(t, chaos, every, func() {
		from = clk.Now()
		chaos.Blackout(g.Membership().Addr(1), dark) // the spare, promoted
		requested = sup.det.Round()                  // the round the repair asks for
	})
	killByHand(t, g, sup, 1)
	<-requested
	if st := sup.det.Statuses()[1]; !st.Heard.IsZero() {
		t.Fatalf("the dark spare answered the requested round: %+v", st)
	}
	step(clk, every, sup)
	r := idle()
	if r.err != nil {
		t.Fatal(r.err)
	}
	if held := r.at.Sub(from); held < dark {
		t.Fatalf("WaitIdle returned %v into the spare's %v blackout", held, dark)
	}
	if st := sup.seenAt(1); st.State != health.Alive || st.Heard.Before(from.Add(dark)) {
		t.Fatalf("the spare at return: %+v, want alive and heard after its blackout", st)
	}
	if p := sup.Metrics().Counter("recovery.promotions").Value(); p != 1 {
		t.Fatalf("%d promotions, want 1", p)
	}
}

// TestWaitIdleStoppedSupervisor: a killed or closed supervisor can
// confirm nothing, so WaitIdle fails at once — whether it was already
// waiting (on a dead slot no spare can heal) or is called afterwards —
// instead of sitting out its timeout, which the clock never reaches.
func TestWaitIdleStoppedSupervisor(t *testing.T) {
	for _, stop := range []string{"kill", "close"} {
		t.Run(stop, func(t *testing.T) {
			tr := manualWorld()
			g, err := staging.StartGroup(tr, "stage", groupConfig(3))
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			sup := New(tr, fastDetector(tr), g.Membership(), g, Config{})
			defer sup.Close()
			sup.Start()
			if err := g.FailStop(2); err != nil {
				t.Fatal(err)
			}
			waiting := waitIdleAsync(manualOf(tr), sup)
			if stop == "kill" {
				sup.Kill()
			} else {
				sup.Close()
			}
			if r := <-waiting; r.err == nil || !strings.Contains(r.err.Error(), "stopped") {
				t.Fatalf("WaitIdle across %s = %v, want the stopped error", stop, r.err)
			}
			if err := sup.WaitIdle(time.Hour); err == nil {
				t.Fatalf("WaitIdle after %s reported idle", stop)
			}
		})
	}
}
