package recovery

import (
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
// spell of wall-clock time. Where they bound how long it takes, they
// count detector rounds.

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
		killed := time.Now()
		if err := h.g.FailStop(victim); err != nil {
			t.Fatal(err)
		}
		if err := h.sup.WaitIdle(10 * time.Second); err != nil {
			t.Fatalf("victim %d: %v", victim, err)
		}
		st := h.sup.seenAt(victim)
		if p := h.sup.Metrics().Counter("recovery.promotions").Value(); p != 1 {
			t.Fatalf("victim %d: %d promotions when WaitIdle returned, want 1", victim, p)
		}
		if a := h.g.Membership().Addr(victim); a != spare {
			t.Fatalf("victim %d: slot names %s, want the spare %s", victim, a, spare)
		}
		if st.State != health.Alive || st.Heard.Before(killed) {
			t.Fatalf("victim %d: WaitIdle returned on %+v: the spare had not answered since the kill at %v", victim, st, killed)
		}
	}
}

// TestWaitIdleOverRetryingDetector: a detector over the retrying
// transport sleeps in back-off past its own probe timeout, so a death
// takes longer to confirm than a detection window. WaitIdle must not
// report idle in the meantime: the dead member never answers.
func TestWaitIdleOverRetryingDetector(t *testing.T) {
	tr := transport.NewInProc()
	g, err := staging.StartGroup(tr, "stage", groupConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	spare, err := g.AddSpare()
	if err != nil {
		t.Fatal(err)
	}
	retry := transport.WithRetry(tr, transport.DefaultRetryPolicy())
	defer retry.Close()
	sup := New(tr, fastDetector(retry), g.Membership(), g, Config{})
	defer sup.Close()
	sup.Start()
	if err := sup.WaitIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := g.FailStop(1); err != nil {
		t.Fatal(err)
	}
	if err := sup.WaitIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if p, a := sup.Metrics().Counter("recovery.promotions").Value(), g.Membership().Addr(1); p != 1 || a != spare {
		t.Fatalf("WaitIdle reported idle with %d promotions and slot 1 at %s; want 1 and the spare %s", p, a, spare)
	}
}

// TestWaitIdleFaultFreeWithinTwoRounds: with nothing failing, WaitIdle
// costs at most the probe round in progress at the call plus the one
// after it, whose probes all leave after the call.
func TestWaitIdleFaultFreeWithinTwoRounds(t *testing.T) {
	tr := transport.NewInProc()
	g, err := staging.StartGroup(tr, "stage", groupConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	// A period long against scheduling noise: a third round can only
	// slip in if the waiter sleeps through a whole one.
	det := health.NewDetector(tr, "supervisor/0", health.Config{Period: 25 * time.Millisecond, SuspectAfter: 2, DeadAfter: 4})
	sup := New(tr, det, g.Membership(), g, Config{})
	defer sup.Close()
	sup.Start()
	rounds := det.Metrics().Counter("health.rounds")
	for i := 0; i < 5; i++ {
		before := rounds.Value()
		if err := sup.WaitIdle(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		if n := rounds.Value() - before; n > 2 {
			t.Fatalf("call %d: WaitIdle took %d probe rounds on a fault-free group, want at most 2", i, n)
		}
	}
}

// TestWaitIdleHeldByBlackout: a member blacked out (too briefly to be
// declared dead) holds WaitIdle until it answers again, and nothing is
// promoted.
func TestWaitIdleHeldByBlackout(t *testing.T) {
	chaos := transport.NewChaos(transport.NewInProc(), 3)
	g, err := staging.StartGroup(chaos, "stage", groupConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.AddSpare(); err != nil {
		t.Fatal(err)
	}
	det := health.NewDetector(chaos, "supervisor/0", health.Config{
		Period: 5 * time.Millisecond, Timeout: 20 * time.Millisecond, SuspectAfter: 2, DeadAfter: 1000,
	})
	sup := New(chaos, det, g.Membership(), g, Config{})
	defer sup.Close()
	sup.Start()
	if err := sup.WaitIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	const dark = 60 * time.Millisecond
	from := time.Now()
	chaos.Blackout(g.Membership().Addr(2), dark)
	if err := sup.WaitIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if held := time.Since(from); held < dark {
		t.Fatalf("WaitIdle returned %v into a %v blackout of member 2", held, dark)
	}
	if st := sup.seenAt(2); st.State != health.Alive || st.Heard.Before(from) {
		t.Fatalf("member 2 at return: %+v, want alive and heard since the blackout began", st)
	}
	if p := sup.Metrics().Counter("recovery.promotions").Value(); p != 0 {
		t.Fatalf("%d promotions for a blackout", p)
	}
}

// promptGroup is a 4-member group with a spare under a supervisor whose
// periodic probe round is period away: a test drives the promotion by
// hand (handleEvent), not through detection. At the promotion's pushed
// stage, atPushed runs and then WaitIdle is called on a goroutine of its
// own; the returned channel yields WaitIdle's result and how long after
// the repair ended (OnPromote) it returned.
func promptGroup(t *testing.T, tr transport.Transport, period time.Duration, atPushed func()) (*staging.Group, *Supervisor, <-chan idleResult) {
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
	out := make(chan idleResult, 1)
	var (
		sup      *Supervisor
		repaired = make(chan time.Time, 1)
	)
	sup = New(tr, det, g.Membership(), g, Config{
		PromotionHook: func(stage string, _ int) {
			if stage != "pushed" {
				return
			}
			atPushed()
			calling := make(chan struct{})
			go func() {
				close(calling)
				err := sup.WaitIdle(10 * time.Second)
				out <- idleResult{err: err, afterRepair: time.Since(<-repaired)}
			}()
			// Let the waiter take its start time before the repair ends.
			<-calling
			time.Sleep(10 * time.Millisecond)
		},
		OnPromote: func(int, string, uint64) { repaired <- time.Now() },
	})
	t.Cleanup(func() { sup.Close() })
	sup.Start()
	return g, sup, out
}

type idleResult struct {
	err         error
	afterRepair time.Duration
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
// round, so WaitIdle, called while the promotion runs, returns within a
// few milliseconds of the repair although the next periodic round is a
// second away.
func TestWaitIdleConfirmsRepairAtOnce(t *testing.T) {
	const period, budget = time.Second, 100 * time.Millisecond
	g, sup, idle := promptGroup(t, transport.NewInProc(), period, func() {})
	killByHand(t, g, sup, 1)
	r := <-idle
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.afterRepair > budget {
		t.Fatalf("WaitIdle returned %v after the repair, want under %v (the periodic round is %v away)", r.afterRepair, budget, period)
	}
	if st := sup.seenAt(1); st.State != health.Alive || st.Heard.IsZero() {
		t.Fatalf("the spare at return: %+v, want alive and heard", st)
	}
}

// TestWaitIdleSpareMissesRequestedRound: a spare that does not answer the
// round the repair asked for keeps WaitIdle waiting for a periodic
// round it answers; the missed requested round counts toward nothing.
func TestWaitIdleSpareMissesRequestedRound(t *testing.T) {
	const dark = 60 * time.Millisecond
	chaos := transport.NewChaos(transport.NewInProc(), 4)
	var from time.Time
	var g *staging.Group
	g, sup, idle := promptGroup(t, chaos, 250*time.Millisecond, func() {
		from = time.Now()
		chaos.Blackout(g.Membership().Addr(1), dark) // the spare, promoted
	})
	killByHand(t, g, sup, 1)
	r := <-idle
	if r.err != nil {
		t.Fatal(r.err)
	}
	if held := time.Since(from); held < dark {
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
// instead of sitting out its timeout.
func TestWaitIdleStoppedSupervisor(t *testing.T) {
	for _, stop := range []string{"kill", "close"} {
		t.Run(stop, func(t *testing.T) {
			tr := transport.NewInProc()
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
			waiting := make(chan error, 1)
			go func() { waiting <- sup.WaitIdle(time.Hour) }()
			if stop == "kill" {
				sup.Kill()
			} else {
				sup.Close()
			}
			select {
			case err := <-waiting:
				if err == nil || !strings.Contains(err.Error(), "stopped") {
					t.Fatalf("WaitIdle across %s = %v, want the stopped error", stop, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("WaitIdle still waiting after %s", stop)
			}
			if err := sup.WaitIdle(time.Hour); err == nil {
				t.Fatalf("WaitIdle after %s reported idle", stop)
			}
		})
	}
}
