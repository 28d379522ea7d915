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
