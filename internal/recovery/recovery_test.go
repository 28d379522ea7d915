package recovery

import (
	"fmt"
	"testing"
	"time"

	"gospaces/internal/domain"
	"gospaces/internal/health"
	"gospaces/internal/staging"
	"gospaces/internal/transport"
)

func fastDetector(tr transport.Transport) *health.Detector {
	return health.NewDetector(tr, "supervisor/0", health.Config{
		Period:       5 * time.Millisecond,
		Timeout:      20 * time.Millisecond,
		SuspectAfter: 2,
		DeadAfter:    4,
	})
}

func groupConfig(n int) staging.Config {
	return staging.Config{
		Global:   domain.Box3(0, 0, 0, 63, 63, 0),
		NServers: n,
		Bits:     2,
		ElemSize: 1,
	}
}

func TestSupervisorPromotesSpare(t *testing.T) {
	tr := manualWorld()
	g, err := staging.StartGroup(tr, "stage", groupConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	spareAddr, err := g.AddSpare()
	if err != nil {
		t.Fatal(err)
	}

	var promoted []string
	sup := New(tr, fastDetector(tr), g.Membership(), g, Config{
		OnPromote: func(slot int, addr string, epoch uint64) {
			promoted = append(promoted, fmt.Sprintf("%d@%s/e%d", slot, addr, epoch))
		},
	})
	defer sup.Close()
	sup.Start()

	if err := g.FailStop(1); err != nil {
		t.Fatal(err)
	}
	if r := waitIdle(manualOf(tr), period, sup); r.err != nil {
		t.Fatal(r.err)
	}

	if e := g.Membership().Epoch(); e != 2 {
		t.Fatalf("epoch = %d", e)
	}
	if a := g.Membership().Addr(1); a != spareAddr {
		t.Fatalf("slot 1 = %s, want %s", a, spareAddr)
	}
	if len(promoted) != 1 || promoted[0] != fmt.Sprintf("1@%s/e2", spareAddr) {
		t.Fatalf("OnPromote calls = %v", promoted)
	}
	m := sup.Metrics()
	if m.Counter("recovery.promotions").Value() != 1 {
		t.Fatalf("promotions = %d", m.Counter("recovery.promotions").Value())
	}
	if m.Counter("recovery.duration_ns").Value() <= 0 {
		t.Fatal("no recovery duration recorded")
	}

}

func TestSupervisorNoSpare(t *testing.T) {
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
	stepUntil(t, manualOf(tr), time.Second, func() bool {
		return sup.Metrics().Counter("recovery.no_spare").Value() > 0
	}, sup)
	if e := g.Membership().Epoch(); e != 1 {
		t.Fatalf("epoch bumped to %d without a spare", e)
	}
}

// TestRecoveryUnderChaosSchedule is the integration test for the fault
// model: a transport.Chaos blackout window crashes one member
// transiently while another fail-stops for good (Group.FailStop), and
// exactly the fail-stop (not the crash) must trigger a promotion.
func TestRecoveryUnderChaosSchedule(t *testing.T) {
	chaos := transport.NewChaos(manualWorld(), 42)
	clk := manualOf(chaos)
	g, err := staging.StartGroup(chaos, "stage", groupConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	spareAddr, err := g.AddSpare()
	if err != nil {
		t.Fatal(err)
	}

	// Crash server 2 transiently (recovers at 90ms) and fail-stop server
	// 1 permanently, both now. The detector's Dead threshold (12
	// consecutive misses at 15ms = 180ms) outlasts the crash window, so
	// only the fail-stop is promoted — a transient blackout must never
	// spend the spare.
	chaos.Blackout(g.Membership().Addr(2), 90*time.Millisecond)
	if err := g.FailStop(1); err != nil {
		t.Fatal(err)
	}

	det := health.NewDetector(chaos, "supervisor/0", health.Config{
		Period:       15 * time.Millisecond,
		Timeout:      60 * time.Millisecond,
		SuspectAfter: 2,
		DeadAfter:    12,
	})
	sup := New(chaos, det, g.Membership(), g, Config{})
	defer sup.Close()
	sup.Start()

	if r := waitIdle(clk, 15*time.Millisecond, sup); r.err != nil {
		t.Fatal(r.err)
	}
	m := sup.Metrics()
	if v := m.Counter("recovery.promotions").Value(); v != 1 {
		t.Fatalf("promotions = %d (crash must not promote)", v)
	}
	if g.Membership().Addr(1) != spareAddr {
		t.Fatalf("slot 1 = %s", g.Membership().Addr(1))
	}
}
