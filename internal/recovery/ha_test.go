package recovery

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"gospaces/internal/health"
	"gospaces/internal/staging"
	"gospaces/internal/transport"
)

// The tests in this file cover the HA-recovery machinery in isolation:
// spare refunds on failed promotions, the dead-slot backlog healing on
// a late AddSpare, view-push convergence for members that were dark
// during the push, and leader election with fencing across redundant
// supervisors.

func haDetector(tr transport.Transport, id string) *health.Detector {
	return health.NewDetector(tr, id, health.Config{
		Period:       5 * time.Millisecond,
		Timeout:      25 * time.Millisecond,
		SuspectAfter: 2,
		DeadAfter:    4,
	})
}

// TestSpareReturnedOnFailedRestore is the spare-leak regression: the
// spare drawn for a promotion whose log restore fails (the spare is
// unreachable) must go back to the pool, and the backlogged slot must
// still heal once the spare is reachable again.
func TestSpareReturnedOnFailedRestore(t *testing.T) {
	inner := transport.NewInProc()
	chaos := transport.NewChaos(inner, 1)
	cfg := groupConfig(3)
	cfg.WlogReplicas = 1
	g, err := staging.StartGroup(chaos, "stage", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	spareAddr, err := g.AddSpare()
	if err != nil {
		t.Fatal(err)
	}

	// Logged traffic so the victim's queue has a surviving replica: the
	// promotion must attempt a restore (and fail it against the dark
	// spare) rather than skip on log_missing.
	prod, err := g.NewClient("sim/0")
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()
	buf := make([]byte, 64*64)
	for i := range buf {
		buf[i] = byte(i * 3)
	}
	if err := prod.PutWithLog("field", 1, cfg.Global, buf); err != nil {
		t.Fatal(err)
	}

	sup := New(chaos, haDetector(chaos, "sup/ret"), g.Membership(), g, Config{})
	defer sup.Close()
	sup.Start()

	// The spare is dark for long enough that at least the first
	// promotion attempt fails its WlogInstall; the tick-driven backlog
	// retry succeeds once the blackout lifts.
	chaos.Blackout(spareAddr, 400*time.Millisecond)
	if err := g.FailStop(1); err != nil {
		t.Fatal(err)
	}
	if err := sup.WaitIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	m := sup.Metrics()
	if v := m.Counter("recovery.spare_returns").Value(); v == 0 {
		t.Fatal("failed restore never refunded the spare")
	}
	if v := m.Counter("recovery.failed_promotions").Value(); v == 0 {
		t.Fatal("no failed promotion recorded despite the dark spare")
	}
	if v := m.Counter("recovery.promotions").Value(); v != 1 {
		t.Fatalf("promotions = %d, want exactly 1", v)
	}
	if a := g.Membership().Addr(1); a != spareAddr {
		t.Fatalf("slot 1 = %s, want %s", a, spareAddr)
	}
	if n := g.SparesConsumed(); n != 1 {
		t.Fatalf("spares consumed = %d after refund+retry, want 1", n)
	}
}

// TestLateSpareHealsBacklog is the late-spare dead-end regression: a
// death against an empty pool strands the slot (clients are told via
// OnSlotDown), and a later AddSpare must heal it via the backlog sweep
// without another death event.
func TestLateSpareHealsBacklog(t *testing.T) {
	tr := transport.NewInProc()
	g, err := staging.StartGroup(tr, "stage", groupConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	var mu sync.Mutex
	var marks []bool
	sup := New(tr, haDetector(tr, "sup/late"), g.Membership(), g, Config{
		OnSlotDown: func(slot int, down bool) {
			mu.Lock()
			marks = append(marks, down)
			mu.Unlock()
		},
	})
	defer sup.Close()
	sup.Start()

	if err := g.FailStop(2); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sup.Metrics().Counter("recovery.no_spare").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no_spare never recorded")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ds := sup.DeadSlots(); len(ds) != 1 || ds[0] != 2 {
		t.Fatalf("dead backlog = %v, want [2]", ds)
	}

	spareAddr, err := g.AddSpare()
	if err != nil {
		t.Fatal(err)
	}
	if err := sup.WaitIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	m := sup.Metrics()
	if v := m.Counter("recovery.promotions").Value(); v != 1 {
		t.Fatalf("promotions = %d", v)
	}
	if v := m.Counter("recovery.dead_retries").Value(); v != 1 {
		t.Fatalf("dead_retries = %d, want 1 (the late-spare heal)", v)
	}
	if a := g.Membership().Addr(2); a != spareAddr {
		t.Fatalf("slot 2 = %s, want %s", a, spareAddr)
	}
	if ds := sup.DeadSlots(); len(ds) != 0 {
		t.Fatalf("dead backlog = %v after heal", ds)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(marks) < 2 || marks[0] != true || marks[len(marks)-1] != false {
		t.Fatalf("OnSlotDown marks = %v, want down then up", marks)
	}
}

// TestStaleDeathAfterPromotionIgnored is the double-promotion
// regression: a standby's loop may handle another supervisor's
// membership change before a death verdict its detector queued for the
// old address. That verdict must not put the promoted slot back in the
// backlog, or the standby, once leader, promotes over the live spare.
func TestStaleDeathAfterPromotionIgnored(t *testing.T) {
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
	standby := New(tr, haDetector(tr, "sup/standby"), g.Membership(), g, Config{})
	defer standby.Close()

	dead := g.Membership().Addr(1)
	if _, err := g.Membership().ReplaceFenced(1, 1, spare); err != nil {
		t.Fatal(err)
	}
	standby.handleChange(health.Change{Epoch: 2, Server: 1, Addr: spare})
	standby.handleEvent(health.Event{Server: 1, Addr: dead, State: health.Dead})
	if ds := standby.DeadSlots(); len(ds) != 0 {
		t.Fatalf("dead backlog = %v after a stale verdict on the promoted slot", ds)
	}
	standby.handleEvent(health.Event{Server: 1, Addr: spare, State: health.Dead})
	if ds := standby.DeadSlots(); len(ds) != 1 || ds[0] != 1 {
		t.Fatalf("dead backlog = %v, want [1] once the spare itself dies", ds)
	}
}

// TestViewPushPartialFailureConverges covers a member that is dark
// while the leader pushes the post-promotion view: on rejoin the
// leader re-sends the current view, so the member converges to the new
// epoch instead of serving the stale membership forever.
func TestViewPushPartialFailureConverges(t *testing.T) {
	inner := transport.NewInProc()
	chaos := transport.NewChaos(inner, 2)
	g, err := staging.StartGroup(chaos, "stage", groupConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	spareAddr, err := g.AddSpare()
	if err != nil {
		t.Fatal(err)
	}

	// Member 2 goes dark right after the membership write of slot 1's
	// promotion — exactly in time to miss the view push — and rejoins
	// well after the new epoch is installed everywhere else. (A blackout
	// started before the promotion would get member 2 itself confirmed
	// dead first and promoted into, stealing the spare.)
	darkAddr := g.Membership().Addr(2)
	sup := New(chaos, haDetector(chaos, "sup/push"), g.Membership(), g, Config{
		PromotionHook: func(stage string, slot int) {
			if stage == "replaced" && slot == 1 {
				chaos.Blackout(darkAddr, 150*time.Millisecond)
			}
		},
	})
	defer sup.Close()
	sup.Start()

	if err := g.FailStop(1); err != nil {
		t.Fatal(err)
	}
	if err := sup.WaitIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	if v := sup.Metrics().Counter("recovery.promotions").Value(); v != 1 {
		t.Fatalf("promotions = %d, want 1 (the dark member must not be promoted)", v)
	}
	if e := g.Membership().Epoch(); e != 2 {
		t.Fatalf("epoch = %d", e)
	}
	if v := sup.Metrics().Counter("recovery.view_repushes").Value(); v == 0 {
		t.Fatal("rejoining member was never re-sent the view")
	}
	// The rejoined member itself serves the new view.
	conn, err := chaos.Dial(darkAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	raw, err := conn.Call(staging.MembershipReq{})
	if err != nil {
		t.Fatal(err)
	}
	view := raw.(staging.MembershipResp)
	if view.Epoch != 2 || len(view.Addrs) != 4 || view.Addrs[1] != spareAddr {
		t.Fatalf("rejoined member's view = %+v, want epoch 2 with slot 1 = %s", view, spareAddr)
	}
}

// TestRedundantSupervisorsElectionAndFencing runs three supervisors
// over one group: exactly one wins the lease; killing it elects a
// standby under a strictly higher token within a couple of lease TTLs;
// the dead leader's token is fenced out server-side; and the survivor
// performs the one promotion.
func TestRedundantSupervisorsElectionAndFencing(t *testing.T) {
	tr := transport.NewInProc()
	g, err := staging.StartGroup(tr, "stage", groupConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	spareAddr, err := g.AddSpare()
	if err != nil {
		t.Fatal(err)
	}

	const ttl = 150 * time.Millisecond
	sups := make([]*Supervisor, 3)
	for i := range sups {
		id := fmt.Sprintf("ha/sup/%d", i)
		sups[i] = New(tr, haDetector(tr, id), g.Membership(), g, Config{ID: id, LeaseTTL: ttl})
		defer sups[i].Close()
		sups[i].Start()
	}

	leaders := func() []*Supervisor {
		var out []*Supervisor
		for _, s := range sups {
			if s.IsLeader() {
				out = append(out, s)
			}
		}
		return out
	}
	if l := leaders(); len(l) != 1 {
		t.Fatalf("%d leaders after start, want 1", len(l))
	}
	old := leaders()[0]
	oldToken := old.Token()

	old.Kill()
	var successor *Supervisor
	deadline := time.Now().Add(10 * ttl)
	for {
		if l := leaders(); len(l) == 1 {
			successor = l[0]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no successor elected within %v of killing the leader", 10*ttl)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if successor == old {
		t.Fatal("killed supervisor still reports leadership")
	}
	if successor.Token() <= oldToken {
		t.Fatalf("successor token %d not above deposed token %d", successor.Token(), oldToken)
	}

	// The deposed token is fenced out: a stale recovery-side mutation
	// under it is rejected server-side.
	conn, err := tr.Dial(g.Membership().Addr(0))
	if err != nil {
		t.Fatal(err)
	}
	_, err = conn.Call(staging.FencedReq{Token: oldToken, Req: staging.IntentClearReq{Slot: 0}})
	conn.Close()
	if !staging.IsFenced(err) {
		t.Fatalf("stale-token call got %v, want fencing rejection", err)
	}

	// The survivor owns recovery.
	if err := g.FailStop(1); err != nil {
		t.Fatal(err)
	}
	idle := false
	for _, s := range sups {
		if s == old {
			continue
		}
		if err := s.WaitIdle(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		idle = true
	}
	if !idle {
		t.Fatal("no surviving supervisor to wait on")
	}
	var promotions int64
	for _, s := range sups {
		promotions += s.Metrics().Counter("recovery.promotions").Value()
	}
	if promotions != 1 {
		t.Fatalf("promotions = %d across the redundant set, want exactly 1", promotions)
	}
	if a := g.Membership().Addr(1); a != spareAddr {
		t.Fatalf("slot 1 = %s, want %s", a, spareAddr)
	}
	if l := leaders(); len(l) != 1 {
		t.Fatalf("%d leaders at end, want 1", len(l))
	}
}
