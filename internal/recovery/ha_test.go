package recovery

import (
	"fmt"
	"slices"
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
	chaos := transport.NewChaos(manualWorld(), 1)
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
	if r := waitIdle(manualOf(chaos), period, sup); r.err != nil {
		t.Fatal(r.err)
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
// death against an empty pool strands the slot (every member's view
// lists it Down, which is how clients are told), and a later AddSpare
// must heal it via the backlog sweep without another death event.
func TestLateSpareHealsBacklog(t *testing.T) {
	tr := manualWorld()
	g, err := staging.StartGroup(tr, "stage", groupConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	sup := New(tr, haDetector(tr, "sup/late"), g.Membership(), g, Config{})
	defer sup.Close()
	sup.Start()

	if err := g.FailStop(2); err != nil {
		t.Fatal(err)
	}
	stepUntil(t, manualOf(tr), time.Second, func() bool {
		return sup.Metrics().Counter("recovery.no_spare").Value() > 0
	}, sup)
	if ds := sup.DeadSlots(); len(ds) != 1 || ds[0] != 2 {
		t.Fatalf("dead backlog = %v, want [2]", ds)
	}
	sup.quiet() // the stranding recovery pushes the view before it ends
	for _, addr := range g.Membership().Addrs()[:2] {
		if v := viewOf(t, tr, addr); v.Epoch != 2 || !slices.Equal(v.Down, []int{2}) {
			t.Fatalf("%s holds view %+v while slot 2 is stranded, want slot 2 down at epoch 2", addr, v)
		}
	}

	spareAddr, err := g.AddSpare()
	if err != nil {
		t.Fatal(err)
	}
	if r := waitIdle(manualOf(tr), period, sup); r.err != nil {
		t.Fatal(r.err)
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
	for _, addr := range g.Membership().Addrs() {
		if v := viewOf(t, tr, addr); v.Epoch != 3 || len(v.Down) != 0 {
			t.Fatalf("%s holds view %+v after the heal, want epoch 3 with no slot down", addr, v)
		}
	}
}

// TestNewLeaderHealsRejoinedStrandedSlot: a leader strands a slot and
// dies; the slot rejoins while the next leader still stands by, so no
// leader sees it come back. Once elected, the new leader must heal it:
// every member then lists no slot down, at a new epoch.
func TestNewLeaderHealsRejoinedStrandedSlot(t *testing.T) {
	tr := manualWorld()
	clk := manualOf(tr)
	g, err := staging.StartGroup(tr, "stage", groupConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	const ttl = 150 * time.Millisecond
	sups := make([]*Supervisor, 2)
	for i := range sups {
		id := fmt.Sprintf("ha/heal/%d", i)
		sups[i] = New(tr, haDetector(tr, id), g.Membership(), g, Config{ID: id, LeaseTTL: ttl})
		defer sups[i].Close()
		sups[i].Start()
	}
	leader, standby := sups[0], sups[1]
	if !leader.IsLeader() || standby.IsLeader() {
		t.Fatal("the first supervisor started is not the only leader")
	}

	if err := g.FailStop(2); err != nil {
		t.Fatal(err)
	}
	stepUntil(t, clk, time.Second, func() bool {
		return leader.Metrics().Counter("recovery.no_spare").Value() > 0
	}, sups...)
	leader.quiet()
	for _, addr := range g.Membership().Addrs()[:2] {
		if v := viewOf(t, tr, addr); !slices.Equal(v.Down, []int{2}) {
			t.Fatalf("%s holds view %+v, want slot 2 down", addr, v)
		}
	}

	leader.Kill()
	if err := g.ReplaceServer(2); err != nil { // rejoins holding the stranding view
		t.Fatal(err)
	}
	stepUntil(t, clk, 10*ttl, func() bool {
		if !standby.IsLeader() {
			return false
		}
		for _, addr := range g.Membership().Addrs() {
			if len(viewOf(t, tr, addr).Down) != 0 {
				return false
			}
		}
		return true
	}, standby)
	if e := g.Membership().Epoch(); e != 3 {
		t.Fatalf("epoch = %d, want 3 (stranded, then healed)", e)
	}
	if v := standby.Metrics().Counter("recovery.down_changes").Value(); v != 1 {
		t.Fatalf("new leader's down_changes = %d, want 1 (the heal)", v)
	}
}

// TestStaleDeathAfterPromotionIgnored is the double-promotion
// regression: a standby's loop may handle another supervisor's
// membership change before a death verdict its detector queued for the
// old address. That verdict must not put the promoted slot back in the
// backlog, or the standby, once leader, promotes over the live spare.
func TestStaleDeathAfterPromotionIgnored(t *testing.T) {
	tr := manualWorld()
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
	chaos := transport.NewChaos(manualWorld(), 2)
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
	// promotion — exactly in time to miss the view push, since the clock
	// stands still while a recovery is in flight — and rejoins well
	// after the new epoch is installed everywhere else. (A blackout
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
	if r := waitIdle(manualOf(chaos), period, sup); r.err != nil {
		t.Fatal(r.err)
	}

	if v := sup.Metrics().Counter("recovery.promotions").Value(); v != 1 {
		t.Fatalf("promotions = %d, want 1 (the dark member must not be promoted)", v)
	}
	// The one promotion moves the epoch; so does each change to the
	// stranded set (the dark member is confirmed dead with no spare left,
	// then heals on rejoin), and nothing else.
	e := g.Membership().Epoch()
	if d := sup.Metrics().Counter("recovery.down_changes").Value(); e != 2+uint64(d) {
		t.Fatalf("epoch = %d after one promotion and %d stranded-set changes", e, d)
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
	raw, err := conn.Call(health.PingReq{From: "test"})
	if err != nil {
		t.Fatal(err)
	}
	view := raw.(health.PingResp).View
	if view.Epoch != e || len(view.Addrs) != 4 || view.Addrs[1] != spareAddr || len(view.Down) != 0 {
		t.Fatalf("rejoined member's view = %+v, want epoch %d with slot 1 = %s and no slot down", view, e, spareAddr)
	}
}

// TestRedundantSupervisorsElectionAndFencing runs three supervisors
// over one group: exactly one wins the lease; killing it elects a
// standby under a strictly higher token within a couple of lease TTLs;
// the dead leader's token is fenced out server-side; and the survivor
// performs the one promotion.
func TestRedundantSupervisorsElectionAndFencing(t *testing.T) {
	tr := manualWorld()
	clk := manualOf(tr)
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
	stepUntil(t, clk, 10*ttl, func() bool { return len(leaders()) == 1 }, sups...)
	successor := leaders()[0]
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
		if r := waitIdle(clk, period, s, sups...); r.err != nil {
			t.Fatal(r.err)
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
