package staging

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"gospaces/internal/domain"
	"gospaces/internal/qos"
	"gospaces/internal/transport"
)

func testGroup(t *testing.T, nservers int) *Group {
	t.Helper()
	g, err := StartGroup(transport.NewInProc(), "stage", Config{
		Global:   domain.Box3(0, 0, 0, 63, 63, 31),
		NServers: nservers,
		Bits:     2,
		ElemSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

func fill(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestPutGetRoundTripAcrossServers(t *testing.T) {
	g := testGroup(t, 4)
	c, err := g.NewClient("sim/0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	global := g.Config().Global
	data := fill(domain.BufLen(global, 8), 1)
	if err := c.Put("field", 1, global, data); err != nil {
		t.Fatal(err)
	}
	got, v, err := c.Get("field", 1, global)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 || !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch (v=%d)", v)
	}
	// Sub-region get.
	sub := domain.Box3(10, 10, 10, 40, 40, 20)
	gotSub, _, err := c.Get("field", 1, sub)
	if err != nil {
		t.Fatal(err)
	}
	want := domain.Extract(data, global, sub, 8)
	if !bytes.Equal(gotSub, want) {
		t.Fatal("sub-region mismatch")
	}
}

func TestScatterFromRanksGatherWhole(t *testing.T) {
	g := testGroup(t, 4)
	global := g.Config().Global
	dec, err := domain.NewDecomposition(global, []int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	full := fill(domain.BufLen(global, 8), 2)
	for r := 0; r < dec.NRanks; r++ {
		rb, _ := dec.RankBox(r)
		c, err := g.NewClient("sim/" + string(rune('0'+r)))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Put("f", 7, rb, domain.Extract(full, global, rb, 8)); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	reader, _ := g.NewClient("ana/0")
	defer reader.Close()
	got, _, err := reader.Get("f", 7, global)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, full) {
		t.Fatal("gather mismatch")
	}
}

func TestGetLatestAndExplicit(t *testing.T) {
	g := testGroup(t, 2)
	c, _ := g.NewClient("sim/0")
	defer c.Close()
	b := domain.Box3(0, 0, 0, 15, 15, 15)
	d1 := fill(domain.BufLen(b, 8), 3)
	d2 := fill(domain.BufLen(b, 8), 4)
	if err := c.PutWithLog("f", 1, b, d1); err != nil {
		t.Fatal(err)
	}
	if err := c.PutWithLog("f", 2, b, d2); err != nil {
		t.Fatal(err)
	}
	got, v, err := c.GetWithLog("f", NoVersion, b)
	if err != nil || v != 2 || !bytes.Equal(got, d2) {
		t.Fatalf("latest: v=%d err=%v", v, err)
	}
	got1, _, err := c.GetWithLog("f", 1, b)
	if err != nil || !bytes.Equal(got1, d1) {
		t.Fatalf("explicit v1: %v", err)
	}
}

func TestUnloggedKeepsLatestOnly(t *testing.T) {
	g := testGroup(t, 2)
	c, _ := g.NewClient("sim/0")
	defer c.Close()
	b := domain.Box3(0, 0, 0, 15, 15, 15)
	for v := int64(1); v <= 3; v++ {
		if err := c.Put("f", v, b, fill(domain.BufLen(b, 8), v)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.Get("f", 1, b); err == nil {
		t.Fatal("old version still staged in unlogged mode")
	}
	if _, v, err := c.Get("f", NoVersion, b); err != nil || v != 3 {
		t.Fatalf("latest = %d err=%v", v, err)
	}
	vs, err := c.Versions("f")
	if err != nil || len(vs) != 1 || vs[0] != 3 {
		t.Fatalf("versions = %v err=%v", vs, err)
	}
}

func TestLoggedRetainsForReplayUntilGC(t *testing.T) {
	g := testGroup(t, 2)
	prod, _ := g.NewClient("sim/0")
	cons, _ := g.NewClient("ana/0")
	defer prod.Close()
	defer cons.Close()
	b := domain.Box3(0, 0, 0, 15, 15, 15)
	for v := int64(1); v <= 3; v++ {
		if err := prod.PutWithLog("f", v, b, fill(domain.BufLen(b, 8), v)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := cons.GetWithLog("f", v, b); err != nil {
			t.Fatal(err)
		}
	}
	// All three versions resident: consumer could replay any of them.
	vs, _ := prod.Versions("f")
	if len(vs) != 3 {
		t.Fatalf("versions before GC = %v", vs)
	}
	// Consumer checkpoints: versions 1..2 become collectible (3 is latest).
	freed, err := cons.WorkflowCheck()
	if err != nil {
		t.Fatal(err)
	}
	if freed <= 0 {
		t.Fatal("GC freed nothing")
	}
	vs, _ = prod.Versions("f")
	if len(vs) != 1 || vs[0] != 3 {
		t.Fatalf("versions after GC = %v", vs)
	}
}

// TestConsumerFailureReplay is the paper's case 1 (Fig. 2) end to end:
// the analytic fails, restarts from its checkpoint, and must re-read
// the versions it consumed before the failure even though the
// simulation has staged newer data meanwhile.
func TestConsumerFailureReplay(t *testing.T) {
	g := testGroup(t, 4)
	prod, _ := g.NewClient("sim/0")
	cons, _ := g.NewClient("ana/0")
	defer prod.Close()
	defer cons.Close()
	b := domain.Box3(0, 0, 0, 31, 31, 31)
	payload := map[int64][]byte{}
	// ts 1..4: produce and consume; both checkpoint at ts 2.
	for ts := int64(1); ts <= 4; ts++ {
		payload[ts] = fill(domain.BufLen(b, 8), 100+ts)
		if err := prod.PutWithLog("f", ts, b, payload[ts]); err != nil {
			t.Fatal(err)
		}
		got, _, err := cons.GetWithLog("f", ts, b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload[ts]) {
			t.Fatalf("ts%d initial read mismatch", ts)
		}
		if ts == 2 {
			if _, err := prod.WorkflowCheck(); err != nil {
				t.Fatal(err)
			}
			if _, err := cons.WorkflowCheck(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Consumer fails after ts4 and restarts from its ts-2 checkpoint.
	replay, err := cons.WorkflowRestart()
	if err != nil {
		t.Fatal(err)
	}
	if replay == 0 {
		t.Fatal("no replay events")
	}
	// Producer moves on to ts 5,6 while consumer replays ts 3,4.
	for i, ts := range []int64{3, 4} {
		newTs := int64(5 + i)
		payload[newTs] = fill(domain.BufLen(b, 8), 100+newTs)
		if err := prod.PutWithLog("f", newTs, b, payload[newTs]); err != nil {
			t.Fatal(err)
		}
		got, v, err := cons.GetWithLog("f", ts, b)
		if err != nil {
			t.Fatalf("replay ts%d: %v", ts, err)
		}
		if v != ts || !bytes.Equal(got, payload[ts]) {
			t.Fatalf("replay ts%d returned v%d / wrong data", ts, v)
		}
	}
	// Consumer caught up; normal reads resume.
	got, _, err := cons.GetWithLog("f", 5, b)
	if err != nil || !bytes.Equal(got, payload[5]) {
		t.Fatalf("post-replay read: %v", err)
	}
	st, _ := cons.Stats()
	if st.ReplayGets == 0 {
		t.Fatal("no replay gets recorded")
	}
}

// TestProducerFailureSuppression is the paper's case 2 (Fig. 2): the
// simulation fails and its re-issued writes must not be staged twice.
func TestProducerFailureSuppression(t *testing.T) {
	g := testGroup(t, 4)
	prod, _ := g.NewClient("sim/0")
	cons, _ := g.NewClient("ana/0")
	defer prod.Close()
	defer cons.Close()
	b := domain.Box3(0, 0, 0, 31, 31, 31)
	payload := map[int64][]byte{}
	for ts := int64(1); ts <= 3; ts++ {
		payload[ts] = fill(domain.BufLen(b, 8), 200+ts)
		if err := prod.PutWithLog("f", ts, b, payload[ts]); err != nil {
			t.Fatal(err)
		}
		if ts == 1 {
			if _, err := prod.WorkflowCheck(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Producer fails, restarts from ts-1 checkpoint, re-executes ts 2,3.
	if _, err := prod.WorkflowRestart(); err != nil {
		t.Fatal(err)
	}
	for _, ts := range []int64{2, 3} {
		// Even with DIFFERENT (recomputed) bytes, the staged original
		// must win: consumers already saw it.
		if err := prod.PutWithLog("f", ts, b, fill(domain.BufLen(b, 8), 999)); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := prod.Stats()
	if st.SuppressedPuts == 0 {
		t.Fatal("no suppressed puts recorded")
	}
	// The data staged during the initial execution is what readers see.
	for _, ts := range []int64{2, 3} {
		got, _, err := cons.GetWithLog("f", ts, b)
		if err != nil || !bytes.Equal(got, payload[ts]) {
			t.Fatalf("ts%d data changed after producer replay: %v", ts, err)
		}
	}
	// New work after replay is staged normally.
	if err := prod.PutWithLog("f", 4, b, fill(domain.BufLen(b, 8), 204)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cons.GetWithLog("f", 4, b); err != nil {
		t.Fatal(err)
	}
}

func TestIncompleteCoverageError(t *testing.T) {
	g := testGroup(t, 2)
	c, _ := g.NewClient("sim/0")
	defer c.Close()
	b := domain.Box3(0, 0, 0, 15, 15, 15)
	if err := c.Put("f", 1, b, fill(domain.BufLen(b, 8), 1)); err != nil {
		t.Fatal(err)
	}
	// Ask for a region exceeding what was staged.
	wide := domain.Box3(0, 0, 0, 31, 15, 15)
	if _, _, err := c.Get("f", 1, wide); err == nil {
		t.Fatal("incomplete get succeeded")
	}
}

func TestPutBufferSizeValidation(t *testing.T) {
	g := testGroup(t, 2)
	c, _ := g.NewClient("sim/0")
	defer c.Close()
	b := domain.Box3(0, 0, 0, 7, 7, 7)
	if err := c.Put("f", 1, b, make([]byte, 10)); err == nil {
		t.Fatal("short buffer accepted")
	}
}

func TestInconsistentLatestDetected(t *testing.T) {
	g := testGroup(t, 4)
	c, _ := g.NewClient("sim/0")
	defer c.Close()
	global := g.Config().Global
	// v1 everywhere.
	if err := c.Put("f", 1, global, fill(domain.BufLen(global, 8), 1)); err != nil {
		t.Fatal(err)
	}
	// v2 only in a corner (touches a strict subset of servers).
	corner := domain.Box3(0, 0, 0, 7, 7, 7)
	if err := c.Put("f", 2, corner, fill(domain.BufLen(corner, 8), 2)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Get("f", NoVersion, global); err == nil ||
		!strings.Contains(err.Error(), "explicit versions") {
		t.Fatalf("inconsistent latest not detected: %v", err)
	}
}

func TestStatsAggregation(t *testing.T) {
	g := testGroup(t, 3)
	c, _ := g.NewClient("sim/0")
	defer c.Close()
	b := g.Config().Global
	if err := c.PutWithLog("f", 1, b, fill(domain.BufLen(b, 8), 1)); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.StoreBytes != int64(domain.BufLen(b, 8)) {
		t.Fatalf("store bytes %d, want %d", st.StoreBytes, domain.BufLen(b, 8))
	}
	if st.Puts == 0 || st.LogMetaBytes == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if c.CumulativeWriteTime() <= 0 {
		t.Fatal("no client write time recorded")
	}
}

func TestOverTCPTransport(t *testing.T) {
	tr := transport.NewTCP()
	cfg := Config{Global: domain.Box3(0, 0, 0, 31, 31, 15), NServers: 2, Bits: 2, ElemSize: 4}
	// Start servers on ephemeral ports.
	var addrs []string
	for i := 0; i < cfg.NServers; i++ {
		srv := NewServer(i)
		ep, err := tr.ListenTCP("127.0.0.1:0", srv.Handle)
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		addrs = append(addrs, ep.Addr())
	}
	pool, err := NewPool(tr, addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := pool.NewClient("sim/0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	b := cfg.Global
	data := fill(domain.BufLen(b, 4), 9)
	if err := c.PutWithLog("f", 1, b, data); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.GetWithLog("f", 1, b)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("tcp round trip: %v", err)
	}
	if _, err := c.WorkflowCheck(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.WorkflowRestart(); err != nil {
		t.Fatal(err)
	}
}

func TestNewPoolValidation(t *testing.T) {
	tr := transport.NewInProc()
	cfg := Config{Global: domain.Box3(0, 0, 0, 7, 7, 7), NServers: 2, Bits: 2, ElemSize: 8}
	if _, err := NewPool(tr, []string{"only-one"}, cfg); err == nil {
		t.Fatal("addr count mismatch accepted")
	}
	cfg.ElemSize = 0
	if _, err := NewPool(tr, []string{"a", "b"}, cfg); err == nil {
		t.Fatal("zero elem size accepted")
	}
}

// TestReplaceServerUnknownID: a replacement names a server of the group.
func TestReplaceServerUnknownID(t *testing.T) {
	g := testGroup(t, 4)
	if err := g.ReplaceServer(9); err == nil {
		t.Fatal("bogus server id accepted")
	}
}

// TestServerLossObjectRerun: object data on a lost server is restored
// by the producer re-staging (the crash-consistency protocol's job).
func TestServerLossObjectRerun(t *testing.T) {
	g := testGroup(t, 2)
	prod, _ := g.NewClient("sim/0")
	defer prod.Close()
	b := domain.Box3(0, 0, 0, 15, 15, 15)
	data := fill(domain.BufLen(b, 8), 42)
	if err := prod.PutWithLog("f", 1, b, data); err != nil {
		t.Fatal(err)
	}
	if err := g.ReplaceServer(0); err != nil {
		t.Fatal(err)
	}
	// The read now fails on the empty replacement...
	if _, _, err := prod.Get("f", 1, b); err == nil {
		t.Fatal("read of lost data succeeded")
	}
	// ...until the producer re-stages the version (fresh log on the
	// replacement accepts it; the surviving server suppresses its half).
	if err := prod.PutWithLog("f", 1, b, data); err != nil {
		t.Fatal(err)
	}
	got, _, err := prod.GetWithLog("f", 1, b)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("re-staged read: %v", err)
	}
}

// callSlot sends req bare (no epoch envelope) to the address the
// client's view holds for slot.
func callSlot(c *Client, slot int, req any) (any, error) {
	return c.conns.Call(c.pool.View().Addrs[slot], req)
}

// TestReplaceServerKeepsGroupConfig: the replacement comes up through
// the same wiring as the server it replaces — under the group's memory
// budget and, when the group has one, its admission policy — not as a
// bare NewServer that admits anything.
func TestReplaceServerKeepsGroupConfig(t *testing.T) {
	box := domain.Box3(0, 0, 0, 7, 7, 7) // 4 KiB at 8 B per cell
	for _, withQoS := range []bool{false, true} {
		cfg := Config{Global: box, NServers: 2, Bits: 1, ElemSize: 8, MemoryBudgetPerServer: 1 << 10}
		if withQoS {
			cfg.QoS = &qos.Config{}
		}
		g, err := StartGroup(transport.NewInProc(), "replace", cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		if err := g.ReplaceServer(1); err != nil {
			t.Fatal(err)
		}
		c, err := g.NewClient("sim/0")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		_, err = callSlot(c, 1, qosPut("f", 1, box, false, 1))
		if _, typed := qos.FromError(err); withQoS && !typed {
			t.Fatalf("replacement with QoS answered an over-budget put with %v, want qos.ErrOverloaded", err)
		}
		if !withQoS && !errors.Is(err, ErrOverBudget) {
			t.Fatalf("replacement answered an over-budget put with %v, want ErrOverBudget", err)
		}
		raw, err := callSlot(c, 1, QosStatsReq{})
		if err != nil {
			t.Fatal(err)
		}
		if resp := raw.(QosStatsResp); resp.Enabled != withQoS || resp.ID != 1 {
			t.Fatalf("replacement's qos stats = %+v, want Enabled=%v", resp, withQoS)
		}
	}
}

// TestMemoryBudgetBackpressure: a bounded staging area rejects puts the
// log still needs, and admits them again once consumer checkpoints let
// GC reclaim the space.
func TestMemoryBudgetBackpressure(t *testing.T) {
	b := domain.Box3(0, 0, 0, 15, 15, 15)
	stepBytes := int64(domain.BufLen(b, 8))
	g, err := StartGroup(transport.NewInProc(), "budget", Config{
		Global:   b,
		NServers: 1,
		Bits:     2,
		ElemSize: 8,
		// Room for ~3 versions.
		MemoryBudgetPerServer: 3*stepBytes + stepBytes/2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	prod, _ := g.NewClient("sim/0")
	cons, _ := g.NewClient("ana/0")
	defer prod.Close()
	defer cons.Close()

	// Fill: 3 versions staged and read, all retained for replay.
	for v := int64(1); v <= 3; v++ {
		if err := prod.PutWithLog("f", v, b, fill(int(stepBytes), v)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := cons.GetWithLog("f", v, b); err != nil {
			t.Fatal(err)
		}
	}
	// The 4th version cannot fit: the log still needs v1..v3.
	err = prod.PutWithLog("f", 4, b, fill(int(stepBytes), 4))
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("over-budget put: %v", err)
	}
	// Consumer checkpoints: v1..v2 become collectible, the put fits.
	if _, err := cons.WorkflowCheck(); err != nil {
		t.Fatal(err)
	}
	if err := prod.PutWithLog("f", 4, b, fill(int(stepBytes), 4)); err != nil {
		t.Fatalf("post-GC put rejected: %v", err)
	}
	if _, _, err := cons.GetWithLog("f", 4, b); err != nil {
		t.Fatal(err)
	}
}
