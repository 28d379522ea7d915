package staging

import (
	"bytes"
	"reflect"
	"testing"

	"gospaces/internal/domain"
	"gospaces/internal/metrics"
	"gospaces/internal/pfs"
	"gospaces/internal/qos"
	"gospaces/internal/store"
	"gospaces/internal/tier"
	"gospaces/internal/transport"
)

// tierGroup starts a group whose servers each get a private in-memory
// PFS cold tier and a budget small enough that logged versions spill.
func tierGroup(t *testing.T, nservers int, budget int64, k int) (*Group, map[int]*pfs.Store) {
	t.Helper()
	backends := map[int]*pfs.Store{}
	g, err := StartGroup(transport.NewInProc(), "stage", Config{
		Global:                domain.Box3(0, 0, 0, 63, 63, 0),
		NServers:              nservers,
		Bits:                  2,
		ElemSize:              1,
		MemoryBudgetPerServer: budget,
		WlogReplicas:          k,
		TierBackend: func(id int) tier.Backend {
			be := pfs.NewStore()
			backends[id] = be
			return be
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g, backends
}

// TestTierSpillAndPromoteOnGet drives logged puts past the spill
// watermark and checks: cold versions demote to the PFS tier instead of
// rejecting the put, resident bytes stay under budget, and a replay
// read of a spilled version transparently promotes it back with a
// byte-exact payload.
func TestTierSpillAndPromoteOnGet(t *testing.T) {
	const budget = 12000 // ~3 versions of 4096B; spill water 0.6 = 7200
	g, _ := tierGroup(t, 1, budget, 0)
	prod, err := g.NewClient("sim/0")
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()
	cons, err := g.NewClient("ana/0")
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()
	global := g.Config().Global
	n := domain.BufLen(global, 1)
	payload := func(v int64) []byte {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(int64(i)*3 + v)
		}
		return buf
	}
	for v := int64(1); v <= 6; v++ {
		if err := prod.PutWithLog("field", v, global, payload(v)); err != nil {
			t.Fatalf("put v%d: %v", v, err)
		}
	}
	srv := g.Server(0)
	st := srv.tier.Stats()
	if st.Spills == 0 || st.Entries == 0 {
		t.Fatalf("no versions spilled under budget pressure: %+v", st)
	}
	if used := srv.store.BytesUsed(); used > budget {
		t.Fatalf("resident %d bytes exceeds budget %d despite tier", used, budget)
	}
	// The oldest versions must have left RAM for the tier.
	if !srv.tier.HasName("field") {
		t.Fatal("tier holds nothing for field")
	}
	// Replay reads of spilled versions promote transparently.
	for v := int64(1); v <= 6; v++ {
		got, _, err := cons.GetWithLog("field", v, global)
		if err != nil {
			t.Fatalf("get v%d: %v", v, err)
		}
		if !bytes.Equal(got, payload(v)) {
			t.Fatalf("v%d payload diverged after spill/promote round trip", v)
		}
	}
	if st = srv.tier.Stats(); st.Promotes == 0 {
		t.Fatalf("reads of spilled versions promoted nothing: %+v", st)
	}
	// The control RPC reports the same accounting.
	raw, err := srv.handleTierStats()
	if err != nil {
		t.Fatal(err)
	}
	resp := raw.(TierStatsResp)
	if !resp.Enabled || resp.Spills != st.Spills || resp.Promotes != st.Promotes {
		t.Fatalf("TierStats mismatch: %+v vs %+v", resp, st)
	}
}

// TestTierScrubRPCHealsBitRot corrupts one generation of a spilled
// record at rest and checks the scrub RPC heals it from the twin — and
// that the promoted payload stays byte-exact.
func TestTierScrubRPCHealsBitRot(t *testing.T) {
	g, backends := tierGroup(t, 1, 12000, 0)
	prod, err := g.NewClient("sim/0")
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()
	global := g.Config().Global
	n := domain.BufLen(global, 1)
	for v := int64(1); v <= 6; v++ {
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = byte(int64(i) + v)
		}
		if err := prod.PutWithLog("field", v, global, buf); err != nil {
			t.Fatal(err)
		}
	}
	be := backends[0]
	names := be.List("tier/")
	corrupted := 0
	for _, name := range names {
		if len(name) > 2 && name[len(name)-2:] == "g0" {
			if be.Corrupt(name, 40) {
				corrupted++
			}
		}
	}
	if corrupted == 0 {
		t.Fatal("nothing to corrupt: no g0 records on the backend")
	}
	raw, err := g.Server(0).handleTierScrub()
	if err != nil {
		t.Fatal(err)
	}
	resp := raw.(TierScrubResp)
	if !resp.Enabled || resp.Healed == 0 {
		t.Fatalf("scrub healed nothing after %d corruptions: %+v", corrupted, resp)
	}
	if resp.Lost != 0 {
		t.Fatalf("single-generation corruption lost %d entries", resp.Lost)
	}
}

// TestWlogInstallResetsTier: a promoted spare's stale pre-promotion
// tier is dropped when the dead server's state is installed, so replay
// reads never resurrect pre-promotion versions.
func TestWlogInstallResetsTier(t *testing.T) {
	g, _ := tierGroup(t, 2, 12000, 1)
	prod, err := g.NewClient("sim/0")
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()
	global := g.Config().Global
	n := domain.BufLen(global, 1)
	for v := int64(1); v <= 6; v++ {
		if err := prod.PutWithLog("field", v, global, fill(n, v)); err != nil {
			t.Fatal(err)
		}
	}
	srv := g.Server(0)
	if !srv.tier.HasName("field") {
		t.Skip("budget did not force a spill on server 0")
	}
	st := fetchReplica(t, g.Server(1), 0)
	if _, err := srv.handleWlogInstall(WlogInstallReq{Slot: 0, State: st}); err != nil {
		t.Fatal(err)
	}
	if srv.tier.HasName("field") {
		t.Fatal("tier survived a wlog install; stale spilled versions would shadow the restored state")
	}
}

// loggedObj builds a resident logged object as applyPut would.
func loggedObj(name string, version int64, bbox domain.BBox, seed int64) *store.Object {
	data := fill(domain.BufLen(bbox, 1), seed)
	return &store.Object{
		Name: name, Version: version, BBox: bbox, ElemSize: 1,
		Data: data, CRC: store.Checksum(data), Logged: true,
	}
}

// TestSpillVersionDropsOnlyWhatWasCommitted: a version holding one
// logged and one unlogged object spills the logged one and keeps the
// unlogged one resident — the RAM copy of an object goes only when the
// tier holds a committed copy of it.
func TestSpillVersionDropsOnlyWhatWasCommitted(t *testing.T) {
	srv := NewServer(0)
	srv.EnableTier(pfs.NewStore())
	boxA, boxB := domain.Box3(0, 0, 0, 3, 3, 0), domain.Box3(4, 0, 0, 7, 3, 0)
	logged := loggedObj("field", 1, boxA, 1)
	unlogged := &store.Object{Name: "field", Version: 1, BBox: boxB, ElemSize: 1, Data: fill(16, 2)}
	for _, o := range []*store.Object{logged, unlogged, loggedObj("field", 2, boxA, 3)} {
		if err := srv.store.Put(o); err != nil {
			t.Fatal(err)
		}
	}
	if !srv.spillVersion("field", 1) {
		t.Fatal("nothing spilled")
	}
	if got := srv.store.VersionObjects("field", 1); len(got) != 1 || got[0] != unlogged {
		t.Fatalf("resident after spill = %v, want only the unlogged object", got)
	}
	if st := srv.tier.Stats(); st.Entries != 1 || st.Bytes != logged.Bytes() {
		t.Fatalf("tier after spill: %+v", st)
	}
	resp, err := transport.As[GetResp](srv.Handle(GetReq{App: "ana/0", Name: "field", Version: 1, BBox: boxA}))
	if err != nil || len(resp.Pieces) != 1 || !bytes.Equal(resp.Pieces[0].Data, logged.Data) {
		t.Fatalf("get of the spilled object: %v, %d pieces", err, len(resp.Pieces))
	}
}

// failNthWrite counts the Writes it sees and fails the n'th (1-based,
// 0 = never) with ENOSPC.
type failNthWrite struct {
	*pfs.Store
	n, writes int
}

func (b *failNthWrite) Write(name string, data []byte) error {
	if b.writes++; b.writes == b.n {
		b.Store.FailNextWrite(pfs.FaultENOSPC)
	}
	return b.Store.Write(name, data)
}

// TestSpillFaultLeavesVersionResident sweeps an ENOSPC over every write
// of a version's group commit, counted off a clean spill first (one
// record in two generations, one manifest generation, one marker):
// wherever the backend fails, the server still holds every byte of the
// version in RAM, the tier is degraded and holds nothing of it — live
// or after a re-attach.
func TestSpillFaultLeavesVersionResident(t *testing.T) {
	const n = 4
	withVersions := func(be tier.Backend) (*Server, []*store.Object) {
		srv := NewServer(0)
		srv.EnableTier(be)
		var want []*store.Object
		for i := int64(0); i < n; i++ {
			box := domain.Box3(4*i, 0, 0, 4*i+3, 3, 0)
			want = append(want, loggedObj("field", 1, box, i))
			for _, o := range []*store.Object{want[i], loggedObj("field", 2, box, 10+i)} {
				if err := srv.store.Put(o); err != nil {
					t.Fatal(err)
				}
			}
		}
		return srv, want
	}
	clean := &failNthWrite{Store: pfs.NewStore()}
	if srv, _ := withVersions(clean); !srv.spillVersion("field", 1) || clean.writes != 4 {
		t.Fatalf("a clean spill of %d objects made %d backend writes, want 4", n, clean.writes)
	}
	for k := 1; k <= clean.writes; k++ {
		be := &failNthWrite{Store: pfs.NewStore(), n: k}
		srv, want := withVersions(be)
		used := srv.store.BytesUsed()
		if srv.spillVersion("field", 1) {
			t.Fatalf("write %d failed yet the version was demoted", k)
		}
		if got := srv.store.VersionObjects("field", 1); !reflect.DeepEqual(got, want) || srv.store.BytesUsed() != used {
			t.Fatalf("write %d failed: %d of %d objects resident, %d of %d bytes", k, len(got), n, srv.store.BytesUsed(), used)
		}
		if !srv.tier.Degraded() || srv.tier.HasName("field") {
			t.Fatalf("write %d failed: degraded=%v, tier holds field=%v", k, srv.tier.Degraded(), srv.tier.HasName("field"))
		}
		if tier.New(be.Store, "0").HasName("field") || len(be.List("tier/0/o/")) != 0 {
			t.Fatalf("write %d failed: re-attach finds records %v", k, be.List("tier/0/o/"))
		}
	}
}

// TestTierChargesQoSByDelta: after puts that spill and replay gets that
// promote, the per-tenant accounting kept by delta charges equals what
// a Rebase over the resident store would compute.
func TestTierChargesQoSByDelta(t *testing.T) {
	box := domain.Box3(0, 0, 0, 3, 3, 0) // 128B per put
	srv := NewServer(0)
	srv.SetMemoryBudget(1024)
	srv.EnableQoS(qos.Config{Tenants: map[string]qos.Quota{"sim": {Priority: 1}, "ana": {Priority: 1}}})
	srv.EnableTier(pfs.NewStore())
	for v := int64(1); v <= 8; v++ {
		for _, name := range []string{"sim/u", "ana/w"} {
			if _, err := srv.Handle(qosPut(name, v, box, true, v)); err != nil {
				t.Fatalf("put %s v%d: %v", name, v, err)
			}
		}
	}
	for _, v := range []int64{1, 2} {
		if _, err := srv.Handle(GetReq{App: "viz/0", Name: "sim/u", Version: v, BBox: box, Logged: true}); err != nil {
			t.Fatalf("get v%d: %v", v, err)
		}
	}
	if st := srv.tier.Stats(); st.Spills == 0 || st.Promotes != 2 || st.Entries == 0 {
		t.Fatalf("sequence did not spill and promote: %+v", st)
	}
	truth := qos.NewController(srv.qosCtl.Config(), metrics.NewRegistry())
	var items []qos.UsageItem
	for _, o := range srv.store.Export() {
		items = append(items, qos.UsageItem{Name: o.Name, Bytes: o.Bytes(), Logged: o.Logged})
	}
	truth.Rebase(items)
	want := map[string][2]int64{}
	for _, ts := range truth.Snapshot() {
		want[ts.Tenant] = [2]int64{ts.StoreBytes, ts.WlogBytes}
	}
	for _, ts := range srv.qosCtl.Snapshot() {
		if got := [2]int64{ts.StoreBytes, ts.WlogBytes}; got != want[ts.Tenant] {
			t.Errorf("tenant %s: charged store/wlog = %v, rebase over the store gives %v", ts.Tenant, got, want[ts.Tenant])
		}
	}
	if len(want) != 2 {
		t.Fatalf("tenants in the store: %v", want)
	}
}
