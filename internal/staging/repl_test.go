package staging

import (
	"bytes"
	"reflect"
	"testing"

	"gospaces/internal/domain"
	"gospaces/internal/locks"
	"gospaces/internal/transport"
)

func replGroup(t *testing.T, nservers, k int) *Group {
	t.Helper()
	g, err := StartGroup(transport.NewInProc(), "stage", Config{
		Global:       domain.Box3(0, 0, 0, 63, 63, 31),
		NServers:     nservers,
		Bits:         2,
		ElemSize:     8,
		WlogReplicas: k,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

// fetchReplica returns the replica of slot hosted on server host, as it
// would install it on a spare.
func fetchReplica(t *testing.T, host *Server, slot int) ReplState {
	t.Helper()
	host.replicas.mu.Lock()
	rep, ok := host.replicas.slots[slot]
	host.replicas.mu.Unlock()
	if !ok {
		t.Fatalf("fetch slot %d: replica not found", slot)
	}
	rep.mu.Lock()
	defer rep.mu.Unlock()
	st, err := exportState(rep.seq, rep.log, rep.store, rep.locks.Export(nil))
	if err != nil {
		t.Fatalf("fetch slot %d: %v", slot, err)
	}
	return st
}

// TestReplicationMirrorsLogState drives the logged protocol and checks
// that each server's replicated state is byte-identical on the replica
// its membership successor hosts.
func TestReplicationMirrorsLogState(t *testing.T) {
	g := replGroup(t, 3, 1)
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
	for v := int64(1); v <= 4; v++ {
		data := fill(domain.BufLen(global, 8), v)
		if err := prod.PutWithLog("field", v, global, data); err != nil {
			t.Fatal(err)
		}
		if _, _, err := cons.GetWithLog("field", v, global); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := prod.WorkflowCheck(); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 3; id++ {
		own, err := g.Server(id).buildReplState()
		if err != nil {
			t.Fatal(err)
		}
		rep := fetchReplica(t, g.Server((id+1)%3), id)
		if rep.Seq != own.Seq {
			t.Fatalf("server %d: replica at seq %d, origin at %d", id, rep.Seq, own.Seq)
		}
		if !bytes.Equal(rep.Wlog, own.Wlog) {
			t.Fatalf("server %d: replica log snapshot diverges from origin", id)
		}
		if len(rep.Objects) != len(own.Objects) {
			t.Fatalf("server %d: replica holds %d objects, origin %d", id, len(rep.Objects), len(own.Objects))
		}
		for i := range rep.Objects {
			if !bytes.Equal(rep.Objects[i].Data, own.Objects[i].Data) || rep.Objects[i].CRC != own.Objects[i].CRC {
				t.Fatalf("server %d object %d: payload mismatch", id, i)
			}
		}
	}
	st, err := prod.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ReplSeq == 0 || st.ReplicaSlots != 3 || st.ReplicaRecords == 0 {
		t.Fatalf("stats missing replication accounting: %+v", st)
	}
}

// TestReplicationCarriesLockState installs the lock server's replica on
// a spare and checks held locks and retry dedup survive the takeover.
func TestReplicationCarriesLockState(t *testing.T) {
	g := replGroup(t, 3, 1)
	spareAddr, err := g.AddSpare()
	if err != nil {
		t.Fatal(err)
	}
	c, err := g.NewClient("sim/0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.LockOnWrite("field"); err != nil { // lock seq 1
		t.Fatal(err)
	}
	global := g.Config().Global
	if err := c.PutWithLog("field", 1, global, fill(domain.BufLen(global, 8), 7)); err != nil {
		t.Fatal(err)
	}

	// Restore the lock server's (slot 0) replica onto the spare.
	st := fetchReplica(t, g.Server(1), 0)
	held := []locks.HeldLock{{Name: "field", Writer: "sim/0"}}
	dedup := []LockRecord{{Name: "field", Holder: "sim/0", Write: true, Seq: 1}}
	if !reflect.DeepEqual(st.Locks, locks.State{Held: held, Dedup: dedup}) {
		t.Fatalf("slot 0 replica carries lock state %+v, want sim/0's write lock and its dedup row", st.Locks)
	}
	spare := g.ServerAt(spareAddr)
	if _, err := spare.handleWlogInstall(WlogInstallReq{Slot: 0, State: st}); err != nil {
		t.Fatal(err)
	}
	if w, _ := spare.locks.Holders("field"); w != "sim/0" {
		t.Fatalf("restored write lock holder %q, want sim/0", w)
	}
	// A retried acquire (same holder+seq, response lost in transit) must
	// observe the original outcome, not re-execute the transition.
	if _, err := spare.Handle(LockReq{Name: "field", Holder: "sim/0", Write: true, Seq: 1}); err != nil {
		t.Fatalf("retried acquire re-executed: %v", err)
	}
	// A fresh release works against the restored table.
	if _, err := spare.Handle(LockReq{Name: "field", Holder: "sim/0", Write: true, Release: true, Seq: 2}); err != nil {
		t.Fatal(err)
	}
	if w, _ := spare.locks.Holders("field"); w != "" {
		t.Fatalf("write lock still held by %q after release", w)
	}
	// The restored event log matches the dead slot's.
	own, err := g.Server(0).buildReplState()
	if err != nil {
		t.Fatal(err)
	}
	got, err := spare.buildReplState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(own.Wlog, got.Wlog) {
		t.Fatal("restored log snapshot diverges from origin")
	}
	if spare.store.BytesUsed() != g.Server(0).store.BytesUsed() {
		t.Fatalf("restored store holds %d bytes, origin %d", spare.store.BytesUsed(), g.Server(0).store.BytesUsed())
	}
}

// TestReplApplyEpochFencing checks a replica holding a newer membership
// epoch rejects stream batches from an origin with a stale view.
func TestReplApplyEpochFencing(t *testing.T) {
	g := replGroup(t, 2, 1)
	c, err := g.NewClient("sim/0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	global := g.Config().Global
	if err := c.PutWithLog("field", 1, global, fill(domain.BufLen(global, 8), 3)); err != nil {
		t.Fatal(err)
	}
	g.Server(1).SetMembership(2, g.Addrs())
	_, err = g.Server(1).Handle(ReplApplyReq{Epoch: 1, Slot: 0, Records: []ReplRecord{{Seq: 999}}})
	if !IsStaleEpoch(err) {
		t.Fatalf("stale-epoch batch accepted: %v", err)
	}
	_, err = g.Server(1).Handle(ReplSnapshotReq{Epoch: 1, Slot: 0})
	if !IsStaleEpoch(err) {
		t.Fatalf("stale-epoch snapshot accepted: %v", err)
	}
}

// TestNoReplicationWithoutOptIn: K=0 leaves the stream off — no hosted
// replicas, no stream position, zero overhead on the logged path.
func TestNoReplicationWithoutOptIn(t *testing.T) {
	g := replGroup(t, 2, 0)
	c, err := g.NewClient("sim/0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	global := g.Config().Global
	if err := c.PutWithLog("field", 1, global, fill(domain.BufLen(global, 8), 5)); err != nil {
		t.Fatal(err)
	}
	raw, err := g.Server(1).handleReplFetch(ReplFetchReq{Slot: 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if raw.(ReplFetchResp).Found {
		t.Fatal("replica exists with replication disabled")
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ReplSeq != 0 || st.ReplicaSlots != 0 {
		t.Fatalf("replication accounting non-zero with K=0: %+v", st)
	}
}
