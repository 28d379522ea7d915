package staging

import (
	"bytes"
	"testing"

	"gospaces/internal/domain"
)

// counter reads a named metric off a server's registry.
func counter(s *Server, name string) int64 {
	return s.reg.Counter(name).Value()
}

// syncReplica compares the replica server 1 hosts for slot 0 against
// the origin's own state, byte-for-byte on the log snapshot.
func assertReplicaConverged(t *testing.T, g *Group) {
	t.Helper()
	own, err := g.Server(0).buildReplState()
	if err != nil {
		t.Fatal(err)
	}
	rep := fetchReplica(t, g.Server(1), 0)
	if rep.Seq != own.Seq {
		t.Fatalf("replica at seq %d, origin at %d", rep.Seq, own.Seq)
	}
	if !bytes.Equal(rep.Wlog, own.Wlog) {
		t.Fatal("replica log snapshot diverges from origin after re-sync")
	}
	if len(rep.Objects) != len(own.Objects) {
		t.Fatalf("replica holds %d objects, origin %d", len(rep.Objects), len(own.Objects))
	}
	for i := range rep.Objects {
		if !bytes.Equal(rep.Objects[i].Data, own.Objects[i].Data) {
			t.Fatalf("object %d payload mismatch", i)
		}
	}
}

// dropReplica wipes the replica host's state for slot 0 and makes the
// origin forget where its peers are — the shape of a peer that lost its
// hosted replica (a promoted spare, a restarted host).
func dropReplica(g *Group) {
	host := g.Server(1)
	host.replicas.mu.Lock()
	delete(host.replicas.slots, 0)
	host.replicas.mu.Unlock()
	dropPeers(g.Server(0))
}

// dropPeers forgets the origin's replica cursors, as a failed call
// does: its next ship has to ask every peer where it is.
func dropPeers(origin *Server) {
	origin.repl.mu.Lock()
	defer origin.repl.mu.Unlock()
	for _, p := range origin.repl.peers {
		p.acked = cursorUnknown
	}
}

// TestReplDeltaHealsLaggingPeer: a peer that lost its replica is healed
// by re-shipping only the retained log — a delta, not a snapshot — and
// converges byte-identically to the origin.
func TestReplDeltaHealsLaggingPeer(t *testing.T) {
	g := replGroup(t, 2, 1)
	c, err := g.NewClient("sim/0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	global := g.Config().Global
	n := domain.BufLen(global, 8)
	for v := int64(1); v <= 3; v++ {
		if err := c.PutWithLog("field", v, global, fill(n, v)); err != nil {
			t.Fatal(err)
		}
	}
	origin := g.Server(0)
	// First contact: no snapshot, no record twice. A peer at the log's
	// start is in step — what it is sent is the stream, not a re-sync.
	if got := counter(origin, "repl_snapshots_sent"); got != 0 {
		t.Fatalf("initial sync used %d full snapshots; the log covers seq 0", got)
	}
	if d, b := counter(origin, "repl_delta_resyncs"), counter(origin, "repl_delta_bytes"); d != 0 || b != 0 {
		t.Fatalf("first contact counted %d delta re-syncs (%d bytes): a record went out twice", d, b)
	}
	assertReplicaConverged(t, g)

	// Kill the hosted replica and the stream connection; the next put
	// asks the peer (back at seq 0) and re-ships the whole log.
	dropReplica(g)
	before := counter(origin, "repl_delta_resyncs")
	if err := c.PutWithLog("field", 4, global, fill(n, 4)); err != nil {
		t.Fatal(err)
	}
	if counter(origin, "repl_delta_resyncs") <= before {
		t.Fatal("lagging peer inside the window was not delta-healed")
	}
	if got := counter(origin, "repl_snapshots_sent"); got != 0 {
		t.Fatalf("delta-coverable peer got %d full snapshots", got)
	}
	assertReplicaConverged(t, g)
}

// TestReplSnapshotFallbackPastAnchor: once anchor compaction has
// dropped the window prefix, a peer behind the anchor cannot be
// delta-healed — the origin falls back to the freshest anchor (a full
// snapshot) and the peer still converges byte-identically.
func TestReplSnapshotFallbackPastAnchor(t *testing.T) {
	g := replGroup(t, 2, 1)
	c, err := g.NewClient("sim/0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	global := g.Config().Global
	n := domain.BufLen(global, 8)
	for v := int64(1); v <= 3; v++ {
		if err := c.PutWithLog("field", v, global, fill(n, v)); err != nil {
			t.Fatal(err)
		}
	}
	origin := g.Server(0)
	// Shrink the window so compaction advances the anchor past the
	// shipped history, then lose the replica: the peer's position (0)
	// now predates the anchor.
	origin.repl.setWindow(1)
	if counter(origin, "repl_anchor_compactions") == 0 {
		t.Fatal("window shrink compacted nothing")
	}
	dropReplica(g)
	if err := c.PutWithLog("field", 4, global, fill(n, 4)); err != nil {
		t.Fatal(err)
	}
	if counter(origin, "repl_snapshots_sent") == 0 {
		t.Fatal("peer behind the anchor was not healed with a snapshot")
	}
	if counter(origin, "repl_snapshot_bytes") == 0 {
		t.Fatal("snapshot bytes not accounted")
	}
	assertReplicaConverged(t, g)
}

// TestPeerAheadOfOriginIsReseeded: a peer reporting a position this
// origin never put it at holds another incarnation's records — the
// shape of a spare restored from a copy staler than a surviving replica
// (at K=1, whenever the one replica's host was dark for the restore).
// It must be re-seeded with a snapshot: passed for in step, it would
// skip the origin's next records as duplicates and differ from it at an
// equal Seq.
func TestPeerAheadOfOriginIsReseeded(t *testing.T) {
	g := replGroup(t, 2, 1)
	c, err := g.NewClient("sim/0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	global := g.Config().Global
	n := domain.BufLen(global, 8)
	for v := int64(1); v <= 3; v++ {
		if err := c.PutWithLog("field", v, global, fill(n, v)); err != nil {
			t.Fatal(err)
		}
	}
	origin := g.Server(0)
	own, err := origin.buildReplState()
	if err != nil {
		t.Fatal(err)
	}
	// The origin's stream restarts two records behind its replica.
	origin.repl.setState(own.Seq - 2)
	dropPeers(origin)
	if err := c.PutWithLog("field", 4, global, fill(n, 4)); err != nil {
		t.Fatal(err)
	}
	if counter(origin, "repl_snapshots_sent") == 0 {
		t.Fatal("a peer ahead of the origin's stream was not re-seeded with a snapshot")
	}
	assertReplicaConverged(t, g)
}

// TestStatsReportResyncs: the re-sync counters are StatsResp fields, so
// a group with no cold tier reports them — they used to ride on the tier
// stats RPC, which answers before filling them when no tier is attached.
func TestStatsReportResyncs(t *testing.T) {
	g := replGroup(t, 2, 1)
	c, err := g.NewClient("sim/0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	global := g.Config().Global
	n := domain.BufLen(global, 8)
	put := func(v int64) {
		t.Helper()
		if err := c.PutWithLog("field", v, global, fill(n, v)); err != nil {
			t.Fatal(err)
		}
	}
	put(1)
	dropReplica(g) // inside the log: a delta
	put(2)
	g.Server(0).repl.setWindow(1)
	dropReplica(g) // behind the anchor: a snapshot
	put(3)
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.DeltaResyncs == 0 || st.DeltaBytes == 0 || st.SnapshotsSent == 0 || st.SnapshotBytes == 0 {
		t.Fatalf("re-sync counters missing from the stats of a tierless group: %+v", st)
	}
	assertReplicaConverged(t, g)
}
