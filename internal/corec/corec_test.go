package corec

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"gospaces/internal/domain"
	"gospaces/internal/staging"
	"gospaces/internal/transport"
)

// failingClient wraps a transport client and fails every call when
// tripped, simulating a dead staging server.
type failingClient struct {
	transport.Client
	dead bool
}

func (f *failingClient) Call(req any) (any, error) {
	if f.dead {
		return nil, fmt.Errorf("server down")
	}
	return f.Client.Call(req)
}

func newTestConns(t *testing.T, n int) []*failingClient {
	t.Helper()
	tr := transport.NewInProc()
	g, err := staging.StartGroup(tr, "corec", staging.Config{
		Global:   domain.Box3(0, 0, 0, 7, 7, 7),
		NServers: n,
		Bits:     2,
		ElemSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	cl, err := g.NewClient("corec/0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	conns := make([]*failingClient, n)
	for i := 0; i < n; i++ {
		conns[i] = &failingClient{Client: cl.ShardConn(i)}
	}
	return conns
}

func asTransport(fc []*failingClient) []transport.Client {
	out := make([]transport.Client, len(fc))
	for i, c := range fc {
		out[i] = c
	}
	return out
}

func payload(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestConfigValidation(t *testing.T) {
	conns := asTransport(newTestConns(t, 4))
	if _, err := New(Config{Mode: Replication, Replicas: 0}, conns); err == nil {
		t.Fatal("0 replicas accepted")
	}
	if _, err := New(Config{Mode: Replication, Replicas: 9}, conns); err == nil {
		t.Fatal("too many replicas accepted")
	}
	if _, err := New(Config{Mode: ErasureCoding, K: 3, M: 2}, conns); err == nil {
		t.Fatal("k+m exceeding servers accepted")
	}
	if _, err := New(Config{Mode: Mode(42)}, conns); err == nil {
		t.Fatal("bad mode accepted")
	}
}

func TestReplicationRoundTripAndDegradedRead(t *testing.T) {
	fc := newTestConns(t, 4)
	c, err := New(Config{Mode: Replication, Replicas: 2}, asTransport(fc))
	if err != nil {
		t.Fatal(err)
	}
	data := payload(5000, 1)
	if err := c.Put("obj", data); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get("obj")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip: %v", err)
	}
	// Kill the home server: the replica must serve the read.
	fc[c.server("obj", 0)].dead = true
	got, err = c.Get("obj")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("degraded read: %v", err)
	}
	// Kill both: unavailable.
	fc[c.server("obj", 1)].dead = true
	if _, err := c.Get("obj"); err != ErrUnavailable {
		t.Fatalf("err = %v", err)
	}
}

func TestErasureRoundTripAndDegradedRead(t *testing.T) {
	fc := newTestConns(t, 6)
	c, err := New(Config{Mode: ErasureCoding, K: 4, M: 2}, asTransport(fc))
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{0, 1, 100, 9973} {
		key := fmt.Sprintf("obj%d", size)
		data := payload(size, int64(size))
		if err := c.Put(key, data); err != nil {
			t.Fatal(err)
		}
		got, err := c.Get(key)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("size %d: %v", size, err)
		}
	}
	// Two server losses are survivable with m=2.
	data := payload(9973, 9973)
	fc[c.server("obj9973", 0)].dead = true
	fc[c.server("obj9973", 5)].dead = true
	got, err := c.Get("obj9973")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("degraded: %v", err)
	}
	// Three losses are not.
	fc[c.server("obj9973", 2)].dead = true
	if _, err := c.Get("obj9973"); err != ErrUnavailable {
		t.Fatalf("err = %v", err)
	}
}

func TestErasureRebuildRestoresRedundancy(t *testing.T) {
	fc := newTestConns(t, 6)
	c, _ := New(Config{Mode: ErasureCoding, K: 4, M: 2}, asTransport(fc))
	data := payload(4096, 7)
	if err := c.Put("k", data); err != nil {
		t.Fatal(err)
	}
	// Server holding shard 1 dies and is replaced empty.
	lost := c.server("k", 1)
	fc[lost].dead = true
	if _, err := c.Rebuild("k"); err == nil {
		// rebuild with a dead server cannot write to it; bring up the
		// replacement first
		t.Log("rebuild while down tolerated (wrote other shards)")
	}
	fc[lost].dead = false
	if _, err := fc[lost].Call(staging.ShardDropReq{Key: "k"}); err != nil {
		t.Fatal(err)
	}
	restored, err := c.Rebuild("k")
	if err != nil {
		t.Fatal(err)
	}
	if restored <= 0 {
		t.Fatalf("restored = %d bytes", restored)
	}
	// A second pass finds redundancy intact and writes nothing.
	if again, err := c.Rebuild("k"); err != nil || again != 0 {
		t.Fatalf("idempotent rebuild: %d bytes, %v", again, err)
	}
	// Now lose two OTHER servers; the rebuilt shard must carry its weight.
	fc[c.server("k", 0)].dead = true
	fc[c.server("k", 3)].dead = true
	got, err := c.Get("k")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("post-rebuild degraded read: %v", err)
	}
}

func TestReplicationRebuild(t *testing.T) {
	fc := newTestConns(t, 4)
	c, _ := New(Config{Mode: Replication, Replicas: 2}, asTransport(fc))
	data := payload(100, 3)
	if err := c.Put("k", data); err != nil {
		t.Fatal(err)
	}
	// Drop replica 0, rebuild from replica 1.
	s0 := c.server("k", 0)
	if _, err := fc[s0].Call(staging.ShardDropReq{Key: "k"}); err != nil {
		t.Fatal(err)
	}
	if restored, err := c.Rebuild("k"); err != nil || restored != int64(len(data)) {
		t.Fatalf("restored %d bytes, err %v", restored, err)
	}
	// Kill replica 1; replica 0 must now hold a copy.
	fc[c.server("k", 1)].dead = true
	got, err := c.Get("k")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("rebuilt replica read: %v", err)
	}
}

// countingClient counts the shard gets it forwards.
type countingClient struct {
	transport.Client
	gets *int
}

func (c countingClient) Call(req any) (any, error) {
	if _, ok := req.(staging.ShardGetReq); ok {
		*c.gets++
	}
	return c.Client.Call(req)
}

// TestReplicationRebuildReadsEachReplicaOnce: a replication Rebuild
// reads each replica once, whether the key is intact or lost one, and
// restores the same bytes.
func TestReplicationRebuildReadsEachReplicaOnce(t *testing.T) {
	const replicas = 3
	fc := newTestConns(t, 4)
	gets := 0
	conns := make([]transport.Client, len(fc))
	for i, c := range fc {
		conns[i] = countingClient{Client: c, gets: &gets}
	}
	c, _ := New(Config{Mode: Replication, Replicas: replicas}, conns)
	data := payload(100, 5)
	if err := c.Put("k", data); err != nil {
		t.Fatal(err)
	}
	if restored, err := c.Rebuild("k"); err != nil || restored != 0 || gets != replicas {
		t.Fatalf("intact key: restored %d bytes in %d gets, err %v; want 0 in %d", restored, gets, err, replicas)
	}
	if _, err := fc[c.server("k", 0)].Call(staging.ShardDropReq{Key: "k"}); err != nil {
		t.Fatal(err)
	}
	gets = 0
	if restored, err := c.Rebuild("k"); err != nil || restored != int64(len(data)) || gets != replicas {
		t.Fatalf("one replica lost: restored %d bytes in %d gets, err %v; want %d in %d", restored, gets, err, len(data), replicas)
	}
	fc[c.server("k", 1)].dead = true
	fc[c.server("k", 2)].dead = true
	if got, err := c.Get("k"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("rebuilt replica read: %v", err)
	}
}

func TestDrop(t *testing.T) {
	fc := newTestConns(t, 6)
	c, _ := New(Config{Mode: ErasureCoding, K: 4, M: 2}, asTransport(fc))
	if err := c.Put("k", payload(64, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Drop("k"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("k"); err != ErrUnavailable {
		t.Fatalf("err = %v", err)
	}
}

func TestStorageOverhead(t *testing.T) {
	conns := asTransport(newTestConns(t, 6))
	rep, _ := New(Config{Mode: Replication, Replicas: 3}, conns)
	if rep.StorageOverhead() != 3 {
		t.Fatalf("replication overhead = %f", rep.StorageOverhead())
	}
	ecc, _ := New(Config{Mode: ErasureCoding, K: 4, M: 2}, conns)
	if ecc.StorageOverhead() != 1.5 {
		t.Fatalf("ec overhead = %f", ecc.StorageOverhead())
	}
}

func TestUnframeCorruption(t *testing.T) {
	if _, err := unframe([]byte{1, 2}); err == nil {
		t.Fatal("short frame accepted")
	}
	bad := frame([]byte("xy"))
	bad[7] = 0xFF
	if _, err := unframe(bad); err == nil {
		t.Fatal("corrupt header accepted")
	}
}
