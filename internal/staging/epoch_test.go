package staging

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"gospaces/internal/domain"
	"gospaces/internal/transport"
)

func TestStaleEpochErrorDetection(t *testing.T) {
	err := &StaleEpochError{Client: 1, Server: 3}
	if !IsStaleEpoch(err) {
		t.Fatal("typed error not detected")
	}
	if !IsStaleEpoch(fmt.Errorf("call failed: %w", err)) {
		t.Fatal("wrapped error not detected")
	}
	// The type travels as a typed cause (TestTypedErrorsOverTCP); text
	// that merely reads like one is not a redirect.
	if IsStaleEpoch(errors.New("remote: "+err.Error())) || IsStaleEpoch(nil) {
		t.Fatal("false positive")
	}
}

func TestServerRejectsStaleEpoch(t *testing.T) {
	s := NewServer(0)
	s.SetMembership(3, []string{"a", "b"})
	_, err := s.Handle(EpochReq{Epoch: 2, Req: StatsReq{}})
	if !IsStaleEpoch(err) {
		t.Fatalf("stale call accepted: %v", err)
	}
	if _, err := s.Handle(EpochReq{Epoch: 3, Req: StatsReq{}}); err != nil {
		t.Fatalf("current epoch rejected: %v", err)
	}
	// A client ahead of the server (push in flight) is accepted.
	if _, err := s.Handle(EpochReq{Epoch: 4, Req: StatsReq{}}); err != nil {
		t.Fatalf("newer epoch rejected: %v", err)
	}
	// Older views never roll the server back.
	s.SetMembership(1, []string{"x"})
	if s.Epoch() != 3 {
		t.Fatalf("epoch rolled back to %d", s.Epoch())
	}
}

// TestClientRebindsAfterPromotion drives the full redirect path: a
// member fail-stops, a spare is promoted under a bumped epoch, and a
// client holding the old view self-heals — its next call re-binds to
// the new membership and completes.
func TestClientRebindsAfterPromotion(t *testing.T) {
	tr := transport.NewInProc()
	cfg := Config{
		Global:   domain.Box3(0, 0, 0, 63, 63, 0),
		NServers: 2,
		Bits:     2,
		ElemSize: 1,
	}
	g, err := StartGroup(tr, "stage", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.AddSpare(); err != nil {
		t.Fatal(err)
	}

	c, err := g.NewClient("sim/0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	full := cfg.Global
	data := make([]byte, domain.BufLen(full, 1))
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := c.Put("before", 1, full, data); err != nil {
		t.Fatal(err)
	}

	// Fail-stop server 1 and promote the spare into its slot. The
	// supervisor normally drives this sequence; here we do it by hand.
	if err := g.FailStop(1); err != nil {
		t.Fatal(err)
	}
	spareAddr, ok := g.TakeSpareFor(1)
	if !ok {
		t.Fatal("no spare to take")
	}
	epoch, err := g.Membership().ReplaceFenced(0, 1, spareAddr)
	if err != nil {
		t.Fatal(err)
	}
	g.CommitSpare(1)
	if epoch != 2 {
		t.Fatalf("epoch = %d", epoch)
	}
	newAddrs := g.Membership().Addrs()
	g.Server(0).SetMembership(epoch, newAddrs)
	if srv := g.ServerAt(spareAddr); srv == nil {
		t.Fatal("promoted spare not found by address")
	} else {
		srv.SetMembership(epoch, newAddrs)
	}

	// The client still holds epoch 1 and a connection to the dead
	// server; a put spanning both slots must re-bind and land.
	if err := c.Put("after", 1, full, data); err != nil {
		t.Fatalf("post-promotion put: %v", err)
	}
	got, _, err := c.Get("after", 1, full)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("post-promotion data mismatch")
	}
	if c.pool.Epoch() != 2 {
		t.Fatalf("pool epoch = %d after rebind", c.pool.Epoch())
	}
	// The promoted spare now identifies as a member.
	raw, err := g.ServerAt(spareAddr).Handle(MembershipReq{})
	if err != nil {
		t.Fatal(err)
	}
	if m := raw.(MembershipResp); m.Epoch != 2 || m.Addrs[1] != spareAddr {
		t.Fatalf("membership view = %+v", m)
	}
}

func TestShardKeysAndRebuildAccounting(t *testing.T) {
	s := NewServer(0)
	if _, err := s.Handle(ShardPutReq{Key: "b", Shard: 0, Data: []byte{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Handle(ShardPutReq{Key: "a", Shard: 1, Data: []byte{3}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Handle(ShardPutReq{Key: "a", Shard: 2, Data: []byte{4, 5, 6}, Rebuild: true}); err != nil {
		t.Fatal(err)
	}
	raw, err := s.Handle(ShardKeysReq{})
	if err != nil {
		t.Fatal(err)
	}
	keys := raw.(ShardKeysResp).Keys
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("keys = %v", keys)
	}
	st := s.stats()
	if st.RebuiltShards != 1 || st.RebuiltBytes != 3 {
		t.Fatalf("rebuild accounting = %d shards, %d bytes", st.RebuiltShards, st.RebuiltBytes)
	}
}
