package staging

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"gospaces/internal/domain"
	"gospaces/internal/health"
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

// TestPoolAdoptsOnlyNewerViews: one epoch names one view, stranded
// slots included, so a member that missed a push cannot hand a client
// an older Down list — neither re-stranding a healed slot nor healing a
// stranded one.
func TestPoolAdoptsOnlyNewerViews(t *testing.T) {
	p, err := NewPool(transport.NewInProc(), []string{"a", "b", "c"}, Config{
		Global: domain.Box3(0, 0, 0, 63, 63, 0), NServers: 3, Bits: 2, ElemSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		v    health.View
		down bool // slot 1 stranded after adopting v
	}{
		{health.View{Epoch: 2, Addrs: []string{"a", "b", "c"}, Down: []int{1}}, true},
		{health.View{Epoch: 1, Addrs: []string{"a", "b", "c"}}, true},
		{health.View{Epoch: 3, Addrs: []string{"a", "b", "c"}}, false},
		{health.View{Epoch: 2, Addrs: []string{"a", "b", "c"}, Down: []int{1}}, false},
		{health.View{Epoch: 3, Addrs: []string{"a", "b", "c"}, Down: []int{1}}, false},
		// A view of another size is not this pool's, however new.
		{health.View{Epoch: 4, Addrs: []string{"a", "b"}, Down: []int{1}}, false},
	} {
		p.adopt(step.v)
		if p.View().IsDown(1) != step.down {
			t.Fatalf("after %+v: slot 1 down = %v, want %v (pool at epoch %d)", step.v, p.View().IsDown(1), step.down, p.View().Epoch)
		}
	}
}

// TestRebindSkipsLaggingMember: a member that missed the push healing
// a stranded slot still answers the stranding view; a client's rebind
// reads past it to a member holding the newer view, so the healed slot
// serves instead of answering ErrSlotDown for as long as the member
// lags.
func TestRebindSkipsLaggingMember(t *testing.T) {
	g, err := StartGroup(transport.NewInProc(), "stage", Config{
		Global: domain.Box3(0, 0, 0, 63, 63, 0), NServers: 3, Bits: 2, ElemSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	c, err := g.NewClient("sim/0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addrs := g.Membership().Addrs()
	for i := range addrs {
		g.Server(i).setView(health.View{Epoch: 2, Addrs: addrs, Down: []int{1}})
	}
	if _, err := c.call(1, StatsReq{}); !errors.Is(err, ErrSlotDown) {
		t.Fatalf("call on the stranded slot: %v, want ErrSlotDown", err)
	}
	// The heal reaches every member but slot 2, the first a rebind for
	// slot 1 asks.
	for _, i := range []int{0, 1} {
		g.Server(i).setView(health.View{Epoch: 3, Addrs: addrs})
	}
	if _, err := c.call(1, StatsReq{}); err != nil {
		t.Fatalf("call on the healed slot: %v", err)
	}
	if e := c.pool.View().Epoch; e != 3 {
		t.Fatalf("pool epoch = %d, want the heal's 3", e)
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
	if e := c.pool.View().Epoch; e != 2 {
		t.Fatalf("pool epoch = %d after rebind", e)
	}
	// The promoted spare now identifies as a member.
	raw, err := g.ServerAt(spareAddr).Handle(health.PingReq{})
	if err != nil {
		t.Fatal(err)
	}
	if p := raw.(health.PingResp); p.Spare || p.View.Epoch != 2 || p.View.Addrs[1] != spareAddr {
		t.Fatalf("promoted spare's ping = %+v", p)
	}
}
