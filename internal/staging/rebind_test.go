package staging_test

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"time"

	"gospaces/internal/domain"
	"gospaces/internal/health"
	"gospaces/internal/recovery"
	"gospaces/internal/staging"
	"gospaces/internal/transport"
)

// A client learns the membership from the servers only: a promotion
// from the new epoch they hold, a slot stranded with no spare from the
// Down list of the view the recovery leader pushed. These tests drive
// that over loopback TCP with the retry layer, as a deployed client
// (gospaces.Connect, dsctl) runs.

// tcpGroup starts a logged three-server group on loopback TCP ports
// and a supervisor over it, with the given number of warm spares.
func tcpGroup(t *testing.T, spares int) (*transport.TCP, *staging.Group, *recovery.Supervisor, staging.Config) {
	t.Helper()
	cfg := staging.Config{Global: domain.Box3(0, 0, 0, 31, 31, 7), NServers: 3, Bits: 2, ElemSize: 8, WlogReplicas: 1}
	tcp := transport.NewTCP()
	g, err := staging.StartGroup(tcp, "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	for i := 0; i < spares; i++ {
		if _, err := g.AddSpare(); err != nil {
			t.Fatal(err)
		}
	}
	return tcp, g, supervise(t, tcp, g), cfg
}

// supervise starts a supervisor over g.
func supervise(t *testing.T, tcp *transport.TCP, g *staging.Group) *recovery.Supervisor {
	t.Helper()
	det := health.NewDetector(tcp, "supervisor/0", health.Config{
		Period: 10 * time.Millisecond, Timeout: 100 * time.Millisecond, SuspectAfter: 2, DeadAfter: 4,
	})
	sup := recovery.New(tcp, det, g.Membership(), g, recovery.Config{})
	t.Cleanup(func() { sup.Close() })
	sup.Start()
	return sup
}

// retryingClient builds a pool from addrs over tcp behind the default
// retry policy, and a client of it.
func retryingClient(t *testing.T, tcp *transport.TCP, addrs []string, cfg staging.Config) (*staging.Client, *transport.Retrying) {
	t.Helper()
	retry := transport.WithRetry(tcp, transport.DefaultRetryPolicy())
	t.Cleanup(func() { retry.Close() })
	pool, err := staging.NewPool(retry, addrs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := pool.NewClient("sim/0")
	if err != nil {
		t.Fatalf("client from %v: %v", addrs, err)
	}
	t.Cleanup(func() { c.Close() })
	return c, retry
}

// roundTrip puts version v logged and reads it back byte-exactly.
func roundTrip(t *testing.T, c *staging.Client, cfg staging.Config, v int64) {
	t.Helper()
	want := payload(domain.BufLen(cfg.Global, cfg.ElemSize), v)
	if err := c.PutWithLog("field", v, cfg.Global, want); err != nil {
		t.Fatalf("put v%d: %v", v, err)
	}
	got, _, err := c.GetWithLog("field", v, cfg.Global)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("get v%d: %v (%d bytes, equal=%v)", v, err, len(got), bytes.Equal(got, want))
	}
}

// TestClientFromOriginalAddrsAfterPromotion: a client built from the
// group's original address list after a supervised promotion cannot
// dial the dead slot; it binds from a member that answers instead and
// serves a logged put/get.
func TestClientFromOriginalAddrsAfterPromotion(t *testing.T) {
	tcp, g, sup, cfg := tcpGroup(t, 1)
	spare := g.Spares()[0]
	orig := g.Membership().Addrs()
	if err := g.FailStop(1); err != nil {
		t.Fatal(err)
	}
	if err := sup.WaitIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if a := g.Membership().Addr(1); a != spare {
		t.Fatalf("slot 1 at %s, want the spare %s", a, spare)
	}
	c, _ := retryingClient(t, tcp, orig, cfg)
	roundTrip(t, c, cfg, 1)
}

// TestClientBuiltBeforePromotion: a client built while a member is dead
// and not yet replaced is created — its dial of the dead slot fails, and
// the members that answer hold the current view — and it serves once
// the promotion lands, dialling the promoted spare on its first call
// there. Building it sits out the dead slot's retry back-off once, for
// the failed dial: the rebind that follows asks the other members only.
func TestClientBuiltBeforePromotion(t *testing.T) {
	cfg := staging.Config{Global: domain.Box3(0, 0, 0, 31, 31, 7), NServers: 3, Bits: 2, ElemSize: 8, WlogReplicas: 1}
	tcp := transport.NewTCP()
	g, err := staging.StartGroup(tcp, "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	spare, err := g.AddSpare()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.FailStop(1); err != nil {
		t.Fatal(err)
	}
	c, retry := retryingClient(t, tcp, g.Membership().Addrs(), cfg)
	if n, want := retry.Metrics().Counter("rpc.retries").Value(), int64(transport.DefaultRetryPolicy().MaxAttempts-1); n != want {
		t.Fatalf("building the client retried %d times, want %d (one dial's back-off)", n, want)
	}
	sup := supervise(t, tcp, g)
	if err := sup.WaitIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if a := g.Membership().Addr(1); a != spare {
		t.Fatalf("slot 1 at %s, want the spare %s", a, spare)
	}
	roundTrip(t, c, cfg, 1)
}

// TestStrandedSlotFailsFastOverTCP: with no spare, a fail-stopped slot
// is stranded; a client touching it gets ErrSlotDown — at once, with no
// retry back-off, once it has read the servers' view — and the same
// client serves again after AddSpare heals the slot.
func TestStrandedSlotFailsFastOverTCP(t *testing.T) {
	tcp, g, sup, cfg := tcpGroup(t, 0)
	c, retry := retryingClient(t, tcp, g.Membership().Addrs(), cfg)
	roundTrip(t, c, cfg, 1)
	if err := g.FailStop(1); err != nil {
		t.Fatal(err)
	}
	clk := transport.ClockOf(tcp)
	for _, addr := range []string{g.Membership().Addr(0), g.Membership().Addr(2)} {
		for end := clk.Now().Add(10 * time.Second); ; clk.Sleep(5 * time.Millisecond) {
			p, err := transport.CallOnce[health.PingResp](tcp, addr, health.PingReq{From: "test"})
			if err == nil && slices.Equal(p.View.Down, []int{1}) {
				break
			}
			if clk.Now().After(end) {
				t.Fatalf("%s never listed slot 1 down: %+v, %v", addr, p.View, err)
			}
		}
	}

	// The first call meets the dead address and reads the view behind it.
	if _, err := c.Versions("field"); !errors.Is(err, staging.ErrSlotDown) {
		t.Fatalf("first call touching the stranded slot: %v, want ErrSlotDown", err)
	}
	retries := retry.Metrics().Counter("rpc.retries").Value()
	if _, err := c.Versions("field"); !errors.Is(err, staging.ErrSlotDown) {
		t.Fatalf("second call touching the stranded slot: %v, want ErrSlotDown", err)
	}
	if n := retry.Metrics().Counter("rpc.retries").Value() - retries; n != 0 {
		t.Fatalf("a call on a slot the view strands backed off %d times", n)
	}

	if _, err := g.AddSpare(); err != nil {
		t.Fatal(err)
	}
	if err := sup.WaitIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, c, cfg, 2)
}
