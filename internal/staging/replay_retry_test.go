package staging_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"gospaces/internal/domain"
	"gospaces/internal/health"
	"gospaces/internal/recovery"
	"gospaces/internal/staging"
	"gospaces/internal/transport"
)

// TestReplayRetrySurvivesPromotion: during a producer's replay, the
// response to the victim's last piece of v1 is dropped, so the client
// re-sends a piece the replay has already consumed; the victim's cursor
// sits on the producer's logged get by then. The retry is suppressed
// without moving the cursor or advancing the replica, so after the
// victim fail-stops, the spare promoted from that replica serves the
// replayed get and suppresses v2 with no divergence.
func TestReplayRetrySurvivesPromotion(t *testing.T) {
	const victim = 1
	global := domain.Box3(0, 0, 0, 31, 31, 7)
	cfg := staging.Config{Global: global, NServers: 3, Bits: 2, ElemSize: 8, WlogReplicas: 1}
	inner := transport.NewInProc()
	g, err := staging.StartGroup(inner, "stage", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	spare, err := g.AddSpare()
	if err != nil {
		t.Fatal(err)
	}
	det := health.NewDetector(inner, "supervisor/0", health.Config{
		Period: 5 * time.Millisecond, Timeout: 20 * time.Millisecond, SuspectAfter: 2, DeadAfter: 4,
	})
	sup := recovery.New(inner, det, g.Membership(), g, recovery.Config{})
	defer sup.Close()
	sup.Start()

	// Only the producer's calls pass the chaos layer. The tap counts its
	// v1 pieces to the victim; during the replay it opens a drop window
	// on the victim after the second-to-last of them, and holds the
	// dropped last piece's answer until the window has closed, so the
	// client's re-send is the one retry.
	const window = 20 * time.Millisecond
	addr := g.Membership().Addr(victim)
	var (
		mu        sync.Mutex
		replaying bool
		pieces    int // v1 pieces the victim holds
		sent      int // of them re-sent by the replay
		chaos     *transport.Chaos
	)
	chaos = transport.NewChaos(staging.NewTap(inner, nil, func(to string, req, _ any) {
		if p, ok := req.(staging.PutReq); !ok || to != addr || p.Version != 1 {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if !replaying {
			pieces++
			return
		}
		sent++
		switch sent {
		case pieces - 1:
			chaos.Drop(addr, window)
		case pieces:
			time.Sleep(2 * window)
		}
	}), 1)
	pool, err := staging.NewPool(chaos, g.Membership().Addrs(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := pool.NewClient("sim/0")
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()

	size := domain.BufLen(global, 8)
	if err := prod.PutWithLog("field", 1, global, payload(size, 1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := prod.GetWithLog("field", 1, global); err != nil {
		t.Fatal(err)
	}
	if err := prod.PutWithLog("field", 2, global, payload(size, 2)); err != nil {
		t.Fatal(err)
	}
	if pieces < 2 {
		t.Fatalf("the victim holds %d pieces of a version; the test drops the last of several", pieces)
	}
	if err := sup.WaitIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	if _, err := prod.WorkflowRestart(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	replaying = true
	mu.Unlock()
	if err := prod.PutWithLog("field", 1, global, payload(size, 1)); err != nil {
		t.Fatalf("replayed put with a dropped answer: %v", err)
	}
	st, err := transport.CallOnce[staging.StatsResp](inner, addr, staging.StatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if sent != pieces+1 || st.SuppressedPuts != int64(pieces+1) {
		t.Fatalf("the victim got %d sends of its %d replayed pieces and suppressed %d; want one retry, suppressed",
			sent, pieces, st.SuppressedPuts)
	}

	if err := g.FailStop(victim); err != nil {
		t.Fatal(err)
	}
	if err := sup.WaitIdle(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := g.Membership().Addr(victim); got != spare {
		t.Fatalf("slot %d at %s, want the spare %s", victim, got, spare)
	}
	got, v, err := prod.GetWithLog("field", 1, global)
	if err != nil {
		t.Fatalf("replayed get on the promoted replica: %v", err)
	}
	if v != 1 || !bytes.Equal(got, payload(size, 1)) {
		t.Fatalf("replayed get read v%d, %d bytes; want v1's", v, len(got))
	}
	if err := prod.PutWithLog("field", 2, global, payload(size, 2)); err != nil {
		t.Fatalf("replayed put on the promoted replica: %v", err)
	}
	st, err = transport.CallOnce[staging.StatsResp](inner, spare, staging.StatsReq{})
	if err != nil {
		t.Fatal(err)
	}
	if st.ReplayGets != 1 || st.SuppressedPuts != int64(pieces) {
		t.Fatalf("the promoted spare replayed %d gets and suppressed %d puts; want 1 and %d", st.ReplayGets, st.SuppressedPuts, pieces)
	}
}
