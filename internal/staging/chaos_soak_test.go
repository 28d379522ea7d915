package staging

import (
	"errors"
	"testing"
	"time"

	"gospaces/internal/domain"
	"gospaces/internal/synth"
	"gospaces/internal/transport"
)

// soakConfig is the shared geometry for the resilience tests.
func soakConfig(nServers int) Config {
	return Config{
		Global:   domain.Box3(0, 0, 0, 31, 31, 7),
		NServers: nServers,
		Bits:     2,
		ElemSize: 8,
	}
}

// TestChaosSoak is the acceptance soak: a producer/consumer workflow
// over the TCP transport completes every timestep with byte-correct
// data while the chaos layer injects latency, dropped responses, and a
// full server blackout. The retry layer must absorb every fault (zero
// application-visible errors, nonzero retries) within a bounded retry
// count. The fault windows and the seeded probabilistic faults are fixed,
// so the run is deterministic up to goroutine timing.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	const (
		seed      = 2020 // the paper's year; any fixed seed works
		nServers  = 3
		timesteps = 12
	)
	cfg := soakConfig(nServers)

	tcp := transport.NewTCPTimeout(500*time.Millisecond, 500*time.Millisecond)
	chaos := transport.NewChaos(tcp, seed)
	retry := transport.WithRetry(chaos, transport.RetryPolicy{
		MaxAttempts: 10,
		BaseDelay:   5 * time.Millisecond,
		MaxDelay:    50 * time.Millisecond,
		Jitter:      0.2,
		Seed:        seed,
	})

	group, err := StartGroup(retry, "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer group.Close()

	producer, err := group.NewClient("sim/0")
	if err != nil {
		t.Fatal(err)
	}
	defer producer.Close()
	consumer, err := group.NewClient("ana/0")
	if err != nil {
		t.Fatal(err)
	}
	defer consumer.Close()

	// Arm the chaos: continuous low-grade per-call faults, plus fault
	// windows armed by address before fixed timesteps, including a full
	// blackout of server 1 (shorter than one retry envelope: 10 attempts
	// x <=50ms spans >200ms).
	chaos.SetCallFaults(0.10, 2*time.Millisecond, 0.05)
	addrs := group.Addrs()
	windows := map[int64]func(){
		2:  func() { chaos.Blackout(addrs[1], 120*time.Millisecond) },
		3:  func() { chaos.Drop(addrs[2], 39*time.Millisecond) },
		5:  func() { chaos.Delay(addrs[1], 88*time.Millisecond) },
		7:  func() { chaos.Delay(addrs[0], 44*time.Millisecond); chaos.Drop(addrs[2], 84*time.Millisecond) },
		9:  func() { chaos.Drop(addrs[1], 60*time.Millisecond) },
		10: func() { chaos.Drop(addrs[0], 43*time.Millisecond) },
	}

	field := synth.NewField("u", cfg.Global, cfg.ElemSize)
	for ts := int64(1); ts <= timesteps; ts++ {
		if arm := windows[ts]; arm != nil {
			arm()
		}
		if err := producer.PutWithLog("u", ts, cfg.Global, field.Fill(ts, cfg.Global)); err != nil {
			t.Fatalf("timestep %d: put: %v", ts, err)
		}
		data, v, err := consumer.GetWithLog("u", ts, cfg.Global)
		if err != nil {
			t.Fatalf("timestep %d: get: %v", ts, err)
		}
		if v != ts {
			t.Fatalf("timestep %d: resolved version %d", ts, v)
		}
		if idx := field.Verify(ts, cfg.Global, data); idx >= 0 {
			t.Fatalf("timestep %d: corrupt byte at %d", ts, idx)
		}
		if _, err := producer.WorkflowCheck(); err != nil {
			t.Fatalf("timestep %d: workflow_check: %v", ts, err)
		}
	}

	retries := retry.Metrics().Counter("rpc.retries").Value()
	if retries == 0 {
		t.Fatal("soak completed without a single retry; chaos was not exercised")
	}
	const maxRetries = 2000 // bounded: ~40 calls/step x 12 steps, retries must stay well under calls*attempts
	if retries > maxRetries {
		t.Fatalf("%d retries, want <= %d (retry storm)", retries, maxRetries)
	}
	if denied := retry.Metrics().Counter("rpc.budget_denied").Value(); denied != 0 {
		t.Fatalf("budget denied %d times with unlimited budget", denied)
	}
	t.Logf("soak: %d calls, %d retries, %d timeouts",
		retry.Metrics().Counter("rpc.calls").Value(),
		retries,
		retry.Metrics().Counter("rpc.timeouts").Value())
}

// TestPutTimeoutAgainstStalledServer is the hung-server regression: a
// put against a handler that never answers must return a typed timeout
// within the configured deadline instead of blocking the rank forever.
func TestPutTimeoutAgainstStalledServer(t *testing.T) {
	cfg := soakConfig(1)
	tcp := transport.NewTCPTimeout(150*time.Millisecond, time.Second)
	block := make(chan struct{})
	defer close(block)
	closer, err := tcp.Listen("127.0.0.1:0", func(req any) (any, error) {
		<-block // stalled staging server
		return nil, errors.New("unreachable")
	})
	if err != nil {
		t.Fatal(err)
	}
	addr := closer.(interface{ Addr() string }).Addr()

	pool, err := NewPool(tcp, []string{addr}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	client, err := pool.NewClient("sim/0")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	field := synth.NewField("u", cfg.Global, cfg.ElemSize)
	start := time.Now()
	err = client.Put("u", 1, cfg.Global, field.Fill(1, cfg.Global))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("put against stalled server succeeded")
	}
	if !errors.Is(err, transport.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout in the chain", err)
	}
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("err = %v, want ErrDegraded classification", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("timeout surfaced after %v; deadline is 150ms", elapsed)
	}
}

// TestDegradedErrorAfterBlackout verifies the typed ErrDegraded surface:
// when a server stays dark past the whole retry envelope, the client
// reports degradation rather than a bare transport error, and recovers
// once the server returns.
func TestDegradedErrorAfterBlackout(t *testing.T) {
	cfg := soakConfig(2)
	inner := transport.NewInProc()
	chaos := transport.NewChaos(inner, 1)
	retry := transport.WithRetry(chaos, transport.RetryPolicy{
		MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Jitter: 0, Seed: 1,
	})
	group, err := StartGroup(retry, "soak", cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer group.Close()
	client, err := group.NewClient("sim/0")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	field := synth.NewField("u", cfg.Global, cfg.ElemSize)
	if err := client.Put("u", 1, cfg.Global, field.Fill(1, cfg.Global)); err != nil {
		t.Fatal(err)
	}

	// Black out one server far longer than 3 attempts can outlast.
	chaos.Blackout(group.Addrs()[1], 300*time.Millisecond)
	err = client.Put("u", 2, cfg.Global, field.Fill(2, cfg.Global))
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("err during long blackout = %v, want ErrDegraded", err)
	}

	time.Sleep(320 * time.Millisecond)
	if err := client.Put("u", 3, cfg.Global, field.Fill(3, cfg.Global)); err != nil {
		t.Fatalf("put after blackout lifted: %v", err)
	}
}

// rogueTransport returns nonsense responses, proving a malformed server
// cannot panic a rank (the checked-assertion satellite).
func TestMalformedResponsesReturnErrors(t *testing.T) {
	cfg := soakConfig(1)
	tr := transport.NewInProc()
	if _, err := tr.Listen("rogue/0", func(req any) (any, error) {
		return struct{ Nope int }{42}, nil
	}); err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool(tr, []string{"rogue/0"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	client, err := pool.NewClient("sim/0")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	if _, _, err := client.Get("u", 1, cfg.Global); err == nil {
		t.Error("Get accepted a malformed response")
	}
	if _, err := client.WorkflowCheck(); err == nil {
		t.Error("WorkflowCheck accepted a malformed response")
	}
	if _, err := client.WorkflowRestart(); err == nil {
		t.Error("WorkflowRestart accepted a malformed response")
	}
	if _, err := client.Versions("u"); err == nil {
		t.Error("Versions accepted a malformed response")
	}
	if _, err := client.Stats(); err == nil {
		t.Error("Stats accepted a malformed response")
	}
	if _, err := client.TraceRecords(5); err == nil {
		t.Error("TraceRecords accepted a malformed response")
	}
}
