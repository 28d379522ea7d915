package main

import (
	"errors"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"gospaces"
	"gospaces/internal/health"
	"gospaces/internal/staging"
	"gospaces/internal/transport"
	"gospaces/internal/workflow"
)

func TestParseDomain(t *testing.T) {
	b, err := parseDomain("512x512x256")
	if err != nil {
		t.Fatal(err)
	}
	if b.Volume() != 512*512*256 {
		t.Fatalf("volume = %d", b.Volume())
	}
	for _, bad := range []string{"512x512", "ax2x3", "0x1x1", "1x2x3x4", ""} {
		if _, err := parseDomain(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

func TestNameVersion(t *testing.T) {
	n, v, err := nameVersion([]string{"put", "field", "7"})
	if err != nil || n != "field" || v != 7 {
		t.Fatalf("got %s %d %v", n, v, err)
	}
	if _, _, err := nameVersion([]string{"put", "field"}); err == nil {
		t.Fatal("short args accepted")
	}
	if _, _, err := nameVersion([]string{"put", "field", "x"}); err == nil {
		t.Fatal("bad version accepted")
	}
}

// TestEndToEndAgainstLiveServers drives the dsctl command paths against
// real TCP staging servers.
func TestEndToEndAgainstLiveServers(t *testing.T) {
	servers := liveServers(t, 2)
	for _, cmd := range [][]string{
		{"put", "f", "1"},
		{"get", "f", "1"},
		{"versions", "f"},
		{"check"},
		{"restart"},
		{"trace", "5"},
		{"stats"},
		{"health"},
		{"tier"}, // no tier attached: rows print "tier disabled"
		{"scrub"},
	} {
		if err := run(servers, "32x32x16", 8, 2, "dsctl/0", gospaces.DefaultDialOptions(), cmd); err != nil {
			t.Fatalf("%v: %v", cmd, err)
		}
	}
	if err := run(servers, "32x32x16", 8, 2, "dsctl/0", gospaces.DefaultDialOptions(), []string{"bogus"}); err == nil {
		t.Fatal("bogus command accepted")
	}
	if err := run(servers, "32x32x16", 8, 2, "dsctl/0", gospaces.DefaultDialOptions(), nil); err == nil {
		t.Fatal("missing command accepted")
	}
	if err := run(servers, "32x32x16", 8, 2, "dsctl/0", gospaces.DefaultDialOptions(), []string{"trace", "zz"}); err == nil {
		t.Fatal("bad trace limit accepted")
	}
}

// traceCmd validates its subcommand arguments before touching the
// client, so a nil client is safe here; trace replay validates its own
// before reading a file.
func TestTraceCmdArgErrors(t *testing.T) {
	global := gospaces.Box3(0, 0, 0, 3, 3, 0)
	cases := [][]string{
		{"dump"},           // missing file
		{"dump", "f", "5"}, // the dump takes no limit: a partial dump cannot replay
		{"nonsense"},       // neither subcommand nor limit
	}
	for _, args := range cases {
		if err := traceCmd(nil, global, 4, 1, args); err == nil {
			t.Fatalf("%v accepted", args)
		}
	}
	for _, args := range [][]string{nil, {"a", "b"}} {
		if err := traceReplay(args); err == nil {
			t.Fatalf("trace replay %v accepted", args)
		}
	}
}

// TestTraceReplayCheckedInTraces replays every checked-in regression
// trace through the run dispatcher with no staging servers: the replay
// builds its group from the trace header, re-arms the faults, and must
// reach the header's digest.
func TestTraceReplayCheckedInTraces(t *testing.T) {
	paths, err := filepath.Glob("../../internal/workflow/testdata/*.trace")
	if err != nil || len(paths) != 6 {
		t.Fatalf("checked-in traces: %v %v", paths, err)
	}
	for _, path := range paths {
		if err := run("", "64x64x32", 8, 2, "dsctl/0", gospaces.DefaultDialOptions(), []string{"trace", "replay", path}); err != nil {
			t.Errorf("trace replay %s: %v", filepath.Base(path), err)
		}
	}
}

// liveServers starts n single TCP staging servers for the test and
// returns their -servers list.
func liveServers(t *testing.T, n int) string {
	t.Helper()
	var addrs []string
	for i := 0; i < n; i++ {
		srv, err := gospaces.Serve("127.0.0.1:0", i)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs = append(addrs, srv.Addr())
	}
	return strings.Join(addrs, ",")
}

// TestTraceDumpReplayRoundTrip drives a workload through the run
// dispatcher against live TCP servers — a checkpoint, then a restart
// whose re-put the servers suppress, a new put and a get — exports the
// group's merged trace with `trace dump`, checks the artifact, and
// re-executes it in process with `trace replay`.
func TestTraceDumpReplayRoundTrip(t *testing.T) {
	servers := liveServers(t, 2)
	const domain, elem, bits = "8x8x2", 4, 1
	do := func(args ...string) error {
		return run(servers, domain, elem, bits, "dsctl/0", gospaces.DefaultDialOptions(), args)
	}

	for _, cmd := range [][]string{
		{"put", "rho", "1"},
		{"put", "rho", "2"},
		{"get", "rho", "2"},
		{"check"},
		{"put", "rho", "3"},
		{"restart"},
		{"put", "rho", "3"}, // the re-put the restart replays: suppressed
		{"put", "rho", "4"},
		{"get", "rho", "4"},
	} {
		if err := do(cmd...); err != nil {
			t.Fatalf("%v: %v", cmd, err)
		}
	}

	path := filepath.Join(t.TempDir(), "dump.trace")
	if err := do("trace", "dump", path); err != nil {
		t.Fatalf("trace dump: %v", err)
	}
	h, events, err := gospaces.ReadTraceFile(path)
	if err != nil {
		t.Fatalf("dumped trace unreadable: %v", err)
	}
	if h.Label != "dsctl dump" || h.Servers != 2 || h.ElemSize != elem || h.DimX != 8 || h.DimZ != 2 || h.Digest == 0 {
		t.Fatalf("dump header: %+v", h)
	}
	var puts, gets, restarts []gospaces.TraceEvent
	for i, ev := range events {
		if ev.LC != uint64(i) {
			t.Fatalf("event %d carries lc=%d", i, ev.LC)
		}
		switch ev.Kind.String() {
		case "put":
			puts = append(puts, ev)
		case "get":
			gets = append(gets, ev)
		case "restart":
			restarts = append(restarts, ev)
			// The suppressed re-put is a note: the replay's restart
			// re-issues the producer's logged puts itself.
			if next := events[i+1]; next.Kind.String() != "note" || next.Name != "rho" || next.Version != 3 {
				t.Fatalf("after the restart: %+v", next)
			}
		}
	}
	// Each put shards across both servers; the dump collapses each call
	// to one event.
	if len(puts) != 4 || len(gets) != 2 || len(restarts) != 1 {
		t.Fatalf("dump has %d puts, %d gets, %d restarts: %v", len(puts), len(gets), len(restarts), events)
	}
	for _, ev := range puts {
		if ev.Name != "rho" || !ev.Logged || ev.Bytes != 8*8*2*elem {
			t.Fatalf("unexpected put event: %+v", ev)
		}
	}
	for _, ev := range gets {
		if ev.Sum == 0 {
			t.Fatalf("get carries no sum: %+v", ev)
		}
	}

	if err := do("trace", "replay", path); err != nil {
		t.Fatalf("trace replay: %v", err)
	}
	if err := do("trace", "replay", filepath.Join(t.TempDir(), "missing.trace")); err == nil {
		t.Fatal("replay of missing file accepted")
	}
}

// TestTraceDumpRefusesWrappedRing: once a server's ring has evicted
// records, the history a replay needs is gone, and the dump says so
// with the typed error instead of writing a trace that cannot replay.
func TestTraceDumpRefusesWrappedRing(t *testing.T) {
	servers := liveServers(t, 1)
	global := gospaces.Box3(0, 0, 0, 3, 3, 0)
	pool, err := gospaces.Connect([]string{servers}, gospaces.StagingConfig{Global: global, NServers: 1, Bits: 1, ElemSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := pool.NewClient("w/0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 300; i++ { // two lock records each: 600 > the ring's 512
		if err := c.LockOnWrite("lk"); err != nil {
			t.Fatal(err)
		}
		if err := c.UnlockOnWrite("lk"); err != nil {
			t.Fatal(err)
		}
	}
	err = run(servers, "4x4x1", 1, 1, "dsctl/0", gospaces.DefaultDialOptions(),
		[]string{"trace", "dump", filepath.Join(t.TempDir(), "dump.trace")})
	var derr *workflow.DumpError
	if !errors.As(err, &derr) || derr.Missing != "history" {
		t.Fatalf("dump of a wrapped ring: %v", err)
	}
}

// TestTierCommand drives the tier and scrub probes against a live TCP
// server with a directory-backed cold tier and a budget tight enough
// that staged history spills to disk.
func TestTierCommand(t *testing.T) {
	const elem, budget = 8, 300_000 // one 32x32x16 version is 131072 bytes
	srv, err := gospaces.ServeWithOptions("127.0.0.1:0", 0, gospaces.ServeOptions{
		TierDir:      t.TempDir(),
		MemoryBudget: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	servers := srv.Addr()
	opts := gospaces.DefaultDialOptions()
	for v := 1; v <= 4; v++ {
		cmd := []string{"put", "f", strconv.Itoa(v)}
		if err := run(servers, "32x32x16", elem, 2, "dsctl/0", opts, cmd); err != nil {
			t.Fatalf("%v: %v", cmd, err)
		}
	}
	views := gospaces.ProbeTier([]string{servers}, opts)
	if !views[0].Alive() || !views[0].Resp.Enabled {
		t.Fatalf("tier view = %+v", views[0])
	}
	if views[0].Resp.Spills == 0 || views[0].Resp.Entries == 0 {
		t.Fatalf("budget pressure spilled nothing: %+v", views[0])
	}
	// Scrub while the cold versions are still on disk: a clean tier
	// CRC-checks every generation and loses nothing.
	scrubs := gospaces.ScrubTier([]string{servers}, opts)
	if !scrubs[0].Alive() || !scrubs[0].Resp.Enabled || scrubs[0].Resp.Checked == 0 {
		t.Fatalf("scrub view = %+v", scrubs[0])
	}
	if scrubs[0].Resp.Lost != 0 || scrubs[0].Resp.Degraded {
		t.Fatalf("clean tier scrub reported damage: %+v", scrubs[0])
	}
	// Spilled versions still read back byte-exact (promote-on-get).
	for v := 1; v <= 4; v++ {
		cmd := []string{"get", "f", strconv.Itoa(v)}
		if err := run(servers, "32x32x16", elem, 2, "dsctl/0", opts, cmd); err != nil {
			t.Fatalf("%v: %v", cmd, err)
		}
	}
	for _, cmd := range [][]string{{"tier"}, {"scrub"}} {
		if err := run(servers, "32x32x16", elem, 2, "dsctl/0", opts, cmd); err != nil {
			t.Fatalf("%v: %v", cmd, err)
		}
	}
}

// TestHealthCommand probes a live member, a live spare, and a dead
// address: the live rows report role and the dead one turns the
// command into an error without aborting the probe.
func TestHealthCommand(t *testing.T) {
	member, err := gospaces.Serve("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer member.Close()
	spare, err := gospaces.ServeWithOptions("127.0.0.1:0", 1, gospaces.ServeOptions{Spare: true})
	if err != nil {
		t.Fatal(err)
	}
	defer spare.Close()

	opts := gospaces.DefaultDialOptions()
	opts.DialTimeout = time.Second
	opts.Retry.MaxAttempts = 1

	if err := healthCmd([]string{member.Addr(), spare.Addr()}, opts); err != nil {
		t.Fatalf("all-alive health failed: %v", err)
	}

	hs := gospaces.ProbeHealth([]string{member.Addr(), spare.Addr()}, opts)
	if !hs[0].Alive() || hs[0].Resp.Spare {
		t.Fatalf("member health = %+v", hs[0])
	}
	if !hs[1].Alive() || !hs[1].Resp.Spare || hs[1].Resp.ID != 1 {
		t.Fatalf("spare health = %+v", hs[1])
	}

	dead, err := gospaces.Serve("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr()
	dead.Close()
	if err := healthCmd([]string{member.Addr(), deadAddr}, opts); err == nil {
		t.Fatal("dead server not reported")
	}
	hs = gospaces.ProbeHealth([]string{deadAddr}, opts)
	if hs[0].Alive() || hs[0].Err == "" {
		t.Fatalf("dead health = %+v", hs[0])
	}
}

// TestHealthShowsStrandedSlot: a member holding a view that strands a
// slot (the push a recovery leader sends when a dead slot has no spare)
// reports it in its ping, and dsctl health prints it beside the epoch.
func TestHealthShowsStrandedSlot(t *testing.T) {
	member, err := gospaces.Serve("127.0.0.1:0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer member.Close()
	view := health.View{Epoch: 2, Addrs: []string{member.Addr(), "127.0.0.1:1"}, Down: []int{1}}
	tr := transport.NewTCPTimeout(time.Second, time.Second)
	if _, err := transport.CallOnce[health.PingResp](tr, member.Addr(), staging.EpochSetReq{View: view}); err != nil {
		t.Fatal(err)
	}
	opts := gospaces.DefaultDialOptions()
	opts.Retry.MaxAttempts = 1
	h := gospaces.ProbeHealth([]string{member.Addr()}, opts)[0]
	if !h.Alive() || !slices.Equal(h.Resp.View.Down, []int{1}) {
		t.Fatalf("health = %+v, want slot 1 down", h)
	}
	if row := healthRow(h); !strings.HasSuffix(row, " epoch=2 down=[1] role=member") {
		t.Fatalf("health row %q does not show the stranded slot beside the epoch", row)
	}
}
