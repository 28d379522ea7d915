package workflow

import (
	"errors"
	"testing"
	"time"

	"gospaces/internal/staging"
	"gospaces/internal/trace"
)

// dumpHeader is a small two-server group: 4x4x1 elements of 2 bytes.
func dumpHeader() trace.Header {
	return trace.Header{Label: "unit dump", Servers: 2, Bits: 1, ElemSize: 2, DimX: 4, DimY: 4, DimZ: 1}
}

func TestFromRecordMapping(t *testing.T) {
	cases := []struct {
		op     trace.Op
		detail string
		kind   trace.EventKind
		logged bool
	}{
		{trace.OpPut, "", trace.EvPut, true},
		{trace.OpSuppressedPut, "", trace.EvNote, false}, // the restart re-issues it
		{trace.OpGet, "", trace.EvGet, true},
		{trace.OpReplayGet, "", trace.EvGet, true},
		{trace.OpCheckpoint, "", trace.EvCheckpoint, false},
		{trace.OpRecovery, "", trace.EvRestart, false},
		{trace.OpLock, "acquire write", trace.EvLock, false},
		{trace.OpLock, "release write", trace.EvUnlock, false},
		{trace.OpLock, "acquire read", trace.EvRLock, false},
		{trace.OpLock, "release read", trace.EvRUnlock, false},
		{trace.OpLock, "acquire write err", trace.EvNote, false},
		{trace.OpLock, "", trace.EvNote, false},
		{trace.OpGC, "", trace.EvNote, false},
	}
	for _, c := range cases {
		ev := fromRecord(trace.Record{Op: c.op, App: "a", Name: "n", Version: 3, Bytes: 8, Detail: c.detail})
		if ev.Kind != c.kind || ev.Logged != c.logged {
			t.Fatalf("%v %q -> %+v", c.op, c.detail, ev)
		}
		if ev.App != "a" || ev.Name != "n" || ev.Version != 3 || ev.Seed != 3 {
			t.Fatalf("%v fields: %+v", c.op, ev)
		}
	}
}

// TestDumpTraceCollapsesInterleavedCalls: two apps' sharded calls
// interleave across the servers on the wall clock. Each call must still
// be exactly one event, every get must carry its put's payload sum, and
// the dump must replay in process to its digest.
func TestDumpTraceCollapsesInterleavedCalls(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	rec := func(ms int, op trace.Op, app, name string) trace.Record {
		return trace.Record{At: at(ms), Op: op, App: app, Name: name, Version: 1, Bytes: 16}
	}
	// Server 0 sees each call first, server 1 second, and app B's call
	// starts before app A's has reached server 1.
	per := []staging.TraceResp{
		{Raw: []trace.Record{
			rec(1, trace.OpPut, "A", "a"), rec(2, trace.OpPut, "B", "b"),
			rec(5, trace.OpGet, "A", "b"), rec(6, trace.OpGet, "B", "a"),
		}},
		{Raw: []trace.Record{
			rec(3, trace.OpPut, "A", "a"), rec(4, trace.OpPut, "B", "b"),
			rec(7, trace.OpGet, "A", "b"), rec(8, trace.OpGet, "B", "a"),
		}},
	}
	for i := range per {
		per[i].Total = uint64(len(per[i].Raw))
	}
	h, events, err := DumpTrace(dumpHeader(), per)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		kind      trace.EventKind
		app, name string
	}{
		{trace.EvPut, "A", "a"}, {trace.EvPut, "B", "b"},
		{trace.EvGet, "A", "b"}, {trace.EvGet, "B", "a"},
	}
	if len(events) != len(want) {
		t.Fatalf("%d events, want one per call: %v", len(events), events)
	}
	size := int64(4 * 4 * 2)
	var digest uint64
	for i, w := range want {
		ev := events[i]
		if ev.LC != uint64(i) || ev.Kind != w.kind || ev.App != w.app || ev.Name != w.name || ev.Bytes != size {
			t.Fatalf("event %d = %+v, want %v by %s of %s", i, ev, w.kind, w.app, w.name)
		}
		if ev.Kind == trace.EvGet {
			if sum := payloadSum(soakPayload(1, size)); ev.Sum != sum {
				t.Fatalf("get %s sum %#x, its put's payload sums to %#x", ev.Name, ev.Sum, sum)
			}
			digest = foldDigest(digest, ev.Sum)
		}
	}
	if h.Digest == 0 || h.Digest != digest {
		t.Fatalf("header digest %#x, gets fold to %#x", h.Digest, digest)
	}
	res, err := ReplayTrace(h, events)
	if err != nil {
		t.Fatalf("dumped trace does not replay: %v", err)
	}
	if res.Puts != 2 || res.Gets != 2 || res.Digest != h.Digest {
		t.Fatalf("replay %+v", res)
	}
}

// TestDumpTraceRefusesIncompleteRings: a field the replay needs that
// the rings cannot supply is a typed refusal naming it.
func TestDumpTraceRefusesIncompleteRings(t *testing.T) {
	get := trace.Record{Op: trace.OpGet, App: "c", Name: "f", Version: 2}
	for _, c := range []struct {
		missing string
		per     []staging.TraceResp
	}{
		{"history", []staging.TraceResp{{Total: 0}, {Raw: []trace.Record{{Op: trace.OpGC}}, Total: 513}}},
		{"put", []staging.TraceResp{{Raw: []trace.Record{get}, Total: 1}}},
	} {
		_, _, err := DumpTrace(dumpHeader(), c.per)
		var derr *DumpError
		if !errors.As(err, &derr) || derr.Missing != c.missing {
			t.Fatalf("want a dump error naming %q, got %v", c.missing, err)
		}
	}
}

// TestReplayTraceOrderAndDivergence: out-of-order logical clocks are
// rejected before any group is built, notes are skipped, and an event
// that diverges is reported at its logical clock.
func TestReplayTraceOrderAndDivergence(t *testing.T) {
	bad := []trace.Event{{LC: 5, Kind: trace.EvNote}, {LC: 5, Kind: trace.EvNote}}
	if _, err := ReplayTrace(dumpHeader(), bad); !errors.Is(err, trace.ErrOrder) {
		t.Fatalf("got %v, want ErrOrder", err)
	}
	// Headers come from files: no domain, no element size, no server, or
	// a domain too large to allocate are refused before a group starts.
	for _, h := range []trace.Header{
		{Servers: 2, ElemSize: 1, DimX: 4, DimY: 4},
		{Servers: 2, DimX: 4, DimY: 4, DimZ: 1},
		{ElemSize: 1, DimX: 4, DimY: 4, DimZ: 1},
		{Servers: 2, ElemSize: 8, DimX: 1 << 20, DimY: 1 << 20, DimZ: 1 << 20},
	} {
		if _, err := ReplayTrace(h, nil); err == nil {
			t.Fatalf("header %+v accepted", h)
		}
	}

	size := int64(4 * 4 * 2)
	events := []trace.Event{
		{LC: 0, Kind: trace.EvPut, App: "p", Name: "f", Version: 1, Bytes: size, Seed: 9, Logged: true},
		{LC: 1, Kind: trace.EvNote, Name: "ignored"},
		{LC: 2, Kind: trace.EvGet, App: "c", Name: "f", Version: 1, Bytes: size, Sum: payloadSum(soakPayload(9, size)) ^ 1, Logged: true},
	}
	_, err := ReplayTrace(dumpHeader(), events)
	var div *trace.DivergenceError
	if !errors.As(err, &div) || div.LC != 2 || !errors.Is(err, errSoakTerminal) {
		t.Fatalf("got %v, want a divergence at lc=2", err)
	}

	// A put must span the header's domain: its size is outside input too.
	events[0].Bytes = 1 << 40
	if _, err := ReplayTrace(dumpHeader(), events[:1]); !errors.As(err, &div) || div.LC != 0 || !errors.Is(err, errSoakTerminal) {
		t.Fatalf("got %v, want a divergence at lc=0", err)
	}

	// So is a tier fault whose code names no storage fault, or a net
	// fault that names no window: it would arm nothing yet count as a
	// fault.
	for _, ev := range []trace.Event{
		{Kind: trace.EvTierFault, Arg: 1, Arg2: 3},
		{Kind: trace.EvTierFault, Arg: 1, Arg2: trace.TierSlowIO + 1},
		{Kind: trace.EvNetFault, Arg: 1, Arg2: 40, Name: "reorder"},
	} {
		if _, err := ReplayTrace(dumpHeader(), []trace.Event{ev}); !errors.As(err, &div) || div.LC != 0 || !errors.Is(err, errSoakTerminal) {
			t.Fatalf("%v: got %v, want a divergence at lc=0", ev, err)
		}
	}
}
