package workflow

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"gospaces/internal/trace"
)

// Regenerate the checked-in regression traces with:
//
//	go test ./internal/workflow/ -run TestReplayRegression -update-traces
var updateTraces = flag.Bool("update-traces", false, "regenerate testdata/*.trace regression traces")

func TestSoakPayloadDeterministic(t *testing.T) {
	a := soakPayload(42, 4096)
	b := soakPayload(42, 4096)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different payloads")
	}
	if bytes.Equal(a, soakPayload(43, 4096)) {
		t.Fatal("different seeds produced identical payloads")
	}
	if payloadSum(a) == 0 {
		t.Fatal("payload sum is zero")
	}
}

func TestBuildSoakTraceDeterministic(t *testing.T) {
	o := SoakOptions{Seed: 9, Faults: 6, Tier: true, Overload: true}
	h1, ev1, err := BuildSoakTrace(o)
	if err != nil {
		t.Fatal(err)
	}
	h2, ev2, err := BuildSoakTrace(o)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("headers differ:\n%+v\n%+v", h1, h2)
	}
	if len(ev1) != len(ev2) {
		t.Fatalf("event counts differ: %d vs %d", len(ev1), len(ev2))
	}
	for i := range ev1 {
		if ev1[i] != ev2[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, ev1[i], ev2[i])
		}
	}
	if h1.Digest == 0 {
		t.Fatal("built trace has no digest")
	}
	if h1.Flags&(trace.FlagFaults|trace.FlagTier|trace.FlagOverload) != trace.FlagFaults|trace.FlagTier|trace.FlagOverload {
		t.Fatalf("flags = %#x", h1.Flags)
	}
	// The encoded artifact is byte-deterministic too.
	img1 := trace.Encode(h1, ev1)
	img2 := trace.Encode(h2, ev2)
	if !bytes.Equal(img1, img2) {
		t.Fatal("same trace encoded to different bytes")
	}
	h3, ev3, err := trace.Decode(img1)
	if err != nil {
		t.Fatal(err)
	}
	if h3 != h1 || len(ev3) != len(ev1) {
		t.Fatal("decode round trip lost data")
	}
	o.Seed = 10
	h4, _, err := BuildSoakTrace(o)
	if err != nil {
		t.Fatal(err)
	}
	if h4.Digest == h1.Digest {
		t.Fatal("different seeds built identical digests")
	}
}

// TestSoakReplayDeterministic is the tentpole's core assertion: record
// a churn soak (fail-stops, blackouts, tier faults, floods all on),
// then replay the recorded trace and require byte-identical get
// results (the digest folds every checked get's payload sum in order)
// and an identical final staging state fingerprint.
func TestSoakReplayDeterministic(t *testing.T) {
	o := SoakOptions{Seed: 7, Groups: 2, Steps: 5, Faults: 6, Tier: true, Overload: true}
	h, events, rec, err := RunSoak(o)
	if err != nil {
		t.Fatalf("recording run failed: %v", err)
	}
	if rec.Digest != h.Digest {
		t.Fatalf("recorded digest %#x != header digest %#x", rec.Digest, h.Digest)
	}
	if rec.Gets == 0 || rec.Puts == 0 || rec.Restarts == 0 {
		t.Fatalf("workload too thin: %+v", rec)
	}
	// Replay through the wire format, exactly as CI replays testdata.
	h2, ev2, err := trace.Decode(trace.Encode(h, events))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ReplayTrace(h2, ev2)
	if err != nil {
		t.Fatalf("replay failed: %v", err)
	}
	if rep.Digest != rec.Digest {
		t.Fatalf("replay digest %#x != recorded %#x", rep.Digest, rec.Digest)
	}
	if rep.StateSum != rec.StateSum {
		t.Fatalf("final staging state diverged: %#x vs %#x", rep.StateSum, rec.StateSum)
	}
	if rep.Gets != rec.Gets || rep.Puts != rec.Puts || rep.Restarts != rec.Restarts ||
		rep.FailStops != rec.FailStops || rep.FloodPuts != rec.FloodPuts {
		t.Fatalf("replay op counts diverged:\nrec %+v\nrep %+v", rec, rep)
	}
}

// TestSoakDivergenceDeterministic: a failing run's trace must fail the
// same way every time it is replayed — at the same logical clock, with
// a typed divergence. This is what makes persisted failing traces
// useful as regression tests.
func TestSoakDivergenceDeterministic(t *testing.T) {
	h, events, err := BuildSoakTrace(SoakOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	idx := -1
	for i, e := range events {
		if e.Kind == trace.EvGet && e.Logged {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatal("trace has no logged get")
	}
	events[idx].Sum ^= 0xdeadbeef

	lc := func() uint64 {
		_, err := ReplayTrace(h, events)
		var div *trace.DivergenceError
		if !errors.As(err, &div) {
			t.Fatalf("corrupted trace replayed without divergence: %v", err)
		}
		return div.LC
	}
	first := lc()
	if first != events[idx].LC {
		t.Fatalf("diverged at LC %d, corrupted event is LC %d", first, events[idx].LC)
	}
	if second := lc(); second != first {
		t.Fatalf("divergence moved between replays: LC %d then %d", first, second)
	}
}

func regressionPath(t *testing.T, kind string) string {
	t.Helper()
	return filepath.Join("testdata", kind+".trace")
}

// runRegression replays one checked-in trace from testdata/ twice and
// holds both runs to its recorded digest and to one final-state sum.
// With -update-traces it first rebuilds and re-verifies the artifact.
func runRegression(t *testing.T, kind string) {
	t.Helper()
	path := regressionPath(t, kind)
	if *updateTraces {
		h, events, err := BuildRegressionTrace(kind)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReplayTrace(h, events); err != nil {
			t.Fatalf("rebuilt %s trace does not replay clean: %v", kind, err)
		}
		if err := trace.WriteFile(path, h, events); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d events)", path, len(events))
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("missing %s — run with -update-traces to generate it", path)
	}
	h, events, err := trace.ReadFile(path)
	if err != nil {
		t.Fatalf("checked-in trace unreadable: %v", err)
	}
	var first SoakResult
	for run := 0; run < 2; run++ {
		res, err := ReplayTrace(h, events)
		if err != nil {
			t.Fatalf("replay %d of %s diverged: %v", run, kind, err)
		}
		if res.Digest != h.Digest {
			t.Fatalf("replay %d digest %#x != recorded %#x", run, res.Digest, h.Digest)
		}
		if run == 0 {
			first = res
		} else if res.StateSum != first.StateSum {
			t.Fatalf("final staging state diverged between replays: %#x vs %#x", first.StateSum, res.StateSum)
		}
	}
}

func TestReplayRegression_KillMidReplay(t *testing.T)   { runRegression(t, "kill-mid-replay") }
func TestReplayRegression_TierSpillENOSPC(t *testing.T) { runRegression(t, "tier-spill-enospc") }
func TestReplayRegression_OverloadShed(t *testing.T)    { runRegression(t, "overload-shed") }
func TestReplayRegression_LeaderKilledMidPromotion(t *testing.T) {
	runRegression(t, "leader-killed-mid-promotion")
}
func TestReplayRegression_DeposedLeaderFenced(t *testing.T) {
	runRegression(t, "deposed-leader-fenced")
}
func TestReplayRegression_SpareExhaustionHealed(t *testing.T) {
	runRegression(t, "spare-exhaustion-healed")
}

func TestBuildRegressionTraceShapes(t *testing.T) {
	cases := []struct {
		kind string
		want trace.EventKind
	}{
		{"kill-mid-replay", trace.EvFailStop},
		{"tier-spill-enospc", trace.EvTierFault},
		{"overload-shed", trace.EvFlood},
		{"leader-killed-mid-promotion", trace.EvSupervisorKill},
		{"deposed-leader-fenced", trace.EvSupervisorKill},
		{"spare-exhaustion-healed", trace.EvAddSpare},
	}
	for _, c := range cases {
		h, events, err := BuildRegressionTrace(c.kind)
		if err != nil {
			t.Fatal(err)
		}
		if h.Flags&trace.FlagFaults == 0 {
			t.Fatalf("%s: faults flag unset", c.kind)
		}
		found := false
		for i, e := range events {
			if e.LC != uint64(i) {
				t.Fatalf("%s: LC not renumbered at %d", c.kind, i)
			}
			if e.Kind == c.want {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: no %v event in trace", c.kind, c.want)
		}
	}
	if _, _, err := BuildRegressionTrace("no-such-scenario"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}
