package workflow

import (
	"fmt"
	"slices"
	"testing"

	"gospaces/internal/ckpt"
	"gospaces/internal/trace"
)

// The nemesis schedules are the HA-recovery acceptance gate, written as
// seeded soak schedules: redundant supervisors over a live logged data
// path, a staging server fail-stopped mid-run, and the recovery leader
// killed, stalled or starved of spares on the way. ReplayTrace holds
// every run to its digest, and its last barrier to the recovery ledger:
// one lease holder, and one promotion, one spare and one epoch bump per
// fail-stop (plus a lossless scrub over a tier).

var promotionStages = []string{"intent", "restored", "replaced", "pushed"}

// replaySchedule executes one built schedule, with faults (if any)
// inserted before its n-th put, failing the test on a build error, a
// divergence or a broken ledger.
func replaySchedule(t *testing.T, h trace.Header, events []trace.Event, err error, n int, faults ...trace.Event) SoakResult {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if len(faults) > 0 {
		h.Flags |= trace.FlagFaults
		events = renumber(slices.Insert(events, putAnchor(events, n), faults...))
	}
	res, err := ReplayTrace(h, events)
	if err != nil {
		t.Fatalf("%s: %v (result %+v)", h.Label, err, res)
	}
	return res
}

// TestNemesisLeaderKilledMidPromotion kills the recovery leader at a
// rotating promotion stage across 20 seeded runs (4 in -short): a
// standby must take over from the intent journal and resume it.
func TestNemesisLeaderKilledMidPromotion(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 4
	}
	for s := 0; s < seeds; s++ {
		seed := int64(1000 + s)
		stage := promotionStages[s%len(promotionStages)]
		t.Run(fmt.Sprintf("seed%d-%s", seed, stage), func(t *testing.T) {
			t.Parallel()
			h, events, err := killTrace(SoakOptions{Seed: seed}, stage, false)
			res := replaySchedule(t, h, events, err, 0)
			if res.Takeovers == 0 || res.IntentResumes == 0 || res.SupKills != 1 {
				t.Fatalf("leader killed at %q but no intent-journal takeover: %+v", stage, res)
			}
		})
	}
}

// TestNemesisDeposedLeaderFenced stalls the leader past its lease
// instead of killing it: a standby takes over and finishes the
// promotion, and the deposed leader's resumed stale calls must be
// rejected server-side by the fencing token.
func TestNemesisDeposedLeaderFenced(t *testing.T) {
	t.Parallel()
	h, events, err := killTrace(SoakOptions{Seed: 7}, "stall", false)
	res := replaySchedule(t, h, events, err, 0)
	if res.ServerFenced == 0 {
		t.Fatalf("deposed leader's stale calls were not rejected server-side: %+v", res)
	}
	if res.SupFenced == 0 {
		t.Fatalf("deposed leader never observed its own deposition: %+v", res)
	}
}

// TestNemesisSpareExhaustionHeals starts with an empty spare pool: the
// dead slot is stranded (a client observes ErrSlotDown) until a refill,
// after which the backlog sweep promotes — with the leader killed
// mid-promotion for good measure.
func TestNemesisSpareExhaustionHeals(t *testing.T) {
	t.Parallel()
	h, events, err := killTrace(SoakOptions{Seed: 11}, "intent", true)
	res := replaySchedule(t, h, events, err, 0)
	if res.DeadRetries == 0 {
		t.Fatalf("stranded slot healed without a backlog retry: %+v", res)
	}
	if res.SlotDowns == 0 {
		t.Fatalf("no client observed ErrSlotDown while the slot was stranded: %+v", res)
	}
}

// TestNemesisChaosSoak runs Churn-drawn schedules of fail-stops,
// blackouts and immediate supervisor kills.
func TestNemesisChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short")
	}
	for _, seed := range []int64{21, 22, 23} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			h, events, err := BuildSoakTrace(SoakOptions{Seed: seed, Faults: 8})
			res := replaySchedule(t, h, events, err, 0)
			if res.FailStops == 0 || res.Blackouts == 0 || res.SupKills == 0 {
				t.Fatalf("schedule lacks a fail-stop, a blackout or a supervisor kill: %+v", res)
			}
		})
	}
}

// TestNemesisOverloadSoak brackets a server fail-stop with low-priority
// tenant flood bursts: the admission layer must shed the flood with
// typed rejections while recovery still promotes and the logged data
// path stays byte-exact.
func TestNemesisOverloadSoak(t *testing.T) {
	t.Parallel()
	h, events, err := BuildSoakTrace(SoakOptions{Seed: 31, Overload: true})
	res := replaySchedule(t, h, events, err, 3,
		trace.Event{Kind: trace.EvFlood, Arg: 6},
		trace.Event{Kind: trace.EvFailStop, Arg: 2},
		trace.Event{Kind: trace.EvFlood, Arg: 6})
	if res.Promotions != 1 || res.FloodPuts == 0 || res.FloodSheds == 0 {
		t.Fatalf("flood not shed around a promoting fail-stop: %+v", res)
	}
}

// TestNemesisTierSoak is the storage-fault acceptance gate: servers run
// with a cold tier and a budget that forces the logged history to
// spill, while a Churn schedule tears, cuts, rots, ENOSPC-fails and
// slows the tier underneath them, one server fail-stops before the
// first spill, and (on the last seed) a low-priority tenant floods the
// group. The post-run scrub must lose nothing and leave no tier
// degraded.
func TestNemesisTierSoak(t *testing.T) {
	seeds := []int64{41, 42, 43}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for i, seed := range seeds {
		o := SoakOptions{Seed: seed, Steps: 6, Tier: true, Faults: 8, Overload: i == 2}
		faults := []trace.Event{{Kind: trace.EvFailStop, Arg: 1 + seed%3}}
		if o.Overload {
			faults = append(faults, trace.Event{Kind: trace.EvFlood, Arg: 6})
		}
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			h, events, err := BuildSoakTrace(o)
			res := replaySchedule(t, h, events, err, 2, faults...)
			if res.TierSpills == 0 || res.TierPromotes == 0 || res.TierFaults == 0 || res.Promotions != 1 {
				t.Fatalf("tier soak spilled, promoted, faulted or recovered nothing: %+v", res)
			}
			if o.Overload && res.FloodSheds == 0 {
				t.Fatalf("flood tenant was never shed: %+v", res)
			}
		})
	}
}

// TestWorkflowRedundantSupervisors runs the full workflow (ranks,
// checkpoints, rank fail-stop, server fail-stop) under three redundant
// supervisors: exactly one of them must do the promotion.
func TestWorkflowRedundantSupervisors(t *testing.T) {
	opts := baseOpts(ckpt.Uncoordinated)
	opts.Steps = 12
	opts.NServers = 4
	opts.WlogReplicas = 1
	opts.Supervisors = 3
	opts.ServerFailures = []ServerFailAt{{Server: 1, TS: 6}}
	opts.Failures = []FailAt{{Component: "ana", Rank: 0, TS: 8}}
	res := mustRun(t, opts)
	if res.CorruptReads != 0 {
		t.Fatalf("corrupt reads %d under redundant supervisors", res.CorruptReads)
	}
	if res.ServerRecoveries != 1 {
		t.Fatalf("server recoveries = %d across 3 supervisors, want exactly 1", res.ServerRecoveries)
	}
	if res.FinalEpoch != 2 {
		t.Fatalf("final epoch = %d, want 2", res.FinalEpoch)
	}
	expectReads(t, res, opts)
}
