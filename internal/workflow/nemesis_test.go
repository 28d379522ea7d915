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

// seeded runs f, one seeded schedule, as t: the nemesis tests run
// their schedules in parallel; their bubble twins (bubble_test.go) run
// each in a synctest bubble, in sequence, as a bubble cannot hold a
// parallel test.
type seeded func(t *testing.T, f func(t *testing.T))

// parallel runs f as t, in parallel with t's parallel siblings.
func parallel(t *testing.T, f func(t *testing.T)) { t.Parallel(); f(t) }

func TestNemesisLeaderKilledMidPromotion(t *testing.T) { nemesisLeaderKilledMidPromotion(t, parallel) }
func TestNemesisDeposedLeaderFenced(t *testing.T)      { nemesisDeposedLeaderFenced(t, parallel) }
func TestNemesisSpareExhaustionHeals(t *testing.T)     { nemesisSpareExhaustionHeals(t, parallel) }
func TestNemesisChaosSoak(t *testing.T)                { nemesisChaosSoak(t, parallel) }
func TestNemesisNetFaultReplay(t *testing.T)           { nemesisNetFaultReplay(t, parallel) }
func TestNemesisOverloadSoak(t *testing.T)             { nemesisOverloadSoak(t, parallel) }
func TestNemesisTierSoak(t *testing.T)                 { nemesisTierSoak(t, parallel) }

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

// nemesisLeaderKilledMidPromotion kills the recovery leader at a
// rotating promotion stage across 20 seeded runs (4 in -short): a
// standby must take over from the intent journal and resume it.
func nemesisLeaderKilledMidPromotion(t *testing.T, run seeded) {
	seeds := 20
	if testing.Short() {
		seeds = 4
	}
	for s := 0; s < seeds; s++ {
		seed := int64(1000 + s)
		stage := promotionStages[s%len(promotionStages)]
		t.Run(fmt.Sprintf("seed%d-%s", seed, stage), func(t *testing.T) {
			run(t, func(t *testing.T) {
				h, events, err := killTrace(SoakOptions{Seed: seed}, stage, false)
				res := replaySchedule(t, h, events, err, 0)
				if res.Takeovers == 0 || res.IntentResumes == 0 || res.SupKills != 1 {
					t.Fatalf("leader killed at %q but no intent-journal takeover: %+v", stage, res)
				}
			})
		})
	}
}

// nemesisDeposedLeaderFenced stalls the leader past its lease
// instead of killing it: a standby takes over and finishes the
// promotion, and the deposed leader's resumed stale calls must be
// rejected server-side by the fencing token.
func nemesisDeposedLeaderFenced(t *testing.T, run seeded) {
	run(t, func(t *testing.T) {
		h, events, err := killTrace(SoakOptions{Seed: 7}, "stall", false)
		res := replaySchedule(t, h, events, err, 0)
		if res.ServerFenced == 0 {
			t.Fatalf("deposed leader's stale calls were not rejected server-side: %+v", res)
		}
		if res.SupFenced == 0 {
			t.Fatalf("deposed leader never observed its own deposition: %+v", res)
		}
	})
}

// nemesisSpareExhaustionHeals starts with an empty spare pool: the
// dead slot is stranded (a client observes ErrSlotDown) until a refill,
// after which the backlog sweep promotes — with the leader killed
// mid-promotion for good measure.
func nemesisSpareExhaustionHeals(t *testing.T, run seeded) {
	run(t, func(t *testing.T) {
		h, events, err := killTrace(SoakOptions{Seed: 11}, "intent", true)
		res := replaySchedule(t, h, events, err, 0)
		if res.DeadRetries == 0 {
			t.Fatalf("stranded slot healed without a backlog retry: %+v", res)
		}
		if res.SlotDowns == 0 {
			t.Fatalf("no client observed ErrSlotDown while the slot was stranded: %+v", res)
		}
	})
}

// nemesisChaosSoak runs drawn schedules of fail-stops, blackouts,
// network delay and drop windows and immediate supervisor kills; each
// seed draws all four kinds.
func nemesisChaosSoak(t *testing.T, run seeded) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short")
	}
	for _, seed := range []int64{21, 22, 23} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			run(t, func(t *testing.T) {
				h, events, err := BuildSoakTrace(SoakOptions{Seed: seed, Faults: 8})
				res := replaySchedule(t, h, events, err, 0)
				if res.FailStops == 0 || res.Blackouts == 0 || res.SupKills == 0 || res.NetFaults == 0 {
					t.Fatalf("schedule lacks a fail-stop, a blackout, a supervisor kill or a net fault: %+v", res)
				}
			})
		})
	}
}

// nemesisNetFaultReplay opens a drop window and a delay window
// right before a producer's restart: the restart's calls to the dropped
// slot, and the replica stream into it, lose answers until the window
// closes, and the replayed puts run through the delay window behind it.
// The recorded schedule and its replay through the wire format read the
// same bytes.
func nemesisNetFaultReplay(t *testing.T, run seeded) {
	run(t, func(t *testing.T) {
		h, events, err := BuildSoakTrace(SoakOptions{Seed: 51})
		if err != nil {
			t.Fatal(err)
		}
		at := slices.IndexFunc(events, func(e trace.Event) bool { return e.Kind == trace.EvRestart })
		h.Flags |= trace.FlagFaults
		events = renumber(slices.Insert(events, at,
			trace.Event{Kind: trace.EvNetFault, Name: "drop", Arg: 1, Arg2: 30},
			trace.Event{Kind: trace.EvNetFault, Name: "delay", Arg: 2, Arg2: 59}))
		rec := replaySchedule(t, h, events, nil, 0)
		h2, ev2, err := trace.Decode(trace.Encode(h, events))
		if err != nil {
			t.Fatal(err)
		}
		rep := replaySchedule(t, h2, ev2, nil, 0)
		if rec.NetFaults != 2 || rec.Restarts == 0 {
			t.Fatalf("net faults or restarts missing: %+v", rec)
		}
		if rep.Digest != rec.Digest || rep.StateSum != rec.StateSum {
			t.Fatalf("replay read %#x/%#x, recorded %#x/%#x", rep.Digest, rep.StateSum, rec.Digest, rec.StateSum)
		}
	})
}

// nemesisOverloadSoak brackets a server fail-stop with low-priority
// tenant flood bursts: the admission layer must shed the flood with
// typed rejections while recovery still promotes and the logged data
// path stays byte-exact.
func nemesisOverloadSoak(t *testing.T, run seeded) {
	run(t, func(t *testing.T) {
		h, events, err := BuildSoakTrace(SoakOptions{Seed: 31, Overload: true})
		res := replaySchedule(t, h, events, err, 3,
			trace.Event{Kind: trace.EvFlood, Arg: 6},
			trace.Event{Kind: trace.EvFailStop, Arg: 2},
			trace.Event{Kind: trace.EvFlood, Arg: 6})
		if res.Promotions != 1 || res.FloodPuts == 0 || res.FloodSheds == 0 {
			t.Fatalf("flood not shed around a promoting fail-stop: %+v", res)
		}
	})
}

// nemesisTierSoak is the storage-fault acceptance gate: servers run
// with a cold tier and a budget that forces the logged history to
// spill, while a Churn schedule tears, cuts, rots, ENOSPC-fails and
// slows the tier underneath them, one server fail-stops before the
// first spill, and (on the last seed) a low-priority tenant floods the
// group. The post-run scrub must lose nothing and leave no tier
// degraded.
func nemesisTierSoak(t *testing.T, run seeded) {
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
			run(t, func(t *testing.T) {
				h, events, err := BuildSoakTrace(o)
				res := replaySchedule(t, h, events, err, 2, faults...)
				if res.TierSpills == 0 || res.TierPromotes == 0 || res.TierFaults == 0 || res.Promotions != 1 {
					t.Fatalf("tier soak spilled, promoted, faulted or recovered nothing: %+v", res)
				}
				if o.Overload && res.FloodSheds == 0 {
					t.Fatalf("flood tenant was never shed: %+v", res)
				}
			})
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
