package workflow

import (
	"testing"

	"gospaces/internal/ckpt"
	"gospaces/internal/domain"
)

func baseOpts(scheme ckpt.Scheme) Options {
	return Options{
		Scheme:      scheme,
		Steps:       10,
		Global:      domain.Box3(0, 0, 0, 31, 31, 15),
		ElemSize:    8,
		SimRanks:    4,
		AnaRanks:    2,
		NServers:    2,
		Bits:        2,
		SimPeriod:   4,
		AnaPeriod:   5,
		CoordPeriod: 4,
	}
}

func mustRun(t *testing.T, opts Options) Result {
	t.Helper()
	res, err := Run(opts)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	// State recovery must be exact for every scheme (the individual
	// scheme's known-corrupt consumers are exempted inside Run).
	if res.StateMismatches != 0 {
		t.Fatalf("%d ranks finished with divergent state", res.StateMismatches)
	}
	if opts.SimRanks > 1 && res.HaloExchanges == 0 {
		t.Fatal("no halo exchanges recorded")
	}
	return res
}

func expectReads(t *testing.T, res Result, opts Options) {
	t.Helper()
	min := opts.Steps * int64(opts.AnaRanks)
	if res.SuccessReads < min {
		t.Fatalf("success reads %d < %d", res.SuccessReads, min)
	}
}

func TestFailureFreeAllSchemes(t *testing.T) {
	for _, scheme := range []ckpt.Scheme{ckpt.Coordinated, ckpt.Uncoordinated, ckpt.Individual, ckpt.Hybrid} {
		t.Run(scheme.String(), func(t *testing.T) {
			opts := baseOpts(scheme)
			res := mustRun(t, opts)
			if res.CorruptReads != 0 {
				t.Fatalf("corrupt reads %d in failure-free run", res.CorruptReads)
			}
			if res.Recoveries != 0 {
				t.Fatalf("recoveries %d in failure-free run", res.Recoveries)
			}
			expectReads(t, res, opts)
		})
	}
}

// TestUncoordinatedConsumerFailure is the paper's case 1: the analytic
// fails mid-run; with data logging the workflow stays consistent.
func TestUncoordinatedConsumerFailure(t *testing.T) {
	opts := baseOpts(ckpt.Uncoordinated)
	opts.Failures = []FailAt{{Component: "ana", Rank: 1, TS: 7}}
	res := mustRun(t, opts)
	if res.Recoveries == 0 {
		t.Fatal("no recovery happened")
	}
	if res.CorruptReads != 0 {
		t.Fatalf("corrupt reads %d: crash consistency violated", res.CorruptReads)
	}
	if res.ReplayedEvents == 0 {
		t.Fatal("no events replayed")
	}
	if res.Staging.ReplayGets == 0 {
		t.Fatal("no replay-mode gets served")
	}
	expectReads(t, res, opts)
}

// TestUncoordinatedProducerFailure is the paper's case 2: the
// simulation fails; its re-issued writes are suppressed.
func TestUncoordinatedProducerFailure(t *testing.T) {
	opts := baseOpts(ckpt.Uncoordinated)
	opts.Failures = []FailAt{{Component: "sim", Rank: 2, TS: 6}}
	res := mustRun(t, opts)
	if res.Recoveries == 0 {
		t.Fatal("no recovery happened")
	}
	if res.CorruptReads != 0 {
		t.Fatalf("corrupt reads %d", res.CorruptReads)
	}
	if res.SuppressedPuts == 0 {
		t.Fatal("no duplicate writes suppressed")
	}
	expectReads(t, res, opts)
}

func TestUncoordinatedBothComponentsFail(t *testing.T) {
	opts := baseOpts(ckpt.Uncoordinated)
	opts.Failures = []FailAt{
		{Component: "sim", Rank: 0, TS: 5},
		{Component: "ana", Rank: 0, TS: 8},
	}
	res := mustRun(t, opts)
	if res.Recoveries < 2 {
		t.Fatalf("recoveries = %d, want >= 2", res.Recoveries)
	}
	if res.CorruptReads != 0 {
		t.Fatalf("corrupt reads %d", res.CorruptReads)
	}
	expectReads(t, res, opts)
}

func TestCoordinatedGlobalRollback(t *testing.T) {
	opts := baseOpts(ckpt.Coordinated)
	opts.Failures = []FailAt{{Component: "ana", Rank: 0, TS: 7}}
	res := mustRun(t, opts)
	if res.Recoveries == 0 {
		t.Fatal("no recovery")
	}
	if res.CorruptReads != 0 {
		t.Fatalf("corrupt reads %d: coordinated rollback must stay correct", res.CorruptReads)
	}
	// Coordinated uses no logging: nothing suppressed or replayed.
	if res.SuppressedPuts != 0 || res.Staging.ReplayGets != 0 {
		t.Fatalf("coordinated run used the log: %+v", res.Staging)
	}
	expectReads(t, res, opts)
}

func TestCoordinatedSimFailureRollsBackConsumerToo(t *testing.T) {
	opts := baseOpts(ckpt.Coordinated)
	opts.Failures = []FailAt{{Component: "sim", Rank: 1, TS: 6}}
	res := mustRun(t, opts)
	if res.Recoveries == 0 {
		t.Fatal("no recovery")
	}
	if res.CorruptReads != 0 {
		t.Fatalf("corrupt reads %d", res.CorruptReads)
	}
	// Global rollback re-executes consumer reads too: more total
	// successful reads than the minimum.
	min := opts.Steps * int64(opts.AnaRanks)
	if res.SuccessReads <= min {
		t.Fatalf("success reads %d, expected > %d (re-executed reads)", res.SuccessReads, min)
	}
}

// TestIndividualSchemeCorruptsResults demonstrates the paper's
// motivation (Fig. 2): individually checkpointing components without
// data logging yields wrong results after a failure.
func TestIndividualSchemeCorruptsResults(t *testing.T) {
	opts := baseOpts(ckpt.Individual)
	opts.Failures = []FailAt{{Component: "ana", Rank: 0, TS: 8}}
	res := mustRun(t, opts)
	if res.Recoveries == 0 {
		t.Fatal("no recovery")
	}
	if res.CorruptReads == 0 {
		t.Fatal("individual scheme produced correct results despite failure; the data-inconsistency motivation should manifest")
	}
}

// TestHybridReplicationMasksFailure: the analytic is replicated; its
// failure must not trigger rollback or replay (paper §III-B).
func TestHybridReplicationMasksFailure(t *testing.T) {
	opts := baseOpts(ckpt.Hybrid)
	opts.Failures = []FailAt{{Component: "ana", Rank: 1, TS: 6}}
	res := mustRun(t, opts)
	if res.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1 (replica takeover)", res.Recoveries)
	}
	if res.CorruptReads != 0 {
		t.Fatalf("corrupt reads %d", res.CorruptReads)
	}
	if res.ReplayedEvents != 0 {
		t.Fatalf("replication must not replay, got %d events", res.ReplayedEvents)
	}
	expectReads(t, res, opts)
}

// TestHybridMixedFailures: simulation C/R failure and analytic replica
// failure in one run.
func TestHybridMixedFailures(t *testing.T) {
	opts := baseOpts(ckpt.Hybrid)
	opts.Failures = []FailAt{
		{Component: "sim", Rank: 0, TS: 6},
		{Component: "ana", Rank: 0, TS: 9},
	}
	res := mustRun(t, opts)
	if res.Recoveries < 2 {
		t.Fatalf("recoveries = %d", res.Recoveries)
	}
	if res.CorruptReads != 0 {
		t.Fatalf("corrupt reads %d", res.CorruptReads)
	}
	if res.SuppressedPuts == 0 {
		t.Fatal("sim rollback should suppress duplicate writes")
	}
	expectReads(t, res, opts)
}

func TestDoubleFailureSameComponent(t *testing.T) {
	opts := baseOpts(ckpt.Uncoordinated)
	opts.Steps = 12
	opts.Failures = []FailAt{
		{Component: "ana", Rank: 0, TS: 6},
		{Component: "ana", Rank: 1, TS: 9},
	}
	opts.Spares = 3
	res := mustRun(t, opts)
	if res.Recoveries < 2 {
		t.Fatalf("recoveries = %d", res.Recoveries)
	}
	if res.CorruptReads != 0 {
		t.Fatalf("corrupt reads %d", res.CorruptReads)
	}
	expectReads(t, res, opts)
}

func TestSubsetExchange(t *testing.T) {
	opts := baseOpts(ckpt.Uncoordinated)
	opts.SubsetFrac = 0.5
	opts.Failures = []FailAt{{Component: "ana", Rank: 0, TS: 5}}
	res := mustRun(t, opts)
	if res.CorruptReads != 0 {
		t.Fatalf("corrupt reads %d", res.CorruptReads)
	}
	expectReads(t, res, opts)
}

func TestFailureAtFirstStepBeforeAnyCheckpoint(t *testing.T) {
	opts := baseOpts(ckpt.Uncoordinated)
	opts.Failures = []FailAt{{Component: "ana", Rank: 0, TS: 2}}
	res := mustRun(t, opts)
	if res.CorruptReads != 0 {
		t.Fatalf("corrupt reads %d", res.CorruptReads)
	}
	if res.Recoveries == 0 {
		t.Fatal("no recovery")
	}
	expectReads(t, res, opts)
}

func TestFailureAtLastStep(t *testing.T) {
	opts := baseOpts(ckpt.Uncoordinated)
	opts.Failures = []FailAt{{Component: "sim", Rank: 3, TS: 10}}
	res := mustRun(t, opts)
	if res.CorruptReads != 0 {
		t.Fatalf("corrupt reads %d", res.CorruptReads)
	}
	expectReads(t, res, opts)
}

// TestCoordinatedServerFailStop is the server-side fault-model
// acceptance run: a staging server fail-stops permanently mid-run. The
// heartbeat detector confirms the death, the recovery supervisor
// promotes a warm spare, the coordinated rollback regenerates the
// staged coupling data, and every consumer read stays byte-exact.
func TestCoordinatedServerFailStop(t *testing.T) {
	opts := baseOpts(ckpt.Coordinated)
	opts.Steps = 12
	opts.NServers = 4
	opts.ServerFailures = []ServerFailAt{{Server: 1, TS: 6}}
	res := mustRun(t, opts)
	if res.CorruptReads != 0 {
		t.Fatalf("corrupt reads %d after server fail-stop", res.CorruptReads)
	}
	if res.Recoveries == 0 {
		t.Fatal("no rank rollback despite a dead staging server")
	}
	if res.ServerRecoveries != 1 {
		t.Fatalf("server recoveries = %d, want 1", res.ServerRecoveries)
	}
	if res.FinalEpoch != 2 {
		t.Fatalf("final epoch = %d, want 2", res.FinalEpoch)
	}
	expectReads(t, res, opts)
}

// TestCoordinatedServerFailStopOverTCP runs the same fault across real
// loopback sockets: the dead server's live connections are severed too.
func TestCoordinatedServerFailStopOverTCP(t *testing.T) {
	opts := baseOpts(ckpt.Coordinated)
	opts.OverTCP = true
	opts.Steps = 8
	opts.NServers = 4
	opts.ServerFailures = []ServerFailAt{{Server: 2, TS: 5}}
	res := mustRun(t, opts)
	if res.CorruptReads != 0 || res.ServerRecoveries != 1 {
		t.Fatalf("result %+v", res)
	}
	expectReads(t, res, opts)
}

// TestServerAndProcessFailuresTogether overlaps a staging-server
// fail-stop with an ordinary process failure in one coordinated run.
func TestServerAndProcessFailuresTogether(t *testing.T) {
	opts := baseOpts(ckpt.Coordinated)
	opts.Steps = 12
	opts.NServers = 4
	opts.Failures = []FailAt{{Component: "ana", Rank: 0, TS: 9}}
	opts.ServerFailures = []ServerFailAt{{Server: 0, TS: 5}}
	res := mustRun(t, opts)
	if res.CorruptReads != 0 {
		t.Fatalf("corrupt reads %d", res.CorruptReads)
	}
	if res.Recoveries < 2 {
		t.Fatalf("recoveries = %d, want >= 2", res.Recoveries)
	}
	if res.ServerRecoveries != 1 {
		t.Fatalf("server recoveries = %d", res.ServerRecoveries)
	}
	expectReads(t, res, opts)
}

func TestOptionsValidation(t *testing.T) {
	if _, err := Run(Options{}); err == nil {
		t.Fatal("empty options accepted")
	}
	opts := baseOpts(ckpt.Coordinated)
	opts.CoordPeriod = 0
	if _, err := Run(opts); err == nil {
		t.Fatal("coordinated without period accepted")
	}
	opts = baseOpts(ckpt.Uncoordinated)
	opts.SimPeriod = 0
	if _, err := Run(opts); err == nil {
		t.Fatal("zero sim period accepted")
	}
	opts = baseOpts(ckpt.Uncoordinated)
	opts.ServerFailures = []ServerFailAt{{Server: 0, TS: 2}}
	if _, err := Run(opts); err == nil {
		t.Fatal("server fail-stop with a non-coordinated scheme accepted")
	}
	opts = baseOpts(ckpt.Coordinated)
	opts.ServerFailures = []ServerFailAt{{Server: 9, TS: 2}}
	if _, err := Run(opts); err == nil {
		t.Fatal("out-of-range server failure accepted")
	}
}

func TestGCKeepsStagingBounded(t *testing.T) {
	opts := baseOpts(ckpt.Uncoordinated)
	opts.Steps = 15
	res := mustRun(t, opts)
	// After the run, GC must have freed something and the store must
	// not hold all 15 versions (bounded by the checkpoint window).
	if res.Staging.GCFreedBytes == 0 {
		t.Fatal("GC never freed bytes")
	}
	stepBytes := int64(domain.BufLen(domain.Subset(opts.Global, 1), opts.ElemSize))
	if res.Staging.StoreBytes > 8*stepBytes {
		t.Fatalf("store holds %d bytes (> 8 steps worth %d): GC ineffective",
			res.Staging.StoreBytes, 8*stepBytes)
	}
}

func TestTwoConsumersIndependentRecovery(t *testing.T) {
	opts := baseOpts(ckpt.Uncoordinated)
	opts.Consumers = 2
	opts.Failures = []FailAt{{Component: "ana1", Rank: 0, TS: 6}}
	res := mustRun(t, opts)
	if res.Recoveries != 1 {
		t.Fatalf("recoveries = %d", res.Recoveries)
	}
	if res.CorruptReads != 0 {
		t.Fatalf("corrupt reads %d", res.CorruptReads)
	}
	// Both consumer components read all steps.
	min := opts.Steps * int64(opts.AnaRanks) * 2
	if res.SuccessReads < min {
		t.Fatalf("success reads %d < %d", res.SuccessReads, min)
	}
}

func TestThreeConsumersCoordinated(t *testing.T) {
	opts := baseOpts(ckpt.Coordinated)
	opts.Consumers = 3
	opts.Failures = []FailAt{{Component: "ana2", Rank: 1, TS: 7}}
	res := mustRun(t, opts)
	if res.Recoveries == 0 || res.CorruptReads != 0 {
		t.Fatalf("result %+v", res)
	}
	min := opts.Steps * int64(opts.AnaRanks) * 3
	if res.SuccessReads < min {
		t.Fatalf("success reads %d < %d", res.SuccessReads, min)
	}
}

func TestMultiConsumerProducerFailure(t *testing.T) {
	opts := baseOpts(ckpt.Uncoordinated)
	opts.Consumers = 2
	opts.Failures = []FailAt{{Component: "sim", Rank: 1, TS: 6}}
	res := mustRun(t, opts)
	if res.CorruptReads != 0 || res.SuppressedPuts == 0 {
		t.Fatalf("result %+v", res)
	}
}

// TestDiverseConsumerModes composes, in one workflow, a C/R-protected
// consumer and a replicated consumer — the diversity of
// fault-tolerance techniques the framework exists to enable (§II-A) —
// and fails both.
func TestDiverseConsumerModes(t *testing.T) {
	opts := baseOpts(ckpt.Hybrid)
	opts.Consumers = 2
	opts.ConsumerModes = []ConsumerMode{ModeCR, ModeReplicated}
	opts.Failures = []FailAt{
		// Mid-period failure so the C/R consumer has a replay window
		// (its checkpoint lands at ts 5).
		{Component: "ana0", Rank: 0, TS: 7}, // C/R: rollback + replay
		{Component: "ana1", Rank: 1, TS: 8}, // replication: masked
	}
	opts.Spares = 4
	res := mustRun(t, opts)
	if res.Recoveries < 2 {
		t.Fatalf("recoveries = %d", res.Recoveries)
	}
	if res.CorruptReads != 0 {
		t.Fatalf("corrupt reads %d", res.CorruptReads)
	}
	// The C/R consumer replayed; the replicated one did not add more.
	if res.ReplayedEvents == 0 {
		t.Fatal("C/R consumer did not replay")
	}
	min := opts.Steps * int64(opts.AnaRanks) * 2
	if res.SuccessReads < min {
		t.Fatalf("success reads %d < %d", res.SuccessReads, min)
	}
}

func TestConsumerModesValidation(t *testing.T) {
	opts := baseOpts(ckpt.Uncoordinated)
	opts.Consumers = 2
	opts.ConsumerModes = []ConsumerMode{ModeCR}
	if _, err := Run(opts); err == nil {
		t.Fatal("mode count mismatch accepted")
	}
	opts = baseOpts(ckpt.Coordinated)
	opts.ConsumerModes = []ConsumerMode{ModeReplicated}
	if _, err := Run(opts); err == nil {
		t.Fatal("modes with unlogged scheme accepted")
	}
}

// TestMultiLevelLiveProcessFailure: process failures recover from the
// fast node-local level.
func TestMultiLevelLiveProcessFailure(t *testing.T) {
	opts := baseOpts(ckpt.Uncoordinated)
	opts.MultiLevel = true
	opts.L2Every = 2
	opts.Failures = []FailAt{{Component: "ana", Rank: 0, TS: 7}}
	res := mustRun(t, opts)
	if res.CorruptReads != 0 {
		t.Fatalf("corrupt reads %d", res.CorruptReads)
	}
	if res.L1Loads == 0 {
		t.Fatalf("recovery did not use L1: %+v", res)
	}
	if res.L2Loads != 0 {
		t.Fatalf("process failure read L2: %+v", res)
	}
}

// TestMultiLevelLiveNodeLoss: a node loss destroys L1, recovery falls
// back to the (older) durable checkpoint, and the workflow still ends
// byte-identical.
func TestMultiLevelLiveNodeLoss(t *testing.T) {
	opts := baseOpts(ckpt.Uncoordinated)
	opts.Steps = 12
	opts.MultiLevel = true
	opts.L2Every = 2 // ana checkpoints at ts 5,10 -> L2 at ts 10
	opts.Failures = []FailAt{{Component: "ana", Rank: 1, TS: 12, NodeLoss: true}}
	res := mustRun(t, opts)
	if res.CorruptReads != 0 {
		t.Fatalf("corrupt reads %d", res.CorruptReads)
	}
	if res.L2Loads == 0 {
		t.Fatalf("node loss did not fall back to L2: %+v", res)
	}
	expectReads(t, res, opts)
}

// TestWorkflowOverTCP runs the whole stack — MPI ranks, staging
// protocol, logging, failure recovery — over loopback TCP sockets.
func TestWorkflowOverTCP(t *testing.T) {
	opts := baseOpts(ckpt.Uncoordinated)
	opts.OverTCP = true
	opts.Steps = 6
	opts.Failures = []FailAt{{Component: "ana", Rank: 0, TS: 4}}
	res := mustRun(t, opts)
	if res.CorruptReads != 0 || res.Recoveries == 0 {
		t.Fatalf("result %+v", res)
	}
	expectReads(t, res, opts)
}

// TestCoordinatedWithMultiLevelNodeLoss combines global rollback with
// two-level checkpoints and a node loss.
func TestCoordinatedWithMultiLevelNodeLoss(t *testing.T) {
	opts := baseOpts(ckpt.Coordinated)
	opts.Steps = 12
	opts.MultiLevel = true
	opts.L2Every = 2
	opts.Failures = []FailAt{{Component: "sim", Rank: 0, TS: 11, NodeLoss: true}}
	res := mustRun(t, opts)
	if res.CorruptReads != 0 || res.Recoveries == 0 {
		t.Fatalf("result %+v", res)
	}
	if res.L2Loads == 0 {
		t.Fatalf("node loss did not reach L2: %+v", res)
	}
}

// TestHybridOverTCP runs the replication-mixed scheme across the wire.
func TestHybridOverTCP(t *testing.T) {
	opts := baseOpts(ckpt.Hybrid)
	opts.OverTCP = true
	opts.Steps = 8
	opts.Failures = []FailAt{{Component: "ana", Rank: 1, TS: 5}}
	res := mustRun(t, opts)
	if res.CorruptReads != 0 || res.Recoveries != 1 {
		t.Fatalf("result %+v", res)
	}
	expectReads(t, res, opts)
}
