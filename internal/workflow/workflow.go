// Package workflow composes the full system into runnable in-situ
// workflows: a simulation component producing field data into staging
// and an analytic component consuming it, each running its ranks on the
// MPI-like runtime, protected by one of the paper's four workflow-level
// fault-tolerance schemes, with fail-stop failures injected and
// recovered live. Consumers verify every byte they read against the
// deterministic synthetic field, so crash consistency is checked end to
// end, not just asserted.
package workflow

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gospaces/internal/ckpt"
	"gospaces/internal/domain"
	"gospaces/internal/health"
	"gospaces/internal/mpi"
	"gospaces/internal/pfs"
	"gospaces/internal/recovery"
	"gospaces/internal/staging"
	"gospaces/internal/synth"
	"gospaces/internal/transport"
)

// ConsumerMode is one consumer component's fault-tolerance technique.
type ConsumerMode int

// Consumer fault-tolerance modes for Options.ConsumerModes.
const (
	// ModeCR protects the consumer with checkpoint/restart plus staging
	// data logging.
	ModeCR ConsumerMode = iota
	// ModeReplicated protects the consumer with process replication:
	// failures are masked by replica takeover, no rollback or replay.
	ModeReplicated
)

// FailAt schedules one fail-stop injection: the rank of the component
// is killed when it begins timestep TS.
type FailAt struct {
	Component string
	Rank      int
	TS        int64
	// NodeLoss also destroys the component's node-local (L1)
	// checkpoints, forcing multi-level recovery from the durable level.
	NodeLoss bool
}

// ServerFailAt schedules one staging-server fail-stop: the server's
// listener closes for good when the producer's rank 0 begins timestep
// TS. Unlike FailAt process failures, nothing comes back at the old
// address — the recovery supervisor must promote a warm spare.
type ServerFailAt struct {
	Server int
	TS     int64
}

// Options configures a workflow run.
type Options struct {
	// Scheme is the workflow-level fault-tolerance scheme.
	Scheme ckpt.Scheme
	// Steps is the number of coupling cycles.
	Steps int64
	// Global is the data domain; ElemSize the bytes per cell.
	Global   domain.BBox
	ElemSize int
	// SubsetFrac is the fraction of the domain exchanged per step.
	SubsetFrac float64
	// SimRanks and AnaRanks are the component sizes.
	SimRanks, AnaRanks int
	// Consumers is the number of analytic components (each with
	// AnaRanks ranks) coupled to the producer, as in the paper's
	// Figure 1. Default 1, named "ana"; with more, they are named
	// "ana0", "ana1", ... and recover independently.
	Consumers int
	// ConsumerModes optionally assigns each consumer component its own
	// fault-tolerance technique — the diversity the framework exists to
	// compose (§II-A). Valid with the Uncoordinated and Hybrid schemes;
	// when empty, Uncoordinated protects all consumers with C/R and
	// Hybrid replicates them all.
	ConsumerModes []ConsumerMode
	// NServers and Bits configure the staging group.
	NServers, Bits int
	// SimPeriod and AnaPeriod are per-component checkpoint periods
	// (uncoordinated/individual/hybrid); CoordPeriod is the global
	// period (coordinated).
	SimPeriod, AnaPeriod, CoordPeriod int
	// Failures to inject.
	Failures []FailAt
	// Spares is the spare-process pool size.
	Spares int
	// ServerFailures schedules permanent staging-server fail-stops.
	// Only the Coordinated scheme supports them: its global rollback
	// regenerates all coupling data, so nothing depends on the staged
	// state lost with the dead server. Scheduling one enables the
	// heartbeat detector and the recovery supervisor, which promotes a
	// warm spare.
	ServerFailures []ServerFailAt
	// StagingSpares is the warm-spare staging-server pool size (default:
	// one per scheduled server failure).
	StagingSpares int
	// Supervisors is the number of redundant recovery supervisors racing
	// for the leader lease (default 1). With more than one, a standby
	// takes over within a lease window of the leader dying — resuming
	// any half-done promotion the leader journaled.
	Supervisors int
	// WlogReplicas replicates each staging server's event log (and the
	// logged payloads and lock tables) to this many peer servers, so a
	// promoted spare restores the dead server's queues and replay
	// survives staging fail-stops. It is what lets logged schemes
	// (uncoordinated, hybrid) tolerate ServerFailures. 0 disables.
	WlogReplicas int
	// OverTCP runs the staging group on loopback TCP sockets instead of
	// the in-process transport, exercising the full wire path.
	OverTCP bool
	// MultiLevel checkpoints to fast node-local storage (L1), writing
	// every L2Every-th checkpoint to the durable store too (Moody et
	// al.; the paper's future work). Failures marked NodeLoss destroy
	// L1 and force recovery from L2.
	MultiLevel bool
	// L2Every directs every n-th checkpoint to the durable level
	// (default 4).
	L2Every int
}

func (o *Options) defaults() error {
	if o.Steps <= 0 || o.SimRanks <= 0 || o.AnaRanks <= 0 || o.NServers <= 0 {
		return fmt.Errorf("workflow: non-positive sizes in %+v", *o)
	}
	if o.SubsetFrac <= 0 || o.SubsetFrac > 1 {
		o.SubsetFrac = 1
	}
	if o.Bits == 0 {
		o.Bits = 2
	}
	if o.ElemSize == 0 {
		o.ElemSize = 8
	}
	if o.Spares == 0 {
		o.Spares = len(o.Failures) + 1
	}
	if o.Consumers <= 0 {
		o.Consumers = 1
	}
	if o.MultiLevel && o.L2Every <= 0 {
		o.L2Every = 4
	}
	if len(o.ConsumerModes) > 0 {
		if len(o.ConsumerModes) != o.Consumers {
			return fmt.Errorf("workflow: %d consumer modes for %d consumers", len(o.ConsumerModes), o.Consumers)
		}
		if !o.Scheme.Logged() {
			return fmt.Errorf("workflow: per-consumer modes need a logged scheme (uncoordinated or hybrid)")
		}
	}
	if o.Scheme == ckpt.Coordinated {
		if o.CoordPeriod <= 0 {
			return fmt.Errorf("workflow: coordinated scheme needs CoordPeriod")
		}
		o.SimPeriod, o.AnaPeriod = o.CoordPeriod, o.CoordPeriod
	}
	if o.SimPeriod <= 0 || o.AnaPeriod <= 0 {
		return fmt.Errorf("workflow: checkpoint periods must be positive")
	}
	if len(o.ServerFailures) > 0 {
		if o.Scheme != ckpt.Coordinated && !(o.Scheme.Logged() && o.WlogReplicas > 0) {
			return fmt.Errorf("workflow: server fail-stops need the coordinated scheme (global rollback regenerates the staged state lost with the server) or a logged scheme with WlogReplicas > 0 (the event log and payloads survive on peer replicas)")
		}
		for _, f := range o.ServerFailures {
			if f.Server < 0 || f.Server >= o.NServers {
				return fmt.Errorf("workflow: server failure targets server %d of %d", f.Server, o.NServers)
			}
			if f.TS < 1 || f.TS > o.Steps {
				return fmt.Errorf("workflow: server failure at ts %d outside 1..%d", f.TS, o.Steps)
			}
		}
		if o.StagingSpares == 0 {
			o.StagingSpares = len(o.ServerFailures)
		}
	}
	if o.Supervisors <= 0 {
		o.Supervisors = 1
	}
	return nil
}

// Result reports what a run did.
type Result struct {
	// Elapsed is the wall-clock run time.
	Elapsed time.Duration
	// Recoveries counts component rollback/repair rounds.
	Recoveries int
	// ReplayedEvents is the total replay-script length over all
	// workflow_restart calls.
	ReplayedEvents int
	// SuccessReads and CorruptReads count verified and failed consumer
	// reads. Any scheme except Individual must end with CorruptReads
	// == 0, failures or not.
	SuccessReads, CorruptReads int64
	// SuppressedPuts counts duplicate writes the log suppressed.
	SuppressedPuts int64
	// HaloExchanges counts successful producer halo messages.
	HaloExchanges int64
	// L1Loads and L2Loads count multi-level checkpoint restores by
	// level (L2 only after node losses).
	L1Loads, L2Loads int
	// StateMismatches counts ranks whose final accumulated state
	// diverged from the failure-free value — must be 0 for every scheme
	// that guarantees correct state recovery.
	StateMismatches int
	// Staging is the final aggregated staging accounting.
	Staging staging.StatsResp
	// CheckpointBytes is resident checkpoint storage at the end.
	CheckpointBytes int64
	// ServerRecoveries counts staging-server promotions (spare replaced
	// a confirmed-dead member).
	ServerRecoveries int
	// FinalEpoch is the staging membership epoch at the end of the run
	// (1 + one bump per promotion).
	FinalEpoch uint64
}

// rankState is the application state each rank checkpoints: the last
// completed timestep plus an order-sensitive accumulator over all data
// the rank produced or consumed. After any sequence of failures,
// replays, and rollbacks, a rank's final accumulator must equal the
// failure-free value — the workflow runtime checks this at the end, so
// state recovery (not just staging data) is verified.
type rankState struct {
	LastTS int64
	Acc    uint64
}

// fold mixes one timestep's payload digest into the accumulator.
func (s *rankState) fold(sum uint64) {
	x := s.Acc ^ sum
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	s.Acc = x ^ (x >> 31)
}

// injector hands out each scheduled failure exactly once.
type injector struct {
	mu   sync.Mutex
	plan map[FailAt]bool
}

func newInjector(plan []FailAt) *injector {
	m := make(map[FailAt]bool, len(plan))
	for _, f := range plan {
		m[f] = true
	}
	return &injector{plan: m}
}

// fires reports (once) whether component/rank fails at ts, and whether
// the failure is a node loss.
func (i *injector) fires(component string, rank int, ts int64) (hit, nodeLoss bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	for _, nl := range []bool{false, true} {
		key := FailAt{Component: component, Rank: rank, TS: ts, NodeLoss: nl}
		if i.plan[key] {
			delete(i.plan, key)
			return true, nl
		}
	}
	return false, false
}

// serverInjector hands out each scheduled staging-server fail-stop
// exactly once, keyed by schedule index so duplicate entries both fire.
type serverInjector struct {
	mu    sync.Mutex
	plan  []ServerFailAt
	fired []bool
}

func newServerInjector(plan []ServerFailAt) *serverInjector {
	return &serverInjector{plan: plan, fired: make([]bool, len(plan))}
}

// due returns the server ids scheduled to fail-stop at ts, each at most
// once per run (a rollback re-entering ts must not re-kill).
func (i *serverInjector) due(ts int64) []int {
	i.mu.Lock()
	defer i.mu.Unlock()
	var out []int
	for idx, f := range i.plan {
		if !i.fired[idx] && f.TS == ts {
			i.fired[idx] = true
			out = append(out, f.Server)
		}
	}
	return out
}

// run owns the shared machinery of one workflow execution.
type run struct {
	opts      Options
	group     *staging.Group
	saver     *ckpt.Saver
	ml        *ckpt.MultiLevel
	ckptStore *pfs.Store
	l1Store   *pfs.Store
	world     *mpi.World
	spares    *mpi.SparePool
	coupler   *Coupler
	field     *synth.Field
	inj       *injector
	srvInj    *serverInjector
	sup       *recovery.Supervisor   // first supervisor (WaitIdle convenience)
	sups      []*recovery.Supervisor // all redundant supervisors
	subset    domain.BBox
	simDec    *domain.Decomposition
	anaDec    *domain.Decomposition

	recoveries     atomic.Int64
	l1Loads        atomic.Int64
	l2Loads        atomic.Int64
	replayedEvents atomic.Int64
	successReads   atomic.Int64
	corruptReads   atomic.Int64
	haloExchanges  atomic.Int64

	// finalAcc records each rank's final accumulator, keyed
	// "component/rank", for end-of-run state validation.
	accMu    sync.Mutex
	finalAcc map[string]uint64

	// doom tears down every recovery domain when one supervisor gives
	// up, so a sibling domain cannot wait forever on the coupler.
	doom     chan struct{}
	doomOnce sync.Once
}

// condemn signals global teardown.
func (r *run) condemn() {
	r.doomOnce.Do(func() { close(r.doom) })
}

// Run executes the workflow and returns its result. It is the
// functional counterpart of the paper's synthetic experiments: real
// staging servers, real event logs, real recovery.
func Run(opts Options) (Result, error) {
	if err := opts.defaults(); err != nil {
		return Result{}, err
	}
	var tr transport.Transport = transport.NewInProc()
	if opts.OverTCP {
		tr = transport.NewTCP()
	}
	group, err := staging.StartGroup(tr, groupPrefix(opts), staging.Config{
		Global:       opts.Global,
		NServers:     opts.NServers,
		Bits:         opts.Bits,
		ElemSize:     opts.ElemSize,
		WlogReplicas: opts.WlogReplicas,
	})
	if err != nil {
		return Result{}, err
	}
	defer group.Close()

	world := mpi.NewWorld()
	ckptStore := pfs.NewStore()
	l1Store := pfs.NewStore()
	var ml *ckpt.MultiLevel
	if opts.MultiLevel {
		var err error
		ml, err = ckpt.NewMultiLevel(l1Store, ckptStore, opts.L2Every)
		if err != nil {
			return Result{}, err
		}
	}
	r := &run{
		opts:      opts,
		group:     group,
		saver:     ckpt.NewSaver(ckptStore),
		ml:        ml,
		ckptStore: ckptStore,
		l1Store:   l1Store,
		world:     world,
		finalAcc:  make(map[string]uint64),
		spares:    mpi.NewSparePool(world, opts.Spares),
		coupler:   NewCoupler(opts.SimRanks, opts.AnaRanks*opts.Consumers),
		field:     synth.NewField("field", opts.Global, opts.ElemSize),
		inj:       newInjector(opts.Failures),
		srvInj:    newServerInjector(opts.ServerFailures),
		subset:    domain.Subset(opts.Global, opts.SubsetFrac),
		doom:      make(chan struct{}),
	}
	if len(opts.ServerFailures) > 0 || opts.StagingSpares > 0 {
		for i := 0; i < opts.StagingSpares; i++ {
			if _, err := group.AddSpare(); err != nil {
				return Result{}, err
			}
		}
		for i := 0; i < opts.Supervisors; i++ {
			id := fmt.Sprintf("workflow/supervisor/%d", i)
			det := health.NewDetector(tr, id, health.Config{
				Period:       15 * time.Millisecond,
				Timeout:      100 * time.Millisecond,
				SuspectAfter: 2,
				DeadAfter:    6,
			})
			// Ranks learn a promotion, or a slot stranded with no spare,
			// from the servers' view, as any client does.
			sup := recovery.New(tr, det, group.Membership(), group, recovery.Config{ID: id})
			sup.Start()
			defer sup.Close()
			r.sups = append(r.sups, sup)
		}
		r.sup = r.sups[0]
	}

	start := time.Now()
	if err := r.execute(); err != nil {
		return Result{}, err
	}
	elapsed := time.Since(start)

	var promotions int64
	if r.sup != nil {
		// Drain any in-flight repair so the final stats see the promoted
		// spare; a slot that stays dead surfaces below as a dial error.
		_ = r.sup.WaitIdle(30 * time.Second)
		// Whichever supervisor held the lease did the work: sum across
		// the redundant set.
		for _, sup := range r.sups {
			m := sup.Metrics()
			promotions += m.Counter("recovery.promotions").Value()
		}
	}

	probe, err := group.NewClient("probe/0")
	if err != nil {
		return Result{}, err
	}
	defer probe.Close()
	stats, err := probe.Stats()
	if err != nil {
		return Result{}, err
	}
	return Result{
		Elapsed:          elapsed,
		Recoveries:       int(r.recoveries.Load()),
		ReplayedEvents:   int(r.replayedEvents.Load()),
		SuccessReads:     r.successReads.Load(),
		CorruptReads:     r.corruptReads.Load(),
		SuppressedPuts:   stats.SuppressedPuts,
		HaloExchanges:    r.haloExchanges.Load(),
		L1Loads:          int(r.l1Loads.Load()),
		L2Loads:          int(r.l2Loads.Load()),
		StateMismatches:  r.validateState(),
		Staging:          stats,
		CheckpointBytes:  r.ckptStore.Bytes() + r.l1Store.Bytes(),
		ServerRecoveries: int(promotions),
		FinalEpoch:       group.Membership().Epoch(),
	}, nil
}

// waitServers blocks until the staging membership is quiet again — all
// slots alive with no promotion in flight — so rank
// recovery re-dials promoted addresses instead of dead ones. Without a
// supervisor there is nothing to wait for.
func (r *run) waitServers() error {
	if r.sup == nil {
		return nil
	}
	return r.sup.WaitIdle(30 * time.Second)
}

// groupPrefix returns the transport address prefix: a name for the
// in-process transport, loopback-with-ephemeral-ports for TCP (the TCP
// transport treats the prefix as host; see staging.StartGroup).
func groupPrefix(opts Options) string {
	if opts.OverTCP {
		return "127.0.0.1:0"
	}
	return "wf"
}

// validateState compares every rank's final accumulator against the
// failure-free expectation (computable because the synthetic field is
// deterministic) and returns the number of divergent ranks. The
// individual scheme is exempt for consumers reading "latest": its state
// is expected to diverge — that is the paper's motivation.
func (r *run) validateState() int {
	mismatches := 0
	r.accMu.Lock()
	defer r.accMu.Unlock()
	for key, got := range r.finalAcc {
		comp, rank, dec, consumer := r.rankMeta(key)
		if comp == "" {
			continue
		}
		if consumer && r.opts.Scheme == ckpt.Individual {
			continue // expected to be wrong; CorruptReads counts it
		}
		box, err := dec.RankBox(rank)
		if err != nil {
			continue
		}
		var want rankState
		for ts := int64(1); ts <= r.opts.Steps; ts++ {
			want.fold(synth.Checksum(r.field.Fill(ts, box)))
		}
		if got != want.Acc {
			_ = comp
			mismatches++
		}
	}
	return mismatches
}

// rankMeta parses a "component/rank" accumulator key.
func (r *run) rankMeta(key string) (comp string, rank int, dec *domain.Decomposition, consumer bool) {
	i := strings.LastIndex(key, "/")
	if i < 0 {
		return "", 0, nil, false
	}
	comp = key[:i]
	fmt.Sscanf(key[i+1:], "%d", &rank)
	if comp == "sim" {
		return comp, rank, r.simDec, false
	}
	return comp, rank, r.anaDec, true
}

// saveState persists a rank checkpoint through the configured saver.
func (r *run) saveState(component string, rank int, st rankState) error {
	if r.ml != nil {
		_, err := r.ml.Save(component, rank, st)
		return err
	}
	return r.saver.Save(component, rank, st)
}

// loadState restores a rank checkpoint, tracking which level served it.
func (r *run) loadState(component string, rank int) (rankState, error) {
	var st rankState
	if r.ml != nil {
		level, err := r.ml.Load(component, rank, &st)
		if err != nil {
			return st, err
		}
		switch level {
		case 1:
			r.l1Loads.Add(1)
		case 2:
			r.l2Loads.Add(1)
		}
		return st, nil
	}
	_, err := r.saver.Load(component, rank, &st)
	return st, err
}

// recordAcc stores a rank's final accumulator.
func (r *run) recordAcc(comp string, rank int, acc uint64) {
	r.accMu.Lock()
	defer r.accMu.Unlock()
	r.finalAcc[fmt.Sprintf("%s/%d", comp, rank)] = acc
}

// execute wires up the recovery domains per scheme and waits for both
// components to finish all timesteps.
func (r *run) execute() error {
	simDec, err := domain.NewDecomposition(r.subset, []int{r.opts.SimRanks, 1, 1})
	if err != nil {
		return fmt.Errorf("workflow: simulation decomposition: %w", err)
	}
	anaDec, err := domain.NewDecomposition(r.subset, []int{r.opts.AnaRanks, 1, 1})
	if err != nil {
		return fmt.Errorf("workflow: analytic decomposition: %w", err)
	}
	r.simDec, r.anaDec = simDec, anaDec

	sim := &component{
		run: r, name: "sim", ranks: r.opts.SimRanks, dec: simDec,
		period: r.opts.SimPeriod, producer: true,
		logged: r.opts.Scheme.Logged(),
	}
	comps := []*component{sim}
	for i := 0; i < r.opts.Consumers; i++ {
		name := "ana"
		if r.opts.Consumers > 1 {
			name = fmt.Sprintf("ana%d", i)
		}
		replicated := r.opts.Scheme == ckpt.Hybrid
		if len(r.opts.ConsumerModes) > 0 {
			replicated = r.opts.ConsumerModes[i] == ModeReplicated
		}
		comps = append(comps, &component{
			run: r, name: name, ranks: r.opts.AnaRanks, dec: anaDec,
			period: r.opts.AnaPeriod, producer: false,
			logged:       r.opts.Scheme.Logged(),
			replicated:   replicated,
			readLatest:   r.opts.Scheme == ckpt.Individual,
			consumerBase: i * r.opts.AnaRanks,
		})
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(comps))
	switch r.opts.Scheme {
	case ckpt.Coordinated:
		// One recovery domain containing every component.
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := r.superviseCoordinated(comps)
			if err != nil {
				r.condemn()
			}
			errs <- err
		}()
	default:
		// Independent recovery domains.
		for _, c := range comps {
			c := c
			wg.Add(1)
			go func() {
				defer wg.Done()
				var err error
				if c.replicated {
					err = r.superviseReplicated(c)
				} else {
					err = r.superviseCR(c)
				}
				if err != nil {
					r.condemn()
				}
				errs <- err
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
