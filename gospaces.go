// Package gospaces is a staging-based in-situ workflow runtime with
// workflow-level crash consistency, reproducing "Scalable Crash
// Consistency for Staging-based In-situ Scientific Workflows"
// (Duan & Parashar, IPDPS 2020) in pure Go.
//
// The package provides:
//
//   - A DataSpaces-like staging service: groups of in-memory servers
//     jointly storing versioned array regions addressed by bounding
//     box, over in-process or TCP transports (StartStaging, Serve,
//     Connect).
//   - The paper's crash-consistency interface (its Table I):
//     Client.PutWithLog, Client.GetWithLog, Client.WorkflowCheck, and
//     Client.WorkflowRestart. Staging servers log data-access events in
//     per-component queues; after a failure, a component restarts from
//     its own checkpoint and the staging area replays its logged reads
//     and suppresses its duplicate writes, keeping the coupled workflow
//     consistent without coordinated global rollback.
//   - A workflow runtime (RunWorkflow) that executes a coupled
//     producer/consumer workflow on an MPI-like runtime under any of the
//     paper's four fault-tolerance schemes — Coordinated,
//     Uncoordinated, Individual, Hybrid — with live fail-stop injection
//     and recovery.
//   - The evaluation harness (RunScaleModel plus cmd/wfbench), which
//     regenerates every table and figure of the paper's evaluation.
//
// See the examples/ directory for runnable programs and DESIGN.md for
// the system inventory.
package gospaces

import (
	"fmt"
	"io"
	"time"

	"gospaces/internal/ckpt"
	"gospaces/internal/cluster"
	"gospaces/internal/domain"
	"gospaces/internal/expt"
	"gospaces/internal/health"
	"gospaces/internal/pfs"
	"gospaces/internal/qos"
	"gospaces/internal/staging"
	"gospaces/internal/synth"
	"gospaces/internal/tier"
	"gospaces/internal/trace"
	"gospaces/internal/transport"
	"gospaces/internal/workflow"
)

// ---------------------------------------------------------------------
// Geometry.

// BBox is a closed axis-aligned box on the global integer grid; every
// staged object and staging request carries one.
type BBox = domain.BBox

// Point is a grid coordinate.
type Point = domain.Point

// Decomposition partitions a global box across application ranks.
type Decomposition = domain.Decomposition

// Box3 builds a 3-D box literal [x0..x1]x[y0..y1]x[z0..z1].
func Box3(x0, y0, z0, x1, y1, z1 int64) BBox { return domain.Box3(x0, y0, z0, x1, y1, z1) }

// NewBBox constructs an n-dimensional box.
func NewBBox(n int, min, max []int64) (BBox, error) { return domain.NewBBox(n, min, max) }

// NewDecomposition partitions global over a process grid.
func NewDecomposition(global BBox, procs []int) (*Decomposition, error) {
	return domain.NewDecomposition(global, procs)
}

// Subset returns a box covering the given fraction of the domain (the
// paper's Case 1 access pattern).
func Subset(global BBox, frac float64) BBox { return domain.Subset(global, frac) }

// ---------------------------------------------------------------------
// Staging.

// StagingConfig describes a staging server group.
type StagingConfig = staging.Config

// Staging is a running in-process staging group.
type Staging = staging.Group

// Pool is a client-side view of a staging group.
type Pool = staging.Pool

// Client is one application rank's connection to the staging area. It
// carries both the original DataSpaces-style API (Put/Get) and the
// paper's crash-consistent API (PutWithLog/GetWithLog/WorkflowCheck/
// WorkflowRestart).
type Client = staging.Client

// StagingStats is the aggregated server-side accounting.
type StagingStats = staging.StatsResp

// NoVersion requests the latest staged version on Get.
const NoVersion = staging.NoVersion

// StartStaging launches an in-process staging group.
func StartStaging(cfg StagingConfig) (*Staging, error) {
	return staging.StartGroup(transport.NewInProc(), "gospaces", cfg)
}

// StagingServer is one TCP staging server (cmd/stagingd wraps this).
type StagingServer struct {
	ep   io.Closer
	srv  *staging.Server
	addr string
}

// Addr returns the server's bound address.
func (s *StagingServer) Addr() string { return s.addr }

// SetMembership installs the staging group's ordered address list (and
// its epoch) on this server. Log replication needs it: each server
// locates its own slot by address and ships mutations to its
// WlogReplicas membership successors. In-process groups (StartGroup /
// RunWorkflow) wire this automatically; TCP deployments call it once
// all group members are listening.
func (s *StagingServer) SetMembership(epoch uint64, addrs []string) {
	s.srv.SetMembership(epoch, addrs)
}

// Close stops the server.
func (s *StagingServer) Close() error {
	s.srv.StopReplication()
	return s.ep.Close()
}

// ServeOptions configures a TCP staging server, including the
// server-side fault injection stagingd exposes for resilience testing:
// handled requests are delayed with ChaosDelayProb and hang (long
// enough to trip client deadlines, i.e. a dropped response) with
// ChaosHangProb. Zero options serve faithfully.
type ServeOptions struct {
	ChaosSeed      int64
	ChaosDelayProb float64
	ChaosDelay     time.Duration
	ChaosHangProb  float64
	ChaosHang      time.Duration
	// Spare starts the server as a warm spare: it answers health pings
	// (reporting Spare=true) but waits outside the membership until a
	// recovery supervisor promotes it in place of a failed server.
	Spare bool
	// WlogReplicas ships every event-log mutation (and the staged
	// payloads riding it) to this many membership successors, so a
	// recovery supervisor can restore a fail-stopped server's log onto
	// a promoted spare. 0 disables log replication.
	WlogReplicas int
	// QoS enables the admission-control layer: per-tenant quotas,
	// priority-ordered load shedding with typed retry-after rejections,
	// and the foreground/recovery priority lanes. nil disables it.
	QoS *QoSConfig
	// TierDir, when non-empty, attaches a PFS cold tier backed by that
	// directory: logged versions colder than the newest demote to it at
	// the spill watermark (crash-atomically, in CRC'd twin-generation
	// records) instead of shedding the put, and replay reads promote
	// them back transparently.
	TierDir string
	// MemoryBudget caps the server's resident object bytes (0 =
	// unlimited). The cold tier needs a budget to have a watermark to
	// spill against.
	MemoryBudget int64
}

// Serve starts staging server id listening on addr (host:port; use
// ":0" for an ephemeral port).
func Serve(addr string, id int) (*StagingServer, error) {
	return ServeWithOptions(addr, id, ServeOptions{})
}

// ServeWithOptions starts staging server id with fault-injection
// options (see ServeOptions).
func ServeWithOptions(addr string, id int, opts ServeOptions) (*StagingServer, error) {
	var tr transport.Transport = transport.NewTCP()
	if opts.ChaosDelayProb > 0 || opts.ChaosHangProb > 0 {
		chaos := transport.NewChaos(tr, opts.ChaosSeed)
		chaos.SetServeFaults(opts.ChaosDelayProb, opts.ChaosDelay, opts.ChaosHangProb, opts.ChaosHang)
		tr = chaos
	}
	cfg := StagingConfig{
		MemoryBudgetPerServer: opts.MemoryBudget,
		WlogReplicas:          opts.WlogReplicas,
		QoS:                   opts.QoS,
	}
	if opts.TierDir != "" {
		be, err := pfs.NewDirStore(opts.TierDir)
		if err != nil {
			return nil, fmt.Errorf("gospaces: tier dir: %w", err)
		}
		cfg.TierBackend = func(int) tier.Backend { return be }
	}
	srv, closer, bound, err := staging.Serve(tr, addr, id, cfg, opts.Spare)
	if err != nil {
		return nil, fmt.Errorf("gospaces: serve: %w", err)
	}
	return &StagingServer{ep: closer, srv: srv, addr: bound}, nil
}

// RetryPolicy configures the RPC retry layer (exponential backoff with
// jitter and a retry budget).
type RetryPolicy = transport.RetryPolicy

// ErrDegraded reports a staging server that stayed unreachable past the
// retry policy; errors.Is(err, ErrDegraded) distinguishes transport
// degradation from protocol errors.
var ErrDegraded = staging.ErrDegraded

// DialOptions configures the resilient RPC layer between clients and
// TCP staging servers.
type DialOptions struct {
	// CallTimeout bounds each RPC (0 = no deadline).
	CallTimeout time.Duration
	// DialTimeout bounds connection establishment (0 = no deadline).
	DialTimeout time.Duration
	// Retry is the backoff policy for transient transport faults.
	Retry RetryPolicy
}

// DefaultDialOptions is the production default: 10s call deadline, 5s
// dial deadline, 4 attempts with 50ms..2s jittered backoff.
func DefaultDialOptions() DialOptions {
	return DialOptions{
		CallTimeout: 10 * time.Second,
		DialTimeout: 5 * time.Second,
		Retry:       transport.DefaultRetryPolicy(),
	}
}

// Connect builds a client pool for staging servers listening on the
// given TCP addresses (in server-id order), with the default resilient
// RPC layer: per-call deadlines, automatic re-dial of broken
// connections, and retries with exponential backoff.
func Connect(addrs []string, cfg StagingConfig) (*Pool, error) {
	return ConnectWithOptions(addrs, cfg, DefaultDialOptions())
}

// ConnectWithOptions is Connect with an explicit RPC policy.
func ConnectWithOptions(addrs []string, cfg StagingConfig, opts DialOptions) (*Pool, error) {
	tcp := transport.NewTCPTimeout(opts.CallTimeout, opts.DialTimeout)
	return staging.NewPool(transport.WithRetry(tcp, opts.Retry), addrs, cfg)
}

// ---------------------------------------------------------------------
// Workflow-level fault tolerance.

// Scheme selects the workflow-level fault-tolerance scheme.
type Scheme = ckpt.Scheme

// The paper's four schemes (§IV-A).
const (
	// Coordinated is global coordinated checkpoint/restart: the whole
	// workflow checkpoints together and rolls back together.
	Coordinated = ckpt.Coordinated
	// Uncoordinated checkpoints components independently, relying on
	// staging data logging for crash consistency.
	Uncoordinated = ckpt.Uncoordinated
	// Individual checkpoints components independently without data
	// logging: fastest, but does not guarantee correct results.
	Individual = ckpt.Individual
	// Hybrid mixes process replication (analytic) with C/R
	// (simulation), composed through data logging.
	Hybrid = ckpt.Hybrid
)

// WorkflowOptions configures a live workflow run.
type WorkflowOptions = workflow.Options

// WorkflowResult reports a live workflow run, including the end-to-end
// consistency verification counters.
type WorkflowResult = workflow.Result

// FailAt schedules a fail-stop injection into a live workflow run.
type FailAt = workflow.FailAt

// ServerFailAt schedules a permanent staging-server fail-stop into a
// live workflow run: the server's listener closes for good at the top
// of the producer's scheduled timestep, and the recovery supervisor
// promotes a warm spare in its place.
type ServerFailAt = workflow.ServerFailAt

// RunWorkflow executes a coupled producer/consumer workflow on live
// staging with the chosen scheme, injecting and recovering the
// scheduled failures. Every consumer read is verified against the
// deterministic synthetic field, so WorkflowResult.CorruptReads == 0
// demonstrates crash consistency end to end.
func RunWorkflow(opts WorkflowOptions) (WorkflowResult, error) {
	return workflow.Run(opts)
}

// ---------------------------------------------------------------------
// Recorded traces and churn soaks.

// TraceHeader describes one recorded workload trace: the environment
// it ran against (servers, spares, domain, budgets) and the digest its
// replay must reproduce.
type TraceHeader = trace.Header

// TraceEvent is one recorded workload-facing operation or injected
// fault, positioned on the trace's logical clock.
type TraceEvent = trace.Event

// WriteTraceFile atomically persists a recorded trace in the durable
// CRC-framed format (see DESIGN.md §10).
func WriteTraceFile(path string, h TraceHeader, events []TraceEvent) error {
	return trace.WriteFile(path, h, events)
}

// ReadTraceFile loads and verifies a recorded trace; torn, bit-rotted,
// reordered, or future-versioned files fail with typed errors.
func ReadTraceFile(path string) (TraceHeader, []TraceEvent, error) {
	return trace.ReadFile(path)
}

// SoakOptions configures one seeded churn soak (RunSoak).
type SoakOptions = workflow.SoakOptions

// SoakResult reports one executed soak trace.
type SoakResult = workflow.SoakResult

// RunSoak builds the deterministic trace for one seeded churn soak —
// a recorded multi-group workload interleaved with fail-stops,
// blackouts, tier faults, and tenant floods — and executes it against
// a live staging group. The returned trace replays the run exactly:
// persist it with WriteTraceFile when the run fails and the failure
// reproduces under ReplaySoakTrace.
func RunSoak(o SoakOptions) (TraceHeader, []TraceEvent, SoakResult, error) {
	return workflow.RunSoak(o)
}

// ReplaySoakTrace re-executes a recorded trace (a soak or a dump)
// against a freshly built staging group, faults included, and verifies
// every checked get byte-exactly against the recorded digests.
func ReplaySoakTrace(h TraceHeader, events []TraceEvent) (SoakResult, error) {
	return workflow.ReplayTrace(h, events)
}

// ---------------------------------------------------------------------
// Synthetic fields (workload generation and validation).

// Field generates deterministic synthetic array data, so producers and
// validators agree on every byte without communicating.
type Field = synth.Field

// NewField creates a field generator for (name, domain, element size).
func NewField(name string, global BBox, elemSize int) *Field {
	return synth.NewField(name, global, elemSize)
}

// ---------------------------------------------------------------------
// Probes (dsctl health, leader, qos, tier and scrub wrap these).

// Probed is one staging server's answer to a probe: the response as
// the server sent it, or why there is none. A probe never fails as a
// whole — a dead server is a row with Err set.
type Probed[R any] struct {
	// Addr is the probed address.
	Addr string
	// Err describes the probe failure (Resp is then zero).
	Err string
	// Resp is the server's response.
	Resp R
}

// Alive reports whether the server answered.
func (p Probed[R]) Alive() bool { return p.Err == "" }

// probe sends req to every address and expects an R back: one call
// each over a connection of its own, without the retry layer, so a dead
// server costs one dial timeout.
func probe[R any](addrs []string, opts DialOptions, req any) []Probed[R] {
	tr := transport.NewTCPTimeout(opts.CallTimeout, opts.DialTimeout)
	out := make([]Probed[R], len(addrs))
	for i, addr := range addrs {
		resp, err := transport.CallOnce[R](tr, addr, req)
		out[i] = Probed[R]{Addr: addr, Resp: resp}
		if err != nil {
			out[i].Err = err.Error()
		}
	}
	return out
}

// ServerHealth is one staging server's liveness: its ID, the
// membership View it holds (epoch, slot addresses, stranded slots) and
// whether it is a Spare waiting outside the membership.
type ServerHealth = Probed[health.PingResp]

// ProbeHealth pings each address once.
func ProbeHealth(addrs []string, opts DialOptions) []ServerHealth {
	return probe[health.PingResp](addrs, opts, health.PingReq{From: "dsctl"})
}

// LeaderView is one staging server's view of recovery leadership: the
// lease record it granted, its fencing high-water mark, and any
// journaled promotion intents (the dead-slot backlog a takeover would
// resume).
type LeaderView = Probed[staging.LeaderInfoResp]

// ProbeLeader asks each address for its recovery-leadership view —
// lease holder, fencing token, and journaled promotion backlog. dsctl
// leader wraps this.
func ProbeLeader(addrs []string, opts DialOptions) []LeaderView {
	return probe[staging.LeaderInfoResp](addrs, opts, staging.LeaderInfoReq{})
}

// ---------------------------------------------------------------------
// Admission control and QoS (dsctl qos wraps ProbeQoS).

// QoSConfig configures the staging admission-control layer: tenant
// quotas over staging memory and event-log bytes and the global
// high-water mark for priority-ordered load shedding. The retry-after
// hint's sizing and the foreground/recovery lanes are fixed (25 ms
// scale, 2 s cap; 16 concurrent requests, weighted 3:1). Enable it with
// StagingConfig.QoS (in-process groups) or ServeOptions.QoS (TCP
// servers).
type QoSConfig = qos.Config

// QoSQuota is one tenant's admission limits and shedding priority.
// Zero limits are unlimited; higher priority sheds later.
type QoSQuota = qos.Quota

// ErrOverloaded is the typed admission rejection: which tenant hit
// which resource, and when to come back. The retry layer honors
// RetryAfter automatically; OverloadedError extracts it from any
// error chain, local or behind a remote transport.
type ErrOverloaded = qos.ErrOverloaded

// Overloaded resources reported in ErrOverloaded.Resource.
const (
	// ResourceStaging is a tenant's staging-memory quota.
	ResourceStaging = qos.ResourceStaging
	// ResourceWlog is a tenant's event-log byte quota.
	ResourceWlog = qos.ResourceWlog
	// ResourceGlobal is the server-wide staging-RAM budget (priority-
	// ordered shedding above the high-water mark).
	ResourceGlobal = qos.ResourceGlobal
)

// OverloadedError extracts the typed overload rejection from err's
// chain; it crosses RPC transports as a typed cause, so the chain is
// the same in process and remote.
func OverloadedError(err error) (*ErrOverloaded, bool) { return qos.FromError(err) }

// QoSTenant is one tenant's admission accounting on one server.
type QoSTenant = staging.QosTenant

// QoSView is one staging server's admission-control accounting as seen
// by a probe: per-tenant usage against quota, admit/shed counters, lane
// queue depths, and the event-log replication backlog.
type QoSView = Probed[staging.QosStatsResp]

// ProbeQoS asks each address for its admission-control view. dsctl qos
// wraps this.
func ProbeQoS(addrs []string, opts DialOptions) []QoSView {
	return probe[staging.QosStatsResp](addrs, opts, staging.QosStatsReq{})
}

// ---------------------------------------------------------------------
// Cold tier (dsctl tier wraps ProbeTier).

// ErrTierDegraded reports a cold tier that has fallen back to RAM-only
// operation after a backend fault; errors.Is(err, ErrTierDegraded)
// distinguishes tier degradation from other staging errors. A
// successful scrub pass re-arms the tier.
var ErrTierDegraded error = tier.ErrTierDegraded

// TierView is one staging server's cold-tier accounting as seen by a
// probe: resident entries, spill/promote traffic, scrub results and
// degradation.
type TierView = Probed[staging.TierStatsResp]

// ProbeTier asks each address for its cold-tier view. dsctl tier wraps
// this.
func ProbeTier(addrs []string, opts DialOptions) []TierView {
	return probe[staging.TierStatsResp](addrs, opts, staging.TierStatsReq{})
}

// ScrubView is the result of one server's triggered scrub pass: the
// records CRC-verified, those re-replicated from their surviving twin
// generation, and those lost to double corruption (detected, dropped,
// counted — never silently returned); Degraded when the tier is still
// RAM-only after the pass.
type ScrubView = Probed[staging.TierScrubResp]

// ScrubTier triggers a CRC scrub pass over each server's spilled
// records: every record generation is re-read and CRC-verified, corrupt
// generations are re-replicated from their intact twins, and a degraded
// tier that passes its probe write is re-armed. dsctl scrub wraps this.
func ScrubTier(addrs []string, opts DialOptions) []ScrubView {
	return probe[staging.TierScrubResp](addrs, opts, staging.TierScrubReq{})
}

// ---------------------------------------------------------------------
// Evaluation harness.

// MachineModel holds the performance model of the host system.
type MachineModel = cluster.Machine

// WorkflowConfig is one experiment configuration (core counts, domain,
// checkpoint periods, failure characteristics).
type WorkflowConfig = cluster.Workflow

// Cori returns the default Cori-like machine model.
func Cori() MachineModel { return cluster.Cori() }

// TableII returns the paper's Table II configuration (352 cores).
func TableII() WorkflowConfig { return cluster.TableII() }

// TableIII returns the paper's Table III scalability configurations
// (704..11264 cores).
func TableIII() []WorkflowConfig { return cluster.TableIII() }

// ScaleModelParams configures a virtual-time run at paper scale.
type ScaleModelParams = expt.SimParams

// ScaleModelResult reports a virtual-time run.
type ScaleModelResult = expt.SimResult

// RunScaleModel executes the crash-consistency protocol on the
// virtual-time simulator at any Table II/III scale and returns the
// total workflow execution time (Figures 9(e) and 10).
func RunScaleModel(p ScaleModelParams) (ScaleModelResult, error) {
	return expt.RunSim(p)
}
