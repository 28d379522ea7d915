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
	"gospaces/internal/corec"
	"gospaces/internal/dht"
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

// Curve selects the space-filling curve of the staging index.
type Curve = dht.Curve

// Space-filling curves for StagingConfig.Curve.
const (
	// ZOrder is the Morton curve, DataSpaces' default.
	ZOrder = dht.CurveZ
	// Hilbert trades code computation for better query locality.
	Hilbert = dht.CurveHilbert
)

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

// ReduceOp selects a server-side (in-transit) aggregate for
// Client.Reduce: the staging servers reduce their local pieces and the
// client combines partials, so the field never leaves the staging area.
type ReduceOp = staging.ReduceOp

// In-transit reductions.
const (
	ReduceMin   = staging.ReduceMin
	ReduceMax   = staging.ReduceMax
	ReduceSum   = staging.ReduceSum
	ReduceCount = staging.ReduceCount
)

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
	// TierWatermark is the fraction of the memory budget above which
	// puts demote cold versions (<= 0: the QoS SpillWater when QoS is
	// on, else the package default).
	TierWatermark float64
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
	srv := staging.NewServer(id)
	srv.SetSpare(opts.Spare)
	if opts.QoS != nil {
		srv.EnableQoS(*opts.QoS)
	}
	if opts.MemoryBudget > 0 {
		srv.SetMemoryBudget(opts.MemoryBudget)
	}
	if opts.TierDir != "" {
		be, err := pfs.NewDirStore(opts.TierDir)
		if err != nil {
			return nil, fmt.Errorf("gospaces: tier dir: %w", err)
		}
		srv.EnableTier(be, opts.TierWatermark)
	}
	closer, err := tr.Listen(addr, srv.Handle)
	if err != nil {
		return nil, fmt.Errorf("gospaces: serve: %w", err)
	}
	bound := addr
	if a, ok := closer.(interface{ Addr() string }); ok {
		bound = a.Addr()
	}
	if opts.WlogReplicas > 0 {
		// The server finds its own membership slot by address, so it
		// must know the bound (not the requested ":0") address.
		srv.SetAddr(bound)
		srv.EnableReplication(tr, opts.WlogReplicas)
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

// Trace event kinds a client-driven replay acts on (fault kinds and
// EvNote records are observability-only outside the soak harness).
const (
	TraceEvPut        = trace.EvPut
	TraceEvGet        = trace.EvGet
	TraceEvCheckpoint = trace.EvCheckpoint
	TraceEvRestart    = trace.EvRestart
	TraceEvLock       = trace.EvLock
	TraceEvUnlock     = trace.EvUnlock
	TraceEvRLock      = trace.EvRLock
	TraceEvRUnlock    = trace.EvRUnlock
	TraceEvNote       = trace.EvNote
)

// TraceRecord is one entry of a staging server's in-memory
// observability ring (Client.TraceRecords).
type TraceRecord = trace.Record

// TraceEventFromRecord converts a ring-buffer record into a replayable
// trace event, for exporting a live group's recent activity as a trace
// file (dsctl trace dump).
func TraceEventFromRecord(r TraceRecord) TraceEvent {
	return trace.FromRecord(r)
}

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

// ReplaySoakTrace re-executes a recorded soak trace against a freshly
// built staging group and verifies every checked get byte-exactly
// against the recorded digests.
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
// Staging-data resilience (CoREC layer).

// RedundancyMode selects replication or erasure coding for staged data.
type RedundancyMode = corec.Mode

// Redundancy schemes for staged payloads.
const (
	Replication   = corec.Replication
	ErasureCoding = corec.ErasureCoding
)

// RedundancyConfig describes the redundancy geometry.
type RedundancyConfig = corec.Config

// Redundancy stores objects resiliently across the staging group, with
// degraded reads while servers are down and explicit rebuild.
type Redundancy = corec.Client

// NewRedundancy creates a resilience client over a staging client's
// server connections.
func NewRedundancy(cfg RedundancyConfig, c *Client) (*Redundancy, error) {
	conns := make([]transport.Client, c.NumServers())
	for i := range conns {
		conns[i] = c.ShardConn(i)
	}
	return corec.New(cfg, conns)
}

// ---------------------------------------------------------------------
// Health probing (dsctl health wraps this).

// ServerHealth is one staging server's liveness and recovery
// accounting as seen by a health probe.
type ServerHealth struct {
	// Addr is the probed address.
	Addr string
	// Alive is true when the server answered the ping.
	Alive bool
	// ID is the server's id within its group (valid when Alive).
	ID int
	// Epoch is the membership epoch the server holds (0 until the
	// first recovery pushes a view).
	Epoch uint64
	// Spare is true while the server waits outside the membership.
	Spare bool
	// ShardBytes, RebuiltShards, RebuiltBytes report the server's
	// resilience-shard footprint and how much of it was re-written by
	// recovery re-protection.
	ShardBytes    int64
	RebuiltShards int64
	RebuiltBytes  int64
	// Err describes the probe failure when Alive is false.
	Err string
}

// ProbeHealth pings each address and collects liveness, membership
// epoch, and recovery accounting. Dead servers are reported with
// Alive=false rather than failing the probe.
func ProbeHealth(addrs []string, opts DialOptions) []ServerHealth {
	tr := transport.NewTCPTimeout(opts.CallTimeout, opts.DialTimeout)
	out := make([]ServerHealth, len(addrs))
	for i, addr := range addrs {
		out[i] = probeOne(tr, addr)
	}
	return out
}

func probeOne(tr transport.Transport, addr string) ServerHealth {
	h := ServerHealth{Addr: addr}
	conn, err := tr.Dial(addr)
	if err != nil {
		h.Err = err.Error()
		return h
	}
	defer conn.Close()
	resp, err := conn.Call(health.PingReq{From: "dsctl"})
	if err != nil {
		h.Err = err.Error()
		return h
	}
	ping, ok := resp.(health.PingResp)
	if !ok {
		h.Err = fmt.Sprintf("unexpected ping response %T", resp)
		return h
	}
	h.Alive = true
	h.ID = ping.ID
	h.Epoch = ping.Epoch
	h.Spare = ping.Spare
	if sresp, err := conn.Call(staging.StatsReq{}); err == nil {
		if st, ok := sresp.(staging.StatsResp); ok {
			h.ShardBytes = st.ShardBytes
			h.RebuiltShards = st.RebuiltShards
			h.RebuiltBytes = st.RebuiltBytes
			if st.Epoch > h.Epoch {
				h.Epoch = st.Epoch
			}
		}
	}
	return h
}

// LeaderView is one staging server's view of recovery leadership: the
// lease record it granted, its fencing high-water mark, and any
// journaled promotion intents (the dead-slot backlog a takeover would
// resume).
type LeaderView struct {
	// Addr is the probed address.
	Addr string
	// Holder names the supervisor the server granted the lease to
	// (empty when no lease is held).
	Holder string
	// Token is the granted lease's fencing token.
	Token uint64
	// Fence is the highest token the server has seen: calls below it
	// are rejected.
	Fence uint64
	// ExpiresIn is the remaining lease time (negative when expired).
	ExpiresIn time.Duration
	// Intents are the promotions journaled on this server but not yet
	// completed.
	Intents []PromotionIntentInfo
	// Err describes the probe failure (the other fields are zero).
	Err string
}

// PromotionIntentInfo renders one journaled promotion intent.
type PromotionIntentInfo struct {
	Slot     int
	DeadAddr string
	Spare    string
	Token    uint64
}

// ProbeLeader asks each address for its recovery-leadership view —
// lease holder, fencing token, and journaled promotion backlog. Dead
// servers are reported with Err set rather than failing the probe.
// dsctl leader wraps this.
func ProbeLeader(addrs []string, opts DialOptions) []LeaderView {
	tr := transport.NewTCPTimeout(opts.CallTimeout, opts.DialTimeout)
	out := make([]LeaderView, len(addrs))
	for i, addr := range addrs {
		out[i] = leaderOne(tr, addr)
	}
	return out
}

func leaderOne(tr transport.Transport, addr string) LeaderView {
	v := LeaderView{Addr: addr}
	conn, err := tr.Dial(addr)
	if err != nil {
		v.Err = err.Error()
		return v
	}
	defer conn.Close()
	raw, err := conn.Call(staging.LeaderInfoReq{})
	if err != nil {
		v.Err = err.Error()
		return v
	}
	resp, ok := raw.(staging.LeaderInfoResp)
	if !ok {
		v.Err = fmt.Sprintf("unexpected leader-info response %T", raw)
		return v
	}
	v.Holder = resp.Holder
	v.Token = resp.Token
	v.Fence = resp.MaxFence
	v.ExpiresIn = resp.ExpiresIn
	for _, in := range resp.Intents {
		v.Intents = append(v.Intents, PromotionIntentInfo{
			Slot: in.Slot, DeadAddr: in.DeadAddr, Spare: in.Spare, Token: in.Token,
		})
	}
	return v
}

// ---------------------------------------------------------------------
// Admission control and QoS (dsctl qos wraps ProbeQoS).

// QoSConfig configures the staging admission-control layer: tenant
// quotas over staging memory and event-log bytes, the global
// high-water mark for priority-ordered load shedding, retry-after
// sizing, and the foreground/recovery lane weights. Enable it with
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
// by a probe.
type QoSView struct {
	// Addr is the probed address.
	Addr string
	// Alive is true when the server answered; Err holds the failure
	// otherwise.
	Alive bool
	// Enabled is true when the admission layer is on.
	Enabled bool
	// ID is the server's id within its group.
	ID int
	// Tenants is the per-tenant usage, quota, and admit/shed accounting.
	Tenants []QoSTenant
	// Admits and Sheds count admission decisions server-wide.
	Admits, Sheds int64
	// QueueForeground and QueueRecovery are the current lane queue
	// depths.
	QueueForeground, QueueRecovery int64
	// ReplLag is the event-log replication backlog (records a handler
	// waits for that are not yet shipped).
	ReplLag int64
	// Err describes the probe failure when Alive is false.
	Err string
}

// ProbeQoS asks each address for its admission-control view: tenant
// quota usage, admit/shed counters, lane queue depths, and replication
// lag. Dead servers are reported with Alive=false rather than failing
// the probe. dsctl qos wraps this.
func ProbeQoS(addrs []string, opts DialOptions) []QoSView {
	tr := transport.NewTCPTimeout(opts.CallTimeout, opts.DialTimeout)
	out := make([]QoSView, len(addrs))
	for i, addr := range addrs {
		out[i] = qosOne(tr, addr)
	}
	return out
}

func qosOne(tr transport.Transport, addr string) QoSView {
	v := QoSView{Addr: addr}
	conn, err := tr.Dial(addr)
	if err != nil {
		v.Err = err.Error()
		return v
	}
	defer conn.Close()
	raw, err := conn.Call(staging.QosStatsReq{})
	if err != nil {
		v.Err = err.Error()
		return v
	}
	resp, ok := raw.(staging.QosStatsResp)
	if !ok {
		v.Err = fmt.Sprintf("unexpected qos-stats response %T", raw)
		return v
	}
	v.Alive = true
	v.Enabled = resp.Enabled
	v.ID = resp.ID
	v.Tenants = resp.Tenants
	v.Admits = resp.Admits
	v.Sheds = resp.Sheds
	v.QueueForeground = resp.QueueForeground
	v.QueueRecovery = resp.QueueRecovery
	v.ReplLag = resp.ReplLag
	return v
}

// ---------------------------------------------------------------------
// Cold tier (dsctl tier wraps ProbeTier).

// ErrTierDegraded reports a cold tier that has fallen back to RAM-only
// operation after a backend fault; errors.Is(err, ErrTierDegraded)
// distinguishes tier degradation from other staging errors. A
// successful scrub pass re-arms the tier.
var ErrTierDegraded error = tier.ErrTierDegraded

// TierView is one staging server's cold-tier accounting as seen by a
// probe: spill/promote traffic, scrub results, degradation, and the
// incremental event-log replication counters (delta re-syncs served
// from the retained window vs full snapshot fallbacks).
type TierView struct {
	// Addr is the probed address.
	Addr string
	// Alive is true when the server answered; Err holds the failure
	// otherwise.
	Alive bool
	// Enabled is true when a cold tier is attached.
	Enabled bool
	// ID is the server's id within its group.
	ID int
	// Degraded is true while the tier runs RAM-only after a backend
	// fault (a scrub pass re-arms it).
	Degraded bool
	// Entries and Bytes are the spilled records resident in the tier.
	Entries int
	Bytes   int64
	// Spill/promote traffic (cumulative).
	Spills, SpillBytes, Promotes, PromoteBytes int64
	// Scrub accounting: records CRC-checked, healed from the twin
	// generation, and lost to double corruption; DegradedEvents counts
	// RAM-only fallbacks.
	ScrubChecked, ScrubHealed, ScrubLost, DegradedEvents int64
	// Incremental wlog replication: delta re-syncs served from the
	// retained window vs full snapshots, with shipped bytes for each.
	DeltaResyncs, DeltaBytes, SnapshotsSent, SnapshotBytes int64
	// Err describes the probe failure when Alive is false.
	Err string
}

// ProbeTier asks each address for its cold-tier view: spill/promote
// accounting, scrub results, degradation state, and incremental
// replication counters. Dead servers are reported with Alive=false
// rather than failing the probe. dsctl tier wraps this.
func ProbeTier(addrs []string, opts DialOptions) []TierView {
	tr := transport.NewTCPTimeout(opts.CallTimeout, opts.DialTimeout)
	out := make([]TierView, len(addrs))
	for i, addr := range addrs {
		out[i] = tierOne(tr, addr)
	}
	return out
}

func tierOne(tr transport.Transport, addr string) TierView {
	v := TierView{Addr: addr}
	conn, err := tr.Dial(addr)
	if err != nil {
		v.Err = err.Error()
		return v
	}
	defer conn.Close()
	raw, err := conn.Call(staging.TierStatsReq{})
	if err != nil {
		v.Err = err.Error()
		return v
	}
	resp, ok := raw.(staging.TierStatsResp)
	if !ok {
		v.Err = fmt.Sprintf("unexpected tier-stats response %T", raw)
		return v
	}
	v.Alive = true
	v.Enabled = resp.Enabled
	v.ID = resp.ID
	v.Degraded = resp.Degraded
	v.Entries = resp.Entries
	v.Bytes = resp.Bytes
	v.Spills = resp.Spills
	v.SpillBytes = resp.SpillBytes
	v.Promotes = resp.Promotes
	v.PromoteBytes = resp.PromoteBytes
	v.ScrubChecked = resp.ScrubChecked
	v.ScrubHealed = resp.ScrubHealed
	v.ScrubLost = resp.ScrubLost
	v.DegradedEvents = resp.DegradedEvents
	v.DeltaResyncs = resp.DeltaResyncs
	v.DeltaBytes = resp.DeltaBytes
	v.SnapshotsSent = resp.SnapshotsSent
	v.SnapshotBytes = resp.SnapshotBytes
	return v
}

// ScrubView is the result of one server's triggered scrub pass.
type ScrubView struct {
	// Addr is the probed address.
	Addr string
	// Alive is true when the server answered; Err holds the failure
	// otherwise.
	Alive bool
	// Enabled is true when a cold tier is attached.
	Enabled bool
	// ID is the server's id within its group.
	ID int
	// Checked, Healed, Lost count the records CRC-verified by this
	// pass, those re-replicated from their surviving twin generation,
	// and those lost to double corruption (detected, dropped, counted —
	// never silently returned).
	Checked, Healed, Lost int64
	// Degraded is true when the tier is still RAM-only after the pass
	// (the degradation probe write also failed).
	Degraded bool
	// Err describes the probe failure when Alive is false.
	Err string
}

// ScrubTier triggers a CRC scrub pass over each server's spilled
// records: every record generation is re-read and CRC-verified, corrupt
// generations are re-replicated from their intact twins, and a degraded
// tier that passes its probe write is re-armed. Dead servers are
// reported with Alive=false rather than failing the probe. dsctl scrub
// wraps this.
func ScrubTier(addrs []string, opts DialOptions) []ScrubView {
	tr := transport.NewTCPTimeout(opts.CallTimeout, opts.DialTimeout)
	out := make([]ScrubView, len(addrs))
	for i, addr := range addrs {
		out[i] = scrubOne(tr, addr)
	}
	return out
}

func scrubOne(tr transport.Transport, addr string) ScrubView {
	v := ScrubView{Addr: addr}
	conn, err := tr.Dial(addr)
	if err != nil {
		v.Err = err.Error()
		return v
	}
	defer conn.Close()
	raw, err := conn.Call(staging.TierScrubReq{})
	if err != nil {
		v.Err = err.Error()
		return v
	}
	resp, ok := raw.(staging.TierScrubResp)
	if !ok {
		v.Err = fmt.Sprintf("unexpected tier-scrub response %T", raw)
		return v
	}
	v.Alive = true
	v.Enabled = resp.Enabled
	v.ID = resp.ID
	v.Checked = resp.Checked
	v.Healed = resp.Healed
	v.Lost = resp.Lost
	v.Degraded = resp.Degraded
	return v
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
