package staging

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"gospaces/internal/domain"
	"gospaces/internal/health"
	"gospaces/internal/locks"
	"gospaces/internal/metrics"
	"gospaces/internal/qos"
	"gospaces/internal/sim"
	"gospaces/internal/store"
	"gospaces/internal/tier"
	"gospaces/internal/trace"
	"gospaces/internal/wlog"
)

// NoVersion marks a get request for the latest available version.
const NoVersion = wlog.NoVersion

// ErrOverBudget is returned when a put cannot fit in the server's
// memory budget even after garbage collection.
var ErrOverBudget = errors.New("staging: server memory budget exhausted")

// Server is one staging server: a shard of the staging area holding the
// object pieces whose cells the DHT assigns to it, plus that shard's
// event log.
type Server struct {
	id     int
	budget int64 // max resident object bytes; 0 = unlimited
	store  *store.Store
	log    *wlog.Log
	reg    *metrics.Registry

	locks *locks.Manager
	trace *trace.Buffer

	// memberMu guards the server's membership view (the zero View until
	// the first EpochSet; replaced, never written into, so a PingResp
	// may share it), the server's own bound address, and whether it is
	// still a spare outside the membership.
	memberMu sync.Mutex
	view     health.View
	addr     string
	spare    bool

	// lease is the server-side half of recovery-leader election: the
	// lease record, the fencing token, and the journaled promotion
	// intents (fence.go), timed on clk, the clock of Serve's transport.
	lease leaseState
	clk   sim.Clock

	// Log replication (repl.go). repl is the origin side (nil when
	// disabled); replicas holds the peer-slot replicas this server
	// hosts; replMu serializes logged-path log/store mutations with
	// record emission so the stream order equals the mutation order —
	// it is only taken when replication is enabled, keeping the
	// unreplicated path lock-free.
	repl     *replicator
	replicas *replicaSet
	replMu   sync.Mutex

	// QoS (nil when disabled, the default): qosCtl makes the per-tenant
	// admit/shed decision at put admission, qosSched is the weighted
	// two-lane concurrency gate at dispatch. Both are installed before
	// the server serves traffic (EnableQoS) and never change after.
	qosCtl   *qos.Controller
	qosSched *qos.Scheduler

	// Cold tier (nil when disabled): cold logged versions spill to a
	// PFS backend when resident bytes cross tierWater×budget and
	// promote back transparently on get (tier.go). tierMu serializes
	// spill/promote passes so concurrent puts don't double-demote.
	tier      *tier.Tier
	tierWater float64
	tierMu    sync.Mutex
	tierCtr   tierCounters
}

// NewServer creates staging server id.
func NewServer(id int) *Server {
	s := &Server{
		id:       id,
		store:    store.New(),
		log:      wlog.New(),
		reg:      metrics.NewRegistry(),
		locks:    locks.NewManager(),
		trace:    trace.New(512),
		replicas: newReplicaSet(),
		clk:      sim.Wall,
	}
	s.locks.OnRecord(s.lockRecord)
	return s
}

// ID returns the server's id within its group.
func (s *Server) ID() int { return s.id }

// SetMemoryBudget caps the server's resident object bytes (0 removes
// the cap).
func (s *Server) SetMemoryBudget(n int64) { s.budget = n }

// SetSpare marks the server as a spare waiting outside the membership
// (stagingd --spare). Promotion clears it via EpochSetReq.
func (s *Server) SetSpare(v bool) {
	s.memberMu.Lock()
	s.spare = v
	s.memberMu.Unlock()
}

// SetMembership installs a membership view with no stranded slot
// directly (the in-proc equivalent of an EpochSetReq push).
func (s *Server) SetMembership(epoch uint64, addrs []string) {
	s.setView(health.View{Epoch: epoch, Addrs: slices.Clone(addrs)})
}

// setView installs a pushed view; views older than the server's are
// ignored (one epoch names one view, stranded slots included). The
// server keeps v itself: a view is never written into.
func (s *Server) setView(v health.View) {
	s.memberMu.Lock()
	defer s.memberMu.Unlock()
	if v.Epoch >= s.view.Epoch {
		s.view, s.spare = v, false
	}
}

// ping is the server's health.PingResp: its id, the view it holds and
// whether it is still a spare.
func (s *Server) ping() health.PingResp {
	s.memberMu.Lock()
	defer s.memberMu.Unlock()
	return health.PingResp{ID: s.id, View: s.view, Spare: s.spare}
}

// Epoch returns the membership epoch the server currently holds.
func (s *Server) Epoch() uint64 { return s.ping().View.Epoch }

// EnableQoS installs the admission controller and lane scheduler.
// Call before the server serves traffic (like EnableReplication).
func (s *Server) EnableQoS(cfg qos.Config) {
	s.qosCtl = qos.NewController(cfg, s.reg)
	s.qosSched = qos.NewScheduler(cfg, s.reg)
}

// qosSignals samples the live pressure signals the admission
// controller folds into retry-after hints: the lane scheduler's queue
// depth and the wlog replication backlog.
func (s *Server) qosSignals() qos.Signals {
	var sig qos.Signals
	if s.qosSched != nil {
		sig.QueueDepth = s.qosSched.QueueDepth()
	}
	if s.repl != nil {
		sig.ReplLag = s.repl.lag()
	}
	return sig
}

// rebaseQoS re-derives the per-tenant accounting from the resident
// store contents — after bulk frees (GC) and after a wlog restore
// replaced the store wholesale (a promoted spare inheriting a dead
// server's state, and with it the dead server's quota usage).
func (s *Server) rebaseQoS() {
	if s.qosCtl == nil {
		return
	}
	objs := s.store.Export()
	items := make([]qos.UsageItem, len(objs))
	for i, o := range objs {
		items[i] = qos.UsageItem{Name: o.Name, Bytes: o.Bytes(), Logged: o.Logged}
	}
	s.qosCtl.Rebase(items)
}

// chargeQoS adjusts the per-tenant accounting after a store mutation.
func (s *Server) chargeQoS(name string, storeDelta, wlogDelta int64) {
	if s.qosCtl != nil {
		s.qosCtl.Charge(name, storeDelta, wlogDelta)
	}
}

// laneFor classifies a request for the two-lane scheduler.
// Control-plane traffic — health, leases, membership, stats — and wlog
// replication bypass the gate: replication must never queue behind data
// traffic (a gated put holds a slot while it flushes to its peer; if the
// peer's ReplApply needed a slot in turn, two mutually-replicating
// servers under symmetric overload would deadlock) and per the shedding
// policy is never shed. Recovery traffic — a restarted component's
// RecoveryReq, a promoted spare's wlog install, a tier scrub — rides the
// recovery lane; everything else is foreground.
func laneFor(req any) qos.Lane {
	switch req.(type) {
	case health.PingReq, LeaseCASReq, IntentPutReq, IntentClearReq,
		LeaderInfoReq, EpochSetReq, StatsReq, QosStatsReq,
		TierStatsReq, TraceReq, ReplApplyReq, ReplSnapshotReq, ReplFetchReq:
		return qos.LaneControl
	case RecoveryReq, WlogInstallReq, TierScrubReq:
		return qos.LaneRecovery
	default:
		return qos.LaneForeground
	}
}

// Handle serves one staging protocol request; it is the
// transport.Handler for this server and the front of its one request
// pipeline: open the envelopes, pass the weighted two-lane gate (with
// QoS enabled), dispatch. A stale or fenced request is refused before it
// takes a lane slot. Logged mutations then run through the replicate
// stage.
func (s *Server) Handle(req any) (any, error) {
	req, token, err := s.open(req)
	if err != nil {
		return nil, err
	}
	if s.qosSched != nil {
		lane := laneFor(req)
		if err := s.qosSched.Acquire(lane); err != nil {
			return nil, err
		}
		defer s.qosSched.Release(lane)
	}
	return s.dispatch(req, token)
}

// open unwraps req's envelopes, outermost first, and returns the request
// inside with the fencing token it came under (0: none). A membership-
// epoch envelope stamped with a stale view is refused, so the client
// re-binds instead of routing to dead slots; a recovery-leadership
// envelope from a deposed leader (token behind the fence) is refused,
// and any other raises the fence.
func (s *Server) open(req any) (any, uint64, error) {
	var token uint64
	for {
		switch r := req.(type) {
		case EpochReq:
			if epoch := s.Epoch(); r.Epoch < epoch {
				s.reg.Counter("stale_epoch_rejects").Inc()
				return nil, 0, &StaleEpochError{Client: r.Epoch, Server: epoch}
			}
			req = r.Req
		case FencedReq:
			if err := s.lease.admit(r.Token); err != nil {
				s.reg.Counter("fenced_rejects").Inc()
				return nil, 0, err
			}
			req, token = r.Req, r.Token
		default:
			return req, token, nil
		}
	}
}

// dispatch serves one unwrapped request; token is the fencing token it
// came under (a replica install it forwards carries it).
func (s *Server) dispatch(req any, token uint64) (any, error) {
	switch r := req.(type) {
	case health.PingReq:
		return s.ping(), nil
	case LeaseCASReq:
		return s.lease.cas(r, s.clk.Now()), nil
	case IntentPutReq:
		s.lease.putIntent(r.Intent)
		return IntentPutResp{}, nil
	case IntentClearReq:
		s.lease.clearIntent(r.Slot)
		return IntentClearResp{}, nil
	case LeaderInfoReq:
		return s.lease.info(s.clk.Now()), nil
	case EpochSetReq:
		s.setView(r.View)
		return s.ping(), nil
	case PutReq:
		return s.handlePut(r)
	case GetReq:
		return s.replicate(r.Logged, func() (any, int64, error) { return s.handleGet(r) })
	case CheckpointReq:
		return s.replicate(true, func() (any, int64, error) { return s.handleCheckpoint(r) })
	case RecoveryReq:
		return s.replicate(true, func() (any, int64, error) { return s.handleRecovery(r) })
	case QueryReq:
		return QueryResp{Versions: s.store.Versions(r.Name)}, nil
	case LockReq:
		return s.replicate(false, func() (any, int64, error) { return s.handleLock(r) })
	case ReplApplyReq:
		return s.handleReplApply(r)
	case ReplSnapshotReq:
		return s.handleReplSnapshot(r)
	case ReplFetchReq:
		return s.handleReplFetch(r, token)
	case WlogInstallReq:
		return s.handleWlogInstall(r)
	case TraceReq:
		return s.handleTrace(r)
	case StatsReq:
		return s.stats(), nil
	case QosStatsReq:
		return s.qosStats(), nil
	case TierStatsReq:
		return s.handleTierStats()
	case TierScrubReq:
		return s.handleTierScrub()
	default:
		return nil, fmt.Errorf("staging: server %d: unknown request type %T", s.id, req)
	}
}

// replicate is the pipeline's replicate stage: the one place a mutation
// of the replicated state joins the stream and is acknowledged only once
// shipped (DESIGN.md §6). apply runs the mutation and returns its answer
// and the stream position that waits for (0: none, and always with
// replication off). An ordered apply — a logged wlog mutation — runs
// under replMu, so the stream takes its records in mutation order; a
// lock operation is ordered by the lock table. Once replMu is released,
// the stage flushes, except for a put piece that asked to be Deferred
// while the held bytes fit the window: a later piece of its put flushes
// for it.
func (s *Server) replicate(ordered bool, apply func() (any, int64, error)) (any, error) {
	ordered = ordered && s.repl != nil
	if ordered {
		s.replMu.Lock()
	}
	resp, pos, err := apply()
	if ordered {
		s.replMu.Unlock()
	}
	if p, ok := resp.(PutResp); ok && p.Deferred {
		if p.Deferred = s.repl.hold(); p.Deferred {
			return p, nil
		}
		resp = p
	}
	if pos > 0 {
		s.repl.flush(pos)
	}
	if err != nil {
		return nil, err
	}
	return resp, nil
}

func (s *Server) handlePut(r PutReq) (any, error) {
	start := time.Now()
	defer func() {
		s.reg.Counter("put_nanos").Add(time.Since(start).Nanoseconds())
	}()
	s.reg.Counter("puts").Inc()
	if r.Piece.BBox.IsEmpty() {
		return nil, fmt.Errorf("staging: put %q with empty bbox", r.Name)
	}
	if want := domain.BufLen(r.Piece.BBox, r.ElemSize); len(r.Piece.Data) != want {
		return nil, fmt.Errorf("staging: put %q %v: payload %d bytes, want %d", r.Name, r.Piece.BBox, len(r.Piece.Data), want)
	}
	incoming := int64(len(r.Piece.Data))
	if s.budget > 0 && s.store.BytesUsed()+incoming > s.gcWater() {
		// Try to make room before shedding or rejecting.
		s.collectGarbage()
	}
	// Spill before shed: demote cold logged versions to the PFS tier
	// (when one is attached) so replay-only payloads never cause a
	// rejection of live traffic.
	s.maybeSpill(incoming)
	if s.qosCtl != nil {
		// Multi-tenant admission: per-tenant quotas first, then the
		// global ceiling shed in priority order. A rejection is typed
		// (qos.ErrOverloaded) and carries a retry-after hint the client's
		// retry policy honors.
		if rej := s.qosCtl.AdmitPut(r.Name, incoming, r.Logged, s.store.BytesUsed(), s.budget, s.qosSignals()); rej != nil {
			return nil, rej
		}
	} else if s.budget > 0 && s.store.BytesUsed()+incoming > s.budget {
		return nil, fmt.Errorf("%w: %d resident + %d incoming > %d",
			ErrOverBudget, s.store.BytesUsed(), len(r.Piece.Data), s.budget)
	}
	return s.replicate(r.Logged, func() (resp any, pos int64, err error) {
		if resp, err = s.applyPut(r); r.Logged {
			// The stream's position, not the piece's record: a retry the
			// wlog deduplicated waits for its first attempt's record too.
			pos = s.streamPos()
		}
		return resp, pos, err
	})
}

// applyPut performs the put's log and store mutations.
func (s *Server) applyPut(r PutReq) (any, error) {
	var resp PutResp
	if r.Logged {
		cursor := -1
		if s.repl != nil {
			cursor = s.log.ReplayCursor(r.App)
		}
		wasReplaying := cursor >= 0
		suppress, err := s.log.BeginPut(r.App, r.Name, r.Version, r.Piece.BBox)
		if err != nil {
			return nil, err
		}
		if wasReplaying && s.log.ReplayCursor(r.App) != cursor {
			// The replay cursor moved (or replay ended): advance the
			// replicas the same way. A retried piece the replay already
			// consumed moves nothing.
			s.emit(ReplRecord{Wlog: &wlog.Record{Op: wlog.OpAdvance, App: r.App}})
		}
		// A replaying app is never deferred: every cursor advance is
		// flushed by the piece that made it, as it always was.
		resp.Deferred = r.Defer && s.repl != nil && !wasReplaying
		if suppress {
			s.reg.Counter("suppressed_puts").Inc()
			s.trace.Add(trace.Record{Op: trace.OpSuppressedPut, App: r.App, Name: r.Name, Version: r.Version})
			resp.Suppressed = true
			return resp, nil
		}
	}
	// Ingest copy: the staging server owns its buffers (clients may
	// reuse theirs immediately, as with RDMA-registered memory).
	data := append([]byte(nil), r.Piece.Data...)
	obj := &store.Object{
		Name:     r.Name,
		Version:  r.Version,
		BBox:     r.Piece.BBox,
		ElemSize: r.ElemSize,
		Data:     data,
		Logged:   r.Logged,
	}
	if r.Logged {
		// Logged payloads may be re-served long after ingest (replay);
		// checksum them so the log cannot silently serve corrupt data.
		obj.CRC = store.Checksum(data)
	}
	delta, err := s.store.PutAccounted(obj)
	if err != nil {
		return nil, err
	}
	if r.Logged {
		s.chargeQoS(r.Name, delta, delta)
	} else {
		s.chargeQoS(r.Name, delta, 0)
	}
	if r.Logged {
		s.log.CommitPut(r.App, r.Name, r.Version, r.Piece.BBox, obj.Bytes())
		s.trace.Add(trace.Record{Op: trace.OpPut, App: r.App, Name: r.Name, Version: r.Version, Bytes: obj.Bytes()})
		s.emit(ReplRecord{Wlog: &wlog.Record{Op: wlog.OpPut, App: r.App}, Obj: obj})
	} else {
		// Original staging semantics: only the most recently put
		// version is kept. Using the put version (not the max) lets a
		// globally rolled-back workflow rewind the staged sequence.
		s.chargeQoS(r.Name, -s.store.KeepOnly(r.Name, r.Version), 0)
	}
	return resp, nil
}

// handleGet reads the version a get resolves to, with the stream
// position of the record it emitted (0: none).
func (s *Server) handleGet(r GetReq) (any, int64, error) {
	s.reg.Counter("gets").Inc()
	var seq int64
	version := r.Version
	fromLog, retried := false, false
	if r.Logged {
		var v int64
		if v, retried = s.log.RetriedGet(r.App, r.Seq, r.Name, r.Version, r.BBox); retried {
			// A get re-sent because its answer was lost — its first attempt
			// logged the app's last event, or replayed it as the window's
			// last — is served that event's version, and waits for the
			// attempt's record, as a deduplicated put piece does.
			version, seq = v, s.streamPos()
		}
	}
	if r.Logged && !retried {
		cursor := s.log.ReplayCursor(r.App)
		var err error
		version, fromLog, err = s.log.BeginNumberedGet(r.App, r.Seq, r.Name, r.Version, r.BBox)
		if err != nil {
			return nil, seq, err
		}
		if s.repl != nil && cursor >= 0 && s.log.ReplayCursor(r.App) != cursor {
			seq = s.emit(ReplRecord{Wlog: &wlog.Record{Op: wlog.OpAdvance, App: r.App, Req: r.Seq}})
		} else if fromLog {
			// As for a put: a repeat of the get the replay served last
			// moves nothing, and waits for that get's record.
			seq = s.streamPos()
		}
		if fromLog {
			s.reg.Counter("replay_gets").Inc()
			s.trace.Add(trace.Record{Op: trace.OpReplayGet, App: r.App, Name: r.Name, Version: version})
		}
	}
	if version == NoVersion {
		v, ok := s.store.LatestVersion(r.Name, -1)
		if !ok {
			return nil, seq, fmt.Errorf("staging: get %q: no versions staged", r.Name)
		}
		version = v
	}
	objs := s.store.GetVersion(r.Name, version, r.BBox)
	if len(objs) == 0 && s.promoteFromTier(r.Name, version) {
		// The version was spilled cold; it is resident again.
		objs = s.store.GetVersion(r.Name, version, r.BBox)
	}
	if len(objs) == 0 {
		return nil, seq, fmt.Errorf("staging: get %q v%d %v: not staged on server %d", r.Name, version, r.BBox, s.id)
	}
	resp := GetResp{Version: version, FromLog: fromLog, Pieces: make([]Piece, 0, len(objs))}
	var bytes int64
	for _, o := range objs {
		if fromLog && o.Logged {
			if err := o.Verify(); err != nil {
				return nil, seq, err
			}
		}
		resp.Pieces = append(resp.Pieces, Piece{BBox: o.BBox, Data: o.Data})
		bytes += o.Bytes()
	}
	if r.Logged && !fromLog && !retried {
		// The log takes the record it ships, which numbers the request.
		rec := wlog.Record{Op: wlog.OpGet, App: r.App, Name: r.Name, Version: version, BBox: r.BBox, Bytes: bytes, Req: r.Seq}
		if err := s.log.Apply(rec); err != nil {
			return nil, seq, err
		}
		s.trace.Add(trace.Record{Op: trace.OpGet, App: r.App, Name: r.Name, Version: version, Bytes: bytes})
		seq = s.emit(ReplRecord{Wlog: &rec})
	}
	return resp, seq, nil
}

func (s *Server) handleCheckpoint(r CheckpointReq) (any, int64, error) {
	chkID, _ := s.log.OnCheckpoint(r.App)
	s.trace.Add(trace.Record{Op: trace.OpCheckpoint, App: r.App, Detail: chkID})
	seq := s.emit(ReplRecord{Wlog: &wlog.Record{Op: wlog.OpCheckpoint, App: r.App}})
	freed := s.collectGarbage()
	if freed > 0 {
		s.trace.Add(trace.Record{Op: trace.OpGC, Bytes: freed})
	}
	return CheckpointResp{ChkID: chkID, FreedBytes: freed}, seq, nil
}

// gcWater is the resident-bytes level above which a put first runs GC:
// the full budget without QoS, the shedding high-water fraction with it
// (so reclaimable garbage is collected before the shed rule fires).
func (s *Server) gcWater() int64 {
	if s.qosCtl != nil {
		return int64(float64(s.budget) * s.qosCtl.Config().HighWater)
	}
	return s.budget
}

// collectGarbage deletes logged payload versions no component can
// re-read, always keeping the newest version of every object (paper
// §III-A2).
func (s *Server) collectGarbage() int64 {
	var freed int64
	for _, name := range s.store.Names() {
		frontier := s.log.PayloadFrontier(name)
		freed += s.store.DropBelow(name, frontier, true)
	}
	s.tierGC()
	s.reg.Counter("gc_freed_bytes").Add(freed)
	if freed > 0 {
		// Bulk frees move many tenants at once; re-derive the accounting
		// from ground truth instead of threading per-name deltas out.
		s.rebaseQoS()
	}
	return freed
}

func (s *Server) handleRecovery(r RecoveryReq) (any, int64, error) {
	script := s.log.OnRecoveryFrom(r.App, r.Covered)
	s.trace.Add(trace.Record{Op: trace.OpRecovery, App: r.App, Bytes: int64(len(script))})
	s.emit(ReplRecord{Wlog: &wlog.Record{Op: wlog.OpRecovery, App: r.App, Version: r.Covered}})
	// A failed component must not dam the workflow with locks it held
	// when it died, or with acquires it left queued; recovery drops them
	// (part of rebuilding the staging client, §III-C). The dedup row goes
	// with them: the recovered client restarts its sequence counter, and
	// a stale row could alias its first post-recovery lock operation.
	seq, _ := s.locks.Do(locks.Record{Holder: r.App, ReleaseAll: true}) // a ReleaseAll cannot fail
	return RecoveryResp{ReplayEvents: len(script)}, seq, nil
}

func (s *Server) handleTrace(r TraceReq) (any, error) {
	snap, total := s.trace.Dump()
	if r.Limit > 0 && len(snap) > r.Limit {
		snap = snap[len(snap)-r.Limit:]
	}
	return TraceResp{Raw: snap, Total: total}, nil
}

// handleLock runs a LockReq as the lock table's numbered operation —
// once per holder and sequence number, however often the request is
// retried — and acknowledges it once its record has shipped, so a
// promoted spare answers a retried lock RPC exactly like this server.
func (s *Server) handleLock(r LockReq) (any, int64, error) {
	seq, err := s.locks.Do(locks.Record{Name: r.Name, Holder: r.Holder, Write: r.Write, Release: r.Release, Seq: r.Seq})
	return LockResp{}, seq, err
}

// lockRecord is the lock table's report of an operation it completed,
// made under the table's mutex: the trace and the replication stream
// take the operations in the order the table ran them.
func (s *Server) lockRecord(r locks.Record) int64 {
	if !r.ReleaseAll {
		detail := "acquire"
		if r.Release {
			detail = "release"
		}
		detail += " " + r.Kind().String()
		if r.Fault != locks.NoFault {
			detail += " err"
		}
		s.trace.Add(trace.Record{Op: trace.OpLock, App: r.Holder, Name: r.Name, Detail: detail})
	}
	return s.emit(ReplRecord{Lock: &r})
}

// qosStats exports the server's admission-control state for dsctl qos.
func (s *Server) qosStats() QosStatsResp {
	if s.qosCtl == nil {
		return QosStatsResp{ID: s.id}
	}
	resp := QosStatsResp{
		Enabled:         true,
		ID:              s.id,
		Tenants:         s.qosCtl.Snapshot(),
		Admits:          s.reg.Counter("qos.admits").Value(),
		Sheds:           s.reg.Counter("qos.sheds").Value(),
		QueueForeground: s.reg.Gauge("qos.queue.foreground").Value(),
		QueueRecovery:   s.reg.Gauge("qos.queue.recovery").Value(),
	}
	if s.repl != nil {
		resp.ReplLag = s.repl.lag()
	}
	return resp
}

func (s *Server) stats() StatsResp {
	slots, repBytes, repRecords := s.replicas.stats()
	st := StatsResp{
		ReplicaSlots:   slots,
		ReplicaBytes:   repBytes,
		ReplicaRecords: repRecords,
		StoreBytes:     s.store.BytesUsed(),
		LogMetaBytes:   s.log.MetaBytes(),
		Objects:        s.store.Objects(),
		Puts:           s.reg.Counter("puts").Value(),
		Gets:           s.reg.Counter("gets").Value(),
		SuppressedPuts: s.reg.Counter("suppressed_puts").Value(),
		ReplayGets:     s.reg.Counter("replay_gets").Value(),
		GCFreedBytes:   s.reg.Counter("gc_freed_bytes").Value(),
		PutNanos:       s.reg.Counter("put_nanos").Value(),
		FencedRejects:  s.reg.Counter("fenced_rejects").Value(),
	}
	if r := s.repl; r != nil {
		st.ReplSeq, st.ReplBatches = r.position(), r.ctr.batchesShipped.Value()
		st.DeltaResyncs, st.DeltaBytes = r.ctr.deltaResyncs.Value(), r.ctr.deltaBytes.Value()
		st.SnapshotsSent, st.SnapshotBytes = r.ctr.snapshotsSent.Value(), r.ctr.snapshotBytes.Value()
	}
	return st
}
