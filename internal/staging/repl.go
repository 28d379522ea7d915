package staging

import (
	"fmt"
	"slices"
	"sync"

	"gospaces/internal/locks"
	"gospaces/internal/metrics"
	"gospaces/internal/store"
	"gospaces/internal/transport"
	"gospaces/internal/wlog"
)

// This file implements crash consistency for the recovery metadata
// itself: each staging server ships every mutation of its event log
// (and, on the lock server, of the lock tables) to K peer servers, so
// that when the server fail-stops, the recovery supervisor can restore
// its log state onto a promoted spare from the freshest replica and
// workflow_restart keeps working — the queues no longer die with the
// server. The stream is fenced by membership epochs: a replica holding
// a newer epoch rejects batches from an origin with a prior view.

// cursorUnknown is a peer's cursor before first contact and after a
// failed call: the origin cannot know what the peer holds until it has
// asked.
const cursorUnknown = -1

// peerConn is the origin's cursor into the retained log for one replica
// peer. The one shipper at a time owns it (peer hands it over under
// r.mu), and it outlives a failed call: what the origin sent a peer is
// remembered across faults.
type peerConn struct {
	history int   // replicator.history the cursor was taken in
	acked   int64 // the peer's position as it last reported it
	// sent is the highest position this origin sent the peer, by record
	// or by snapshot, answered or not. A peer reporting more holds records
	// of another incarnation of the slot: it is re-seeded, never passed
	// for in step.
	sent int64
}

// replWindowBytes is the default bound on the shipped history the log
// retains for re-sync (see replicator.log), and the bound on the bytes
// it may hold unshipped before a put's Defer is ignored.
const replWindowBytes = 4 << 20

// replCounters are the replicator's repl_* counters, resolved once in
// newReplicator so the ship path pays no registry lookup.
type replCounters struct {
	batchesShipped, peerErrors, anchorCompactions          *metrics.Counter
	deltaResyncs, deltaBytes, snapshotsSent, snapshotBytes *metrics.Counter
	deferredAcks, forcedFlushes                            *metrics.Counter
}

// replicator is the origin side of log replication for one server: one
// sequenced log of ReplRecords and, for each of the K membership
// successors of the server's slot, a cursor into it. Records are held
// unshipped at the log's tail until a handler asks in flush; the first
// to ask ships the whole tail on its own goroutine, one shipper at a
// time, and handlers block in flush until their records are shipped (or
// the peer failure is recorded), so an acknowledged client operation is
// on every reachable replica — the synchronous semantics a recovery
// metadata store needs. Only a piece of a rank put that a later piece
// flushes for is acked without (PutReq.Defer).
type replicator struct {
	srv   *Server
	tr    transport.Transport
	conns *transport.Peers // one kept client per replica peer
	k     int
	ctr   replCounters

	mu       sync.Mutex
	cond     *sync.Cond
	seq      int64 // last sequence number assigned
	shipped  int64 // last sequence number a shipper has dealt with
	want     int64 // highest sequence number a flusher has asked for
	shipping bool  // a flusher is in ship with r.mu released
	closed   bool

	// log holds the records (anchorSeq, seq], log[i].Seq == anchorSeq+1+i:
	// the unshipped tail (shipped, seq] and, behind it, the shipped
	// history a peer that fell behind is healed from. History beyond
	// maxWindow bytes is compacted away and the anchor advances; a peer
	// whose cursor the anchor has passed gets a snapshot, which always
	// reflects the latest state.
	log       []ReplRecord
	anchorSeq int64
	held      int64 // recBytes of the tail no shipper has taken yet
	retained  int64 // recBytes of the history (anchorSeq, shipped]
	maxWindow int64

	// base is where this history of the stream began (0, or the position
	// an install restored) and history counts the installs: a cursor
	// taken before one says nothing about the stream after it.
	base    int64
	history int
	peers   map[string]*peerConn
}

// recBytes estimates one record's shipped size for log accounting and
// the delta-vs-snapshot byte metrics.
func recBytes(rec ReplRecord) int64 {
	n := int64(96) // seq + op metadata framing
	if rec.Obj != nil {
		n += int64(len(rec.Obj.Data))
	}
	if rec.Wlog != nil {
		n += int64(len(rec.Wlog.App) + len(rec.Wlog.Name))
	}
	if rec.Lock != nil {
		n += int64(len(rec.Lock.Name) + len(rec.Lock.Holder) + 64)
	}
	return n
}

// stateBytes estimates a full snapshot's shipped size.
func stateBytes(st ReplState) int64 {
	n := int64(len(st.Wlog)) + 128
	for _, o := range st.Objects {
		n += int64(len(o.Data)+len(o.Name)) + 64
	}
	return n
}

func newReplicator(srv *Server, tr transport.Transport, k int) *replicator {
	r := &replicator{
		srv:       srv,
		tr:        tr,
		conns:     transport.NewPeers(tr),
		k:         k,
		peers:     make(map[string]*peerConn),
		maxWindow: replWindowBytes,
		ctr: replCounters{
			batchesShipped:    srv.reg.Counter("repl_batches_shipped"),
			peerErrors:        srv.reg.Counter("repl_peer_errors"),
			anchorCompactions: srv.reg.Counter("repl_anchor_compactions"),
			deltaResyncs:      srv.reg.Counter("repl_delta_resyncs"),
			deltaBytes:        srv.reg.Counter("repl_delta_bytes"),
			snapshotsSent:     srv.reg.Counter("repl_snapshots_sent"),
			snapshotBytes:     srv.reg.Counter("repl_snapshot_bytes"),
			deferredAcks:      srv.reg.Counter("repl_deferred_acks"),
			forcedFlushes:     srv.reg.Counter("repl_forced_flushes"),
		},
	}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// setWindow shrinks or grows the retained history to n > 0 bytes; the
// tests use it to push the anchor past a peer.
func (r *replicator) setWindow(n int64) {
	if n <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.maxWindow = n
	r.compactLocked()
}

// compactLocked drops the oldest shipped records until the history fits
// its byte bound, advancing the anchor. Caller holds r.mu.
func (r *replicator) compactLocked() {
	was := r.anchorSeq
	for r.retained > r.maxWindow && r.anchorSeq < r.shipped {
		r.retained -= recBytes(r.log[0])
		r.anchorSeq++
		r.log = r.log[1:]
	}
	if len(r.log) == 0 {
		r.log = nil
	}
	if r.anchorSeq > was {
		r.ctr.anchorCompactions.Inc()
	}
}

// since returns the records (after, upTo], or false when the log does
// not hold them: compaction has passed a peer at after, or after is a
// position the stream has not reached.
func (r *replicator) since(after, upTo int64) ([]ReplRecord, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if after < r.anchorSeq || after > upTo || upTo > r.seq {
		return nil, false
	}
	return r.log[after-r.anchorSeq : upTo-r.anchorSeq], true
}

// enqueue assigns the next sequence number to rec and appends it to the
// log. Nothing is shipped: the record is held until a flush asks for it
// or a later one.
func (r *replicator) enqueue(rec ReplRecord) int64 {
	r.mu.Lock()
	r.seq++
	rec.Seq = r.seq
	r.log = append(r.log, rec)
	r.held += recBytes(rec)
	r.mu.Unlock()
	return rec.Seq
}

// flush blocks until every record up to seq has been dealt with. The
// caller that finds them unshipped and nobody shipping takes the whole
// tail — one ReplApplyReq per peer in step — and ships it itself with
// r.mu released; the others wait for it, or for their turn. What was
// shipped stays in the log as history.
func (r *replicator) flush(seq int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.want = max(r.want, seq)
	for r.shipped < seq && !r.closed {
		if r.shipping || r.shipped >= r.seq {
			r.cond.Wait()
			continue
		}
		from, upTo, taken := r.shipped, r.seq, r.held
		r.held, r.shipping = 0, true
		r.mu.Unlock()

		r.ship(from, upTo)

		r.mu.Lock()
		r.shipping, r.shipped = false, upTo
		r.retained += taken
		r.compactLocked()
		r.cond.Broadcast()
	}
}

// hold reports whether a piece that asked to be deferred may be acked
// with its record unshipped: only while the held bytes are within the
// window bound, however many clients are mid-put.
func (r *replicator) hold() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.held > replWindowBytes {
		r.ctr.forcedFlushes.Inc()
		return false
	}
	r.ctr.deferredAcks.Inc()
	return true
}

// setState is called when a WlogInstall restores this server's state
// from a replica: the stream continues from the restored position, as
// a new history no cursor taken so far points into.
func (r *replicator) setState(seq int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq, r.shipped, r.want, r.anchorSeq, r.base = seq, seq, seq, seq, seq
	r.log, r.held, r.retained = nil, 0, 0
	r.history++
}

// position returns the last assigned sequence number.
func (r *replicator) position() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// lag returns the replication backlog: records a flusher is waiting
// for that no shipper has yet dealt with — one of the admission
// controller's retry-after pressure signals. Records held for a put in
// progress are not backlog: nobody waits for them yet.
func (r *replicator) lag() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return max(r.want-r.shipped, 0)
}

// close unblocks flushers and closes the peer clients; what is held is
// never shipped.
func (r *replicator) close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.cond.Broadcast()
	r.conns.Close()
}

// ship brings every current replica peer from its cursor to upTo; (from,
// upTo] is the tail flush took. One loop per peer: an unknown cursor
// asks (a record-less request the peer answers with its position); a
// cursor inside the log is sent exactly the records (acked, upTo] — the
// new ones for a peer in step, its own suffix for one that fell behind;
// a cursor the log no longer reaches, a position this origin never put
// the peer at, or a second gap in a row is re-seeded with a snapshot.
// Every record reaches every peer once. A failed call forgets the
// peer's cursor (the next ship asks) and is counted, but does not fail
// the origin's operation: replica count degrades until the membership
// heals.
func (r *replicator) ship(from, upTo int64) {
	epoch, slot, targets := r.srv.replicaTargets(r.k)
	if slot < 0 || len(targets) == 0 {
		return
	}
	for _, addr := range targets {
		p := r.peer(addr)
		var err error
		for gaps := 0; err == nil && (p.acked < upTo || p.acked > p.sent); {
			recs, inLog := r.since(p.acked, upTo)
			if p.acked != cursorUnknown && (!inLog || p.acked > p.sent || gaps > 1) {
				err = r.sendSnapshot(addr, p, epoch, slot)
				continue
			}
			if len(recs) > 0 {
				p.sent = max(p.sent, upTo) // before the call: its answer may be lost
			}
			var resp ReplApplyResp
			resp, err = transport.As[ReplApplyResp](r.conns.Call(addr, ReplApplyReq{Epoch: epoch, Slot: slot, Records: recs}))
			if err != nil {
				break
			}
			if resp.NeedSnapshot {
				gaps++
			} else if len(recs) > 0 && p.acked < from {
				var missed int64
				for _, rec := range recs[:from-p.acked] {
					missed += recBytes(rec)
				}
				r.ctr.deltaResyncs.Inc()
				r.ctr.deltaBytes.Add(missed)
			}
			p.acked = resp.Seq
		}
		if err != nil {
			p.acked = cursorUnknown
			r.ctr.peerErrors.Inc()
		}
	}
	r.ctr.batchesShipped.Inc()
}

// sendSnapshot re-seeds one peer with the server's full state, always
// built from the latest (the freshest anchor): the cursor lands at or
// beyond whatever ship was asked to reach.
func (r *replicator) sendSnapshot(addr string, p *peerConn, epoch uint64, slot int) error {
	state, err := r.srv.buildReplState()
	if err != nil {
		return err
	}
	p.sent = max(p.sent, state.Seq)
	resp, err := transport.As[ReplSnapshotResp](r.conns.Call(addr, ReplSnapshotReq{Epoch: epoch, Slot: slot, State: state}))
	if err != nil {
		return err
	}
	p.acked = resp.Seq
	r.ctr.snapshotsSent.Inc()
	r.ctr.snapshotBytes.Add(stateBytes(state))
	return nil
}

// peer returns addr's cursor, unknown for a peer not seen in this
// history of the stream: the origin cannot know what the peer holds, so
// ship asks before it sends.
func (r *replicator) peer(addr string) *peerConn {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.peers[addr]
	if !ok {
		p = &peerConn{history: -1}
		r.peers[addr] = p
	}
	if p.history != r.history {
		p.history, p.acked, p.sent = r.history, cursorUnknown, r.base
	}
	return p
}

// slotReplica is one hosted replica of a peer server's state. Its lock
// table is the origin's state machine, fed the origin's records.
type slotReplica struct {
	mu    sync.Mutex
	epoch uint64
	seq   int64
	log   *wlog.Log
	store *store.Store
	locks *locks.Manager
	// applied counts records folded in, for accounting.
	applied int64
}

// replicaSet is the receiver side: the replicas this server hosts for
// peer slots.
type replicaSet struct {
	mu    sync.Mutex
	slots map[int]*slotReplica
}

func newReplicaSet() *replicaSet {
	return &replicaSet{slots: make(map[int]*slotReplica)}
}

func (rs *replicaSet) slot(id int) *slotReplica {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rep, ok := rs.slots[id]
	if !ok {
		rep = &slotReplica{log: wlog.New(), store: store.New(), locks: locks.NewManager()}
		rs.slots[id] = rep
	}
	return rep
}

// stats returns (slots hosted, replica store bytes, records applied).
func (rs *replicaSet) stats() (int, int64, int64) {
	rs.mu.Lock()
	slots := make([]*slotReplica, 0, len(rs.slots))
	for _, rep := range rs.slots {
		slots = append(slots, rep)
	}
	rs.mu.Unlock()
	var bytes, applied int64
	for _, rep := range slots {
		rep.mu.Lock()
		bytes += rep.store.BytesUsed()
		applied += rep.applied
		rep.mu.Unlock()
	}
	return len(slots), bytes, applied
}

// applyRecord folds one stream record into the replica. A put record's
// object names what was put: the replica keeps a checked copy of it
// (keepObject), refusing a put record without one, and logs the put
// from it. Caller holds rep.mu.
func (rep *slotReplica) applyRecord(rec ReplRecord) error {
	if rec.Wlog != nil {
		w := *rec.Wlog
		if w.Op == wlog.OpPut {
			obj, err := keepObject(rec.Obj)
			if err != nil {
				return err
			}
			if err := rep.store.Put(obj); err != nil {
				return err
			}
			w.Name, w.Version, w.BBox, w.Bytes = obj.Name, obj.Version, obj.BBox, obj.Bytes()
		}
		if err := rep.log.Apply(w); err != nil {
			return err
		}
		if rec.Wlog.Op == wlog.OpCheckpoint {
			// Mirror the origin's end-of-cycle GC so the replica's
			// payload footprint stays bounded by the same frontier.
			for _, name := range rep.store.Names() {
				rep.store.DropBelow(name, rep.log.PayloadFrontier(name), true)
			}
		}
	}
	if rec.Lock != nil {
		rep.locks.Apply(*rec.Lock)
	}
	rep.applied++
	return nil
}

// install replaces the replica's state with a full snapshot, or leaves
// it as it was.
func (rep *slotReplica) install(epoch uint64, st ReplState) error {
	log, str := wlog.New(), store.New()
	if err := installState(st, log, str); err != nil {
		return err
	}
	rep.log, rep.store, rep.seq = log, str, st.Seq
	rep.locks.Import(st.Locks, nil)
	rep.epoch = max(rep.epoch, epoch)
	return nil
}

// exportState renders replicated state — a server's own or the replica
// it hosts of a peer's — as a ReplState at stream position seq. Its
// objects are the store's own logged ones.
func exportState(seq int64, log *wlog.Log, str *store.Store, lockTable locks.State) (ReplState, error) {
	wl, err := log.Snapshot()
	if err != nil {
		return ReplState{}, err
	}
	objs := slices.DeleteFunc(str.Export(), func(o *store.Object) bool { return !o.Logged })
	return ReplState{Seq: seq, Wlog: wl, Objects: objs, Locks: lockTable}, nil
}

// installState is exportState's inverse: log and str take on the
// snapshot's event log and a checked copy of each of its objects
// (keepObject), so a torn snapshot is refused, not installed to be
// served.
func installState(st ReplState, log *wlog.Log, str *store.Store) error {
	objs := make([]*store.Object, len(st.Objects))
	for i, o := range st.Objects {
		var err error
		if objs[i], err = keepObject(o); err != nil {
			return err
		}
	}
	if err := log.Restore(st.Wlog); err != nil {
		return err
	}
	return str.Import(objs)
}

// keepObject is how a server keeps a logged object it received — a
// stream record's, a hosted replica's snapshot's or a promoted spare's
// install's: as a copy with a copy of its payload (the request's bytes
// are the transport's, and in process the object is the sender's), and
// only when it is logged and the copy matches its CRC.
func keepObject(o *store.Object) (*store.Object, error) {
	if o == nil || !o.Logged {
		return nil, fmt.Errorf("staging: a replicated object must be a logged one")
	}
	kept := *o
	kept.Data = append([]byte(nil), o.Data...)
	if err := kept.Verify(); err != nil {
		return nil, err
	}
	return &kept, nil
}

// --- Server-side wiring ---

// EnableReplication turns on log replication to k membership
// successors, shipped over tr. addr is the server's own bound address:
// the replicator locates the server's slot in the membership view by
// it. Call before serving traffic.
func (s *Server) EnableReplication(tr transport.Transport, addr string, k int) {
	if k <= 0 {
		return
	}
	s.memberMu.Lock()
	s.addr = addr
	s.memberMu.Unlock()
	s.repl = newReplicator(s, tr, k)
}

// StopReplication stops the replication stream (server shutdown).
func (s *Server) StopReplication() {
	if s.repl != nil {
		s.repl.close()
	}
}

// replicaTargets resolves the current epoch, the server's slot in the
// membership, and the addresses of its k successors (its replica
// peers). Slot -1 means the server is not (yet) a member — a spare —
// and has nowhere to replicate to.
func (s *Server) replicaTargets(k int) (epoch uint64, slot int, targets []string) {
	s.memberMu.Lock()
	epoch, addrs, self := s.view.Epoch, s.view.Addrs, s.addr
	s.memberMu.Unlock()
	slot = -1
	for i, a := range addrs {
		if a == self && self != "" {
			slot = i
			break
		}
	}
	if slot < 0 {
		return epoch, -1, nil
	}
	for i := 1; i <= k && i < len(addrs); i++ {
		targets = append(targets, addrs[(slot+i)%len(addrs)])
	}
	return epoch, slot, targets
}

// emit queues one replication record (no-op when replication is off)
// and returns its sequence number (0 when off).
func (s *Server) emit(rec ReplRecord) int64 {
	if s.repl == nil {
		return 0
	}
	return s.repl.enqueue(rec)
}

// streamPos is the replication stream's position (0 when off).
func (s *Server) streamPos() int64 {
	if s.repl == nil {
		return 0
	}
	return s.repl.position()
}

// buildReplState snapshots the server's own replicated state at the
// current stream position. It takes replMu (quiescing log/store
// mutations), then the lock table's mutex (quiescing lock operations,
// which report under it), then the replicator mutex (the sequence
// number) — the order every path takes them in.
func (s *Server) buildReplState() (ReplState, error) {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	var seq int64
	lockTable := s.locks.Export(func() {
		if s.repl != nil {
			seq = s.repl.position()
		}
	})
	return exportState(seq, s.log, s.store, lockTable)
}

// replicaFor is the two-level epoch fence of the replication stream: it
// returns the hosted replica of slot, locked, unless this server's
// membership epoch or the replica's own is newer than the sender's —
// an origin from a prior view must not touch a replica.
func (s *Server) replicaFor(epoch uint64, slot int) (*slotReplica, error) {
	held := s.Epoch()
	if epoch >= held {
		rep := s.replicas.slot(slot)
		rep.mu.Lock()
		if held = rep.epoch; epoch >= held {
			return rep, nil
		}
		rep.mu.Unlock()
	}
	return nil, &StaleEpochError{Client: epoch, Server: held}
}

func (s *Server) handleReplApply(r ReplApplyReq) (any, error) {
	rep, err := s.replicaFor(r.Epoch, r.Slot)
	if err != nil {
		return nil, err
	}
	defer rep.mu.Unlock()
	rep.epoch = r.Epoch
	for _, rec := range r.Records {
		if rec.Seq <= rep.seq {
			continue // duplicate after a snapshot re-sync
		}
		if rec.Seq != rep.seq+1 {
			return ReplApplyResp{NeedSnapshot: true, Seq: rep.seq}, nil
		}
		if err := rep.applyRecord(rec); err != nil {
			return nil, fmt.Errorf("staging: replica slot %d apply seq %d: %w", r.Slot, rec.Seq, err)
		}
		rep.seq = rec.Seq
	}
	return ReplApplyResp{Seq: rep.seq}, nil
}

func (s *Server) handleReplSnapshot(r ReplSnapshotReq) (any, error) {
	rep, err := s.replicaFor(r.Epoch, r.Slot)
	if err != nil {
		return nil, err
	}
	defer rep.mu.Unlock()
	if err := rep.install(r.Epoch, r.State); err != nil {
		return nil, fmt.Errorf("staging: replica slot %d install: %w", r.Slot, err)
	}
	return ReplSnapshotResp{Seq: rep.seq}, nil
}

// handleReplFetch answers a position query or, with InstallOn and the
// fencing token the request came under, installs the hosted replica on
// the spare itself: exported under rep.mu, shipped without it.
func (s *Server) handleReplFetch(r ReplFetchReq, token uint64) (any, error) {
	if r.InstallOn != "" && (token == 0 || s.repl == nil) {
		return nil, fmt.Errorf("staging: server %d installs replica slot %d only fenced, with replication on", s.id, r.Slot)
	}
	s.replicas.mu.Lock()
	rep, ok := s.replicas.slots[r.Slot]
	s.replicas.mu.Unlock()
	if !ok {
		return ReplFetchResp{}, nil
	}
	rep.mu.Lock()
	resp := ReplFetchResp{Found: true, Epoch: rep.epoch, Seq: rep.seq}
	if r.InstallOn == "" {
		rep.mu.Unlock()
		return resp, nil
	}
	st, err := exportState(rep.seq, rep.log, rep.store, rep.locks.Export(nil))
	rep.mu.Unlock()
	if err == nil {
		install := FencedReq{Token: token, Req: WlogInstallReq{Slot: r.Slot, State: st}}
		_, err = transport.CallOnce[WlogInstallResp](s.repl.tr, r.InstallOn, install)
	}
	if err != nil {
		return nil, fmt.Errorf("staging: install replica slot %d on %s: %w", r.Slot, r.InstallOn, err)
	}
	resp.Bytes = int64(len(st.Wlog))
	for _, o := range st.Objects {
		resp.Bytes += int64(len(o.Data))
	}
	return resp, nil
}

// handleWlogInstall restores a replicated state snapshot onto this
// server itself: the promoted spare adopts the dead server's event
// log, logged payloads, lock table and dedup outcomes, and continues
// the replication stream from the restored position.
func (s *Server) handleWlogInstall(r WlogInstallReq) (any, error) {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	if err := installState(r.State, s.log, s.store); err != nil {
		return nil, fmt.Errorf("staging: install slot %d: %w", r.Slot, err)
	}
	s.locks.Import(r.State.Locks, func() {
		if s.repl != nil {
			s.repl.setState(r.State.Seq)
		}
	})
	if s.tier != nil {
		// The installed snapshot holds every live logged payload; the
		// local tier described the spare's pre-promotion state and is
		// now stale. Drop it — versions spill again under pressure.
		s.tier.Reset()
	}
	// The store was just replaced wholesale with the dead server's
	// content; a promoted spare inherits the per-tenant quota usage that
	// content implies, so admission resumes where the dead server left
	// off instead of resetting (a reset invites a post-recovery put
	// stampede straight past the quotas).
	s.rebaseQoS()
	return WlogInstallResp{Records: r.State.Seq}, nil
}
