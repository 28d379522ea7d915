package staging

import (
	"fmt"
	"sort"
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

// lockMirror is the deterministic lock-server state machine driven by
// LockRecords. The origin updates its mirror at record-emission time
// (under the replicator mutex, atomically with sequence assignment),
// and replicas apply the same records in sequence order, so mirror
// state at an equal sequence number is identical on both ends — which
// is what makes mid-stream snapshots consistent without quiescing the
// (blocking) lock manager itself.
type lockMirror struct {
	writers map[string]string         // name -> writer
	readers map[string]map[string]int // name -> holder -> recursion count
	dedup   map[string]LockRecord     // holder -> latest deduplicated op
}

func newLockMirror() *lockMirror {
	return &lockMirror{
		writers: make(map[string]string),
		readers: make(map[string]map[string]int),
		dedup:   make(map[string]LockRecord),
	}
}

// apply folds one lock record into the mirror. Transitions are guarded
// so that cross-holder records that completed concurrently on the
// origin (and may be sequenced either way) still converge.
func (m *lockMirror) apply(r *LockRecord) {
	if r.ReleaseAll {
		for name, w := range m.writers {
			if w == r.Holder {
				delete(m.writers, name)
			}
		}
		for _, hs := range m.readers {
			delete(hs, r.Holder)
		}
		delete(m.dedup, r.Holder)
		return
	}
	m.dedup[r.Holder] = *r
	if !r.Ok {
		return
	}
	switch {
	case r.Write && !r.Release:
		m.writers[r.Name] = r.Holder
	case r.Write && r.Release:
		if m.writers[r.Name] == r.Holder {
			delete(m.writers, r.Name)
		}
	case !r.Write && !r.Release:
		hs, ok := m.readers[r.Name]
		if !ok {
			hs = make(map[string]int)
			m.readers[r.Name] = hs
		}
		hs[r.Holder]++
	default: // read release
		if hs, ok := m.readers[r.Name]; ok && hs[r.Holder] > 0 {
			hs[r.Holder]--
			if hs[r.Holder] == 0 {
				delete(hs, r.Holder)
			}
		}
	}
}

// export renders the mirror in deterministic order.
func (m *lockMirror) export() LockMirrorState {
	st := LockMirrorState{}
	names := map[string]bool{}
	for n := range m.writers {
		names[n] = true
	}
	for n, hs := range m.readers {
		if len(hs) > 0 {
			names[n] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		h := locks.HeldLock{Name: n, Writer: m.writers[n]}
		holders := make([]string, 0, len(m.readers[n]))
		for r := range m.readers[n] {
			holders = append(holders, r)
		}
		sort.Strings(holders)
		for _, r := range holders {
			h.Readers = append(h.Readers, locks.ReaderCount{Holder: r, Count: m.readers[n][r]})
		}
		st.Held = append(st.Held, h)
	}
	holders := make([]string, 0, len(m.dedup))
	for h := range m.dedup {
		holders = append(holders, h)
	}
	sort.Strings(holders)
	for _, h := range holders {
		st.Dedup = append(st.Dedup, m.dedup[h])
	}
	return st
}

// importState replaces the mirror with st.
func (m *lockMirror) importState(st LockMirrorState) {
	m.writers = make(map[string]string)
	m.readers = make(map[string]map[string]int)
	m.dedup = make(map[string]LockRecord)
	for _, h := range st.Held {
		if h.Writer != "" {
			m.writers[h.Name] = h.Writer
		}
		for _, r := range h.Readers {
			if r.Count > 0 {
				hs, ok := m.readers[h.Name]
				if !ok {
					hs = make(map[string]int)
					m.readers[h.Name] = hs
				}
				hs[r.Holder] = r.Count
			}
		}
	}
	for _, o := range st.Dedup {
		m.dedup[o.Holder] = o
	}
}

// peerConn is the origin's cached link to one replica peer.
type peerConn struct {
	conn transport.Client
	// needSnap is set on a fresh dial and after any failed call to this
	// peer: the next ship first probes the peer's stream position and
	// re-syncs it — with a delta from the retained window when the peer
	// is within it, else with a full snapshot (the freshest anchor).
	needSnap bool
}

// replWindowBytes is the default retained-window size for delta
// re-sync (see replicator.window), and the bound on the bytes the
// queue may hold unshipped before a put's Defer is ignored.
const replWindowBytes = 4 << 20

// replCounters are the replicator's repl_* counters, resolved once in
// newReplicator so the ship path pays no registry lookup.
type replCounters struct {
	recordsShipped, batchesShipped, peerErrors, anchorCompactions *metrics.Counter
	deltaResyncs, deltaBytes, snapshotsSent, snapshotBytes        *metrics.Counter
	deferredAcks, forcedFlushes                                   *metrics.Counter
}

// replicator is the origin side of log replication for one server: a
// sequenced queue of ReplRecords shipped, in order, to the K membership
// successors of the server's slot. Records are held in the queue until a
// handler asks in flush; the first to ask ships all of it as one batch
// on its own goroutine, one shipper at a time, and handlers block in
// flush until their records are shipped (or the peer failure is
// recorded), so an acknowledged client operation is on every reachable
// replica — the synchronous semantics a recovery metadata store needs.
// Only a piece of a rank put that a later piece flushes for is acked
// without (PutReq.Defer).
type replicator struct {
	srv *Server
	tr  transport.Transport
	k   int
	ctr replCounters

	mu       sync.Mutex
	cond     *sync.Cond
	seq      int64 // last sequence number assigned
	shipped  int64 // last sequence number a shipper has dealt with
	want     int64 // highest sequence number a flusher has asked for
	queue    []ReplRecord
	held     int64 // recBytes of queue
	shipping bool  // a flusher is in ship with r.mu released
	mirror   *lockMirror
	closed   bool

	// Incremental re-sync state: window retains the most recently
	// shipped records, covering (anchorSeq, shipped]. A peer that fell
	// behind but is still within the window is healed by re-shipping
	// only the records it misses (a delta); a peer behind anchorSeq
	// gets a full snapshot — the freshest anchor. When window bytes
	// exceed maxWindow the covered prefix is compacted away and the
	// anchor advances (the prefix is "covered" by any future snapshot,
	// which always reflects the latest state).
	window      []ReplRecord
	anchorSeq   int64
	windowBytes int64
	maxWindow   int64

	peers map[string]*peerConn
}

// recBytes estimates one record's shipped size for window accounting
// and the delta-vs-snapshot byte metrics.
func recBytes(rec ReplRecord) int64 {
	n := int64(96) // seq + op metadata framing
	n += int64(len(rec.Data))
	if rec.Wlog != nil {
		n += int64(len(rec.Wlog.App) + len(rec.Wlog.Name))
	}
	if rec.Lock != nil {
		n += int64(len(rec.Lock.Name) + len(rec.Lock.Holder) + len(rec.Lock.Err) + 64)
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
		k:         k,
		mirror:    newLockMirror(),
		peers:     make(map[string]*peerConn),
		maxWindow: replWindowBytes,
		ctr: replCounters{
			recordsShipped:    srv.reg.Counter("repl_records_shipped"),
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

// setWindow shrinks or grows the retained delta window to n > 0 bytes;
// the tests use it to push the anchor past a peer.
func (r *replicator) setWindow(n int64) {
	if n <= 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.maxWindow = n
	r.compactLocked()
}

// retain appends shipped records to the window and compacts the
// covered prefix past the byte bound. Caller holds r.mu.
func (r *replicator) retain(batch []ReplRecord) {
	for _, rec := range batch {
		r.window = append(r.window, rec)
		r.windowBytes += recBytes(rec)
	}
	r.compactLocked()
}

// compactLocked drops the oldest window records until the byte bound
// holds, advancing the anchor. Caller holds r.mu.
func (r *replicator) compactLocked() {
	compacted := false
	for len(r.window) > 0 && r.windowBytes > r.maxWindow {
		r.windowBytes -= recBytes(r.window[0])
		r.anchorSeq = r.window[0].Seq
		r.window = r.window[1:]
		compacted = true
	}
	if len(r.window) == 0 {
		r.window = nil
		r.windowBytes = 0
	}
	if compacted {
		r.ctr.anchorCompactions.Inc()
	}
}

// windowSince returns the retained records with Seq > peerSeq, and
// whether the window reaches back far enough to heal a peer at that
// position with a delta.
func (r *replicator) windowSince(peerSeq int64) ([]ReplRecord, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if peerSeq < r.anchorSeq {
		return nil, false
	}
	i := 0
	for i < len(r.window) && r.window[i].Seq <= peerSeq {
		i++
	}
	return append([]ReplRecord(nil), r.window[i:]...), true
}

// enqueue assigns the next sequence number to rec and queues it for
// shipment, folding lock records into the origin mirror atomically
// with sequence assignment. Nothing is shipped: the record is held
// until a flush asks for it or a later one.
func (r *replicator) enqueue(rec ReplRecord) int64 {
	r.mu.Lock()
	r.seq++
	rec.Seq = r.seq
	if rec.Lock != nil {
		r.mirror.apply(rec.Lock)
	}
	r.queue = append(r.queue, rec)
	r.held += recBytes(rec)
	r.mu.Unlock()
	return rec.Seq
}

// flush blocks until every record up to seq has been dealt with. The
// caller that finds them unshipped and nobody shipping takes everything
// held — one ReplApplyReq per peer — and ships it itself with r.mu
// released; the others wait for it, or for their turn.
func (r *replicator) flush(seq int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.want = max(r.want, seq)
	for r.shipped < seq && !r.closed {
		if r.shipping || len(r.queue) == 0 {
			r.cond.Wait()
			continue
		}
		batch := r.queue
		r.queue, r.held = nil, 0
		// Retain before shipping so a re-sync triggered by this very
		// batch can serve it from the window.
		r.retain(batch)
		r.shipping = true
		r.mu.Unlock()

		r.ship(batch)

		r.mu.Lock()
		r.shipping = false
		r.shipped = batch[len(batch)-1].Seq
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
// from a replica: the stream continues from the restored position.
func (r *replicator) setState(seq int64, locks LockMirrorState) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq = seq
	r.shipped = seq
	r.want = seq
	r.queue = nil
	r.held = 0
	r.window = nil
	r.windowBytes = 0
	r.anchorSeq = seq
	r.mirror.importState(locks)
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

// close unblocks flushers; what is still held is never shipped.
func (r *replicator) close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.cond.Broadcast()
}

// ship sends one batch to every current replica peer, re-syncing peers
// that fell behind (or are fresh promotions): with a delta from the
// retained window when the peer's position is still covered, else
// with a full snapshot. A peer failure marks the peer for re-sync and
// is counted, but does not fail the origin's operation: replica count
// degrades until the membership heals, exactly like the
// data-redundancy layer.
func (r *replicator) ship(batch []ReplRecord) {
	epoch, slot, targets := r.srv.replicaTargets(r.k)
	if slot < 0 || len(targets) == 0 {
		return
	}
	req := ReplApplyReq{Epoch: epoch, Slot: slot, Records: batch}
	for _, addr := range targets {
		p, err := r.peer(addr)
		if err != nil {
			r.ctr.peerErrors.Inc()
			continue
		}
		if p.needSnap {
			// Probe the peer's stream position with an empty apply, then
			// heal it from wherever it actually is — the peer may hold
			// almost everything already (a re-dialled warm replica), in
			// which case the delta is tiny. The probe's batch is covered
			// by the re-sync; the peer skips duplicates.
			if !r.resync(p, addr, epoch, slot, -1) {
				continue
			}
		}
		resp, err := transport.As[ReplApplyResp](p.conn.Call(req))
		if err != nil {
			r.dropPeer(addr)
			r.ctr.peerErrors.Inc()
			continue
		}
		if resp.NeedSnapshot {
			r.resync(p, addr, epoch, slot, resp.Seq)
		}
	}
	r.ctr.recordsShipped.Add(int64(len(batch)))
	r.ctr.batchesShipped.Inc()
}

// resync heals one peer. peerSeq is the peer's reported stream
// position, or -1 to probe for it first. When the position is covered
// by the retained window, only the missing suffix is re-shipped (a
// delta since the anchor); a torn or refused delta — or a peer behind
// the anchor — falls back to the full snapshot, which is always built
// from the latest state (the freshest anchor). Returns true when the
// peer is healed.
func (r *replicator) resync(p *peerConn, addr string, epoch uint64, slot int, peerSeq int64) bool {
	if peerSeq < 0 {
		resp, err := transport.As[ReplApplyResp](p.conn.Call(ReplApplyReq{Epoch: epoch, Slot: slot}))
		if err != nil {
			r.dropPeer(addr)
			r.ctr.peerErrors.Inc()
			return false
		}
		peerSeq = resp.Seq
	}
	if delta, ok := r.windowSince(peerSeq); ok {
		healed, fatal := r.sendDelta(p, addr, epoch, slot, delta)
		if healed {
			p.needSnap = false
			return true
		}
		if fatal {
			return false
		}
		// Torn delta stream (the peer moved, or the window raced a
		// compaction): fall back to the anchor.
	}
	return r.sendSnapshot(p, epoch, slot)
}

// sendDelta re-ships retained records. healed reports the peer
// confirmed contiguity; fatal reports a transport failure (peer
// dropped, no point trying the snapshot on this conn).
func (r *replicator) sendDelta(p *peerConn, addr string, epoch uint64, slot int, delta []ReplRecord) (healed, fatal bool) {
	resp, err := transport.As[ReplApplyResp](p.conn.Call(ReplApplyReq{Epoch: epoch, Slot: slot, Records: delta}))
	if err != nil {
		r.dropPeer(addr)
		r.ctr.peerErrors.Inc()
		return false, true
	}
	if resp.NeedSnapshot {
		return false, false
	}
	var bytes int64
	for _, rec := range delta {
		bytes += recBytes(rec)
	}
	r.ctr.deltaResyncs.Inc()
	r.ctr.deltaBytes.Add(bytes)
	return true, false
}

func (r *replicator) sendSnapshot(p *peerConn, epoch uint64, slot int) bool {
	state, err := r.srv.buildReplState()
	if err != nil {
		r.ctr.peerErrors.Inc()
		return false
	}
	if _, err := p.conn.Call(ReplSnapshotReq{Epoch: epoch, Slot: slot, State: state}); err != nil {
		p.needSnap = true
		r.ctr.peerErrors.Inc()
		return false
	}
	p.needSnap = false
	r.ctr.snapshotsSent.Inc()
	r.ctr.snapshotBytes.Add(stateBytes(state))
	return true
}

// peer returns the cached connection to addr, dialling on first use.
// A fresh peer starts in needSnap state: the origin cannot know what
// the peer already holds, so it re-syncs before streaming.
func (r *replicator) peer(addr string) (*peerConn, error) {
	r.mu.Lock()
	p, ok := r.peers[addr]
	r.mu.Unlock()
	if ok {
		return p, nil
	}
	conn, err := r.tr.Dial(addr)
	if err != nil {
		return nil, err
	}
	p = &peerConn{conn: conn, needSnap: true}
	r.mu.Lock()
	r.peers[addr] = p
	r.mu.Unlock()
	return p, nil
}

func (r *replicator) dropPeer(addr string) {
	r.mu.Lock()
	p, ok := r.peers[addr]
	delete(r.peers, addr)
	r.mu.Unlock()
	if ok {
		p.conn.Close()
	}
}

// slotReplica is one hosted replica of a peer server's state.
type slotReplica struct {
	mu     sync.Mutex
	epoch  uint64
	seq    int64
	log    *wlog.Log
	store  *store.Store
	mirror *lockMirror
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
		rep = &slotReplica{log: wlog.New(), store: store.New(), mirror: newLockMirror()}
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

// applyRecord folds one stream record into the replica. Caller holds
// rep.mu.
func (rep *slotReplica) applyRecord(rec ReplRecord) error {
	if rec.Wlog != nil {
		if rec.Wlog.Op == wlog.OpPut && rec.Data != nil {
			obj := &store.Object{
				Name:     rec.Wlog.Name,
				Version:  rec.Wlog.Version,
				BBox:     rec.Wlog.BBox,
				ElemSize: rec.ElemSize,
				Data:     rec.Data,
				CRC:      rec.CRC,
				Logged:   true,
			}
			if err := rep.store.Put(obj); err != nil {
				return err
			}
		}
		if err := rep.log.Apply(*rec.Wlog); err != nil {
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
		rep.mirror.apply(rec.Lock)
	}
	rep.applied++
	return nil
}

// install replaces the replica's state with a full snapshot.
func (rep *slotReplica) install(epoch uint64, st ReplState) error {
	log := wlog.New()
	if err := log.Restore(st.Wlog); err != nil {
		return err
	}
	str := store.New()
	if err := str.Import(importObjects(st.Objects)); err != nil {
		return err
	}
	mirror := newLockMirror()
	if st.HasLocks {
		mirror.importState(st.Locks)
	}
	rep.log = log
	rep.store = str
	rep.mirror = mirror
	rep.seq = st.Seq
	if epoch > rep.epoch {
		rep.epoch = epoch
	}
	return nil
}

// export renders the replica as a ReplState for the recovery
// supervisor's restore pass. Caller holds rep.mu.
func (rep *slotReplica) export() (ReplState, error) {
	wl, err := rep.log.Snapshot()
	if err != nil {
		return ReplState{}, err
	}
	st := ReplState{Seq: rep.seq, Wlog: wl, Objects: exportObjects(rep.store.Export())}
	lockState := rep.mirror.export()
	if len(lockState.Held) > 0 || len(lockState.Dedup) > 0 {
		st.Locks = lockState
		st.HasLocks = true
	}
	return st, nil
}

func exportObjects(objs []*store.Object) []ReplObject {
	out := make([]ReplObject, 0, len(objs))
	for _, o := range objs {
		if !o.Logged {
			continue
		}
		out = append(out, ReplObject{
			Name: o.Name, Version: o.Version, BBox: o.BBox,
			ElemSize: o.ElemSize, Data: o.Data, CRC: o.CRC,
		})
	}
	return out
}

func importObjects(objs []ReplObject) []*store.Object {
	out := make([]*store.Object, 0, len(objs))
	for _, o := range objs {
		out = append(out, &store.Object{
			Name: o.Name, Version: o.Version, BBox: o.BBox,
			ElemSize: o.ElemSize, Data: o.Data, CRC: o.CRC, Logged: true,
		})
	}
	return out
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
	epoch = s.epoch
	addrs := s.memberAddrs
	self := s.addr
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

// flushRepl blocks until record seq is shipped (no-op for seq 0).
func (s *Server) flushRepl(seq int64) {
	if seq > 0 && s.repl != nil {
		s.repl.flush(seq)
	}
}

// buildReplState snapshots the server's own replicated state at the
// current stream position. It takes replMu (quiescing log/store
// mutations) and then the replicator mutex (pinning the sequence
// number and lock mirror), the same order the handlers use.
func (s *Server) buildReplState() (ReplState, error) {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	var seq int64
	var lockState LockMirrorState
	hasLocks := false
	if s.repl != nil {
		s.repl.mu.Lock()
		seq = s.repl.seq
		lockState = s.repl.mirror.export()
		hasLocks = len(lockState.Held) > 0 || len(lockState.Dedup) > 0
		s.repl.mu.Unlock()
	}
	wl, err := s.log.Snapshot()
	if err != nil {
		return ReplState{}, err
	}
	return ReplState{
		Seq:      seq,
		Wlog:     wl,
		Objects:  exportObjects(s.store.Export()),
		Locks:    lockState,
		HasLocks: hasLocks,
	}, nil
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
	s.reg.Counter("stale_epoch_rejects").Inc()
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
	s.reg.Counter("replica_snapshots_installed").Inc()
	return ReplSnapshotResp{Seq: rep.seq}, nil
}

func (s *Server) handleReplFetch(r ReplFetchReq) (any, error) {
	s.replicas.mu.Lock()
	rep, ok := s.replicas.slots[r.Slot]
	s.replicas.mu.Unlock()
	if !ok {
		return ReplFetchResp{}, nil
	}
	rep.mu.Lock()
	defer rep.mu.Unlock()
	st, err := rep.export()
	if err != nil {
		return nil, fmt.Errorf("staging: replica slot %d export: %w", r.Slot, err)
	}
	return ReplFetchResp{Found: true, Epoch: rep.epoch, State: st}, nil
}

// handleWlogInstall restores a replicated state snapshot onto this
// server itself: the promoted spare adopts the dead server's event
// log, logged payloads, lock table and dedup outcomes, and continues
// the replication stream from the restored position.
func (s *Server) handleWlogInstall(r WlogInstallReq) (any, error) {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	if err := s.log.Restore(r.State.Wlog); err != nil {
		return nil, fmt.Errorf("staging: install slot %d: %w", r.Slot, err)
	}
	if err := s.store.Import(importObjects(r.State.Objects)); err != nil {
		return nil, fmt.Errorf("staging: install slot %d objects: %w", r.Slot, err)
	}
	if r.State.HasLocks {
		s.locks.Import(r.State.Locks.Held)
		s.lockMu.Lock()
		s.lockOps = make(map[string]*lockAttempt)
		for _, o := range r.State.Locks.Dedup {
			kind := locks.Read
			if o.Write {
				kind = locks.Write
			}
			a := &lockAttempt{seq: o.Seq, name: o.Name, kind: kind, release: o.Release, done: make(chan struct{})}
			if !o.Ok {
				a.err = fmt.Errorf("locks: %s", o.Err)
			}
			close(a.done)
			s.lockOps[o.Holder] = a
		}
		s.lockMu.Unlock()
	}
	if s.repl != nil {
		s.repl.setState(r.State.Seq, r.State.Locks)
	}
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
	s.reg.Counter("log_installs").Inc()
	return WlogInstallResp{Records: r.State.Seq}, nil
}
