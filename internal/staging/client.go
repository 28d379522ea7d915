package staging

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"time"

	"gospaces/internal/dht"
	"gospaces/internal/domain"
	"gospaces/internal/health"
	"gospaces/internal/qos"
	"gospaces/internal/tier"
	"gospaces/internal/transport"
)

// ErrDegraded reports that a staging server stayed unreachable past the
// transport's retry policy: the call was a transport-level fault
// (timeout, broken connection, missing endpoint), not a server-side
// rejection. Callers can distinguish "staging degraded, try later or
// fail over" from protocol errors via errors.Is.
var ErrDegraded = errors.New("staging: degraded: server unreachable")

// ErrSlotDown reports that a membership slot is confirmed dead with no
// spare left to promote: the recovery leader has stranded the slot and
// pushed it in the servers' view (health.View.Down), and will heal it
// when the spare pool is refilled (AddSpare) or the server rejoins.
// Unlike ErrDegraded — a transient transport verdict — ErrSlotDown is
// the servers' verdict, surfaced at once instead of after a retry storm
// against a dead address.
var ErrSlotDown = errors.New("staging: slot down: dead with no spare, awaiting pool refill")

// wrapCall classifies a failed server call: transient transport faults
// that survived the retry layer surface as ErrDegraded, everything else
// stays a plain staging error.
func wrapCall(err error, format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	if transport.Retryable(err) {
		return fmt.Errorf("%w: %s: %w", ErrDegraded, msg, err)
	}
	return fmt.Errorf("staging: %s: %w", msg, err)
}

// Config describes a staging server group.
type Config struct {
	// Global is the data domain the group indexes.
	Global domain.BBox
	// NServers is the number of staging servers.
	NServers int
	// Bits is the DHT refinement (cells per dimension = 1<<Bits).
	Bits int
	// ElemSize is the byte width of one grid cell.
	ElemSize int
	// MemoryBudgetPerServer caps each server's resident object bytes
	// (0 = unlimited). A put that would exceed the budget first runs
	// garbage collection; if the log still needs the space, the put is
	// rejected with a budget error — staging memory is a hard resource
	// on real machines.
	MemoryBudgetPerServer int64
	// WlogReplicas is the number of peer servers each server ships its
	// event-log mutations to (K membership successors). 0 disables log
	// replication: the recovery metadata then dies with its server.
	WlogReplicas int
	// QoS, when non-nil, enables multi-tenant admission control and the
	// weighted two-lane scheduler on every server (and spare) of the
	// group. nil (the default) serves all traffic unconditionally.
	QoS *qos.Config
	// TierBackend, when non-nil, gives each server (and spare) a PFS
	// cold-tier backend keyed by server id: cold logged versions demote
	// to it at the spill watermark instead of shedding, and replay reads
	// promote them back transparently. nil disables the tier.
	TierBackend func(id int) tier.Backend
}

// Pool is a client-side view of a staging group: the spatial index plus
// the epoch-stamped server addresses. The address set is mutable — a
// client that hits a StaleEpochError, a transport fault or a stranded
// slot adopts the servers' view — so all access goes through the mutex.
type Pool struct {
	cfg   Config
	index *dht.Index
	tr    transport.Transport

	// mu guards the membership view: the slot addresses, the epoch
	// clients stamp their calls with, and the slots the servers' view
	// strands. It is replaced on adoption, never written into.
	mu   sync.Mutex
	view health.View

	// cellMu guards cells, a lazily built cache of the sub-boxes each
	// server owns; the pool is shared by all of a component's clients.
	cellMu sync.Mutex
	cells  [][]domain.BBox
}

// NewPool builds a client-side pool for a running group. addrs must
// have cfg.NServers entries, in server-id order.
func NewPool(tr transport.Transport, addrs []string, cfg Config) (*Pool, error) {
	if len(addrs) != cfg.NServers {
		return nil, fmt.Errorf("staging: %d addrs for %d servers", len(addrs), cfg.NServers)
	}
	if cfg.ElemSize <= 0 {
		return nil, fmt.Errorf("staging: non-positive element size %d", cfg.ElemSize)
	}
	idx, err := dht.NewIndex(cfg.Global, cfg.NServers, cfg.Bits)
	if err != nil {
		return nil, err
	}
	return &Pool{
		cfg:   cfg,
		index: idx,
		tr:    tr,
		view:  health.View{Epoch: 1, Addrs: slices.Clone(addrs)},
		cells: make([][]domain.BBox, cfg.NServers),
	}, nil
}

// Config returns the pool configuration.
func (p *Pool) Config() Config { return p.cfg }

// View returns the membership view the pool's clients route on,
// shared: the caller must not write into it.
func (p *Pool) View() health.View {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.view
}

// adopt takes a server's membership view if it is newer than the
// pool's and of its size: its addresses and its stranded slots.
func (p *Pool) adopt(v health.View) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if v.Epoch > p.view.Epoch && len(v.Addrs) == len(p.view.Addrs) {
		p.view = v
	}
}

// serverCells returns (cached) the sub-boxes owned by server s.
func (p *Pool) serverCells(s int) []domain.BBox {
	p.cellMu.Lock()
	defer p.cellMu.Unlock()
	if p.cells[s] == nil {
		p.cells[s] = p.index.ServerCells(s)
	}
	return p.cells[s]
}

// Client is one application rank's connection to the staging group.
// A Client is not safe for concurrent use; create one per rank, as each
// rank's request stream must stay ordered for deterministic replay.
type Client struct {
	app  string
	pool *Pool
	// conns keeps one client per server address; a slot's calls go to
	// its address in the pool's view.
	conns *transport.Peers
	// lockSeq numbers this rank's lock operations and getSeq its logged
	// gets, so the servers can deduplicate retried requests (the client
	// is per-rank and serial, so plain counters suffice). getSeq starts
	// at random: two clients of one rank (a restarted process, or one
	// CLI call after another) must not number a get alike.
	lockSeq, getSeq uint64
	// CumulativeWriteTime accumulates client-observed put response
	// time, the Figure 9(a)/(b) metric.
	cumWrite time.Duration
	// held are the pieces of the put in progress that its current server
	// (at at, where the last request went) acked Deferred since its last
	// flushed ack (heldBytes their payload): applied there, on no replica
	// yet. regions is put's scratch.
	held      []PutReq
	heldBytes int
	at        string
	regions   []domain.BBox
}

// NewClient connects rank identity app (e.g. "sim/12") to the group.
func (p *Pool) NewClient(app string) (*Client, error) {
	c := &Client{
		app:    app,
		pool:   p,
		conns:  transport.NewPeers(p.tr),
		getSeq: rand.Uint64() >> 1,
	}
	if err := c.Reconnect(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// App returns the client's component/rank identity.
func (c *Client) App() string { return c.app }

// Close releases the client's connections.
func (c *Client) Close() error { return c.conns.Close() }

// Reconnect dials every server of the pool's view that has no kept
// client; workflow_restart uses it to rebuild the staging client after a
// component recovers (paper §III-C). A failed dial may mean a stale view
// (a spare was promoted since): the client rebinds from the members. It
// fails only when no member answers, or when the view strands a slot.
func (c *Client) Reconnect() error {
	for s, addr := range c.pool.View().Addrs {
		if _, err := c.conns.Client(addr); err != nil {
			if rerr := c.rebind(s); rerr != nil {
				return fmt.Errorf("staging: dial server %d: %w (%w)", s, err, rerr)
			}
			if down := c.pool.View().Down; len(down) > 0 {
				return fmt.Errorf("%w: server %d", ErrSlotDown, down[0])
			}
			return nil
		}
	}
	return nil
}

// call sends one epoch-stamped request to server s. On a stale-epoch
// redirect, or a transport fault that outlived the retry layer (calling
// or dialling a fail-stopped slot), it adopts the servers' newer view
// (rebind) and retries once; a second redirect surfaces. A slot the
// view strands fails fast with ErrSlotDown, after a rebind that would
// see it healed.
func (c *Client) call(s int, req any) (any, error) {
	if v := c.pool.View(); !v.IsDown(s) {
		raw, err := c.send(v, s, req)
		stale := IsStaleEpoch(err)
		if err == nil || !stale && !transport.Retryable(err) {
			return raw, err
		}
		if rerr := c.rebind(s); rerr != nil {
			if stale {
				return nil, rerr
			}
			// Transient fault and no member answered: the original error
			// says more than the failed rebind.
			return raw, err
		}
	} else if err := c.rebind(s); err != nil {
		return nil, fmt.Errorf("%w: server %d", ErrSlotDown, s)
	}
	v := c.pool.View()
	if v.IsDown(s) {
		return nil, fmt.Errorf("%w: server %d", ErrSlotDown, s)
	}
	return c.send(v, s, req)
}

// send sends req to slot s at its address in view v. A slot moved away
// from the server that acked the held pieces (by any client's rebind)
// means that server died, perhaps with their records unshipped: they are
// re-sent first, in order and flushed; the wlog's same-version-tail
// dedup makes each a no-op or the missing append (DESIGN.md §6).
func (c *Client) send(v health.View, s int, req any) (any, error) {
	addr := v.Addrs[s]
	if len(c.held) > 0 && addr != c.at {
		for _, h := range c.held {
			h.Defer = false
			if _, err := c.conns.Call(addr, EpochReq{Epoch: v.Epoch, Req: h}); err != nil {
				return nil, err
			}
		}
		c.dropHeld()
	}
	c.at = addr
	return c.conns.Call(addr, EpochReq{Epoch: v.Epoch, Req: req})
}

func (c *Client) dropHeld() { c.held, c.heldBytes = c.held[:0], 0 }

// rebind refreshes the membership view from the members after slot
// from (-1: from slot 0) in turn, up to the first that holds a view
// newer than the pool's — a member that missed a push answers an older
// one — skipping slots the view strands. A member's view is its
// health.PingResp (the control lane). It fails only when no member
// answers.
func (c *Client) rebind(from int) error {
	v := c.pool.View()
	n, got := len(v.Addrs), false
	for i := 1; i <= n; i++ {
		s := (from + i + n) % n
		if v.IsDown(s) {
			continue
		}
		p, err := transport.As[health.PingResp](c.conns.Call(v.Addrs[s], health.PingReq{From: c.app}))
		ok := err == nil && p.View.Epoch > 0 && len(p.View.Addrs) == n
		if got = got || ok; ok && p.View.Epoch > v.Epoch {
			c.pool.adopt(p.View)
			break
		}
	}
	if !got {
		return fmt.Errorf("%w: rebind: no server returned a membership view", ErrDegraded)
	}
	return nil
}

// CumulativeWriteTime returns the client-observed total put response
// time so far.
func (c *Client) CumulativeWriteTime() time.Duration { return c.cumWrite }

// replDeferBytes is the group-commit budget of log replication: within
// one server's run of a logged rank put a piece is sent Defer — acked
// without a replica round trip of its own — while the payload so acked
// since the run's last flush stays within it; the piece that would cross
// it, and always the run's last, flushes for them all. Measured on 2
// vCPUs (put_overhead_ratio): 2 KiB pieces 1.85–1.88 → 1.32–1.34, 16 KiB
// 1.69 → 1.58. A 128 KiB piece is over the budget alone and keeps its
// round trip: acking those early and shipping each at once cost 1.63–1.70
// → 1.85–1.95, holding eight for one 1 MiB batch 1.92–1.95 — at that
// size the cost is the bytes walked, not the waiting.
const replDeferBytes = 64 << 10

// put is the shared implementation of Put and PutWithLog.
func (c *Client) put(name string, version int64, bbox domain.BBox, data []byte, logged bool) error {
	if want := domain.BufLen(bbox, c.pool.cfg.ElemSize); len(data) != want {
		return fmt.Errorf("staging: put %q %v: buffer %d bytes, want %d", name, bbox, len(data), want)
	}
	start := time.Now()
	defer func() { c.cumWrite += time.Since(start) }()
	for _, s := range c.pool.index.ServersFor(bbox) {
		c.regions = c.regions[:0]
		for _, cell := range c.pool.serverCells(s) {
			if region, ok := cell.Intersect(bbox); ok {
				c.regions = append(c.regions, region)
			}
		}
		for i, region := range c.regions {
			req := PutReq{
				App: c.app, Name: name, Version: version,
				ElemSize: c.pool.cfg.ElemSize, Logged: logged,
				Piece: Piece{BBox: region, Data: domain.Extract(data, bbox, region, c.pool.cfg.ElemSize)},
			}
			n := len(req.Piece.Data)
			req.Defer = logged && i < len(c.regions)-1 && c.heldBytes+n <= replDeferBytes
			raw, err := c.call(s, req)
			if err != nil {
				// The held pieces are abandoned with the put: unacknowledged
				// by definition, they ride the stream's next flush.
				c.dropHeld()
				return wrapCall(err, "put %q v%d to server %d", name, version, s)
			}
			if resp, _ := raw.(PutResp); resp.Deferred {
				c.held, c.heldBytes = append(c.held, req), c.heldBytes+n
			} else {
				c.dropHeld()
			}
		}
	}
	return nil
}

// get is the shared implementation of Get and GetWithLog.
func (c *Client) get(name string, version int64, bbox domain.BBox, logged bool) ([]byte, int64, error) {
	dst := make([]byte, domain.BufLen(bbox, c.pool.cfg.ElemSize))
	resolved := int64(NoVersion)
	var covered int64
	req := GetReq{App: c.app, Name: name, Version: version, BBox: bbox, Logged: logged}
	if logged {
		c.getSeq++
		req.Seq = c.getSeq
	}
	for _, s := range c.pool.index.ServersFor(bbox) {
		raw, err := c.call(s, req)
		if err != nil {
			return nil, 0, wrapCall(err, "get %q v%d from server %d", name, version, s)
		}
		resp, ok := raw.(GetResp)
		if !ok { // only a failure pays for its label
			_, err := transport.As[GetResp](raw, nil)
			return nil, 0, fmt.Errorf("staging: get %q: %w", name, err)
		}
		if resolved == NoVersion {
			resolved = resp.Version
		} else if resolved != resp.Version {
			return nil, 0, fmt.Errorf("staging: get %q: servers resolved versions %d and %d; use explicit versions", name, resolved, resp.Version)
		}
		for _, piece := range resp.Pieces {
			region, ok := piece.BBox.Intersect(bbox)
			if !ok {
				continue
			}
			domain.CopyRegion(dst, bbox, piece.Data, piece.BBox, region, c.pool.cfg.ElemSize)
			covered += region.Volume()
		}
	}
	if covered != bbox.Volume() {
		return nil, 0, fmt.Errorf("staging: get %q v%d %v: incomplete coverage %d/%d cells", name, version, bbox, covered, bbox.Volume())
	}
	return dst, resolved, nil
}

// Put stages data covering bbox as version of name using the original
// (non-logged) staging semantics: only the latest version is retained.
func (c *Client) Put(name string, version int64, bbox domain.BBox, data []byte) error {
	return c.put(name, version, bbox, data, false)
}

// Get reads version of name over bbox. Version NoVersion reads the
// latest, provided all touched servers agree on it.
func (c *Client) Get(name string, version int64, bbox domain.BBox) ([]byte, int64, error) {
	return c.get(name, version, bbox, false)
}

// PutWithLog stages data through the crash-consistent path: the servers
// log the write events so a recovering producer's re-issued writes are
// suppressed (dspaces_put_with_log in Table I).
func (c *Client) PutWithLog(name string, version int64, bbox domain.BBox, data []byte) error {
	return c.put(name, version, bbox, data, true)
}

// GetWithLog reads through the crash-consistent path: during replay the
// servers return the logged version of the data
// (dspaces_get_with_log in Table I).
func (c *Client) GetWithLog(name string, version int64, bbox domain.BBox) ([]byte, int64, error) {
	return c.get(name, version, bbox, true)
}

// WorkflowCheck notifies all staging servers that this rank has
// checkpointed (workflow_check in Table I). It returns the bytes freed
// by the end-of-cycle garbage collection.
//
// The freed-bytes count is at-least-once accounting: if a server's
// response is lost and the retry layer re-sends the request, the retried
// call reports only the (usually zero) bytes freed by the second GC
// pass, so the aggregate is a lower bound under transient faults. The
// checkpoint itself is safe to re-apply: re-marking the same log
// position is a no-op.
//
// The mark is best-effort per server: a failed server does not stop the
// remaining servers from being marked (narrowing the torn-checkpoint
// window a fail-stop mid-check opens), but the first error is still
// returned so the caller knows the checkpoint cut is incomplete.
func (c *Client) WorkflowCheck() (int64, error) {
	var freed int64
	var firstErr error
	for s := range c.pool.cfg.NServers {
		resp, err := transport.As[CheckpointResp](c.call(s, CheckpointReq{App: c.app}))
		if err != nil {
			if firstErr == nil {
				firstErr = wrapCall(err, "checkpoint on server %d", s)
			}
			continue
		}
		freed += resp.FreedBytes
	}
	return freed, firstErr
}

// WorkflowRestart rebuilds the staging client and switches this rank
// into replay mode on all servers (workflow_restart in Table I). It
// returns the total number of events that will be replayed.
//
// The replay-event count is at-least-once accounting: a retried
// RecoveryReq regenerates the replay script from the same checkpoint
// frontier (no replayed op can have happened in between, since this
// client issues them), so the switch into replay mode is idempotent,
// but a response lost after the server processed the request can make
// the reported count reflect the re-executed call.
func (c *Client) WorkflowRestart() (int, error) {
	return c.WorkflowRestartFrom(0)
}

// WorkflowRestartFrom is WorkflowRestart for a component whose restored
// durable checkpoint covers every event version <= covered (0 means no
// coverage information). Servers drop the covered prefix from the
// replay window before generating the script, so a workflow_check mark
// torn by a server fail-stop (some servers marked, some not, the
// component's own checkpoint durable) cannot make replay diverge.
func (c *Client) WorkflowRestartFrom(covered int64) (int, error) {
	if err := c.Reconnect(); err != nil {
		return 0, err
	}
	total := 0
	for s := range c.pool.cfg.NServers {
		resp, err := transport.As[RecoveryResp](c.call(s, RecoveryReq{App: c.app, Covered: covered}))
		if err != nil {
			return total, wrapCall(err, "recovery on server %d", s)
		}
		total += resp.ReplayEvents
	}
	return total, nil
}

// Versions returns the union of staged versions of name across servers.
func (c *Client) Versions(name string) ([]int64, error) {
	seen := map[int64]struct{}{}
	for s := range c.pool.cfg.NServers {
		resp, err := transport.As[QueryResp](c.call(s, QueryReq{Name: name}))
		if err != nil {
			return nil, wrapCall(err, "query on server %d", s)
		}
		for _, v := range resp.Versions {
			seen[v] = struct{}{}
		}
	}
	out := make([]int64, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	slices.Sort(out)
	return out, nil
}

// Stats aggregates accounting across all servers: every field of a
// StatsResp is a count, and the group's is the sum of its servers'.
func (c *Client) Stats() (StatsResp, error) {
	var agg StatsResp
	sum := reflect.ValueOf(&agg).Elem()
	for s := range c.pool.cfg.NServers {
		st, err := transport.As[StatsResp](c.call(s, StatsReq{}))
		if err != nil {
			return agg, wrapCall(err, "stats on server %d", s)
		}
		for i, one := 0, reflect.ValueOf(st); i < sum.NumField(); i++ {
			sum.Field(i).SetInt(sum.Field(i).Int() + one.Field(i).Int())
		}
	}
	return agg, nil
}

// TraceRecords fetches the recent protocol trace of every server,
// indexed by server id: each server's retained records, oldest first,
// and its Total, which exceeds len(Raw) once the ring has wrapped.
func (c *Client) TraceRecords(limit int) ([]TraceResp, error) {
	out := make([]TraceResp, c.pool.cfg.NServers)
	for sid := range out {
		resp, err := transport.As[TraceResp](c.call(sid, TraceReq{Limit: limit}))
		if err != nil {
			return nil, wrapCall(err, "trace on server %d", sid)
		}
		out[sid] = resp
	}
	return out, nil
}

// lockServer is the group member hosting the lock table.
const lockServer = 0

func (c *Client) lockOp(name string, write, release bool) error {
	c.lockSeq++
	req := LockReq{Name: name, Holder: c.app, Write: write, Release: release, Seq: c.lockSeq}
	if _, err := c.call(lockServer, req); err != nil {
		op := "lock"
		if release {
			op = "unlock"
		}
		return wrapCall(err, "%s %q", op, name)
	}
	return nil
}

// LockOnWrite takes the exclusive write lock on name
// (dspaces_lock_on_write). Producers bracket each coupling cycle's puts
// with it so readers never observe a torn update.
func (c *Client) LockOnWrite(name string) error { return c.lockOp(name, true, false) }

// UnlockOnWrite releases the write lock on name.
func (c *Client) UnlockOnWrite(name string) error { return c.lockOp(name, true, true) }

// LockOnRead takes a shared read lock on name (dspaces_lock_on_read).
func (c *Client) LockOnRead(name string) error { return c.lockOp(name, false, false) }

// UnlockOnRead releases the read lock on name.
func (c *Client) UnlockOnRead(name string) error { return c.lockOp(name, false, true) }

// ShardConn is server's slot for the resilience layer (internal/corec):
// calls go to the slot's address in the pool's view; Close is a no-op.
func (c *Client) ShardConn(server int) transport.Client { return shardConn{c, server} }

type shardConn struct {
	c    *Client
	slot int
}

func (sc shardConn) Call(req any) (any, error) {
	return sc.c.conns.Call(sc.c.pool.View().Addrs[sc.slot], req)
}
func (shardConn) Close() error { return nil }

// NumServers returns the group size.
func (c *Client) NumServers() int { return c.pool.cfg.NServers }
