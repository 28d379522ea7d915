package staging

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gospaces/internal/domain"
	"gospaces/internal/qos"
	"gospaces/internal/transport"
	"gospaces/internal/wlog"
)

// The tests in this file pin the group commit of log replication: which
// acks wait for the replica stream, what the lag signal counts, and the
// exact number of replica round trips each client operation costs.

// tapTransport decorates a Transport: before runs ahead of every
// forwarded call and may block to park it or act at an exact point of
// the message sequence; after sees the outcome. All hooks get the
// request out of its envelopes. Set them before the group starts.
type tapTransport struct {
	transport.Transport
	before func(addr string, req any)
	after  func(addr string, req, resp any)
	// drop, when it returns true, fails the call unforwarded: the
	// address is dark for that request. lose forwards it and fails it
	// all the same, as a timeout: the request arrived, its answer did
	// not.
	drop, lose func(addr string, req any) bool
	// dialed sees every dial that succeeded.
	dialed func(addr string)
}

type tapClient struct {
	transport.Client
	t    *tapTransport
	addr string
}

func (t *tapTransport) Dial(addr string) (transport.Client, error) {
	c, err := t.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	if t.dialed != nil {
		t.dialed(addr)
	}
	return &tapClient{Client: c, t: t, addr: addr}, nil
}

func (c *tapClient) Call(req any) (any, error) {
	inner := req
	for {
		if e, ok := inner.(EpochReq); ok {
			inner = e.Req
		} else if f, ok := inner.(FencedReq); ok {
			inner = f.Req
		} else {
			break
		}
	}
	if c.t.drop != nil && c.t.drop(c.addr, inner) {
		return nil, fmt.Errorf("tap: %s is dark", c.addr)
	}
	if c.t.before != nil {
		c.t.before(c.addr, inner)
	}
	resp, err := c.Client.Call(req)
	if c.t.lose != nil && c.t.lose(c.addr, inner) {
		return nil, fmt.Errorf("tap: the answer from %s is lost: %w", c.addr, transport.ErrTimeout)
	}
	if c.t.after != nil && err == nil {
		c.t.after(c.addr, inner, resp)
	}
	return resp, err
}

// waitFor polls cond: the tests below wait on server-side events that
// have no channel to block on.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// stalledGroup is a 2-server K=1 in-process group whose replica stream
// is parked until release is called, from the moment server 0 has
// handled the setup requests on.
func stalledGroup(t *testing.T, q *qos.Config, setup ...any) (g *Group, release func()) {
	t.Helper()
	var parked atomic.Bool
	parked.Store(len(setup) == 0)
	gate := make(chan struct{})
	release = sync.OnceFunc(func() { close(gate) })
	tr := &tapTransport{Transport: transport.NewInProc(), before: func(_ string, req any) {
		if _, ok := req.(ReplApplyReq); ok && parked.Load() {
			<-gate
		}
	}}
	g, err := StartGroup(tr, "stage", Config{
		Global: domain.Box3(0, 0, 0, 63, 63, 31), NServers: 2, Bits: 2, ElemSize: 8, WlogReplicas: 1, QoS: q,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { release(); g.Close() })
	for _, r := range setup {
		if _, err := g.Server(0).Handle(r); err != nil {
			t.Fatal(err)
		}
	}
	parked.Store(true)
	return g, release
}

// TestRetriedPutAckWaitsForStream: a retried logged piece hits the
// wlog's same-version-tail dedup and emits no record of its own, yet
// its ack must wait for the first attempt's record like the first
// attempt does — or a response-lost retry is acknowledged unshipped.
func TestRetriedPutAckWaitsForStream(t *testing.T) {
	g, release := stalledGroup(t, nil)
	srv := g.Server(0)
	req := qosPut("field", 1, domain.Box3(0, 0, 0, 3, 3, 3), true, 1)
	var released atomic.Bool
	acked := make(chan struct{})
	send := func(who string) {
		go func() {
			defer func() { acked <- struct{}{} }()
			if _, err := srv.Handle(req); err != nil {
				t.Errorf("%s: %v", who, err)
			}
			if !released.Load() {
				t.Errorf("%s acknowledged while the stream was stalled and its record unshipped", who)
			}
		}()
	}
	send("first attempt")
	waitFor(t, "the first attempt to ask for its record", func() bool { return srv.repl.lag() == 1 })
	send("retry")
	waitFor(t, "the retry to hit the dedup", func() bool { return srv.reg.Counter("suppressed_puts").Value() == 1 })
	for i := 0; i < 1000; i++ {
		runtime.Gosched() // room for an ack that does not wait
	}
	released.Store(true)
	release()
	<-acked
	<-acked
}

// TestRetriedGetAckWaitsForStream: a retried logged get emits no
// record of its own, yet its ack waits for its first attempt's record,
// as a deduplicated put piece's does. In a first execution the retry
// carries its first attempt's request number; in a replay it repeats
// the get just behind the cursor. A replayed get that consumes the
// window's last event ends the replay, and a newer version is put
// before its retry arrives: the replayed get stamped its number on the
// event, so the retry is still served the logged version, logs nothing,
// and the origin's log and its replica hold the get once.
func TestRetriedGetAckWaitsForStream(t *testing.T) {
	box := domain.Box3(0, 0, 0, 3, 3, 3)
	req := GetReq{App: "ana/0", Name: "field", Version: 1, BBox: box, Logged: true, Seq: 7}
	other := GetReq{App: "ana/0", Name: "field", Version: 1, BBox: domain.Box3(4, 0, 0, 7, 3, 3), Logged: true, Seq: 8}
	puts := []any{qosPut("field", 1, box, false, 1), qosPut("field", 1, other.BBox, false, 1)}
	latest := GetReq{App: "ana/0", Name: "field", Version: NoVersion, BBox: box, Logged: true, Seq: 7}
	replayed := latest
	replayed.Seq = 9 // the restarted client's number
	for _, tc := range []struct {
		name    string
		setup   []any
		req     GetReq
		between []any   // handled after the first attempt, before the retry
		fromLog [2]bool // of the first attempt and of the retry
		want    int64   // the version both are served
		records int64   // the stream's growth
		logged  int     // the consumer's gets in the logs at the end
	}{
		{"first execution", puts, req, nil, [2]bool{false, false}, 1, 1, 1},
		{"replay", append(puts, req, other, RecoveryReq{App: "ana/0"}), req, nil, [2]bool{true, true}, 1, 1, 2},
		{"replay of a one-get window",
			[]any{qosPut("field", 1, box, true, 1), qosPut("field", 2, box, true, 2), latest, RecoveryReq{App: "ana/0"}},
			replayed, []any{qosPut("field", 3, box, true, 3)}, [2]bool{true, false}, 2, 2, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g, release := stalledGroup(t, nil, tc.setup...)
			srv := g.Server(0)
			pos, gets := srv.repl.position(), srv.reg.Counter("gets").Value()
			var released atomic.Bool
			acked := make(chan struct{})
			send := func(who string, fromLog bool) {
				go func() {
					defer func() { acked <- struct{}{} }()
					resp, err := transport.As[GetResp](srv.Handle(tc.req))
					if err != nil || resp.FromLog != fromLog || resp.Version != tc.want {
						t.Errorf("%s: v%d FromLog %v, %v; want v%d FromLog %v", who, resp.Version, resp.FromLog, err, tc.want, fromLog)
					}
					if !released.Load() {
						t.Errorf("%s acknowledged while the stream was stalled and its record unshipped", who)
					}
				}()
			}
			send("first attempt", tc.fromLog[0])
			waitFor(t, "the first attempt to ask for its record", func() bool { return srv.repl.lag() == 1 })
			between := make(chan error, len(tc.between))
			for _, r := range tc.between {
				go func() { _, err := srv.Handle(r); between <- err }()
			}
			waitFor(t, "the requests between to be applied", func() bool { return srv.repl.position() == pos+tc.records })
			send("retry", tc.fromLog[1])
			waitFor(t, "the retry to be served", func() bool { return srv.reg.Counter("gets").Value() == gets+2 })
			for i := 0; i < 1000; i++ {
				runtime.Gosched() // room for an ack that does not wait
			}
			released.Store(true)
			release()
			<-acked
			<-acked
			for range tc.between {
				if err := <-between; err != nil {
					t.Fatal(err)
				}
			}
			if got := srv.repl.position(); got != pos+tc.records {
				t.Fatalf("stream at %d after a get and its retry, want %d records past %d", got, tc.records, pos)
			}
			rep := g.Server(1).replicas.slot(0)
			rep.mu.Lock()
			defer rep.mu.Unlock()
			for who, l := range map[string]*wlog.Log{"origin": srv.log, "replica": rep.log} {
				if n := loggedGets(t, l, "ana/0"); n != tc.logged {
					t.Fatalf("the %s log holds %d gets of the consumer, want %d", who, n, tc.logged)
				}
			}
		})
	}
}

// retryRig is a two-server group with K=1 whose producer "sim/0" and
// consumer "ana/0" reach it through a retry layer over a tap over a
// chaos transport; put and read stage and check one field over the
// domain.
type retryRig struct {
	g     *Group
	tap   *tapTransport
	chaos *transport.Chaos
	retry *transport.Retrying
	cons  *Client
	put   func(v int64)
	read  func(ask, want int64)
}

func newRetryRig(t *testing.T) *retryRig {
	t.Helper()
	global := domain.Box3(0, 0, 0, 31, 31, 7)
	cfg := Config{Global: global, NServers: 2, Bits: 2, ElemSize: 8, WlogReplicas: 1}
	inner := transport.NewInProc()
	g, err := StartGroup(inner, "stage", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	chaos := transport.NewChaos(inner, 1)
	tap := &tapTransport{Transport: chaos}
	retry := transport.WithRetry(tap, transport.RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Millisecond})
	pool, err := NewPool(retry, g.Addrs(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	prod, err := pool.NewClient("sim/0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { prod.Close() })
	cons, err := pool.NewClient("ana/0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cons.Close() })
	size := domain.BufLen(global, 8)
	return &retryRig{
		g: g, tap: tap, chaos: chaos, retry: retry, cons: cons,
		put: func(v int64) {
			t.Helper()
			if err := prod.PutWithLog("field", v, global, fill(size, v)); err != nil {
				t.Fatal(err)
			}
		},
		read: func(ask, want int64) {
			t.Helper()
			got, v, err := cons.GetWithLog("field", ask, global)
			if err != nil || v != want || !bytes.Equal(got, fill(size, want)) {
				t.Fatalf("get asking %d: v%d, %v; want v%d's bytes", ask, v, err, want)
			}
		},
	}
}

// logs are server 0's log and its replica on server 1.
func (r *retryRig) logs() map[string]*wlog.Log {
	rep := r.g.Server(1).replicas.slot(0)
	rep.mu.Lock()
	defer rep.mu.Unlock()
	return map[string]*wlog.Log{"origin": r.g.Server(0).log, "replica": rep.log}
}

// TestRetriedFirstGetLoggedOnce: a consumer's first-execution logged
// gets, an explicit version and "latest", each lose their first answer
// from server 0 (a chaos drop window under the retry layer), so each is
// served twice; then it re-reads "latest" with nothing lost. The
// origin's log and its replica on server 1 hold each get once and the
// re-read as a get of its own, and a restarted consumer replays all
// three reads to the versions it first read, though a newer version
// was put since.
func TestRetriedFirstGetLoggedOnce(t *testing.T) {
	r := newRetryRig(t)
	r.put(1)
	r.put(2)
	for _, g := range []struct{ ask, want int64 }{{1, 1}, {NoVersion, 2}} {
		r.chaos.Drop(r.g.Addrs()[0], 20*time.Millisecond) // the retry comes after the window
		r.read(g.ask, g.want)
	}
	if n := r.retry.Metrics().Counter("rpc.retries").Value(); n != 2 {
		t.Fatalf("%d retries, want one per get", n)
	}
	if n := r.g.Server(0).reg.Counter("gets").Value(); n != 4 {
		t.Fatalf("server 0 served %d gets, want each of 2 twice", n)
	}
	r.read(NoVersion, 2)
	for who, l := range r.logs() {
		if n := loggedGets(t, l, "ana/0"); n != 3 {
			t.Fatalf("the %s log holds %d gets of the consumer, want 3", who, n)
		}
	}

	r.put(3)
	if _, err := r.cons.WorkflowRestart(); err != nil {
		t.Fatal(err)
	}
	r.read(1, 1)
	r.read(NoVersion, 2)
	r.read(NoVersion, 2)
	if r.g.Server(0).log.Replaying("ana/0") {
		t.Fatal("the replay did not consume the logged window")
	}
}

// TestRetriedGetServedItsFirstVersion: the answer to a consumer's
// "latest" read is lost after server 1 (the last it asks) resolved and
// logged v2, and v3 is put before the retry. The retry carries its
// first attempt's request number, so it is served v2, as server 0
// served it, and logs nothing; a restarted consumer replays v2.
func TestRetriedGetServedItsFirstVersion(t *testing.T) {
	r := newRetryRig(t)
	r.put(1)
	r.put(2)
	var lost atomic.Bool
	r.tap.lose = func(addr string, req any) bool {
		if _, ok := req.(GetReq); !ok || addr != r.g.Addrs()[1] || lost.Swap(true) {
			return false
		}
		r.put(3)
		return true
	}
	r.read(NoVersion, 2)
	if n := r.retry.Metrics().Counter("rpc.retries").Value(); n != 1 {
		t.Fatalf("%d retries, want the lost answer's one", n)
	}
	if n := loggedGets(t, r.g.Server(1).log, "ana/0"); n != 1 {
		t.Fatalf("server 1's log holds %d gets of the consumer, want 1", n)
	}
	if _, err := r.cons.WorkflowRestart(); err != nil {
		t.Fatal(err)
	}
	r.read(NoVersion, 2)
	r.read(NoVersion, 3)
}

// loggedGets counts app's Get events in a copy of l's window: the
// replay script a recovery would run.
func loggedGets(t *testing.T, l *wlog.Log, app string) int {
	t.Helper()
	state, err := l.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cp := wlog.New()
	if err := cp.Restore(state); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range cp.OnRecovery(app) {
		if e.Kind == wlog.KindGet {
			n++
		}
	}
	return n
}

// TestReplLagIgnoresHeldRecords: records held for a put in progress are
// not replication backlog — nobody is waiting for them — so they must
// not raise the admission controller's retry-after pressure. Lag counts
// what a flusher waits for.
func TestReplLagIgnoresHeldRecords(t *testing.T) {
	g, release := stalledGroup(t, &qos.Config{})
	srv := g.Server(0)
	lags := func() [2]int64 {
		return [2]int64{srv.qosSignals().ReplLag, srv.qosStats().ReplLag}
	}
	for i := int64(0); i < 3; i++ {
		req := qosPut("field", 1, domain.Box3(4*i, 0, 0, 4*i+3, 3, 3), true, i)
		req.Defer = true
		raw, err := srv.Handle(req)
		if err != nil || !raw.(PutResp).Deferred {
			t.Fatalf("deferred piece %d = %+v, %v", i, raw, err)
		}
	}
	if got := lags(); srv.repl.position() != 3 || got != [2]int64{} {
		t.Fatalf("3 held records: position %d, lag %v, want 3 and no lag", srv.repl.position(), got)
	}
	done := make(chan error)
	go func() {
		_, err := srv.Handle(qosPut("field", 1, domain.Box3(12, 0, 0, 15, 3, 3), true, 3))
		done <- err
	}()
	waitFor(t, "the flushing piece to raise the lag", func() bool { return lags() == [2]int64{4, 4} })
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := lags(); got != [2]int64{} {
		t.Fatalf("lag %v after the flush returned", got)
	}
	if d, b := srv.repl.ctr.deferredAcks.Value(), srv.repl.ctr.batchesShipped.Value(); d != 3 || b != 1 {
		t.Fatalf("repl_deferred_acks %d, repl_batches_shipped %d, want 3 and 1", d, b)
	}
}

// TestDeferIgnoredAtWindowBound: held bytes are bounded by
// replWindowBytes however many clients are mid-put — the piece that
// finds the queue past the bound flushes although it asked not to.
func TestDeferIgnoredAtWindowBound(t *testing.T) {
	g, release := stalledGroup(t, nil)
	release()
	srv := g.Server(0)
	box := domain.Box3(0, 0, 0, 31, 31, 30) // 248 KiB: 16 fit in the window, 17 do not
	n := int64(replWindowBytes / domain.BufLen(box, 8))
	for i := int64(0); i <= n; i++ {
		req := qosPut("field", i, box, true, 1)
		req.Defer = true
		raw, err := srv.Handle(req)
		if err != nil {
			t.Fatal(err)
		}
		if got := raw.(PutResp).Deferred; got != (i < n) {
			t.Fatalf("piece %d of %d: Deferred = %v", i, n, got)
		}
		srv.repl.mu.Lock()
		held := srv.repl.held
		srv.repl.mu.Unlock()
		if held > replWindowBytes {
			t.Fatalf("%d bytes held unshipped after piece %d, bound %d", held, i, replWindowBytes)
		}
	}
	if f, lag := srv.repl.ctr.forcedFlushes.Value(), srv.repl.lag(); f != 1 || lag != 0 {
		t.Fatalf("repl_forced_flushes %d, lag %d, want 1 and 0", f, lag)
	}
}

// wireEvent is one request the counting tap saw, in order.
type wireEvent struct {
	kind     string // PutReq, GetReq, CheckpointReq, ReplApplyReq
	slot     int    // destination slot, or the origin slot of a ReplApplyReq
	records  int    // ReplApplyReq only
	seq      int64  // ReplApplyReq only: its first record's Seq
	deferred bool   // PutReq.Defer
}

// countGroup is a K=1 group over loopback TCP behind a counting tap.
type countGroup struct {
	*Group
	mu     sync.Mutex
	events []wireEvent
	slotOf map[string]int
	// onPut runs before the n-th PutReq since the last reset is forwarded.
	onPut func(n int)
	puts  int
}

func startCountGroup(t *testing.T, global domain.BBox, nservers int) *countGroup {
	t.Helper()
	cg := &countGroup{slotOf: map[string]int{}}
	tr := &tapTransport{Transport: transport.NewTCP()}
	tr.before = func(addr string, req any) {
		cg.mu.Lock()
		ev := wireEvent{slot: cg.slotOf[addr]}
		var hook func(int)
		switch r := req.(type) {
		case PutReq:
			ev.kind, ev.deferred = "PutReq", r.Defer
			cg.puts++
			hook = cg.onPut
		case GetReq:
			ev.kind = "GetReq"
		case CheckpointReq:
			ev.kind = "CheckpointReq"
		case ReplApplyReq:
			ev.kind, ev.slot, ev.records = "ReplApplyReq", r.Slot, len(r.Records)
			if len(r.Records) > 0 {
				ev.seq = r.Records[0].Seq
			}
		default:
			cg.mu.Unlock()
			return
		}
		cg.events = append(cg.events, ev)
		n := cg.puts
		cg.mu.Unlock()
		if hook != nil {
			hook(n)
		}
	}
	tr.after = func(_ string, req, resp any) {
		if r, ok := resp.(ReplApplyResp); ok && r.NeedSnapshot {
			t.Errorf("replica answered %T with NeedSnapshot: the stream has a gap", req)
		}
	}
	g, err := StartGroup(tr, "127.0.0.1:0", Config{Global: global, NServers: nservers, Bits: 2, ElemSize: 8, WlogReplicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	cg.mu.Lock()
	defer cg.mu.Unlock()
	cg.Group = g
	for i, a := range g.Addrs() {
		cg.slotOf[a] = i
	}
	return cg
}

func (cg *countGroup) client(t *testing.T, app string) *Client {
	t.Helper()
	c, err := cg.NewClient(app)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// take returns the events since the last take, and resets the tap.
func (cg *countGroup) take() []wireEvent {
	cg.mu.Lock()
	defer cg.mu.Unlock()
	out := cg.events
	cg.events, cg.puts = nil, 0
	return out
}

// batches returns, per origin slot, the record counts of the
// ReplApplyReq batches in evs, in order.
func batches(evs []wireEvent, nservers int) [][]int {
	out := make([][]int, nservers)
	for _, e := range evs {
		if e.kind == "ReplApplyReq" {
			out[e.slot] = append(out[e.slot], e.records)
		}
	}
	return out
}

func count(evs []wireEvent, kind string) int {
	n := 0
	for _, e := range evs {
		if e.kind == kind {
			n++
		}
	}
	return n
}

// mirrored checks every origin's replica holds exactly the origin's
// stream: same position, same log, byte for byte.
func (cg *countGroup) mirrored(t *testing.T, nservers int) {
	t.Helper()
	for id := 0; id < nservers; id++ {
		own, err := cg.Server(id).buildReplState()
		if err != nil {
			t.Fatal(err)
		}
		rep := fetchReplica(t, cg.Server((id+1)%nservers), id)
		if rep.Seq != own.Seq || !bytes.Equal(rep.Wlog, own.Wlog) || len(rep.Objects) != len(own.Objects) {
			t.Fatalf("server %d: replica at seq %d with %d objects, origin at %d with %d (or logs differ)",
				id, rep.Seq, len(rep.Objects), own.Seq, len(own.Objects))
		}
	}
}

// TestReplicaRPCCounts: the number of ReplApplyReq a client operation
// costs repeats exactly, so it is asserted exactly. One rank put over
// the whole domain per geometry, after a warm-up put that takes the
// peers' first-contact re-sync out of the count.
func TestReplicaRPCCounts(t *testing.T) {
	for _, tc := range []struct {
		name      string
		global    domain.BBox
		nservers  int
		perServer int   // pieces of a whole-domain put on each server
		want      []int // records per ReplApplyReq, per server
	}{
		// Everything but the run's last piece is deferred.
		{"8x2KiB", domain.Box3(0, 0, 0, 31, 31, 15), 8, 8, []int{8}},
		// The piece that would take the held payload past 64 KiB
		// flushes: pieces 5, 10, 15, and the last.
		{"16x16KiB", domain.Box3(0, 0, 0, 63, 63, 31), 4, 16, []int{5, 5, 5, 1}},
		// A 128 KiB piece is over the budget alone: nothing defers.
		{"8x128KiB", domain.Box3(0, 0, 0, 127, 127, 63), 8, 8, []int{1, 1, 1, 1, 1, 1, 1, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cg := startCountGroup(t, tc.global, tc.nservers)
			prod, cons := cg.client(t, "sim/0"), cg.client(t, "ana/0")
			data := fill(domain.BufLen(tc.global, 8), 1)
			if err := prod.PutWithLog("field", 1, tc.global, data); err != nil {
				t.Fatal(err)
			}
			cg.take()

			if err := prod.PutWithLog("field", 2, tc.global, data); err != nil {
				t.Fatal(err)
			}
			evs := cg.take()
			if got := count(evs, "PutReq"); got != tc.nservers*tc.perServer {
				t.Fatalf("logged put: %d PutReq, want %d x %d", got, tc.nservers, tc.perServer)
			}
			for s, got := range batches(evs, tc.nservers) {
				if !reflect.DeepEqual(got, tc.want) {
					t.Errorf("logged put, server %d: ReplApplyReq batches %v, want %v", s, got, tc.want)
				}
			}
			if len(tc.want) == tc.perServer {
				// Nothing deferred: the message sequence is the one of
				// per-piece replication — each piece, then its record.
				for i, e := range evs {
					if want := [...]string{"PutReq", "ReplApplyReq"}[i%2]; e.kind != want || e.deferred {
						t.Fatalf("event %d = %+v, want an undeferred %s", i, e, want)
					}
				}
			}
			cg.mirrored(t, tc.nservers)

			if err := prod.Put("plain", 1, tc.global, data); err != nil {
				t.Fatal(err)
			}
			evs = cg.take()
			for _, e := range evs {
				if e.kind != "PutReq" || e.deferred {
					t.Fatalf("unlogged put issued %+v", e)
				}
			}
			if len(evs) != tc.nservers*tc.perServer {
				t.Fatalf("unlogged put: %d PutReq, want %d", len(evs), tc.nservers*tc.perServer)
			}

			if _, _, err := cons.GetWithLog("field", 2, tc.global); err != nil {
				t.Fatal(err)
			}
			evs = cg.take()
			if g, r := count(evs, "GetReq"), count(evs, "ReplApplyReq"); g != tc.nservers || r != tc.nservers {
				t.Fatalf("logged get: %d GetReq, %d ReplApplyReq, want %d of each", g, r, tc.nservers)
			}
			if _, err := cons.WorkflowCheck(); err != nil {
				t.Fatal(err)
			}
			evs = cg.take()
			if c, r := count(evs, "CheckpointReq"), count(evs, "ReplApplyReq"); c != tc.nservers || r != tc.nservers {
				t.Fatalf("workflow_check: %d CheckpointReq, %d ReplApplyReq, want %d of each", c, r, tc.nservers)
			}
			for s, got := range batches(evs, tc.nservers) {
				if !reflect.DeepEqual(got, []int{1}) {
					t.Errorf("workflow_check, server %d: batches %v, want one record", s, got)
				}
			}
		})
	}
}

// TestFirstContactShipsOnce: a peer the origin has to ask first — on
// first contact, and after it lost its replica — costs one record-less
// ReplApplyReq, and every record then reaches it in exactly one request:
// what heals it and what is new travel together, nothing is sent for the
// replica to drop as a duplicate.
func TestFirstContactShipsOnce(t *testing.T) {
	global := domain.Box3(0, 0, 0, 127, 127, 63) // 8 x 128 KiB a server: every piece flushes
	const nservers = 8
	cg := startCountGroup(t, global, nservers)
	prod := cg.client(t, "sim/0")
	data := fill(domain.BufLen(global, 8), 1)
	shipsOnce := func(when string, version int64) {
		t.Helper()
		if err := prod.PutWithLog("field", version, global, data); err != nil {
			t.Fatal(err)
		}
		evs := cg.take()
		asks, last := make([]int, nservers), make([]int64, nservers)
		for _, e := range evs {
			switch {
			case e.kind != "ReplApplyReq":
			case e.records == 0:
				asks[e.slot]++
			case e.seq <= last[e.slot]:
				t.Errorf("%s, origin %d: seq %d sent again after seq %d (batches %v)",
					when, e.slot, e.seq, last[e.slot], batches(evs, nservers)[e.slot])
			default:
				last[e.slot] = e.seq + int64(e.records) - 1
			}
		}
		for s, n := range asks {
			if n > 1 {
				t.Errorf("%s, origin %d: %d record-less ReplApplyReq, want at most one", when, s, n)
			}
		}
		if last[0] != cg.Server(0).repl.position() {
			t.Errorf("%s: origin 0 sent up to seq %d of %d", when, last[0], cg.Server(0).repl.position())
		}
		cg.mirrored(t, nservers)
	}
	shipsOnce("first contact", 1)
	dropReplica(cg.Group)
	shipsOnce("after a lost replica", 2)
}

// TestLaggingAndInStepPeersShareOneShip: with K=2, one peer in step and
// one that missed two ships, a single ship sends the first exactly the
// new record and the second — asked once — its own suffix, in one
// request each.
func TestLaggingAndInStepPeersShareOneShip(t *testing.T) {
	type sent struct {
		addr string
		seqs []int64
	}
	var (
		mu   sync.Mutex
		dark string // calls to this address fail
		wire []sent
	)
	tr := &tapTransport{Transport: transport.NewInProc()}
	tr.drop = func(addr string, req any) bool {
		r, ok := req.(ReplApplyReq)
		mu.Lock()
		defer mu.Unlock()
		if !ok || addr == dark {
			return ok
		}
		ev := sent{addr: addr}
		for _, rec := range r.Records {
			ev.seqs = append(ev.seqs, rec.Seq)
		}
		wire = append(wire, ev)
		return false
	}
	g, err := StartGroup(tr, "stage", Config{
		Global: domain.Box3(0, 0, 0, 63, 63, 31), NServers: 3, Bits: 2, ElemSize: 8, WlogReplicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	origin, inStep, lagging := g.Server(0), g.Addrs()[1], g.Addrs()[2]
	ship := func() { origin.repl.flush(origin.repl.enqueue(ReplRecord{})) }
	setDark := func(addr string) {
		mu.Lock()
		dark, wire = addr, nil
		mu.Unlock()
	}
	ship() // 1: first contact, both peers
	setDark(lagging)
	ship() // 2 and 3 reach the peer in step only
	ship()
	setDark("")
	ship() // 4
	mu.Lock()
	defer mu.Unlock()
	want := []sent{{inStep, []int64{4}}, {lagging, nil}, {lagging, []int64{2, 3, 4}}}
	if !reflect.DeepEqual(wire, want) {
		t.Fatalf("one ship sent %v, want %v", wire, want)
	}
	for _, host := range []int{1, 2} {
		if rep := fetchReplica(t, g.Server(host), 0); rep.Seq != 4 {
			t.Fatalf("replica on server %d at seq %d, want 4", host, rep.Seq)
		}
	}
	if d, sn, e := counter(origin, "repl_delta_resyncs"), counter(origin, "repl_snapshots_sent"), counter(origin, "repl_peer_errors"); d != 1 || sn != 0 || e != 2 {
		t.Fatalf("%d delta re-syncs, %d snapshots, %d peer errors, want 1, 0 and 2", d, sn, e)
	}
}

// TestLostAckIsNotAnotherHistory: a batch the peer applied but whose
// answer was lost leaves the peer ahead of what it ever acknowledged —
// not ahead of what this origin sent it. The next ship asks, finds the
// peer in step and sends the new record alone; only a position beyond
// everything sent is another incarnation's (TestPeerAheadOfOriginIsReseeded).
func TestLostAckIsNotAnotherHistory(t *testing.T) {
	var (
		mu     sync.Mutex
		losing bool
		wire   [][]int64
	)
	tr := &tapTransport{Transport: transport.NewInProc()}
	tr.lose = func(_ string, req any) bool {
		r, ok := req.(ReplApplyReq)
		mu.Lock()
		defer mu.Unlock()
		if !ok {
			return false
		}
		var seqs []int64
		for _, rec := range r.Records {
			seqs = append(seqs, rec.Seq)
		}
		wire = append(wire, seqs)
		return losing
	}
	g, err := StartGroup(tr, "stage", Config{
		Global: domain.Box3(0, 0, 0, 63, 63, 31), NServers: 2, Bits: 2, ElemSize: 8, WlogReplicas: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	origin := g.Server(0)
	ship := func(lose bool) {
		mu.Lock()
		losing = lose
		mu.Unlock()
		origin.repl.flush(origin.repl.enqueue(ReplRecord{}))
	}
	ship(false) // 1: first contact
	ship(true)  // 2 arrives, its answer does not
	ship(false) // 3
	mu.Lock()
	defer mu.Unlock()
	if want := [][]int64{nil, {1}, {2}, nil, {3}}; !reflect.DeepEqual(wire, want) {
		t.Fatalf("the stream sent %v, want %v", wire, want)
	}
	if sn, e := counter(origin, "repl_snapshots_sent"), counter(origin, "repl_peer_errors"); sn != 0 || e != 1 {
		t.Fatalf("%d snapshots, %d peer errors, want 0 and 1", sn, e)
	}
	if rep := fetchReplica(t, g.Server(1), 0); rep.Seq != 3 {
		t.Fatalf("replica at seq %d, want 3", rep.Seq)
	}
}

// TestShipErrorKeepsTheClient: a ship whose call to the replica peer
// fails forgets the peer's cursor and nothing else. The next ship asks
// the peer where it is — one record-less ReplApplyReq — and sends what
// it missed, over the client it already has: the origin dials no peer
// again.
func TestShipErrorKeepsTheClient(t *testing.T) {
	var (
		mu    sync.Mutex
		dark  bool
		wire  [][]int64
		dials = map[string]int{}
	)
	tr := &tapTransport{Transport: transport.NewInProc()}
	tr.drop = func(_ string, req any) bool {
		r, ok := req.(ReplApplyReq)
		mu.Lock()
		defer mu.Unlock()
		if !ok || r.Slot != 0 {
			return false
		}
		var seqs []int64
		for _, rec := range r.Records {
			seqs = append(seqs, rec.Seq)
		}
		wire = append(wire, seqs)
		return dark
	}
	tr.dialed = func(addr string) {
		mu.Lock()
		dials[addr]++
		mu.Unlock()
	}
	g, err := StartGroup(tr, "stage", Config{
		Global: domain.Box3(0, 0, 0, 63, 63, 31), NServers: 2, Bits: 2, ElemSize: 8, WlogReplicas: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	origin, peer := g.Server(0), g.Addrs()[1]
	ship := func(fail bool) {
		mu.Lock()
		dark = fail
		mu.Unlock()
		origin.repl.flush(origin.repl.enqueue(ReplRecord{}))
	}
	ship(false) // 1: first contact
	mu.Lock()
	dialled := dials[peer]
	mu.Unlock()
	ship(true) // 2: the call fails
	ship(false)
	mu.Lock()
	defer mu.Unlock()
	if want := [][]int64{nil, {1}, {2}, nil, {2, 3}}; !reflect.DeepEqual(wire, want) {
		t.Fatalf("the stream sent %v, want %v", wire, want)
	}
	if dialled != 1 || dials[peer] != dialled {
		t.Fatalf("the peer was dialled %d times for first contact and %d after the failed call, want once and never", dialled, dials[peer]-dialled)
	}
	if e := counter(origin, "repl_peer_errors"); e != 1 {
		t.Fatalf("%d peer errors, want 1", e)
	}
	if rep := fetchReplica(t, g.Server(1), 0); rep.Seq != 3 {
		t.Fatalf("replica at seq %d, want 3", rep.Seq)
	}
}

// TestInterleavedFlushShipsHeldRecords: any client's flush ships
// everything the stream holds, in stream order — a consumer's logged get
// arriving between two deferred pieces of a producer's put carries the
// producer's held records to the replica ahead of its own.
func TestInterleavedFlushShipsHeldRecords(t *testing.T) {
	global := domain.Box3(0, 0, 0, 31, 31, 15)
	const nservers, perServer = 8, 8
	cg := startCountGroup(t, global, nservers)
	prod, cons := cg.client(t, "sim/0"), cg.client(t, "ana/0")
	data := fill(domain.BufLen(global, 8), 1)
	if err := prod.PutWithLog("field", 1, global, data); err != nil {
		t.Fatal(err)
	}
	cg.take()
	first := prod.pool.index.ServersFor(global)[0]
	cg.mu.Lock()
	cg.onPut = func(n int) {
		if n != 4 {
			return
		}
		// Three pieces of v2 are held on the first server of the run.
		got, _, err := cons.GetWithLog("field", 1, global)
		if err != nil || !bytes.Equal(got, data) {
			t.Errorf("interleaved get: %v", err)
		}
	}
	cg.mu.Unlock()
	if err := prod.PutWithLog("field", 2, global, data); err != nil {
		t.Fatal(err)
	}
	got := batches(cg.take(), nservers)
	for s := range got {
		want := []int{1, perServer} // the get's record, then the put's run
		if s == first {
			want = []int{3 + 1, perServer - 3}
		}
		if !reflect.DeepEqual(got[s], want) {
			t.Errorf("server %d: ReplApplyReq batches %v, want %v", s, got[s], want)
		}
	}
	cg.mirrored(t, nservers)
}

// TestConcurrentFlushersShipInOrder: there is no sender goroutine — the
// flusher that finds records unshipped ships them itself — so however
// many handlers enqueue and flush at once there is one shipper at a
// time over the FIFO queue: every record leaves exactly once, in
// sequence order across ReplApplyReqs, and no flush returns before the
// replica has answered for its record.
func TestConcurrentFlushersShipInOrder(t *testing.T) {
	const flushers, perFlusher = 16, 50
	var (
		mu        sync.Mutex
		recording bool
		seqs      []int64 // every record of every ReplApplyReq, in wire order
		acked     atomic.Int64
	)
	tr := &tapTransport{Transport: transport.NewInProc()}
	tr.before = func(_ string, req any) {
		r, ok := req.(ReplApplyReq)
		mu.Lock()
		defer mu.Unlock()
		if !ok || !recording {
			return
		}
		for _, rec := range r.Records {
			seqs = append(seqs, rec.Seq)
		}
		runtime.Gosched() // room for a second shipper, were there one
	}
	tr.after = func(_ string, req, resp any) {
		if r, ok := req.(ReplApplyReq); ok && len(r.Records) > 0 {
			if resp.(ReplApplyResp).NeedSnapshot {
				t.Error("replica answered NeedSnapshot: the stream has a gap")
			}
			acked.Store(r.Records[len(r.Records)-1].Seq) // one shipper at a time: never backwards
		}
	}
	g, err := StartGroup(tr, "stage", Config{
		Global: domain.Box3(0, 0, 0, 63, 63, 31), NServers: 2, Bits: 2, ElemSize: 8, WlogReplicas: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	repl := g.Server(0).repl
	// The peer's first contact costs a record-less request; take it out
	// of the count.
	repl.flush(repl.enqueue(ReplRecord{}))
	mu.Lock()
	recording = true
	mu.Unlock()

	var wg sync.WaitGroup
	for f := 0; f < flushers; f++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perFlusher; i++ {
				seq := repl.enqueue(ReplRecord{})
				if i%3 == 2 {
					continue // held, as a deferred piece is: a later flush carries it
				}
				repl.flush(seq)
				if got := acked.Load(); got < seq {
					t.Errorf("flush(%d) returned with the replica at %d", seq, got)
				}
			}
		}()
	}
	wg.Wait()
	repl.flush(repl.position())

	mu.Lock()
	defer mu.Unlock()
	if len(seqs) != flushers*perFlusher {
		t.Fatalf("%d records shipped, want %d", len(seqs), flushers*perFlusher)
	}
	for i, seq := range seqs {
		if want := int64(i) + 2; seq != want { // 1 was the warm-up
			t.Fatalf("record %d on the wire has seq %d, want %d", i, seq, want)
		}
	}
	if rep := fetchReplica(t, g.Server(1), 0); rep.Seq != repl.position() {
		t.Fatalf("replica at seq %d, origin at %d", rep.Seq, repl.position())
	}
	if lag := repl.lag(); lag != 0 {
		t.Fatalf("lag %d with everything shipped", lag)
	}
}
