package recovery

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"gospaces/internal/domain"
	"gospaces/internal/staging"
	"gospaces/internal/transport"
	"gospaces/internal/wlog"
)

// The tests in this file kill a staging server inside a rank put: at
// every piece boundary of the victim's run, where the pieces before the
// boundary were acknowledged Deferred and their records are on no
// replica. PutWithLog returning nil must still mean every piece is on
// every reachable replica. There is no clock in the schedule: the kill
// happens synchronously in the transport, on the message it names.

// killTransport decorates a Transport for one scenario. Armed, it
// fail-stops the victim and waits out the promotion right before it
// forwards the killAt-th PutReq addressed to the victim; until then it
// parks every ReplApplyReq the victim's slot originates (when park is
// set), so nothing the victim acknowledged during the put can have
// reached a replica. It records what it sees for the assertions.
type killTransport struct {
	transport.Transport
	gate chan struct{} // closed at cleanup: releases parked calls

	mu                    sync.Mutex
	h                     *harness
	victim                int
	victimAddr, spareAddr string
	killAt                int // 0: disarmed
	park                  bool
	killErr               error
	sent                  int             // PutReq to the victim since arm
	parked                int             // ReplApplyReq parked
	order                 []domain.BBox   // v2 pieces sent to the victim's slot, first sends only
	seen                  map[string]bool // bboxes in order
	phase                 string
	resps                 map[string][]staging.PutResp // by phase
	victimDeferred        int                          // Deferred acks of the victim
}

// Unwrap exposes the decorated transport, whose clock the world runs on.
func (k *killTransport) Unwrap() transport.Transport { return k.Transport }

type killClient struct {
	transport.Client
	t    *killTransport
	addr string
}

func (k *killTransport) Dial(addr string) (transport.Client, error) {
	c, err := k.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &killClient{Client: c, t: k, addr: addr}, nil
}

func (c *killClient) Call(req any) (any, error) {
	k := c.t
	inner := req
	if e, ok := inner.(staging.EpochReq); ok {
		inner = e.Req
	}
	switch r := inner.(type) {
	case staging.ReplApplyReq:
		k.mu.Lock()
		park := k.park && r.Slot == k.victim
		if park {
			k.parked++
		}
		k.mu.Unlock()
		if park {
			<-k.gate
		}
	case staging.PutReq:
		k.mu.Lock()
		if key := fmt.Sprint(r.Piece.BBox); r.Version == 2 && (c.addr == k.victimAddr || c.addr == k.spareAddr) && !k.seen[key] {
			k.seen[key] = true
			k.order = append(k.order, r.Piece.BBox)
		}
		if k.killAt > 0 && c.addr == k.victimAddr {
			if k.sent++; k.sent == k.killAt {
				// The client is blocked right here, so nothing else moves:
				// the victim dies between two pieces, the spare is promoted
				// from what the replicas hold at this instant, and only
				// then does the piece go out — to a dead address.
				k.killAt, k.park = 0, false
				k.mu.Unlock()
				err := k.h.g.FailStop(k.victim)
				if err == nil {
					err = k.h.waitIdle()
				}
				k.mu.Lock()
				k.killErr = err
			}
		}
		k.mu.Unlock()
	}
	resp, err := c.Client.Call(req)
	if pr, ok := resp.(staging.PutResp); ok && err == nil {
		k.mu.Lock()
		k.resps[k.phase] = append(k.resps[k.phase], pr)
		if pr.Deferred && c.addr == k.victimAddr {
			k.victimDeferred++
		}
		k.mu.Unlock()
	}
	return resp, err
}

// arm schedules the kill before the killAt-th PutReq to the victim from
// now, and names the bucket PutResps are recorded under from now.
func (k *killTransport) arm(phase string, killAt int, park bool) {
	k.mu.Lock()
	k.phase, k.killAt, k.park, k.sent, k.victimDeferred = phase, killAt, park, 0, 0
	k.mu.Unlock()
}

// tally counts the PutResps of a phase: all, Deferred, Suppressed.
func (k *killTransport) tally(phase string) (n, deferred, suppressed int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	for _, r := range k.resps[phase] {
		n++
		if r.Deferred {
			deferred++
		}
		if r.Suppressed {
			suppressed++
		}
	}
	return
}

// putKillPieces is what a whole-domain rank put splits into under the
// harness configuration below: a 64x64 field of 8-byte cells over 3
// servers is 16 pieces of 2 KiB, five or six a server, so every piece
// of a server's run but the last is deferred.
const putKillPieces = 16

func startPutKill(t *testing.T, victim int) (*harness, *killTransport) {
	t.Helper()
	k := &killTransport{
		Transport: manualWorld(), gate: make(chan struct{}), victim: victim,
		seen: map[string]bool{}, resps: map[string][]staging.PutResp{},
	}
	cfg := replGroupConfig(3, 1)
	cfg.ElemSize = 8
	h := startHarnessOn(t, k, cfg)
	t.Cleanup(func() { close(k.gate) }) // before the harness closes the group
	k.mu.Lock()
	k.h, k.victimAddr, k.spareAddr = h, h.g.Pool.View().Addrs[victim], h.g.Spares()[0]
	k.mu.Unlock()
	return h, k
}

// put and get are the script's logged put by the producer and
// byte-checked logged get by the consumer, fatal on any error (a replay
// divergence included).
func (h *harness) put(t *testing.T, ver int64) { t.Helper(); h.mustExec(t, wfOp{prod: true, ver: ver}) }
func (h *harness) get(t *testing.T, ver int64) { t.Helper(); h.mustExec(t, wfOp{ver: ver}) }

func (h *harness) mustExec(t *testing.T, o wfOp) {
	t.Helper()
	if err := h.exec(o); err != nil {
		t.Fatalf("%+v: %v", o, err)
	}
}

// replicaPuts has the replica of slot on its membership successor
// installed on a stand-in spare that keeps what it is sent, and returns
// the bboxes of app's logged v2 puts, in log order.
func (h *harness) replicaPuts(t *testing.T, slot int, app string) []domain.BBox {
	t.Helper()
	const standIn = "stage/stand-in"
	var got staging.ReplState
	closer, err := h.tr.Listen(standIn, func(req any) (any, error) {
		got = req.(staging.FencedReq).Req.(staging.WlogInstallReq).State
		return staging.WlogInstallResp{Records: got.Seq}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	addrs := h.g.Pool.View().Addrs
	conn, err := h.tr.Dial(addrs[(slot+1)%len(addrs)])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	raw, err := conn.Call(staging.FencedReq{Token: h.sup.Token(), Req: staging.ReplFetchReq{Slot: slot, InstallOn: standIn}})
	if err != nil {
		t.Fatal(err)
	}
	if resp, ok := raw.(staging.ReplFetchResp); !ok || !resp.Found {
		t.Fatalf("replica of slot %d: %+v", slot, raw)
	}
	log := wlog.New()
	if err := log.Restore(got.Wlog); err != nil {
		t.Fatal(err)
	}
	var out []domain.BBox
	for _, e := range log.OnRecovery(app) {
		if e.Kind == wlog.KindPut && e.Version == 2 {
			out = append(out, e.BBox)
		}
	}
	return out
}

func (h *harness) restoredOnce(t *testing.T) {
	t.Helper()
	if n := h.sup.Metrics().Counter("recovery.log_restores").Value(); n != 1 {
		t.Fatalf("recovery.log_restores = %d, want 1", n)
	}
	if n := h.sup.Metrics().Counter("recovery.log_missing").Value(); n != 0 {
		t.Fatalf("recovery.log_missing = %d, want 0", n)
	}
}

// runKillInsidePut kills victim right before the killAt-th piece of put
// v2 addressed to it.
func runKillInsidePut(t *testing.T, victim, killAt int) {
	h, k := startPutKill(t, victim)
	h.put(t, 1)
	h.get(t, 1)

	k.arm("killed put", killAt, true)
	h.put(t, 2)
	k.mu.Lock()
	fired, killErr, parked, deferred := k.killAt == 0, k.killErr, k.parked, k.victimDeferred
	order := append([]domain.BBox(nil), k.order...)
	k.mu.Unlock()
	if !fired || killErr != nil {
		t.Fatalf("kill before piece %d: fired %v, err %v", killAt, fired, killErr)
	}
	// The victim acknowledged pieces 1..killAt-1 Deferred and shipped
	// nothing while the put ran: they were on no replica when it died.
	if parked != 0 || deferred != killAt-1 {
		t.Fatalf("the victim started %d ReplApplyReq and acked %d pieces Deferred, want 0 and %d", parked, deferred, killAt-1)
	}
	// The put returned nil all the same, and means it: the version reads
	// back through the promoted spare, and every piece is on the spare's
	// replica, once, in the order the client sent them.
	h.get(t, 2)
	if got := h.replicaPuts(t, victim, "sim/0"); !reflect.DeepEqual(got, order) {
		t.Fatalf("replica of the promoted slot logs v2 pieces\n%v\nthe client sent\n%v", got, order)
	}

	// A producer restart replays both puts: every piece, each exactly
	// once, is suppressed, which the replay cursor only does in log order.
	replay, err := h.prod.WorkflowRestart()
	if err != nil || replay != 2*putKillPieces {
		t.Fatalf("workflow_restart: %d events to replay, %v; want %d", replay, err, 2*putKillPieces)
	}
	k.arm("re-issue", 0, false)
	h.put(t, 1)
	h.put(t, 2)
	if n, deferred, suppressed := k.tally("re-issue"); n != 2*putKillPieces || suppressed != n || deferred != 0 {
		t.Fatalf("re-issued puts: %d pieces, %d suppressed, %d deferred; want %d, all, none", n, suppressed, deferred, 2*putKillPieces)
	}
	h.restoredOnce(t)
}

// TestKillInsidePut sweeps every victim and every piece boundary of its
// run of one rank put.
func TestKillInsidePut(t *testing.T) {
	for victim := 0; victim < 3; victim++ {
		// An unharmed run of the same put shows how many pieces the
		// victim gets: the DHT's split is not this test's to know.
		h, k := startPutKill(t, victim)
		h.put(t, 2)
		k.mu.Lock()
		pieces := len(k.order)
		k.mu.Unlock()
		if pieces < 2 {
			t.Fatalf("victim %d gets %d pieces of the put: no boundary with a deferred piece before it", victim, pieces)
		}
		for killAt := 1; killAt <= pieces; killAt++ {
			t.Run(fmt.Sprintf("victim=%d/piece=%d", victim, killAt), func(t *testing.T) {
				runKillInsidePut(t, victim, killAt)
			})
		}
	}
}

// TestKillInsideReplayedPut: the same kill while the producer is
// replaying, so the put's pieces are suppressed. A replaying app is
// never deferred — every cursor advance is flushed by the piece that
// made it, as before group commit — so the promoted spare's cursor is
// where the victim's was and the rest of the put is suppressed on it.
func TestKillInsideReplayedPut(t *testing.T) {
	for victim := 0; victim < 3; victim++ {
		for _, killAt := range []int{1, 3} {
			t.Run(fmt.Sprintf("victim=%d/piece=%d", victim, killAt), func(t *testing.T) {
				h, k := startPutKill(t, victim)
				h.put(t, 1)
				h.put(t, 2)
				if _, err := h.prod.WorkflowRestart(); err != nil {
					t.Fatal(err)
				}
				k.arm("replay", 0, false)
				h.put(t, 1)
				k.arm("replay", killAt, false)
				h.put(t, 2)
				k.mu.Lock()
				fired, killErr := k.killAt == 0, k.killErr
				k.mu.Unlock()
				if !fired || killErr != nil {
					t.Fatalf("kill before piece %d: fired %v, err %v", killAt, fired, killErr)
				}
				if n, deferred, suppressed := k.tally("replay"); n != 2*putKillPieces || suppressed != n || deferred != 0 {
					t.Fatalf("replayed puts: %d pieces, %d suppressed, %d deferred; want %d, all, none", n, suppressed, deferred, 2*putKillPieces)
				}
				// Replay is over: the workflow continues through the spare.
				h.put(t, 3)
				h.get(t, 3)
				h.restoredOnce(t)
			})
		}
	}
}
