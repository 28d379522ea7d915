package recovery

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gospaces/internal/health"
	"gospaces/internal/staging"
	"gospaces/internal/transport"
)

// dialTap decorates a transport: it counts dials per address and the
// clients still open, and can break every open client to an address:
// its next call fails as a broken connection and the one after it goes
// through, as a real client that re-dials underneath behaves.
type dialTap struct {
	transport.Transport

	mu    sync.Mutex
	dials map[string]int
	open  map[*tapConn]bool
}

type tapConn struct {
	transport.Client
	t      *dialTap
	addr   string
	broken atomic.Bool
}

func newDialTap(inner transport.Transport) *dialTap {
	return &dialTap{Transport: inner, dials: map[string]int{}, open: map[*tapConn]bool{}}
}

// Unwrap exposes the decorated transport, whose clock the world runs on.
func (t *dialTap) Unwrap() transport.Transport { return t.Transport }

func (t *dialTap) Dial(addr string) (transport.Client, error) {
	c, err := t.Transport.Dial(addr)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dials[addr]++
	if err != nil {
		return nil, err
	}
	tc := &tapConn{Client: c, t: t, addr: addr}
	t.open[tc] = true
	return tc, nil
}

func (c *tapConn) Call(req any) (any, error) {
	if c.broken.Swap(false) {
		return nil, fmt.Errorf("%w: %q: broken by the tap", transport.ErrConnBroken, c.addr)
	}
	return c.Client.Call(req)
}

func (c *tapConn) Close() error {
	c.t.mu.Lock()
	delete(c.t.open, c)
	c.t.mu.Unlock()
	return c.Client.Close()
}

// take returns the dials per address since the last take.
func (t *dialTap) take() map[string]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.dials
	t.dials = map[string]int{}
	return out
}

// openTo counts the open clients to addr ("" counts them all).
func (t *dialTap) openTo(addr string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for c := range t.open {
		if addr == "" || c.addr == addr {
			n++
		}
	}
	return n
}

func (t *dialTap) breakConns(addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for c := range t.open {
		if c.addr == addr {
			c.broken.Store(true)
		}
	}
}

// tappedGroup starts a four-server replicating group with one spare
// and one logged put (so a promotion installs a replica on the spare),
// and returns a started lone supervisor whose every dial goes through the returned tap. The
// detector probes over its own transport, on a clock that never moves:
// a death is handed to the supervisor by hand, and every dial the tap
// counts is the supervisor's.
func tappedGroup(t *testing.T) (*staging.Group, string, *dialTap, *Supervisor) {
	t.Helper()
	tr := manualWorld()
	cfg := replGroupConfig(4, 1)
	g, err := staging.StartGroup(tr, "stage", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	spare, err := g.AddSpare()
	if err != nil {
		t.Fatal(err)
	}
	prod, err := g.NewClient("sim/0")
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()
	if err := prod.PutWithLog("field", 1, cfg.Global, make([]byte, 64*64)); err != nil {
		t.Fatal(err)
	}

	tap := newDialTap(tr)
	det := health.NewDetector(tr, "supervisor/0", health.Config{Period: time.Hour, Timeout: 50 * time.Millisecond})
	sup := New(tap, det, g.Membership(), g, Config{})
	t.Cleanup(func() { sup.Close() })
	sup.Start()
	if !sup.IsLeader() {
		t.Fatal("a lone supervisor did not win the lease")
	}
	tap.take() // the election dialled every member once
	return g, spare, tap, sup
}

// checkDialsOnce fails unless dials has each address at most once and
// the spare exactly once.
func checkDialsOnce(t *testing.T, what string, dials map[string]int, spare string) {
	t.Helper()
	for addr, n := range dials {
		if n > 1 {
			t.Fatalf("%s dialled %s %d times, want at most once (all dials: %v)", what, addr, n, dials)
		}
	}
	if dials[spare] != 1 {
		t.Fatalf("%s dialled the spare %d times, want once (all dials: %v)", what, dials[spare], dials)
	}
}

// TestSupervisorKeepsOneConnPerMember: the supervisor keeps one client
// per member. A whole promotion — intents, positions, the fenced
// install, the view push and the intent clears — dials each member and
// the spare at most once (it used to dial per call, 16 times); a broken
// connection heals under the kept client with no supervisor re-dial;
// and Kill leaves no client open.
func TestSupervisorKeepsOneConnPerMember(t *testing.T) {
	g, spare, tap, sup := tappedGroup(t)
	killByHand(t, g, sup, 1)
	if n := sup.Metrics().Counter("recovery.log_restores").Value(); n != 1 {
		t.Fatalf("recovery.log_restores = %d, want 1", n)
	}
	checkDialsOnce(t, "one promotion", tap.take(), spare)

	member := g.Membership().Addr(0)
	tap.breakConns(member)
	if _, err := call[health.PingResp](sup, member, health.PingReq{}); err == nil {
		t.Fatal("the call over the broken connection went through")
	}
	if _, err := call[health.PingResp](sup, member, health.PingReq{}); err != nil {
		t.Fatalf("the call after the broken one: %v", err)
	}
	if n := tap.take()[member]; n != 0 {
		t.Fatalf("the supervisor re-dialled %s %d times after its connection broke, want none", member, n)
	}
	if n := tap.openTo(member); n != 1 {
		t.Fatalf("%d clients to %s open after its connection broke, want the kept one", n, member)
	}

	sup.Kill()
	if n := tap.openTo(""); n != 0 {
		t.Fatalf("%d of the supervisor's clients open after Kill", n)
	}
	sup.fetchIntents()
	if dials := tap.take(); len(dials) != 0 {
		t.Fatalf("a killed supervisor dialled %v", dials)
	}
}

// TestDetectorKeepsOneConnPerAddress: the detector keeps one client per
// probed address. Through a blackout long enough for a Dead verdict and
// the rejoin after it, the address is dialled once, on the first probe;
// a slot re-targeted by Watch dials its new address exactly once; and
// Close leaves no client open.
func TestDetectorKeepsOneConnPerAddress(t *testing.T) {
	tr := manualWorld()
	clk := manualOf(tr)
	for _, addr := range []string{"srv/0", "srv/1"} {
		closer, err := tr.Listen(addr, func(any) (any, error) { return health.PingResp{}, nil })
		if err != nil {
			t.Fatal(err)
		}
		defer closer.Close()
	}
	chaos := transport.NewChaos(tr, 1)
	tap := newDialTap(chaos)
	det := health.NewDetector(tap, "test/0", health.Config{Period: period, Timeout: 4 * period, SuspectAfter: 2, DeadAfter: 4})
	defer det.Close()
	det.Watch(0, "srv/0")
	events := det.Subscribe()
	det.Start()
	rounds := func(n int) {
		for i := 0; i < n; i++ {
			round := det.Round()
			clk.Advance(period)
			<-round
		}
	}

	rounds(1)
	chaos.Blackout("srv/0", 6*period) // the next five rounds miss
	rounds(8)
	var states []health.State
	for len(events) > 0 {
		states = append(states, (<-events).State)
	}
	if want := []health.State{health.Suspect, health.Dead, health.Alive}; !reflect.DeepEqual(states, want) {
		t.Fatalf("transitions %v through the blackout, want %v", states, want)
	}
	if dials := tap.take(); !reflect.DeepEqual(dials, map[string]int{"srv/0": 1}) {
		t.Fatalf("dials %v through a blackout and a rejoin, want srv/0 once", dials)
	}

	det.Watch(0, "srv/1")
	rounds(3)
	if dials := tap.take(); !reflect.DeepEqual(dials, map[string]int{"srv/1": 1}) {
		t.Fatalf("dials %v after the slot was re-targeted, want srv/1 once", dials)
	}
	det.Close()
	if n := tap.openTo(""); n != 0 {
		t.Fatalf("%d of the detector's clients open after Close", n)
	}
}
