package recovery

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gospaces/internal/health"
	"gospaces/internal/staging"
	"gospaces/internal/transport"
)

// dialTap decorates the supervisor's transport: it counts dials per
// address and the clients still open, and can break every open client
// to an address, whose next call then fails as a broken connection.
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
	if c.broken.Load() {
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
// the spare at most once (it used to dial per call, 16 times); a client whose connection broke is dropped
// and the member re-dialled on the next call; and Kill leaves no client
// open.
func TestSupervisorKeepsOneConnPerMember(t *testing.T) {
	g, spare, tap, sup := tappedGroup(t)
	killByHand(t, g, sup, 1)
	if n := sup.Metrics().Counter("recovery.log_restores").Value(); n != 1 {
		t.Fatalf("recovery.log_restores = %d, want 1", n)
	}
	checkDialsOnce(t, "one promotion", tap.take(), spare)

	member := g.Membership().Addr(0)
	tap.breakConns(member)
	sup.fetchIntents() // the call to member fails and drops its client
	if n := tap.openTo(member); n != 0 {
		t.Fatalf("%d clients to %s still open after its connection broke", n, member)
	}
	sup.fetchIntents()
	if n := tap.take()[member]; n != 1 {
		t.Fatalf("%s re-dialled %d times after its connection broke, want once", member, n)
	}
	if n := tap.openTo(member); n != 1 {
		t.Fatalf("%d clients to %s open after the re-dial, want 1", n, member)
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
