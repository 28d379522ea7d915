package transport

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"
)

// Chaos is a fault-injecting middleware Transport: it wraps any inner
// Transport and perturbs the client side with call latency, dropped
// responses, connection kills, and per-server blackouts. Faults are
// armed by address: a blackout, delay or drop window holds until its
// absolute expiry (Blackout, Delay, Drop), and optional per-call
// probabilistic faults apply to every address (SetCallFaults). The
// server side can inject handler latency and hangs (SetServeFaults),
// which stagingd exposes as flags so clients can be tested against a
// live faulty daemon.
//
// Dropped responses are modelled after the receive: the inner call
// completes (the server did the work) and Chaos discards the result,
// returning ErrTimeout — exactly what a client sees when the response
// frame is lost. Blackouts fail calls and dials with ErrNoEndpoint, the
// same class a crashed-and-restarting server produces.
//
// With the multiplexed TCP transport each Call maps to exactly one
// request frame and one response frame, so these call-scoped faults are
// frame-scoped: concurrent calls sharing a connection are delayed and
// dropped independently, while KillConns breaks the shared stream and
// hits every in-flight frame at once — the two fault granularities the
// mux design distinguishes.
type Chaos struct {
	inner Transport

	mu      sync.Mutex
	rng     *rand.Rand
	windows map[string]windows // keyed by address
	clients map[string][]*chaosClient

	// per-call probabilistic faults (client side)
	delayProb float64
	delay     time.Duration
	dropProb  float64

	// server-side handler faults
	serveDelayProb float64
	serveDelay     time.Duration
	serveHangProb  float64
	serveHang      time.Duration
}

// The fault windows one address can hold, indexing windows.until.
const (
	winBlackout = iota
	winDelay
	winDrop
	nWindows
)

// windows is one address's armed fault windows: each holds until its
// expiry, and a delay window adds perCall to every call.
type windows struct {
	until   [nWindows]time.Time
	perCall time.Duration
}

// NewChaos wraps inner with a fault injector seeded for deterministic
// probabilistic faults. With no faults armed it is a transparent proxy.
func NewChaos(inner Transport, seed int64) *Chaos {
	return &Chaos{
		inner:   inner,
		rng:     rand.New(rand.NewSource(seed)),
		windows: make(map[string]windows),
		clients: make(map[string][]*chaosClient),
	}
}

// SetCallFaults arms client-side probabilistic faults: each call is
// delayed by delay with probability delayProb and its response dropped
// (ErrTimeout after the server processed it) with probability dropProb.
func (c *Chaos) SetCallFaults(delayProb float64, delay time.Duration, dropProb float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.delayProb, c.delay, c.dropProb = delayProb, delay, dropProb
}

// SetServeFaults arms server-side handler faults: each handled request
// is delayed by delay with probability delayProb, and hangs for hang
// with probability hangProb (long enough hangs turn into client
// timeouts, i.e. dropped responses as seen from the wire).
func (c *Chaos) SetServeFaults(delayProb float64, delay time.Duration, hangProb float64, hang time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.serveDelayProb, c.serveDelay = delayProb, delay
	c.serveHangProb, c.serveHang = hangProb, hang
}

// Blackout blacks out addr for d, as a crashed-and-restarting server
// would: dials and calls fail with ErrNoEndpoint, then the address
// recovers.
func (c *Chaos) Blackout(addr string, d time.Duration) { c.arm(addr, winBlackout, d) }

// Delay slows every call to addr for d, adding d/4 to each.
func (c *Chaos) Delay(addr string, d time.Duration) { c.arm(addr, winDelay, d) }

// Drop loses every response from addr for d: the server does the work
// and the client sees ErrTimeout.
func (c *Chaos) Drop(addr string, d time.Duration) { c.arm(addr, winDrop, d) }

// arm opens window w on addr until d from now; a window already open
// past that keeps its expiry.
func (c *Chaos) arm(addr string, w int, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ws := c.windows[addr]
	if until := ClockOf(c.inner).Now().Add(d); until.After(ws.until[w]) {
		ws.until[w] = until
	}
	if w == winDelay {
		ws.perCall = d / 4
	}
	c.windows[addr] = ws
}

// Unwrap returns the wrapped transport.
func (c *Chaos) Unwrap() Transport { return c.inner }

// KillConns aborts every live connection to addr: in-flight calls fail
// with ErrConnBroken and the clients re-dial on their next call.
func (c *Chaos) KillConns(addr string) {
	c.mu.Lock()
	conns := append([]*chaosClient(nil), c.clients[addr]...)
	c.mu.Unlock()
	for _, cc := range conns {
		cc.abort()
	}
}

// faults evaluates the active fault state for one call to addr.
func (c *Chaos) faults(addr string) (black bool, delay time.Duration, drop bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := ClockOf(c.inner).Now()
	ws := c.windows[addr]
	black = now.Before(ws.until[winBlackout])
	if now.Before(ws.until[winDelay]) {
		delay = ws.perCall
	}
	drop = now.Before(ws.until[winDrop])
	if c.delayProb > 0 && c.rng.Float64() < c.delayProb {
		delay += c.delay
	}
	if c.dropProb > 0 && c.rng.Float64() < c.dropProb {
		drop = true
	}
	return black, delay, drop
}

// Listen implements Transport; the handler is wrapped with the armed
// server-side faults.
func (c *Chaos) Listen(addr string, h Handler) (io.Closer, error) {
	wrapped := func(req any) (any, error) {
		c.mu.Lock()
		var sleep time.Duration
		if c.serveDelayProb > 0 && c.rng.Float64() < c.serveDelayProb {
			sleep += c.serveDelay
		}
		if c.serveHangProb > 0 && c.rng.Float64() < c.serveHangProb {
			sleep += c.serveHang
		}
		c.mu.Unlock()
		if sleep > 0 {
			ClockOf(c.inner).Sleep(sleep)
		}
		return h(req)
	}
	return c.inner.Listen(addr, wrapped)
}

// Dial implements Transport. Dialing a blacked-out address fails with
// ErrNoEndpoint, like a crashed server.
func (c *Chaos) Dial(addr string) (Client, error) {
	if black, _, _ := c.faults(addr); black {
		return nil, fmt.Errorf("%w: %q: chaos blackout", ErrNoEndpoint, addr)
	}
	inner, err := c.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	cc := &chaosClient{c: c, addr: addr, inner: inner}
	c.mu.Lock()
	c.clients[addr] = append(c.clients[addr], cc)
	c.mu.Unlock()
	return cc, nil
}

type chaosClient struct {
	c     *Chaos
	addr  string
	inner Client
}

func (cc *chaosClient) Call(req any) (any, error) {
	black, delay, drop := cc.c.faults(cc.addr)
	if black {
		return nil, fmt.Errorf("%w: %q: chaos blackout", ErrNoEndpoint, cc.addr)
	}
	if delay > 0 {
		ClockOf(cc.c.inner).Sleep(delay)
	}
	resp, err := cc.inner.Call(req)
	if err != nil {
		return resp, err
	}
	if drop {
		return nil, fmt.Errorf("%w: %q: chaos dropped response", ErrTimeout, cc.addr)
	}
	return resp, nil
}

// abort kills the underlying connection if the inner client supports it
// (the TCP client does); in-proc clients have no connection to kill.
func (cc *chaosClient) abort() {
	if a, ok := cc.inner.(interface{ Abort() }); ok {
		a.Abort()
	}
}

func (cc *chaosClient) Close() error {
	cc.c.mu.Lock()
	live := cc.c.clients[cc.addr]
	for i, other := range live {
		if other == cc {
			cc.c.clients[cc.addr] = append(live[:i], live[i+1:]...)
			break
		}
	}
	cc.c.mu.Unlock()
	return cc.inner.Close()
}
