// Package transport carries the staging protocol between application
// clients and staging servers. Two interchangeable implementations are
// provided: an in-process transport (direct dispatch, used by tests,
// benchmarks, and single-binary deployments) and a TCP transport
// (multiplexed length-prefixed frames carrying internal/codec payloads,
// used by cmd/stagingd and cmd/dsctl). DataSpaces uses RDMA verbs here;
// the staging protocol above is transport-agnostic, so swapping the
// wire changes constants, not behaviour.
package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"time"

	"gospaces/internal/sim"
)

// Handler serves one request and returns a response. Handlers must be
// safe for concurrent use; the staging server guards its state
// internally.
//
// Byte-slice fields of req are only valid until the handler returns:
// large payloads are decoded zero-copy out of a frame buffer the
// transport reclaims afterwards. That is the one ownership rule, for
// every message: a handler that keeps a byte field past its return
// copies it itself (the staging server copies a put's payload, a
// replicated record and an installed snapshot's objects).
type Handler func(req any) (resp any, err error)

// Client issues requests to one endpoint.
type Client interface {
	// Call sends req and waits for the response.
	Call(req any) (any, error)
	io.Closer
}

// Transport connects named endpoints.
type Transport interface {
	// Listen registers a handler at addr and returns a closer that
	// unregisters/stops it.
	Listen(addr string, h Handler) (io.Closer, error)
	// Dial connects to the endpoint at addr.
	Dial(addr string) (Client, error)
}

// As narrows a call's result to the response type its caller expects,
// as in As[PingResp](conn.Call(req)). A call error passes through; a
// response of another type is an error naming both types, never a
// panic in the caller.
func As[R any](raw any, err error) (R, error) {
	if err != nil {
		var zero R
		return zero, err
	}
	r, ok := raw.(R)
	if !ok {
		return r, fmt.Errorf("transport: response is a %T, want %T", raw, r)
	}
	return r, nil
}

// CallOnce makes one call over a connection of its own: dial, call,
// close. It is for a one-off call with no connection to keep — a dsctl
// probe, a forwarded install, a soak's end-of-run tier check.
func CallOnce[R any](tr Transport, addr string, req any) (R, error) {
	conn, err := tr.Dial(addr)
	if err != nil {
		return As[R](nil, err)
	}
	defer conn.Close()
	return As[R](conn.Call(req))
}

// Peers keeps one client per address, dialled on first use. No fault
// replaces it: a Client re-dials a broken connection itself (TCP on its
// next call; InProc looks its endpoint up on every call). A failed dial
// keeps nothing. Close closes every client and refuses new dials.
type Peers struct {
	tr      Transport
	mu      sync.Mutex
	clients map[string]Client // nil once closed
}

// NewPeers returns an empty set of clients dialled over tr.
func NewPeers(tr Transport) *Peers { return &Peers{tr: tr, clients: make(map[string]Client)} }

// Call issues req to addr over its kept client, holding no lock.
func (p *Peers) Call(addr string, req any) (any, error) {
	c, err := p.Client(addr)
	if err != nil {
		return nil, err
	}
	return c.Call(req)
}

// Client returns addr's kept client, dialling it outside the lock if
// there is none; of concurrent first dials, the first kept wins.
func (p *Peers) Client(addr string) (Client, error) {
	p.mu.Lock()
	c, ok := p.clients[addr]
	closed := p.clients == nil
	p.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if ok {
		return c, nil
	}
	c, err := p.tr.Dial(addr)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if kept, ok := p.clients[addr]; ok || p.clients == nil {
		c.Close() // another first dial won, or Close ran
		if !ok {
			return nil, ErrClosed
		}
		return kept, nil
	}
	p.clients[addr] = c
	return c, nil
}

// Close closes every kept client; later calls fail with ErrClosed.
func (p *Peers) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, c := range p.clients {
		c.Close()
	}
	p.clients = nil
	return nil
}

// ClockOf returns the clock tr's world runs on: an InProc's Clock, the
// clock of the transport a decorator unwraps to (Chaos, Retrying), and
// wall time for TCP, whose deadlines are its sockets'.
func ClockOf(tr Transport) sim.Clock {
	switch t := tr.(type) {
	case *InProc:
		if t.Clock != nil {
			return t.Clock
		}
	case interface{ Unwrap() Transport }:
		return ClockOf(t.Unwrap())
	}
	return sim.Wall
}

// ErrNoEndpoint is returned by Dial when the address is unknown.
var ErrNoEndpoint = errors.New("transport: no such endpoint")

// ErrClosed is returned by operations on a closed client or endpoint.
var ErrClosed = errors.New("transport: closed")

// ErrTimeout is returned when a call exceeds its configured deadline.
var ErrTimeout = errors.New("transport: call timeout")

// ErrConnBroken is returned when a connection died mid-call (reset,
// EOF, desynced stream). The payload state of the call is unknown; the
// client re-dials on the next call.
var ErrConnBroken = errors.New("transport: connection broken")

// ErrFrameCorrupt reports a malformed wire frame or payload: bad magic,
// an undecodable body, or a response that does not parse. At frame
// scope the stream is desynced and the connection is torn down; a
// payload-only failure is answered per call with the frame boundaries
// (and the connection) intact.
var ErrFrameCorrupt = errors.New("transport: corrupt frame")

// ErrFrameTooLarge reports a frame whose body exceeds MaxFrameBody. Read
// off a stream it is corruption, never an allocation request; on the way
// out it fails the one call whose message outgrew a frame — a response's
// with a terminal RemoteError — and the connection carries on.
var ErrFrameTooLarge = errors.New("transport: frame too large")

// RemoteError carries an error returned by the remote handler, as
// opposed to a transport fault. Remote errors are terminal: the request
// was delivered and the server answered, so retrying cannot help.
//
// Msg is the handler error's full text. Cause, when the handler's chain
// held an error type registered with internal/codec, is that error
// decoded on this side, so errors.As/Is see through a RemoteError to
// the same typed cause an in-process call would have returned.
type RemoteError struct {
	Msg   string
	Cause error
}

func (e *RemoteError) Error() string { return e.Msg }

// Unwrap returns the decoded typed cause, or nil.
func (e *RemoteError) Unwrap() error { return e.Cause }

// Retryable reports whether err is a transient transport fault worth
// retrying: timeouts, broken/reset connections, and missing endpoints
// (a server mid-restart dials as ErrNoEndpoint). Handler errors
// (RemoteError or any error an in-process handler returns directly) and
// local ErrClosed are terminal.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	var re *RemoteError
	if errors.As(err, &re) {
		return false
	}
	if errors.Is(err, ErrClosed) {
		return false
	}
	if errors.Is(err, ErrTimeout) || errors.Is(err, ErrConnBroken) || errors.Is(err, ErrNoEndpoint) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.ECONNREFUSED) ||
		errors.Is(err, syscall.EPIPE) {
		return true
	}
	return false
}

// ---------------------------------------------------------------------
// In-process transport.

// InProc is a process-local transport: Dial returns a client whose Call
// invokes the handler directly on the caller's goroutine.
type InProc struct {
	// CallTimeout, when positive, bounds each Call: the handler runs on
	// its own goroutine and a call that outlives the timeout returns
	// ErrTimeout (the handler goroutine is left to finish on its own,
	// mirroring a TCP deadline expiring while the server still works).
	CallTimeout time.Duration
	// Clock is the time of the world the transport connects: every
	// layer over it (ClockOf) reads it. Nil is wall time.
	Clock sim.Clock

	mu        sync.RWMutex
	endpoints map[string]Handler
}

// NewInProc returns an empty in-process transport.
func NewInProc() *InProc {
	return &InProc{endpoints: make(map[string]Handler)}
}

type inprocCloser struct {
	t    *InProc
	addr string
}

func (c *inprocCloser) Close() error {
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	delete(c.t.endpoints, c.addr)
	return nil
}

// Listen implements Transport.
func (t *InProc) Listen(addr string, h Handler) (io.Closer, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.endpoints[addr]; dup {
		return nil, fmt.Errorf("transport: endpoint %q already registered", addr)
	}
	t.endpoints[addr] = h
	return &inprocCloser{t: t, addr: addr}, nil
}

type inprocClient struct {
	t      *InProc
	addr   string
	mu     sync.Mutex
	closed bool
}

func (c *inprocClient) Call(req any) (any, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.mu.Unlock()
	c.t.mu.RLock()
	h, ok := c.t.endpoints[c.addr]
	c.t.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoEndpoint, c.addr)
	}
	timeout := c.t.CallTimeout
	if timeout <= 0 {
		return h(req)
	}
	var resp any
	var err error
	if !sim.Within(ClockOf(c.t), timeout, nil, func() { resp, err = h(req) }) {
		return nil, fmt.Errorf("%w: %q after %v", ErrTimeout, c.addr, timeout)
	}
	return resp, err
}

func (c *inprocClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	return nil
}

// Dial implements Transport.
func (t *InProc) Dial(addr string) (Client, error) {
	t.mu.RLock()
	_, ok := t.endpoints[addr]
	t.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoEndpoint, addr)
	}
	return &inprocClient{t: t, addr: addr}, nil
}
