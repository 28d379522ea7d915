package transport

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gospaces/internal/codec"
	"gospaces/internal/metrics"
)

// TCP is a Transport over TCP sockets with multiplexed length-prefixed
// framing (see frame.go): one connection carries many concurrent
// in-flight calls, each identified by a request id, with a demux
// goroutine routing responses back to their callers. Addresses are
// host:port strings; Listen with a ":0" port allocates an ephemeral
// port, and the closer's Addr method reports the bound address.
type TCP struct {
	// CallTimeout, when positive, bounds each Call individually: an
	// expired call returns ErrTimeout and its late response (if any) is
	// discarded, while the connection and its other in-flight calls
	// carry on — frame boundaries stay intact, so a slow call no longer
	// poisons the stream. Only a failed or half-written frame (write
	// error/deadline) marks the connection broken.
	CallTimeout time.Duration
	// DialTimeout, when positive, bounds connection establishment,
	// including the transparent re-dial after a broken connection.
	DialTimeout time.Duration

	regMu sync.Mutex
	reg   atomic.Pointer[tcpMetrics]
}

// tcpMetrics caches the hot-path metric handles so per-frame accounting
// is a few atomic adds, not registry map lookups under a mutex.
type tcpMetrics struct {
	reg           *metrics.Registry
	inflight      *metrics.Gauge
	bytesIn       *metrics.Counter
	bytesOut      *metrics.Counter
	payloads      *metrics.Counter
	handlerStarts *metrics.Counter
}

// NewTCP returns a TCP transport with no deadlines (calls may block
// indefinitely); set CallTimeout/DialTimeout for bounded calls.
func NewTCP() *TCP { return &TCP{} }

// NewTCPTimeout returns a TCP transport with per-call and dial
// deadlines.
func NewTCPTimeout(call, dial time.Duration) *TCP {
	return &TCP{CallTimeout: call, DialTimeout: dial}
}

// Metrics returns the transport's registry: transport.inflight (gauge),
// transport.bytes_out/bytes_in (counters, frame bytes incl. headers),
// transport.handler_starts (counter: server handler goroutines
// started, at most one per frame a connection has in flight at its
// peak), codec.fastpath_hits (counter: payloads encoded, requests and
// responses; the name predates the one codec and is what bench/ reads).
func (t *TCP) Metrics() *metrics.Registry { return t.m().reg }

// m returns the cached metric handles, building them once.
func (t *TCP) m() *tcpMetrics {
	if m := t.reg.Load(); m != nil {
		return m
	}
	t.regMu.Lock()
	defer t.regMu.Unlock()
	if m := t.reg.Load(); m != nil {
		return m
	}
	reg := metrics.NewRegistry()
	m := &tcpMetrics{
		reg:           reg,
		inflight:      reg.Gauge("transport.inflight"),
		bytesIn:       reg.Counter("transport.bytes_in"),
		bytesOut:      reg.Counter("transport.bytes_out"),
		payloads:      reg.Counter("codec.fastpath_hits"),
		handlerStarts: reg.Counter("transport.handler_starts"),
	}
	t.reg.Store(m)
	return m
}

// TCPEndpoint is the closer returned by TCP.Listen; it also reports the
// bound address.
type TCPEndpoint struct {
	ln     net.Listener
	wg     sync.WaitGroup
	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
}

// Addr returns the bound listen address (useful with ":0").
func (e *TCPEndpoint) Addr() string { return e.ln.Addr().String() }

// Close stops accepting, closes live connections, and waits for
// handlers to drain.
func (e *TCPEndpoint) Close() error {
	e.mu.Lock()
	e.closed = true
	err := e.ln.Close()
	for c := range e.conns {
		c.Close()
	}
	e.mu.Unlock()
	e.wg.Wait()
	return err
}

// Listen implements Transport.
func (t *TCP) Listen(addr string, h Handler) (io.Closer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	ep := &TCPEndpoint{ln: ln, conns: make(map[net.Conn]struct{})}
	ep.wg.Add(1)
	go func() {
		defer ep.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			ep.mu.Lock()
			if ep.closed {
				ep.mu.Unlock()
				conn.Close()
				return
			}
			ep.conns[conn] = struct{}{}
			ep.mu.Unlock()
			ep.wg.Add(1)
			go func() {
				defer ep.wg.Done()
				defer func() {
					ep.mu.Lock()
					delete(ep.conns, conn)
					ep.mu.Unlock()
					conn.Close()
				}()
				t.serveConn(conn, h)
			}()
		}
	}()
	return ep, nil
}

// maxConnInflight bounds the frames one server connection may have in
// flight, and so its handler goroutines; past it the reader loop
// applies backpressure by not reading further frames.
const maxConnInflight = 256

// readBufSize sizes the per-connection read buffer on both ends.
const readBufSize = 64 << 10

// connFrame is one decoded request frame on its way to a handler.
type connFrame struct {
	id      uint64
	req     any
	body    []byte
	aliased bool
}

// serveConn demultiplexes one client connection. Each request frame
// goes to an idle handler goroutine of the connection, or to a new one
// if none is idle, so a slow handler delays only its own caller.
// Handlers live as long as the connection, so a request runs on a stack
// already grown along the staging dispatch instead of growing a fresh
// one. Responses are written whole under a per-connection write lock.
func (t *TCP) serveConn(conn net.Conn, h Handler) {
	var wmu sync.Mutex
	var handlers sync.WaitGroup
	// frames hands a frame to an idle handler; closing it when the read
	// loop ends lets every handler exit once its frame is answered.
	frames := make(chan connFrame)
	defer func() {
		close(frames)
		handlers.Wait()
	}()
	sem := make(chan struct{}, maxConnInflight)
	// idle counts handlers left with at most their response's write to
	// do. A handler joins it before that write and before it frees its
	// slot, so a sequential caller's next frame always finds it, and a
	// handler starts only when every live one holds a slot: never more
	// handlers than the connection's peak in-flight count.
	var idle atomic.Int32
	serve := func(f connFrame) {
		resp, herr := h(f.req)
		t.writeResponse(conn, &wmu, f.id, resp, herr, &idle)
		if f.aliased {
			// An alias-decoded request points into its frame body; per
			// the Handler contract the payload is dead once the handler
			// has returned (and any echoing response has been written),
			// so the buffer goes back in circulation. This is what lets
			// steady-state bulk ingest run without per-request
			// allocations.
			codec.PutBuf(f.body)
		}
		<-sem
	}
	// Buffering the read side halves the syscall count per frame (header
	// and body arrive in one read) and drains bursts of small frames in a
	// single syscall; bufio reads bodies larger than its buffer directly
	// into the frame buffer, so bulk payloads are not double-copied.
	br := bufio.NewReaderSize(conn, readBufSize)
	for {
		flags, id, body, err := readFrame(br)
		if err != nil {
			return // EOF, peer gone, or desynced stream
		}
		t.m().bytesIn.Add(int64(frameHdrLen + len(body)))
		if flags&flagResponse != 0 {
			codec.PutBuf(body)
			return // protocol violation; drop the connection
		}
		req, aliased, derr := decodePayload(body)
		if !aliased {
			codec.PutBuf(body)
		}
		if derr != nil {
			// The frame parsed (boundaries are intact) but its payload
			// did not: answer the one call with a typed error and keep
			// serving the connection.
			t.writeResponse(conn, &wmu, id, nil, derr, nil)
			continue
		}
		sem <- struct{}{}
		f := connFrame{id: id, req: req, body: body, aliased: aliased}
		if idle.Load() > 0 {
			// The send waits at most for one response write already under
			// way, never for a handler's work.
			idle.Add(-1)
			frames <- f
			continue
		}
		handlers.Add(1)
		t.m().handlerStarts.Inc()
		go func(f connFrame) {
			defer handlers.Done()
			for ok := true; ok; f, ok = <-frames {
				serve(f)
			}
		}(f)
	}
}

// writeResponse encodes and writes one response frame. A handler passes
// its connection's idle count, which it joins once it holds the write
// lock: a frame handed to it then waits for this one write, not for the
// encode or the lock. A write failure kills the connection: the reader
// loop and the client both find out through their own I/O errors.
func (t *TCP) writeResponse(conn net.Conn, wmu *sync.Mutex, id uint64, resp any, herr error, idle *atomic.Int32) {
	buf, cuts, err := appendFrame(flagResponse, id, herr, resp)
	if err != nil {
		// A response that does not encode, or would outgrow MaxFrameBody,
		// fails its own call and nobody else's: an error frame, no cuts.
		codec.PutBuf(buf)
		buf, cuts, _ = appendFrame(flagResponse, id, err, nil) // an error text is no 64 MiB
	} else if resp != nil {
		t.m().payloads.Inc()
	}
	defer codec.PutBuf(buf)
	wmu.Lock()
	if idle != nil {
		idle.Add(1)
	}
	if t.CallTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(t.CallTimeout))
	}
	n, werr := writeFrame(conn, buf, cuts)
	wmu.Unlock()
	if werr != nil {
		conn.Close()
		return
	}
	t.m().bytesOut.Add(n)
}

// writeFrame writes one frame and reports its length: buf as a single
// write, or — when the encode held large byte fields back as cuts —
// buf's segments and the cuts interleaved as one writev, so bulk
// payloads reach the socket without ever being copied into the frame
// buffer.
func writeFrame(conn net.Conn, buf []byte, cuts []codec.Cut) (int64, error) {
	if len(cuts) == 0 {
		n, err := conn.Write(buf)
		return int64(n), err
	}
	bufs := make(net.Buffers, 0, 2*len(cuts)+1)
	at := 0
	for _, c := range cuts {
		bufs = append(bufs, buf[at:c.At], c.Data)
		at = c.At
	}
	bufs = append(bufs, buf[at:])
	return bufs.WriteTo(conn)
}

// ListenTCP is Listen with a concrete return type so callers can learn
// the bound address.
func (t *TCP) ListenTCP(addr string, h Handler) (*TCPEndpoint, error) {
	c, err := t.Listen(addr, h)
	if err != nil {
		return nil, err
	}
	return c.(*TCPEndpoint), nil
}

// callResult is one demultiplexed response.
type callResult struct {
	resp any
	err  error
}

// muxConn is one live multiplexed connection: a writer lock for whole
// frames, a pending table routing responses to callers, and a demux
// goroutine that owns the read side. It dies as a unit: any read/write
// fault fails every pending call and the owning client re-dials on the
// next Call.
type muxConn struct {
	c    *tcpClient
	conn net.Conn
	br   *bufio.Reader // demux-owned buffered read side
	wmu  sync.Mutex

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan callResult
	dead    bool
	deadErr error
}

// tcpClient is one client connection slot: it holds at most one live
// muxConn and transparently re-dials after a broken one.
type tcpClient struct {
	t    *TCP
	addr string

	mu     sync.Mutex
	closed bool
	cur    *muxConn // nil when broken; re-dialled on the next Call
}

// Dial implements Transport.
func (t *TCP) Dial(addr string) (Client, error) {
	c := &tcpClient{t: t, addr: addr}
	if _, err := c.live(); err != nil {
		return nil, err
	}
	return c, nil
}

// live returns the current muxConn, dialling a fresh one if needed.
func (c *tcpClient) live() (*muxConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if c.cur != nil {
		return c.cur, nil
	}
	var conn net.Conn
	var err error
	if c.t.DialTimeout > 0 {
		conn, err = net.DialTimeout("tcp", c.addr, c.t.DialTimeout)
	} else {
		conn, err = net.Dial("tcp", c.addr)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %q: %v", ErrNoEndpoint, c.addr, err)
	}
	mc := &muxConn{
		c:       c,
		conn:    conn,
		br:      bufio.NewReaderSize(conn, readBufSize),
		pending: make(map[uint64]chan callResult),
	}
	c.cur = mc
	go mc.demux()
	return mc, nil
}

// register allocates a request id and its response channel.
func (mc *muxConn) register() (uint64, chan callResult, error) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if mc.dead {
		return 0, nil, mc.deadErr
	}
	mc.nextID++
	id := mc.nextID
	ch := make(chan callResult, 1) // demux never blocks on delivery
	mc.pending[id] = ch
	mc.c.t.m().inflight.Add(1)
	return id, ch, nil
}

// unregister abandons a pending call (timeout); a late response finds
// no entry and is discarded by the demux loop.
func (mc *muxConn) unregister(id uint64) {
	mc.mu.Lock()
	if _, ok := mc.pending[id]; ok {
		delete(mc.pending, id)
		mc.c.t.m().inflight.Add(-1)
	}
	mc.mu.Unlock()
}

// fail tears the connection down once: every pending call gets err, the
// owning client drops its reference (so the next Call re-dials), and
// the socket closes (waking the demux goroutine if it is still alive).
func (mc *muxConn) fail(err error) {
	mc.mu.Lock()
	if mc.dead {
		mc.mu.Unlock()
		return
	}
	mc.dead = true
	mc.deadErr = err
	pending := mc.pending
	mc.pending = nil
	mc.mu.Unlock()

	mc.c.mu.Lock()
	if mc.c.cur == mc {
		mc.c.cur = nil
	}
	mc.c.mu.Unlock()

	mc.conn.Close()
	if n := len(pending); n > 0 {
		mc.c.t.m().inflight.Add(int64(-n))
	}
	for _, ch := range pending {
		ch <- callResult{err: err}
	}
}

// classify types a connection-level fault for callers.
func (mc *muxConn) classify(err error) error {
	mc.c.mu.Lock()
	closed := mc.c.closed
	mc.c.mu.Unlock()
	if closed {
		return fmt.Errorf("%w: %q: %v", ErrClosed, mc.c.addr, err)
	}
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		return fmt.Errorf("%w: %q: %v", ErrTimeout, mc.c.addr, err)
	}
	return fmt.Errorf("%w: %q: %v", ErrConnBroken, mc.c.addr, err)
}

// demux owns the read side: it routes response frames to pending calls
// by id until the stream breaks, then fails everything left.
func (mc *muxConn) demux() {
	for {
		flags, id, body, err := readFrame(mc.br)
		if err != nil {
			mc.fail(mc.classify(err))
			return
		}
		mc.c.t.m().bytesIn.Add(int64(frameHdrLen + len(body)))
		if flags&flagResponse == 0 {
			codec.PutBuf(body)
			mc.fail(mc.classify(fmt.Errorf("request frame on client stream: %w", ErrFrameCorrupt)))
			return
		}
		resp, aliased, rerr := decodeResponse(flags, body)
		if !aliased {
			codec.PutBuf(body) // an aliased response holds its frame body
		}
		mc.mu.Lock()
		ch := mc.pending[id]
		if ch != nil {
			delete(mc.pending, id)
			mc.c.t.m().inflight.Add(-1)
		}
		mc.mu.Unlock()
		if ch == nil {
			continue // late response to a timed-out call
		}
		ch <- callResult{resp: resp, err: rerr}
	}
}

func (c *tcpClient) Call(req any) (any, error) {
	mc, err := c.live()
	if err != nil {
		return nil, err
	}
	id, ch, err := mc.register()
	if err != nil {
		return nil, err
	}

	buf, cuts, err := appendFrame(0, id, nil, req)
	if err != nil {
		codec.PutBuf(buf)
		mc.unregister(id)
		return nil, err
	}
	c.t.m().payloads.Inc()

	mc.wmu.Lock()
	if c.t.CallTimeout > 0 {
		mc.conn.SetWriteDeadline(time.Now().Add(c.t.CallTimeout))
	}
	n, werr := writeFrame(mc.conn, buf, cuts)
	mc.wmu.Unlock()
	codec.PutBuf(buf)
	if werr != nil {
		// A failed or half-written frame desyncs the stream: the whole
		// connection (and every pending call on it) is broken.
		mc.unregister(id)
		cerr := mc.classify(werr)
		mc.fail(cerr)
		return nil, cerr
	}
	c.t.m().bytesOut.Add(n)

	var timeout <-chan time.Time
	if c.t.CallTimeout > 0 {
		timer := time.NewTimer(c.t.CallTimeout)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case r := <-ch:
		return r.resp, r.err
	case <-timeout:
		mc.unregister(id)
		select {
		case r := <-ch:
			// The response raced the timer; deliver it.
			return r.resp, r.err
		default:
		}
		// Only this call times out; the connection and its neighbours
		// stay healthy (the demux loop discards the late response).
		return nil, fmt.Errorf("%w: %q after %v", ErrTimeout, c.addr, c.t.CallTimeout)
	}
}

// Abort kills the live connection without closing the client, marking
// it broken so the next Call re-dials. In-flight calls fail with
// ErrConnBroken. The chaos transport uses it to model connection
// resets.
func (c *tcpClient) Abort() {
	c.mu.Lock()
	mc := c.cur
	c.mu.Unlock()
	if mc != nil {
		mc.fail(fmt.Errorf("%w: %q: aborted", ErrConnBroken, c.addr))
	}
}

func (c *tcpClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	mc := c.cur
	c.mu.Unlock()
	if mc != nil {
		mc.fail(fmt.Errorf("%w: %q", ErrClosed, c.addr))
	}
	return nil
}
