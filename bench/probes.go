package main

import (
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"time"

	"gospaces/internal/codec"
	"gospaces/internal/dht"
	"gospaces/internal/domain"
	"gospaces/internal/metrics"
	"gospaces/internal/qos"
	"gospaces/internal/staging"
	"gospaces/internal/store"
	"gospaces/internal/transport"
	"gospaces/internal/wlog"
)

// The probes time calls into the public functions of single layers, at
// the shape of the workload being run, from outside: a standalone event
// log, store, scheduler, codec call and so on. They run in the traced
// run, beside the workload, so the calibration floors (memcpy, CRC-32C,
// raw loopback round trip) come from the same process on the same
// machine at the same time as the numbers they are compared with.

// probeBudget is how long one probe measures. Tests lower it.
var probeBudget = 40 * time.Millisecond

var sink uint64 // keeps probe results alive

// perCall runs f in batches for the probe budget and returns the median
// batch's cost per call, in ns.
func perCall(batch int, f func()) float64 {
	var per []float64
	for deadline := time.Now().Add(probeBudget); len(per) < 5 || time.Now().Before(deadline); {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			f()
		}
		per = append(per, float64(time.Since(t0))/float64(batch))
		if len(per) >= 4096 {
			break
		}
	}
	return median(per)
}

// probeShape is what the probes need to know about the workload.
type probeShape struct {
	w         workload
	prodBox   domain.BBox
	consBox   domain.BBox
	piece     domain.BBox // one DHT cell's share of a producer box
	pieceData []byte
	rankData  []byte // one producer rank buffer
	index     *dht.Index
	versions  int // logged versions alive at the workload's log peak
}

func (r *run) probeShape() (probeShape, error) {
	idx, err := dht.NewIndex(r.w.global, r.w.servers, dhtBits)
	if err != nil {
		return probeShape{}, err
	}
	ps := probeShape{
		w: r.w, prodBox: r.prodBox[0], consBox: r.consBox[0],
		rankData: r.prodBuf[0][0], index: idx,
		versions: r.w.steps,
	}
	if c := max(r.w.simCheck, r.w.anaCheck); c > 0 {
		ps.versions = c // the log is trimmed at every checkpoint
	}
	for _, s := range idx.ServersFor(ps.prodBox) {
		for _, cell := range idx.ServerCells(s) {
			if region, ok := cell.Intersect(ps.prodBox); ok {
				ps.piece = region
				ps.pieceData = domain.Extract(ps.rankData, ps.prodBox, region, elemSize)
				return ps, nil
			}
		}
	}
	return ps, fmt.Errorf("no DHT cell intersects %v", ps.prodBox)
}

// probes fills the per-layer metrics that come from timing single
// layers. tr is the workload's own (untraced) transport stack.
func probes(ps probeShape, tr transport.Transport, out map[string]float64) error {
	n := len(ps.pieceData)
	kib := float64(n) / 1024

	// floor: the machine's own speed for the two payload walks a logged
	// put adds, over a working set the size of the payload ring (so the
	// source is as cold as the server's is), and the raw loopback round
	// trip at the piece size.
	ringBytes := len(ps.rankData) * ps.w.prod * ps.w.ring
	src := make([]byte, ringBytes)
	for i := range src {
		src[i] = byte(i * 7)
	}
	dst := make([]byte, n)
	off := 0
	next := func() []byte {
		if off+n > len(src) {
			off = 0
		}
		b := src[off : off+n]
		off += n
		return b
	}
	gib := float64(n) / (1 << 30)
	out["floor.memcpy_gib_s"] = gib / (perCall(16, func() { copy(dst, next()) }) / 1e9)
	table := crc32.MakeTable(crc32.Castagnoli)
	out["floor.crc32c_gib_s"] = gib / (perCall(16, func() { sink += uint64(crc32.Checksum(next(), table)) }) / 1e9)
	rtt, err := tcpEchoRTT(n)
	if err != nil {
		return err
	}
	out["floor.tcp_rtt_us_p50"] = rtt

	// transport: the workload's own put request to a handler that does
	// nothing, over the same retry + mux TCP stack.
	put := staging.EpochReq{Epoch: 1, Req: staging.PutReq{
		App: "sim/0", Name: varName, Version: 1, ElemSize: elemSize,
		Piece: staging.Piece{BBox: ps.piece, Data: ps.pieceData}, Logged: true,
	}}
	closer, err := tr.Listen("127.0.0.1:0", func(any) (any, error) { return staging.PutResp{}, nil })
	if err != nil {
		return err
	}
	addr := closer.(interface{ Addr() string }).Addr()
	cl, err := tr.Dial(addr)
	if err != nil {
		closer.Close()
		return err
	}
	var callErr error
	out["transport.null_rtt_us_p50"] = perCall(8, func() {
		if _, err := cl.Call(put); err != nil {
			callErr = err
		}
	}) / 1e3
	cl.Close()
	closer.Close()
	if callErr != nil {
		return fmt.Errorf("null rtt: %w", callErr)
	}

	// codec: encode and decode of the exact messages, the way the
	// transport does it: the vectored head+tail split when the message
	// offers one, else one contiguous encode (which copies the payload).
	buf := make([]byte, 0, n+4096)
	encodePut := func() []byte {
		if head, tail, ok := codec.MarshalBulk(buf[:0], put); ok {
			sink += uint64(len(tail))
			return head
		}
		b, _ := codec.Marshal(buf[:0], put)
		return b
	}
	wire, ok := codec.Marshal(nil, put)
	if !ok {
		return fmt.Errorf("codec: EpochReq{PutReq} has no fast path")
	}
	out["codec.put_encode_ns"] = perCall(64, func() { sink += uint64(len(encodePut())) })
	var decErr error
	out["codec.put_decode_ns"] = perCall(64, func() {
		if _, err := codec.UnmarshalAlias(wire); err != nil {
			decErr = err
		}
	})
	// A get's response carries every piece one server holds of the
	// consumer's box.
	resp := staging.GetResp{Version: 1}
	idx := ps.index
	whole := make([]byte, domain.BufLen(ps.consBox, elemSize))
	for _, cell := range idx.ServerCells(idx.ServersFor(ps.consBox)[0]) {
		if region, ok := cell.Intersect(ps.consBox); ok {
			resp.Pieces = append(resp.Pieces, staging.Piece{BBox: region, Data: domain.Extract(whole, ps.consBox, region, elemSize)})
		}
	}
	big := make([]byte, 0, len(whole)+4096)
	respWire, ok := codec.Marshal(big, resp)
	if !ok {
		return fmt.Errorf("codec: GetResp has no fast path")
	}
	respWire = append([]byte(nil), respWire...)
	out["codec.getresp_encode_ns"] = perCall(8, func() {
		b, _ := codec.Marshal(big[:0], resp)
		sink += uint64(len(b))
	})
	out["codec.getresp_decode_ns"] = perCall(8, func() {
		if _, err := codec.UnmarshalAlias(respWire); err != nil {
			decErr = err
		}
	})
	if decErr != nil {
		return fmt.Errorf("codec decode: %w", decErr)
	}

	// qos: the uncontended lane gate and the admit + charge pair.
	reg := metrics.NewRegistry()
	sched := qos.NewScheduler(qos.Config{}, reg)
	out["qos.lane_ns_per_op"] = perCall(256, func() {
		if sched.Acquire(qos.LaneForeground) == nil {
			sched.Release(qos.LaneForeground)
		}
	})
	sched.Close()
	ctl := qos.NewController(qos.Config{}, reg)
	out["qos.admit_ns_per_op"] = perCall(256, func() {
		if ctl.AdmitPut(varName, int64(n), true, 0, ps.w.budget, qos.Signals{}) == nil {
			ctl.Charge(varName, int64(n), int64(n))
			ctl.Charge(varName, -int64(n), -int64(n))
		}
	})

	// metrics: the by-name counter bump the server does twice per put.
	out["metrics.counter_lookup_ns"] = perCall(256, func() { reg.Counter("puts").Inc() })

	// wlog: append cost per logged put and get with the queue at the
	// workload's length, then the checkpoint, recovery and snapshot paths
	// at that length.
	logAt := func(versions int) *wlog.Log {
		l := wlog.New()
		for v := int64(1); v <= int64(versions); v++ {
			for i := 0; i < ps.w.rpcsPerPut; i++ {
				l.BeginPut("sim/0", varName, v, ps.piece)
				l.CommitPut("sim/0", varName, v, ps.piece, int64(n))
			}
			l.BeginGet("ana/0", varName, v, ps.consBox)
			l.CommitGet("ana/0", varName, v, ps.consBox, int64(n))
		}
		return l
	}
	l := logAt(ps.versions)
	events := float64(ps.versions * (ps.w.rpcsPerPut + 1))
	out["wlog.meta_bytes_per_event"] = float64(l.MetaBytes()) / events
	v := int64(ps.versions)
	out["wlog.put_ns_per_op"] = perCall(64, func() {
		v++
		l.BeginPut("sim/0", varName, v, ps.piece)
		l.CommitPut("sim/0", varName, v, ps.piece, int64(n))
		if v%64 == 0 {
			l.OnCheckpoint("sim/0") // hold the queue near its working length
		}
	})
	g := int64(ps.versions)
	out["wlog.get_ns_per_op"] = perCall(64, func() {
		g++
		l.BeginGet("ana/0", varName, g, ps.consBox)
		l.CommitGet("ana/0", varName, g, ps.consBox, int64(n))
		if g%64 == 0 {
			l.OnCheckpoint("ana/0")
		}
	})
	out["wlog.checkpoint_us"] = median(repeat(9, func() float64 {
		l := logAt(ps.versions)
		t0 := time.Now()
		l.OnCheckpoint("sim/0")
		sink += uint64(l.PayloadFrontier(varName))
		return float64(time.Since(t0)) / 1e3
	}))
	out["wlog.recovery_us"] = median(repeat(9, func() float64 {
		l := logAt(ps.versions)
		t0 := time.Now()
		sink += uint64(len(l.OnRecoveryFrom("ana/0", 0)))
		return float64(time.Since(t0)) / 1e3
	}))
	var snap []byte
	var snapErr error
	out["wlog.snapshot_ms"] = median(repeat(9, func() float64 {
		t0 := time.Now()
		snap, snapErr = l.Snapshot()
		return float64(time.Since(t0)) / 1e6
	}))
	if snapErr != nil {
		return fmt.Errorf("wlog snapshot: %w", snapErr)
	}
	out["wlog.restore_ms"] = median(repeat(9, func() float64 {
		fresh := wlog.New()
		t0 := time.Now()
		snapErr = fresh.Restore(snap)
		return float64(time.Since(t0)) / 1e6
	}))
	if snapErr != nil {
		return fmt.Errorf("wlog restore: %w", snapErr)
	}

	// store: insert, lookup and GC of piece-sized objects with the
	// workload's number of versions resident.
	st := store.New()
	var sv int64
	var putErr error
	fill := func() {
		sv++
		_, putErr = st.PutAccounted(&store.Object{Name: varName, Version: sv, BBox: ps.piece, ElemSize: elemSize, Data: ps.pieceData, Logged: true})
	}
	for i := 0; i < ps.versions; i++ {
		fill()
	}
	out["store.put_ns_per_op"] = perCall(64, func() {
		fill()
		if sv%64 == 0 {
			st.DropBelow(varName, sv-int64(ps.versions), true)
		}
	})
	if putErr != nil {
		return fmt.Errorf("store put: %w", putErr)
	}
	out["store.get_ns_per_op"] = perCall(64, func() { sink += uint64(len(st.GetVersion(varName, sv, ps.piece))) })
	out["store.gc_us"] = median(repeat(9, func() float64 {
		for i := 0; i < ps.versions; i++ {
			fill()
		}
		t0 := time.Now()
		for _, name := range st.Names() {
			sink += uint64(st.DropBelow(name, sv, true))
		}
		return float64(time.Since(t0)) / 1e3
	}))

	// domain and dht: the client's split of a rank box into pieces and
	// its reassembly, per KiB moved, and the routing lookups per put.
	out["domain.extract_ns_per_kib"] = perCall(16, func() {
		sink += uint64(len(domain.Extract(ps.rankData, ps.prodBox, ps.piece, elemSize)))
	}) / kib
	out["domain.copyregion_ns_per_kib"] = perCall(16, func() {
		domain.CopyRegion(ps.rankData, ps.prodBox, ps.pieceData, ps.piece, ps.piece, elemSize)
	}) / kib
	out["dht.route_ns_per_op"] = perCall(16, func() {
		for _, s := range idx.ServersFor(ps.prodBox) {
			sink += uint64(len(idx.ServerCells(s)))
		}
	})
	return nil
}

func repeat(n int, f func() float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = f()
	}
	return out
}

// echoLink is a raw loopback TCP connection to a goroutine that reads
// size bytes and answers 8: what the kernel charges for a put-sized
// exchange before any of this program's framing, scheduling or copying.
type echoLink struct {
	conn net.Conn
	msg  []byte
	ack  [8]byte
	done chan error
}

func newEchoLink(size int) (*echoLink, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	e := &echoLink{msg: make([]byte, size), done: make(chan error, 1)}
	if e.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		return nil, err
	}
	// Accept before the listener closes: closing it with the connection
	// still in its queue resets the connection.
	peer, err := ln.Accept()
	if err != nil {
		e.conn.Close()
		return nil, err
	}
	go func() {
		defer peer.Close()
		buf := make([]byte, size)
		for {
			if _, err := io.ReadFull(peer, buf); err != nil {
				e.done <- nil // the client closed its end
				return
			}
			if _, err := peer.Write(buf[:8]); err != nil {
				e.done <- err
				return
			}
		}
	}()
	return e, nil
}

// roundTrip sends one message and waits for its acknowledgement.
func (e *echoLink) roundTrip() error {
	if _, err := e.conn.Write(e.msg); err != nil {
		return err
	}
	_, err := io.ReadFull(e.conn, e.ack[:])
	return err
}

// close ends the connection and waits for the echo goroutine.
func (e *echoLink) close() error {
	e.conn.Close()
	return <-e.done
}

// tcpEchoRTT is the median round trip of an echoLink, in µs.
func tcpEchoRTT(size int) (float64, error) {
	e, err := newEchoLink(size)
	if err != nil {
		return 0, err
	}
	var ioErr error
	rtt := perCall(8, func() {
		if err := e.roundTrip(); err != nil {
			ioErr = err
		}
	}) / 1e3
	if err := e.close(); err != nil {
		return 0, err
	}
	return rtt, ioErr
}
