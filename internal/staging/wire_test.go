package staging

import (
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gospaces/internal/codec"
	"gospaces/internal/domain"
	"gospaces/internal/health"
	"gospaces/internal/locks"
	"gospaces/internal/store"
	"gospaces/internal/transport"
	"gospaces/internal/wlog"
)

// roundTrip encodes v through the wire codec and decodes it back,
// failing the test if the encode declined or the value changed.
func roundTrip(t *testing.T, v any) any {
	t.Helper()
	buf, err := codec.Append(nil, v)
	if err != nil {
		t.Fatalf("encode %T: %v", v, err)
	}
	got, err := codec.Unmarshal(buf)
	if err != nil {
		t.Fatalf("decode %T: %v", v, err)
	}
	if !reflect.DeepEqual(got, v) {
		t.Fatalf("%T round trip mismatch:\n got %#v\nwant %#v", v, got, v)
	}
	return got
}

func TestFastpathRoundTrip(t *testing.T) {
	box := domain.Box3(0, 0, 0, 15, 15, 15)
	rec := wlog.Record{Op: wlog.OpPut, App: "sim/3", Name: "field", Version: 7, BBox: box, Bytes: 4096}
	lock := LockRecord{Name: "step", Holder: "sim/3", Write: true, Seq: 9}
	state := ReplState{
		Seq:  42,
		Wlog: []byte{1, 2, 3},
		Objects: []*store.Object{
			{Name: "field", Version: 7, BBox: box, ElemSize: 8, Data: []byte("payload"), CRC: 0xdeadbeef, Logged: true},
			{Name: "empty", Version: 1, BBox: domain.BBox{}, ElemSize: 4, Data: nil, CRC: 1},
		},
		Locks: locks.State{
			Held: []locks.HeldLock{
				{Name: "step", Writer: "sim/3"},
				{Name: "mesh", Readers: []locks.ReaderCount{{Holder: "viz/0", Count: 2}, {Holder: "viz/1", Count: 1}}},
			},
			Dedup: []LockRecord{
				{Holder: "sim/3", Seq: 9, Name: "step", Write: true},
				{Holder: "viz/0", Seq: 2, Name: "mesh", Release: true, Fault: locks.NotHeld},
			},
		},
	}

	msgs := []any{
		PutReq{App: "sim/0", Name: "field", Version: 3, ElemSize: 8,
			Piece: Piece{BBox: box, Data: []byte("abcdefgh")}, Logged: true},
		PutResp{Suppressed: true},
		GetReq{App: "viz/1", Name: "field", Version: -1, BBox: box, Logged: true},
		GetResp{Version: 3, FromLog: true, Pieces: []Piece{
			{BBox: box, Data: []byte("xy")},
			{BBox: domain.Box3(1, 2, 3, 4, 5, 6), Data: nil},
		}},
		ReplApplyReq{Epoch: 5, Slot: 1, Records: []ReplRecord{
			{Seq: 1, Wlog: &rec, Obj: &store.Object{Name: "field", Version: 7, BBox: box, ElemSize: 8, Data: []byte("body"), CRC: 77, Logged: true}},
			{Seq: 2, Lock: &lock},
			{Seq: 3},
		}},
		ReplApplyResp{NeedSnapshot: true, Seq: 12},
		ReplSnapshotReq{Epoch: 5, Slot: 1, State: state},
		ReplSnapshotResp{Seq: 42},
		ReplFetchReq{Slot: 2, InstallOn: "spare/0"},
		ReplFetchResp{Found: true, Epoch: 5, Seq: 42, Bytes: 10},
		WlogInstallReq{Slot: 1, State: state},
		WlogInstallResp{Records: 99},
	}
	for _, m := range msgs {
		roundTrip(t, m)
	}
}

func TestFastpathEmptyValues(t *testing.T) {
	// Zero values must survive too: empty strings, nil slices, zero boxes.
	roundTrip(t, PutReq{})
	roundTrip(t, GetResp{})
	roundTrip(t, ReplApplyReq{})
	roundTrip(t, ReplSnapshotReq{})
	roundTrip(t, ReplFetchResp{})
}

func TestFastpathEnvelopes(t *testing.T) {
	inner := PutReq{App: "sim/0", Name: "k", Version: 1, ElemSize: 1, Piece: Piece{BBox: domain.Box3(0, 0, 0, 0, 0, 0), Data: []byte("d")}}
	roundTrip(t, EpochReq{Epoch: 3, Req: inner})
	roundTrip(t, FencedReq{Token: 8, Req: inner})
	// Nested envelope: fenced epoch-wrapped bulk request.
	roundTrip(t, FencedReq{Token: 8, Req: EpochReq{Epoch: 3, Req: inner}})

	// Every staging message nests, not only the bulk ones.
	roundTrip(t, EpochReq{Epoch: 3, Req: StatsReq{}})
	roundTrip(t, FencedReq{Token: 1, Req: LeaseCASReq{Holder: "sup", Token: 1, TTL: time.Second}})

	// An inner payload nobody registered is a typed encode error naming
	// it — there is no second codec for the envelope to fall back to.
	for _, env := range []any{EpochReq{Epoch: 3, Req: struct{}{}}, FencedReq{Token: 1, Req: EpochReq{Epoch: 3}}} {
		if _, err := codec.Append(nil, env); !errors.Is(err, codec.ErrUnregistered) {
			t.Fatalf("encode %#v = %v, want ErrUnregistered", env, err)
		}
	}
}

// listenTCP serves s over loopback TCP and returns a client to it.
func listenTCP(t *testing.T, s *Server) transport.Client {
	t.Helper()
	tr := transport.NewTCPTimeout(5*time.Second, time.Second)
	ep, err := tr.ListenTCP("127.0.0.1:0", s.Handle)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	cl, err := tr.Dial(ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// wireBytes returns the payload bytes a response carries back, for the
// one response that does.
func wireBytes(resp any) (data []byte, carries bool) {
	r, carries := resp.(GetResp)
	if carries && len(r.Pieces) == 1 {
		data = r.Pieces[0].Data
	}
	return data, carries
}

// wireAhead is an epoch / fencing token no install in wireCases
// overtakes.
const wireAhead = 1 << 40

type wireCase struct{ req, resp any }

// wireView is a membership view with a stranded slot: wireCases pushes
// it first, so every PingResp a server answers them with carries Down.
var wireView = health.View{Epoch: 1, Addrs: []string{"a", "b", "c"}, Down: []int{1}}

// wireCases is one request of every type Server.dispatch switches on,
// with its response (compared by type). Every request that carries
// payload bytes carries big, exactly 16 KiB (the transport's
// vecThreshold), so over TCP it crosses as a head and a cut.
func wireCases(t testing.TB) (cases []wireCase, big []byte) {
	box := domain.Box3(0, 0, 0, 31, 31, 15)
	big = fill(domain.BufLen(box, 1), 1)
	wl, err := wlog.New().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	obj := &store.Object{Name: "f", Version: 1, BBox: box, ElemSize: 1, Data: big, CRC: store.Checksum(big), Logged: true}
	state := ReplState{Wlog: wl, Objects: []*store.Object{obj}}
	return []wireCase{
		{EpochSetReq{View: wireView}, health.PingResp{View: wireView}},
		{health.PingReq{}, health.PingResp{View: wireView}},
		{LeaseCASReq{Holder: "sup", Token: 1, TTL: time.Second}, health.PingResp{View: wireView}},
		{IntentPutReq{Intent: health.Intent{Slot: 1, DeadAddr: "d", Spare: "s", Token: 1}}, health.PingResp{View: wireView}},
		{IntentClearReq{Slot: 1}, health.PingResp{View: wireView}},
		{PutReq{App: "sim/0", Name: "f", Version: 1, ElemSize: 1, Logged: true, Piece: Piece{BBox: box, Data: big}}, PutResp{}},
		{GetReq{App: "viz/0", Name: "f", Version: 1, BBox: box, Logged: true}, GetResp{}},
		{CheckpointReq{App: "viz/0"}, CheckpointResp{}},
		{RecoveryReq{App: "viz/0"}, RecoveryResp{}},
		{QueryReq{Name: "f"}, QueryResp{}},
		{LockReq{Name: "step", Holder: "viz/0"}, LockResp{}},
		{ReplApplyReq{Epoch: wireAhead, Slot: 1, Records: []ReplRecord{
			{Seq: 1, Lock: &LockRecord{Name: "l", Holder: "h"}},
			{Seq: 2, Wlog: &wlog.Record{Op: wlog.OpPut, App: "sim/0"}, Obj: obj},
		}}, ReplApplyResp{}},
		{ReplSnapshotReq{Epoch: wireAhead, Slot: 2, State: state}, ReplSnapshotResp{}},
		{ReplFetchReq{Slot: 2}, ReplFetchResp{}},
		{WlogInstallReq{Slot: 0, State: state}, WlogInstallResp{}},
		{TraceReq{}, TraceResp{}},
		{StatsReq{}, StatsResp{}},
		{QosStatsReq{}, QosStatsResp{}},
		{TierStatsReq{}, TierStatsResp{}},
		{TierScrubReq{}, TierScrubResp{}},
	}, big
}

// enveloped is req bare and inside each envelope.
func enveloped(req any) []any {
	return []any{req, EpochReq{Epoch: wireAhead, Req: req}, FencedReq{Token: wireAhead, Req: EpochReq{Epoch: wireAhead, Req: req}}}
}

// TestWireCompleteness sends every request type Server.dispatch
// switches on over loopback TCP — bare, and inside each envelope — and
// wants its typed response back. InProc never encodes, so without this
// a message missing from wireTypes passes every other test and fails
// the first real deployment. Every message that carries payload bytes
// carries exactly 16 KiB of them, the transport's vecThreshold, so it
// crosses as a head and a cut (bare and at both envelope depths), and
// the bytes must come back exact.
func TestWireCompleteness(t *testing.T) {
	cases, big := wireCases(t)
	cl := listenTCP(t, NewServer(0))
	sent := map[string]bool{"EpochReq": true, "FencedReq": true} // every case below goes through both
	for _, tc := range cases {
		sent[strings.TrimPrefix(fmt.Sprintf("%T", tc.req), "staging.")] = true
		for _, req := range enveloped(tc.req) {
			resp, err := cl.Call(req)
			if err != nil || reflect.TypeOf(resp) != reflect.TypeOf(tc.resp) {
				t.Errorf("Call(%T{%T}) = %T, %v; want %T", req, tc.req, resp, err, tc.resp)
			}
			if got, carries := wireBytes(resp); carries && !bytes.Equal(got, big) {
				t.Errorf("Call(%T{%T}) brought back %d payload bytes that are not the %d sent", req, tc.req, len(got), len(big))
			}
		}
	}

	// The table must keep up with the switch: read the case list out of
	// Server.dispatch itself.
	file, err := parser.ParseFile(token.NewFileSet(), "server.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ast.Inspect(file, func(n ast.Node) bool {
		fn, ok := n.(*ast.FuncDecl)
		if !ok {
			return true
		}
		if fn.Name.Name != "dispatch" {
			return false
		}
		ast.Inspect(fn, func(n ast.Node) bool {
			if cc, ok := n.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					if name := types.ExprString(e); !sent[name] {
						t.Errorf("Server.dispatch handles %s, which this test never sends", name)
					}
				}
			}
			return true
		})
		return false
	})
}

// TestMeasureEveryWireCase: for every request of wireCases, bare and in
// both envelopes, for the response a server gives it and for the one
// the table lists (a PingResp among them, its view stranding a slot), codec.Measure
// is exact at both cut rules the service uses (none, and the
// transport's 16 KiB): Head is the length AppendCuts appends, Len that
// of the whole encoding. AppendCuts into a buffer of Head bytes' room
// builds the head in that buffer, with no allocation but the cut list,
// made once at its size.
func TestMeasureEveryWireCase(t *testing.T) {
	cases, _ := wireCases(t)
	s := NewServer(0)
	for _, tc := range cases {
		for _, req := range enveloped(tc.req) {
			resp, err := s.Handle(req)
			if err != nil {
				t.Fatalf("Handle(%T{%T}): %v", req, tc.req, err)
			}
			for _, v := range []any{req, resp, tc.resp} {
				for _, min := range []int{0, 16 << 10} {
					checkMeasured(t, v, min)
				}
			}
		}
	}
}

func checkMeasured(t *testing.T, v any, min int) {
	t.Helper()
	m, err := codec.Measure(v, min)
	if err != nil {
		t.Fatalf("Measure(%T, %d): %v", v, min, err)
	}
	wire, _ := codec.Append(nil, v)
	buf := make([]byte, 0, m.Head)
	head, cuts, err := codec.AppendCuts(buf, v, min)
	if err != nil || len(head) != m.Head || m.Len != len(wire) {
		t.Fatalf("%T min %d: Measure says head %d of %d bytes, AppendCuts built %d, Append %d (%v)", v, min, m.Head, m.Len, len(head), len(wire), err)
	}
	if &head[0] != &buf[:1][0] {
		t.Fatalf("%T min %d: the head outgrew a buffer of Head bytes' room", v, min)
	}
	want := 0.0
	if len(cuts) > 0 {
		want = 1 // the cut list
	}
	if got := testing.AllocsPerRun(10, func() { codec.AppendCuts(buf, v, min) }); got > want {
		t.Fatalf("%T min %d: AppendCuts into a buffer of Head bytes' room allocated %v times, want %v", v, min, got, want)
	}
}

// retiredIDs are the staging wire ids no table may register again.
var retiredIDs = []uint16{5, 6, 7, 8, 25, 26, 27, 28, 30, 31, 32, 36, 38, 40, 41, 42, 53, 54, 56}

// TestRetiredWireIDs: a retired id stays retired. No table registers
// 5 to 8, 25 or 26 (the CoREC shard store's put, get and drop pairs),
// 27 or 28 (the supervisor's shard-key scan), 30 (EpochSetResp: a view
// push is answered with the PingResp), 31 or 32 (the MembershipReq
// pair: the ping carries the view), 36, 38 or 40 (the lease answer and
// the intent acks: a lease or intent call is answered with the
// PingResp), 41 or 42 (the leadership probe: the ping carries the lease
// record), 53 or 54 (the in-transit reduce pair) or 56 (the fencing
// error, registered by health as 258), and a message carrying one fails
// to decode as an unknown type, so an old peer's frame is refused,
// never read as whatever took its number.
func TestRetiredWireIDs(t *testing.T) {
	for _, id := range retiredIDs {
		if m, ok := wireTypes[id]; ok {
			t.Errorf("wireTypes[%d] = %T: a retired id is reused", id, m)
		}
		if v, err := codec.Unmarshal([]byte{byte(id >> 8), byte(id), 0}); !errors.Is(err, codec.ErrUnknownType) {
			t.Errorf("decoding id %d = %T, %v; want codec.ErrUnknownType", id, v, err)
		}
	}
}

// TestNoGobInFrames: ReplState.Wlog rides inside ReplSnapshotReq and
// WlogInstallReq as opaque bytes, so an import check cannot see what
// encodes them. They are a codec message — decoded from network input
// under the codec's bounds, never a second codec's stream — whether a
// server built the state or a replica exported it.
func TestNoGobInFrames(t *testing.T) {
	g := replGroup(t, 2, 1)
	prod, _ := g.NewClient("sim/0")
	defer prod.Close()
	cons, _ := g.NewClient("ana/0")
	defer cons.Close()
	global := g.Config().Global
	for v := int64(1); v <= 2; v++ {
		if err := prod.PutWithLog("field", v, global, fill(domain.BufLen(global, 8), v)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := cons.GetWithLog("field", v, global); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := cons.WorkflowRestart(); err != nil || n == 0 {
		t.Fatalf("restart replays %d events, %v", n, err)
	}
	if err := prod.LockOnWrite("step"); err != nil {
		t.Fatal(err)
	}
	own, err := g.Server(0).buildReplState()
	if err != nil {
		t.Fatal(err)
	}
	if len(own.Locks.Held) == 0 || len(own.Objects) == 0 {
		t.Fatalf("state holds no lock or no object: %+v", own.Locks)
	}
	for name, wl := range map[string][]byte{"built": own.Wlog, "replica": fetchReplica(t, g.Server(1), 0).Wlog} {
		if _, err := codec.Unmarshal(wl); err != nil {
			t.Errorf("%s state's Wlog is not a codec message: %v", name, err)
		}
		flipped := append([]byte(nil), wl...)
		flipped[2] ^= 0xff // the queue count: more queues than bytes
		if _, err := codec.Unmarshal(flipped); !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("%s state's Wlog with a flipped byte: %v, want codec.ErrCorrupt", name, err)
		}
		if err := wlog.New().Restore(flipped); !errors.Is(err, codec.ErrCorrupt) {
			t.Errorf("Restore of it: %v, want codec.ErrCorrupt", err)
		}
	}
}

// TestTypedErrorsOverTCP: a server's two envelope rejections cross
// loopback TCP as typed causes — fields intact, the handler's text byte
// for byte in RemoteError.Msg, terminal to the retry layer — so
// IsStaleEpoch and health.IsFenced need no string matching.
func TestTypedErrorsOverTCP(t *testing.T) {
	s := NewServer(0)
	s.SetMembership(3, []string{"a", "b"})
	if err := s.lease.admit(7); err != nil {
		t.Fatal(err)
	}
	cl := listenTCP(t, s)

	_, err := cl.Call(EpochReq{Epoch: 2, Req: StatsReq{}})
	var se *StaleEpochError
	if !IsStaleEpoch(err) || !errors.As(err, &se) || *se != (StaleEpochError{Client: 2, Server: 3}) {
		t.Fatalf("stale-epoch call = %#v", err)
	}
	var re *transport.RemoteError
	if !errors.As(err, &re) || re.Msg != se.Error() || transport.Retryable(err) {
		t.Fatalf("stale-epoch rejection: RemoteError %#v, retryable %v", re, transport.Retryable(err))
	}

	_, err = cl.Call(FencedReq{Token: 5, Req: IntentClearReq{Slot: 1}})
	var fe *health.FencedError
	if !health.IsFenced(err) || !errors.As(err, &fe) || *fe != (health.FencedError{Token: 5, Fence: 7}) {
		t.Fatalf("fenced call = %#v", err)
	}
	if !errors.As(err, &re) || re.Msg != fe.Error() || transport.Retryable(err) {
		t.Fatalf("fencing rejection: RemoteError %#v, retryable %v", re, transport.Retryable(err))
	}

	// An untyped handler error stays a plain message with no cause.
	_, err = cl.Call(PutReq{Name: "f"})
	if !errors.As(err, &re) || re.Cause != nil || IsStaleEpoch(err) || health.IsFenced(err) {
		t.Fatalf("untyped handler error = %#v", err)
	}
}

// FuzzFastpathDecode holds every registered decoder to the contract:
// arbitrary input yields a typed error or a value, never a panic and
// never an unbounded allocation.
func FuzzFastpathDecode(f *testing.F) {
	seedValues := []any{
		PutReq{App: "sim/0", Name: "f", Version: 1, ElemSize: 8,
			Piece: Piece{BBox: domain.Box3(0, 0, 0, 7, 7, 7), Data: []byte("seed")}, Logged: true},
		GetResp{Version: 2, Pieces: []Piece{{BBox: domain.Box3(0, 0, 0, 1, 1, 1), Data: []byte("p")}}},
		PutReq{App: "sim/0", Name: "k", Version: 1, ElemSize: 1, Piece: Piece{BBox: domain.Box3(0, 0, 0, 4, 0, 0), Data: []byte("piece")}},
		ReplApplyReq{Epoch: 1, Slot: 0, Records: []ReplRecord{{Seq: 1, Obj: &store.Object{Name: "o", Data: []byte("d"), CRC: store.Checksum([]byte("d")), Logged: true}}}},
		ReplApplyReq{Epoch: 1, Slot: 0, Records: []ReplRecord{{Seq: 1, Wlog: &wlog.Record{Op: wlog.OpPut, App: "sim/0"}}}}, // a put record without its object
		WlogInstallReq{Slot: 1, State: ReplState{Seq: 3, Objects: []*store.Object{{Name: "o", Data: []byte("x"), CRC: store.Checksum([]byte("x")), Logged: true}}}},
		EpochReq{Epoch: 2, Req: GetReq{App: "viz/0", Name: "k", Version: 1, BBox: domain.Box3(0, 0, 0, 4, 0, 0)}},
		FencedReq{Token: 3, Req: EpochSetReq{View: wireView}},
		health.PingResp{ID: 2, View: wireView},
	}
	for _, v := range seedValues {
		if buf, err := codec.Append(nil, v); err == nil {
			f.Add(buf)
			if len(buf) > 3 {
				f.Add(buf[:len(buf)/2]) // truncated body
				mut := append([]byte(nil), buf...)
				mut[2] ^= 0xff // corrupt first body byte
				f.Add(mut)
			}
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff}) // unknown type id
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := codec.Unmarshal(data)
		if err != nil {
			return
		}
		// A successful decode must re-encode: the decoder produced a real
		// message value, not a half-initialized one.
		if _, err := codec.Append(nil, v); err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", v, err)
		}
	})
}

// TestGetSurvivesGCBeforeWrite: a get's response aliases the store's
// own objects until the transport has written it — one writev of the
// pieces where it used to copy them into a frame first — and in that
// window a checkpoint may garbage-collect the very version being
// returned. The handler hook below runs a whole WorkflowCheck over a
// second connection after every logged get has been served and before
// its response is encoded: the collection must really happen, and the
// consumer must still read the version's exact bytes (under -race: no
// one may write what the transport is reading). Pieces of 64 and of
// 16 KiB, the transport's vecThreshold: both leave as cuts.
func TestGetSurvivesGCBeforeWrite(t *testing.T) {
	for _, global := range []domain.BBox{domain.Box3(0, 0, 0, 127, 127, 31), domain.Box3(0, 0, 0, 63, 63, 31)} {
		cfg := Config{Global: global, NServers: 1, Bits: 2, ElemSize: 8} // 64 cells
		t.Run(fmt.Sprintf("cell=%dKiB", domain.BufLen(global, 8)/64>>10), func(t *testing.T) { getSurvivesGCBeforeWrite(t, cfg) })
	}
}

func getSurvivesGCBeforeWrite(t *testing.T, cfg Config) {
	tr := transport.NewTCP()
	srv := NewServer(0)
	var check *Client
	// The handler writes freed and the test reads it; nothing else orders
	// the two, since the handler's goroutine outlives its request.
	var freedMu sync.Mutex
	freed := map[int64]int64{}
	ep, err := tr.ListenTCP("127.0.0.1:0", func(req any) (any, error) {
		resp, err := srv.Handle(req)
		if e, ok := req.(EpochReq); ok {
			if g, ok := e.Req.(GetReq); ok && g.Logged && err == nil {
				n, cerr := check.WorkflowCheck()
				if cerr != nil {
					t.Errorf("checkpoint behind get v%d: %v", g.Version, cerr)
				}
				freedMu.Lock()
				freed[g.Version] += n
				freedMu.Unlock()
			}
		}
		return resp, err
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	pool, err := NewPool(tr, []string{ep.Addr()}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	client := func(app string) *Client {
		c, err := pool.NewClient(app)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	prod, cons := client("sim/0"), client("ana/0")
	check = client("ana/0") // the consumer's checkpoints, over a connection of their own

	n := domain.BufLen(cfg.Global, cfg.ElemSize)
	if err := prod.PutWithLog("f", 1, cfg.Global, fill(n, 1)); err != nil {
		t.Fatal(err)
	}
	for v := int64(1); v <= 4; v++ {
		// v+1 is staged first, so v is not the newest version: collectable
		// the moment its one reader checkpoints past it.
		if err := prod.PutWithLog("f", v+1, cfg.Global, fill(n, v+1)); err != nil {
			t.Fatal(err)
		}
		got, _, err := cons.GetWithLog("f", v, cfg.Global)
		if err != nil || !bytes.Equal(got, fill(n, v)) {
			t.Fatalf("get v%d while it was being collected: %d bytes, %v", v, len(got), err)
		}
		freedMu.Lock()
		f := freed[v]
		freedMu.Unlock()
		if f < int64(n) {
			t.Fatalf("the checkpoint behind get v%d freed %d bytes, want the version's %d: nothing was collected in the window", v, f, n)
		}
		if vs, _ := prod.Versions("f"); len(vs) != 1 || vs[0] != v+1 {
			t.Fatalf("versions after get v%d = %v", v, vs)
		}
	}
}
