package staging

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"reflect"
	"strings"
	"testing"
	"time"

	"gospaces/internal/codec"
	"gospaces/internal/domain"
	"gospaces/internal/health"
	"gospaces/internal/locks"
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
	lock := LockRecord{Name: "step", Holder: "sim/3", Write: true, Seq: 9, Ok: true}
	state := ReplState{
		Seq:  42,
		Wlog: []byte{1, 2, 3},
		Objects: []ReplObject{
			{Name: "field", Version: 7, BBox: box, ElemSize: 8, Data: []byte("payload"), CRC: 0xdeadbeef},
			{Name: "empty", Version: 1, BBox: domain.BBox{}, ElemSize: 4, Data: nil, CRC: 1},
		},
		HasLocks: true,
		Locks: LockMirrorState{
			Held: []locks.HeldLock{
				{Name: "step", Writer: "sim/3"},
				{Name: "mesh", Readers: []locks.ReaderCount{{Holder: "viz/0", Count: 2}, {Holder: "viz/1", Count: 1}}},
			},
			Dedup: []LockOutcome{
				{Holder: "sim/3", Seq: 9, Name: "step", Write: true, Ok: true},
				{Holder: "viz/0", Seq: 2, Name: "mesh", Release: true, Err: "not held"},
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
		ShardPutReq{Key: "field@3", Shard: 2, Data: []byte{0, 255, 7}, Rebuild: true},
		ShardPutResp{},
		ShardGetReq{Key: "field@3", Shard: 2},
		ShardGetResp{Data: []byte("shard"), Found: true},
		ReplApplyReq{Epoch: 5, Slot: 1, Records: []ReplRecord{
			{Seq: 1, Wlog: &rec, Data: []byte("body"), ElemSize: 8, CRC: 77},
			{Seq: 2, Lock: &lock},
			{Seq: 3},
		}},
		ReplApplyResp{NeedSnapshot: true, Seq: 12},
		ReplSnapshotReq{Epoch: 5, Slot: 1, State: state},
		ReplSnapshotResp{Seq: 42},
		ReplFetchReq{Slot: 2},
		ReplFetchResp{Found: true, Epoch: 5, State: state},
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
	inner := ShardPutReq{Key: "k", Shard: 1, Data: []byte("d")}
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

// TestWireCompleteness sends every request type Server.dispatch
// switches on over loopback TCP — bare, and inside each envelope — and
// wants its typed response back. InProc never encodes, so without this
// a message missing from wireTypes passes every other test and fails
// the first real deployment.
func TestWireCompleteness(t *testing.T) {
	const ahead = 1 << 40 // an epoch / fencing token no install below overtakes
	box := domain.Box3(0, 0, 0, 3, 3, 3)
	wl, err := wlog.New().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	state := ReplState{Wlog: wl}
	cases := []struct{ req, resp any }{
		{health.PingReq{}, health.PingResp{}},
		{LeaseCASReq{Holder: "sup", Token: 1, TTL: time.Second}, LeaseCASResp{}},
		{IntentPutReq{Intent: PromotionIntent{Slot: 1, DeadAddr: "d", Spare: "s", Token: 1}}, IntentPutResp{}},
		{IntentClearReq{Slot: 1}, IntentClearResp{}},
		{LeaderInfoReq{}, LeaderInfoResp{}},
		{EpochSetReq{Epoch: 1, Addrs: []string{"a", "b"}}, EpochSetResp{}},
		{MembershipReq{}, MembershipResp{}},
		{PutReq{App: "sim/0", Name: "f", Version: 1, ElemSize: 1, Logged: true,
			Piece: Piece{BBox: box, Data: make([]byte, domain.BufLen(box, 1))}}, PutResp{}},
		{GetReq{App: "viz/0", Name: "f", Version: 1, BBox: box, Logged: true}, GetResp{}},
		{CheckpointReq{App: "viz/0"}, CheckpointResp{}},
		{RecoveryReq{App: "viz/0"}, RecoveryResp{}},
		{QueryReq{Name: "f"}, QueryResp{}},
		{ShardPutReq{Key: "k", Shard: 1, Data: []byte("shard")}, ShardPutResp{}},
		{ShardGetReq{Key: "k", Shard: 1}, ShardGetResp{}},
		{ShardKeysReq{}, ShardKeysResp{}},
		{ShardDropReq{Key: "k"}, ShardDropResp{}},
		{LockReq{Name: "step", Holder: "viz/0"}, LockResp{}},
		{ReplApplyReq{Epoch: ahead, Slot: 1, Records: []ReplRecord{{Seq: 1, Lock: &LockRecord{Name: "l", Holder: "h", Ok: true}}}}, ReplApplyResp{}},
		{ReplSnapshotReq{Epoch: ahead, Slot: 2, State: state}, ReplSnapshotResp{}},
		{ReplFetchReq{Slot: 2}, ReplFetchResp{}},
		{WlogInstallReq{Slot: 0, State: state}, WlogInstallResp{}},
		{TraceReq{Raw: true}, TraceResp{}},
		{ReduceReq{Name: "f", Version: 1, BBox: box, Op: ReduceSum}, ReduceResp{}},
		{StatsReq{}, StatsResp{}},
		{QosStatsReq{}, QosStatsResp{}},
		{TierStatsReq{}, TierStatsResp{}},
		{TierScrubReq{}, TierScrubResp{}},
	}

	cl := listenTCP(t, NewServer(0))
	sent := map[string]bool{"EpochReq": true, "FencedReq": true} // every case below goes through both
	for _, tc := range cases {
		sent[strings.TrimPrefix(fmt.Sprintf("%T", tc.req), "staging.")] = true
		for _, req := range []any{tc.req, EpochReq{Epoch: ahead, Req: tc.req}, FencedReq{Token: ahead, Req: EpochReq{Epoch: ahead, Req: tc.req}}} {
			resp, err := cl.Call(req)
			if err != nil || reflect.TypeOf(resp) != reflect.TypeOf(tc.resp) {
				t.Errorf("Call(%T{%T}) = %T, %v; want %T", req, tc.req, resp, err, tc.resp)
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

// TestTypedErrorsOverTCP: the two staging rejections cross loopback TCP
// as typed causes — fields intact, the handler's text byte for byte in
// RemoteError.Msg, terminal to the retry layer — so IsStaleEpoch and
// IsFenced need no string matching.
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
	var fe *FencedError
	if !IsFenced(err) || !errors.As(err, &fe) || *fe != (FencedError{Token: 5, Fence: 7}) {
		t.Fatalf("fenced call = %#v", err)
	}
	if !errors.As(err, &re) || re.Msg != fe.Error() || transport.Retryable(err) {
		t.Fatalf("fencing rejection: RemoteError %#v, retryable %v", re, transport.Retryable(err))
	}

	// An untyped handler error stays a plain message with no cause.
	_, err = cl.Call(PutReq{Name: "f"})
	if !errors.As(err, &re) || re.Cause != nil || IsStaleEpoch(err) || IsFenced(err) {
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
		ShardPutReq{Key: "k", Shard: 1, Data: []byte("shard")},
		ReplApplyReq{Epoch: 1, Slot: 0, Records: []ReplRecord{{Seq: 1, Data: []byte("d")}}},
		WlogInstallReq{Slot: 1, State: ReplState{Seq: 3, Objects: []ReplObject{{Name: "o", Data: []byte("x")}}}},
		EpochReq{Epoch: 2, Req: ShardGetReq{Key: "k", Shard: 0}},
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
