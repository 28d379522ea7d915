package codec_test

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"gospaces/internal/codec"
	"gospaces/internal/domain"
	"gospaces/internal/health"
	"gospaces/internal/qos"
	"gospaces/internal/staging"
	"gospaces/internal/store"
	"gospaces/internal/trace"
	"gospaces/internal/transport"
)

// The registry under test is the production one: importing the protocol
// packages runs their registrations.
var (
	_ = health.PingReq{}
	_ = qos.ErrOverloaded{}
)

// Two shapes no production message has, for the cut rule (ids 0xfe00
// and up are the test range): a bulk field with fields on both sides,
// and two byte fields with nothing but a length prefix between them.
type (
	midBulk struct {
		A    string
		Data []byte
		B    int
	}
	twoBulk struct{ A, B []byte }
)

func init() {
	codec.Register(0xfe10, midBulk{})
	codec.Register(0xfe11, twoBulk{})
}

// registered returns the registrations in id order.
func registered() (ids []uint16, types map[uint16]reflect.Type) {
	types = codec.RegisteredTypes()
	for id := range types {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, types
}

var (
	bboxType  = reflect.TypeOf(domain.BBox{})
	timeType  = reflect.TypeOf(time.Time{})
	frameType = reflect.TypeOf(codec.Frame{})
)

// gen builds a random value of t in the codec's canonical form: empty
// slices are nil (what Reader.Bytes and the slice decoder produce),
// floats are finite, boxes are ones NewBBox could have built, and an
// `any` holds some registered message. Leaves come from testing/quick.
func gen(t testing.TB, typ reflect.Type, rng *rand.Rand, depth int) reflect.Value {
	v := reflect.New(typ).Elem()
	switch typ {
	case bboxType:
		b := domain.BBox{NDim: rng.Intn(domain.MaxDims + 1)}
		for i := 0; i < b.NDim; i++ {
			b.Min[i] = rng.Int63n(1<<20) - 1<<19
			b.Max[i] = b.Min[i] + rng.Int63n(1<<10)
		}
		return reflect.ValueOf(b)
	case timeType:
		return reflect.ValueOf(time.Unix(rng.Int63n(1<<33), rng.Int63n(1e9)))
	case frameType:
		return v // no wire encoding: a decode leaves it unset
	}
	switch typ.Kind() {
	case reflect.Interface:
		ids, types := registered()
		for {
			inner := types[ids[rng.Intn(len(ids))]]
			if inner.Kind() == reflect.Struct && (depth < 2 || inner.NumField() == 0 || inner.Field(inner.NumField()-1).Type.Kind() != reflect.Interface) {
				v.Set(gen(t, inner, rng, depth+1))
				return v
			}
		}
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			v.Field(i).Set(gen(t, typ.Field(i).Type, rng, depth))
		}
		// The wlog snapshot's Validators want what Log.Snapshot writes:
		// events of a known kind, none missing, the anchor and cursor
		// inside the queue, no component twice. A trace event's kind is
		// a known one too.
		switch typ.String() {
		case "wlog.Event":
			v.FieldByName("Kind").SetInt(1 + rng.Int63n(3))
		case "trace.Event":
			v.FieldByName("Kind").SetUint(1 + uint64(rng.Intn(int(trace.EvNetFault))))
		case "wlog.snapQueue":
			evs := v.FieldByName("Events")
			for i := 0; i < evs.Len(); i++ {
				for evs.Index(i).IsNil() {
					evs.Index(i).Set(gen(t, evs.Type().Elem(), rng, depth))
				}
			}
			v.FieldByName("Anchor").SetInt(rng.Int63n(int64(evs.Len())+1) - 1)
			v.FieldByName("Cursor").SetInt(rng.Int63n(int64(evs.Len()) + 1))
		case "wlog.snapshot":
			for q, i := v.FieldByName("Queues"), 0; i < q.Len(); i++ {
				q.Index(i).FieldByName("App").SetString(string(rune('a' + i)))
			}
		}
	case reflect.Slice:
		if typ.Elem().Kind() == reflect.Uint8 {
			// Byte fields come in every size class the cut thresholds tell apart.
			if n := []int{0, 1, 40, 16<<10 - 1, 16 << 10, 64<<10 - 1, 64 << 10, 100 << 10}[rng.Intn(8)]; n > 0 {
				v.Set(reflect.ValueOf(blob(rng, n)).Convert(typ))
			}
			return v
		}
		if n := rng.Intn(4); n > 0 {
			v.Set(reflect.MakeSlice(typ, n, n))
			for i := 0; i < n; i++ {
				v.Index(i).Set(gen(t, typ.Elem(), rng, depth))
			}
		}
	case reflect.Array:
		for i := 0; i < typ.Len(); i++ {
			v.Index(i).Set(gen(t, typ.Elem(), rng, depth))
		}
	case reflect.Pointer:
		if rng.Intn(3) > 0 {
			v.Set(reflect.New(typ.Elem()))
			v.Elem().Set(gen(t, typ.Elem(), rng, depth))
		}
	case reflect.Float64:
		v.SetFloat(rng.NormFloat64())
	default:
		leaf, ok := quick.Value(typ, rng)
		if !ok {
			t.Fatalf("no generator for %v", typ)
		}
		return leaf
	}
	return v
}

// blob returns n fresh bytes of noise.
func blob(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	k, _ := rng.Read(b[:min(n, 64)])
	for k < n {
		k += copy(b[k:], b[:k])
	}
	return b
}

// genMessage builds a random value of a registered type as Marshal
// takes it (a registered *T is a pointer to a generated T).
func genMessage(t testing.TB, typ reflect.Type, rng *rand.Rand) any {
	if typ.Kind() == reflect.Pointer {
		p := reflect.New(typ.Elem())
		p.Elem().Set(gen(t, typ.Elem(), rng, 0))
		return p.Interface()
	}
	return gen(t, typ, rng, 0).Interface()
}

// decoders are the two decode modes every encoding must survive.
var decoders = map[string]func([]byte) (any, error){"Unmarshal": codec.Unmarshal, "UnmarshalAlias": codec.UnmarshalAlias}

// byteFields appends every []byte field of v in encode order.
func byteFields(out [][]byte, v reflect.Value) [][]byte {
	switch v.Kind() {
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			return append(out, v.Bytes())
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			out = byteFields(out, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField() && v.Type() != timeType; i++ {
			out = byteFields(out, v.Field(i))
		}
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			out = byteFields(out, v.Elem())
		}
	}
	return out
}

// stitch splices each cut's bytes back into head at its offset.
func stitch(head []byte, cuts []codec.Cut) []byte {
	var out []byte
	at := 0
	for _, c := range cuts {
		out = append(append(out, head[at:c.At]...), c.Data...)
		at = c.At
	}
	return append(out, head[at:]...)
}

// checkCuts holds AppendCuts to its contract for v at one threshold:
// the cuts are exactly v's byte fields of at least min bytes, in order
// and by address (nothing copied), head stitched with them is wire, and
// Measure sized both before they were built.
func checkCuts(t *testing.T, v any, wire []byte, min int) []codec.Cut {
	t.Helper()
	head, cuts, err := codec.AppendCuts([]byte("prefix"), v, min)
	if err != nil {
		t.Fatalf("%T min %d: %v", v, min, err)
	}
	if m, err := codec.Measure(v, min); err != nil || m.Head != len(head)-len("prefix") || m.Len != len(wire) {
		t.Fatalf("%T min %d: Measure = head %d of %d bytes, %v; built head %d of %d", v, min, m.Head, m.Len, err, len(head)-len("prefix"), len(wire))
	}
	var want [][]byte
	for _, b := range byteFields(nil, reflect.ValueOf(v)) {
		if min > 0 && len(b) >= min {
			want = append(want, b)
		}
	}
	if len(cuts) != len(want) {
		t.Fatalf("%T min %d: %d cuts, want %d", v, min, len(cuts), len(want))
	}
	for i, c := range cuts {
		if len(c.Data) != len(want[i]) || &c.Data[0] != &want[i][0] {
			t.Fatalf("%T min %d: cut %d (%d bytes) is not field %d (%d bytes) itself", v, min, i, len(c.Data), i, len(want[i]))
		}
	}
	got := stitch(head, cuts)
	if !bytes.Equal(got, append([]byte("prefix"), wire...)) {
		t.Fatalf("%T min %d: head stitched with %d cuts differs from Append", v, min, len(cuts))
	}
	for name, decode := range decoders {
		if back, err := decode(append([]byte(nil), got[len("prefix"):]...)); err != nil || !reflect.DeepEqual(back, v) {
			t.Fatalf("%T min %d: %s of the stitched bytes = %v", v, min, name, err)
		}
	}
	return cuts
}

type cutCase struct {
	cuts int // how many fields of msg are 64 KiB or more
	msg  any
}

// cutCases are the shapes the cut rule must hold for: mid-struct, in a
// slice of structs, back to back, three envelope levels down.
func cutCases(rng *rand.Rand) []cutCase {
	big := func() []byte { return blob(rng, 64<<10) }
	return []cutCase{
		{1, midBulk{A: "before", Data: big(), B: 7}},
		{3, staging.GetResp{Version: 3, Pieces: []staging.Piece{{Data: big()}, {Data: []byte("small")}, {Data: big()}, {Data: big()}}}},
		{2, twoBulk{A: big(), B: big()}},
		{2, staging.FencedReq{Token: 1, Req: staging.EpochReq{Epoch: 2, Req: staging.ReplApplyReq{Records: []staging.ReplRecord{
			{Seq: 1, Obj: &store.Object{Data: big()}}, {Seq: 2, Lock: &staging.LockRecord{Name: "l"}}, {Seq: 3, Obj: &store.Object{Data: big()}}}}}}},
	}
}

// TestRoundTripEveryRegisteredType: for every id in the registry,
// random values — byte fields of every size class among them — survive
// Marshal→Unmarshal and Marshal→UnmarshalAlias, and a scatter-gather
// encode at every threshold cuts exactly the fields it should, without
// copying them, out of a head that stitches back to the plain encoding.
func TestRoundTripEveryRegisteredType(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ids, types := registered()
	if len(ids) < 51 {
		t.Fatalf("only %d registered types: the protocol packages' registrations did not run", len(ids))
	}
	thresholds := []int{1, 16 << 10, 64 << 10, 0}
	for _, id := range ids {
		for i := 0; i < 40; i++ {
			v := genMessage(t, types[id], rng)
			wire, err := codec.Append(nil, v)
			if err != nil {
				t.Fatalf("id %d: encode %#v: %v", id, v, err)
			}
			for name, decode := range decoders {
				got, err := decode(append([]byte(nil), wire...))
				if err != nil || !reflect.DeepEqual(got, v) {
					t.Fatalf("id %d: %s = %#v, %v\nwant %#v", id, name, got, err, v)
				}
			}
			for _, min := range thresholds {
				checkCuts(t, v, wire, min)
			}
		}
	}
	for _, tc := range cutCases(rng) {
		wire, err := codec.Append(nil, tc.msg)
		if err != nil {
			t.Fatal(err)
		}
		for _, min := range thresholds {
			cuts := checkCuts(t, tc.msg, wire, min)
			if min == 64<<10 && len(cuts) != tc.cuts {
				t.Fatalf("%T: %d cuts at 64 KiB, want %d", tc.msg, len(cuts), tc.cuts)
			}
		}
	}
	// Back-to-back cuts: only the second field's own length prefix (three
	// bytes for 64 KiB) separates them in the head.
	if _, cuts, _ := codec.AppendCuts(nil, twoBulk{A: blob(rng, 64<<10), B: blob(rng, 64<<10)}, 1); len(cuts) != 2 || cuts[1].At-cuts[0].At != 3 {
		t.Fatalf("twoBulk: %d cuts, want two with nothing but a 3-byte prefix between them", len(cuts))
	}

	// The shim bench/ calls: one cut, ending the head — also through an
	// envelope, which the single-tail split it replaces declined.
	put := staging.PutReq{Name: "f", Piece: staging.Piece{Data: blob(rng, 2<<10)}}
	for _, v := range []any{put, staging.EpochReq{Epoch: 1, Req: put}} {
		wire, _ := codec.Marshal(nil, v)
		head, tail, ok := codec.MarshalBulk([]byte("prefix"), v)
		if !ok || &tail[0] != &put.Piece.Data[0] || !bytes.Equal(append(head, tail...), append([]byte("prefix"), wire...)) {
			t.Fatalf("MarshalBulk(%T): ok %v, or head+tail differs from Marshal", v, ok)
		}
	}
	buf := []byte("prefix")
	for _, v := range []any{staging.PutReq{Name: "f"}, midBulk{Data: []byte("x"), B: 1}, twoBulk{A: []byte("x"), B: []byte("y")}} {
		if head, tail, ok := codec.MarshalBulk(buf, v); ok || tail != nil || &head[0] != &buf[0] || len(head) != len(buf) {
			t.Fatalf("MarshalBulk(%#v) = ok %v: not one cut ending the head, so it must decline and return buf", v, ok)
		}
	}
}

// checkTotal holds a decode of arbitrary bytes to the codec's contract:
// a typed error, or a value that re-encodes to a fixed point.
func checkTotal(t *testing.T, data []byte) {
	t.Helper()
	for name, decode := range decoders {
		v, err := decode(append([]byte(nil), data...))
		if err != nil {
			if !errors.Is(err, codec.ErrCorrupt) && !errors.Is(err, codec.ErrUnknownType) {
				t.Fatalf("%s: untyped error %v", name, err)
			}
			continue
		}
		enc, err := codec.Append(nil, v)
		if err != nil {
			t.Fatalf("%s: decoded %#v does not re-encode: %v", name, v, err)
		}
		again, err := codec.Unmarshal(enc)
		if err != nil {
			t.Fatalf("%s: re-encoding of %#v does not decode: %v", name, v, err)
		}
		if enc2, _ := codec.Append(nil, again); !bytes.Equal(enc, enc2) {
			t.Fatalf("%s: %#v is not a fixed point of encode∘decode", name, v)
		}
	}
}

// FuzzDecode feeds arbitrary bytes to the decoder of every registered
// id. The seeds are one valid encoding per id plus a truncation and a
// corruption of it, so plain `go test` already walks every plan.
func FuzzDecode(f *testing.F) {
	addDecodeSeeds(f)
	f.Fuzz(checkTotal)
}

// FuzzEncodedSize re-encodes whatever FuzzDecode's seeds (and their
// mutations) decode to, and holds Measure to exactness on it: at every
// cut rule, Head is the length of the head AppendCuts builds and Len
// that of Append's whole encoding.
func FuzzEncodedSize(f *testing.F) {
	addDecodeSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := codec.Unmarshal(data)
		if err != nil {
			return
		}
		wire, err := codec.Append(nil, v)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", v, err)
		}
		for _, min := range []int{0, 1, 16 << 10} {
			m, err := codec.Measure(v, min)
			head, _, _ := codec.AppendCuts(nil, v, min)
			if err != nil || m.Head != len(head) || m.Len != len(wire) {
				t.Fatalf("%T min %d: Measure = head %d of %d bytes, %v; AppendCuts built %d, Append %d", v, min, m.Head, m.Len, err, len(head), len(wire))
			}
		}
	})
}

// addDecodeSeeds adds FuzzDecode's seed corpus to f.
func addDecodeSeeds(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	ids, types := registered()
	var msgs []any
	for _, id := range ids {
		msgs = append(msgs, genMessage(f, types[id], rng))
	}
	// The membership view as the service sends it, stranding a slot: a
	// ping's answer, and a push bare and fenced.
	view := health.View{Epoch: 3, Addrs: []string{"a", "b", "c"}, Down: []int{1}}
	msgs = append(msgs, health.PingResp{ID: 2, View: view}, staging.EpochSetReq{View: view},
		staging.FencedReq{Token: 4, Req: staging.EpochSetReq{View: view}})
	for _, msg := range msgs {
		wire, err := codec.Append(nil, msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
		f.Add(wire[:len(wire)/2+1])
		mut := append([]byte(nil), wire...)
		mut[len(mut)-1] ^= 0xff
		f.Add(mut)
	}
	// A retired id (a hole between registered ids of one package's
	// block of 256) as an old peer's frame carries it, so the fuzzer
	// starts from the unknown-type path too.
	for i := 1; i < len(ids); i++ {
		for id := ids[i-1] + 1; id < ids[i] && id>>8 == ids[i]>>8; id++ {
			wire := []byte{byte(id >> 8), byte(id), 0}
			f.Add(wire)
			f.Add(wire[:2])
			f.Add([]byte{wire[0], wire[1], 0xff})
		}
	}
	for _, tc := range cutCases(rng) {
		head, cuts, err := codec.AppendCuts(nil, tc.msg, 1)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(stitch(head, cuts))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xfe})
}

// TestCorruptCountAllocatesNothing is the regression for the 318 MiB
// decode: a 12-byte ReplSnapshotReq whose dedup count claims 2^20
// outcomes with nothing behind it. The count is bounded by the unread
// input before anything is allocated for it.
func TestCorruptCountAllocatesNothing(t *testing.T) {
	body, err := codec.Append(nil, staging.ReplSnapshotReq{})
	if err != nil {
		t.Fatal(err)
	}
	// ...ReplState{Seq, Wlog, Objects, Locks{Held, Dedup}}: cut at the
	// dedup count and claim 1<<20 of them, one byte following.
	body = append(body[:len(body)-1], 0x80, 0x80, 0x40, 0x00)
	if len(body) != 12 {
		t.Fatalf("body is %d bytes, the layout moved: %x", len(body), body)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = codec.Unmarshal(body)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("rejecting a 12-byte body allocated %d bytes", got)
	}
}

// TestNestingBounded: envelopes inside envelopes stop at a fixed depth,
// so a frame of nothing but envelope headers cannot recurse the decoder
// off the stack.
func TestNestingBounded(t *testing.T) {
	var v any = staging.StatsReq{}
	for i := 0; i < 3; i++ {
		v = staging.FencedReq{Token: 1, Req: staging.EpochReq{Epoch: 1, Req: v}}
	}
	wire, err := codec.Append(nil, v)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := codec.Unmarshal(wire); err != nil || !reflect.DeepEqual(got, v) {
		t.Fatalf("7 levels: %v", err)
	}
	hdr, _ := codec.Append(nil, staging.EpochReq{Epoch: 1, Req: staging.StatsReq{}})
	hdr = hdr[:3] // id + epoch: one envelope header
	if _, err := codec.Unmarshal(bytes.Repeat(hdr, 1<<20)); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("a million nested envelopes: %v, want ErrCorrupt", err)
	}
}

// TestAliasRule: a message decoded with UnmarshalAlias points into the
// buffer it came from (the zero-copy ingest path), by one rule for every
// message — a PutReq, and a ReplApplyReq bare or in an envelope alike.
// The staging handlers that keep bytes copy them themselves (staging's
// TestHandlersOwnWhatTheyKeep).
func TestAliasRule(t *testing.T) {
	payload := bytes.Repeat([]byte{0xab}, 16<<10)
	put := staging.PutReq{Name: "f", Piece: staging.Piece{Data: payload}}
	apply := staging.ReplApplyReq{Epoch: 1, Records: []staging.ReplRecord{{Seq: 1, Obj: &store.Object{Data: payload}}}}
	for _, msg := range []any{put, apply, staging.FencedReq{Token: 1, Req: apply}} {
		wire, _ := codec.Append(nil, msg)
		v, err := codec.UnmarshalAlias(wire)
		if err != nil {
			t.Fatal(err)
		}
		clear(wire)
		if reflect.DeepEqual(v, msg) {
			t.Fatalf("an alias-decoded %T does not alias its buffer", msg)
		}
	}
}

// TestFrameRule: UnmarshalFrame hands a GetResp its input out of band —
// Unmarshal and UnmarshalAlias leave the Frame unset, and the encoding
// with it set is byte-identical — and Release gives exactly that input
// back to the free list, for the next get of its size.
func TestFrameRule(t *testing.T) {
	wire, _ := codec.Append(nil, getResp(4, 32<<10))
	for name, decode := range decoders {
		if v, err := decode(wire); err != nil || !reflect.DeepEqual(v.(staging.GetResp).Frame, codec.Frame{}) {
			t.Fatalf("%s set a GetResp's Frame (%v)", name, err)
		}
	}
	body := codec.GetBuf(len(wire))
	copy(body, wire)
	v, err := codec.UnmarshalFrame(body)
	if err != nil {
		t.Fatal(err)
	}
	resp := v.(staging.GetResp)
	if reflect.DeepEqual(resp.Frame, codec.Frame{}) {
		t.Fatal("UnmarshalFrame left the GetResp without its frame")
	}
	if again, _ := codec.Append(nil, resp); !bytes.Equal(again, wire) {
		t.Fatal("a GetResp holding its frame encodes differently")
	}
	resp.Frame.Release()
	if b := codec.GetBuf(len(wire)); &b[0] != &body[0] {
		t.Fatal("Release did not give the frame back to the free list")
	}
}

// TestRegisterRejects: what cannot be encoded, or would collide, fails
// at registration — not at the first Call that needs it.
func TestRegisterRejects(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("map field", func() { codec.Register(0xfe00, struct{ M map[string]int }{}) })
	mustPanic("unexported field", func() { codec.Register(0xfe01, struct{ n int }{}) })
	mustPanic("non-empty interface field", func() { codec.Register(0xfe02, struct{ E error }{}) })
	mustPanic("duplicate id", func() { codec.Register(1, struct{ A int }{}) })
	mustPanic("duplicate type", func() { codec.Register(0xfe03, staging.PutReq{}) })
	if _, err := codec.Append(nil, struct{ A int }{}); !errors.Is(err, codec.ErrUnregistered) {
		t.Fatalf("encode of an unregistered type = %v, want ErrUnregistered", err)
	}
	if _, err := codec.Append(nil, nil); !errors.Is(err, codec.ErrUnregistered) {
		t.Fatalf("encode of nil = %v, want ErrUnregistered", err)
	}
}

// BenchmarkPlan tracks the reflection plan's cost on the data plane's
// own messages, the way the transport drives it — a scatter-gather
// encode (its size pass included) that cuts byte fields of 16 KiB and
// up, and an alias decode:
// a logged put's envelope, small and large, and a get response of four
// pieces.
func BenchmarkPlan(b *testing.B) {
	box := domain.Box3(0, 0, 0, 15, 15, 7)
	put := func(n int) any {
		return staging.EpochReq{Epoch: 3, Req: staging.PutReq{App: "sim/0", Name: "field", Version: 7, ElemSize: 1, Logged: true,
			Piece: staging.Piece{BBox: box, Data: make([]byte, n)}}}
	}
	for _, bc := range []struct {
		name string
		msg  any
	}{{"EpochPut2KiB", put(2 << 10)}, {"EpochPut128KiB", put(128 << 10)}, {"GetResp4x2KiB", getResp(4, 2<<10)}} {
		wire, err := codec.Append(nil, bc.msg)
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, 0, len(wire))
		b.Run(bc.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := codec.AppendCuts(buf[:0], bc.msg, 16<<10); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(bc.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := codec.UnmarshalAlias(wire); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func getResp(pieces, size int) staging.GetResp {
	resp := staging.GetResp{Version: 7}
	for i := 0; i < pieces; i++ {
		resp.Pieces = append(resp.Pieces, staging.Piece{BBox: domain.Box3(0, 0, 0, 15, 15, 7), Data: make([]byte, size)})
	}
	return resp
}

// BenchmarkGetRespWire is one get round trip over loopback TCP by
// piece shape: a server's whole answer to a consumer, every piece a cut
// (the transport cuts byte fields from 16 KiB). 32 × 16 KiB is a
// replayed get's answer on restart-spill.
func BenchmarkGetRespWire(b *testing.B) {
	for _, bc := range []struct {
		name         string
		pieces, size int
	}{{"pieces=16x128KiB", 16, 128 << 10}, {"pieces=16x16KiB", 16, 16 << 10}, {"pieces=32x16KiB", 32, 16 << 10}} {
		b.Run(bc.name, func(b *testing.B) {
			resp := getResp(bc.pieces, bc.size)
			tr := transport.NewTCP()
			ep, err := tr.ListenTCP("127.0.0.1:0", func(any) (any, error) { return resp, nil })
			if err != nil {
				b.Fatal(err)
			}
			defer ep.Close()
			cl, err := tr.Dial(ep.Addr())
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			b.ReportAllocs()
			b.SetBytes(int64(bc.pieces * bc.size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := cl.Call(staging.GetReq{Name: "field", Version: 7})
				if err != nil || len(got.(staging.GetResp).Pieces) != bc.pieces {
					b.Fatal(got, err)
				}
			}
		})
	}
}
