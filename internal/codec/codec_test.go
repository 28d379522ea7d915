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
)

// The registry under test is the production one: importing the protocol
// packages runs their registrations.
var (
	_ = health.PingReq{}
	_ = qos.ErrOverloaded{}
)

// registered returns the production registrations in id order.
func registered() (ids []uint16, types map[uint16]reflect.Type) {
	types = codec.RegisteredTypes()
	for id := range types {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, types
}

var (
	bboxType = reflect.TypeOf(domain.BBox{})
	timeType = reflect.TypeOf(time.Time{})
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
	case reflect.Slice:
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

// TestRoundTripEveryRegisteredType: for every id in the registry,
// random values survive Marshal→Unmarshal and Marshal→UnmarshalAlias,
// and a bulk split is byte-identical to the plain encoding.
func TestRoundTripEveryRegisteredType(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ids, types := registered()
	if len(ids) < 60 {
		t.Fatalf("only %d registered types: the protocol packages' registrations did not run", len(ids))
	}
	bulk := map[reflect.Type]bool{}
	for _, id := range ids {
		for i := 0; i < 40; i++ {
			v := genMessage(t, types[id], rng)
			wire, err := codec.Append(nil, v)
			if err != nil {
				t.Fatalf("id %d: encode %#v: %v", id, v, err)
			}
			for name, decode := range map[string]func([]byte) (any, error){"Unmarshal": codec.Unmarshal, "UnmarshalAlias": codec.UnmarshalAlias} {
				got, err := decode(append([]byte(nil), wire...))
				if err != nil || !reflect.DeepEqual(got, v) {
					t.Fatalf("id %d: %s = %#v, %v\nwant %#v", id, name, got, err, v)
				}
			}
			head, tail, err := codec.AppendVec([]byte("prefix"), v)
			if got := append(head, tail...); err != nil || !bytes.Equal(got, append([]byte("prefix"), wire...)) {
				t.Fatalf("id %d: AppendVec head+tail differs from Append for %#v (%v)", id, v, err)
			}
			if _, _, ok := codec.MarshalBulk(nil, v); tail != nil && !ok {
				t.Fatalf("id %d: AppendVec split %#v but MarshalBulk declines it", id, v)
			}
			if head, tail, ok := codec.MarshalBulk([]byte("prefix"), v); ok {
				bulk[types[id]] = true
				if got := append(head, tail...); !bytes.Equal(got, append([]byte("prefix"), wire...)) {
					t.Fatalf("id %d: MarshalBulk head+tail differs from Marshal for %#v", id, v)
				}
			}
		}
	}
	// Exactly the messages that end in their payload split; envelopes
	// decline (vectoring them is a separate change with its own numbers).
	want := map[reflect.Type]bool{
		reflect.TypeOf(staging.PutReq{}): true, reflect.TypeOf(staging.ShardPutReq{}): true, reflect.TypeOf(staging.ShardGetResp{}): true,
	}
	if !reflect.DeepEqual(bulk, want) {
		t.Fatalf("bulk-split messages = %v, want %v", bulk, want)
	}
}

// checkTotal holds a decode of arbitrary bytes to the codec's contract:
// a typed error, or a value that re-encodes to a fixed point.
func checkTotal(t *testing.T, data []byte) {
	t.Helper()
	for name, decode := range map[string]func([]byte) (any, error){"Unmarshal": codec.Unmarshal, "UnmarshalAlias": codec.UnmarshalAlias} {
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
	rng := rand.New(rand.NewSource(2))
	ids, types := registered()
	for _, id := range ids {
		wire, err := codec.Append(nil, genMessage(f, types[id], rng))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
		f.Add(wire[:len(wire)/2+1])
		mut := append([]byte(nil), wire...)
		mut[len(mut)-1] ^= 0xff
		f.Add(mut)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xfe})
	f.Fuzz(checkTotal)
}

// TestCorruptCountAllocatesNothing is the regression for the 318 MiB
// decode: a 12-byte ReplFetchResp whose dedup count claims 2^20
// outcomes with nothing behind it. The count is bounded by the unread
// input before anything is allocated for it.
func TestCorruptCountAllocatesNothing(t *testing.T) {
	body, err := codec.Append(nil, staging.ReplFetchResp{})
	if err != nil {
		t.Fatal(err)
	}
	// ...ReplState{Seq, Wlog, Objects, Locks{Held, Dedup}, HasLocks}: cut
	// at the dedup count and claim 1<<20 of them, one byte following.
	body = append(body[:len(body)-2], 0x80, 0x80, 0x40, 0x00)
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

// TestAliasRule: a large PutReq decoded with UnmarshalAlias points into
// the buffer it came from (the zero-copy ingest path); a ReplApplyReq —
// registered as retained, because replica slots keep its records — is
// copied out even then, bare or inside an envelope, so recycling the
// buffer cannot reach retained state.
func TestAliasRule(t *testing.T) {
	payload := bytes.Repeat([]byte{0xab}, 16<<10)
	scribble := func(b []byte) {
		for i := range b {
			b[i] = 0
		}
	}

	wire, _ := codec.Append(nil, staging.PutReq{Name: "f", Piece: staging.Piece{Data: payload}})
	v, err := codec.UnmarshalAlias(wire)
	if err != nil {
		t.Fatal(err)
	}
	scribble(wire)
	if got := v.(staging.PutReq).Piece.Data; len(got) != len(payload) || got[0] != 0 || got[len(got)-1] != 0 {
		t.Fatal("an alias-decoded PutReq does not alias its buffer")
	}

	apply := staging.ReplApplyReq{Epoch: 1, Records: []staging.ReplRecord{{Seq: 1, Data: payload}}}
	for _, msg := range []any{apply, staging.FencedReq{Token: 1, Req: apply}} {
		wire, _ := codec.Append(nil, msg)
		v, err := codec.UnmarshalAlias(wire)
		if err != nil {
			t.Fatal(err)
		}
		scribble(wire)
		if !reflect.DeepEqual(v, msg) {
			t.Fatalf("%T: retained records changed when their frame buffer was recycled", msg)
		}
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
// own messages, the way the transport drives it: a logged put's
// envelope (MarshalBulk declines it, so Marshal copies the payload) and
// its alias decode, and a get response of four pieces.
func BenchmarkPlan(b *testing.B) {
	box := domain.Box3(0, 0, 0, 15, 15, 7)
	put := func(n int) any {
		return staging.EpochReq{Epoch: 3, Req: staging.PutReq{App: "sim/0", Name: "field", Version: 7, ElemSize: 1, Logged: true,
			Piece: staging.Piece{BBox: box, Data: make([]byte, n)}}}
	}
	resp := staging.GetResp{Version: 7}
	for i := 0; i < 4; i++ {
		resp.Pieces = append(resp.Pieces, staging.Piece{BBox: box, Data: make([]byte, 2<<10)})
	}
	for _, bc := range []struct {
		name string
		msg  any
	}{{"EpochPut2KiB", put(2 << 10)}, {"EpochPut128KiB", put(128 << 10)}, {"GetResp4x2KiB", resp}} {
		wire, err := codec.Append(nil, bc.msg)
		if err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, 0, len(wire))
		b.Run(bc.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := codec.Marshal(buf[:0], bc.msg); !ok {
					b.Fatal("encode declined")
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
