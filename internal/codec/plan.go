package codec

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"time"
)

// kind is one wire encoding. Every Go type a message may hold maps to
// exactly one; a type with none (maps, channels, unexported fields)
// panics at Register, not at the first Call.
type kind uint8

const (
	kBool   kind = iota // one byte, 0 or 1
	kInt                // zig-zag varint (all signed widths, time.Duration)
	kUint               // uvarint (all unsigned widths)
	kFloat              // 8 bytes, IEEE 754 big endian
	kString             // uvarint length + bytes
	kBytes              // uvarint length + bytes; aliasable; empty decodes as nil
	kTime               // varint Unix seconds + uvarint nanoseconds
	kArray              // the elements, no count
	kSlice              // uvarint count + elements; empty decodes as nil
	kStruct             // the exported fields in declaration order
	kPtr                // presence byte + pointee
	kAny                // a nested registered message: type id + body
	kFrame              // Frame: nothing on the wire; UnmarshalFrame sets it
)

// Validator is the type-level decode hook: when *T implements it, every
// decoded T — at any nesting depth — is checked right after its fields
// are read, and a non-nil error fails the decode with ErrCorrupt. It is
// for invariants of the type itself (domain.BBox bounds NDim), never
// for one message's layout.
type Validator interface{ ValidateWire() error }

var (
	timeType      = reflect.TypeOf(time.Time{})
	frameType     = reflect.TypeOf(Frame{})
	validatorType = reflect.TypeOf((*Validator)(nil)).Elem()
)

// maxSlice caps decoded element counts; the unread input bounds them
// too (see plan.min), so the cap only matters for zero-size elements.
const maxSlice = 1 << 20

// plan is the compiled encoding of one Go type, built once at Register.
type plan struct {
	kind   kind
	typ    reflect.Type
	elem   *plan   // kArray, kSlice, kPtr
	fields []field // kStruct
	n      int     // kArray length
	min    int     // least encoded size in bytes: bounds slice counts by the unread input
	valid  bool    // *typ implements Validator
}

type field struct {
	idx  int
	plan *plan
}

// planFor compiles t, reusing plans of nested types already seen.
func planFor(t reflect.Type, seen map[reflect.Type]*plan) *plan {
	if p := seen[t]; p != nil {
		return p
	}
	p := &plan{typ: t, min: 1}
	seen[t] = p
	switch t.Kind() {
	case reflect.Bool:
		p.kind = kBool
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		p.kind = kInt
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		p.kind = kUint
	case reflect.Float64:
		p.kind, p.min = kFloat, 8
	case reflect.String:
		p.kind = kString
	case reflect.Interface:
		if t.NumMethod() != 0 {
			panic(fmt.Sprintf("codec: %v: only `any` may hold a nested message", t))
		}
		p.kind, p.min = kAny, 2
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			p.kind = kBytes
			break
		}
		p.kind, p.elem = kSlice, planFor(t.Elem(), seen)
	case reflect.Array:
		p.kind, p.elem, p.n = kArray, planFor(t.Elem(), seen), t.Len()
		p.min = p.n * p.elem.min
	case reflect.Pointer:
		if t.Elem().Kind() != reflect.Struct {
			panic(fmt.Sprintf("codec: %v: only pointers to structs go on the wire", t))
		}
		p.kind, p.elem = kPtr, planFor(t.Elem(), seen)
	case reflect.Struct:
		if t == timeType {
			p.kind, p.min = kTime, 2
			break
		}
		if t == frameType {
			p.kind, p.min = kFrame, 0
			break
		}
		p.kind, p.min = kStruct, 0
		p.valid = reflect.PointerTo(t).Implements(validatorType)
		for i := 0; i < t.NumField(); i++ {
			if !t.Field(i).IsExported() {
				panic(fmt.Sprintf("codec: %v.%s: unexported field", t, t.Field(i).Name))
			}
			f := field{idx: i, plan: planFor(t.Field(i).Type, seen)}
			p.fields = append(p.fields, f)
			p.min += f.plan.min
		}
	default:
		panic(fmt.Sprintf("codec: %v: no wire encoding for kind %v", t, t.Kind()))
	}
	return p
}

// lookup finds v's registration and the value its plan walks.
func lookup(v any) (*msgType, reflect.Value, error) {
	m := registry.Load().byType[reflect.TypeOf(v)]
	if m == nil {
		return nil, reflect.Value{}, fmt.Errorf("%w: %T", ErrUnregistered, v)
	}
	rv := reflect.ValueOf(v)
	if m.ptr {
		if rv.IsNil() {
			return nil, rv, fmt.Errorf("%w: nil %T", ErrUnregistered, v)
		}
		rv = rv.Elem()
	}
	return m, rv, nil
}

// sizer carries one size pass: the head's exact length, and the count
// and bytes of the byte fields of at least min bytes held back as cuts
// (min 0: none), and the first error (only an unregistered nested
// message can fail one).
type sizer struct {
	min, head, cuts, cut int
	err                  error
}

// message adds v's type id and body.
func (s *sizer) message(v any) {
	m, rv, err := lookup(v)
	if err != nil {
		s.err = err
		return
	}
	s.head += 2
	m.plan.size(s, rv)
}

// size adds what enc appends for v: the real varint lengths, and a cut
// byte field as its length prefix in the head and its bytes in the cuts.
func (p *plan) size(s *sizer, v reflect.Value) {
	switch p.kind {
	case kBool:
		s.head++
	case kInt:
		s.head += varintLen(v.Int())
	case kUint:
		s.head += uvarintLen(v.Uint())
	case kFloat:
		s.head += 8
	case kString:
		s.head += uvarintLen(uint64(v.Len())) + v.Len()
	case kBytes:
		n := v.Len()
		s.head += uvarintLen(uint64(n))
		if s.min > 0 && n >= s.min {
			s.cuts++
			s.cut += n
		} else {
			s.head += n
		}
	case kTime:
		t := timeOf(v)
		s.head += varintLen(t.Unix()) + uvarintLen(uint64(t.Nanosecond()))
	case kArray:
		for i := 0; i < p.n; i++ {
			p.elem.size(s, v.Index(i))
		}
	case kSlice:
		n := v.Len()
		s.head += uvarintLen(uint64(n))
		for i := 0; i < n; i++ {
			p.elem.size(s, v.Index(i))
		}
	case kStruct:
		for _, f := range p.fields {
			f.plan.size(s, v.Field(f.idx))
		}
	case kPtr:
		s.head++
		if !v.IsNil() {
			p.elem.size(s, v.Elem())
		}
	case kAny:
		if s.err == nil {
			s.message(v.Interface())
		}
	}
}

// uvarintLen is the length binary.AppendUvarint gives x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// varintLen is the length binary.AppendVarint gives x (zig-zag).
func varintLen(x int64) int { return uvarintLen(uint64(x<<1) ^ uint64(x>>63)) }

// timeOf reads a time.Time field; one that is addressable (a slice
// element, a pointee) is read in place, not boxed into a fresh copy.
func timeOf(v reflect.Value) time.Time {
	if v.CanAddr() {
		return *v.Addr().Interface().(*time.Time)
	}
	return v.Interface().(time.Time)
}

// encoder carries one encode: the output and the byte fields of at
// least min bytes held back as cuts (min 0: none).
type encoder struct {
	buf  []byte
	min  int
	cuts []Cut
}

// message appends v's type id and body. Measure has sized the same
// value, so every type in it is registered.
func (e *encoder) message(v any) {
	m, rv, _ := lookup(v)
	e.buf = binary.BigEndian.AppendUint16(e.buf, m.id)
	m.plan.enc(e, rv)
}

// enc appends v.
func (p *plan) enc(e *encoder, v reflect.Value) {
	switch p.kind {
	case kBool:
		e.buf = AppendBool(e.buf, v.Bool())
	case kInt:
		e.buf = binary.AppendVarint(e.buf, v.Int())
	case kUint:
		e.buf = binary.AppendUvarint(e.buf, v.Uint())
	case kFloat:
		e.buf = binary.BigEndian.AppendUint64(e.buf, math.Float64bits(v.Float()))
	case kString:
		e.buf = AppendString(e.buf, v.String())
	case kBytes:
		b := v.Bytes()
		e.buf = binary.AppendUvarint(e.buf, uint64(len(b)))
		if e.min > 0 && len(b) >= e.min {
			e.cuts = append(e.cuts, Cut{At: len(e.buf), Data: b})
		} else {
			e.buf = append(e.buf, b...)
		}
	case kTime:
		t := timeOf(v)
		e.buf = binary.AppendVarint(e.buf, t.Unix())
		e.buf = binary.AppendUvarint(e.buf, uint64(t.Nanosecond()))
	case kArray:
		for i := 0; i < p.n; i++ {
			p.elem.enc(e, v.Index(i))
		}
	case kSlice:
		n := v.Len()
		e.buf = binary.AppendUvarint(e.buf, uint64(n))
		for i := 0; i < n; i++ {
			p.elem.enc(e, v.Index(i))
		}
	case kStruct:
		for _, f := range p.fields {
			f.plan.enc(e, v.Field(f.idx))
		}
	case kPtr:
		e.buf = AppendBool(e.buf, !v.IsNil())
		if !v.IsNil() {
			p.elem.enc(e, v.Elem())
		}
	case kAny:
		e.message(v.Interface())
	}
}

// dec reads one value of p's type from r into v (settable). Errors are
// r's sticky ones; loops stop at the first.
func (p *plan) dec(r *Reader, v reflect.Value) {
	switch p.kind {
	case kBool:
		v.SetBool(r.Bool())
	case kInt:
		if x := r.Varint(); v.OverflowInt(x) {
			r.fail()
		} else {
			v.SetInt(x)
		}
	case kUint:
		if x := r.Uvarint(); v.OverflowUint(x) {
			r.fail()
		} else {
			v.SetUint(x)
		}
	case kFloat:
		v.SetFloat(r.Float64())
	case kString:
		v.SetString(r.String())
	case kBytes:
		v.SetBytes(r.Bytes())
	case kTime:
		sec, nsec := r.Varint(), r.Uvarint()
		if nsec >= 1e9 {
			r.fail()
		}
		v.Set(reflect.ValueOf(time.Unix(sec, int64(nsec))))
	case kArray:
		for i := 0; i < p.n && r.err == nil; i++ {
			p.elem.dec(r, v.Index(i))
		}
	case kSlice:
		// Every element takes at least elem.min bytes, so a count the
		// unread input cannot back is corrupt before anything is
		// allocated for it.
		n := r.Int()
		if n > maxSlice || n*p.elem.min > len(r.d) {
			r.fail()
		}
		if r.err != nil || n == 0 {
			return
		}
		s := reflect.MakeSlice(p.typ, n, n)
		for i := 0; i < n && r.err == nil; i++ {
			p.elem.dec(r, s.Index(i))
		}
		v.Set(s)
	case kStruct:
		for _, f := range p.fields {
			if r.err != nil {
				return
			}
			f.plan.dec(r, v.Field(f.idx))
		}
		if p.valid && r.err == nil {
			if err := v.Addr().Interface().(Validator).ValidateWire(); err != nil {
				r.err = fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
		}
	case kPtr:
		if r.Bool() {
			pv := reflect.New(p.elem.typ)
			p.elem.dec(r, pv.Elem())
			v.Set(pv)
		}
	case kAny:
		if inner, err := UnmarshalFrom(r); err == nil {
			v.Set(reflect.ValueOf(inner))
		}
	case kFrame:
		if r.frame != nil {
			v.Set(reflect.ValueOf(Frame{r.frame}))
			r.frame = nil
		}
	}
}
