// Package codec is the one wire codec: every message that crosses a
// transport — request, response, or typed error cause — is a registered
// Go type, encoded by a plan built once from the type by reflection
// (plan.go). Register panics on a type it cannot encode, so a message
// is either on this path or not on the wire at all; there is no second
// codec to fall back to.
//
// Encodings are length-delimited and self-describing at the message
// level only: a two-byte registered type id selects the plan, and the
// body is the type's fields in declaration order (see kind for the
// per-kind layouts). Decoding is total: arbitrary input returns a typed
// error (ErrCorrupt, ErrUnknownType), never a panic and never an
// allocation the unread input cannot back — the fuzz suites hold it to
// that.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
)

// ErrCorrupt reports a body that does not parse: truncated fields,
// length prefixes or counts pointing past the end, trailing garbage, a
// value its type's Validator rejects.
var ErrCorrupt = errors.New("codec: corrupt message body")

// ErrUnknownType reports a type id nothing is registered under.
var ErrUnknownType = errors.New("codec: unknown message type id")

// ErrUnregistered reports an encode of a value whose type — its own or
// that of a payload nested in an envelope — was never registered.
var ErrUnregistered = errors.New("codec: unregistered message type")

// msgType is one registered message.
type msgType struct {
	id   uint16
	plan *plan
	ptr  bool // registered as *T: encode dereferences, decode returns the pointer
}

// registrations is the immutable registry snapshot; Register swaps in
// an extended copy, so the encode and decode paths read it lock-free.
type registrations struct {
	byID   map[uint16]*msgType
	byType map[reflect.Type]*msgType
	plans  map[reflect.Type]*plan
}

var (
	registerMu sync.Mutex
	registry   atomic.Pointer[registrations]
)

func init() {
	registry.Store(&registrations{
		byID: map[uint16]*msgType{}, byType: map[reflect.Type]*msgType{}, plans: map[reflect.Type]*plan{},
	})
	Register(0, "") // bare string payloads are built in
}

// Register puts zero's type on the wire under id: a struct T, a *T
// (typed errors register the pointer their chain holds), or string.
// Ids are protocol constants; a duplicate id or type, or a type with a
// field that has no wire encoding, panics. Every type decodes by one
// rule: UnmarshalAlias aliases its byte fields, whatever the message,
// and whoever keeps one past the input's life copies it.
func Register(id uint16, zero any) {
	registerMu.Lock()
	defer registerMu.Unlock()
	old := registry.Load()
	t := reflect.TypeOf(zero)
	if old.byID[id] != nil || old.byType[t] != nil {
		panic(fmt.Sprintf("codec: duplicate registration of id %d / %v", id, t))
	}
	next := &registrations{byID: maps.Clone(old.byID), byType: maps.Clone(old.byType), plans: maps.Clone(old.plans)}
	m := &msgType{id: id, ptr: t.Kind() == reflect.Pointer}
	if m.ptr {
		t = t.Elem()
	}
	m.plan = planFor(t, next.plans)
	next.byID[id], next.byType[reflect.TypeOf(zero)] = m, m
	registry.Store(next)
}

// Append appends v's encoding (type id + body) to buf. On error buf is
// returned unchanged.
func Append(buf []byte, v any) ([]byte, error) {
	out, _, err := AppendCuts(buf, v, 0)
	return out, err
}

// Marshal is Append with the error folded to ok.
func Marshal(buf []byte, v any) (out []byte, ok bool) {
	out, err := Append(buf, v)
	return out, err == nil
}

// Cut is a byte field a scatter-gather encode left out of the head:
// Data, uncopied, belongs at head[At], right after its own length prefix.
type Cut struct {
	At   int
	Data []byte
}

// AppendCuts is Append for vectored I/O. Every []byte field of at least
// min bytes (min > 0) — at any depth: in a nested struct, a slice of
// structs, an envelope's payload — is appended as its length prefix only
// and returned as a cut aliasing the field, so head with each cut's Data
// spliced in at its At is byte-identical to Append's output. It is
// Measure then AppendTo: buf grows at most once.
func AppendCuts(buf []byte, v any, min int) (head []byte, cuts []Cut, err error) {
	m, err := Measure(v, min)
	if err != nil {
		return buf, nil, err
	}
	head, cuts = m.AppendTo(buf)
	return head, cuts, nil
}

// Measured is v's encoding under AppendCuts's rule at min, sized by a
// pass over v that copies nothing, so a caller knows how large the
// encoding is before a byte of it is built.
type Measured struct {
	Head int // bytes AppendTo appends: the encoding less its cuts
	Len  int // Head plus every cut's bytes: the whole encoding
	v    any
	min  int
	cuts int
}

// Measure sizes v's encoding with every []byte field of at least min
// bytes (min > 0) cut. Head and Len are exact: real varint lengths, not
// bounds. An unregistered v, or nested payload, is ErrUnregistered.
func Measure(v any, min int) (Measured, error) {
	s := sizer{min: min}
	s.message(v)
	if s.err != nil {
		return Measured{}, s.err
	}
	return Measured{Head: s.head, Len: s.head + s.cut, v: v, min: min, cuts: s.cuts}, nil
}

// AppendTo appends the measured value's head to buf, growing buf at
// most once (to room for Head more bytes, when it has less), and
// returns the cuts. The value must not have changed since Measure.
func (m Measured) AppendTo(buf []byte) (head []byte, cuts []Cut) {
	e := encoder{buf: slices.Grow(buf, m.Head), min: m.min}
	if m.cuts > 0 {
		e.cuts = make([]Cut, 0, m.cuts)
	}
	e.message(m.v)
	return e.buf, e.cuts
}

// MarshalBulk is the single-tail split bench/ still calls: ok when v's
// only non-empty byte field ends its encoding. The next [benchmark] PR
// drops it for AppendCuts.
func MarshalBulk(buf []byte, v any) (head, tail []byte, ok bool) {
	head, cuts, err := AppendCuts(buf, v, 1)
	if err != nil || len(cuts) != 1 || cuts[0].At != len(head) {
		return buf, nil, false
	}
	return head, cuts[0].Data, true
}

// Unmarshal decodes one message produced by Marshal; bytes left over
// are corruption. Byte and string fields are copied out of data.
func Unmarshal(data []byte) (any, error) { return unmarshal(NewReader(data)) }

// UnmarshalAlias decodes like Unmarshal but every byte field, at any
// depth, aliases data directly (zero copy). The caller cedes ownership of
// data: it must not be modified or recycled while the decoded value is
// live, and a byte field kept longer than data must be copied by whoever
// keeps it (the transport.Handler contract).
func UnmarshalAlias(data []byte) (any, error) { return unmarshal(NewAliasReader(data)) }

// UnmarshalFrame is UnmarshalAlias for a frame body from GetBuf: the
// message's first Frame field, if it has one, takes body, and its
// holder releases body once done with the message. A message with no
// Frame field leaves body to the garbage collector.
func UnmarshalFrame(body []byte) (any, error) {
	r := NewAliasReader(body)
	r.frame = body
	return unmarshal(r)
}

func unmarshal(r *Reader) (any, error) {
	v, err := UnmarshalFrom(r)
	if err == nil && len(r.d) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.d))
	}
	return v, err
}

// maxNesting bounds envelopes within envelopes; the deepest a client
// sends is two levels (EpochReq{PutReq}, FencedReq{WlogInstallReq}).
const maxNesting = 8

// UnmarshalFrom decodes one message (type id + body) from the unread
// bytes of r, inheriting r's aliasing mode, and leaves what follows
// unread — this is how an envelope decodes its nested payload and how
// an error frame carries a cause ahead of a payload.
func UnmarshalFrom(r *Reader) (any, error) {
	if r.err == nil && len(r.d) < 2 {
		r.fail()
	}
	if r.err != nil {
		return nil, r.err
	}
	id := binary.BigEndian.Uint16(r.d)
	r.d = r.d[2:]
	m := registry.Load().byID[id]
	if m == nil {
		r.err = fmt.Errorf("%w: %d", ErrUnknownType, id)
		return nil, r.err
	}
	if r.depth++; r.depth > maxNesting {
		r.err = fmt.Errorf("%w: messages nested %d deep", ErrCorrupt, r.depth)
		return nil, r.err
	}
	pv := reflect.New(m.plan.typ)
	m.plan.dec(r, pv.Elem())
	r.depth--
	if r.err != nil {
		return nil, r.err
	}
	if m.ptr {
		return pv.Interface(), nil
	}
	return pv.Elem().Interface(), nil
}

// ---------------------------------------------------------------------
// Append helpers (the encode vocabulary the plans and the transport's
// error frames share).

// AppendString appends a uvarint length prefix followed by s.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendBool appends one byte, 0 or 1.
func AppendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// ---------------------------------------------------------------------
// Reader: the decode counterpart. Errors are sticky — after the first
// failure every accessor returns the zero value — so decoders read all
// fields linearly and check Err once.

// Reader decodes the helper encodings with bounds checks everywhere.
type Reader struct {
	d     []byte
	err   error
	alias bool
	depth int    // messages being decoded around the current one
	frame []byte // UnmarshalFrame's input, until a Frame field takes it
}

// NewReader wraps data for decoding; Bytes copies out of data.
func NewReader(data []byte) *Reader { return &Reader{d: data} }

// NewAliasReader wraps data for zero-copy decoding: Bytes returns
// subslices of data itself. Use only when the decoded value may own
// data (the transport hands over large frame bodies this way, skipping
// one full payload copy per message).
func NewAliasReader(data []byte) *Reader { return &Reader{d: data, alias: true} }

// Err returns the first decode error, or nil.
func (r *Reader) Err() error { return r.err }

// Rest consumes and returns all unread bytes (no copy).
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	out := r.d
	r.d = nil
	return out
}

func (r *Reader) fail() {
	if r.err == nil {
		r.err = ErrCorrupt
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.d)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.d = r.d[n:]
	return v
}

// Varint reads a zig-zag varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.d)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.d = r.d[n:]
	return v
}

// Int reads a uvarint and narrows it to a non-negative int.
func (r *Reader) Int() int {
	v := r.Uvarint()
	if v > uint64(int(^uint(0)>>1)) {
		r.fail()
		return 0
	}
	return int(v)
}

// Bytes reads a length-prefixed byte field: a fresh copy by default, a
// subslice of the input in alias mode (NewAliasReader). The length is
// bounds-checked against the unread input, so corrupt prefixes cannot
// force huge allocations.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.d)) {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil // one canonical empty: nil, never a zero-length alias of the input
	}
	var out []byte
	if r.alias {
		out = r.d[:n:n]
	} else {
		out = append([]byte(nil), r.d[:n]...) // growslice skips the zeroing a make would do
	}
	r.d = r.d[n:]
	return out
}

// String reads a length-prefixed string field.
func (r *Reader) String() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.d)) {
		r.fail()
		return ""
	}
	out := string(r.d[:n])
	r.d = r.d[n:]
	return out
}

// Float64 reads eight big-endian IEEE 754 bytes.
func (r *Reader) Float64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.d) < 8 {
		r.fail()
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(r.d))
	r.d = r.d[8:]
	return v
}

// Bool reads one byte as a bool (any non-zero value is true).
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if len(r.d) < 1 {
		r.fail()
		return false
	}
	v := r.d[0] != 0
	r.d = r.d[1:]
	return v
}
