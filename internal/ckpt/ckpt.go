// Package ckpt implements application-level checkpoint/restart for
// workflow components: serializing rank state to reliable storage
// (internal/pfs), the four workflow-level schemes the paper evaluates
// (global coordinated, uncoordinated, individual, hybrid — §IV-A), and
// multi-level checkpointing, one of the extensions its future-work
// section names (the other, proactive checkpointing, is quantified in
// the scale model: expt.SimParams.Proactive).
//
// It also owns the repository's one crash-atomic commit: Twin, a
// CRC-sealed record (SealRecord) in two alternating generations plus a
// one-byte marker. A rank's checkpoint is a Twin, and so is the cold
// tier's manifest (internal/tier): one election, one commit.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"math"
	"sync"

	"gospaces/internal/pfs"
)

// Scheme selects the workflow-level fault-tolerance scheme (the Co /
// Un / In / Hy bars of Figure 9/10).
type Scheme int

// Workflow-level fault-tolerance schemes.
const (
	// Coordinated checkpoints all components together and rolls the
	// whole workflow back on any failure (the paper's baseline, "Co").
	Coordinated Scheme = iota
	// Uncoordinated checkpoints components independently; staging data
	// logging keeps them consistent across rollbacks ("Un").
	Uncoordinated
	// Individual checkpoints components independently WITHOUT data
	// logging: the theoretical-optimal lower bound on time, which does
	// not guarantee correct results ("In").
	Individual
	// Hybrid protects some components with process replication and the
	// rest with C/R, composed through data logging ("Hy").
	Hybrid
)

func (s Scheme) String() string {
	switch s {
	case Coordinated:
		return "coordinated"
	case Uncoordinated:
		return "uncoordinated"
	case Individual:
		return "individual"
	case Hybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// Logged reports whether the scheme requires the staging data-logging
// path (PutWithLog/GetWithLog).
func (s Scheme) Logged() bool { return s == Uncoordinated || s == Hybrid }

// Saver persists per-rank component state in a checkpoint store.
//
// Each rank's checkpoint is one Twin, so a writer dying mid-checkpoint
// (torn write) or silent media corruption never costs more than one
// checkpoint period: Save writes the full record into the generation
// Load would not return and only then flips the marker (the atomic
// commit point), and Load falls back to the surviving generation when
// the marked one fails verification or does not decode.
type Saver struct {
	store *pfs.Store
}

// NewSaver wraps a checkpoint store.
func NewSaver(store *pfs.Store) *Saver { return &Saver{store: store} }

// Key names rank's checkpoint object prefix; the two generation records
// live at <key>/g0 and <key>/g1, the commit marker at <key>/cur.
func Key(component string, rank int) string {
	return fmt.Sprintf("ckpt/%s/%d", component, rank)
}

func genKey(base string, g int) string { return fmt.Sprintf("%s/g%d", base, g) }
func curKey(base string) string        { return base + "/cur" }

var crcTable = crc32.MakeTable(crc32.Castagnoli)

const recMagic = "CKP1"

// SealRecord frames a checkpoint, trace or spill payload: magic,
// sequence number, payload length, CRC32-C over header+payload,
// payload. The payload is the concatenation of parts, copied and
// checksummed once each, so a caller with a header and a bulk body need
// not join them first. Any truncation or bit flip fails verification in
// OpenRecord. The same framing holds a rank checkpoint, a Twin's
// generation, a trace file's frames and a spilled version of the cold
// tier (internal/tier), so one fuzz corpus covers them all. The tier
// already holds the CRC-32C of each object it spills and seals through
// SealParts, which writes these same bytes without reading a payload a
// second time.
func SealRecord(seq uint64, parts ...[]byte) []byte {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	rec := frame(seq, n)
	crc := crc32.Checksum(rec[4:20], crcTable)
	for _, p := range parts {
		crc = crc32.Update(crc, crcTable, p)
		rec = append(rec, p...)
	}
	binary.BigEndian.PutUint32(rec[20:24], crc)
	return rec
}

// frame starts a record of an n-byte payload: the 24-byte header with
// its CRC left zero, in a buffer with room for the payload.
func frame(seq uint64, n int) []byte {
	rec := make([]byte, 24, 24+n)
	copy(rec, recMagic)
	binary.BigEndian.PutUint64(rec[4:12], seq)
	binary.BigEndian.PutUint64(rec[12:20], uint64(n))
	return rec
}

// Part is a piece of a record payload together with its CRC-32C
// (Castagnoli, as crc32.Checksum returns it for Data alone).
type Part struct {
	Data []byte
	CRC  uint32
}

// SealParts writes exactly what SealRecord(seq, head, parts[0].Data,
// parts[1].Data, ...) writes, but checksums only head: each part's CRC
// is folded into the frame CRC by CRC-32C combination, so a part is
// copied once and never read again. The frame then covers every byte
// only as far as the given CRCs are right; a part given with a wrong
// one yields a record OpenRecord rejects, never one it accepts.
func SealParts(seq uint64, head []byte, parts []Part) []byte {
	n := len(head)
	for _, p := range parts {
		n += len(p.Data)
	}
	rec := append(frame(seq, n), head...)
	crc := crc32.Update(crc32.Checksum(rec[4:20], crcTable), crcTable, head)
	for _, p := range parts {
		crc = crcCombine(crc, p.CRC, len(p.Data))
		rec = append(rec, p.Data...)
	}
	binary.BigEndian.PutUint32(rec[20:24], crc)
	return rec
}

// castagnoli is the Castagnoli polynomial reflected, x^32 implied: bit
// 31 is the coefficient of x^0.
const castagnoli = 0x82f63b78

// mulModP returns a·b modulo the Castagnoli polynomial, both operands
// and the result in its reflected bit order.
func mulModP(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; m != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
		}
		if b&1 != 0 {
			b = b>>1 ^ castagnoli
		} else {
			b >>= 1
		}
	}
	return p
}

// x2n[k] is x^(2^k) modulo the polynomial, for every bit a 63-bit byte
// count shifted left by 3 (a count of bits) can have.
var x2n = func() (t [3 + 63]uint32) {
	p := uint32(1) << 30 // x^1
	for k := range t {
		t[k] = p
		p = mulModP(p, p)
	}
	return t
}()

// crcCombine returns the CRC-32C of A‖B from crcA, crcB and len(B):
// crcA shifted through 8·len(B) zero bits, xor crcB. The pre- and
// post-conditioning of the two CRCs cancel in the xor.
func crcCombine(crcA, crcB uint32, lenB int) uint32 {
	shift := uint32(1) << 31 // x^0
	for k, n := 3, uint64(lenB); n != 0; k, n = k+1, n>>1 {
		if n&1 != 0 {
			shift = mulModP(x2n[k], shift)
		}
	}
	return mulModP(shift, crcA) ^ crcB
}

// OpenRecord verifies and unframes one generation record.
func OpenRecord(rec []byte) (seq uint64, payload []byte, ok bool) {
	if len(rec) < 24 || string(rec[:4]) != recMagic {
		return 0, nil, false
	}
	hdr := rec[4:20]
	seq = binary.BigEndian.Uint64(hdr[0:8])
	want := binary.BigEndian.Uint32(rec[20:24])
	payload = rec[24:]
	if uint64(len(payload)) != binary.BigEndian.Uint64(hdr[8:16]) {
		return 0, nil, false
	}
	crc := crc32.Checksum(hdr, crcTable)
	crc = crc32.Update(crc, crcTable, payload)
	if crc != want {
		return 0, nil, false
	}
	return seq, payload, true
}

// RecordLen reads the total length of the record at the front of b,
// header and claimed payload, so a stream of records can be split
// without knowing their layout; ok is false when fewer bytes than a
// header remain. It verifies nothing: OpenRecord does.
func RecordLen(b []byte) (n uint64, ok bool) {
	if len(b) < 24 {
		return 0, false
	}
	return 24 + min(binary.BigEndian.Uint64(b[12:20]), math.MaxUint64-24), true
}

// Store is the slice of a PFS store a Twin reads and commits through.
// *pfs.Store, *pfs.DirStore and tier.Backend all satisfy it.
type Store interface {
	Write(name string, data []byte) error
	Read(name string) ([]byte, bool)
	Delete(name string)
}

// Twin is one crash-atomic cell: a sealed record in two alternating
// generations, <Base>/g0 and <Base>/g1, and a one-byte marker,
// <Base>/cur, naming the committed one. A rank's checkpoint and the
// cold tier's manifest are each one Twin.
type Twin struct {
	Store Store
	Base  string
}

// Load elects the committed generation and returns it with its
// sequence number; gen is -1 when no generation is usable, and present
// reports whether any generation record exists at all. A generation is
// usable when its frame verifies and accept takes its body (accept
// decodes it, keeping what it decoded). The marked generation is tried
// first, then its twin; with no usable marker, the freshest verified
// generation first.
func (c Twin) Load(accept func(body []byte) bool) (gen int, seq uint64, present bool) {
	var seqs [2]uint64
	var bodies [2][]byte
	var valid [2]bool
	for g := 0; g < 2; g++ {
		rec, ok := c.Store.Read(genKey(c.Base, g))
		present = present || ok
		if ok {
			seqs[g], bodies[g], valid[g] = OpenRecord(rec)
		}
	}
	first := 0
	if m, ok := c.Store.Read(curKey(c.Base)); ok && len(m) == 1 && m[0] <= 1 {
		first = int(m[0])
	} else if valid[1] && (!valid[0] || seqs[1] > seqs[0]) {
		first = 1
	}
	for _, g := range [2]int{first, 1 - first} {
		if valid[g] && accept(bodies[g]) {
			return g, seqs[g], present
		}
	}
	return -1, 0, present
}

// Commit seals parts as sequence seq into the generation Load did not
// return (prev; -1 when it returned none), then flips the marker: the
// commit point. If the flip fails, the new generation is deleted, so a
// Load that finds no usable marker cannot elect it by sequence number.
// It returns the committed generation, or prev on error.
func (c Twin) Commit(prev int, seq uint64, parts ...[]byte) (int, error) {
	g := 0
	if prev == 0 {
		g = 1
	}
	if err := c.Store.Write(genKey(c.Base, g), SealRecord(seq, parts...)); err != nil {
		return prev, err
	}
	if err := c.Store.Write(curKey(c.Base), []byte{byte(g)}); err != nil {
		c.Store.Delete(genKey(c.Base, g))
		return prev, err
	}
	return g, nil
}

// Drop deletes both generations and the marker.
func (c Twin) Drop() {
	c.Store.Delete(genKey(c.Base, 0))
	c.Store.Delete(genKey(c.Base, 1))
	c.Store.Delete(curKey(c.Base))
}

// decodesInto is a checkpoint body's acceptance test: it decodes as gob
// into out (into nothing, only checked, when out is nil).
func decodesInto(out any) func([]byte) bool {
	return func(body []byte) bool {
		return gob.NewDecoder(bytes.NewReader(body)).Decode(out) == nil
	}
}

func (s *Saver) cell(component string, rank int) Twin {
	return Twin{Store: s.store, Base: Key(component, rank)}
}

// Save serializes state (gob) as the rank's current checkpoint. The
// record goes to the generation Load would not return, so the
// checkpoint Load restores stays intact until the marker flip commits
// the new one.
func (s *Saver) Save(component string, rank int, state any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(state); err != nil {
		return fmt.Errorf("ckpt: encode %s/%d: %w", component, rank, err)
	}
	c := s.cell(component, rank)
	gen, seq, _ := c.Load(decodesInto(nil))
	if _, err := c.Commit(gen, seq+1, buf.Bytes()); err != nil {
		return fmt.Errorf("ckpt: save %s/%d: %w", component, rank, err)
	}
	return nil
}

// Load restores the rank's last checkpoint into out, reporting whether
// one existed. A generation that is torn, corrupt or does not decode
// falls back to its twin. An error is returned only when records exist
// but none is usable.
func (s *Saver) Load(component string, rank int, out any) (bool, error) {
	gen, _, present := s.cell(component, rank).Load(decodesInto(out))
	if gen < 0 && present {
		return false, fmt.Errorf("ckpt: %s/%d: all checkpoint generations torn or corrupt", component, rank)
	}
	return gen >= 0, nil
}

// Drop removes the rank's checkpoint.
func (s *Saver) Drop(component string, rank int) { s.cell(component, rank).Drop() }

// ---------------------------------------------------------------------
// Multi-level checkpointing (Moody et al., SC'10): frequent cheap
// checkpoints to node-local storage (L1), periodic checkpoints to the
// PFS (L2). L1 survives process failures but not node loss.

// MultiLevel writes checkpoints alternately to a fast local store and a
// durable global store. It is safe for concurrent use by multiple
// ranks.
type MultiLevel struct {
	l1, l2 *Saver
	// L2Every directs every n-th checkpoint to the durable level.
	L2Every int
	mu      sync.Mutex
	counts  map[string]int
}

// NewMultiLevel builds a two-level saver. l1 is the fast, volatile
// level; l2 the durable one. l2Every must be >= 1.
func NewMultiLevel(l1, l2 *pfs.Store, l2Every int) (*MultiLevel, error) {
	if l2Every < 1 {
		return nil, fmt.Errorf("ckpt: l2Every must be >= 1, got %d", l2Every)
	}
	return &MultiLevel{
		l1:      NewSaver(l1),
		l2:      NewSaver(l2),
		L2Every: l2Every,
		counts:  make(map[string]int),
	}, nil
}

// Save writes the checkpoint to L1, and additionally to L2 on every
// L2Every-th call for the same rank.
func (m *MultiLevel) Save(component string, rank int, state any) (level int, err error) {
	k := Key(component, rank)
	m.mu.Lock()
	m.counts[k]++
	n := m.counts[k]
	m.mu.Unlock()
	if err := m.l1.Save(component, rank, state); err != nil {
		return 0, err
	}
	if n%m.L2Every == 0 {
		if err := m.l2.Save(component, rank, state); err != nil {
			return 0, err
		}
		return 2, nil
	}
	return 1, nil
}

// Load restores from L1 if present, else from L2. It returns the level
// used (0 when no checkpoint exists).
func (m *MultiLevel) Load(component string, rank int, out any) (level int, err error) {
	ok, err := m.l1.Load(component, rank, out)
	if err != nil {
		return 0, err
	}
	if ok {
		return 1, nil
	}
	ok, err = m.l2.Load(component, rank, out)
	if err != nil {
		return 0, err
	}
	if ok {
		return 2, nil
	}
	return 0, nil
}

// InvalidateL1 simulates node loss: all L1 checkpoints of the component
// vanish, forcing recovery from the durable level.
func (m *MultiLevel) InvalidateL1(component string, ranks int) {
	for r := 0; r < ranks; r++ {
		m.l1.Drop(component, r)
	}
}
