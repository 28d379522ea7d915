// Package tier implements the PFS-backed cold tier of the staging
// service: cold object versions are demoted ("spilled") out of staging
// RAM into CRC-checksummed records on checkpoint storage and promoted
// back transparently when a replaying reader asks for them.
//
// Crash atomicity is internal/ckpt's. A spill is one batch, the logged
// objects a server holds of one version, and the batch is one record:
// a header, a fixed descriptor per object and the payloads back to
// back, sealed with the checkpoint framing (ckpt.SealParts, whose frame
// CRC is combined from the CRC-32C every logged object carries since
// ingest) and written in two generations, so a single torn write or bit
// flip never loses it. The set of spilled records lives in a manifest
// that is one ckpt.Twin, the cell a rank's checkpoint is: a commit
// writes the uncommitted generation and flips the marker, with no temp
// file and no rename. A spill is therefore a group commit of four
// backend writes — two record generations, one manifest generation,
// one marker — and the caller drops the RAM copies only after the
// last, so a crash or backend fault mid-spill never leaves a version
// half-moved: it is either still resident or durably in the tier,
// whole. Records not reachable from the committed manifest are orphans
// and are garbage-collected on attach.
//
// When the backend fails (ENOSPC, I/O errors) the tier degrades to
// RAM-only mode: spills return the typed *DegradedError and the
// staging server falls back to its normal shed path. A later Scrub
// probes the backend and re-arms the tier, and also walks every
// record, heals single-generation corruption from the surviving twin,
// and reports anything unrecoverable — corruption is always detected
// by CRC, never served as valid data.
package tier

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"sync"

	"gospaces/internal/ckpt"
	"gospaces/internal/codec"
	"gospaces/internal/domain"
	"gospaces/internal/store"
)

// Backend is the slice of a PFS store the tier needs. Both *pfs.Store
// and *pfs.DirStore satisfy it. The tier itself never renames; Rename
// stays for the benchmark's tracing decorator (bench/decor.go).
type Backend interface {
	Write(name string, data []byte) error
	Read(name string) ([]byte, bool)
	Rename(old, new string) error
	List(prefix string) []string
	Delete(name string)
}

// DegradedError is returned when the cold tier is unavailable and the
// server is running RAM-only. It wraps the backend fault that tripped
// degradation, when one is known.
type DegradedError struct {
	Cause error
}

func (e *DegradedError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("tier: degraded (RAM-only): %v", e.Cause)
	}
	return "tier: degraded (RAM-only): cold tier unavailable"
}

func (e *DegradedError) Unwrap() error { return e.Cause }

// ErrTierDegraded is the bare degraded sentinel (no specific cause).
var ErrTierDegraded = &DegradedError{}

// Entry is one spilled record in the manifest: one batch of one
// version, all the logged objects a server held of it when it spilled.
// A version spilled in several batches has one entry per batch.
type Entry struct {
	Key     uint64 // record id; records live at <prefix>o/<key>/g{0,1}
	Name    string
	Version int64
	Objects int   // objects in the record
	Bytes   int64 // payload bytes, summed over them
}

// A spill record's body is a fixed big-endian header and the name, one
// fixed descriptor per object, then the payloads back to back in
// descriptor order (the ckpt frame carries and checks the total
// length):
//
//	0  magic "TVR1"    4  version i64    12 objects u32    16 name length u32
//	20 name, then per object, 65 bytes:
//	   0 ndim u8   1 min[3] i64   25 max[3] i64   49 elemSize u32   53 CRC u32   57 length u64
//	payloads
const (
	bodyMagic  = "TVR1"
	bodyHdrLen = 20
	descLen    = 65
)

// sealVersion builds the sealed record of a batch of one version's
// objects. Only the header and descriptors are checksummed here: the
// frame CRC folds in each payload's ingest CRC (ckpt.SealParts), so a
// payload is copied once and not read again.
func sealVersion(key uint64, objs []*store.Object) []byte {
	name := objs[0].Name
	head := make([]byte, bodyHdrLen, bodyHdrLen+len(name)+descLen*len(objs))
	copy(head, bodyMagic)
	binary.BigEndian.PutUint64(head[4:], uint64(objs[0].Version))
	binary.BigEndian.PutUint32(head[12:], uint32(len(objs)))
	binary.BigEndian.PutUint32(head[16:], uint32(len(name)))
	head = append(head, name...)
	parts := make([]ckpt.Part, len(objs))
	for i, o := range objs {
		var d [descLen]byte
		d[0] = byte(o.BBox.NDim)
		for j := 0; j < domain.MaxDims; j++ {
			binary.BigEndian.PutUint64(d[1+8*j:], uint64(o.BBox.Min[j]))
			binary.BigEndian.PutUint64(d[25+8*j:], uint64(o.BBox.Max[j]))
		}
		binary.BigEndian.PutUint32(d[49:], uint32(o.ElemSize))
		binary.BigEndian.PutUint32(d[53:], o.CRC)
		binary.BigEndian.PutUint64(d[57:], uint64(len(o.Data)))
		head = append(head, d[:]...)
		parts[i] = ckpt.Part{Data: o.Data, CRC: o.CRC}
	}
	return ckpt.SealParts(key, head, parts)
}

// openVersion decodes a record body into its objects, refusing any
// body whose payloads do not fill it exactly. Each payload aliases
// body, capped at its own length.
func openVersion(body []byte) ([]*store.Object, bool) {
	if len(body) < bodyHdrLen || string(body[:4]) != bodyMagic {
		return nil, false
	}
	count := uint64(binary.BigEndian.Uint32(body[12:]))
	nameLen := uint64(binary.BigEndian.Uint32(body[16:]))
	rest := uint64(len(body) - bodyHdrLen)
	if count == 0 || rest < nameLen || (rest-nameLen)/descLen < count {
		return nil, false
	}
	name := string(body[bodyHdrLen : bodyHdrLen+nameLen])
	version := int64(binary.BigEndian.Uint64(body[4:]))
	descs := body[bodyHdrLen+nameLen:]
	off := bodyHdrLen + nameLen + count*descLen
	objs := make([]*store.Object, count)
	for i := range objs {
		d := descs[i*descLen:]
		n := binary.BigEndian.Uint64(d[57:])
		if d[0] > domain.MaxDims || n > uint64(len(body))-off {
			return nil, false
		}
		o := &store.Object{
			Name:     name,
			Version:  version,
			ElemSize: int(binary.BigEndian.Uint32(d[49:])),
			CRC:      binary.BigEndian.Uint32(d[53:]),
			Data:     body[off : off+n : off+n],
			Logged:   true,
		}
		o.BBox.NDim = int(d[0])
		for j := 0; j < domain.MaxDims; j++ {
			o.BBox.Min[j] = int64(binary.BigEndian.Uint64(d[1+8*j:]))
			o.BBox.Max[j] = int64(binary.BigEndian.Uint64(d[25+8*j:]))
		}
		objs[i] = o
		off += n
	}
	return objs, off == uint64(len(body))
}

// manifest is the body sealed inside the manifest record, a codec
// message. A body that does not decode as one — a manifest written
// before it was, in gob, or under its retired id 1280, one entry per
// object — is no valid manifest.
type manifest struct {
	NextKey uint64
	Entries []Entry
}

// Ids 1280–1535 are tier's (DESIGN.md §7 has the whole table); 1280,
// the manifest of one record per object, is retired.
func init() { codec.Register(1281, manifest{}) }

// Stats is a point-in-time tier counter snapshot. Entries, Spills,
// Promotes and ScrubLost count objects, not records.
type Stats struct {
	Entries        int
	Bytes          int64
	Spills         int64
	SpillBytes     int64
	Promotes       int64
	PromoteBytes   int64
	ScrubChecked   int64
	ScrubHealed    int64
	ScrubLost      int64
	Degraded       bool
	DegradedEvents int64
}

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	Checked int64 // generation records verified
	Healed  int64 // corrupt generations rewritten from the valid twin
	Lost    int64 // objects of records with no valid generation (detected, dropped)
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Tier is one server's cold tier. Safe for concurrent use.
type Tier struct {
	mu      sync.Mutex
	be      Backend
	prefix  string
	man     ckpt.Twin // <prefix>manifest/g0|g1|cur
	byName  map[string]map[int64][]*Entry
	nextKey uint64
	mseq    uint64
	mgen    int // committed manifest generation, -1 when none

	degraded       bool
	degradedCause  error
	spills         int64
	spillBytes     int64
	promotes       int64
	promoteBytes   int64
	scrubChecked   int64
	scrubHealed    int64
	scrubLost      int64
	degradedEvents int64
	entries        int
	bytes          int64
}

// New attaches a tier rooted at <id> on be, recovering the committed
// manifest (if any) and garbage-collecting orphaned records left by a
// crash between record writes and the manifest commit.
func New(be Backend, id string) *Tier {
	prefix := fmt.Sprintf("tier/%s/", id)
	t := &Tier{
		be:     be,
		prefix: prefix,
		man:    ckpt.Twin{Store: be, Base: prefix + "manifest"},
		byName: make(map[string]map[int64][]*Entry),
	}
	t.load()
	return t
}

func (t *Tier) recKey(key uint64, gen int) string {
	return fmt.Sprintf("%so/%d/g%d", t.prefix, key, gen)
}

// load recovers manifest state on attach. Caller is the constructor;
// no lock needed yet.
func (t *Tier) load() {
	var man manifest
	t.mgen, t.mseq, _ = t.man.Load(func(body []byte) bool {
		msg, err := codec.Unmarshal(body)
		m, ok := msg.(manifest)
		man = m
		return err == nil && ok
	})
	live := make(map[string]bool)
	if t.mgen >= 0 {
		t.nextKey = man.NextKey
		for i := range man.Entries {
			e := man.Entries[i]
			t.index(&e)
			live[t.recKey(e.Key, 0)] = true
			live[t.recKey(e.Key, 1)] = true
		}
	}
	// Orphan GC: records the committed manifest doesn't reach were
	// abandoned mid-spill (or mid-promote) by a crash.
	for _, name := range t.be.List(t.prefix + "o/") {
		if !live[name] {
			t.be.Delete(name)
		}
	}
	// A binary that committed the manifest by write-temp + rename could
	// crash with the temp file written.
	t.be.Delete(t.prefix + "manifest.tmp")
}

func (t *Tier) index(e *Entry) {
	vers, ok := t.byName[e.Name]
	if !ok {
		vers = make(map[int64][]*Entry)
		t.byName[e.Name] = vers
	}
	vers[e.Version] = append(vers[e.Version], e)
	t.entries += e.Objects
	t.bytes += e.Bytes
	if e.Key >= t.nextKey {
		t.nextKey = e.Key + 1
	}
}

func (t *Tier) unindex(e *Entry) {
	vers := t.byName[e.Name]
	list := vers[e.Version]
	for i, x := range list {
		if x.Key == e.Key {
			vers[e.Version] = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(vers[e.Version]) == 0 {
		delete(vers, e.Version)
	}
	if len(vers) == 0 {
		delete(t.byName, e.Name)
	}
	t.entries -= e.Objects
	t.bytes -= e.Bytes
}

// commitManifest persists the in-memory entry set as the next
// generation of the manifest cell: one generation write, one marker
// flip. Caller holds t.mu.
func (t *Tier) commitManifest() error {
	var man manifest
	man.NextKey = t.nextKey
	for _, vers := range t.byName {
		for _, list := range vers {
			for _, e := range list {
				man.Entries = append(man.Entries, *e)
			}
		}
	}
	sort.Slice(man.Entries, func(i, j int) bool { return man.Entries[i].Key < man.Entries[j].Key })
	body, err := codec.Append(nil, man)
	if err != nil {
		return fmt.Errorf("tier: manifest encode: %w", err)
	}
	gen, err := t.man.Commit(t.mgen, t.mseq+1, body)
	if err != nil {
		return err
	}
	t.mgen, t.mseq = gen, t.mseq+1
	return nil
}

func (t *Tier) degrade(cause error) *DegradedError {
	t.degraded = true
	t.degradedCause = cause
	t.degradedEvents++
	return &DegradedError{Cause: cause}
}

// deleteRecords removes both generations of every entry's record.
func (t *Tier) deleteRecords(entries ...*Entry) {
	for _, e := range entries {
		t.be.Delete(t.recKey(e.Key, 0))
		t.be.Delete(t.recKey(e.Key, 1))
	}
}

// Spill demotes a batch of resident objects of one version as a group
// commit: the batch is sealed as one record, both generations of it
// are written, then the manifest is committed once — four backend
// writes whatever the batch size — and only then may the caller drop
// the RAM copies. A backend fault at any point deletes the record,
// degrades the tier and returns *DegradedError with nothing of the
// batch visible, so the caller drops nothing.
func (t *Tier) Spill(objs []*store.Object) error {
	if len(objs) == 0 {
		return nil
	}
	var total int64
	for _, o := range objs {
		if o.Data == nil {
			return fmt.Errorf("tier: refusing to spill metadata-only object %s@%d", o.Name, o.Version)
		}
		if o.Name != objs[0].Name || o.Version != objs[0].Version {
			return fmt.Errorf("tier: a spill batch is one version: %s@%d beside %s@%d", o.Name, o.Version, objs[0].Name, objs[0].Version)
		}
		total += int64(len(o.Data))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.degraded {
		return &DegradedError{Cause: t.degradedCause}
	}
	e := &Entry{Key: t.nextKey, Name: objs[0].Name, Version: objs[0].Version, Objects: len(objs), Bytes: total}
	t.nextKey++
	rec := sealVersion(e.Key, objs)
	for g := 0; g < 2; g++ {
		if err := t.be.Write(t.recKey(e.Key, g), rec); err != nil {
			t.deleteRecords(e)
			return t.degrade(err)
		}
	}
	t.index(e)
	if err := t.commitManifest(); err != nil {
		t.unindex(e)
		t.deleteRecords(e)
		return t.degrade(err)
	}
	t.spills += int64(len(objs))
	t.spillBytes += total
	return nil
}

// HasName reports whether any version of name is spilled.
func (t *Tier) HasName(name string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byName[name]) > 0
}

// Versions returns the ascending spilled versions of name.
func (t *Tier) Versions(name string) []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []int64
	for v := range t.byName[name] {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// readEntry reads and verifies one record, trying generation 0, then
// 1. A generation serves only when its frame CRC verifies, its body
// matches the entry, and every payload matches its own CRC. Caller
// holds t.mu.
func (t *Tier) readEntry(e *Entry) ([]*store.Object, bool) {
	for g := 0; g < 2; g++ {
		rec, ok := t.be.Read(t.recKey(e.Key, g))
		if !ok {
			continue
		}
		seq, body, ok := ckpt.OpenRecord(rec)
		if !ok || seq != e.Key {
			continue
		}
		if objs, ok := openVersion(body); ok && e.holds(objs) {
			return objs, true
		}
	}
	return nil, false
}

// holds reports whether objs are e's record: its name, version, object
// count and byte total, and every payload matching its own CRC.
func (e *Entry) holds(objs []*store.Object) bool {
	if len(objs) != e.Objects {
		return false
	}
	var n int64
	for _, o := range objs {
		if o.Name != e.Name || o.Version != e.Version || crc32.Checksum(o.Data, crcTable) != o.CRC {
			return false
		}
		n += int64(len(o.Data))
	}
	return n == e.Bytes
}

// Promote reads back every spilled record of (name, version), removes
// their entries from the manifest, and returns the objects for
// re-insertion into staging RAM. A record whose both generations fail
// verification is dropped and its objects counted lost — corruption is
// detected, never returned as data.
func (t *Tier) Promote(name string, version int64) ([]*store.Object, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	list := t.byName[name][version]
	if len(list) == 0 {
		return nil, nil
	}
	var objs []*store.Object
	var promoted []*Entry
	for _, e := range append([]*Entry(nil), list...) {
		rec, ok := t.readEntry(e)
		if !ok {
			t.scrubLost += int64(e.Objects)
			t.unindex(e)
			continue
		}
		objs = append(objs, rec...)
		promoted = append(promoted, e)
	}
	for _, e := range promoted {
		t.unindex(e)
	}
	// Commit the manifest without the promoted entries first; record
	// deletion after the commit at worst leaves orphans for the next
	// attach to collect.
	if err := t.commitManifest(); err != nil {
		// The tier copy is still committed; the caller re-inserts the
		// data into RAM, which is safe (promote is idempotent), but
		// the backend is misbehaving: degrade.
		for _, e := range promoted {
			t.index(e)
		}
		return objs, t.degrade(err)
	}
	t.deleteRecords(promoted...)
	for _, o := range objs {
		t.promotes++
		t.promoteBytes += int64(len(o.Data))
	}
	return objs, nil
}

// DropBelow discards spilled versions of name strictly older than
// keep — checkpoint GC extended to the cold tier. It returns payload
// bytes freed.
func (t *Tier) DropBelow(name string, keep int64) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var drop []*Entry
	for v, list := range t.byName[name] {
		if v < keep {
			drop = append(drop, list...)
		}
	}
	if len(drop) == 0 {
		return 0
	}
	var freed int64
	for _, e := range drop {
		t.unindex(e)
		freed += e.Bytes
	}
	if err := t.commitManifest(); err != nil {
		for _, e := range drop {
			t.index(e)
		}
		t.degrade(err)
		return 0
	}
	t.deleteRecords(drop...)
	return freed
}

// Reset discards all tier state (records, manifest, degradation) —
// used when a promoted spare installs a dead server's replicated
// state, which supersedes anything the local tier held.
func (t *Tier) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, name := range t.be.List(t.prefix) {
		t.be.Delete(name)
	}
	t.byName = make(map[string]map[int64][]*Entry)
	t.entries = 0
	t.bytes = 0
	t.mgen = -1
	t.mseq = 0
	t.degraded = false
	t.degradedCause = nil
}

// Scrub verifies the frame CRC of every generation of every spilled
// record. A corrupt generation with a valid twin is rewritten from the
// twin ("re-replicated"); a record with no valid generation is dropped
// and its objects counted lost. A successful pass over a degraded tier re-arms it —
// scrub doubles as the repair probe.
func (t *Tier) Scrub() ScrubReport {
	t.mu.Lock()
	defer t.mu.Unlock()
	var rep ScrubReport
	var all []*Entry
	for _, vers := range t.byName {
		for _, list := range vers {
			all = append(all, list...)
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Key < all[j].Key })
	healthy := true
	var lost []*Entry
	for _, e := range all {
		var good []byte
		var bad []int
		for g := 0; g < 2; g++ {
			rec, ok := t.be.Read(t.recKey(e.Key, g))
			rep.Checked++
			if !ok {
				bad = append(bad, g)
				continue
			}
			if seq, _, vok := ckpt.OpenRecord(rec); !vok || seq != e.Key {
				bad = append(bad, g)
				continue
			}
			if good == nil {
				good = rec
			}
		}
		if good == nil {
			rep.Lost += int64(e.Objects)
			lost = append(lost, e)
			continue
		}
		for _, g := range bad {
			if err := t.be.Write(t.recKey(e.Key, g), good); err != nil {
				healthy = false
				continue
			}
			rep.Healed++
		}
	}
	for _, e := range lost {
		t.unindex(e)
	}
	if len(lost) > 0 {
		if err := t.commitManifest(); err != nil {
			healthy = false
		} else {
			t.deleteRecords(lost...)
		}
	}
	if healthy && t.degraded {
		// Probe the backend before re-arming.
		if err := t.be.Write(t.prefix+"probe", []byte{1}); err == nil {
			t.be.Delete(t.prefix + "probe")
			t.degraded = false
			t.degradedCause = nil
		}
	}
	t.scrubChecked += rep.Checked
	t.scrubHealed += rep.Healed
	t.scrubLost += rep.Lost
	return rep
}

// Degraded reports whether the tier is in RAM-only mode.
func (t *Tier) Degraded() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.degraded
}

// Stats returns a counter snapshot.
func (t *Tier) Stats() Stats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return Stats{
		Entries:        t.entries,
		Bytes:          t.bytes,
		Spills:         t.spills,
		SpillBytes:     t.spillBytes,
		Promotes:       t.promotes,
		PromoteBytes:   t.promoteBytes,
		ScrubChecked:   t.scrubChecked,
		ScrubHealed:    t.scrubHealed,
		ScrubLost:      t.scrubLost,
		Degraded:       t.degraded,
		DegradedEvents: t.degradedEvents,
	}
}
