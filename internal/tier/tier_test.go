package tier

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"

	"gospaces/internal/ckpt"
	"gospaces/internal/codec"
	"gospaces/internal/domain"
	"gospaces/internal/pfs"
	"gospaces/internal/store"
)

func obj(name string, version int64, n int) *store.Object {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(int64(i)*7 + version)
	}
	return &store.Object{
		Name:     name,
		Version:  version,
		BBox:     domain.Box3(0, 0, 0, 3, 3, 0),
		ElemSize: 1,
		Data:     data,
		CRC:      crc32.Checksum(data, crcTable),
		Logged:   true,
	}
}

func TestSpillPromoteRoundTrip(t *testing.T) {
	be := pfs.NewStore()
	tr := New(be, "0")
	in := obj("sim/f", 3, 64)
	if err := tr.Spill([]*store.Object{in}); err != nil {
		t.Fatal(err)
	}
	if !tr.Has("sim/f", 3) || tr.Has("sim/f", 4) {
		t.Fatal("index wrong after spill")
	}
	objs, err := tr.Promote("sim/f", 3)
	if err != nil || len(objs) != 1 {
		t.Fatalf("promote: %v objs=%d", err, len(objs))
	}
	if !bytes.Equal(objs[0].Data, in.Data) || objs[0].CRC != in.CRC || !objs[0].Logged {
		t.Fatal("promoted object differs")
	}
	if tr.Has("sim/f", 3) {
		t.Fatal("entry survives promote")
	}
	st := tr.Stats()
	if st.Spills != 1 || st.Promotes != 1 || st.Entries != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Records are reclaimed.
	if names := be.List("tier/0/o/"); len(names) != 0 {
		t.Fatalf("leftover records: %v", names)
	}
}

func TestReattachRecoversManifest(t *testing.T) {
	be := pfs.NewStore()
	tr := New(be, "0")
	if err := tr.Spill([]*store.Object{obj("sim/f", 1, 32)}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Spill([]*store.Object{obj("sim/f", 2, 32)}); err != nil {
		t.Fatal(err)
	}
	// A fresh attach (crash + restart) sees both entries.
	tr2 := New(be, "0")
	if !tr2.Has("sim/f", 1) || !tr2.Has("sim/f", 2) {
		t.Fatalf("reattach lost entries: versions=%v", tr2.Versions("sim/f"))
	}
	objs, err := tr2.Promote("sim/f", 2)
	if err != nil || len(objs) != 1 || !bytes.Equal(objs[0].Data, obj("sim/f", 2, 32).Data) {
		t.Fatalf("promote after reattach: %v %d", err, len(objs))
	}
}

// A crash between the record writes and the manifest commit must leave
// the version fully resident from the tier's point of view: the new
// attach sees no entry and collects the orphaned records.
func TestCrashMidSpillLeavesNoHalfMove(t *testing.T) {
	be := pfs.NewStore()
	tr := New(be, "0")
	if err := tr.Spill([]*store.Object{obj("sim/f", 1, 32)}); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: write orphan records directly, no manifest.
	be.Write("tier/0/o/99/g0", []byte("orphan"))
	be.Write("tier/0/o/99/g1", []byte("orphan"))
	tr2 := New(be, "0")
	if tr2.Stats().Entries != 1 {
		t.Fatalf("entries = %d", tr2.Stats().Entries)
	}
	if _, ok := be.Read("tier/0/o/99/g0"); ok {
		t.Fatal("orphan record not collected")
	}
}

// A directory written by a binary that committed the manifest by
// write-temp + rename may hold a manifest.tmp left by a crash: attach
// collects it and keeps the committed cell and every live record.
func TestAttachCollectsOldManifestTemp(t *testing.T) {
	be := pfs.NewStore()
	tr := New(be, "0")
	for v := int64(1); v <= 2; v++ {
		if err := tr.Spill([]*store.Object{obj("sim/f", v, 32)}); err != nil {
			t.Fatal(err)
		}
	}
	be.Write("tier/0/manifest.tmp", []byte("crash-left temp"))
	cell := []string{"tier/0/manifest/g0", "tier/0/manifest/g1", "tier/0/manifest/cur"}
	before := map[string][]byte{}
	for _, name := range append(cell, be.List("tier/0/o/")...) {
		data, ok := be.Read(name)
		if !ok {
			t.Fatalf("%s missing before the attach", name)
		}
		before[name] = data
	}
	tr2 := New(be, "0")
	if _, ok := be.Read("tier/0/manifest.tmp"); ok {
		t.Fatal("manifest.tmp survived the attach")
	}
	for name, data := range before {
		if got, ok := be.Read(name); !ok || !bytes.Equal(got, data) {
			t.Fatalf("%s changed by the attach", name)
		}
	}
	if len(before) != len(cell)+4 || tr2.Stats().Entries != 2 {
		t.Fatalf("%d names, %d entries after the attach, want %d and 2", len(before), tr2.Stats().Entries, len(cell)+4)
	}
	for v := int64(1); v <= 2; v++ {
		promoteAll(t, tr2, []*store.Object{obj("sim/f", v, 32)})
	}
}

// A torn manifest write is healed by the commit-marker protocol: the
// previous committed manifest generation still decodes.
func TestTornManifestFallsBack(t *testing.T) {
	be := pfs.NewStore()
	tr := New(be, "0")
	if err := tr.Spill([]*store.Object{obj("sim/f", 1, 32)}); err != nil {
		t.Fatal(err)
	}
	// Tear the committed generation post-hoc (at-rest rot behind the
	// marker flip) and verify attach falls back to the surviving one.
	if err := tr.Spill([]*store.Object{obj("sim/f", 2, 32)}); err != nil {
		t.Fatal(err)
	}
	cur, _ := be.Read("tier/0/manifest/cur")
	be.Corrupt("tier/0/manifest/g"+string(rune('0'+cur[0])), 9)
	tr2 := New(be, "0")
	// The surviving generation holds the state as of the first spill.
	if !tr2.Has("sim/f", 1) {
		t.Fatal("fallback manifest lost the first spill")
	}
}

func TestScrubHealsBitRot(t *testing.T) {
	be := pfs.NewStore()
	tr := New(be, "0")
	if err := tr.Spill([]*store.Object{obj("sim/f", 1, 128)}); err != nil {
		t.Fatal(err)
	}
	if !be.Corrupt("tier/0/o/0/g0", 40) {
		t.Fatal("no record to corrupt")
	}
	rep := tr.Scrub()
	if rep.Checked != 2 || rep.Healed != 1 || rep.Lost != 0 {
		t.Fatalf("scrub = %+v", rep)
	}
	// Healed generation verifies again.
	rep = tr.Scrub()
	if rep.Healed != 0 || rep.Lost != 0 {
		t.Fatalf("second scrub = %+v", rep)
	}
	objs, err := tr.Promote("sim/f", 1)
	if err != nil || len(objs) != 1 || !bytes.Equal(objs[0].Data, obj("sim/f", 1, 128).Data) {
		t.Fatalf("promote after heal: %v %d", err, len(objs))
	}
}

func TestScrubDetectsDoubleCorruption(t *testing.T) {
	be := pfs.NewStore()
	tr := New(be, "0")
	if err := tr.Spill([]*store.Object{obj("sim/f", 1, 128)}); err != nil {
		t.Fatal(err)
	}
	be.Corrupt("tier/0/o/0/g0", 40)
	be.Corrupt("tier/0/o/0/g1", 40)
	rep := tr.Scrub()
	if rep.Lost != 1 {
		t.Fatalf("scrub = %+v", rep)
	}
	if tr.Has("sim/f", 1) {
		t.Fatal("lost entry still indexed")
	}
	// Never serve corrupt data as valid.
	objs, err := tr.Promote("sim/f", 1)
	if err != nil || len(objs) != 0 {
		t.Fatalf("promote of lost entry: %v %d", err, len(objs))
	}
}

func TestPromoteSkipsCorruptReturnsRest(t *testing.T) {
	be := pfs.NewStore()
	tr := New(be, "0")
	a := obj("sim/f", 1, 64)
	b := obj("sim/f", 1, 64)
	b.BBox = domain.Box3(4, 0, 0, 7, 3, 0)
	if err := tr.Spill([]*store.Object{a}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Spill([]*store.Object{b}); err != nil {
		t.Fatal(err)
	}
	// Destroy both generations of the first record.
	be.Corrupt("tier/0/o/0/g0", 40)
	be.Corrupt("tier/0/o/0/g1", 40)
	objs, err := tr.Promote("sim/f", 1)
	if err != nil || len(objs) != 1 {
		t.Fatalf("promote: %v %d", err, len(objs))
	}
	if !objs[0].BBox.Equal(b.BBox) {
		t.Fatal("wrong survivor returned")
	}
	if tr.Stats().ScrubLost != 1 {
		t.Fatalf("stats = %+v", tr.Stats())
	}
}

func TestENOSPCDegradesAndScrubRearms(t *testing.T) {
	be := pfs.NewStore()
	tr := New(be, "0")
	be.FailNextWrite(pfs.FaultENOSPC)
	err := tr.Spill([]*store.Object{obj("sim/f", 1, 32)})
	var de *DegradedError
	if !errors.As(err, &de) || !errors.Is(err, pfs.ErrNoSpace) {
		t.Fatalf("err = %v", err)
	}
	if !tr.Degraded() {
		t.Fatal("tier not degraded")
	}
	// While degraded, spills fail fast with the typed error.
	if err := tr.Spill([]*store.Object{obj("sim/f", 2, 32)}); !errors.As(err, &de) {
		t.Fatalf("degraded spill err = %v", err)
	}
	// Scrub probes the (now healthy) backend and re-arms.
	tr.Scrub()
	if tr.Degraded() {
		t.Fatal("scrub did not re-arm")
	}
	if err := tr.Spill([]*store.Object{obj("sim/f", 3, 32)}); err != nil {
		t.Fatalf("spill after re-arm: %v", err)
	}
}

func TestDropBelowReclaims(t *testing.T) {
	be := pfs.NewStore()
	tr := New(be, "0")
	for v := int64(1); v <= 4; v++ {
		if err := tr.Spill([]*store.Object{obj("sim/f", v, 32)}); err != nil {
			t.Fatal(err)
		}
	}
	if freed := tr.DropBelow("sim/f", 3); freed != 64 {
		t.Fatalf("freed = %d", freed)
	}
	if got := tr.Versions("sim/f"); len(got) != 2 || got[0] != 3 || got[1] != 4 {
		t.Fatalf("versions = %v", got)
	}
	// Reattach agrees.
	if got := New(be, "0").Versions("sim/f"); len(got) != 2 || got[0] != 3 {
		t.Fatalf("reattached versions = %v", got)
	}
}

func TestReset(t *testing.T) {
	be := pfs.NewStore()
	tr := New(be, "0")
	if err := tr.Spill([]*store.Object{obj("sim/f", 1, 32)}); err != nil {
		t.Fatal(err)
	}
	tr.Reset()
	if tr.Stats().Entries != 0 || len(be.List("tier/0/")) != 0 {
		t.Fatalf("reset left state: %+v %v", tr.Stats(), be.List("tier/0/"))
	}
	if err := tr.Spill([]*store.Object{obj("sim/f", 5, 32)}); err != nil {
		t.Fatalf("spill after reset: %v", err)
	}
}

// opBackend wraps a pfs.Store, logs every mutating call the tier makes
// and arms a one-shot fault on the failAt'th Write (1-based, 0 = never).
type opBackend struct {
	*pfs.Store
	ops    []string
	writes int
	failAt int
	fault  pfs.WriteFault
}

func (b *opBackend) Write(name string, data []byte) error {
	b.writes++
	if b.writes == b.failAt {
		b.Store.FailNextWrite(b.fault)
	}
	b.ops = append(b.ops, "write "+name)
	return b.Store.Write(name, data)
}

func (b *opBackend) Rename(old, new string) error {
	b.ops = append(b.ops, "rename "+old+" "+new)
	return b.Store.Rename(old, new)
}

// A spill of a version of N objects is one group commit of four
// writes: the version's one record in two generations, then exactly
// one manifest commit (one generation write, one marker write; no temp
// file, no rename). A slide back to a record or a commit per object
// fails here, not in a benchmark.
func TestSpillIsOneGroupCommit(t *testing.T) {
	be := &opBackend{Store: pfs.NewStore()}
	tr := New(be, "0")
	if err := tr.Spill(version("sim/f", 1, 3, 64)); err != nil { // key 0, manifest g0
		t.Fatal(err)
	}
	be.ops = nil
	const n = 5
	if err := tr.Spill(version("sim/f", 2, n, 64)); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"write tier/0/o/1/g0",
		"write tier/0/o/1/g1",
		"write tier/0/manifest/g1",
		"write tier/0/manifest/cur",
	}
	if !reflect.DeepEqual(be.ops, want) {
		t.Fatalf("backend ops of one spill:\n got %q\nwant %q", be.ops, want)
	}
	if st := tr.Stats(); st.Spills != 3+n || st.Entries != 3+n {
		t.Fatalf("stats count objects: %+v", st)
	}
}

// spillWrites counts the backend writes of a clean spill of a version
// of n objects, over a tier already holding prior objects of version 1,
// and requires the four of one group commit: what a fault sweep must
// cover.
func spillWrites(t *testing.T, prior, n int) int {
	t.Helper()
	be := &opBackend{Store: pfs.NewStore()}
	tr := New(be, "0")
	if prior > 0 {
		if err := tr.Spill(version("sim/f", 1, prior, 64)); err != nil {
			t.Fatal(err)
		}
	}
	before := be.writes
	if err := tr.Spill(version("sim/f", 2, n, 64)); err != nil {
		t.Fatal(err)
	}
	if w := be.writes - before; w != 4 {
		t.Fatalf("a clean spill of %d objects over %d made %d backend writes, want 4", n, prior, w)
	}
	return be.writes - before
}

// promoteAll promotes (name, v) and checks it returns exactly want,
// byte for byte.
func promoteAll(t *testing.T, tr *Tier, want []*store.Object) {
	t.Helper()
	got, err := tr.Promote(want[0].Name, want[0].Version)
	if err != nil || len(got) != len(want) {
		t.Fatalf("promote %s@%d: %d of %d objects, err %v", want[0].Name, want[0].Version, len(got), len(want), err)
	}
	for i, o := range got {
		w := want[i]
		if !o.BBox.Equal(w.BBox) || o.ElemSize != w.ElemSize || o.CRC != w.CRC || !bytes.Equal(o.Data, w.Data) || !o.Logged {
			t.Fatalf("promoted object %d differs from the spilled one", i)
		}
	}
}

// Crash-atomicity sweep: fail every write of a batch's sequence in turn
// with ENOSPC. Whatever the point of failure, the batch is entirely
// absent — from the live tier and from a re-attach on the same backend
// — none of its records outlives it, the tier is degraded, and what was
// spilled before is untouched.
func TestSpillFaultSweepIsAllOrNothing(t *testing.T) {
	const n = 4
	for _, prior := range []int{0, 2} { // first commit ever, and one with a committed predecessor
		for k := 1; k <= spillWrites(t, prior, n); k++ {
			be := &opBackend{Store: pfs.NewStore()}
			tr := New(be, "0")
			v1 := version("sim/f", 1, prior, 64)
			if prior > 0 {
				if err := tr.Spill(v1); err != nil {
					t.Fatal(err)
				}
			}
			records := be.List("tier/0/o/")
			be.failAt, be.fault = be.writes+k, pfs.FaultENOSPC
			err := tr.Spill(version("sim/f", 2, n, 64))
			var de *DegradedError
			if !errors.As(err, &de) || !errors.Is(err, pfs.ErrNoSpace) {
				t.Fatalf("prior %d, write %d failed: err = %v", prior, k, err)
			}
			if st := tr.Stats(); !st.Degraded || tr.Has("sim/f", 2) || st.Spills != int64(prior) || st.Entries != prior {
				t.Fatalf("prior %d, write %d failed: has=%v stats=%+v", prior, k, tr.Has("sim/f", 2), st)
			}
			if got := be.List("tier/0/o/"); !reflect.DeepEqual(got, records) {
				t.Fatalf("prior %d, write %d failed: records %v, want %v", prior, k, got, records)
			}
			tr2 := New(be.Store, "0")
			if tr2.Has("sim/f", 2) || tr2.Stats().Entries != prior {
				t.Fatalf("prior %d, write %d failed: re-attach sees %+v", prior, k, tr2.Stats())
			}
			if got := be.List("tier/0/o/"); !reflect.DeepEqual(got, records) {
				t.Fatalf("prior %d, write %d failed: records after re-attach %v, want %v", prior, k, got, records)
			}
			if prior > 0 {
				promoteAll(t, tr2, v1)
			}
		}
	}
}

// The same sweep with a torn write — the backend reports success and
// keeps half the bytes. A torn record generation (writes 1 and 2) is
// served from its twin; a torn marker (write 4) is outvoted by the
// manifest sequence numbers. A torn manifest generation (write 3)
// falls back to the previous commit on re-attach
// (TestTornManifestFallsBack), which holds none of the batch — still
// all or nothing.
func TestSpillTornWriteSweep(t *testing.T) {
	const n = 4
	for k := 1; k <= spillWrites(t, 2, n); k++ {
		be := &opBackend{Store: pfs.NewStore()}
		tr := New(be, "0")
		if err := tr.Spill(version("sim/f", 1, 2, 64)); err != nil {
			t.Fatal(err)
		}
		be.failAt, be.fault = be.writes+k, pfs.FaultTruncate
		v2 := version("sim/f", 2, n, 64)
		if err := tr.Spill(v2); err != nil {
			t.Fatalf("write %d torn: %v", k, err)
		}
		tr2 := New(be.Store, "0")
		if k == 3 {
			if tr2.Has("sim/f", 2) || tr2.Stats().Entries != 2 || len(be.List("tier/0/o/")) != 2 {
				t.Fatalf("torn manifest: re-attach sees %+v, records %v", tr2.Stats(), be.List("tier/0/o/"))
			}
			continue
		}
		promoteAll(t, tr2, v2)
		if lost := tr2.Stats().ScrubLost; lost != 0 {
			t.Fatalf("write %d torn: %d entries lost", k, lost)
		}
	}
}

// A record whose frame verifies but whose payload does not match its
// descriptor's CRC is not served: a promote checks the frame, then
// every payload.
func TestPromoteChecksPayloadCRC(t *testing.T) {
	be := pfs.NewStore()
	tr := New(be, "0")
	v := version("sim/f", 1, 2, 64)
	if err := tr.Spill(v); err != nil {
		t.Fatal(err)
	}
	bad := *v[1]
	bad.CRC ^= 1
	rec := sealVersion(0, []*store.Object{v[0], &bad})
	rec = ckpt.SealRecord(0, rec[24:]) // the body past the frame header, framed over its bytes as they are
	if _, _, ok := ckpt.OpenRecord(rec); !ok {
		t.Fatal("re-framed record does not open")
	}
	be.Write("tier/0/o/0/g0", rec)
	be.Write("tier/0/o/0/g1", rec)
	if objs, _ := tr.Promote("sim/f", 1); len(objs) != 0 || tr.Stats().ScrubLost != 2 {
		t.Fatalf("a payload off its CRC served: %d objects, stats %+v", len(objs), tr.Stats())
	}
}

// A record in the retired gob body format must be rejected — counted
// lost — never mis-decoded into an object.
func TestOldGobRecordRejected(t *testing.T) {
	in := obj("sim/f", 1, 64)
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(struct {
		Name     string
		Version  int64
		BBox     domain.BBox
		ElemSize int
		CRC      uint32
		Data     []byte
	}{in.Name, in.Version, in.BBox, in.ElemSize, in.CRC, in.Data})
	if err != nil {
		t.Fatal(err)
	}
	if objs, ok := openVersion(buf.Bytes()); ok {
		t.Fatalf("gob body decoded as %d objects", len(objs))
	}
	be := pfs.NewStore()
	tr := New(be, "0")
	if err := tr.Spill([]*store.Object{in}); err != nil {
		t.Fatal(err)
	}
	old := ckpt.SealRecord(0, buf.Bytes())
	be.Write("tier/0/o/0/g0", old)
	be.Write("tier/0/o/0/g1", old)
	if objs, _ := tr.Promote("sim/f", 1); len(objs) != 0 || tr.Stats().ScrubLost != 1 {
		t.Fatalf("old-format record served: %d objects, stats %+v", len(objs), tr.Stats())
	}
}

// A committed manifest in the retired gob body format is no valid
// manifest: the attach comes up empty and collects the records as
// orphans, never mis-decodes an entry set out of it.
func TestOldGobManifestRejected(t *testing.T) {
	be := pfs.NewStore()
	tr := New(be, "0")
	if err := tr.Spill(version("sim/f", 1, 2, 64)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	old := manifest{NextKey: 1, Entries: []Entry{{Key: 0, Name: "sim/f", Version: 1, Objects: 2, Bytes: 128}}}
	if err := gob.NewEncoder(&buf).Encode(&old); err != nil {
		t.Fatal(err)
	}
	be.Write("tier/0/manifest/g0", ckpt.SealRecord(1, buf.Bytes()))
	be.Delete("tier/0/manifest/g1")
	be.Write("tier/0/manifest/cur", []byte{0})
	tr2 := New(be, "0")
	if st := tr2.Stats(); tr2.Has("sim/f", 1) || st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("gob manifest adopted: %+v", st)
	}
	if left := be.List("tier/0/o/"); len(left) != 0 {
		t.Fatalf("records of a rejected manifest not collected: %v", left)
	}
	// The tier works from there: the next commit is a manifest a third
	// attach reads.
	if err := tr2.Spill(version("sim/f", 2, 1, 64)); err != nil {
		t.Fatal(err)
	}
	if tr3 := New(be, "0"); !tr3.Has("sim/f", 2) || tr3.Stats().Entries != 1 {
		t.Fatalf("after the rejected manifest: %+v", tr3.Stats())
	}
}

// The retired layout, rebuilt here to show a tier reads none of it: a
// "TOB1" record per object (a 73-byte header, the name, the payload)
// under a manifest of one entry per object, codec id 1280.
type oldEntry struct {
	Key      uint64
	Name     string
	Version  int64
	BBox     domain.BBox
	ElemSize int
	CRC      uint32
	Bytes    int64
}

type oldManifest struct {
	NextKey uint64
	Entries []oldEntry
}

// Encoded under a test id; the id bytes are then patched to 1280.
func init() { codec.Register(0xfe80, oldManifest{}) }

func sealOldObject(key uint64, o *store.Object) []byte {
	hdr := make([]byte, 73)
	copy(hdr, "TOB1")
	binary.BigEndian.PutUint64(hdr[4:], uint64(o.Version))
	binary.BigEndian.PutUint32(hdr[12:], uint32(o.ElemSize))
	binary.BigEndian.PutUint32(hdr[16:], o.CRC)
	hdr[20] = byte(o.BBox.NDim)
	for i := 0; i < domain.MaxDims; i++ {
		binary.BigEndian.PutUint64(hdr[21+8*i:], uint64(o.BBox.Min[i]))
		binary.BigEndian.PutUint64(hdr[45+8*i:], uint64(o.BBox.Max[i]))
	}
	binary.BigEndian.PutUint32(hdr[69:], uint32(len(o.Name)))
	return ckpt.SealRecord(key, append(hdr, o.Name...), o.Data)
}

// A tier directory in the retired layout attaches empty and has every
// old record collected as an orphan, never misread; a fresh spill and
// promote on the same backend round-trip.
func TestOldObjectRecordsCollected(t *testing.T) {
	be := pfs.NewStore()
	objs := version("sim/f", 1, 3, 64)
	man := oldManifest{NextKey: uint64(len(objs))}
	for key, o := range objs {
		rec := sealOldObject(uint64(key), o)
		if _, body, _ := ckpt.OpenRecord(rec); !bytes.HasPrefix(body, []byte("TOB1")) {
			t.Fatal("old record not built")
		} else if _, ok := openVersion(body); ok {
			t.Fatal("a TOB1 body decodes as a version record")
		}
		for g := 0; g < 2; g++ {
			be.Write(fmt.Sprintf("tier/0/o/%d/g%d", key, g), rec)
		}
		man.Entries = append(man.Entries, oldEntry{uint64(key), o.Name, o.Version, o.BBox, o.ElemSize, o.CRC, int64(len(o.Data))})
	}
	body, err := codec.Append(nil, man)
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint16(body, 1280)
	if _, err := codec.Unmarshal(body); !errors.Is(err, codec.ErrUnknownType) {
		t.Fatalf("an id-1280 manifest body decodes: %v", err)
	}
	be.Write("tier/0/manifest/g0", ckpt.SealRecord(1, body))
	be.Write("tier/0/manifest/cur", []byte{0})
	tr := New(be, "0")
	if st := tr.Stats(); tr.HasName("sim/f") || st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("old layout adopted: %+v", st)
	}
	if left := be.List("tier/0/o/"); len(left) != 0 {
		t.Fatalf("old records not collected: %v", left)
	}
	v2 := version("sim/f", 2, 3, 64)
	if err := tr.Spill(v2); err != nil {
		t.Fatal(err)
	}
	tr2 := New(be, "0")
	if !tr2.Has("sim/f", 2) || tr2.Stats().Entries != len(v2) {
		t.Fatalf("re-attach after the old layout: %+v", tr2.Stats())
	}
	promoteAll(t, tr2, v2)
}

// FuzzRecordBody fuzzes the version-record decoder. A batch built from
// the inputs round-trips through its sealed record exactly; and the
// data bytes fed in as an arbitrary body never panic the decoder, and
// whatever it accepts lies inside the body, payload by payload, and
// re-seals to exactly those bytes.
func FuzzRecordBody(f *testing.F) {
	f.Add("sim/f", int64(3), uint8(2), uint32(8), uint8(3), int64(-4), int64(1<<40), []byte("payload"))
	f.Add("", int64(-1), uint8(1), uint32(0), uint8(0), int64(0), int64(0), []byte{})
	_, valid, _ := ckpt.OpenRecord(sealVersion(0, version("sim/f", 1, 3, 16)))
	f.Add(bodyMagic, int64(0), uint8(0), uint32(1), uint8(200), int64(1), int64(2), valid)
	f.Fuzz(func(t *testing.T, name string, v int64, count uint8, elem uint32, ndim uint8, lo, hi int64, data []byte) {
		in := make([]*store.Object, 1+count%4)
		for i := range in {
			part := data[len(data)*i/len(in) : len(data)*(i+1)/len(in)]
			o := &store.Object{Name: name, Version: v, ElemSize: int(elem), Data: part, CRC: crc32.Checksum(part, crcTable), Logged: true}
			o.BBox.NDim = int(ndim % (domain.MaxDims + 1))
			for j := range o.BBox.Min {
				o.BBox.Min[j], o.BBox.Max[j] = lo+int64(i+j), hi-int64(i+j)
			}
			in[i] = o
		}
		seq, body, ok := ckpt.OpenRecord(sealVersion(7, in))
		if !ok || seq != 7 {
			t.Fatal("sealed record does not open")
		}
		out, ok := openVersion(body)
		if !ok || len(out) != len(in) {
			t.Fatal("sealed body does not decode")
		}
		for i := range in {
			if !bytes.Equal(in[i].Data, out[i].Data) {
				t.Fatalf("object %d: payload differs", i)
			}
			out[i].Data = in[i].Data
			if !reflect.DeepEqual(in[i], out[i]) {
				t.Fatalf("object %d round trip: in %+v out %+v", i, in[i], out[i])
			}
		}
		objs, ok := openVersion(data)
		if !ok {
			return
		}
		payload := 0
		for i, o := range objs {
			if cap(o.Data) != len(o.Data) {
				t.Fatalf("object %d: payload of %d bytes reaches %d bytes on", i, len(o.Data), cap(o.Data))
			}
			payload += len(o.Data)
		}
		if payload > len(data) {
			t.Fatalf("%d payload bytes out of a %d-byte body", payload, len(data))
		}
		rec := sealVersion(0, objs)
		if again := rec[len(rec)-len(data):]; !bytes.Equal(again, data) {
			t.Fatalf("arbitrary body %x decoded to %d objects, which seal to %x", data, len(objs), again)
		}
	})
}
