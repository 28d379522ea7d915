package ckpt

import (
	"math"
	"sync"
	"testing"

	"gospaces/internal/pfs"
)

type rankState struct {
	LastTS int64
	Blob   []byte
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := NewSaver(pfs.NewStore())
	in := rankState{LastTS: 7, Blob: []byte{1, 2, 3}}
	if err := s.Save("sim", 3, in); err != nil {
		t.Fatal(err)
	}
	var out rankState
	ok, err := s.Load("sim", 3, &out)
	if err != nil || !ok {
		t.Fatalf("load: %v %v", ok, err)
	}
	if out.LastTS != 7 || len(out.Blob) != 3 {
		t.Fatalf("out = %+v", out)
	}
}

func TestLoadMissing(t *testing.T) {
	s := NewSaver(pfs.NewStore())
	var out rankState
	ok, err := s.Load("sim", 0, &out)
	if err != nil || ok {
		t.Fatalf("missing load: %v %v", ok, err)
	}
}

func TestSaveReplaces(t *testing.T) {
	s := NewSaver(pfs.NewStore())
	_ = s.Save("sim", 0, rankState{LastTS: 4})
	_ = s.Save("sim", 0, rankState{LastTS: 8})
	var out rankState
	if _, err := s.Load("sim", 0, &out); err != nil {
		t.Fatal(err)
	}
	if out.LastTS != 8 {
		t.Fatalf("LastTS = %d", out.LastTS)
	}
}

func TestDrop(t *testing.T) {
	s := NewSaver(pfs.NewStore())
	_ = s.Save("sim", 0, rankState{LastTS: 1})
	s.Drop("sim", 0)
	var out rankState
	if ok, _ := s.Load("sim", 0, &out); ok {
		t.Fatal("checkpoint survived drop")
	}
}

func TestRanksIsolated(t *testing.T) {
	s := NewSaver(pfs.NewStore())
	_ = s.Save("sim", 0, rankState{LastTS: 1})
	_ = s.Save("sim", 1, rankState{LastTS: 2})
	_ = s.Save("ana", 0, rankState{LastTS: 3})
	var out rankState
	_, _ = s.Load("ana", 0, &out)
	if out.LastTS != 3 {
		t.Fatalf("ana/0 = %d", out.LastTS)
	}
}

func TestSchemeProperties(t *testing.T) {
	if Coordinated.Logged() || Individual.Logged() {
		t.Fatal("Co/In should not require logging")
	}
	if !Uncoordinated.Logged() || !Hybrid.Logged() {
		t.Fatal("Un/Hy require logging")
	}
	names := map[Scheme]string{
		Coordinated: "coordinated", Uncoordinated: "uncoordinated",
		Individual: "individual", Hybrid: "hybrid",
	}
	for s, n := range names {
		if s.String() != n {
			t.Fatalf("%d.String() = %q", s, s.String())
		}
	}
}

func TestMultiLevelSaveLevels(t *testing.T) {
	l1, l2 := pfs.NewStore(), pfs.NewStore()
	m, err := NewMultiLevel(l1, l2, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantLevels := []int{1, 1, 2, 1, 1, 2}
	for i, want := range wantLevels {
		lvl, err := m.Save("sim", 0, rankState{LastTS: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if lvl != want {
			t.Fatalf("save %d went to level %d, want %d", i, lvl, want)
		}
	}
}

func TestMultiLevelLoadPrefersL1(t *testing.T) {
	l1, l2 := pfs.NewStore(), pfs.NewStore()
	m, _ := NewMultiLevel(l1, l2, 2)
	_, _ = m.Save("sim", 0, rankState{LastTS: 1}) // L1 only
	_, _ = m.Save("sim", 0, rankState{LastTS: 2}) // L1 + L2
	_, _ = m.Save("sim", 0, rankState{LastTS: 3}) // L1 only
	var out rankState
	lvl, err := m.Load("sim", 0, &out)
	if err != nil || lvl != 1 || out.LastTS != 3 {
		t.Fatalf("load = level %d state %+v err %v", lvl, out, err)
	}
	// Node loss: L1 gone, recover older state from L2.
	m.InvalidateL1("sim", 1)
	lvl, err = m.Load("sim", 0, &out)
	if err != nil || lvl != 2 || out.LastTS != 2 {
		t.Fatalf("post-loss load = level %d state %+v err %v", lvl, out, err)
	}
}

func TestMultiLevelNoCheckpoint(t *testing.T) {
	m, _ := NewMultiLevel(pfs.NewStore(), pfs.NewStore(), 2)
	var out rankState
	lvl, err := m.Load("sim", 0, &out)
	if err != nil || lvl != 0 {
		t.Fatalf("empty load = %d %v", lvl, err)
	}
}

func TestMultiLevelValidation(t *testing.T) {
	if _, err := NewMultiLevel(pfs.NewStore(), pfs.NewStore(), 0); err == nil {
		t.Fatal("l2Every=0 accepted")
	}
}

// TestLoadFallsBackOnTornWrite: a writer dying mid-checkpoint truncates
// the in-flight generation; Load must verify the CRC, reject the torn
// record, and restore the previous committed checkpoint. The partial
// cases tear the record at arbitrary byte offsets — inside the magic,
// the header, the CRC, and the payload — not just the halfway cut.
func TestLoadFallsBackOnTornWrite(t *testing.T) {
	cases := []struct {
		name string
		arm  func(store *pfs.Store)
	}{
		{"truncate", func(st *pfs.Store) { st.FailNextWrite(pfs.FaultTruncate) }},
		{"bitflip", func(st *pfs.Store) { st.FailNextWrite(pfs.FaultBitFlip) }},
		{"partial@0", func(st *pfs.Store) { st.FailNextWriteAt(pfs.FaultPartial, 0) }},
		{"partial@2", func(st *pfs.Store) { st.FailNextWriteAt(pfs.FaultPartial, 2) }},   // mid-magic
		{"partial@11", func(st *pfs.Store) { st.FailNextWriteAt(pfs.FaultPartial, 11) }}, // mid-header
		{"partial@22", func(st *pfs.Store) { st.FailNextWriteAt(pfs.FaultPartial, 22) }}, // mid-CRC
		{"partial@30", func(st *pfs.Store) { st.FailNextWriteAt(pfs.FaultPartial, 30) }}, // mid-payload
		{"bitflip@5", func(st *pfs.Store) { st.FailNextWriteAt(pfs.FaultBitFlip, 5) }},   // header seq
		{"bitflip@21", func(st *pfs.Store) { st.FailNextWriteAt(pfs.FaultBitFlip, 21) }}, // CRC itself
	}
	for _, tc := range cases {
		store := pfs.NewStore()
		s := NewSaver(store)
		if err := s.Save("sim", 0, rankState{LastTS: 4}); err != nil {
			t.Fatal(err)
		}
		tc.arm(store)
		if err := s.Save("sim", 0, rankState{LastTS: 8}); err != nil {
			t.Fatal(err)
		}
		var out rankState
		ok, err := s.Load("sim", 0, &out)
		if err != nil || !ok {
			t.Fatalf("%s: load after torn write: %v %v", tc.name, ok, err)
		}
		if out.LastTS != 4 {
			t.Fatalf("%s: LastTS = %d, want the surviving checkpoint 4", tc.name, out.LastTS)
		}
		// The next save lands cleanly and replaces the damaged record.
		if err := s.Save("sim", 0, rankState{LastTS: 12}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Load("sim", 0, &out); err != nil || out.LastTS != 12 {
			t.Fatalf("%s: post-repair load = %+v, %v", tc.name, out, err)
		}
	}
}

// TestSaveSurvivesENOSPC: a full PFS fails the save with an error, and
// the previously committed checkpoint remains loadable.
func TestSaveSurvivesENOSPC(t *testing.T) {
	store := pfs.NewStore()
	s := NewSaver(store)
	if err := s.Save("sim", 0, rankState{LastTS: 4}); err != nil {
		t.Fatal(err)
	}
	store.FailNextWrite(pfs.FaultENOSPC)
	if err := s.Save("sim", 0, rankState{LastTS: 8}); err == nil {
		t.Fatal("ENOSPC save reported success")
	}
	var out rankState
	ok, err := s.Load("sim", 0, &out)
	if err != nil || !ok || out.LastTS != 4 {
		t.Fatalf("load after ENOSPC = %v %v %+v", ok, err, out)
	}
}

// TestLoadSurvivesCorruptMarker: with the commit marker unreadable, the
// freshest CRC-verified generation wins.
func TestLoadSurvivesCorruptMarker(t *testing.T) {
	store := pfs.NewStore()
	s := NewSaver(store)
	_ = s.Save("sim", 0, rankState{LastTS: 4})
	_ = s.Save("sim", 0, rankState{LastTS: 8})
	store.Write(curKey(Key("sim", 0)), []byte{9, 9})
	var out rankState
	ok, err := s.Load("sim", 0, &out)
	if err != nil || !ok || out.LastTS != 8 {
		t.Fatalf("load = %v %v %+v, want freshest generation 8", ok, err, out)
	}
}

// TestLoadAllGenerationsCorrupt: when every record fails verification,
// Load reports an error rather than silently restarting from scratch.
func TestLoadAllGenerationsCorrupt(t *testing.T) {
	store := pfs.NewStore()
	s := NewSaver(store)
	_ = s.Save("sim", 0, rankState{LastTS: 4})
	base := Key("sim", 0)
	store.Write(genKey(base, 0), []byte("junk"))
	store.Write(genKey(base, 1), []byte("junk"))
	var out rankState
	if ok, err := s.Load("sim", 0, &out); err == nil || ok {
		t.Fatalf("corrupt load = %v %v, want error", ok, err)
	}
}

// TestSavePreservesCommittedGeneration: Save must never overwrite the
// committed generation, so a tear during the write costs at most the
// in-flight checkpoint.
func TestSavePreservesCommittedGeneration(t *testing.T) {
	store := pfs.NewStore()
	s := NewSaver(store)
	var out rankState
	for ts := int64(1); ts <= 5; ts++ {
		store.FailNextWrite(pfs.FaultTruncate)
		if err := s.Save("sim", 0, rankState{LastTS: ts * 10}); err != nil {
			t.Fatal(err)
		}
		ok, err := s.Load("sim", 0, &out)
		if ts == 1 {
			// Very first checkpoint torn: nothing valid exists yet.
			if err == nil && ok {
				t.Fatalf("ts %d: torn first checkpoint loaded: %+v", ts, out)
			}
		} else if err != nil || !ok || out.LastTS != (ts-1)*10 {
			t.Fatalf("ts %d: load = %v %v %+v, want previous checkpoint %d", ts, ok, err, out, (ts-1)*10)
		}
		// Repair: a clean save re-establishes the current state.
		if err := s.Save("sim", 0, rankState{LastTS: ts * 10}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Load("sim", 0, &out); err != nil || out.LastTS != ts*10 {
			t.Fatalf("ts %d: post-repair load = %+v, %v", ts, out, err)
		}
	}
}

// TestSaveAfterRotKeepsValidTwin: when the committed generation has
// rotted at rest, Save must write over the rotted one, not over its
// valid twin, so a torn next save still leaves the checkpoint before
// the rotted one loadable. Electing the target from the marker alone
// overwrote the only valid generation here.
func TestSaveAfterRotKeepsValidTwin(t *testing.T) {
	store := pfs.NewStore()
	s := NewSaver(store)
	for _, ts := range []int64{4, 8} {
		if err := s.Save("sim", 0, rankState{LastTS: ts}); err != nil {
			t.Fatal(err)
		}
	}
	base := Key("sim", 0)
	cur, _ := store.Read(curKey(base))
	if !store.Corrupt(genKey(base, int(cur[0])), 30) {
		t.Fatal("no committed generation to corrupt")
	}
	store.FailNextWrite(pfs.FaultTruncate)
	if err := s.Save("sim", 0, rankState{LastTS: 12}); err != nil {
		t.Fatal(err)
	}
	var out rankState
	ok, err := s.Load("sim", 0, &out)
	if err != nil || !ok || out.LastTS != 4 {
		t.Fatalf("load = %v %v %+v, want the valid twin 4", ok, err, out)
	}
}

// TestLoadFallsBackWhenBodyDoesNotDecode: a marked generation whose
// frame verifies but whose body does not decode loses to its twin.
func TestLoadFallsBackWhenBodyDoesNotDecode(t *testing.T) {
	store := pfs.NewStore()
	s := NewSaver(store)
	_ = s.Save("sim", 0, rankState{LastTS: 4})
	_ = s.Save("sim", 0, rankState{LastTS: 8})
	base := Key("sim", 0)
	cur, _ := store.Read(curKey(base))
	store.Write(genKey(base, int(cur[0])), SealRecord(9, []byte("not gob")))
	var out rankState
	ok, err := s.Load("sim", 0, &out)
	if err != nil || !ok || out.LastTS != 4 {
		t.Fatalf("load = %v %v %+v, want the twin 4", ok, err, out)
	}
}

// TestMultiLevelConcurrentSaves is the regression test for the counts
// data race: many ranks checkpoint through one MultiLevel concurrently
// (run under -race), and every rank's L2 cadence must stay exact.
func TestMultiLevelConcurrentSaves(t *testing.T) {
	l1, l2 := pfs.NewStore(), pfs.NewStore()
	m, err := NewMultiLevel(l1, l2, 3)
	if err != nil {
		t.Fatal(err)
	}
	const ranks, saves = 8, 9
	var wg sync.WaitGroup
	levels := make([][]int, ranks)
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < saves; i++ {
				lvl, err := m.Save("sim", r, rankState{LastTS: int64(i)})
				if err != nil {
					t.Error(err)
					return
				}
				levels[r] = append(levels[r], lvl)
			}
		}(r)
	}
	wg.Wait()
	for r := 0; r < ranks; r++ {
		for i, lvl := range levels[r] {
			want := 1
			if (i+1)%3 == 0 {
				want = 2
			}
			if lvl != want {
				t.Fatalf("rank %d save %d went to level %d, want %d", r, i, lvl, want)
			}
		}
	}
}

// TestRecordLen splits a stream of records by their claimed lengths: a
// record's own length, too few bytes for a header, and a claim near
// 2^64 that must not wrap to a short length.
func TestRecordLen(t *testing.T) {
	rec := SealRecord(3, []byte("payload"))
	stream := append(append([]byte(nil), rec...), SealRecord(4, nil)...)
	if n, ok := RecordLen(stream); !ok || n != uint64(len(rec)) {
		t.Fatalf("RecordLen = %d, %v; want %d, true", n, ok, len(rec))
	}
	if _, ok := RecordLen(rec[:23]); ok {
		t.Fatal("a 23-byte fragment has a length")
	}
	huge := append([]byte(nil), rec...)
	for i := 12; i < 20; i++ {
		huge[i] = 0xff
	}
	if n, ok := RecordLen(huge); !ok || n != math.MaxUint64 {
		t.Fatalf("RecordLen of a 2^64-1 claim = %d, %v", n, ok)
	}
}
