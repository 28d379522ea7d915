package trace

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gospaces/internal/ckpt"
)

func sampleHeader() Header {
	return Header{
		Label: "unit", Seed: 42, Servers: 4, Spares: 2, Bits: 2,
		ElemSize: 1, Replicas: 2, DimX: 64, DimY: 64, DimZ: 1,
		MemBudget: 16384, Groups: 2, Steps: 6,
		Flags:  FlagFaults | FlagTier,
		Digest: 0xdeadbeefcafef00d,
	}
}

func sampleEvents() []Event {
	return []Event{
		{LC: 0, Kind: EvLock, App: "soak/prod/0", Name: "soak/lk/0"},
		{LC: 1, Kind: EvPut, App: "soak/prod/0", Name: "soak/g0/field", Version: 1, Bytes: 4096, Seed: 77, Logged: true},
		{LC: 2, Kind: EvUnlock, App: "soak/prod/0", Name: "soak/lk/0"},
		{LC: 3, Kind: EvFailStop, Arg: 2},
		{LC: 4, Kind: EvGet, App: "soak/cons/0", Name: "soak/g0/field", Version: 1, Bytes: 4096, Sum: 12345, Logged: true},
		{LC: 5, Kind: EvBlackout, Arg: 1, Arg2: 40},
		{LC: 6, Kind: EvCheckpoint, App: "soak/prod/0"},
		{LC: 7, Kind: EvRestart, App: "soak/prod/0"},
		{LC: 8, Kind: EvNote, Name: "gc", Bytes: 9},
	}
}

// recoveryEvents is a schedule with both supervisor-kill modes and a
// spare refill: the kinds appended after EvNote.
func recoveryEvents() []Event {
	return []Event{
		{LC: 0, Kind: EvSupervisorKill, Arg: 1},
		{LC: 1, Kind: EvSupervisorKill, Name: "replaced"},
		{LC: 2, Kind: EvFailStop, Arg: 3},
		{LC: 3, Kind: EvAddSpare, Arg: 2},
	}
}

func TestRecoveryKindsRoundTrip(t *testing.T) {
	h, evs := sampleHeader(), recoveryEvents()
	h.Spares = 0
	h2, evs2, err := Decode(Encode(h, evs))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	h.Version = FormatVersion
	if h2 != h || !reflect.DeepEqual(evs2, evs) {
		t.Fatalf("round trip:\n got %+v %+v\nwant %+v %+v", h2, evs2, h, evs)
	}
}

func TestEventStringNamesKinds(t *testing.T) {
	for _, c := range []struct {
		ev   Event
		want string
	}{
		{Event{LC: 9, Kind: EvSupervisorKill, Name: "stall"}, "lc=9 supervisor-kill name=stall"},
		{Event{LC: 4, Kind: EvSupervisorKill, Arg: 1}, "lc=4 supervisor-kill arg=1,0"},
		{Event{LC: 10, Kind: EvAddSpare, Arg: 2}, "lc=10 add-spare arg=2,0"},
		{Event{Kind: evKindMax + 1}, "lc=0 ev(16)"},
	} {
		if got := c.ev.String(); got != c.want {
			t.Fatalf("%+v renders %q, want %q", c.ev, got, c.want)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	h, evs := sampleHeader(), sampleEvents()
	img := Encode(h, evs)
	h2, evs2, err := Decode(img)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	h.Version = FormatVersion
	if h2 != h {
		t.Fatalf("header round trip:\n got %+v\nwant %+v", h2, h)
	}
	if !reflect.DeepEqual(evs2, evs) {
		t.Fatalf("events round trip:\n got %+v\nwant %+v", evs2, evs)
	}
	// Byte-determinism: encoding the decode is the identical image.
	if img2 := Encode(h2, evs2); string(img2) != string(img) {
		t.Fatal("re-encoded image differs")
	}
}

func TestFileRoundTripOnDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "run.trace")
	h, evs := sampleHeader(), sampleEvents()
	if err := WriteFile(path, h, evs); err != nil {
		t.Fatalf("write: %v", err)
	}
	h2, evs2, err := ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if h2.Label != h.Label || h2.Digest != h.Digest || len(evs2) != len(evs) {
		t.Fatalf("disk round trip: %+v, %d events", h2, len(evs2))
	}
	// No temp files left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("stray files: %v", entries)
	}
}

func TestDecodeEmptyEvents(t *testing.T) {
	img := Encode(Header{Label: "empty"}, nil)
	h, evs, err := Decode(img)
	if err != nil || len(evs) != 0 || h.Label != "empty" {
		t.Fatalf("empty trace: %v %v %v", h, evs, err)
	}
}

func TestDecodeBadMagic(t *testing.T) {
	if _, _, err := Decode([]byte("NOTATRACEFILE AT ALL")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("got %v, want ErrBadMagic", err)
	}
	// A short fragment that is a prefix of the magic is torn, not alien.
	if _, _, err := Decode([]byte(fileMagic[:3])); !errors.Is(err, ErrTorn) {
		t.Fatalf("got %v, want ErrTorn", err)
	}
	if _, _, err := Decode([]byte("XY")); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("got %v, want ErrBadMagic", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	img := Encode(sampleHeader(), sampleEvents())
	// Every proper prefix inside the record stream must fail typed —
	// torn at a frame boundary cut, corrupt never (CRC can't pass on a
	// truncation because the length check fires first).
	for cut := len(fileMagic); cut < len(img); cut += 7 {
		_, _, err := Decode(img[:cut])
		if !errors.Is(err, ErrTorn) {
			t.Fatalf("cut=%d: got %v, want ErrTorn", cut, err)
		}
	}
}

func TestDecodeBitRot(t *testing.T) {
	img := Encode(sampleHeader(), sampleEvents())
	// Flip one bit in every byte position past the magic; each must
	// fail with a typed error, never panic, never succeed.
	for i := len(fileMagic); i < len(img); i++ {
		rotted := append([]byte(nil), img...)
		rotted[i] ^= 0x10
		_, _, err := Decode(rotted)
		if err == nil {
			t.Fatalf("bit rot at %d decoded cleanly", i)
		}
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTorn) && !errors.Is(err, ErrOrder) && !errors.Is(err, ErrVersion) {
			t.Fatalf("bit rot at %d: untyped error %v", i, err)
		}
	}
}

func TestDecodeReordered(t *testing.T) {
	evs := sampleEvents()[:2]
	evs[0].LC, evs[1].LC = 1, 0
	img := Encode(sampleHeader(), evs)
	if _, _, err := Decode(img); !errors.Is(err, ErrOrder) {
		t.Fatalf("got %v, want ErrOrder", err)
	}
}

func TestDecodeFutureVersion(t *testing.T) {
	h := sampleHeader()
	h.Version = FormatVersion
	// Encode forces the current version; hand-craft a future one by
	// bumping the header payload's leading version field and re-sealing.
	hdr := encodeHeader(h)
	hdr[3] = 99
	img := append([]byte(fileMagic), ckpt.SealRecord(0, hdr)...)
	if _, _, err := Decode(img); !errors.Is(err, ErrVersion) {
		t.Fatalf("got %v, want ErrVersion", err)
	}
}

func TestReplayerOrderAndDivergence(t *testing.T) {
	evs := []Event{
		{LC: 0, Kind: EvPut, Name: "a"},
		{LC: 1, Kind: EvNote},
		{LC: 2, Kind: EvGet, Name: "a"},
	}
	var applied []Event
	x := execFunc(func(ev Event) error {
		applied = append(applied, ev)
		return nil
	})
	if err := Replay(evs, x); err != nil {
		t.Fatal(err)
	}
	if len(applied) != 2 || applied[0].Kind != EvPut || applied[1].Kind != EvGet {
		t.Fatalf("applied %+v", applied)
	}

	boom := errors.New("bytes differ")
	err := Replay(evs, execFunc(func(ev Event) error {
		if ev.Kind == EvGet {
			return boom
		}
		return nil
	}))
	var div *DivergenceError
	if !errors.As(err, &div) || div.LC != 2 || !errors.Is(err, boom) {
		t.Fatalf("got %v", err)
	}

	// Out-of-order logical clocks are rejected before application.
	bad := []Event{{LC: 5, Kind: EvPut}, {LC: 5, Kind: EvPut}}
	if err := Replay(bad, x); !errors.Is(err, ErrOrder) {
		t.Fatalf("got %v, want ErrOrder", err)
	}
}

func TestFromRecordMapping(t *testing.T) {
	cases := []struct {
		op     Op
		detail string
		kind   EventKind
		logged bool
	}{
		{OpPut, "", EvPut, true},
		{OpSuppressedPut, "", EvPut, true},
		{OpGet, "", EvGet, true},
		{OpReplayGet, "", EvGet, true},
		{OpCheckpoint, "", EvCheckpoint, false},
		{OpRecovery, "", EvRestart, false},
		{OpLock, "acquire write", EvLock, false},
		{OpLock, "release write", EvUnlock, false},
		{OpLock, "acquire read", EvRLock, false},
		{OpLock, "release read", EvRUnlock, false},
		{OpLock, "acquire write err", EvNote, false},
		{OpLock, "", EvNote, false},
		{OpGC, "", EvNote, false},
	}
	for _, c := range cases {
		ev := FromRecord(Record{Op: c.op, App: "a", Name: "n", Version: 3, Bytes: 8, Detail: c.detail})
		if ev.Kind != c.kind || ev.Logged != c.logged {
			t.Fatalf("%v -> %+v", c.op, ev)
		}
		if ev.App != "a" || ev.Name != "n" || ev.Version != 3 || ev.Seed != 3 {
			t.Fatalf("%v fields: %+v", c.op, ev)
		}
	}
}

// execFunc adapts a function to the Executor interface.
type execFunc func(Event) error

func (f execFunc) Apply(ev Event) error { return f(ev) }
