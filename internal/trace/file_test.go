package trace

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gospaces/internal/ckpt"
	"gospaces/internal/codec"
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

// recoveryEvents is a schedule with both supervisor-kill modes, a
// spare refill and both net faults: the kinds appended after EvNote.
func recoveryEvents() []Event {
	return []Event{
		{LC: 0, Kind: EvSupervisorKill, Arg: 1},
		{LC: 1, Kind: EvSupervisorKill, Name: "replaced"},
		{LC: 2, Kind: EvFailStop, Arg: 3},
		{LC: 3, Kind: EvAddSpare, Arg: 2},
		{LC: 4, Kind: EvNetFault, Name: "delay", Arg: 1, Arg2: 40},
		{LC: 5, Kind: EvNetFault, Name: "drop", Arg: 2, Arg2: 25},
	}
}

func TestRecoveryKindsRoundTrip(t *testing.T) {
	h, evs := sampleHeader(), recoveryEvents()
	h.Spares = 0
	h2, evs2, err := Decode(Encode(h, evs))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	h.Version, h.Events = FormatVersion, len(evs)
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
		{Event{LC: 11, Kind: EvNetFault, Name: "drop", Arg: 1, Arg2: 40}, "lc=11 net-fault name=drop arg=1,40"},
		{Event{Kind: evKindMax + 1}, "lc=0 ev(17)"},
	} {
		if got := c.ev.String(); got != c.want {
			t.Fatalf("%+v renders %q, want %q", c.ev, got, c.want)
		}
	}
}

// TestTierFaultCodesPinned: the tier-fault codes are trace-format
// values (checked-in traces carry them), fixed at 7–11.
func TestTierFaultCodesPinned(t *testing.T) {
	for i, code := range []int64{TierTornWrite, TierPartialWrite, TierBitRot, TierENOSPC, TierSlowIO} {
		if code != int64(7+i) {
			t.Fatalf("tier-fault code %d is %d, want %d", i, code, 7+i)
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
	h.Version, h.Events = FormatVersion, len(evs)
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
	// torn, a cut at a frame boundary too (the header counts the event
	// frames), corrupt never (CRC can't pass on a truncation because the
	// length check fires first).
	for cut := len(fileMagic); cut < len(img); cut++ {
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
	// Encode forces the current version; hand-craft a future one by
	// sealing a header body that carries it.
	h.Version = FormatVersion + 1
	hdr, err := codec.Append(nil, h)
	if err != nil {
		t.Fatal(err)
	}
	img := append([]byte(fileMagic), ckpt.SealRecord(0, hdr)...)
	if _, _, err := Decode(img); !errors.Is(err, ErrVersion) {
		t.Fatalf("got %v, want ErrVersion", err)
	}
}

// TestDecodeVersion1Refused: a file of the retired hand-laid format
// (magic GTRACE1) is another version, not a damaged or alien file.
func TestDecodeVersion1Refused(t *testing.T) {
	img := Encode(sampleHeader(), sampleEvents())
	v1 := append([]byte("GTRACE1\n"), img[len(fileMagic):]...)
	if _, _, err := Decode(v1); !errors.Is(err, ErrVersion) {
		t.Fatalf("got %v, want ErrVersion", err)
	}
}
