package trace

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzTraceRoundTrip: any header/event combination the encoder can
// produce must decode back to exactly what went in.
func FuzzTraceRoundTrip(f *testing.F) {
	f.Add("soak", int64(7), uint64(3), "prod/0", "g0/field", int64(5), int64(4096), int64(99), uint64(0xabc), true, int64(2), int64(40))
	f.Add("", int64(0), uint64(0), "", "", int64(0), int64(0), int64(0), uint64(0), false, int64(0), int64(0))
	f.Add("x", int64(-1), uint64(12), "a/b", "c", int64(-5), int64(-1), int64(-9), uint64(1), false, int64(-3), int64(-4))
	f.Fuzz(func(t *testing.T, label string, seed int64, sum uint64,
		app, name string, version, size, pseed int64, evsum uint64, logged bool, arg, arg2 int64) {
		if len(label) > maxTraceString || len(app) > maxTraceString || len(name) > maxTraceString {
			t.Skip()
		}
		h := Header{
			Label: label, Seed: seed, Servers: 4, Spares: 1, Bits: 2,
			ElemSize: 1, Replicas: 2, DimX: 8, DimY: 8, DimZ: 1,
			Digest: sum, Flags: FlagFaults,
		}
		evs := []Event{
			{LC: 0, Kind: EvPut, App: app, Name: name, Version: version, Bytes: size, Seed: pseed, Sum: evsum, Logged: logged, Arg: arg, Arg2: arg2},
			{LC: 1, Kind: EvTierFault, Arg: arg, Arg2: arg2},
		}
		img := Encode(h, evs)
		h2, evs2, err := Decode(img)
		if err != nil {
			t.Fatalf("decode of encoded trace: %v", err)
		}
		h.Version = FormatVersion
		if h2 != h {
			t.Fatalf("header: got %+v want %+v", h2, h)
		}
		if len(evs2) != len(evs) {
			t.Fatalf("events: got %d want %d", len(evs2), len(evs))
		}
		for i := range evs {
			if evs2[i] != evs[i] {
				t.Fatalf("event %d: got %+v want %+v", i, evs2[i], evs[i])
			}
		}
	})
}

// FuzzTraceDecode: arbitrary bytes — including torn, truncated, and
// bit-rotted variants of valid traces — must either decode cleanly or
// fail with one of the typed errors. Never panic, never allocate
// absurdly, never return garbage silently.
func FuzzTraceDecode(f *testing.F) {
	valid := Encode(sampleHeader(), sampleEvents())
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add([]byte(fileMagic))
	f.Add([]byte("garbage"))
	rotted := append([]byte(nil), valid...)
	rotted[len(fileMagic)+30] ^= 0x40
	f.Add(rotted)
	f.Add(Encode(sampleHeader(), recoveryEvents()))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, evs, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) &&
				!errors.Is(err, ErrTorn) && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrOrder) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// A successful decode must re-encode to the identical image.
		if !bytes.Equal(Encode(h, evs), data) {
			t.Fatalf("accepted image is not canonical (%d bytes, %d events)", len(data), len(evs))
		}
	})
}
