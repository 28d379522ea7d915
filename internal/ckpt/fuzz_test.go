package ckpt

import (
	"bytes"
	"hash/crc32"
	"math/rand/v2"
	"testing"

	"gospaces/internal/pfs"
)

// FuzzRecordRoundTrip seals arbitrary payloads and verifies OpenRecord
// returns them byte-exact — and that any single-byte mutation of the
// sealed record is rejected instead of decoding to different data.
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add(uint64(0), []byte{})
	f.Add(uint64(1), []byte("payload"))
	f.Add(uint64(1<<63), bytes.Repeat([]byte{0xA5}, 64))
	f.Fuzz(func(t *testing.T, seq uint64, payload []byte) {
		rec := SealRecord(seq, payload)
		gotSeq, gotPayload, ok := OpenRecord(rec)
		if !ok {
			t.Fatalf("sealed record rejected (seq=%d len=%d)", seq, len(payload))
		}
		if gotSeq != seq || !bytes.Equal(gotPayload, payload) {
			t.Fatalf("round trip: seq %d->%d, payload %d->%d bytes", seq, gotSeq, len(payload), len(gotPayload))
		}
		// Flip one byte anywhere in the frame: the record must no
		// longer verify with different contents. (A flip may leave the
		// record valid only if it decodes to identical seq+payload,
		// which a single bit flip cannot.)
		if len(rec) > 0 {
			i := int(seq % uint64(len(rec)))
			mut := append([]byte(nil), rec...)
			mut[i] ^= 0x01
			if s2, p2, ok2 := OpenRecord(mut); ok2 && (s2 != seq || !bytes.Equal(p2, payload)) {
				t.Fatalf("bit flip at %d accepted with altered contents", i)
			}
		}
		// Truncation at any point must be rejected.
		cut := int(seq % uint64(len(rec)+1))
		if cut < len(rec) {
			if _, _, ok := OpenRecord(rec[:cut]); ok {
				t.Fatalf("truncated record (%d of %d bytes) accepted", cut, len(rec))
			}
		}
	})
}

// FuzzTwinLoad feeds arbitrary bytes as g0, g1 and cur (absent where
// the matching bit of missing is set) and an acceptance test that
// refuses bodies starting with the byte reject. Load must never panic,
// must return only a generation whose stored frame OpenRecord verifies
// with the sequence number and body it reports, must prefer a usable
// marked generation, and must report present iff a generation record
// exists.
func FuzzTwinLoad(f *testing.F) {
	good, other := SealRecord(1, []byte("one")), SealRecord(2, []byte("two"))
	f.Add(good, other, []byte{1}, uint8(0), byte(0))
	f.Add(good, other, []byte{0}, uint8(0), byte('o'))           // marked body refused: twin
	f.Add(good, other[:10], []byte{1}, uint8(0), byte(0))        // marked torn: twin
	f.Add(good, other, []byte{9, 9}, uint8(0), byte(0))          // bad marker: freshest
	f.Add(good, other, []byte{1}, uint8(0b110), byte(0))         // g1 and cur absent
	f.Add([]byte("junk"), []byte{}, []byte{}, uint8(0), byte(0)) // nothing usable
	f.Fuzz(func(t *testing.T, g0, g1, cur []byte, missing uint8, reject byte) {
		store := pfs.NewStore()
		for i, v := range [][]byte{g0, g1, cur} {
			if missing&(1<<i) == 0 {
				store.Write([]string{genKey("b", 0), genKey("b", 1), curKey("b")}[i], v)
			}
		}
		var accepted [][]byte
		gen, seq, present := Twin{Store: store, Base: "b"}.Load(func(body []byte) bool {
			accepted = append(accepted, body)
			return len(body) == 0 || body[0] != reject
		})
		if present != (missing&0b11 != 0b11) {
			t.Fatalf("present = %v with missing %03b", present, missing)
		}
		if gen < 0 {
			return
		}
		rec, _ := store.Read(genKey("b", gen))
		s, body, ok := OpenRecord(rec)
		if !ok || s != seq || !bytes.Equal(body, accepted[len(accepted)-1]) {
			t.Fatalf("elected g%d (seq %d) does not verify as the body accepted", gen, seq)
		}
		if m, ok := store.Read(curKey("b")); ok && len(m) == 1 && m[0] <= 1 && int(m[0]) != gen {
			marked, _ := store.Read(genKey("b", int(m[0])))
			if _, mb, ok := OpenRecord(marked); ok && (len(mb) == 0 || mb[0] != reject) {
				t.Fatalf("elected g%d over the usable marked g%d", gen, m[0])
			}
		}
	})
}

// FuzzDecodeRecord throws arbitrary bytes at OpenRecord: it must never
// panic, and anything it accepts must re-seal to the identical frame
// (so a duplicated or spliced generation can't smuggle altered data).
func FuzzDecodeRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("CKP1"))
	f.Add(SealRecord(7, []byte("good")))
	f.Add(append(SealRecord(7, []byte("good")), SealRecord(7, []byte("good"))...)) // duplicated generation
	f.Fuzz(func(t *testing.T, rec []byte) {
		seq, payload, ok := OpenRecord(rec)
		if !ok {
			return
		}
		if !bytes.Equal(SealRecord(seq, payload), rec) {
			t.Fatalf("accepted record is not canonical (seq=%d, %d payload bytes)", seq, len(payload))
		}
	})
}

// TestSealPartsIsSealRecord holds the CRC-combined seal to SealRecord
// byte for byte over random part counts and lengths — empty, one byte,
// odd, 16 KiB and 128 KiB parts among them — and a part given with a
// wrong CRC to a record OpenRecord rejects.
func TestSealPartsIsSealRecord(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	lens := []int{0, 1, 7, 333, 16 << 10, 128 << 10}
	for trial := 0; trial < 40; trial++ {
		head := make([]byte, rng.IntN(100))
		for i := range head {
			head[i] = byte(rng.Uint32())
		}
		parts := make([]Part, rng.IntN(6))
		datas := [][]byte{head}
		for i := range parts {
			d := make([]byte, lens[rng.IntN(len(lens))])
			for j := range d {
				d[j] = byte(rng.Uint32())
			}
			parts[i] = Part{Data: d, CRC: crc32.Checksum(d, crcTable)}
			datas = append(datas, d)
		}
		seq := rng.Uint64()
		rec := SealParts(seq, head, parts)
		if want := SealRecord(seq, datas...); !bytes.Equal(rec, want) {
			t.Fatalf("trial %d: SealParts differs from SealRecord over %d parts", trial, len(parts))
		}
		if len(parts) == 0 {
			continue
		}
		i := rng.IntN(len(parts))
		parts[i].CRC ^= 1 << rng.IntN(32)
		if _, _, ok := OpenRecord(SealParts(seq, head, parts)); ok {
			t.Fatalf("trial %d: part %d (%d bytes) sealed with a wrong CRC opens", trial, i, len(parts[i].Data))
		}
	}
}
