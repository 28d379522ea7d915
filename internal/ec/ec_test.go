package ec

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGFFieldAxioms(t *testing.T) {
	f := func(a, b, c byte) bool {
		// Commutativity and associativity of multiplication.
		if gfMul(a, b) != gfMul(b, a) {
			return false
		}
		if gfMul(gfMul(a, b), c) != gfMul(a, gfMul(b, c)) {
			return false
		}
		// Distributivity over XOR (field addition).
		return gfMul(a, b^c) == gfMul(a, b)^gfMul(a, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestGFInverse(t *testing.T) {
	for a := 1; a < 256; a++ {
		if got := gfMul(byte(a), gfInv(byte(a))); got != 1 {
			t.Fatalf("a * a^-1 = %d for a=%d", got, a)
		}
	}
}

func TestGFDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	gfDiv(3, 0)
}

func TestMatrixInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(8)
		m := newMatrix(n, n)
		for i := range m.d {
			m.d[i] = byte(rng.Intn(256))
		}
		inv, ok := m.invert()
		if !ok {
			continue // singular random matrix, fine
		}
		prod := m.mul(inv)
		id := identity(n)
		if !bytes.Equal(prod.d, id.d) {
			t.Fatalf("trial %d: M * M^-1 != I", trial)
		}
	}
}

func TestNewCoderValidation(t *testing.T) {
	if _, err := NewCoder(0, 2); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewCoder(200, 100); err == nil {
		t.Fatal("k+m>255 accepted")
	}
	if _, err := NewCoder(4, 0); err != nil {
		t.Fatal("m=0 should be legal (striping only)")
	}
}

func TestEncodeReconstructAllErasurePatterns(t *testing.T) {
	c, err := NewCoder(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	orig := make([]byte, 1000)
	rng.Read(orig)
	data := c.Split(orig)
	shards, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	n := len(shards)
	// Erase every pair of shards and reconstruct.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			cp := make([][]byte, n)
			for s := range shards {
				cp[s] = append([]byte(nil), shards[s]...)
			}
			cp[i], cp[j] = nil, nil
			if err := c.Reconstruct(cp); err != nil {
				t.Fatalf("erase (%d,%d): %v", i, j, err)
			}
			got, err := c.Join(cp, len(orig))
			if err != nil {
				t.Fatalf("join after (%d,%d): %v", i, j, err)
			}
			if !bytes.Equal(got, orig) {
				t.Fatalf("data corrupted after erasing (%d,%d)", i, j)
			}
			// Parity shards must be rebuilt identically too.
			for s := range cp {
				if !bytes.Equal(cp[s], shards[s]) {
					t.Fatalf("shard %d rebuilt incorrectly after (%d,%d)", s, i, j)
				}
			}
		}
	}
}

func TestReconstructTooFewShards(t *testing.T) {
	c, _ := NewCoder(4, 2)
	shards, _ := c.Encode(c.Split(make([]byte, 64)))
	shards[0], shards[1], shards[2] = nil, nil, nil
	if err := c.Reconstruct(shards); err != ErrTooFewShards {
		t.Fatalf("err = %v, want ErrTooFewShards", err)
	}
}

func TestSplitJoinRoundTripSizes(t *testing.T) {
	c, _ := NewCoder(3, 2)
	for _, size := range []int{0, 1, 2, 3, 4, 100, 999, 4096} {
		orig := make([]byte, size)
		for i := range orig {
			orig[i] = byte(i * 31)
		}
		shards := c.Split(orig)
		if len(shards) != 3 {
			t.Fatalf("size %d: %d shards", size, len(shards))
		}
		got, err := c.Join(shards, size)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !bytes.Equal(got, orig) {
			t.Fatalf("size %d: round trip mismatch", size)
		}
	}
}

func TestEncodeShardLengthMismatch(t *testing.T) {
	c, _ := NewCoder(2, 1)
	if _, err := c.Encode([][]byte{make([]byte, 4), make([]byte, 5)}); err == nil {
		t.Fatal("uneven shards accepted")
	}
	if _, err := c.Encode([][]byte{make([]byte, 4)}); err == nil {
		t.Fatal("wrong shard count accepted")
	}
	// Reconstruct compares every surviving shard with the first one,
	// an empty first one included.
	rc, _ := NewCoder(2, 2)
	for _, shards := range [][][]byte{
		{{1, 2}, {1, 2, 3}, nil, nil},
		{{}, {1, 2, 3}, nil, nil},
		{nil, {}, {1}, nil},
		{{1, 2, 3}, nil, nil, {}},
	} {
		if err := rc.Reconstruct(shards); err == nil || err == ErrTooFewShards {
			t.Errorf("Reconstruct(%v) = %v, want a length mismatch", shards, err)
		}
	}
}

// Property: for random data and random single/double erasures over a
// variety of geometries, reconstruction is exact.
func TestReconstructProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(6)
		m := 1 + r.Intn(3)
		c, err := NewCoder(k, m)
		if err != nil {
			return false
		}
		orig := make([]byte, 1+r.Intn(500))
		r.Read(orig)
		shards, err := c.Encode(c.Split(orig))
		if err != nil {
			return false
		}
		// Erase up to m random shards.
		for e := 0; e < m; e++ {
			shards[r.Intn(k+m)] = nil
		}
		if err := c.Reconstruct(shards); err != nil {
			return false
		}
		got, err := c.Join(shards, len(orig))
		return err == nil && bytes.Equal(got, orig)
	}
	for i := 0; i < 200; i++ {
		if !f(rng.Int63()) {
			t.Fatalf("property failed")
		}
	}
}

func BenchmarkEncode4x2_1MiB(b *testing.B) {
	c, _ := NewCoder(4, 2)
	data := c.Split(make([]byte, 1<<20))
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstruct4x2_1MiB(b *testing.B) {
	c, _ := NewCoder(4, 2)
	shards, _ := c.Encode(c.Split(make([]byte, 1<<20)))
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := make([][]byte, len(shards))
		copy(cp, shards)
		cp[1], cp[4] = nil, nil
		if err := c.Reconstruct(cp); err != nil {
			b.Fatal(err)
		}
	}
}
