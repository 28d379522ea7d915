package codec

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// drainClasses empties the free list, so a test sees only what it puts.
func drainClasses() {
	for i := range classes {
		c := &classes[i]
		c.mu.Lock()
		c.free, c.bytes = nil, 0
		c.mu.Unlock()
	}
}

// checkClasses holds the free list to its invariants: every class
// within classBytes and counting what it holds, and every buffer in it
// at least the class's size and short of the next class's.
func checkClasses(t testing.TB) {
	t.Helper()
	total := 0
	for i := range classes {
		c := &classes[i]
		c.mu.Lock()
		held := 0
		for _, b := range c.free {
			held += cap(b)
			if cap(b) < classSizes[i] || i+1 < len(classSizes) && cap(b) >= classSizes[i+1] {
				t.Errorf("class %d (%d bytes) holds a buffer of %d", i, classSizes[i], cap(b))
			}
		}
		if held != c.bytes || c.bytes > classBytes {
			t.Errorf("class %d holds %d bytes, counts %d, bound %d", i, held, c.bytes, classBytes)
		}
		total += c.bytes
		c.mu.Unlock()
	}
	if total > len(classSizes)*classBytes {
		t.Errorf("free list holds %d bytes, over its bound", total)
	}
}

// classUp is the class a get of n is served from.
func classUp(n int) int {
	for i, size := range classSizes {
		if size >= n {
			return i
		}
	}
	return -1
}

// same reports whether a and b share their backing array's start.
func same(a, b []byte) bool { return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0] }

func TestClassSizes(t *testing.T) {
	if len(classSizes) != 29 || classSizes[0] != 64<<10 || classSizes[1] != 80<<10 || classSizes[4] != 128<<10 || classSizes[28] != 8<<20 {
		t.Fatalf("classSizes = %v", classSizes)
	}
	for i := 1; i < len(classSizes); i++ {
		if classSizes[i] <= classSizes[i-1] || classSizes[i] > classSizes[i-1]*5/4 {
			t.Fatalf("class %d: %d after %d", i, classSizes[i], classSizes[i-1])
		}
	}
}

func TestGetBufLenCap(t *testing.T) {
	drainClasses()
	sizes := []int{0, 1, 4096, bigBufCutoff - 1, maxPooledBuf + 1, 9 << 20}
	for _, size := range classSizes {
		sizes = append(sizes, size, size+1, size-1)
	}
	// Twice: fresh, then off what the first pass gave back.
	for pass := 0; pass < 2; pass++ {
		for _, n := range sizes {
			b := GetBuf(n)
			if len(b) != n || cap(b) < n {
				t.Fatalf("pass %d: GetBuf(%d) = len %d cap %d", pass, n, len(b), cap(b))
			}
			if i := classUp(n); n >= bigBufCutoff && i >= 0 && cap(b) < classSizes[i] {
				t.Fatalf("pass %d: GetBuf(%d) = cap %d, under its class's %d", pass, n, cap(b), classSizes[i])
			}
			PutBuf(b)
		}
	}
	checkClasses(t)
	drainClasses()
}

func TestBufLIFO(t *testing.T) {
	drainClasses()
	a, b, c := make([]byte, 0, 80<<10), make([]byte, 0, 80<<10), make([]byte, 0, 90<<10)
	PutBuf(a)
	PutBuf(b)
	PutBuf(c) // between 80 and 96 KiB: the 80 KiB class
	for _, want := range [][]byte{c, b, a} {
		if got := GetBuf(70 << 10); !same(got, want) {
			t.Fatal("GetBuf did not hand out the buffer put back last")
		}
	}
	if got := GetBuf(70 << 10); same(got, a) || same(got, b) || same(got, c) {
		t.Fatal("a buffer was handed out twice")
	}
	drainClasses()
}

// TestBufBetweenClasses: a buffer whose capacity falls between two
// classes is filed under the lower, so it never serves a larger get.
func TestBufBetweenClasses(t *testing.T) {
	drainClasses()
	b := make([]byte, 0, 100<<10) // between the 96 and 112 KiB classes
	PutBuf(b)
	if got := GetBuf(100 << 10); same(got, b) || cap(got) < 112<<10 {
		t.Fatalf("GetBuf(100 KiB) = cap %d, the 100 KiB buffer filed under 96 KiB: want a fresh 112 KiB one", cap(got))
	}
	if got := GetBuf(90 << 10); !same(got, b) || len(got) != 90<<10 {
		t.Fatal("GetBuf(90 KiB) did not take the buffer filed under 96 KiB")
	}
	drainClasses()
}

// TestBufClassBound: a class keeps what it is given up to classBytes
// and lets the rest go, however many buffers come back.
func TestBufClassBound(t *testing.T) {
	drainClasses()
	for _, size := range []int{64 << 10, 100 << 10, 5 << 20, 8 << 20} {
		for i := 0; i < classBytes/size+2; i++ {
			PutBuf(make([]byte, 0, size))
		}
		checkClasses(t)
		i := classUp(size)
		if classSizes[i] != size {
			i--
		}
		if c := &classes[i]; c.bytes+size <= classBytes {
			t.Fatalf("class %d holds %d bytes: room for another %d-byte buffer left after %d puts", i, c.bytes, size, classBytes/size+2)
		}
	}
	drainClasses()
}

func TestBufConcurrent(t *testing.T) {
	drainClasses()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				n := 1 << (10 + rng.Intn(11)) // 1 KiB to 1 MiB
				n += rng.Intn(n)
				b := GetBuf(n)
				mark := byte(g*31 + i)
				b[0], b[n-1] = mark, mark
				runtime.Gosched()
				if b[0] != mark || b[n-1] != mark || len(b) != n {
					t.Errorf("goroutine %d: a buffer in use was handed out again", g)
				}
				PutBuf(b)
			}
		}(g)
	}
	wg.Wait()
	checkClasses(t)
	drainClasses()
}

// FuzzBufClasses runs get/put sequences against the free list: every get
// of n has len n and at least its class's capacity, no buffer is handed
// out while held (each held one keeps the bytes written to it), and the
// classes stay within their bounds holding only buffers of their size.
func FuzzBufClasses(f *testing.F) {
	f.Add([]byte{6, 0, 6, 0, 0x80, 6, 1, 0x80, 13, 255, 0x80, 0x80})
	f.Add([]byte{13, 255, 13, 255, 13, 255, 0x80, 0x80, 0x80, 12, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		drainClasses()
		defer drainClasses()
		var held [][]byte
		for k := 0; k+1 < len(ops) && k < 64; k += 2 {
			if ops[k]&0x80 != 0 || len(held) == 8 {
				// Put back the buffer got i-th last; its marks must be intact.
				i := len(held) - 1 - int(ops[k+1])%max(len(held), 1)
				if i < 0 {
					continue
				}
				b := held[i]
				if b[0] != byte(len(b)) || b[len(b)-1] != byte(len(b)>>8) {
					t.Fatalf("a held %d-byte buffer was handed out again", len(b))
				}
				held = append(held[:i], held[i+1:]...)
				PutBuf(b)
				checkClasses(t)
				continue
			}
			// A log-uniform size from 1 KiB to 16 MiB.
			exp := 10 + int(ops[k])%14
			n := 1<<exp + int(ops[k+1])<<exp/256
			b := GetBuf(n)
			if len(b) != n || cap(b) < n {
				t.Fatalf("GetBuf(%d) = len %d cap %d", n, len(b), cap(b))
			}
			if i := classUp(n); n >= bigBufCutoff && i >= 0 && cap(b) < classSizes[i] {
				t.Fatalf("GetBuf(%d) = cap %d, under its class's %d", n, cap(b), classSizes[i])
			}
			for _, h := range held {
				if same(b, h) {
					t.Fatalf("GetBuf(%d) handed out a held %d-byte buffer", n, len(h))
				}
			}
			b[0], b[n-1] = byte(n), byte(n>>8)
			held = append(held, b)
		}
		for _, b := range held {
			PutBuf(b)
		}
		checkClasses(t)
	})
}
