package codec

import (
	"slices"
	"sync"
)

// Frame buffers: reusable frame and encode buffers shared by both ends
// of the transport, so steady-state bulk traffic allocates nothing per
// call. Small buffers go to a sync.Pool. Large ones go to a free list
// of size classes that the collector cannot empty: sync.Pool sheds its
// caches on every GC cycle, and bulk traffic makes exactly the GC
// pressure that would empty it when it is needed most.

// bigBufCutoff is the smallest size class. A buffer below it goes to
// the sync.Pool.
const bigBufCutoff = 64 << 10

// maxPooledBuf is the largest size class. A frame past it is made and
// left to the GC rather than pinned.
const maxPooledBuf = 8 << 20

// classesPerDoubling is how many size classes each power of two holds:
// rounding a size up to its class wastes less than a quarter of it.
const classesPerDoubling = 4

// classBytes bounds the capacity one size class retains, so the whole
// free list retains at most len(classSizes) × classBytes = 29 × 16 MiB
// (464 MiB), whatever it is given.
const classBytes = 16 << 20

// classSizes are the classes' capacities, ascending: 64, 80, 96, 112,
// 128, 160 KiB, …, 6, 7, 8 MiB.
var classSizes = func() (sizes []int) {
	for base := bigBufCutoff; base < maxPooledBuf; base <<= 1 {
		for i := range classesPerDoubling {
			sizes = append(sizes, base+i*base/classesPerDoubling)
		}
	}
	return append(sizes, maxPooledBuf)
}()

// sizeClass is one class: a stack, so a get takes the buffer put back
// last, the one most likely still in cache. Every buffer in it holds at
// least the class's size.
type sizeClass struct {
	mu    sync.Mutex
	free  [][]byte
	bytes int // the capacity free holds, at most classBytes
}

var classes = make([]sizeClass, len(classSizes))

var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// GetBuf returns a buffer of length n and capacity at least n. Its
// bytes are whatever its last user left in it. Release it with PutBuf.
func GetBuf(n int) []byte {
	if n < bigBufCutoff {
		p := bufPool.Get().(*[]byte)
		if cap(*p) >= n {
			return (*p)[:n]
		}
		bufPool.Put(p)
		return make([]byte, n)
	}
	if n > maxPooledBuf {
		return make([]byte, n)
	}
	i, _ := slices.BinarySearch(classSizes, n)
	c := &classes[i]
	c.mu.Lock()
	if k := len(c.free) - 1; k >= 0 {
		b := c.free[k]
		c.free[k] = nil
		c.free = c.free[:k]
		c.bytes -= cap(b)
		c.mu.Unlock()
		return b[:n]
	}
	c.mu.Unlock()
	return make([]byte, n, classSizes[i])
}

// PutBuf gives b back for reuse; nothing may touch b after it. A large
// buffer is filed under the largest class it holds, so it never serves
// a larger request, and is let go when that class is at its bound.
func PutBuf(b []byte) {
	switch {
	case cap(b) == 0 || cap(b) > maxPooledBuf:
		return
	case cap(b) < bigBufCutoff:
		b = b[:0]
		bufPool.Put(&b)
		return
	}
	i, exact := slices.BinarySearch(classSizes, cap(b))
	if !exact {
		i--
	}
	c := &classes[i]
	c.mu.Lock()
	if c.bytes+cap(b) <= classBytes {
		c.free = append(c.free, b[:0])
		c.bytes += cap(b)
	}
	c.mu.Unlock()
}

// Frame is the buffer a transport read a message from, carried by the
// message out of band. A struct field of type Frame has no wire
// encoding: it adds no byte to the message. Only UnmarshalFrame sets
// one, and only the first the message decodes, so one value holds the
// buffer. Its holder calls Release once, when nothing reads the
// message's byte fields any more. A Frame nothing set (a value built in
// process, a message from Unmarshal or UnmarshalAlias) releases nothing.
type Frame struct{ buf []byte }

// Release gives the frame to PutBuf. The message's byte fields, in
// every copy of it, are dead after the call.
func (f Frame) Release() { PutBuf(f.buf) }
