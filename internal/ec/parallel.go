package ec

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The coding kernels (parity generation in Encode, shard rebuild in
// Reconstruct) are byte-range parallel: every output byte depends only
// on the same offset of the input shards, so the shard length can be
// cut into chunks and coded on independent goroutines with no shared
// writes. corec's Put encodes and its degraded Get and Rebuild
// reconstruct a whole object at a time, and parity for the replay
// window's cold tail (ROADMAP item 12) would recode every logged
// version, so a single-core kernel would hold each of them to one CPU
// while the rest of the staging node idles.

const (
	// parallelThreshold is the shard length below which chunking is not
	// worth the goroutine handoff; short shards run serially.
	parallelThreshold = 64 << 10
	// chunkLen is the coding chunk: large enough to amortize dispatch,
	// small enough that the shard slices in flight stay cache-resident
	// and stragglers can steal work.
	chunkLen = 32 << 10
)

// ecWorkers is the goroutines one Encode/Reconstruct may use; 0 means
// GOMAXPROCS. Nothing outside the tests sets it: they pin the chunked
// kernel against the serial one (export_test.go).
var ecWorkers int

// runChunked invokes fn over disjoint sub-ranges covering [0, shardLen).
// fn must be safe to run concurrently on disjoint ranges. Short inputs
// and a single worker run inline on the caller.
func runChunked(shardLen int, fn func(lo, hi int)) {
	w := ecWorkers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w <= 1 || shardLen < parallelThreshold {
		fn(0, shardLen)
		return
	}
	nchunks := (shardLen + chunkLen - 1) / chunkLen
	if w > nchunks {
		w = nchunks
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= nchunks {
					return
				}
				lo := c * chunkLen
				hi := lo + chunkLen
				if hi > shardLen {
					hi = shardLen
				}
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
}
