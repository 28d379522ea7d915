package ec

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

func randShards(t testing.TB, k, shardLen int, seed int64) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	shards := make([][]byte, k)
	for i := range shards {
		shards[i] = make([]byte, shardLen)
		rng.Read(shards[i])
	}
	return shards
}

// TestParallelEncodeMatchesSerial pins the chunked kernel to the serial
// one: identical parity for shard lengths straddling the thresholds and
// chunk boundaries.
func TestParallelEncodeMatchesSerial(t *testing.T) {
	c, err := NewCoder(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, shardLen := range []int{1, 1000, parallelThreshold - 1, parallelThreshold, chunkLen*3 + 17, 1 << 20} {
		data := randShards(t, 6, shardLen, int64(shardLen))

		prev := setWorkers(1)
		serial, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		setWorkers(8)
		parallel, err := c.Encode(data)
		setWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			if !bytes.Equal(serial[i], parallel[i]) {
				t.Fatalf("shardLen %d: shard %d differs between serial and parallel encode", shardLen, i)
			}
		}
	}
}

// TestParallelReconstructMatchesSerial erases data+parity shards and
// checks both kernels restore the same bytes.
func TestParallelReconstructMatchesSerial(t *testing.T) {
	c, err := NewCoder(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	shardLen := chunkLen*2 + 333
	data := randShards(t, 6, shardLen, 42)
	all, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	damage := func() [][]byte {
		d := make([][]byte, len(all))
		for i := range all {
			d[i] = append([]byte(nil), all[i]...)
		}
		d[0], d[3], d[7] = nil, nil, nil // two data shards and one parity
		return d
	}

	prev := setWorkers(1)
	serial := damage()
	if err := c.Reconstruct(serial); err != nil {
		t.Fatal(err)
	}
	setWorkers(8)
	parallel := damage()
	err = c.Reconstruct(parallel)
	setWorkers(prev)
	if err != nil {
		t.Fatal(err)
	}
	for i := range all {
		if !bytes.Equal(serial[i], all[i]) {
			t.Fatalf("serial reconstruct: shard %d wrong", i)
		}
		if !bytes.Equal(parallel[i], all[i]) {
			t.Fatalf("parallel reconstruct: shard %d wrong", i)
		}
	}
}

// BenchmarkECEncode measures parity generation throughput (bytes/s of
// input data coded) for the serial and parallel kernels.
func BenchmarkECEncode(b *testing.B) {
	c, err := NewCoder(6, 3)
	if err != nil {
		b.Fatal(err)
	}
	for _, objSize := range []int{256 << 10, 4 << 20, 64 << 20} {
		shardLen := objSize / 6
		data := randShards(b, 6, shardLen, int64(objSize))
		for _, workers := range []int{1, 0} {
			name := fmt.Sprintf("obj=%dKiB/workers=%d", objSize>>10, workers)
			b.Run(name, func(b *testing.B) {
				prev := setWorkers(workers)
				defer setWorkers(prev)
				b.SetBytes(int64(objSize))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := c.Encode(data); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkECReconstruct measures the rebuild path corec's degraded
// Get and Rebuild exercise.
func BenchmarkECReconstruct(b *testing.B) {
	c, err := NewCoder(6, 3)
	if err != nil {
		b.Fatal(err)
	}
	objSize := 4 << 20
	shardLen := objSize / 6
	data := randShards(b, 6, shardLen, 7)
	all, err := c.Encode(data)
	if err != nil {
		b.Fatal(err)
	}
	work := make([][]byte, len(all))
	for _, workers := range []int{1, 0} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			prev := setWorkers(workers)
			defer setWorkers(prev)
			b.SetBytes(int64(objSize))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(work, all)
				work[1], work[4], work[6] = nil, nil, nil
				if err := c.Reconstruct(work); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
