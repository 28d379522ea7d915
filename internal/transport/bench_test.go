package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"gospaces/internal/codec"
)

// benchPut mimics a staged put: a small key plus a bulk payload (from
// 16 KiB up the transport writes it as an iovec of its own).
type benchPut struct {
	Key  string
	Data []byte
}

type benchAck struct {
	N int
}

func init() {
	codec.Register(0xff03, benchPut{})
	codec.Register(0xff04, benchAck{})
}

// BenchmarkPutGet measures put round-trips through one shared client
// across payload sizes and caller counts: concurrent in-flight calls on
// one multiplexed connection (mode=mux, the name its rows carry in
// EXPERIMENTS.md's serialized-vs-multiplexed table). 2 KiB is the
// couple-small workload's piece size, where per-frame costs dominate.
func BenchmarkPutGet(b *testing.B) {
	sizes := []struct {
		name  string
		bytes int
	}{
		{"2KiB", 2 << 10},
		{"4KiB", 4 << 10},
		{"256KiB", 256 << 10},
		{"4MiB", 4 << 20},
	}
	callers := []int{1, 8, 64}

	handler := func(req any) (any, error) {
		p := req.(benchPut)
		return benchAck{N: len(p.Data)}, nil
	}

	for _, size := range sizes {
		payload := make([]byte, size.bytes)
		for i := range payload {
			payload[i] = byte(i)
		}
		for _, nc := range callers {
			name := fmt.Sprintf("size=%s/callers=%d/mode=mux", size.name, nc)
			b.Run(name, func(b *testing.B) {
				tr := NewTCPTimeout(30*time.Second, 5*time.Second)
				ep, err := tr.ListenTCP("127.0.0.1:0", handler)
				if err != nil {
					b.Fatal(err)
				}
				defer ep.Close()
				cl, err := tr.Dial(ep.Addr())
				if err != nil {
					b.Fatal(err)
				}
				defer cl.Close()

				b.SetBytes(int64(size.bytes))
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				per := b.N / nc
				extra := b.N % nc
				failed := make(chan error, nc)
				for c := 0; c < nc; c++ {
					n := per
					if c < extra {
						n++
					}
					if n == 0 {
						continue
					}
					wg.Add(1)
					go func(n int) {
						defer wg.Done()
						req := benchPut{Key: "bench/object", Data: payload}
						for i := 0; i < n; i++ {
							resp, err := cl.Call(req)
							if err != nil {
								failed <- err
								return
							}
							if a := resp.(benchAck); a.N != len(payload) {
								failed <- fmt.Errorf("ack %d != %d", a.N, len(payload))
								return
							}
						}
					}(n)
				}
				wg.Wait()
				b.StopTimer()
				select {
				case err := <-failed:
					b.Fatal(err)
				default:
				}
			})
		}
	}
}
