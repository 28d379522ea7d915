package staging

import (
	"fmt"
	"testing"

	"gospaces/internal/domain"
	"gospaces/internal/transport"
)

// The replication-overhead benchmarks behind the EXPERIMENTS.md
// log-replication row: logged put/get latency through a 3-server
// in-process group with K = 0, 1, 2 wlog replicas. K > 0 pays one
// synchronous flush-before-ack round to each successor; puts also ship
// the payload on the stream.

func benchGroup(b *testing.B, k int) (*Group, *Client, *Client, domain.BBox) {
	b.Helper()
	return benchGroupOn(b, transport.NewInProc(), "stage", Config{
		Global:       domain.Box3(0, 0, 0, 31, 31, 15),
		NServers:     3,
		Bits:         2,
		ElemSize:     8,
		WlogReplicas: k,
	})
}

func benchGroupOn(b *testing.B, tr transport.Transport, prefix string, cfg Config) (*Group, *Client, *Client, domain.BBox) {
	b.Helper()
	g, err := StartGroup(tr, prefix, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { g.Close() })
	prod, err := g.NewClient("sim/0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { prod.Close() })
	cons, err := g.NewClient("ana/0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cons.Close() })
	return g, prod, cons, g.Config().Global
}

// tcpPieces are the loopback-TCP shapes of the logged put and get
// benchmarks, by piece size: a put's 2 KiB pieces share one replica
// round trip per server, 16 KiB ones one per 64 KiB, 128 KiB ones none.
var tcpPieces = []struct {
	piece  string
	global domain.BBox
}{
	{"2KiB", domain.Box3(0, 0, 0, 31, 31, 15)},
	{"16KiB", domain.Box3(0, 0, 0, 63, 63, 31)},
	{"128KiB", domain.Box3(0, 0, 0, 127, 127, 63)},
}

// benchTCPGroup is a K=1 group of four servers over loopback TCP, where
// a replica round trip costs what it costs in production.
func benchTCPGroup(b *testing.B, global domain.BBox) (*Group, *Client, *Client, domain.BBox) {
	return benchGroupOn(b, transport.NewTCP(), "127.0.0.1:0", Config{
		Global: global, NServers: 4, Bits: 2, ElemSize: 8, WlogReplicas: 1,
	})
}

func BenchmarkLoggedPut(b *testing.B) {
	for _, k := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			_, prod, _, global := benchGroup(b, k)
			benchLoggedPut(b, prod, global)
		})
	}
	for _, tc := range tcpPieces {
		b.Run("tcp/piece="+tc.piece, func(b *testing.B) {
			_, prod, _, global := benchTCPGroup(b, tc.global)
			benchLoggedPut(b, prod, global)
		})
	}
}

func benchLoggedPut(b *testing.B, prod *Client, global domain.BBox) {
	data := fill(domain.BufLen(global, 8), 1)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := prod.PutWithLog("field", int64(i+1), global, data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoggedGet is BenchmarkLoggedPut's read side. Over TCP each
// answer is read into a frame from the codec's free list, which the
// client gives back once it has copied the pieces out.
func BenchmarkLoggedGet(b *testing.B) {
	for _, k := range []int{0, 1, 2} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			_, prod, cons, global := benchGroup(b, k)
			benchLoggedGet(b, prod, cons, global)
		})
	}
	for _, tc := range tcpPieces {
		b.Run("tcp/piece="+tc.piece, func(b *testing.B) {
			_, prod, cons, global := benchTCPGroup(b, tc.global)
			benchLoggedGet(b, prod, cons, global)
		})
	}
}

func benchLoggedGet(b *testing.B, prod, cons *Client, global domain.BBox) {
	data := fill(domain.BufLen(global, 8), 1)
	if err := prod.PutWithLog("field", 1, global, data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cons.GetWithLog("field", 1, global); err != nil {
			b.Fatal(err)
		}
	}
}
