package staging

import (
	"bytes"
	"runtime"
	"testing"

	"gospaces/internal/codec"
	"gospaces/internal/domain"
	"gospaces/internal/transport"
)

// handbackGroup starts a two-server group on tr and stages two logged
// versions of "f" with different bytes over global.
func handbackGroup(t *testing.T, tr transport.Transport, prefix string, global domain.BBox, elem int) (g *Group, cons *Client, versions [][]byte) {
	t.Helper()
	g, err := StartGroup(tr, prefix, Config{Global: global, NServers: 2, Bits: 2, ElemSize: elem})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	prod, err := g.NewClient("sim/0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { prod.Close() })
	if cons, err = g.NewClient("ana/0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cons.Close() })
	versions = [][]byte{nil, fill(domain.BufLen(global, elem), 1), fill(domain.BufLen(global, elem), 2)}
	for v := 1; v <= 2; v++ {
		if err := prod.PutWithLog("f", int64(v), global, versions[v]); err != nil {
			t.Fatal(err)
		}
	}
	return g, cons, versions
}

// TestGetHandsFrameBack: over TCP, a get's answer is read into a frame
// from the codec's free list, and the client gives the frame back once
// it has copied the pieces out, so the next get reads into the same
// memory. Interleaved logged gets of two versions each read exactly
// their version's bytes, the first result stays as it was read after
// later gets reused its frame, and a get allocates about its result
// only: without the hand-back it would allocate its frames as well.
func TestGetHandsFrameBack(t *testing.T) {
	global := domain.Box3(0, 0, 0, 63, 63, 31) // 1 MiB in 16 KiB pieces
	_, cons, versions := handbackGroup(t, transport.NewTCP(), "127.0.0.1:0", global, 8)
	get := func(v int) []byte {
		t.Helper()
		got, _, err := cons.GetWithLog("f", int64(v), global)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, versions[v]) {
			t.Fatalf("logged get of v%d read bytes that are not v%d's", v, v)
		}
		return got
	}
	first := get(1)
	for i := 0; i < 8; i++ {
		get(2)
		get(1)
	}
	if !bytes.Equal(first, versions[1]) {
		t.Fatal("the first get's result changed after later gets reused its frame")
	}

	const gets = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < gets; i++ {
		get(1 + i%2)
	}
	runtime.ReadMemStats(&after)
	n := uint64(len(versions[1]))
	if per := (after.TotalAlloc - before.TotalAlloc) / gets; per > n+n/2 {
		t.Errorf("a %d-byte get allocates %d bytes: its frames are not handed back", n, per)
	}
}

// TestInProcGetHandsNothingBack: in process a GetResp's pieces alias the
// server's store and no frame holds them, so the client gives nothing
// to the free list. After many gets, with every buffer the free list
// hands out at the pieces' sizes scribbled over in between, every staged
// object still verifies.
func TestInProcGetHandsNothingBack(t *testing.T) {
	global := domain.Box3(0, 0, 0, 63, 63, 31) // 4 MiB in 64 KiB pieces
	g, cons, versions := handbackGroup(t, transport.NewInProc(), "handback", global, 32)
	piece := domain.BufLen(global, 32) / 64
	for i := 0; i < 16; i++ {
		v := 1 + i%2
		got, _, err := cons.GetWithLog("f", int64(v), global)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, versions[v]) {
			t.Fatalf("logged get of v%d read bytes that are not v%d's", v, v)
		}
		for _, n := range []int{piece, piece + 1, 16 << 10} {
			var held [][]byte
			for k := 0; k < 4; k++ {
				b := codec.GetBuf(n)
				for j := range b {
					b[j] = 0xA5
				}
				held = append(held, b)
			}
			for _, b := range held {
				codec.PutBuf(b)
			}
		}
	}
	for id := 0; id < 2; id++ {
		objs := g.Server(id).store.Export()
		if len(objs) == 0 {
			t.Fatalf("server %d stages nothing", id)
		}
		for _, o := range objs {
			if err := o.Verify(); err != nil {
				t.Fatalf("server %d: %q v%d %v: %v", id, o.Name, o.Version, o.BBox, err)
			}
		}
	}
}
