package dht

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gospaces/internal/domain"
)

func TestNewIndexValidation(t *testing.T) {
	g := domain.Box3(0, 0, 0, 63, 63, 63)
	if _, err := NewIndex(domain.BBox{}, 4, 4); err == nil {
		t.Fatal("empty domain accepted")
	}
	if _, err := NewIndex(g, 0, 4); err == nil {
		t.Fatal("zero servers accepted")
	}
	if _, err := NewIndex(g, 4, 0); err == nil {
		t.Fatal("zero bits accepted")
	}
	if _, err := NewIndex(g, 100, 1); err == nil {
		t.Fatal("more servers than cells accepted")
	}
}

func TestMortonRoundTrip(t *testing.T) {
	f := func(a, b, c uint16) bool {
		var coord [domain.MaxDims]uint32
		coord[0] = uint32(a) & 0x3ff
		coord[1] = uint32(b) & 0x3ff
		coord[2] = uint32(c) & 0x3ff
		m := morton(3, 10, coord)
		back := unmorton(3, 10, m)
		return back == coord
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMortonLocality(t *testing.T) {
	// Adjacent cells in the same octant share code prefix: codes for
	// (0,0,0) and (1,1,1) at bits=2 must be closer than (0,0,0)-(3,3,3).
	near := morton(3, 2, [domain.MaxDims]uint32{1, 1, 1})
	far := morton(3, 2, [domain.MaxDims]uint32{3, 3, 3})
	zero := morton(3, 2, [domain.MaxDims]uint32{0, 0, 0})
	if !(near-zero < far-zero) {
		t.Fatalf("morton locality broken: near=%d far=%d", near, far)
	}
}

func TestServersForCoverAndSorted(t *testing.T) {
	g := domain.Box3(0, 0, 0, 511, 511, 255)
	x, err := NewIndex(g, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	all := x.ServersFor(g)
	if len(all) != 32 {
		t.Fatalf("global query touches %d servers, want all 32", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i] <= all[i-1] {
			t.Fatal("server list not sorted/unique")
		}
	}
	small := x.ServersFor(domain.Box3(0, 0, 0, 15, 15, 15))
	if len(small) == 0 || len(small) > 4 {
		t.Fatalf("small query touches %d servers", len(small))
	}
}

func TestServersForDisjointAndClip(t *testing.T) {
	g := domain.Box3(0, 0, 0, 63, 63, 63)
	x, _ := NewIndex(g, 8, 3)
	if got := x.ServersFor(domain.Box3(100, 100, 100, 120, 120, 120)); got != nil {
		t.Fatalf("disjoint query returned %v", got)
	}
	// Query overflowing the domain is clipped, not an error.
	got := x.ServersFor(domain.Box3(32, 32, 32, 200, 200, 200))
	if len(got) == 0 {
		t.Fatal("clipped query returned nothing")
	}
}

func TestPointAssignmentConsistentWithBoxQuery(t *testing.T) {
	g := domain.Box3(0, 0, 0, 127, 127, 127)
	x, _ := NewIndex(g, 16, 4)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		p := domain.Point{rng.Int63n(128), rng.Int63n(128), rng.Int63n(128)}
		box := domain.Box3(p[0], p[1], p[2], p[0], p[1], p[2])
		owners := x.ServersFor(box)
		if len(owners) != 1 {
			t.Fatalf("point %v: ServersFor=%v, want one owner", p, owners)
		}
		owned := false
		for _, cell := range x.ServerCells(owners[0]) {
			owned = owned || cell.Contains(box)
		}
		if !owned {
			t.Fatalf("point %v: ServersFor=%v, but none of that server's cells holds it", p, owners)
		}
	}
}

func TestLoadBalance(t *testing.T) {
	g := domain.Box3(0, 0, 0, 255, 255, 255)
	nservers := 32
	x, _ := NewIndex(g, nservers, 4)
	counts := make([]int, nservers)
	total := 0
	for m := uint64(0); m < x.ncells; m++ {
		counts[x.serverOfMorton(m)]++
		total++
	}
	ideal := total / nservers
	for s, c := range counts {
		if c < ideal-1 || c > ideal+1 {
			t.Fatalf("server %d owns %d cells, ideal %d", s, c, ideal)
		}
	}
}

func TestServerCellsPartition(t *testing.T) {
	g := domain.Box3(0, 0, 0, 63, 63, 31)
	nservers := 8
	x, _ := NewIndex(g, nservers, 3)
	var vol int64
	for s := 0; s < nservers; s++ {
		for _, b := range x.ServerCells(s) {
			if !g.Contains(b) {
				t.Fatalf("server %d cell %v escapes global", s, b)
			}
			vol += b.Volume()
		}
	}
	if vol != g.Volume() {
		t.Fatalf("cells cover %d, global is %d", vol, g.Volume())
	}
	if x.ServerCells(-1) != nil || x.ServerCells(99) != nil {
		t.Fatal("out-of-range server returned cells")
	}
}

func TestSingleServer(t *testing.T) {
	g := domain.Box3(0, 0, 0, 9, 9, 9)
	x, err := NewIndex(g, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := x.ServersFor(g); len(got) != 1 || got[0] != 0 {
		t.Fatalf("got %v", got)
	}
}
