// Package dht maps regions of the global data domain to staging
// servers, the role DataSpaces' distributed hash table plays. The
// global domain is covered by a coarse grid of cells; cells are ordered
// along a Z-order (Morton) space-filling curve and the curve is cut
// into contiguous, equal-length arcs, one per server. The SFC keeps
// spatially adjacent cells on the same server, so a typical bounding-box
// query touches few servers.
package dht

import (
	"fmt"

	"gospaces/internal/domain"
)

// Index maps bounding boxes to server ids for one global domain.
type Index struct {
	global   domain.BBox
	nservers int
	bits     int // cells per dimension = 1 << bits
	cellExt  [domain.MaxDims]int64
	ncells   uint64 // total SFC cells = 1 << (bits * ndim)
}

// NewIndex builds a Z-order index over global for nservers servers.
// bits is the grid refinement: the domain is covered by 2^bits cells per
// dimension (so server load balance is within 1 cell-arc). bits in
// [1, 10].
func NewIndex(global domain.BBox, nservers, bits int) (*Index, error) {
	if global.IsEmpty() {
		return nil, fmt.Errorf("dht: empty global domain")
	}
	if nservers < 1 {
		return nil, fmt.Errorf("dht: need at least one server, got %d", nservers)
	}
	if bits < 1 || bits > 10 {
		return nil, fmt.Errorf("dht: bits %d out of range [1,10]", bits)
	}
	idx := &Index{global: global, nservers: nservers, bits: bits}
	cells := int64(1) << bits
	for i := 0; i < global.NDim; i++ {
		idx.cellExt[i] = (global.Extent(i) + cells - 1) / cells
		if idx.cellExt[i] < 1 {
			idx.cellExt[i] = 1
		}
	}
	idx.ncells = uint64(1) << (bits * global.NDim)
	if uint64(nservers) > idx.ncells {
		return nil, fmt.Errorf("dht: %d servers exceed %d cells; raise bits", nservers, idx.ncells)
	}
	return idx, nil
}

// NumServers returns the number of servers the index distributes over.
func (x *Index) NumServers() int { return x.nservers }

// Global returns the indexed global domain.
func (x *Index) Global() domain.BBox { return x.global }

// cellCoord returns the cell coordinate of a global grid point along
// dimension d, clamped to the grid.
func (x *Index) cellCoord(d int, v int64) uint32 {
	c := (v - x.global.Min[d]) / x.cellExt[d]
	max := (int64(1) << x.bits) - 1
	if c < 0 {
		c = 0
	}
	if c > max {
		c = max
	}
	return uint32(c)
}

// serverOfMorton maps an SFC code to a server by cutting the curve
// into nservers equal arcs.
func (x *Index) serverOfMorton(m uint64) int {
	s := int(m * uint64(x.nservers) / x.ncells)
	if s >= x.nservers {
		s = x.nservers - 1
	}
	return s
}

// ServersFor returns the sorted set of servers whose cells intersect q,
// clipped to the global domain. An empty or disjoint query returns nil.
func (x *Index) ServersFor(q domain.BBox) []int {
	q, ok := q.Intersect(x.global)
	if !ok {
		return nil
	}
	n := x.global.NDim
	var lo, hi [domain.MaxDims]uint32
	for d := 0; d < n; d++ {
		lo[d] = x.cellCoord(d, q.Min[d])
		hi[d] = x.cellCoord(d, q.Max[d])
	}
	seen := make(map[int]struct{})
	var cur [domain.MaxDims]uint32
	copy(cur[:], lo[:])
	for {
		seen[x.serverOfMorton(morton(n, x.bits, cur))] = struct{}{}
		d := n - 1
		for d >= 0 {
			cur[d]++
			if cur[d] <= hi[d] {
				break
			}
			cur[d] = lo[d]
			d--
		}
		if d < 0 {
			break
		}
	}
	out := make([]int, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sortInts(out)
	return out
}

// ServerCells returns, for server s, the sub-boxes of the global domain
// it owns, merged per Morton run where adjacent. Used by the rebuild
// path after a server loss and by tests.
func (x *Index) ServerCells(s int) []domain.BBox {
	if s < 0 || s >= x.nservers {
		return nil
	}
	var out []domain.BBox
	n := x.global.NDim
	for m := uint64(0); m < x.ncells; m++ {
		if x.serverOfMorton(m) != s {
			continue
		}
		c := unmorton(n, x.bits, m)
		b := domain.BBox{NDim: n}
		skip := false
		for d := 0; d < n; d++ {
			b.Min[d] = x.global.Min[d] + int64(c[d])*x.cellExt[d]
			if b.Min[d] > x.global.Max[d] {
				skip = true // cell entirely outside (padded grid)
				break
			}
			b.Max[d] = b.Min[d] + x.cellExt[d] - 1
			if b.Max[d] > x.global.Max[d] {
				b.Max[d] = x.global.Max[d]
			}
		}
		if !skip {
			out = append(out, b)
		}
	}
	return out
}

// morton interleaves the low `bits` bits of each of the n coordinates
// into a single Z-order code, dimension 0 occupying the most significant
// bit of each group.
func morton(n, bits int, c [domain.MaxDims]uint32) uint64 {
	var m uint64
	for b := bits - 1; b >= 0; b-- {
		for d := 0; d < n; d++ {
			m = m<<1 | uint64((c[d]>>uint(b))&1)
		}
	}
	return m
}

// unmorton inverts morton.
func unmorton(n, bits int, m uint64) [domain.MaxDims]uint32 {
	var c [domain.MaxDims]uint32
	for b := 0; b < bits; b++ {
		for d := n - 1; d >= 0; d-- {
			c[d] |= uint32(m&1) << uint(b)
			m >>= 1
		}
	}
	return c
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
