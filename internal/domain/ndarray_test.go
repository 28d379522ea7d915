package domain

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

func fillSeq(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)
	}
	return b
}

func TestExtractRow(t *testing.T) {
	// 1-D: trivial slicing.
	box := MustBBox(1, []int64{0}, []int64{9})
	data := fillSeq(10)
	sub := MustBBox(1, []int64{3}, []int64{6})
	got := Extract(data, box, sub, 1)
	if !bytes.Equal(got, []byte{3, 4, 5, 6}) {
		t.Fatalf("got %v", got)
	}
}

func TestExtract2D(t *testing.T) {
	// 4x4 grid, extract middle 2x2.
	box := MustBBox(2, []int64{0, 0}, []int64{3, 3})
	data := fillSeq(16)
	sub := MustBBox(2, []int64{1, 1}, []int64{2, 2})
	got := Extract(data, box, sub, 1)
	want := []byte{5, 6, 9, 10}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestExtractElemSize(t *testing.T) {
	box := MustBBox(1, []int64{0}, []int64{3})
	data := fillSeq(16) // 4 elements of 4 bytes
	sub := MustBBox(1, []int64{1}, []int64{2})
	got := Extract(data, box, sub, 4)
	want := []byte{4, 5, 6, 7, 8, 9, 10, 11}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestCopyRegionRoundTrip3D(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	global := Box3(0, 0, 0, 7, 9, 11)
	src := make([]byte, BufLen(global, 2))
	rng.Read(src)

	// Scatter the global array into 8 rank chunks, then gather back.
	d, err := NewDecomposition(global, []int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	chunks := make([][]byte, d.NRanks)
	boxes := make([]BBox, d.NRanks)
	for r := 0; r < d.NRanks; r++ {
		boxes[r], _ = d.RankBox(r)
		chunks[r] = Extract(src, global, boxes[r], 2)
	}
	dst := make([]byte, len(src))
	for r := 0; r < d.NRanks; r++ {
		CopyRegion(dst, global, chunks[r], boxes[r], boxes[r], 2)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("scatter/gather round trip mismatch")
	}
}

func TestCopyRegionPartialOverlap(t *testing.T) {
	srcBox := Box3(0, 0, 0, 3, 3, 3)
	dstBox := Box3(2, 2, 2, 5, 5, 5)
	region, ok := srcBox.Intersect(dstBox)
	if !ok {
		t.Fatal("no overlap")
	}
	src := fillSeq(BufLen(srcBox, 1))
	dst := make([]byte, BufLen(dstBox, 1))
	CopyRegion(dst, dstBox, src, srcBox, region, 1)
	// Check one cell: global point (3,3,3) = src offset 3*16+3*4+3 = 63,
	// dst offset (1,1,1) in dstBox = 1*16+1*4+1 = 21.
	if dst[21] != 63 {
		t.Fatalf("dst[21] = %d, want 63", dst[21])
	}
}

func TestCopyRegionPanicsOnEscape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a := Box3(0, 0, 0, 1, 1, 1)
	b := Box3(0, 0, 0, 2, 2, 2)
	CopyRegion(make([]byte, 8), a, make([]byte, 27), b, b, 1)
}

func TestCopyRegionEmptyRegionNoop(t *testing.T) {
	a := Box3(0, 0, 0, 1, 1, 1)
	dst := make([]byte, 8)
	CopyRegion(dst, a, nil, a, BBox{}, 1)
	for _, v := range dst {
		if v != 0 {
			t.Fatal("empty region modified dst")
		}
	}
}

// offsetInRef returns the row-major element offset of point p within
// box b. p must lie inside b.
func offsetInRef(b BBox, p Point) int64 {
	var off int64
	for i := 0; i < b.NDim; i++ {
		off = off*b.Extent(i) + (p[i] - b.Min[i])
	}
	return off
}

// copyRegionRef is the row walk CopyRegion was before the strided
// kernel, kept verbatim as the reference the kernel is checked and
// benchmarked against: one copy per last-dimension row, the row's
// offset in both boxes recomputed from its coordinates every time.
func copyRegionRef(dst []byte, dstBox BBox, src []byte, srcBox BBox, region BBox, elemSize int) {
	if region.IsEmpty() {
		return
	}
	if !srcBox.Contains(region) || !dstBox.Contains(region) {
		panic(fmt.Sprintf("domain: CopyRegion region %v not contained in src %v / dst %v", region, srcBox, dstBox))
	}
	if len(src) < BufLen(srcBox, elemSize) || len(dst) < BufLen(dstBox, elemSize) {
		panic("domain: CopyRegion buffer too small")
	}
	n := region.NDim
	rowDim := n - 1
	rowBytes := int(region.Extent(rowDim)) * elemSize

	// Iterate over every row start (all dims except the last).
	var p Point
	for i := 0; i < n; i++ {
		p[i] = region.Min[i]
	}
	for {
		so := offsetInRef(srcBox, p) * int64(elemSize)
		do := offsetInRef(dstBox, p) * int64(elemSize)
		copy(dst[do:do+int64(rowBytes)], src[so:so+int64(rowBytes)])

		// Advance to the next row: increment dims rowDim-1 .. 0.
		d := rowDim - 1
		for d >= 0 {
			p[d]++
			if p[d] <= region.Max[d] {
				break
			}
			p[d] = region.Min[d]
			d--
		}
		if d < 0 {
			return
		}
	}
}

// copyFunc is CopyRegion's signature: the kernel, or its reference.
type copyFunc = func(dst []byte, dstBox BBox, src []byte, srcBox, region BBox, elemSize int)

// copyCase is one CopyRegion call's geometry.
type copyCase struct {
	src, dst, region BBox
	elem             int
}

// The shapes genCopyCase forces: every way the kernel's run can merge
// (or fail to merge) across dimensions, next to the unforced cases.
const (
	shapeRandom  = iota // region = src ∩ dst of two boxes grown from it at random
	shapeSub            // region strictly inside src ∩ dst wherever both were grown
	shapeBoth           // region = both boxes: one run
	shapeLast1          // spans both boxes in the last dimension and not the one before
	shapeLast2          // 3-D, spans both boxes in the last two dimensions, not the first
	shapeSrcOnly        // region = src strictly inside dst (a get's piece): nothing merges
	shapeDstOnly        // region = dst strictly inside src (Extract): nothing merges
	shapeCell           // a single cell
	shapeRow            // a single last-dimension row
	nShapes
)

var copyElemSizes = []int{1, 2, 3, 8, 16}

// genCopyCase draws a region with negative and non-zero Min and grows
// the two boxes from it, one dimension and side at a time, as shape
// demands. Coordinates stay within an int8 so a case encodes as a
// FuzzCopyRegion seed.
func genCopyCase(rng *rand.Rand, shape int) copyCase {
	n := 1 + rng.Intn(MaxDims)
	switch shape {
	case shapeLast1:
		n = 2 + rng.Intn(MaxDims-1)
	case shapeLast2:
		n = MaxDims
	}
	c := copyCase{elem: copyElemSizes[rng.Intn(len(copyElemSizes))]}
	c.region.NDim = n
	for i := 0; i < n; i++ {
		ext := int64(1 + rng.Intn(5))
		if shape == shapeCell || shape == shapeRow && i < n-1 {
			ext = 1
		}
		c.region.Min[i] = int64(rng.Intn(41) - 20)
		c.region.Max[i] = c.region.Min[i] + ext - 1
	}
	c.src, c.dst = c.region, c.region
	for i := 0; i < n; i++ {
		// Which box reaches past the region on this side of dimension i:
		// 0 neither, 1 src, 2 dst, 3 both (the region is then not src ∩ dst).
		for side := 0; side < 2; side++ {
			who := rng.Intn(3)
			switch {
			case shape == shapeSub:
				who = rng.Intn(4)
			case shape == shapeBoth,
				shape == shapeLast1 && i == n-1,
				shape == shapeLast2 && i > 0:
				who = 0
			case shape == shapeSrcOnly:
				who = 2
			case shape == shapeDstOnly:
				who = 1
			case who == 0 && (shape == shapeLast1 && i == n-2 || shape == shapeLast2 && i == 0):
				who = 1 + rng.Intn(2)
			}
			by := int64(1 + rng.Intn(3))
			for k, b := range []*BBox{&c.src, &c.dst} {
				if who&(1<<k) == 0 {
					continue
				}
				if side == 0 {
					b.Min[i] -= by
				} else {
					b.Max[i] += by
				}
			}
		}
	}
	return c
}

// mergeClasses names the merge cases c falls in, worked out from the
// boxes alone so the test can tell the generator reached each of them.
func (c copyCase) mergeClasses() []string {
	n := c.region.NDim
	spans := func(b BBox, i int) bool { return c.region.Extent(i) == b.Extent(i) }
	merged := 0 // trailing dimensions in which the region spans both boxes
	for i := n - 1; i >= 0 && spans(c.src, i) && spans(c.dst, i); i-- {
		merged++
	}
	var out []string
	switch {
	case merged == n:
		out = append(out, "both")
	case merged == 1:
		out = append(out, "last1")
	case merged == 2:
		out = append(out, "last2")
	}
	if c.region.Equal(c.src) && merged == 0 {
		out = append(out, "src-only")
	}
	if c.region.Equal(c.dst) && merged == 0 {
		out = append(out, "dst-only")
	}
	if c.region.Volume() == 1 {
		out = append(out, "cell")
	} else if c.region.Volume() == c.region.Extent(n-1) {
		out = append(out, "row")
	}
	return out
}

// run performs the case with copy on a sentinel-filled destination (a
// few bytes longer than the box needs, as CopyRegion allows) and
// returns the destination.
func (c copyCase) run(src []byte, copyFn copyFunc) []byte {
	dst := bytes.Repeat([]byte{0xa5}, BufLen(c.dst, c.elem)+5)
	copyFn(dst, c.dst, src, c.src, c.region, c.elem)
	return dst
}

// check runs the case through the kernel and the reference on random
// source bytes: the two destinations must be identical, and every byte
// outside the region must still hold the sentinel.
func (c copyCase) check(t *testing.T, rng *rand.Rand) {
	t.Helper()
	src := make([]byte, BufLen(c.src, c.elem)+3)
	rng.Read(src)
	got, want := c.run(src, CopyRegion), c.run(src, copyRegionRef)
	if !bytes.Equal(got, want) {
		t.Fatalf("%+v: kernel and reference disagree", c)
	}
	var p Point
	for off := 0; off < len(got); off += c.elem {
		if off < BufLen(c.dst, c.elem) {
			// The cell at off, row-major in c.dst.
			rem := int64(off / c.elem)
			for i := c.dst.NDim - 1; i >= 0; i-- {
				p[i] = c.dst.Min[i] + rem%c.dst.Extent(i)
				rem /= c.dst.Extent(i)
			}
			if c.region.ContainsPoint(p) {
				continue
			}
		}
		for _, b := range got[off:min(off+c.elem, len(got))] {
			if b != 0xa5 {
				t.Fatalf("%+v: byte at %d, outside the region, was written", c, off)
			}
		}
	}
}

func TestCopyRegionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	seen := map[string]int{}
	for i := 0; i < 6000; i++ {
		c := genCopyCase(rng, i%nShapes)
		c.check(t, rng)
		for _, class := range c.mergeClasses() {
			seen[class]++
		}
		if c.region.Min[0] < 0 {
			seen["negative-min"]++
		}
	}
	for _, class := range []string{"both", "last1", "last2", "src-only", "dst-only", "cell", "row", "negative-min"} {
		if seen[class] == 0 {
			t.Errorf("no case of class %q generated", class)
		}
	}
	t.Logf("cases per class: %v", seen)
}

// encode packs the case as FuzzCopyRegion reads it: dimension count,
// element size, then each dimension's six bounds as int8.
func (c copyCase) encode() []byte {
	out := []byte{byte(c.region.NDim - 1), byte(c.elem - 1)}
	for i := 0; i < c.region.NDim; i++ {
		for _, v := range []int64{c.src.Min[i], c.src.Max[i], c.dst.Min[i], c.dst.Max[i], c.region.Min[i], c.region.Max[i]} {
			out = append(out, byte(int8(v)))
		}
	}
	return out
}

// decodeCopyCase is encode's inverse over arbitrary bytes; ok is false
// when they do not describe three boxes of a size worth running.
func decodeCopyCase(raw []byte) (c copyCase, ok bool) {
	if len(raw) < 2 {
		return c, false
	}
	n := 1 + int(raw[0])%MaxDims
	c.elem = 1 + int(raw[1])%16
	if len(raw) < 2+6*n {
		return c, false
	}
	c.src.NDim, c.dst.NDim, c.region.NDim = n, n, n
	for i := 0; i < n; i++ {
		v := raw[2+6*i:]
		for k, p := range []*int64{&c.src.Min[i], &c.src.Max[i], &c.dst.Min[i], &c.dst.Max[i], &c.region.Min[i], &c.region.Max[i]} {
			*p = int64(int8(v[k]))
		}
		if c.src.Min[i] > c.src.Max[i] || c.dst.Min[i] > c.dst.Max[i] || c.region.Min[i] > c.region.Max[i] {
			return c, false
		}
	}
	return c, BufLen(c.src, c.elem) <= 1<<16 && BufLen(c.dst, c.elem) <= 1<<16
}

// FuzzCopyRegion checks the kernel against the reference on any three
// boxes: identical bytes when the region lies in both, a panic from
// both when it escapes either.
func FuzzCopyRegion(f *testing.F) {
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 10*nShapes; i++ {
		f.Add(genCopyCase(rng, i%nShapes).encode())
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		c, ok := decodeCopyCase(raw)
		if !ok {
			return
		}
		if c.src.Contains(c.region) && c.dst.Contains(c.region) {
			c.check(t, rand.New(rand.NewSource(int64(len(raw)))))
			return
		}
		src := make([]byte, BufLen(c.src, c.elem))
		for name, copyFn := range map[string]copyFunc{"kernel": CopyRegion, "reference": copyRegionRef} {
			if !panics(func() { c.run(src, copyFn) }) {
				t.Fatalf("%+v: %s copied a region that escapes a box", c, name)
			}
		}
	})
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestCopyRegionPanics pins the two refusals for each side on its own:
// a region that escapes the box, and a buffer shorter than the box.
func TestCopyRegionPanics(t *testing.T) {
	small, big := Box3(0, 0, 0, 1, 1, 1), Box3(0, 0, 0, 2, 2, 2)
	buf := func(b BBox, short int) []byte { return make([]byte, BufLen(b, 2)-short) }
	for _, tc := range []struct {
		name               string
		dstBox, srcBox     BBox
		dstShort, srcShort int
		region             BBox
	}{
		{name: "region escapes src", dstBox: big, srcBox: small, region: big},
		{name: "region escapes dst", dstBox: small, srcBox: big, region: big},
		{name: "src too short", dstBox: big, srcBox: big, srcShort: 1, region: small},
		{name: "dst too short", dstBox: big, srcBox: big, dstShort: 1, region: small},
	} {
		dst, src := buf(tc.dstBox, tc.dstShort), buf(tc.srcBox, tc.srcShort)
		if !panics(func() { CopyRegion(dst, tc.dstBox, src, tc.srcBox, tc.region, 2) }) {
			t.Errorf("%s: no panic", tc.name)
		}
	}
	// The same call with nothing wrong does not.
	CopyRegion(buf(big, 0), big, buf(big, 0), big, small, 2)
}

// copyOp is one CopyRegion call of a benchmark, buffers included.
type copyOp struct {
	dst, src               []byte
	dstBox, srcBox, region BBox
}

// tileOps cuts whole into cells of the given extents and returns one op
// per cell, each with a buffer of its own (a put's pieces are fresh
// Extract outputs, a get's pieces arrive in their response's frame):
// out of a buffer covering whole when extract, into one otherwise.
func tileOps(whole BBox, cell [MaxDims]int64, elem int, extract bool) []copyOp {
	big := make([]byte, BufLen(whole, elem))
	var ops []copyOp
	for x := whole.Min[0]; x <= whole.Max[0]; x += cell[0] {
		for y := whole.Min[1]; y <= whole.Max[1]; y += cell[1] {
			for z := whole.Min[2]; z <= whole.Max[2]; z += cell[2] {
				c := Box3(x, y, z, x+cell[0]-1, y+cell[1]-1, z+cell[2]-1)
				op := copyOp{dst: big, dstBox: whole, src: make([]byte, BufLen(c, elem)), srcBox: c, region: c}
				if extract {
					op.dst, op.dstBox, op.src, op.srcBox = op.src, op.srcBox, op.dst, op.dstBox
				}
				ops = append(ops, op)
			}
		}
	}
	return ops
}

// BenchmarkCopyRegion runs the kernel and, as its ref twin, the row walk
// it replaced over the end-to-end benchmark's shapes (8-byte cells; a
// rank put's split of couple-large, and a get's assembly on couple-large,
// restart-spill/failstop and couple-small), over a region whose rows
// merge into one run per x, and over one that is a single run — which
// copy, the same bytes moved by the builtin alone, is the roofline of.
func BenchmarkCopyRegion(b *testing.B) {
	const elem = 8
	rank := Box3(0, 0, 0, 31, 127, 63)
	for _, bc := range []struct {
		name string
		ops  []copyOp
	}{
		{"extract-128B", tileOps(rank, [MaxDims]int64{32, 32, 16}, elem, true)},
		{"gather-128B", tileOps(Box3(0, 0, 0, 63, 127, 63), [MaxDims]int64{32, 32, 16}, elem, false)},
		{"gather-64B", tileOps(Box3(0, 0, 0, 63, 63, 31), [MaxDims]int64{16, 16, 8}, elem, false)},
		{"gather-32B", tileOps(Box3(0, 0, 0, 15, 31, 15), [MaxDims]int64{8, 8, 4}, elem, false)},
		{"slab", tileOps(rank, [MaxDims]int64{32, 32, 64}, elem, false)},
		{"contiguous", tileOps(rank, [MaxDims]int64{32, 128, 64}, elem, false)},
	} {
		var total int64
		for _, op := range bc.ops {
			total += int64(BufLen(op.region, elem))
		}
		type twin struct {
			name string
			fn   copyFunc
		}
		twins := []twin{{"ref", copyRegionRef}, {"kernel", CopyRegion}}
		if len(bc.ops) == 1 {
			twins = append(twins, twin{"copy", func(dst []byte, _ BBox, src []byte, _, _ BBox, _ int) { copy(dst, src) }})
		}
		for _, tw := range twins {
			b.Run(bc.name+"/"+tw.name, func(b *testing.B) {
				b.SetBytes(total)
				for i := 0; i < b.N; i++ {
					for _, op := range bc.ops {
						tw.fn(op.dst, op.dstBox, op.src, op.srcBox, op.region, elem)
					}
				}
			})
		}
	}
}
