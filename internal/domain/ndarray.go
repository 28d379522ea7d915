package domain

import "fmt"

// This file provides row-major N-dimensional buffer arithmetic: the
// staging client splits a rank's local array into per-server chunks on
// put and reassembles query results into the caller's buffer on get,
// exactly as DataSpaces does with its RDMA scatter/gather lists.

// BufLen returns the byte length of a row-major buffer covering b with
// the given element size.
func BufLen(b BBox, elemSize int) int {
	return int(b.Volume()) * elemSize
}

// CopyRegion walks at most two dimensions outside its contiguous run.
var _ [3 - MaxDims]struct{}

// CopyRegion copies the cells of region from a row-major buffer covering
// srcBox into a row-major buffer covering dstBox. region must be
// contained in both boxes, and all boxes must share dimensionality.
//
// The geometry is resolved once per call: the byte strides of both boxes
// and the offsets of region.Min in each. The unit of copying is the
// longest run contiguous in both buffers — the region's last-dimension
// row, extended over dimension d while the region spans both boxes fully
// in every dimension after d — and the dimensions before it are walked by
// adding strides, one copy per run.
func CopyRegion(dst []byte, dstBox BBox, src []byte, srcBox BBox, region BBox, elemSize int) {
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
	var sStride, dStride [MaxDims]int
	so, do := 0, 0
	for i, ss, ds := n-1, elemSize, elemSize; i >= 0; i-- {
		sStride[i], dStride[i] = ss, ds
		so += int(region.Min[i]-srcBox.Min[i]) * ss
		do += int(region.Min[i]-dstBox.Min[i]) * ds
		ss *= int(srcBox.Extent(i))
		ds *= int(dstBox.Extent(i))
	}
	// A run covers dimensions m..n-1; where it spans more than one, the
	// two boxes have the region's extents there, so their strides agree.
	m := n - 1
	for m > 0 && region.Extent(m) == srcBox.Extent(m) && region.Extent(m) == dstBox.Extent(m) {
		m--
	}
	run := int(region.Extent(m)) * sStride[m]

	// The dimensions before the run, at most two, as two nested loops; an
	// absent one runs once.
	cnt := [2]int{1, 1}
	var sStep, dStep [2]int
	for i := 0; i < m; i++ {
		j := i + 2 - m
		cnt[j], sStep[j], dStep[j] = int(region.Extent(i)), sStride[i], dStride[i]
	}
	for i := 0; i < cnt[0]; i++ {
		s, d := so, do
		for j := 0; j < cnt[1]; j++ {
			copy(dst[d:d+run], src[s:s+run])
			s += sStep[1]
			d += dStep[1]
		}
		so += sStep[0]
		do += dStep[0]
	}
}

// Extract returns a fresh buffer holding the sub region of a row-major
// buffer covering srcBox.
func Extract(src []byte, srcBox, sub BBox, elemSize int) []byte {
	out := make([]byte, BufLen(sub, elemSize))
	CopyRegion(out, sub, src, srcBox, sub, elemSize)
	return out
}
