// Package domain provides the geometric vocabulary of the staging service:
// axis-aligned bounding boxes over an up-to-3-dimensional integer grid, and
// regular block decompositions of a global domain across application ranks.
//
// DataSpaces identifies every shared data region by such a geometric
// descriptor; all staging puts, gets, and logged events in this repository
// carry a BBox.
package domain

import (
	"fmt"
)

// MaxDims is the maximum number of dimensions supported by the staging
// geometry. The paper's workloads are 3-D scalar/vector fields.
const MaxDims = 3

// Point is a coordinate on the global integer grid. Only the first NDim
// entries of a containing BBox are meaningful.
type Point [MaxDims]int64

// BBox is a closed axis-aligned box [Min, Max] on the global grid.
// A BBox with NDim == 0 is the empty box.
type BBox struct {
	NDim int
	Min  Point
	Max  Point
}

// NewBBox constructs an n-dimensional box from min/max coordinate slices.
// It panics if n is out of range or the slices are shorter than n; it
// returns an error if any min exceeds the corresponding max.
func NewBBox(n int, min, max []int64) (BBox, error) {
	if n < 1 || n > MaxDims {
		panic(fmt.Sprintf("domain: NewBBox dimension %d out of range [1,%d]", n, MaxDims))
	}
	if len(min) < n || len(max) < n {
		panic("domain: NewBBox coordinate slices shorter than dimension")
	}
	var b BBox
	b.NDim = n
	for i := 0; i < n; i++ {
		if min[i] > max[i] {
			return BBox{}, fmt.Errorf("domain: inverted extent in dim %d: min %d > max %d", i, min[i], max[i])
		}
		b.Min[i] = min[i]
		b.Max[i] = max[i]
	}
	return b, nil
}

// MustBBox is NewBBox but panics on inverted extents. Intended for
// literals in tests and examples.
func MustBBox(n int, min, max []int64) BBox {
	b, err := NewBBox(n, min, max)
	if err != nil {
		panic(err)
	}
	return b
}

// Box3 is shorthand for a 3-D box literal.
func Box3(x0, y0, z0, x1, y1, z1 int64) BBox {
	return MustBBox(3, []int64{x0, y0, z0}, []int64{x1, y1, z1})
}

// ValidateWire is the box's decode check (codec.Validator): a box off
// the wire must have a dimension count the coordinate arrays can hold,
// and nothing set in the coordinates past it, so every box compares
// and indexes like one NewBBox built.
func (b *BBox) ValidateWire() error {
	if b.NDim < 0 || b.NDim > MaxDims {
		return fmt.Errorf("bbox dimension %d", b.NDim)
	}
	for i := b.NDim; i < MaxDims; i++ {
		if b.Min[i] != 0 || b.Max[i] != 0 {
			return fmt.Errorf("bbox coordinate set past dimension %d", b.NDim)
		}
	}
	return nil
}

// IsEmpty reports whether the box covers no cells.
func (b BBox) IsEmpty() bool { return b.NDim == 0 }

// Volume returns the number of grid cells covered by the box.
func (b BBox) Volume() int64 {
	if b.IsEmpty() {
		return 0
	}
	v := int64(1)
	for i := 0; i < b.NDim; i++ {
		v *= b.Max[i] - b.Min[i] + 1
	}
	return v
}

// Extent returns the length of the box along dimension d.
func (b BBox) Extent(d int) int64 {
	if d < 0 || d >= b.NDim {
		return 0
	}
	return b.Max[d] - b.Min[d] + 1
}

// Equal reports whether two boxes cover exactly the same region.
func (b BBox) Equal(o BBox) bool {
	if b.NDim != o.NDim {
		return false
	}
	for i := 0; i < b.NDim; i++ {
		if b.Min[i] != o.Min[i] || b.Max[i] != o.Max[i] {
			return false
		}
	}
	return true
}

// Contains reports whether o lies entirely inside b.
func (b BBox) Contains(o BBox) bool {
	if b.NDim != o.NDim || b.IsEmpty() || o.IsEmpty() {
		return false
	}
	for i := 0; i < b.NDim; i++ {
		if o.Min[i] < b.Min[i] || o.Max[i] > b.Max[i] {
			return false
		}
	}
	return true
}

// ContainsPoint reports whether point p (with b.NDim meaningful coords)
// lies inside b.
func (b BBox) ContainsPoint(p Point) bool {
	for i := 0; i < b.NDim; i++ {
		if p[i] < b.Min[i] || p[i] > b.Max[i] {
			return false
		}
	}
	return !b.IsEmpty()
}

// Intersects reports whether the two boxes share at least one cell.
func (b BBox) Intersects(o BBox) bool {
	if b.NDim != o.NDim || b.IsEmpty() || o.IsEmpty() {
		return false
	}
	for i := 0; i < b.NDim; i++ {
		if b.Max[i] < o.Min[i] || o.Max[i] < b.Min[i] {
			return false
		}
	}
	return true
}

// Intersect returns the overlap of the two boxes and whether it is
// non-empty.
func (b BBox) Intersect(o BBox) (BBox, bool) {
	if !b.Intersects(o) {
		return BBox{}, false
	}
	r := BBox{NDim: b.NDim}
	for i := 0; i < b.NDim; i++ {
		r.Min[i] = maxI64(b.Min[i], o.Min[i])
		r.Max[i] = minI64(b.Max[i], o.Max[i])
	}
	return r, true
}

// Union returns the smallest box covering both operands. Union with the
// empty box returns the other operand.
func (b BBox) Union(o BBox) BBox {
	if b.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return b
	}
	if b.NDim != o.NDim {
		panic("domain: Union of boxes with different dimensionality")
	}
	r := BBox{NDim: b.NDim}
	for i := 0; i < b.NDim; i++ {
		r.Min[i] = minI64(b.Min[i], o.Min[i])
		r.Max[i] = maxI64(b.Max[i], o.Max[i])
	}
	return r
}

// Translate returns the box shifted by off.
func (b BBox) Translate(off Point) BBox {
	r := b
	for i := 0; i < b.NDim; i++ {
		r.Min[i] += off[i]
		r.Max[i] += off[i]
	}
	return r
}

// String renders the box as {(min)..(max)}.
func (b BBox) String() string {
	if b.IsEmpty() {
		return "{empty}"
	}
	s := "{("
	for i := 0; i < b.NDim; i++ {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprint(b.Min[i])
	}
	s += ")..("
	for i := 0; i < b.NDim; i++ {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprint(b.Max[i])
	}
	return s + ")}"
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
