// Package ec implements systematic Reed–Solomon erasure coding over
// GF(2^8), the redundancy scheme of the CoREC staging layer (Duan et
// al., IPDPS'18). Any k of the n = k+m shards reconstruct the original
// data. No package imports it yet: it is the kernel for cold parity
// over the replay window (ROADMAP item 12, step 2), while logged data
// is protected by wlog replication today.
package ec

// GF(2^8) with the polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11d), under
// which 2 generates the multiplicative group — the field conventional
// Reed–Solomon implementations use.
const gfPoly = 0x11d

var (
	gfExp [512]byte // generator powers, doubled to avoid mod 255
	gfLog [256]byte

	// mulTable[c] is the 256-byte lookup row for multiplication by c:
	// mulTable[c][x] = c*x. The row turns the inner coding loop into one
	// load + one xor per byte — no log/exp arithmetic, no zero branch —
	// and the 64 KiB table stays resident in L1/L2 during bulk encodes.
	mulTable [256][256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		gfExp[i] = byte(x)
		gfLog[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= gfPoly
		}
	}
	for i := 255; i < 512; i++ {
		gfExp[i] = gfExp[i-255]
	}
	for c := 1; c < 256; c++ {
		logC := int(gfLog[c])
		row := &mulTable[c]
		for s := 1; s < 256; s++ {
			row[s] = gfExp[logC+int(gfLog[s])]
		}
	}
}

// gfMul multiplies two field elements.
func gfMul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+int(gfLog[b])]
}

// gfDiv divides a by b. Panics on division by zero.
func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("ec: division by zero in GF(256)")
	}
	if a == 0 {
		return 0
	}
	return gfExp[int(gfLog[a])+255-int(gfLog[b])]
}

// gfInv returns the multiplicative inverse.
func gfInv(a byte) byte { return gfDiv(1, a) }

// gfMulAddSlice computes dst[i] ^= c * src[i] for all i, via the
// per-coefficient lookup row.
func gfMulAddSlice(dst, src []byte, c byte) {
	if c == 0 {
		return
	}
	if c == 1 {
		for i, s := range src {
			dst[i] ^= s
		}
		return
	}
	mt := &mulTable[c]
	dst = dst[:len(src)] // hoist the bounds check out of the loop
	for i, s := range src {
		dst[i] ^= mt[s]
	}
}

// matrix is a dense GF(256) matrix in row-major order.
type matrix struct {
	rows, cols int
	d          []byte
}

func newMatrix(rows, cols int) *matrix {
	return &matrix{rows: rows, cols: cols, d: make([]byte, rows*cols)}
}

func (m *matrix) at(r, c int) byte     { return m.d[r*m.cols+c] }
func (m *matrix) set(r, c int, v byte) { m.d[r*m.cols+c] = v }

func (m *matrix) row(r int) []byte { return m.d[r*m.cols : (r+1)*m.cols] }

// identity returns the n×n identity matrix.
func identity(n int) *matrix {
	m := newMatrix(n, n)
	for i := 0; i < n; i++ {
		m.set(i, i, 1)
	}
	return m
}

// mul returns m × o.
func (m *matrix) mul(o *matrix) *matrix {
	if m.cols != o.rows {
		panic("ec: matrix dimension mismatch")
	}
	r := newMatrix(m.rows, o.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.at(i, k)
			if a == 0 {
				continue
			}
			gfMulAddSlice(r.row(i), o.row(k), a)
		}
	}
	return r
}

// invert returns the inverse via Gauss–Jordan elimination, or false if
// the matrix is singular.
func (m *matrix) invert() (*matrix, bool) {
	if m.rows != m.cols {
		panic("ec: inverting non-square matrix")
	}
	n := m.rows
	a := &matrix{rows: n, cols: n, d: append([]byte(nil), m.d...)}
	inv := identity(n)
	for col := 0; col < n; col++ {
		// Find pivot.
		pivot := -1
		for r := col; r < n; r++ {
			if a.at(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, false
		}
		if pivot != col {
			swapRows(a, pivot, col)
			swapRows(inv, pivot, col)
		}
		// Scale pivot row to 1.
		p := a.at(col, col)
		if p != 1 {
			ip := gfInv(p)
			scaleRow(a.row(col), ip)
			scaleRow(inv.row(col), ip)
		}
		// Eliminate the column everywhere else.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.at(r, col)
			if f != 0 {
				gfMulAddSlice(a.row(r), a.row(col), f)
				gfMulAddSlice(inv.row(r), inv.row(col), f)
			}
		}
	}
	return inv, true
}

func swapRows(m *matrix, i, j int) {
	ri, rj := m.row(i), m.row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

func scaleRow(row []byte, c byte) {
	for i, v := range row {
		row[i] = gfMul(v, c)
	}
}
