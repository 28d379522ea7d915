package ec

import (
	"errors"
	"fmt"
)

// ErrTooFewShards is returned when fewer than k shards survive.
var ErrTooFewShards = errors.New("ec: not enough shards to reconstruct")

// Coder is a systematic Reed–Solomon coder with k data shards and m
// parity shards. It is stateless after construction and safe for
// concurrent use.
type Coder struct {
	k, m int
	// enc is the (k+m)×k encoding matrix; the top k×k block is the
	// identity so the code is systematic.
	enc *matrix
}

// NewCoder builds a coder for k data and m parity shards.
// k+m must not exceed 255.
func NewCoder(k, m int) (*Coder, error) {
	if k < 1 || m < 0 || k+m > 255 {
		return nil, fmt.Errorf("ec: invalid geometry k=%d m=%d", k, m)
	}
	// Build an extended-Vandermonde-derived matrix whose every k×k
	// submatrix is invertible: start with a (k+m)×k Vandermonde matrix
	// and normalize its top k×k block to the identity.
	v := newMatrix(k+m, k)
	for r := 0; r < k+m; r++ {
		for c := 0; c < k; c++ {
			v.set(r, c, gfPow(byte(r+1), c))
		}
	}
	top := newMatrix(k, k)
	copy(top.d, v.d[:k*k])
	topInv, ok := top.invert()
	if !ok {
		return nil, errors.New("ec: vandermonde top block singular")
	}
	return &Coder{k: k, m: m, enc: v.mul(topInv)}, nil
}

// gfPow raises a to the p-th power.
func gfPow(a byte, p int) byte {
	r := byte(1)
	for i := 0; i < p; i++ {
		r = gfMul(r, a)
	}
	return r
}

// Split pads data to a multiple of k and cuts it into k equal data
// shards. The original length must be carried out of band (the staging
// object metadata stores it).
func (c *Coder) Split(data []byte) [][]byte {
	shardLen := (len(data) + c.k - 1) / c.k
	if shardLen == 0 {
		shardLen = 1
	}
	shards := make([][]byte, c.k)
	for i := range shards {
		shards[i] = make([]byte, shardLen)
		lo := i * shardLen
		if lo < len(data) {
			copy(shards[i], data[lo:])
		}
	}
	return shards
}

// Join reassembles the first size bytes from k data shards.
func (c *Coder) Join(shards [][]byte, size int) ([]byte, error) {
	if len(shards) < c.k {
		return nil, ErrTooFewShards
	}
	out := make([]byte, 0, size)
	for i := 0; i < c.k && len(out) < size; i++ {
		if shards[i] == nil {
			return nil, fmt.Errorf("ec: data shard %d missing in Join", i)
		}
		need := size - len(out)
		if need > len(shards[i]) {
			need = len(shards[i])
		}
		out = append(out, shards[i][:need]...)
	}
	if len(out) != size {
		return nil, fmt.Errorf("ec: shards too short for size %d", size)
	}
	return out, nil
}

// Encode computes the m parity shards for k equal-length data shards and
// returns all k+m shards (data first).
func (c *Coder) Encode(data [][]byte) ([][]byte, error) {
	if len(data) != c.k {
		return nil, fmt.Errorf("ec: Encode wants %d data shards, got %d", c.k, len(data))
	}
	shardLen := len(data[0])
	for i, s := range data {
		if len(s) != shardLen {
			return nil, fmt.Errorf("ec: shard %d length %d != %d", i, len(s), shardLen)
		}
	}
	all := make([][]byte, c.k+c.m)
	copy(all, data)
	for r := 0; r < c.m; r++ {
		all[c.k+r] = make([]byte, shardLen)
	}
	// Parity bytes depend only on the matching offset of the data
	// shards, so the shard length is coded in parallel chunks.
	runChunked(shardLen, func(lo, hi int) {
		for r := 0; r < c.m; r++ {
			p := all[c.k+r][lo:hi]
			row := c.enc.row(c.k + r)
			for ci := 0; ci < c.k; ci++ {
				gfMulAddSlice(p, data[ci][lo:hi], row[ci])
			}
		}
	})
	return all, nil
}

// Reconstruct fills in missing (nil) shards in place given any k
// surviving shards of the k+m total. Shards must all have equal length.
func (c *Coder) Reconstruct(shards [][]byte) error {
	if len(shards) != c.k+c.m {
		return fmt.Errorf("ec: Reconstruct wants %d shards, got %d", c.k+c.m, len(shards))
	}
	var have []int
	shardLen := 0
	for i, s := range shards {
		if s == nil {
			continue
		}
		if len(have) == 0 {
			shardLen = len(s)
		} else if len(s) != shardLen {
			return fmt.Errorf("ec: shard %d length %d != %d", i, len(s), shardLen)
		}
		have = append(have, i)
	}
	if len(have) < c.k {
		return ErrTooFewShards
	}
	have = have[:c.k]

	// Decode matrix: the k rows of the encoding matrix for the shards
	// we have, inverted, maps surviving shards back to data shards.
	sub := newMatrix(c.k, c.k)
	for r, idx := range have {
		copy(sub.row(r), c.enc.row(idx))
	}
	dec, ok := sub.invert()
	if !ok {
		return errors.New("ec: decode matrix singular")
	}

	// Rebuild missing data shards: chunk-parallel like Encode, phase 1.
	data := make([][]byte, c.k)
	var missData []int
	for d := 0; d < c.k; d++ {
		if shards[d] != nil {
			data[d] = shards[d]
			continue
		}
		out := make([]byte, shardLen)
		shards[d] = out
		data[d] = out
		missData = append(missData, d)
	}
	if len(missData) > 0 {
		runChunked(shardLen, func(lo, hi int) {
			for _, d := range missData {
				out := data[d][lo:hi]
				for j, idx := range have {
					gfMulAddSlice(out, shards[idx][lo:hi], dec.at(d, j))
				}
			}
		})
	}
	// Phase 2: rebuild missing parity from the (now complete) data.
	var missParity []int
	for pi := 0; pi < c.m; pi++ {
		if shards[c.k+pi] != nil {
			continue
		}
		shards[c.k+pi] = make([]byte, shardLen)
		missParity = append(missParity, pi)
	}
	if len(missParity) > 0 {
		runChunked(shardLen, func(lo, hi int) {
			for _, pi := range missParity {
				out := shards[c.k+pi][lo:hi]
				row := c.enc.row(c.k + pi)
				for ci := 0; ci < c.k; ci++ {
					gfMulAddSlice(out, data[ci][lo:hi], row[ci])
				}
			}
		})
	}
	return nil
}
