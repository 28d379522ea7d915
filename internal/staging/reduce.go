package staging

import (
	"encoding/binary"
	"fmt"
	"math"

	"gospaces/internal/domain"
)

// This file implements in-transit reductions: servers compute
// region-local aggregates over staged data so analysis code can query
// min/max/sum/count without moving the field off the staging area —
// the in-situ/in-transit processing pattern (Bennett et al., SC'12)
// that staging frameworks exist to serve.

// ReduceOp selects the aggregate computed server-side.
type ReduceOp int

// Supported reductions. Values are interpreted per-cell: uint64 cells
// for 8-byte elements, uint32/16/8 for narrower ones, reduced in
// float64 space.
const (
	ReduceMin ReduceOp = iota + 1
	ReduceMax
	ReduceSum
	ReduceCount
)

func (op ReduceOp) String() string {
	switch op {
	case ReduceMin:
		return "min"
	case ReduceMax:
		return "max"
	case ReduceSum:
		return "sum"
	case ReduceCount:
		return "count"
	default:
		return fmt.Sprintf("op(%d)", int(op))
	}
}

// ReduceReq computes an aggregate over the server-local pieces of
// (Name, Version) intersecting BBox.
type ReduceReq struct {
	Name    string
	Version int64
	BBox    domain.BBox
	Op      ReduceOp
}

// ReduceResp carries one server's partial aggregate.
type ReduceResp struct {
	// Value is the partial result (for count: number of cells).
	Value float64
	// Cells is the number of cells reduced on this server.
	Cells int64
}

func (s *Server) handleReduce(r ReduceReq) (any, error) {
	version := r.Version
	if version == NoVersion {
		v, ok := s.store.LatestVersion(r.Name, -1)
		if !ok {
			return nil, fmt.Errorf("staging: reduce %q: no versions staged", r.Name)
		}
		version = v
	}
	objs := s.store.GetVersion(r.Name, version, r.BBox)
	resp := ReduceResp{}
	switch r.Op {
	case ReduceMin:
		resp.Value = math.Inf(1)
	case ReduceMax:
		resp.Value = math.Inf(-1)
	case ReduceSum, ReduceCount:
	default:
		return nil, fmt.Errorf("staging: unknown reduce op %d", r.Op)
	}
	for _, o := range objs {
		region, ok := o.BBox.Intersect(r.BBox)
		if !ok {
			continue
		}
		sub := domain.Extract(o.Data, o.BBox, region, o.ElemSize)
		n := int(region.Volume())
		for i := 0; i < n; i++ {
			v := cellValue(sub[i*o.ElemSize:(i+1)*o.ElemSize], o.ElemSize)
			switch r.Op {
			case ReduceMin:
				if v < resp.Value {
					resp.Value = v
				}
			case ReduceMax:
				if v > resp.Value {
					resp.Value = v
				}
			case ReduceSum:
				resp.Value += v
			}
		}
		resp.Cells += int64(n)
	}
	if r.Op == ReduceCount {
		resp.Value = float64(resp.Cells)
	}
	return resp, nil
}

// cellValue decodes one little-endian cell as a float64-space value.
func cellValue(b []byte, elemSize int) float64 {
	switch elemSize {
	case 1:
		return float64(b[0])
	case 2:
		return float64(binary.LittleEndian.Uint16(b))
	case 4:
		return float64(binary.LittleEndian.Uint32(b))
	case 8:
		return float64(binary.LittleEndian.Uint64(b))
	default:
		var v uint64
		for i := 0; i < len(b) && i < 8; i++ {
			v |= uint64(b[i]) << (8 * i)
		}
		return float64(v)
	}
}

// Reduce computes an aggregate over (name, version, bbox) entirely in
// the staging area, combining per-server partials client-side. Version
// NoVersion reduces the latest version on each server (use explicit
// versions when producers are mid-write).
func (c *Client) Reduce(name string, version int64, bbox domain.BBox, op ReduceOp) (float64, int64, error) {
	var value float64
	switch op {
	case ReduceMin:
		value = math.Inf(1)
	case ReduceMax:
		value = math.Inf(-1)
	}
	var cells int64
	for _, s := range c.pool.index.ServersFor(bbox) {
		raw, err := c.conns[s].Call(ReduceReq{Name: name, Version: version, BBox: bbox, Op: op})
		if err != nil {
			return 0, 0, fmt.Errorf("staging: reduce on server %d: %w", s, err)
		}
		part := raw.(ReduceResp)
		if part.Cells == 0 {
			continue
		}
		switch op {
		case ReduceMin:
			if part.Value < value {
				value = part.Value
			}
		case ReduceMax:
			if part.Value > value {
				value = part.Value
			}
		case ReduceSum, ReduceCount:
			value += part.Value
		}
		cells += part.Cells
	}
	if cells == 0 {
		return 0, 0, fmt.Errorf("staging: reduce %q v%d %v: no data staged", name, version, bbox)
	}
	return value, cells, nil
}
