// Durable trace files: a versioned, CRC-framed container that turns
// the in-memory trace into a first-class recorded artifact. The file
// is a magic string followed by ckpt.SealRecord frames (the same
// Castagnoli-CRC framing the checkpoint and cold-tier records use, so
// one codec and one fuzz corpus cover all three): frame 0 carries the
// header, frames 1..N carry one event each, sequence-numbered so
// reordering is detected, CRC'd so bit rot is detected, and
// self-delimiting so truncation is detected. Every failure mode maps
// to a typed error — a torn or rotted trace never panics and never
// replays silently wrong.
package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"gospaces/internal/ckpt"
)

// Typed decode failures, distinguished so tests and tools can tell a
// wrong file from a damaged one.
var (
	// ErrBadMagic: the file is not a gospaces trace at all.
	ErrBadMagic = errors.New("trace: bad trace-file magic")
	// ErrVersion: a trace from an incompatible format version.
	ErrVersion = errors.New("trace: unsupported trace format version")
	// ErrTorn: the file ends mid-record (a torn or truncated write).
	ErrTorn = errors.New("trace: torn trace file")
	// ErrCorrupt: framing or CRC verification failed (bit rot), or a
	// record's payload does not decode.
	ErrCorrupt = errors.New("trace: corrupt trace record")
	// ErrOrder: records survived CRC but are not in sequence.
	ErrOrder = errors.New("trace: trace records out of order")
)

// DivergenceError reports a replay that stopped reproducing the
// recorded run: the event at logical clock LC produced a different
// outcome than the recording (wrong bytes on a get, a wlog replay
// divergence, an operation that cannot complete).
type DivergenceError struct {
	LC  uint64
	Ev  Event
	Err error
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("trace: replay diverged at lc=%d (%s): %v", e.LC, e.Ev, e.Err)
}

func (e *DivergenceError) Unwrap() error { return e.Err }

// fileMagic opens every trace file.
const fileMagic = "GTRACE1\n"

// FormatVersion is the current trace file format version.
const FormatVersion = 1

// Header flags.
const (
	// FlagFaults marks a trace whose schedule injects faults.
	FlagFaults uint32 = 1 << iota
	// FlagTier marks a trace recorded over tiered (spilling) servers.
	FlagTier
	// FlagOverload marks a trace recorded with admission control on and
	// a flood tenant in the schedule.
	FlagOverload
)

// Header describes the environment a trace was recorded in — enough
// for a replayer to rebuild an equivalent staging group from scratch.
type Header struct {
	// Version is the trace format version (FormatVersion when written).
	Version uint32
	// Label names the scenario for humans ("soak seed=7", a bug id).
	Label string
	// Seed is the schedule seed the trace was generated from.
	Seed int64
	// Servers, Spares: staging group size and warm-spare pool.
	Servers int
	Spares  int
	// Bits, ElemSize, Replicas: staging config (DHT refinement bits,
	// element size, wlog replication factor).
	Bits     int
	ElemSize int
	Replicas int
	// DimX/DimY/DimZ are the global domain extents; every traced
	// operation spans the full domain.
	DimX, DimY, DimZ int64
	// MemBudget is the per-server memory budget in bytes (0 = none);
	// with FlagTier it is what forces spills.
	MemBudget int64
	// Groups, Steps record the workload shape for provenance.
	Groups int
	Steps  int
	// Flags is the FlagFaults/FlagTier/FlagOverload bitmap.
	Flags uint32
	// Digest is the expected workload digest: the ordered fold of every
	// checked get's payload sum. Zero means not recorded. Replay
	// recomputes it and must match.
	Digest uint64
}

func encodeHeader(h Header) []byte {
	buf := make([]byte, 0, 96+len(h.Label))
	var v [4]byte
	binary.BigEndian.PutUint32(v[:], h.Version)
	buf = append(buf, v[:]...)
	binary.BigEndian.PutUint32(v[:], h.Flags)
	buf = append(buf, v[:]...)
	buf = appendString(buf, h.Label)
	buf = appendU64(buf, uint64(h.Seed))
	for _, n := range []int{h.Servers, h.Spares, h.Bits, h.ElemSize, h.Replicas, h.Groups, h.Steps} {
		buf = appendU64(buf, uint64(n))
	}
	buf = appendU64(buf, uint64(h.DimX))
	buf = appendU64(buf, uint64(h.DimY))
	buf = appendU64(buf, uint64(h.DimZ))
	buf = appendU64(buf, uint64(h.MemBudget))
	buf = appendU64(buf, h.Digest)
	return buf
}

func decodeHeader(buf []byte) (Header, error) {
	var h Header
	if len(buf) < 8 {
		return h, ErrCorrupt
	}
	h.Version = binary.BigEndian.Uint32(buf)
	h.Flags = binary.BigEndian.Uint32(buf[4:])
	buf = buf[8:]
	if h.Version != FormatVersion {
		return h, fmt.Errorf("%w: got %d, want %d", ErrVersion, h.Version, FormatVersion)
	}
	var err error
	if h.Label, buf, err = readString(buf); err != nil {
		return h, err
	}
	var u uint64
	if u, buf, err = readU64(buf); err != nil {
		return h, err
	}
	h.Seed = int64(u)
	ints := []*int{&h.Servers, &h.Spares, &h.Bits, &h.ElemSize, &h.Replicas, &h.Groups, &h.Steps}
	for _, p := range ints {
		if u, buf, err = readU64(buf); err != nil {
			return h, err
		}
		*p = int(int64(u))
	}
	dims := []*int64{&h.DimX, &h.DimY, &h.DimZ, &h.MemBudget}
	for _, p := range dims {
		if u, buf, err = readU64(buf); err != nil {
			return h, err
		}
		*p = int64(u)
	}
	if h.Digest, buf, err = readU64(buf); err != nil {
		return h, err
	}
	if len(buf) != 0 {
		return h, fmt.Errorf("%w: %d trailing bytes after header", ErrCorrupt, len(buf))
	}
	return h, nil
}

// maxFramePayload bounds a single frame; real headers and events are
// well under a kilobyte, so a larger claimed length is corruption, not
// an allocation request.
const maxFramePayload = 1 << 20

// Encode serializes a complete trace file image: magic, header frame,
// then one frame per event in LC order.
func Encode(h Header, events []Event) []byte {
	h.Version = FormatVersion
	buf := make([]byte, 0, 256+64*len(events))
	buf = append(buf, fileMagic...)
	buf = append(buf, ckpt.SealRecord(0, encodeHeader(h))...)
	for i, e := range events {
		buf = append(buf, ckpt.SealRecord(uint64(i+1), encodeEvent(e))...)
	}
	return buf
}

// frameHeaderLen is the fixed prefix of a ckpt.SealRecord frame:
// 4-byte magic, 8-byte sequence, 8-byte payload length, 4-byte CRC.
const frameHeaderLen = 24

// nextFrame splits one sealed frame off data, verifying framing and
// CRC and that its sequence number equals want.
func nextFrame(data []byte, want uint64) (payload, rest []byte, err error) {
	if len(data) < frameHeaderLen {
		return nil, nil, fmt.Errorf("%w: %d bytes left mid-frame", ErrTorn, len(data))
	}
	if string(data[:4]) != "CKP1" {
		return nil, nil, fmt.Errorf("%w: bad frame magic at record %d", ErrCorrupt, want)
	}
	plen := binary.BigEndian.Uint64(data[12:20])
	if plen > maxFramePayload {
		return nil, nil, fmt.Errorf("%w: record %d claims %d payload bytes", ErrCorrupt, want, plen)
	}
	total := frameHeaderLen + int(plen)
	if len(data) < total {
		return nil, nil, fmt.Errorf("%w: record %d needs %d bytes, %d left", ErrTorn, want, total, len(data))
	}
	seq, payload, ok := ckpt.OpenRecord(data[:total])
	if !ok {
		return nil, nil, fmt.Errorf("%w: record %d failed CRC", ErrCorrupt, want)
	}
	if seq != want {
		return nil, nil, fmt.Errorf("%w: record %d carries sequence %d", ErrOrder, want, seq)
	}
	return payload, data[total:], nil
}

// Decode parses a trace file image back into its header and events,
// verifying magic, version, per-record CRC, sequence order, and the
// events' logical-clock order.
func Decode(data []byte) (Header, []Event, error) {
	var h Header
	if len(data) < len(fileMagic) {
		if bytes.HasPrefix([]byte(fileMagic), data) {
			return h, nil, fmt.Errorf("%w: %d-byte fragment", ErrTorn, len(data))
		}
		return h, nil, ErrBadMagic
	}
	if string(data[:len(fileMagic)]) != fileMagic {
		return h, nil, ErrBadMagic
	}
	data = data[len(fileMagic):]
	payload, data, err := nextFrame(data, 0)
	if err != nil {
		return h, nil, err
	}
	if h, err = decodeHeader(payload); err != nil {
		return h, nil, err
	}
	var events []Event
	for seq := uint64(1); len(data) > 0; seq++ {
		if payload, data, err = nextFrame(data, seq); err != nil {
			return h, events, err
		}
		e, err := decodeEvent(payload)
		if err != nil {
			return h, events, err
		}
		if e.LC != seq-1 {
			return h, events, fmt.Errorf("%w: record %d carries lc=%d", ErrOrder, seq, e.LC)
		}
		events = append(events, e)
	}
	return h, events, nil
}

// WriteFile persists a trace atomically: the image is written to a
// temp file in the target directory and renamed into place, so a crash
// mid-write leaves no half-trace under the final name.
func WriteFile(path string, h Header, events []Event) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".trace-*")
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(Encode(h, events)); err != nil {
		tmp.Close()
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("trace: close %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("trace: commit %s: %w", path, err)
	}
	return nil
}

// ReadFile loads and verifies a trace file.
func ReadFile(path string) (Header, []Event, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Header{}, nil, fmt.Errorf("trace: %w", err)
	}
	return Decode(data)
}
