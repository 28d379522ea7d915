// Durable trace files: a versioned, CRC-framed container that turns
// the in-memory trace into a first-class recorded artifact. The file
// is a magic string followed by ckpt.SealRecord frames (the same
// Castagnoli-CRC framing the checkpoint and cold-tier records use, so
// one fuzz corpus covers all three), each holding one internal/codec
// message: frame 0 the Header, frames 1..N one Event each. Frames are
// sequence-numbered so reordering is detected, CRC'd so bit rot is
// detected, and self-delimiting and counted by the header so
// truncation is detected, at a frame boundary too. Every failure mode
// maps to a typed error — a torn or rotted trace never panics and
// never replays silently wrong.
package trace

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"gospaces/internal/ckpt"
	"gospaces/internal/codec"
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

// fileMagic opens every trace file; one opening with magicStem but not
// fileMagic (GTRACE1, the retired hand-laid format) is another version.
const (
	fileMagic = "GTRACE2\n"
	magicStem = "GTRACE"
)

// FormatVersion is the current trace file format version.
const FormatVersion = 2

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
	// Events is the number of event frames that follow (len(events)
	// when written), so a file cut at a frame boundary is torn.
	Events int
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

// Ids 1536–1791 are trace's (DESIGN.md §7 has the whole table): a
// trace file's two bodies are codec messages, sealed in ckpt frames.
func init() {
	codec.Register(1536, Header{})
	codec.Register(1537, Event{})
}

// maxFramePayload bounds a single frame; real headers and events are
// well under a kilobyte, so a frame claiming more is corrupt, not torn.
const maxFramePayload = 1 << 20

// Encode serializes a complete trace file image: magic, header frame,
// then one frame per event in LC order.
func Encode(h Header, events []Event) []byte {
	h.Version, h.Events = FormatVersion, len(events)
	buf := append(make([]byte, 0, 128+48*len(events)), fileMagic...)
	buf = seal(buf, 0, h)
	for i, e := range events {
		buf = seal(buf, uint64(i+1), e)
	}
	return buf
}

// seal appends msg's codec encoding as frame seq. Header and Event are
// registered, so the encode cannot fail.
func seal(buf []byte, seq uint64, msg any) []byte {
	body, _ := codec.Append(nil, msg)
	return append(buf, ckpt.SealRecord(seq, body)...)
}

// nextFrame splits one sealed frame off data, verifying framing and
// CRC and that its sequence number equals want.
func nextFrame(data []byte, want uint64) (payload, rest []byte, err error) {
	n, ok := ckpt.RecordLen(data)
	if !ok {
		return nil, nil, fmt.Errorf("%w: %d bytes left where record %d starts", ErrTorn, len(data), want)
	}
	if n > maxFramePayload {
		return nil, nil, fmt.Errorf("%w: record %d claims %d bytes", ErrCorrupt, want, n)
	}
	if uint64(len(data)) < n {
		return nil, nil, fmt.Errorf("%w: record %d needs %d bytes, %d left", ErrTorn, want, n, len(data))
	}
	seq, payload, ok := ckpt.OpenRecord(data[:n])
	if !ok {
		return nil, nil, fmt.Errorf("%w: record %d failed CRC", ErrCorrupt, want)
	}
	if seq != want {
		return nil, nil, fmt.Errorf("%w: record %d carries sequence %d", ErrOrder, want, seq)
	}
	return payload, data[n:], nil
}

// body decodes frame seq's payload as a T. A payload that is not the
// encoding Encode writes for what it decodes to (a padded varint, a
// bool byte of 2) is corrupt too, so an accepted trace re-encodes to
// its own bytes.
func body[T any](payload []byte, seq uint64) (T, error) {
	v, err := codec.Unmarshal(payload)
	t, ok := v.(T)
	if err == nil && !ok {
		err = fmt.Errorf("holds a %T", v)
	}
	if err != nil {
		return t, fmt.Errorf("%w: record %d: %v", ErrCorrupt, seq, err)
	}
	if again, _ := codec.Append(nil, t); !bytes.Equal(again, payload) {
		return t, fmt.Errorf("%w: record %d is not in canonical form", ErrCorrupt, seq)
	}
	return t, nil
}

// Decode parses a trace file image back into its header and events,
// verifying magic, version, per-record CRC, sequence order, the event
// count, and the events' logical-clock order.
func Decode(data []byte) (Header, []Event, error) {
	var h Header
	if !bytes.HasPrefix(data, []byte(fileMagic)) {
		switch {
		case bytes.HasPrefix([]byte(fileMagic), data):
			return h, nil, fmt.Errorf("%w: %d-byte fragment", ErrTorn, len(data))
		case bytes.HasPrefix(data, []byte(magicStem)):
			return h, nil, fmt.Errorf("%w: magic is not %q", ErrVersion, fileMagic)
		}
		return h, nil, ErrBadMagic
	}
	data = data[len(fileMagic):]
	payload, data, err := nextFrame(data, 0)
	if err != nil {
		return h, nil, err
	}
	if h, err = body[Header](payload, 0); err != nil {
		return h, nil, err
	}
	if h.Version != FormatVersion {
		return h, nil, fmt.Errorf("%w: got %d, want %d", ErrVersion, h.Version, FormatVersion)
	}
	if h.Events < 0 {
		return h, nil, fmt.Errorf("%w: header claims %d events", ErrCorrupt, h.Events)
	}
	var events []Event
	for seq := uint64(1); seq <= uint64(h.Events); seq++ {
		if payload, data, err = nextFrame(data, seq); err != nil {
			return h, events, err
		}
		e, err := body[Event](payload, seq)
		if err != nil {
			return h, events, err
		}
		if e.LC != seq-1 {
			return h, events, fmt.Errorf("%w: record %d carries lc=%d", ErrOrder, seq, e.LC)
		}
		events = append(events, e)
	}
	if len(data) != 0 {
		return h, events, fmt.Errorf("%w: %d bytes after the last of %d events", ErrCorrupt, len(data), h.Events)
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
