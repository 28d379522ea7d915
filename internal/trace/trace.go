// Package trace is a lightweight fixed-capacity event tracer for the
// staging servers: a lock-protected ring buffer of typed records that
// captures the protocol activity (puts, gets, checkpoints, recoveries,
// suppressions, GC passes) without unbounded growth, and the durable
// trace-file format (file.go, event.go) that records and replays a
// run: a header and one event per ckpt frame, each an internal/codec
// message, so the package lays out no bytes of its own. dsctl's trace
// command reads the ring back; internal/workflow turns rings into
// trace files and executes them.
package trace

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Op classifies a traced staging operation.
type Op int

// Traced operations.
const (
	OpPut Op = iota + 1
	OpGet
	OpSuppressedPut
	OpReplayGet
	OpCheckpoint
	OpRecovery
	OpGC
	OpLock
)

func (o Op) String() string {
	switch o {
	case OpPut:
		return "put"
	case OpGet:
		return "get"
	case OpSuppressedPut:
		return "put-suppressed"
	case OpReplayGet:
		return "get-replay"
	case OpCheckpoint:
		return "checkpoint"
	case OpRecovery:
		return "recovery"
	case OpGC:
		return "gc"
	case OpLock:
		return "lock"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Record is one traced event.
type Record struct {
	Seq     uint64
	At      time.Time
	Op      Op
	App     string
	Name    string
	Version int64
	Bytes   int64
	Detail  string
}

// String renders the record for terminals.
func (r Record) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "#%d %s %s", r.Seq, r.At.Format("15:04:05.000"), r.Op)
	if r.App != "" {
		fmt.Fprintf(&sb, " app=%s", r.App)
	}
	if r.Name != "" {
		fmt.Fprintf(&sb, " name=%s", r.Name)
	}
	if r.Version != 0 {
		fmt.Fprintf(&sb, " v=%d", r.Version)
	}
	if r.Bytes != 0 {
		fmt.Fprintf(&sb, " bytes=%d", r.Bytes)
	}
	if r.Detail != "" {
		fmt.Fprintf(&sb, " %s", r.Detail)
	}
	return sb.String()
}

// Buffer is a fixed-capacity ring of records. The zero Buffer is
// disabled (records are dropped); create with New.
type Buffer struct {
	mu   sync.Mutex
	ring []Record
	next uint64 // total records ever added
	cap  int
}

// New creates a tracer retaining the last capacity records.
func New(capacity int) *Buffer {
	if capacity < 1 {
		capacity = 1
	}
	return &Buffer{ring: make([]Record, 0, capacity), cap: capacity}
}

// Add appends a record, stamping sequence and time.
func (b *Buffer) Add(r Record) {
	if b == nil || b.cap == 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	r.Seq = b.next
	if r.At.IsZero() {
		r.At = time.Now()
	}
	b.next++
	if len(b.ring) < b.cap {
		b.ring = append(b.ring, r)
		return
	}
	// Index in uint64: int(r.Seq) goes negative once the total count
	// passes MaxInt64, and a negative index panics the server.
	b.ring[r.Seq%uint64(b.cap)] = r
}

// Len reports how many records are retained.
func (b *Buffer) Len() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.ring)
}

// Total reports how many records were ever added (including evicted).
func (b *Buffer) Total() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.next
}

// Snapshot returns the retained records in chronological order.
func (b *Buffer) Snapshot() []Record {
	rs, _ := b.Dump()
	return rs
}

// Dump returns the retained records in chronological order plus the
// total ever added, captured atomically under one lock acquisition —
// the read-under-wrap-safe snapshot API. Concurrent Adds never tear a
// dump: the copy and the wrap arithmetic both happen inside the same
// critical section, and the uint64 modulo never goes negative however
// large the total grows.
func (b *Buffer) Dump() ([]Record, uint64) {
	if b == nil {
		return nil, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.ring) == 0 {
		return nil, b.next
	}
	out := make([]Record, 0, len(b.ring))
	if len(b.ring) < b.cap {
		return append(out, b.ring...), b.next
	}
	start := int(b.next % uint64(b.cap))
	out = append(out, b.ring[start:]...)
	out = append(out, b.ring[:start]...)
	return out, b.next
}
