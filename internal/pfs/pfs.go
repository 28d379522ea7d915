// Package pfs models the parallel file system checkpoints are written
// to. It has two faces:
//
//   - Store: a real (in-memory, thread-safe) checkpoint store used by
//     the functional workflow runtime and the examples, standing in for
//     Lustre plus the node-local NVRAM/burst-buffer options of §III-C.
//   - SimPFS: a virtual-time cost model over internal/sim, used by the
//     experiment harness. All writers share the aggregate PFS
//     bandwidth, which is what makes global coordinated checkpoints
//     increasingly expensive at scale (Figure 10).
package pfs

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gospaces/internal/sim"
)

// ErrNoSpace is returned by Write when an ENOSPC fault is armed. Nothing
// is stored on a failed write.
var ErrNoSpace = errors.New("pfs: no space left on device")

// Store is an in-memory object store for checkpoints and the cold
// tier. The paper assumes the checkpoint storage is fault-free; the
// fault knobs below relax that for tests so internal/ckpt and
// internal/tier can prove their torn- and corrupt-record fallback.
type Store struct {
	mu       sync.RWMutex
	objects  map[string][]byte
	bytes    int64
	writes   int64
	reads    atomic.Int64 // Read counts under the read lock
	fault    WriteFault
	faultOff int
	slow     time.Duration
}

// WriteFault selects how the next Write is damaged in flight.
type WriteFault int

// Write-fault modes.
const (
	// FaultNone leaves writes intact (the default).
	FaultNone WriteFault = iota
	// FaultTruncate stores only the first half of the payload: a torn
	// write, as when the writer dies mid-checkpoint.
	FaultTruncate
	// FaultBitFlip stores the payload with one bit inverted: silent
	// media corruption.
	FaultBitFlip
	// FaultPartial stores only a prefix of the payload, cut at the
	// armed byte offset: a partial write torn at an arbitrary point
	// rather than the fixed halfway cut of FaultTruncate.
	FaultPartial
	// FaultENOSPC fails the write outright with ErrNoSpace; nothing is
	// stored and any previous object under the name survives.
	FaultENOSPC
)

// NewStore returns an empty checkpoint store.
func NewStore() *Store {
	return &Store{objects: make(map[string][]byte)}
}

// FailNextWrite arms a one-shot write fault: the next Write stores a
// damaged copy of its payload (and disarms the knob). Test-only
// instrumentation for checkpoint-integrity fallback paths.
func (s *Store) FailNextWrite(f WriteFault) {
	s.FailNextWriteAt(f, -1)
}

// FailNextWriteAt arms a one-shot write fault at a specific byte
// offset. For FaultPartial the stored payload is cut to data[:offset];
// for FaultBitFlip the bit is flipped at that offset. A negative
// offset selects the legacy halfway point. Offsets are clamped to the
// payload length.
func (s *Store) FailNextWriteAt(f WriteFault, offset int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fault = f
	s.faultOff = offset
}

// SetSlowIO makes every subsequent Write and Read sleep d first,
// modeling a degraded storage target. Zero disables the delay.
func (s *Store) SetSlowIO(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.slow = d
}

// damage applies the armed fault to cp in place, returning the
// (possibly shortened) payload. Caller holds s.mu.
func (s *Store) damage(cp []byte) []byte {
	off := s.faultOff
	if off < 0 || off >= len(cp) {
		off = len(cp) / 2
	}
	switch s.fault {
	case FaultTruncate:
		cp = cp[:len(cp)/2]
	case FaultPartial:
		cp = cp[:off]
	case FaultBitFlip:
		if len(cp) > 0 {
			cp[off] ^= 0x40
		}
	}
	s.fault = FaultNone
	s.faultOff = 0
	return cp
}

// Write stores data under name, replacing any previous object. It
// fails with ErrNoSpace when an ENOSPC fault is armed; on failure
// nothing is stored.
func (s *Store) Write(name string, data []byte) error {
	cp := append([]byte(nil), data...)
	s.mu.Lock()
	if s.slow > 0 {
		d := s.slow
		s.mu.Unlock()
		time.Sleep(d)
		s.mu.Lock()
	}
	defer s.mu.Unlock()
	if s.fault == FaultENOSPC {
		s.fault = FaultNone
		s.faultOff = 0
		return ErrNoSpace
	}
	if s.fault != FaultNone {
		cp = s.damage(cp)
	}
	var old int64
	if prev, ok := s.objects[name]; ok {
		old = int64(len(prev))
	}
	s.bytes += int64(len(cp)) - old
	s.objects[name] = cp
	s.writes++
	return nil
}

// Read returns the object stored under name.
func (s *Store) Read(name string) ([]byte, bool) {
	s.mu.RLock()
	if s.slow > 0 {
		d := s.slow
		s.mu.RUnlock()
		time.Sleep(d)
		s.mu.RLock()
	}
	defer s.mu.RUnlock()
	d, ok := s.objects[name]
	if !ok {
		return nil, false
	}
	s.reads.Add(1)
	return append([]byte(nil), d...), true
}

// Rename atomically moves the object at old to new, replacing any
// object already there. It is the primitive the tier's write-temp +
// rename manifest protocol builds on.
func (s *Store) Rename(old, new string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.objects[old]
	if !ok {
		return fmt.Errorf("pfs: rename %q: no such object", old)
	}
	if prev, ok := s.objects[new]; ok {
		s.bytes -= int64(len(prev))
	}
	delete(s.objects, old)
	s.objects[new] = d
	return nil
}

// List returns the sorted names of all objects whose name starts with
// prefix.
func (s *Store) List(prefix string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for n := range s.objects {
		if strings.HasPrefix(n, prefix) {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// Corrupt flips one bit of the object stored under name at the given
// byte offset (clamped), modeling at-rest media decay ("bit rot") for
// scrub tests. It reports whether an object was damaged.
func (s *Store) Corrupt(name string, offset int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.objects[name]
	if !ok || len(d) == 0 {
		return false
	}
	if offset < 0 || offset >= len(d) {
		offset = len(d) / 2
	}
	d[offset] ^= 0x40
	return true
}

// Delete removes the object stored under name.
func (s *Store) Delete(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.objects[name]; ok {
		s.bytes -= int64(len(old))
		delete(s.objects, name)
	}
}

// Bytes returns resident checkpoint bytes.
func (s *Store) Bytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// Stats returns (writes, reads) served.
func (s *Store) Stats() (int64, int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.writes, s.reads.Load()
}

// SimPFS is the virtual-time parallel file system: a shared bandwidth
// pipe with per-operation latency.
type SimPFS struct {
	bw *sim.Bandwidth
}

// NewSimPFS creates a PFS model with the given aggregate bandwidth
// (bytes/second) and per-operation latency.
func NewSimPFS(env *sim.Env, bytesPerSec float64, latency time.Duration) *SimPFS {
	return &SimPFS{bw: sim.NewBandwidth(env, bytesPerSec, latency)}
}

// WriteCheckpoint charges p the time to write bytes to the PFS.
func (f *SimPFS) WriteCheckpoint(p *sim.Proc, bytes int64) error {
	if bytes < 0 {
		return fmt.Errorf("pfs: negative write size %d", bytes)
	}
	return f.bw.Transfer(p, bytes)
}

// ReadCheckpoint charges p the time to read bytes from the PFS.
func (f *SimPFS) ReadCheckpoint(p *sim.Proc, bytes int64) error {
	if bytes < 0 {
		return fmt.Errorf("pfs: negative read size %d", bytes)
	}
	return f.bw.Transfer(p, bytes)
}
