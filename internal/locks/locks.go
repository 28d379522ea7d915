// Package locks implements DataSpaces-style named reader/writer locks,
// the coordination primitive coupled applications use to sequence
// write-then-read cycles through the staging area
// (dspaces_lock_on_write / dspaces_lock_on_read in DataSpaces).
//
// Semantics follow DataSpaces': a write lock is exclusive; read locks
// are shared among readers; writers and readers alternate fairly —
// a waiting writer blocks new readers, so producers are not starved by
// a stream of consumers.
//
// The manager is a pure in-memory structure hosted by one staging
// server (server 0 of a group); clients reach it through the staging
// protocol's lock messages.
package locks

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Kind distinguishes read and write locks.
type Kind int

// Lock kinds.
const (
	Read Kind = iota + 1
	Write
)

func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ErrClosed is returned for operations on a closed manager.
var ErrClosed = errors.New("locks: manager closed")

// ErrNotHeld is returned when releasing a lock the caller does not hold.
var ErrNotHeld = errors.New("locks: lock not held")

type lockState struct {
	readers map[string]int // holder -> recursion count
	writer  string         // holder of the exclusive lock, "" if none
	// writersWaiting blocks new readers so writers are not starved.
	writersWaiting int
}

// Manager is a table of named reader/writer locks. Safe for concurrent
// use; acquisition blocks the calling goroutine.
type Manager struct {
	mu     sync.Mutex
	cond   *sync.Cond
	locks  map[string]*lockState
	closed bool
}

// NewManager returns an empty lock table.
func NewManager() *Manager {
	m := &Manager{locks: make(map[string]*lockState)}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *Manager) state(name string) *lockState {
	st, ok := m.locks[name]
	if !ok {
		st = &lockState{readers: make(map[string]int)}
		m.locks[name] = st
	}
	return st
}

// Acquire blocks until holder obtains the lock of the given kind on
// name. Read locks are recursive per holder; a holder must not request
// a write lock while holding the read lock (or vice versa) — that
// returns an error rather than deadlocking.
func (m *Manager) Acquire(name, holder string, kind Kind) error {
	if name == "" || holder == "" {
		return fmt.Errorf("locks: empty name or holder")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.state(name)
	switch kind {
	case Write:
		if st.readers[holder] > 0 {
			return fmt.Errorf("locks: %q upgrading read lock on %q would deadlock", holder, name)
		}
		if st.writer == holder {
			return fmt.Errorf("locks: %q already holds write lock on %q", holder, name)
		}
		st.writersWaiting++
		for !m.closed && (st.writer != "" || len(st.readers) > 0) {
			m.cond.Wait()
		}
		st.writersWaiting--
		if m.closed {
			m.cond.Broadcast()
			return ErrClosed
		}
		st.writer = holder
		return nil
	case Read:
		if st.writer == holder {
			return fmt.Errorf("locks: %q downgrading write lock on %q would deadlock", holder, name)
		}
		if st.readers[holder] > 0 {
			st.readers[holder]++
			return nil
		}
		for !m.closed && (st.writer != "" || st.writersWaiting > 0) {
			m.cond.Wait()
		}
		if m.closed {
			m.cond.Broadcast()
			return ErrClosed
		}
		st.readers[holder]++
		return nil
	default:
		return fmt.Errorf("locks: unknown kind %d", kind)
	}
}

// Release relinquishes holder's lock of the given kind on name.
func (m *Manager) Release(name, holder string, kind Kind) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.locks[name]
	if !ok {
		return fmt.Errorf("%w: %s lock on %q by %q", ErrNotHeld, kind, name, holder)
	}
	switch kind {
	case Write:
		if st.writer != holder {
			return fmt.Errorf("%w: write lock on %q by %q", ErrNotHeld, name, holder)
		}
		st.writer = ""
	case Read:
		if st.readers[holder] == 0 {
			return fmt.Errorf("%w: read lock on %q by %q", ErrNotHeld, name, holder)
		}
		st.readers[holder]--
		if st.readers[holder] == 0 {
			delete(st.readers, holder)
		}
	default:
		return fmt.Errorf("locks: unknown kind %d", kind)
	}
	m.cond.Broadcast()
	return nil
}

// ReleaseAll drops every lock held by holder (used when a component
// fails: its locks must not dam the workflow; paper §III-C recovers the
// staging client as part of workflow_restart).
func (m *Manager) ReleaseAll(holder string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, st := range m.locks {
		if st.writer == holder {
			st.writer = ""
			n++
		}
		if st.readers[holder] > 0 {
			delete(st.readers, holder)
			n++
		}
	}
	if n > 0 {
		m.cond.Broadcast()
	}
	return n
}

// Close fails all waiters and future acquisitions.
func (m *Manager) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.cond.Broadcast()
}

// ReaderCount is one holder's read-lock recursion count in an exported
// lock table.
type ReaderCount struct {
	Holder string
	Count  int
}

// HeldLock is the exported state of one named lock: its writer (""
// if none) and its readers. Used by the staging log-replication layer
// to carry the lock table to a promoted spare.
type HeldLock struct {
	Name    string
	Writer  string
	Readers []ReaderCount
}

// Export returns the lock table's held state in deterministic order
// (names and reader holders sorted). Waiter bookkeeping is not
// exported: a restored table starts with no waiters.
func (m *Manager) Export() []HeldLock {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.locks))
	for n, st := range m.locks {
		if st.writer != "" || len(st.readers) > 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	out := make([]HeldLock, 0, len(names))
	for _, n := range names {
		st := m.locks[n]
		h := HeldLock{Name: n, Writer: st.writer}
		holders := make([]string, 0, len(st.readers))
		for r := range st.readers {
			holders = append(holders, r)
		}
		sort.Strings(holders)
		for _, r := range holders {
			h.Readers = append(h.Readers, ReaderCount{Holder: r, Count: st.readers[r]})
		}
		out = append(out, h)
	}
	return out
}

// Import replaces the lock table with held. It is meant for a freshly
// promoted spare restoring a dead lock server's state; any local
// waiters are woken so they re-evaluate against the restored table.
func (m *Manager) Import(held []HeldLock) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.locks = make(map[string]*lockState, len(held))
	for _, h := range held {
		st := &lockState{readers: make(map[string]int), writer: h.Writer}
		for _, r := range h.Readers {
			if r.Count > 0 {
				st.readers[r.Holder] = r.Count
			}
		}
		m.locks[h.Name] = st
	}
	m.cond.Broadcast()
}

// Holders reports the current writer ("" if none) and reader count for
// name, for introspection.
func (m *Manager) Holders(name string) (writer string, readers int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.locks[name]
	if !ok {
		return "", 0
	}
	return st.writer, len(st.readers)
}
