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
// The manager is a pure in-memory structure. The lock server (server 0
// of a staging group) runs one and serves the staging protocol's lock
// messages with Do; the replicas of its state and a spare promoted in
// its place run the same table, fed with the records Do reports (Apply)
// or a snapshot of them (Import).
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

// ErrWriteHeld is returned when a holder asks for a write lock it
// already holds.
var ErrWriteHeld = errors.New("locks: already holds write lock")

// ErrDeadlock is returned for an upgrade (a write acquire while holding
// the read lock) or a downgrade, either of which would wait forever.
var ErrDeadlock = errors.New("locks: would deadlock")

// ErrInvalid is returned for an operation with an empty name or holder,
// or an unknown kind.
var ErrInvalid = errors.New("locks: invalid operation")

// ErrReleased fails an acquire that was still queued when ReleaseAll
// released its holder: the incarnation that asked is gone
// (workflow_restart), and the lock must not go to its successor.
var ErrReleased = errors.New("locks: holder released while its acquire was queued")

// Fault is the kind of a failed operation: the outcome a Record carries
// and replicates in place of the failure's text. NoFault is success.
type Fault uint8

// The faults, each the kind of one sentinel error.
const (
	NoFault Fault = iota
	NotHeld
	WriteHeld
	Deadlock
	Invalid
	Closed
)

var faultErrs = [...]error{nil, ErrNotHeld, ErrWriteHeld, ErrDeadlock, ErrInvalid, ErrClosed}

// Error is a failed lock operation: its Fault, and the lock and holder
// it failed on. It is a wire type (internal/staging registers *Error), so
// errors.Is matches its Fault's sentinel on the origin, on a replica
// answering a retry from its dedup row, and behind a remote transport.
type Error struct {
	Fault  Fault
	Name   string
	Holder string
	Kind   Kind
}

func (e *Error) Error() string {
	return fmt.Sprintf("%v: %s lock on %q by %q", e.Unwrap(), e.Kind, e.Name, e.Holder)
}

func fail(f Fault, name, holder string, kind Kind) error {
	return &Error{Fault: f, Name: name, Holder: holder, Kind: kind}
}

// Unwrap returns the sentinel of e's Fault.
func (e *Error) Unwrap() error {
	if int(e.Fault) < len(faultErrs) && e.Fault != NoFault {
		return faultErrs[e.Fault]
	}
	return fmt.Errorf("locks: fault %d", e.Fault)
}

type lockState struct {
	readers map[string]int // holder -> recursion count
	writer  string         // holder of the exclusive lock, "" if none
	// writersWaiting blocks new readers so writers are not starved;
	// Waiting reports the two counts' sum.
	writersWaiting, readersWaiting int
}

// grant gives holder the lock; the caller has checked it is free.
func (st *lockState) grant(holder string, kind Kind) {
	if kind == Write {
		st.writer = holder
	} else {
		st.readers[holder]++
	}
}

// Record is one operation of the table as it completed: a numbered
// acquire or release of Name by Holder (Seq counts the holder's
// operations), or the release of everything Holder holds. Fault is its
// outcome. Do reports every record it completes, in the order of the
// transitions, and a table that applies them in that order (Apply)
// holds the same locks and dedup rows.
type Record struct {
	Name    string
	Holder  string
	Write   bool
	Release bool
	// ReleaseAll drops every lock and the dedup row of Holder (a
	// component recovery); Name/Write/Release are ignored.
	ReleaseAll bool
	Seq        uint64
	// Fault is NoFault when the operation succeeded and its transition
	// was applied, the kind of its failure otherwise.
	Fault Fault
}

// Kind is the kind of lock r acquires or releases.
func (r Record) Kind() Kind {
	if r.Write {
		return Write
	}
	return Read
}

// op is one numbered operation Do admitted: its record, and once done,
// its outcome and the position the emission callback returned for it.
type op struct {
	rec  Record
	err  error
	pos  int64
	done bool
}

// doneOp is the dedup row a reported record stands for.
func doneOp(r Record) *op {
	o := &op{rec: r, done: true}
	if r.Fault != NoFault {
		o.err = fail(r.Fault, r.Name, r.Holder, r.Kind())
	}
	return o
}

// Manager is a table of named reader/writer locks. Safe for concurrent
// use; acquisition blocks the calling goroutine.
type Manager struct {
	mu    sync.Mutex
	cond  *sync.Cond
	locks map[string]*lockState
	// Lock transitions are not idempotent, so a retried request (its
	// response was lost) must get the original outcome instead of running
	// again. last is each holder's latest completed numbered operation,
	// queued the one still waiting for its lock.
	last, queued map[string]*op
	// releases counts each holder's ReleaseAlls: an acquire queued across
	// one belongs to an incarnation that is gone.
	releases map[string]uint64
	emit     func(Record) int64
	closed   bool
}

// NewManager returns an empty lock table.
func NewManager() *Manager {
	m := &Manager{
		locks:    make(map[string]*lockState),
		last:     make(map[string]*op),
		queued:   make(map[string]*op),
		releases: make(map[string]uint64),
		emit:     func(Record) int64 { return 0 },
	}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// OnRecord installs Do's emission callback. It runs under the table's
// mutex, so the records it sees follow the order of the transitions,
// and so it must neither call the table nor wait for anything that
// does; what it returns (a stream position) Do returns with the
// outcome. Call before the table is used.
func (m *Manager) OnRecord(emit func(Record) int64) { m.emit = emit }

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
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.acquire(name, holder, kind)
}

// acquire is Acquire with m.mu held.
func (m *Manager) acquire(name, holder string, kind Kind) error {
	if name == "" || holder == "" {
		return fail(Invalid, name, holder, kind)
	}
	st := m.state(name)
	var busy func() bool
	waiting := &st.readersWaiting
	switch kind {
	case Write:
		if st.readers[holder] > 0 {
			return fail(Deadlock, name, holder, kind)
		}
		if st.writer == holder {
			return fail(WriteHeld, name, holder, kind)
		}
		busy = func() bool { return st.writer != "" || len(st.readers) > 0 }
		waiting = &st.writersWaiting
	case Read:
		if st.writer == holder {
			return fail(Deadlock, name, holder, kind)
		}
		if st.readers[holder] > 0 {
			st.readers[holder]++
			return nil
		}
		busy = func() bool { return st.writer != "" || st.writersWaiting > 0 }
	default:
		return fail(Invalid, name, holder, kind)
	}
	released := m.releases[holder]
	*waiting++
	for !m.closed && m.releases[holder] == released && busy() {
		m.cond.Wait()
	}
	*waiting--
	switch {
	case m.closed:
		m.cond.Broadcast()
		return fail(Closed, name, holder, kind)
	case m.releases[holder] != released:
		m.cond.Broadcast() // one writer fewer waiting may let readers in
		return ErrReleased
	}
	st.grant(holder, kind)
	return nil
}

// Release relinquishes holder's lock of the given kind on name.
func (m *Manager) Release(name, holder string, kind Kind) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.release(name, holder, kind)
}

// release is Release with m.mu held.
func (m *Manager) release(name, holder string, kind Kind) error {
	st, ok := m.locks[name]
	if !ok {
		return fail(NotHeld, name, holder, kind)
	}
	switch kind {
	case Write:
		if st.writer != holder {
			return fail(NotHeld, name, holder, kind)
		}
		st.writer = ""
	case Read:
		if st.readers[holder] == 0 {
			return fail(NotHeld, name, holder, kind)
		}
		st.readers[holder]--
		if st.readers[holder] == 0 {
			delete(st.readers, holder)
		}
	default:
		return fail(Invalid, name, holder, kind)
	}
	m.cond.Broadcast()
	return nil
}

// ReleaseAll drops every lock held by holder and its dedup row, and
// fails its queued acquires with ErrReleased (used when a component
// fails: its locks must not dam the workflow; paper §III-C recovers the
// staging client as part of workflow_restart).
func (m *Manager) ReleaseAll(holder string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.releaseAll(holder)
}

// releaseAll is ReleaseAll with m.mu held.
func (m *Manager) releaseAll(holder string) int {
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
	delete(m.last, holder)
	delete(m.queued, holder)
	m.releases[holder]++
	m.cond.Broadcast()
	return n
}

// Do runs r — one numbered acquire or release, or a ReleaseAll — and
// returns what the emission callback returned for it and its outcome.
// A retry of a holder's latest operation (same Seq, Name, Write and
// Release) runs nothing: it gets the original's outcome, waiting for it
// while the original is queued. An acquire ReleaseAll failed grants
// nothing, leaves no dedup row (it would shadow the restarted
// incarnation's first operation) and is not reported.
func (m *Manager) Do(r Record) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r.ReleaseAll {
		m.releaseAll(r.Holder)
		return m.emit(r), nil
	}
	for _, o := range []*op{m.queued[r.Holder], m.last[r.Holder]} {
		if o != nil && o.rec.Seq == r.Seq && o.rec.Name == r.Name && o.rec.Write == r.Write && o.rec.Release == r.Release {
			for !o.done {
				m.cond.Wait()
			}
			return o.pos, o.err
		}
	}
	o := &op{rec: r}
	m.queued[r.Holder] = o
	if r.Release {
		o.err = m.release(r.Name, r.Holder, r.Kind())
	} else {
		o.err = m.acquire(r.Name, r.Holder, r.Kind())
	}
	if m.queued[r.Holder] == o {
		delete(m.queued, r.Holder)
	}
	if !errors.Is(o.err, ErrReleased) {
		if e, ok := o.err.(*Error); ok {
			o.rec.Fault = e.Fault
		}
		m.last[r.Holder] = o
		o.pos = m.emit(o.rec)
	}
	o.done = true
	m.cond.Broadcast() // retries waiting for o
	return o.pos, o.err
}

// Apply folds one record Do reported into the table, as a replica does
// in stream order: the transition happened on the origin in this order,
// so it is applied as it stands, without waiting.
func (m *Manager) Apply(r Record) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if r.ReleaseAll {
		m.releaseAll(r.Holder)
		return
	}
	m.last[r.Holder] = doneOp(r)
	switch {
	case r.Fault != NoFault:
	case r.Release:
		_ = m.release(r.Name, r.Holder, r.Kind()) // it succeeded on the origin, in this order
	default:
		m.state(r.Name).grant(r.Holder, r.Kind())
	}
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
// if none) and its readers.
type HeldLock struct {
	Name    string
	Writer  string
	Readers []ReaderCount
}

// State is a table's exported state: the held locks and each holder's
// latest completed numbered operation (its dedup row), in deterministic
// order. Waiters are not exported: a restored table starts with none.
type State struct {
	Held  []HeldLock
	Dedup []Record
}

// Export returns the table's state. at, when not nil, runs under the
// table's mutex, where no operation completes or is reported: the lock
// server reads its stream position there, so the two agree.
func (m *Manager) Export(at func()) State {
	m.mu.Lock()
	defer m.mu.Unlock()
	if at != nil {
		at()
	}
	var st State
	for _, n := range sortedKeys(m.locks) {
		ls := m.locks[n]
		if ls.writer == "" && len(ls.readers) == 0 {
			continue
		}
		h := HeldLock{Name: n, Writer: ls.writer}
		for _, r := range sortedKeys(ls.readers) {
			h.Readers = append(h.Readers, ReaderCount{Holder: r, Count: ls.readers[r]})
		}
		st.Held = append(st.Held, h)
	}
	for _, h := range sortedKeys(m.last) {
		st.Dedup = append(st.Dedup, m.last[h].rec)
	}
	return st
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Import replaces the table's locks and dedup rows with st: a replica
// installing a snapshot, or a promoted spare taking the lock server's
// place. at, when not nil, runs under the table's mutex once st is in,
// before any operation can complete on it. Local waiters are woken to
// re-evaluate against the restored table.
func (m *Manager) Import(st State, at func()) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.locks = make(map[string]*lockState, len(st.Held))
	for _, h := range st.Held {
		ls := m.state(h.Name)
		ls.writer = h.Writer
		for _, r := range h.Readers {
			if r.Count > 0 {
				ls.readers[r.Holder] = r.Count
			}
		}
	}
	m.last = make(map[string]*op, len(st.Dedup))
	for _, r := range st.Dedup {
		m.last[r.Holder] = doneOp(r)
	}
	if at != nil {
		at()
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

// Waiting reports how many acquires are queued on name, for
// introspection.
func (m *Manager) Waiting(name string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.locks[name]
	if !ok {
		return 0
	}
	return st.writersWaiting + st.readersWaiting
}
