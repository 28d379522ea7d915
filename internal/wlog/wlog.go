// Package wlog implements the paper's core contribution: the data/event
// logging mechanism that staging servers use to keep coupled workflow
// components crash-consistent under uncoordinated checkpoint/restart
// (Duan & Parashar, IPDPS 2020, §III).
//
// The staging area keeps one event queue per application component.
// Every logged put and get appends an event; workflow_check() appends a
// Checkpoint event carrying a fresh W_Chk_ID; workflow_restart() places
// a replay cursor at the component's last Checkpoint event. While a
// component replays:
//
//   - its Get requests are served the logged version of the data — the
//     version it read in the initial execution, even though healthy
//     producers have moved on (paper Fig. 5, case 1 of Fig. 2);
//   - its Put requests that match logged Put events are suppressed,
//     because the data is already staged (case 2 of Fig. 2).
//
// When the cursor reaches the end of the queue the component has caught
// up and leaves replay mode. Garbage collection deletes logged payload
// versions no component can re-read, keeping the latest version of every
// object for normal reads (§III-A2).
//
// The Log is a pure state machine with no I/O: the live staging servers
// (internal/staging) and the virtual-time experiment harness
// (internal/expt) both drive the same implementation, so the simulated
// Cori runs exercise exactly the protocol the real servers execute.
package wlog

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"gospaces/internal/domain"
)

// Kind classifies a logged event.
type Kind int

// Event kinds.
const (
	KindPut Kind = iota + 1
	KindGet
	KindCheckpoint
)

func (k Kind) String() string {
	switch k {
	case KindPut:
		return "put"
	case KindGet:
		return "get"
	case KindCheckpoint:
		return "checkpoint"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one entry in a component's event queue.
type Event struct {
	App     string
	Seq     int64 // per-app sequence number
	Kind    Kind
	Name    string      // object name (put/get)
	Version int64       // put: written version; get: resolved version
	BBox    domain.BBox // put/get region
	Bytes   int64       // payload size, for accounting
	ChkID   string      // W_Chk_ID, checkpoint events only
	Req     uint64      // get: its request's number (RetriedGet), 0 for none
}

// metaBytes estimates the in-memory footprint of one event record, used
// for the Figure 9(c)/(d) staging-memory accounting.
func (e *Event) metaBytes() int64 {
	return 112 + int64(len(e.App)+len(e.Name)+len(e.ChkID))
}

// ErrReplayDivergence is returned when a recovering component issues a
// request that does not match the next logged event: the component did
// not re-execute deterministically.
var ErrReplayDivergence = errors.New("wlog: replayed request diverges from event log")

// NoVersion marks a get request for "latest available version".
const NoVersion int64 = -1

type appQueue struct {
	events    []*Event
	nextSeq   int64
	nextChk   int64
	replaying bool
	cursor    int // next event to replay, valid when replaying
	// anchor is the index of the last Checkpoint event, or -1: replay
	// restarts right after it.
	anchor int
}

// verCounts tracks the resident Get-event versions of one object name
// with a cached minimum, so PayloadFrontier is O(readers) instead of
// O(apps x events) per call. The minimum is recomputed (O(distinct
// versions)) only when the event holding it is trimmed.
type verCounts struct {
	counts map[int64]int
	min    int64 // valid when len(counts) > 0
}

func (vc *verCounts) add(v int64) {
	if len(vc.counts) == 0 || v < vc.min {
		vc.min = v
	}
	vc.counts[v]++
}

func (vc *verCounts) remove(v int64) {
	n := vc.counts[v] - 1
	if n > 0 {
		vc.counts[v] = n
		return
	}
	delete(vc.counts, v)
	if v != vc.min || len(vc.counts) == 0 {
		return
	}
	first := true
	for u := range vc.counts {
		if first || u < vc.min {
			vc.min = u
			first = false
		}
	}
}

// Log is the staging-side event log. It is safe for concurrent use.
type Log struct {
	mu        sync.Mutex
	apps      map[string]*appQueue
	metaBytes int64
	// PayloadFrontier indexes, maintained on append/trim.
	getEvents map[string]*verCounts       // name -> resident Get-event versions
	readers   map[string]map[string]int64 // name -> app -> newest version ever read
}

// New returns an empty log.
func New() *Log {
	return &Log{
		apps:      make(map[string]*appQueue),
		getEvents: make(map[string]*verCounts),
		readers:   make(map[string]map[string]int64),
	}
}

func (l *Log) queue(app string) *appQueue {
	q, ok := l.apps[app]
	if !ok {
		q = &appQueue{anchor: -1}
		l.apps[app] = q
	}
	return q
}

func (l *Log) append(q *appQueue, e *Event) {
	q.nextSeq++
	e.Seq = q.nextSeq
	q.events = append(q.events, e)
	l.metaBytes += e.metaBytes()
}

// Replaying reports whether app is currently in replay mode.
func (l *Log) Replaying(app string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	q, ok := l.apps[app]
	return ok && q.replaying
}

// ReplayCursor returns app's replay cursor, or -1 when app is not
// replaying. A put or get moved the cursor (or ended the replay) iff the
// value differs after it.
func (l *Log) ReplayCursor(app string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if q, ok := l.apps[app]; ok && q.replaying {
		return q.cursor
	}
	return -1
}

// exitReplay is called with the lock held when a component's requests
// run past the logged window.
func (q *appQueue) exitReplay() { q.replaying = false }

// BeginPut decides how to treat a put request from app. It returns
// suppress=true when the request is a re-issued write from a rollback
// re-execution whose payload is already staged; the caller must then
// skip the store write. On suppress the replay cursor advances, unless
// the request retries a piece the replay already consumed. When the
// request diverges from the log, ErrReplayDivergence is returned.
//
// When suppress is false the caller performs the store write and then
// calls CommitPut to append the event.
func (l *Log) BeginPut(app, name string, version int64, bbox domain.BBox) (suppress bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	q := l.queue(app)
	if !q.replaying {
		// Idempotent retry: a client that lost a response (or aborted a
		// multi-server put partway) re-issues the identical write, and
		// versions are write-once — logging it twice would make a later
		// replay, which re-executes the op once, diverge on the duplicate
		// record. The payload already landed with it, so the caller skips
		// the store write too.
		return q.retried(len(q.events), name, version, bbox), nil
	}
	if q.cursor >= len(q.events) {
		q.exitReplay()
		return false, nil
	}
	e := q.events[q.cursor]
	if e.Kind != KindPut || e.Name != name || e.Version != version || !e.BBox.Equal(bbox) {
		// The same retry during replay: the piece's first replay consumed
		// its event, so it sits behind the cursor and the cursor stays.
		if q.retried(q.cursor, name, version, bbox) {
			return true, nil
		}
		return false, fmt.Errorf("%w: put %s v%d %v, next logged event %s %s v%d %v",
			ErrReplayDivergence, name, version, bbox, e.Kind, e.Name, e.Version, e.BBox)
	}
	q.cursor++
	if q.cursor >= len(q.events) {
		q.exitReplay()
	}
	return true, nil
}

// retried reports whether the put events before index end log this
// piece already. A version's pieces arrive as a contiguous run (the
// client blocks on the put until every piece lands), so scanning back
// through the same-version tail finds the original record of any
// retried piece.
func (q *appQueue) retried(end int, name string, version int64, bbox domain.BBox) bool {
	for i := end - 1; i >= 0; i-- {
		e := q.events[i]
		if e.Kind != KindPut || e.Version != version {
			return false
		}
		if e.Name == name && e.BBox.Equal(bbox) {
			return true
		}
	}
	return false
}

// CommitPut records a completed (non-suppressed) put.
func (l *Log) CommitPut(app, name string, version int64, bbox domain.BBox, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.commitPutLocked(app, name, version, bbox, bytes)
}

func (l *Log) commitPutLocked(app, name string, version int64, bbox domain.BBox, bytes int64) {
	q := l.queue(app)
	l.append(q, &Event{App: app, Kind: KindPut, Name: name, Version: version, BBox: bbox, Bytes: bytes})
}

// BeginGet decides which version a get request must be served. For a
// replaying component it returns the version logged during the initial
// execution (fromLog=true) and advances the cursor; a retry of the get
// just behind the cursor resolves to its version again and leaves the
// cursor where it is, as BeginPut does for a retried piece. Otherwise it
// returns the requested version unchanged (NoVersion means the caller
// resolves "latest" itself) and the caller must call CommitGet after a
// successful read.
func (l *Log) BeginGet(app, name string, version int64, bbox domain.BBox) (resolved int64, fromLog bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	q := l.queue(app)
	if !q.replaying {
		return version, false, nil
	}
	if q.cursor >= len(q.events) {
		q.exitReplay()
		return version, false, nil
	}
	e := q.events[q.cursor]
	if !repeats(e, name, version, bbox) && q.cursor > 0 && repeats(q.events[q.cursor-1], name, version, bbox) {
		// A retry of the get the replay served last (its answer was
		// lost): its event sits just behind the cursor, which stays.
		return q.events[q.cursor-1].Version, true, nil
	}
	if e.Kind != KindGet || e.Name != name || !e.BBox.Equal(bbox) {
		return 0, false, fmt.Errorf("%w: get %s %v, next logged event %s %s v%d %v",
			ErrReplayDivergence, name, bbox, e.Kind, e.Name, e.Version, e.BBox)
	}
	if version != NoVersion && version != e.Version {
		return 0, false, fmt.Errorf("%w: get %s asks v%d, log replays v%d",
			ErrReplayDivergence, name, version, e.Version)
	}
	q.cursor++
	if q.cursor >= len(q.events) {
		q.exitReplay()
	}
	return e.Version, true, nil
}

// repeats reports whether a get of name over bbox asking for version
// repeats the logged event e: a get of the same name and bbox, and of
// e's version unless the request asks for NoVersion.
func repeats(e *Event, name string, version int64, bbox domain.BBox) bool {
	return e.Kind == KindGet && e.Name == name && e.BBox.Equal(bbox) && (version == NoVersion || version == e.Version)
}

// RetriedGet reports whether get request number req of app (asking for
// version of name over bbox) logged app's last event: a first-execution
// get re-sent because its answer was lost. It returns the version that
// attempt logged; the retry is served it and logs nothing, as BeginPut's
// same-version tail finds a retried piece. Number 0 repeats nothing.
func (l *Log) RetriedGet(app string, req uint64, name string, version int64, bbox domain.BBox) (int64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if q, ok := l.apps[app]; ok && req != 0 && len(q.events) > 0 {
		if e := q.events[len(q.events)-1]; e.Req == req && repeats(e, name, version, bbox) {
			return e.Version, true
		}
	}
	return 0, false
}

// CommitGet records a completed first-execution get with its resolved
// version. A server logs a get through Apply instead, with the record
// it ships, which numbers the request (Record.Req).
func (l *Log) CommitGet(app, name string, resolved int64, bbox domain.BBox, bytes int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.commitGetLocked(app, name, resolved, bbox, bytes, 0)
}

func (l *Log) commitGetLocked(app, name string, resolved int64, bbox domain.BBox, bytes int64, req uint64) {
	q := l.queue(app)
	l.append(q, &Event{App: app, Kind: KindGet, Name: name, Version: resolved, BBox: bbox, Bytes: bytes, Req: req})
	l.indexGetEvent(name, resolved)
	l.indexReader(app, name, resolved)
}

// indexGetEvent counts one resident Get event in the frontier index.
func (l *Log) indexGetEvent(name string, version int64) {
	vc, ok := l.getEvents[name]
	if !ok {
		vc = &verCounts{counts: make(map[int64]int)}
		l.getEvents[name] = vc
	}
	vc.add(version)
}

// indexReader records that app has read version of name.
func (l *Log) indexReader(app, name string, resolved int64) {
	r, ok := l.readers[name]
	if !ok {
		r = make(map[string]int64)
		l.readers[name] = r
	}
	if v, ok := r[app]; !ok || resolved > v {
		r[app] = resolved
	}
}

// unindexGet updates the frontier indexes for one trimmed Get event.
func (l *Log) unindexGet(name string, version int64) {
	vc, ok := l.getEvents[name]
	if !ok {
		return
	}
	vc.remove(version)
	if len(vc.counts) == 0 {
		delete(l.getEvents, name)
	}
}

// OnCheckpoint records a checkpoint event for app and returns its fresh
// W_Chk_ID. Events preceding the new checkpoint are trimmed from the
// queue — the component can never roll back past it — and returned so
// the server can release log bookkeeping ("at the end of checkpoint
// cycle, data staging will clean the event queue", §III-A1).
func (l *Log) OnCheckpoint(app string) (chkID string, trimmed []*Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.onCheckpointLocked(app)
}

func (l *Log) onCheckpointLocked(app string) (chkID string, trimmed []*Event) {
	q := l.queue(app)
	if q.replaying {
		// A checkpoint ends any replay: the component state is now
		// ahead of the window.
		q.exitReplay()
	}
	q.nextChk++
	chkID = fmt.Sprintf("%s#chk%d", app, q.nextChk)
	ev := &Event{App: app, Kind: KindCheckpoint, ChkID: chkID}
	l.append(q, ev)
	// Trim everything before the checkpoint event.
	cut := len(q.events) - 1
	trimmed = q.events[:cut]
	for _, e := range trimmed {
		l.metaBytes -= e.metaBytes()
		if e.Kind == KindGet {
			l.unindexGet(e.Name, e.Version)
		}
	}
	q.events = append([]*Event(nil), q.events[cut:]...)
	q.anchor = 0
	return chkID, trimmed
}

// OnRecovery switches app into replay mode, restarting from its last
// checkpoint event (or from the very beginning if it never
// checkpointed). It returns the replay script: the logged events the
// component will re-issue, in order.
func (l *Log) OnRecovery(app string) []*Event {
	return l.OnRecoveryFrom(app, 0)
}

// OnRecoveryFrom is OnRecovery for a component whose durable checkpoint
// covers every event with Version <= covered (0 means no coverage
// information; versions start at 1). Those events are dropped from the
// replay window before the script is generated.
//
// This heals a torn workflow_check: the checkpoint mark is issued per
// server, so a server fail-stop mid-check leaves some servers without
// the mark while the component's own checkpoint is already durable. On
// restart the component will not re-issue requests its checkpoint
// folded in, so an un-marked server must not expect them — dropping
// the covered prefix puts the anchor exactly where the lost mark would
// have put it.
func (l *Log) OnRecoveryFrom(app string, covered int64) []*Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.onRecoveryFromLocked(app, covered)
}

func (l *Log) onRecoveryFromLocked(app string, covered int64) []*Event {
	q := l.queue(app)
	start := q.anchor + 1 // anchor is -1 when no checkpoint event exists
	if start > len(q.events) {
		start = len(q.events)
	}
	if covered > 0 {
		// Drop the leading events the component's checkpoint covers, as
		// the missing checkpoint mark would have. Only put/get events
		// can follow the anchor (the anchor is the last checkpoint
		// event), and the component issues them in version order.
		cut := start
		for cut < len(q.events) && q.events[cut].Kind != KindCheckpoint && q.events[cut].Version <= covered {
			e := q.events[cut]
			l.metaBytes -= e.metaBytes()
			if e.Kind == KindGet {
				l.unindexGet(e.Name, e.Version)
			}
			cut++
		}
		if cut > start {
			q.events = append(q.events[:start:start], q.events[cut:]...)
		}
	}
	q.cursor = start
	q.replaying = q.cursor < len(q.events)
	script := make([]*Event, len(q.events)-start)
	copy(script, q.events[start:])
	return script
}

// PayloadFrontier returns the smallest version of name that must remain
// staged for crash consistency: the minimum over all reader components
// of (a) versions they may replay-read (resident Get events) and (b)
// the version after the newest they have ever read (first reads still
// to come). Objects never read by anyone return MaxInt64 — only the
// latest version needs keeping. Callers combine this with a
// keep-latest policy (store.DropBelow).
func (l *Log) PayloadFrontier(name string) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	frontier := int64(math.MaxInt64)
	if vc, ok := l.getEvents[name]; ok && len(vc.counts) > 0 && vc.min < frontier {
		frontier = vc.min
	}
	for _, last := range l.readers[name] {
		if last+1 < frontier {
			frontier = last + 1
		}
	}
	return frontier
}

// MetaBytes returns the estimated memory footprint of resident event
// records, the metadata part of the logging storage overhead.
func (l *Log) MetaBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.metaBytes
}
