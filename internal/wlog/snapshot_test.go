package wlog

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"gospaces/internal/codec"
	"gospaces/internal/domain"
)

var (
	fidBoxes = []domain.BBox{
		domain.Box3(0, 0, 0, 9, 9, 9),
		domain.Box3(10, 0, 0, 19, 9, 9),
		domain.Box3(0, 10, 0, 9, 19, 9),
	}
	fidNames = []string{"u", "v", "w"}
	fidApps  = []string{"sim", "ana"}
)

// fidDriver drives one or more logs through an identical randomized
// operation sequence — including recoveries, partially consumed replay
// scripts, deliberate divergences and checkpoints cutting replay short
// — asserting at every step that all logs produce identical outputs.
// When emit is set, every mutation of logs[0] is also published as a
// Record, mirroring what the staging replicator ships to peers.
type fidDriver struct {
	t        *testing.T
	rng      *rand.Rand
	logs     []*Log
	emit     func(Record)
	check    func()
	versions map[string]int64
	scripts  map[string][]*Event
}

func newFidDriver(t *testing.T, rng *rand.Rand, logs ...*Log) *fidDriver {
	return &fidDriver{
		t:        t,
		rng:      rng,
		logs:     logs,
		versions: map[string]int64{},
		scripts:  map[string][]*Event{},
	}
}

func (d *fidDriver) send(r Record) {
	if d.emit != nil {
		d.emit(r)
	}
}

func (d *fidDriver) run(nOps int) {
	t := d.t
	for i := 0; i < nOps; i++ {
		app := fidApps[d.rng.Intn(len(fidApps))]
		if d.logs[0].Replaying(app) && len(d.scripts[app]) > 0 {
			d.replayStep(i, app)
		} else {
			d.normalStep(i, app)
		}
		if d.check != nil {
			d.check()
		}
	}
	_ = t
}

// replayStep re-issues (or perturbs) the next scripted event for app.
func (d *fidDriver) replayStep(i int, app string) {
	t := d.t
	e := d.scripts[app][0]
	switch r := d.rng.Intn(10); {
	case r < 7: // follow the script
		if e.Kind == KindPut {
			for li, l := range d.logs {
				sup, err := l.BeginPut(app, e.Name, e.Version, e.BBox)
				if err != nil || !sup {
					t.Fatalf("op %d log %d: replay put suppress=%v err=%v", i, li, sup, err)
				}
			}
			d.send(Record{Op: OpAdvance, App: app})
		} else {
			for li, l := range d.logs {
				res, fromLog, err := l.BeginGet(app, e.Name, NoVersion, e.BBox)
				if err != nil || !fromLog || res != e.Version {
					t.Fatalf("op %d log %d: replay get v%d fromLog=%v err=%v want v%d",
						i, li, res, fromLog, err, e.Version)
				}
			}
			d.send(Record{Op: OpAdvance, App: app})
		}
		d.scripts[app] = d.scripts[app][1:]
	case r < 8: // deliberate divergence: no state change, no record
		var errs []string
		for _, l := range d.logs {
			_, err := l.BeginPut(app, "never-written", 99, fidBoxes[0])
			errs = append(errs, fmt.Sprint(err))
		}
		for li := 1; li < len(errs); li++ {
			if errs[li] != errs[0] {
				t.Fatalf("op %d: divergence errors differ: %q vs %q", i, errs[0], errs[li])
			}
		}
		if errs[0] == "<nil>" {
			t.Fatalf("op %d: divergent put not rejected", i)
		}
	default: // a checkpoint cuts the replay short
		d.checkpoint(i, app)
		d.scripts[app] = nil
	}
}

func (d *fidDriver) normalStep(i int, app string) {
	t := d.t
	name := fidNames[d.rng.Intn(len(fidNames))]
	box := fidBoxes[d.rng.Intn(len(fidBoxes))]
	switch d.rng.Intn(8) {
	case 0, 1, 2: // fresh put
		d.versions[name]++
		v := d.versions[name]
		for li, l := range d.logs {
			sup, err := l.BeginPut(app, name, v, box)
			if err != nil || sup {
				t.Fatalf("op %d log %d: fresh put suppress=%v err=%v", i, li, sup, err)
			}
			l.CommitPut(app, name, v, box, 100)
		}
		d.send(Record{Op: OpPut, App: app, Name: name, Version: v, BBox: box, Bytes: 100})
	case 3, 4: // get an existing version, numbered and logged as a server does
		if d.versions[name] == 0 {
			return
		}
		v := 1 + d.rng.Int63n(d.versions[name])
		rec := Record{Op: OpGet, App: app, Name: name, Version: v, BBox: box, Bytes: 100, Req: uint64(i + 1)}
		for li, l := range d.logs {
			res, fromLog, err := l.BeginGet(app, name, v, box)
			if err != nil || fromLog || res != v {
				t.Fatalf("op %d log %d: get v%d res=%d fromLog=%v err=%v", i, li, v, res, fromLog, err)
			}
			if err := l.Apply(rec); err != nil {
				t.Fatal(err)
			}
			if got, ok := l.RetriedGet(app, rec.Req, name, NoVersion, box); !ok || got != v {
				t.Fatalf("op %d log %d: the retry of get %d: v%d %v, want v%d", i, li, rec.Req, got, ok, v)
			}
		}
		d.send(rec)
	case 5: // checkpoint
		d.checkpoint(i, app)
	case 6: // recovery
		var scripts [][]*Event
		for _, l := range d.logs {
			scripts = append(scripts, l.OnRecovery(app))
		}
		d.send(Record{Op: OpRecovery, App: app})
		for li := 1; li < len(scripts); li++ {
			if len(scripts[li]) != len(scripts[0]) {
				t.Fatalf("op %d: script lengths differ: %d vs %d", i, len(scripts[0]), len(scripts[li]))
			}
			for j := range scripts[0] {
				if *scripts[li][j] != *scripts[0][j] {
					t.Fatalf("op %d: script[%d] differs: %+v vs %+v", i, j, scripts[0][j], scripts[li][j])
				}
			}
		}
		d.scripts[app] = scripts[0]
	default: // probe-only step: frontier agreement across logs
		for _, n := range fidNames {
			f0 := d.logs[0].PayloadFrontier(n)
			for li := 1; li < len(d.logs); li++ {
				if f := d.logs[li].PayloadFrontier(n); f != f0 {
					t.Fatalf("op %d: frontier(%s) %d vs %d", i, n, f0, f)
				}
			}
		}
	}
}

func (d *fidDriver) checkpoint(i int, app string) {
	t := d.t
	var ids []string
	var trims []int
	for _, l := range d.logs {
		id, trimmed := l.OnCheckpoint(app)
		ids = append(ids, id)
		trims = append(trims, len(trimmed))
	}
	d.send(Record{Op: OpCheckpoint, App: app})
	for li := 1; li < len(ids); li++ {
		if ids[li] != ids[0] || trims[li] != trims[0] {
			t.Fatalf("op %d: checkpoint differs: (%s,%d) vs (%s,%d)",
				i, ids[0], trims[0], ids[li], trims[li])
		}
	}
}

// mustSnapshot is a test helper.
func mustSnapshot(t *testing.T, l *Log) []byte {
	t.Helper()
	b, err := l.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return b
}

// assertLogsEqual compares two logs through every observable: snapshot
// bytes, memory accounting, replay flags and payload frontiers.
func assertLogsEqual(t *testing.T, a, b *Log) {
	t.Helper()
	sa, sb := mustSnapshot(t, a), mustSnapshot(t, b)
	if !bytes.Equal(sa, sb) {
		t.Fatalf("snapshots differ (%d vs %d bytes)", len(sa), len(sb))
	}
	if a.MetaBytes() != b.MetaBytes() {
		t.Fatalf("MetaBytes %d vs %d", a.MetaBytes(), b.MetaBytes())
	}
	for _, app := range fidApps {
		if a.Replaying(app) != b.Replaying(app) {
			t.Fatalf("Replaying(%s) %v vs %v", app, a.Replaying(app), b.Replaying(app))
		}
		if a.QueueLen(app) != b.QueueLen(app) {
			t.Fatalf("QueueLen(%s) %d vs %d", app, a.QueueLen(app), b.QueueLen(app))
		}
	}
	for _, n := range fidNames {
		if a.PayloadFrontier(n) != b.PayloadFrontier(n) {
			t.Fatalf("PayloadFrontier(%s) %d vs %d", n, a.PayloadFrontier(n), b.PayloadFrontier(n))
		}
	}
}

// TestSnapshotRestoreFidelity: Restore(Snapshot(l)) then any operation
// sequence behaves identically to the original log — including when
// the snapshot is taken mid-replay.
func TestSnapshotRestoreFidelity(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			l := New()
			d := newFidDriver(t, rng, l)
			d.run(20 + rng.Intn(80)) // random prefix, may end mid-replay
			restored := New()
			if err := restored.Restore(mustSnapshot(t, l)); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			assertLogsEqual(t, l, restored)
			// Drive both logs through the same suffix.
			d.logs = []*Log{l, restored}
			d.check = func() { assertLogsEqual(t, l, restored) }
			d.run(20 + rng.Intn(60))
		})
	}
}

// TestSnapshotMidReplay pins the mid-replay case deterministically: a
// snapshot taken with the cursor inside the window restores a log that
// finishes the replay exactly like the original.
func TestSnapshotMidReplay(t *testing.T) {
	l := New()
	b := fidBoxes[0]
	for v := int64(1); v <= 6; v++ {
		if sup, err := l.BeginPut("sim", "u", v, b); err != nil || sup {
			t.Fatalf("put v%d: %v %v", v, sup, err)
		}
		l.CommitPut("sim", "u", v, b, 100)
	}
	script := l.OnRecovery("sim")
	if len(script) != 6 {
		t.Fatalf("script len %d", len(script))
	}
	// Consume half the window, then snapshot.
	for v := int64(1); v <= 3; v++ {
		if sup, err := l.BeginPut("sim", "u", v, b); err != nil || !sup {
			t.Fatalf("replay put v%d: %v %v", v, sup, err)
		}
	}
	restored := New()
	if err := restored.Restore(mustSnapshot(t, l)); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if !restored.Replaying("sim") {
		t.Fatal("restored log not replaying")
	}
	for v := int64(4); v <= 6; v++ {
		for li, lg := range []*Log{l, restored} {
			if sup, err := lg.BeginPut("sim", "u", v, b); err != nil || !sup {
				t.Fatalf("log %d: replay put v%d: %v %v", li, v, sup, err)
			}
		}
	}
	if l.Replaying("sim") || restored.Replaying("sim") {
		t.Fatal("replay did not end on both logs")
	}
	assertLogsEqual(t, l, restored)
}

// TestSnapshotDeterministic: equal states produce identical bytes.
func TestSnapshotDeterministic(t *testing.T) {
	build := func() *Log {
		l := New()
		d := newFidDriver(t, rand.New(rand.NewSource(7)), l)
		d.run(60)
		return l
	}
	a, b := build(), build()
	if !bytes.Equal(mustSnapshot(t, a), mustSnapshot(t, b)) {
		t.Fatal("identical histories produced different snapshot bytes")
	}
}

// TestApplyStreamConvergence: feeding every emitted Record of an origin
// log to a replica's Apply keeps the replica byte-identical to the
// origin after every operation — the invariant the staging replicator
// relies on.
func TestApplyStreamConvergence(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			origin, replica := New(), New()
			d := newFidDriver(t, rng, origin)
			d.emit = func(r Record) {
				if err := replica.Apply(r); err != nil {
					t.Fatalf("Apply(%+v): %v", r, err)
				}
			}
			d.check = func() { assertLogsEqual(t, origin, replica) }
			d.run(120)
		})
	}
}

// bruteFrontier is the original O(apps x events) scan, kept as the
// oracle for the indexed PayloadFrontier.
func bruteFrontier(l *Log, name string) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	frontier := int64(math.MaxInt64)
	for app, q := range l.apps {
		for _, e := range q.events {
			if e.Kind == KindGet && e.Name == name && e.Version < frontier {
				frontier = e.Version
			}
		}
		if last, ok := l.readers[name][app]; ok && last+1 < frontier {
			frontier = last + 1
		}
	}
	return frontier
}

// TestPayloadFrontierMatchesBruteForce: the per-name min-version index
// agrees with the brute-force scan after every operation, across
// appends, trims, replays and restores.
func TestPayloadFrontierMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			l := New()
			d := newFidDriver(t, rng, l)
			d.check = func() {
				for _, n := range fidNames {
					got, want := l.PayloadFrontier(n), bruteFrontier(l, n)
					if got != want {
						t.Fatalf("frontier(%s): indexed %d, brute force %d", n, got, want)
					}
				}
			}
			d.run(150)
			// The index must also survive a snapshot/restore round-trip.
			restored := New()
			if err := restored.Restore(mustSnapshot(t, l)); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			for _, n := range fidNames {
				if got, want := restored.PayloadFrontier(n), bruteFrontier(l, n); got != want {
					t.Fatalf("restored frontier(%s): %d want %d", n, got, want)
				}
			}
		})
	}
}

// TestSnapshotConcurrentWithMutations is the regression test for the
// copy-on-write Snapshot: snapshots race freely against appends,
// checkpoint compactions, and recoveries without tripping the race
// detector, every captured snapshot restores into a valid log, and the
// per-app sequence numbers across successive snapshots never regress
// (each snapshot is a consistent point-in-time cut, not a torn read).
func TestSnapshotConcurrentWithMutations(t *testing.T) {
	l := New()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			app := fidApps[w%len(fidApps)]
			b := fidBoxes[w%len(fidBoxes)]
			for v := int64(1); ; v++ {
				select {
				case <-stop:
					return
				default:
				}
				if sup, err := l.BeginPut(app, "u", v, b); err != nil || sup {
					t.Errorf("put v%d: %v %v", v, sup, err)
					return
				}
				l.CommitPut(app, "u", v, b, 64)
				if _, _, err := l.BeginGet(app, "u", v, b); err != nil {
					t.Errorf("get v%d: %v", v, err)
					return
				}
				l.CommitGet(app, "u", v, b, 64)
				if v%16 == 0 {
					l.OnCheckpoint(app) // compaction reallocates the queue
				}
			}
		}()
	}
	lastSeq := map[string]int64{}
	for i := 0; i < 200; i++ {
		state := mustSnapshot(t, l)
		restored := New()
		if err := restored.Restore(state); err != nil {
			t.Fatalf("snapshot %d did not restore: %v", i, err)
		}
		msg, err := codec.Unmarshal(state)
		if err != nil {
			t.Fatalf("snapshot %d decode: %v", i, err)
		}
		snap := msg.(snapshot)
		for _, q := range snap.Queues {
			if q.NextSeq < lastSeq[q.App] {
				t.Fatalf("snapshot %d: app %s seq regressed %d -> %d", i, q.App, lastSeq[q.App], q.NextSeq)
			}
			lastSeq[q.App] = q.NextSeq
			for j := 1; j < len(q.Events); j++ {
				if q.Events[j].Seq <= q.Events[j-1].Seq {
					t.Fatalf("snapshot %d: app %s torn event order at %d", i, q.App, j)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestRestoreValidatesSnapshot: a snapshot reaches Restore from a peer
// (ReplSnapshotReq) or a supervisor (WlogInstallReq), and the log
// indexes its events by the anchor and the cursor it carries. One that
// would index outside the queue — Anchor -5 made the next recovery
// slice events[-4:] — is a decode error, and the log stays as it was.
func TestRestoreValidatesSnapshot(t *testing.T) {
	put := func(seq int64) *Event {
		return &Event{App: "sim", Seq: seq, Kind: KindPut, Name: "u", Version: seq, BBox: fidBoxes[0], Bytes: 100}
	}
	two := []*Event{put(1), put(2)}
	encode := func(s snapshot) []byte {
		b, err := codec.Append(nil, s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	str, _ := codec.Append(nil, "not a snapshot")
	var gobbed bytes.Buffer
	if err := gob.NewEncoder(&gobbed).Encode(snapshot{Queues: []snapQueue{{App: "sim", Events: two, Anchor: -1}}}); err != nil {
		t.Fatal(err)
	}
	bad := map[string][]byte{
		"anchor below -1":        encode(snapshot{Queues: []snapQueue{{App: "sim", Events: two, NextSeq: 2, Anchor: -5}}}),
		"anchor past the queue":  encode(snapshot{Queues: []snapQueue{{App: "sim", Events: two, NextSeq: 2, Anchor: 2}}}),
		"anchor in an empty one": encode(snapshot{Queues: []snapQueue{{App: "sim", Anchor: 0}}}),
		"negative cursor":        encode(snapshot{Queues: []snapQueue{{App: "sim", Events: two, Anchor: -1, Cursor: -1}}}),
		"replay cursor past end": encode(snapshot{Queues: []snapQueue{{App: "sim", Events: two, Anchor: -1, Replaying: true, Cursor: 3}}}),
		"unknown event kind":     encode(snapshot{Queues: []snapQueue{{App: "sim", Events: []*Event{{App: "sim", Kind: 4}}, Anchor: -1}}}),
		"missing event":          encode(snapshot{Queues: []snapQueue{{App: "sim", Events: []*Event{nil}, Anchor: -1}}}),
		"one component twice":    encode(snapshot{Queues: []snapQueue{{App: "sim", Anchor: -1}, {App: "sim", Anchor: -1}}}),
		"another message":        str,
		"trailing byte":          append(encode(snapshot{}), 0),
		"truncated":              encode(snapshot{Queues: []snapQueue{{App: "sim", Events: two, Anchor: -1}}})[:20],
		"a gob stream":           gobbed.Bytes(), // what Snapshot wrote before it was a codec message
	}
	for name, state := range bad {
		t.Run(name, func(t *testing.T) {
			l := New()
			l.CommitPut("sim", "u", 1, fidBoxes[0], 100)
			l.CommitGet("ana", "u", 1, fidBoxes[0], 100)
			before := mustSnapshot(t, l)
			if err := l.Restore(state); !errors.Is(err, codec.ErrCorrupt) && !errors.Is(err, codec.ErrUnknownType) {
				t.Fatalf("Restore = %v, want a codec decode error", err)
			}
			if !bytes.Equal(mustSnapshot(t, l), before) {
				t.Fatal("a rejected snapshot changed the log")
			}
			if script := l.OnRecoveryFrom("sim", 0); len(script) != 1 {
				t.Fatalf("recovery after a rejected snapshot replays %d events, want 1", len(script))
			}
		})
	}

	// What it must not reject: once a replay has ended the cursor is
	// stale, and a checkpoint trim leaves it past the shortened queue.
	l := New()
	l.CommitPut("sim", "u", 1, fidBoxes[0], 100)
	l.CommitPut("sim", "u", 2, fidBoxes[0], 100)
	l.OnRecovery("sim")
	for v := int64(1); v <= 2; v++ {
		if sup, err := l.BeginPut("sim", "u", v, fidBoxes[0]); err != nil || !sup {
			t.Fatalf("replay put v%d: %v %v", v, sup, err)
		}
	}
	l.OnCheckpoint("sim")
	restored := New()
	if err := restored.Restore(mustSnapshot(t, l)); err != nil {
		t.Fatalf("Restore with a stale cursor: %v", err)
	}
	assertLogsEqual(t, l, restored)
}
