package wlog

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"gospaces/internal/domain"
)

var box = domain.Box3(0, 0, 0, 9, 9, 9)

// doPut performs the full first-execution put sequence.
func doPut(t *testing.T, l *Log, app, name string, v int64) bool {
	t.Helper()
	suppress, err := l.BeginPut(app, name, v, box)
	if err != nil {
		t.Fatalf("BeginPut %s v%d: %v", name, v, err)
	}
	if !suppress {
		l.CommitPut(app, name, v, box, 1000)
	}
	return suppress
}

func doGet(t *testing.T, l *Log, app, name string, v int64) (int64, bool) {
	t.Helper()
	resolved, fromLog, err := l.BeginGet(app, name, v, box)
	if err != nil {
		t.Fatalf("BeginGet %s v%d: %v", name, v, err)
	}
	if !fromLog {
		if resolved == NoVersion {
			t.Fatalf("test asks explicit versions only")
		}
		l.CommitGet(app, name, resolved, box, 1000)
	}
	return resolved, fromLog
}

func TestFirstExecutionNeverSuppresses(t *testing.T) {
	l := New()
	for v := int64(1); v <= 5; v++ {
		if doPut(t, l, "sim", "f", v) {
			t.Fatalf("v%d suppressed in first execution", v)
		}
	}
	if l.QueueLen("sim") != 5 {
		t.Fatalf("queue len %d", l.QueueLen("sim"))
	}
}

// TestPaperFigure5 reproduces the scenario of Figure 5: two coupled
// applications exchange data each timestep; simulation b fails at ts 7
// and rolls back to its checkpoint at ts 4; during recovery the staging
// area replays the events recorded for ts 5..7.
func TestPaperFigure5(t *testing.T) {
	l := New()
	// Initial execution ts 1..7: a writes, b reads; both checkpoint at ts4.
	for ts := int64(1); ts <= 7; ts++ {
		doPut(t, l, "a", "field", ts)
		doGet(t, l, "b", "field", ts)
		if ts == 4 {
			l.OnCheckpoint("a")
			l.OnCheckpoint("b")
		}
	}

	// b fails at ts 7 and recovers from its ts-4 checkpoint.
	script := l.OnRecovery("b")
	if len(script) != 3 {
		t.Fatalf("replay script has %d events, want 3 (gets ts5..7)", len(script))
	}
	for i, e := range script {
		if e.Kind != KindGet || e.Version != int64(5+i) {
			t.Fatalf("script[%d] = %v %d", i, e.Kind, e.Version)
		}
	}
	if !l.Replaying("b") {
		t.Fatal("b not in replay mode")
	}

	// While a proceeds to ts 8..10, b replays ts 5..7 and must be served
	// the OLD versions, not a's new ones.
	for i, ts := range []int64{5, 6, 7} {
		doPut(t, l, "a", "field", int64(8+i))
		got, fromLog := doGet(t, l, "b", "field", ts)
		if !fromLog || got != ts {
			t.Fatalf("replay get ts%d: got v%d fromLog=%v", ts, got, fromLog)
		}
	}
	if l.Replaying("b") {
		t.Fatal("b should have exited replay after consuming the window")
	}

	// b continues normally at ts 8.
	if _, fromLog := doGet(t, l, "b", "field", 8); fromLog {
		t.Fatal("post-replay get served from log")
	}
}

// TestProducerRollbackSuppression reproduces case 2 of Figure 2: the
// producer fails, rolls back, and its re-issued writes must be
// suppressed rather than staged twice.
func TestProducerRollbackSuppression(t *testing.T) {
	l := New()
	for ts := int64(1); ts <= 6; ts++ {
		doPut(t, l, "sim", "f", ts)
		if ts == 4 {
			l.OnCheckpoint("sim")
		}
	}
	script := l.OnRecovery("sim")
	if len(script) != 2 {
		t.Fatalf("script len %d, want 2 (puts ts5,6)", len(script))
	}
	// Re-execution of ts 5,6: puts suppressed.
	if !doPut(t, l, "sim", "f", 5) || !doPut(t, l, "sim", "f", 6) {
		t.Fatal("re-issued puts not suppressed")
	}
	// ts 7 is new work: stored normally.
	if doPut(t, l, "sim", "f", 7) {
		t.Fatal("new put suppressed")
	}
	if l.Replaying("sim") {
		t.Fatal("still replaying")
	}
}

func TestRecoveryWithoutCheckpointReplaysFromStart(t *testing.T) {
	l := New()
	doPut(t, l, "sim", "f", 1)
	doPut(t, l, "sim", "f", 2)
	script := l.OnRecovery("sim")
	if len(script) != 2 {
		t.Fatalf("script len %d", len(script))
	}
	if !doPut(t, l, "sim", "f", 1) {
		t.Fatal("replayed first put not suppressed")
	}
}

func TestRecoveryWithEmptyWindow(t *testing.T) {
	l := New()
	doPut(t, l, "sim", "f", 1)
	l.OnCheckpoint("sim")
	script := l.OnRecovery("sim")
	if len(script) != 0 {
		t.Fatalf("script len %d, want 0", len(script))
	}
	if l.Replaying("sim") {
		t.Fatal("replaying with empty window")
	}
	if doPut(t, l, "sim", "f", 2) {
		t.Fatal("fresh put suppressed")
	}
}

func TestReplayDivergencePut(t *testing.T) {
	l := New()
	doPut(t, l, "sim", "f", 1)
	l.OnRecovery("sim")
	_, err := l.BeginPut("sim", "f", 99, box)
	if !errors.Is(err, ErrReplayDivergence) {
		t.Fatalf("err = %v", err)
	}
	// Wrong bbox also diverges.
	l.OnRecovery("sim")
	_, err = l.BeginPut("sim", "f", 1, domain.Box3(0, 0, 0, 1, 1, 1))
	if !errors.Is(err, ErrReplayDivergence) {
		t.Fatalf("bbox err = %v", err)
	}
	// Wrong kind diverges.
	l.OnRecovery("sim")
	_, _, err = l.BeginGet("sim", "f", 1, box)
	if !errors.Is(err, ErrReplayDivergence) {
		t.Fatalf("kind err = %v", err)
	}
}

// TestReplayRetriedPieceSuppressed: a piece re-sent during replay (its
// response was lost after the server consumed it) is the same write as
// its first replay, not a divergence. It is suppressed, the cursor stays
// on the next logged piece, and the replay finishes as recorded.
func TestReplayRetriedPieceSuppressed(t *testing.T) {
	l := New()
	a, b := domain.Box3(0, 0, 0, 4, 9, 9), domain.Box3(5, 0, 0, 9, 9, 9)
	for _, bb := range []domain.BBox{a, b} {
		if sup, err := l.BeginPut("sim", "f", 1, bb); err != nil || sup {
			t.Fatalf("first put %v: %v %v", bb, sup, err)
		}
		l.CommitPut("sim", "f", 1, bb, 500)
	}
	l.OnRecovery("sim")
	for i, bb := range []domain.BBox{a, a, b} {
		if sup, err := l.BeginPut("sim", "f", 1, bb); err != nil || !sup {
			t.Fatalf("replay piece %d %v: %v %v", i, bb, sup, err)
		}
	}
	if l.Replaying("sim") {
		t.Fatal("replay did not end after the last logged piece")
	}
	if l.QueueLen("sim") != 2 {
		t.Fatalf("queue len %d, want 2", l.QueueLen("sim"))
	}
	// A piece that was never logged still diverges.
	l.OnRecovery("sim")
	if _, err := l.BeginPut("sim", "f", 1, domain.Box3(0, 0, 0, 1, 1, 1)); !errors.Is(err, ErrReplayDivergence) {
		t.Fatalf("unlogged piece: err = %v", err)
	}
}

// TestRetriedGetByRequestNumber: a first-execution get re-sent because
// its answer was lost carries the request number its first attempt
// logged, and RetriedGet finds it: same number, name and bbox, and a
// version the logged one answers. Nothing else is a retry: another
// number, number 0, or a get that is no longer the app's last event. A
// restored snapshot keeps the number.
func TestRetriedGetByRequestNumber(t *testing.T) {
	l := New()
	doPut(t, l, "sim", "f", 2)
	get := Record{Op: OpGet, App: "ana", Name: "f", Version: 2, BBox: box, Bytes: 1000, Req: 5}
	if err := l.Apply(get); err != nil {
		t.Fatal(err)
	}
	retried := func(l *Log, req uint64, name string, version int64, bbox domain.BBox) bool {
		t.Helper()
		v, ok := l.RetriedGet("ana", req, name, version, bbox)
		if ok && v != 2 {
			t.Fatalf("retry of request %d served v%d, want v2", req, v)
		}
		return ok
	}
	for _, ask := range []int64{NoVersion, 2} {
		if !retried(l, 5, "f", ask, box) {
			t.Fatalf("request 5 asking %d is not found as a retry", ask)
		}
	}
	restored := New()
	if err := restored.Restore(mustSnapshot(t, l)); err != nil || !retried(restored, 5, "f", NoVersion, box) {
		t.Fatalf("the restored log lost the request number (%v)", err)
	}
	other := domain.Box3(10, 0, 0, 19, 9, 9)
	for _, c := range []struct {
		req     uint64
		name    string
		version int64
		bbox    domain.BBox
	}{{6, "f", NoVersion, box}, {5, "g", NoVersion, box}, {5, "f", 1, box}, {5, "f", NoVersion, other}} {
		if retried(l, c.req, c.name, c.version, c.bbox) {
			t.Fatalf("%+v found as a retry of request 5", c)
		}
	}
	doGet(t, l, "ana", "f", 2) // logged without a number
	if retried(l, 5, "f", NoVersion, box) || retried(l, 0, "f", NoVersion, box) {
		t.Fatal("a retry found behind a later event, or for number 0")
	}
}

// TestReplayRetriedGetResolvesAgain: a get re-sent during replay (its
// answer was lost after the server consumed its event) repeats the get
// just behind the cursor. It resolves to that event's version again,
// from the log, the cursor stays, and the replay finishes as recorded —
// for an explicit version and for "latest" alike. (A request that also
// repeats the event at the cursor is the next get, as for a put.)
func TestReplayRetriedGetResolvesAgain(t *testing.T) {
	l := New()
	doPut(t, l, "sim", "f", 1)
	doPut(t, l, "sim", "g", 1)
	doPut(t, l, "sim", "f", 2)
	doGet(t, l, "ana", "f", 1)
	doGet(t, l, "ana", "g", 1)
	doGet(t, l, "ana", "f", 2)
	l.OnRecovery("ana")
	replay := []struct {
		name      string
		ask, want int64
	}{
		{"f", 1, 1}, {"f", 1, 1}, // f v1, then its retry
		{"g", NoVersion, 1}, {"g", NoVersion, 1}, // "latest" of g, resolved to v1, then its retry
		{"f", 2, 2},
	}
	for i, g := range replay {
		got, fromLog, err := l.BeginGet("ana", g.name, g.ask, box)
		if err != nil || !fromLog || got != g.want {
			t.Fatalf("replay get %d (%s asks %d): v%d fromLog=%v err=%v; want v%d from the log", i, g.name, g.ask, got, fromLog, err, g.want)
		}
	}
	if l.Replaying("ana") {
		t.Fatal("replay did not end after the last logged get")
	}
	if l.QueueLen("ana") != 3 {
		t.Fatalf("queue len %d, want 3", l.QueueLen("ana"))
	}
	// A get that repeats nothing still diverges: another version of the
	// get just behind the cursor, and the get two behind it.
	l.OnRecovery("ana")
	doGet(t, l, "ana", "f", 1)
	if _, _, err := l.BeginGet("ana", "f", 2, box); !errors.Is(err, ErrReplayDivergence) {
		t.Fatalf("f v2 with g next and f v1 just served: err = %v", err)
	}
	doGet(t, l, "ana", "g", 1)
	if _, _, err := l.BeginGet("ana", "f", 1, box); !errors.Is(err, ErrReplayDivergence) {
		t.Fatalf("retry of the get two behind the cursor: err = %v", err)
	}
}

func TestReplayGetLatestResolvesToLoggedVersion(t *testing.T) {
	l := New()
	doPut(t, l, "sim", "f", 3)
	// Consumer read "latest" and the server resolved it to 3.
	resolved, fromLog, err := l.BeginGet("ana", "f", NoVersion, box)
	if err != nil || fromLog {
		t.Fatalf("first get: %v fromLog=%v", err, fromLog)
	}
	if resolved != NoVersion {
		t.Fatalf("resolved = %d before server resolution", resolved)
	}
	l.CommitGet("ana", "f", 3, box, 1000)

	l.OnRecovery("ana")
	got, fromLog, err := l.BeginGet("ana", "f", NoVersion, box)
	if err != nil || !fromLog || got != 3 {
		t.Fatalf("replay latest: v%d fromLog=%v err=%v", got, fromLog, err)
	}
	// Asking an explicit mismatching version during replay diverges.
	l.OnRecovery("ana")
	if _, _, err := l.BeginGet("ana", "f", 7, box); !errors.Is(err, ErrReplayDivergence) {
		t.Fatalf("err = %v", err)
	}
}

func TestCheckpointTrimsQueue(t *testing.T) {
	l := New()
	for v := int64(1); v <= 4; v++ {
		doPut(t, l, "sim", "f", v)
	}
	before := l.MetaBytes()
	chkID, trimmed := l.OnCheckpoint("sim")
	if chkID == "" {
		t.Fatal("empty W_Chk_ID")
	}
	if len(trimmed) != 4 {
		t.Fatalf("trimmed %d events", len(trimmed))
	}
	if l.QueueLen("sim") != 1 { // just the checkpoint event
		t.Fatalf("queue len %d", l.QueueLen("sim"))
	}
	if l.MetaBytes() >= before {
		t.Fatal("meta bytes did not shrink")
	}
}

func TestWChkIDsUniquePerComponent(t *testing.T) {
	l := New()
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		for _, app := range []string{"sim", "ana"} {
			id, _ := l.OnCheckpoint(app)
			if seen[id] {
				t.Fatalf("duplicate W_Chk_ID %s", id)
			}
			seen[id] = true
		}
	}
}

func TestCheckpointDuringReplayExitsReplay(t *testing.T) {
	l := New()
	doPut(t, l, "sim", "f", 1)
	doPut(t, l, "sim", "f", 2)
	l.OnRecovery("sim")
	if !l.Replaying("sim") {
		t.Fatal("not replaying")
	}
	l.OnCheckpoint("sim")
	if l.Replaying("sim") {
		t.Fatal("still replaying after checkpoint")
	}
}

func TestPayloadFrontier(t *testing.T) {
	l := New()
	// Producer writes 1..6, consumer reads 1..5, both checkpoint at 4.
	for ts := int64(1); ts <= 6; ts++ {
		doPut(t, l, "sim", "f", ts)
		if ts <= 5 {
			doGet(t, l, "ana", "f", ts)
		}
		if ts == 4 {
			l.OnCheckpoint("sim")
			l.OnCheckpoint("ana")
		}
	}
	// ana may replay gets of ts5 (resident) and must still first-read ts6.
	if got := l.PayloadFrontier("f"); got != 5 {
		t.Fatalf("frontier = %d, want 5", got)
	}
	// After ana checkpoints again, only first-reads (>= 6) matter.
	l.OnCheckpoint("ana")
	if got := l.PayloadFrontier("f"); got != 6 {
		t.Fatalf("frontier after ckpt = %d, want 6", got)
	}
	// An object nobody reads is fully collectible (frontier = MaxInt64).
	if got := l.PayloadFrontier("unread"); got != math.MaxInt64 {
		t.Fatalf("unread frontier = %d", got)
	}
}

func TestPayloadFrontierMultipleConsumers(t *testing.T) {
	l := New()
	doPut(t, l, "sim", "f", 1)
	doPut(t, l, "sim", "f", 2)
	doGet(t, l, "fast", "f", 1)
	doGet(t, l, "fast", "f", 2)
	l.OnCheckpoint("fast")
	doGet(t, l, "slow", "f", 1)
	// slow may replay ts1; frontier must respect the laggard.
	if got := l.PayloadFrontier("f"); got != 1 {
		t.Fatalf("frontier = %d, want 1", got)
	}
}

func TestDoubleFailureReplaysSameWindow(t *testing.T) {
	l := New()
	for ts := int64(1); ts <= 3; ts++ {
		doPut(t, l, "sim", "f", ts)
	}
	l.OnRecovery("sim")
	if !doPut(t, l, "sim", "f", 1) {
		t.Fatal("replay 1 not suppressed")
	}
	// Fails again mid-replay; recovery restarts the whole window.
	script := l.OnRecovery("sim")
	if len(script) != 3 {
		t.Fatalf("second script len %d", len(script))
	}
	for _, v := range []int64{1, 2, 3} {
		if !doPut(t, l, "sim", "f", v) {
			t.Fatalf("second replay v%d not suppressed", v)
		}
	}
}

func TestPartialTimestepFailure(t *testing.T) {
	// The component died after staging only some of its ts-2 writes; on
	// replay the staged ones are suppressed and the missing ones are
	// stored normally.
	l := New()
	doPut(t, l, "sim", "f", 1)
	l.OnCheckpoint("sim")
	doPut(t, l, "sim", "f", 2) // wrote v2 region... then died before v3
	l.OnRecovery("sim")
	if !doPut(t, l, "sim", "f", 2) {
		t.Fatal("staged write not suppressed")
	}
	if doPut(t, l, "sim", "f", 3) {
		t.Fatal("never-staged write suppressed")
	}
}

func TestQueueIsolationBetweenApps(t *testing.T) {
	l := New()
	doPut(t, l, "a", "f", 1)
	doPut(t, l, "b", "g", 1)
	l.OnRecovery("a")
	if l.Replaying("b") {
		t.Fatal("b affected by a's recovery")
	}
	// b proceeds normally.
	if doPut(t, l, "b", "g", 2) {
		t.Fatal("b suppressed")
	}
}

func TestMetaBytesAccounting(t *testing.T) {
	l := New()
	if l.MetaBytes() != 0 {
		t.Fatal("fresh log has meta bytes")
	}
	doPut(t, l, "sim", "field-with-a-long-name", 1)
	first := l.MetaBytes()
	if first <= 0 {
		t.Fatal("no accounting")
	}
	doPut(t, l, "sim", "f", 2)
	if l.MetaBytes() <= first {
		t.Fatal("accounting not additive")
	}
}

// TestRecoveryFromCoveredVersion reproduces a torn workflow_check: the
// component checkpointed durably at ts 5 but this server never received
// the checkpoint mark (it was issued per server and a fail-stop
// interrupted the round). OnRecoveryFrom must drop the covered prefix
// so the restarted component — which will not re-issue ts<=5 requests —
// does not diverge.
func TestRecoveryFromCoveredVersion(t *testing.T) {
	l := New()
	for ts := int64(1); ts <= 5; ts++ {
		doPut(t, l, "a", "field", ts)
		doGet(t, l, "b", "field", ts)
	}
	before := l.MetaBytes()

	// Fully covered: the replay window empties and replay never starts.
	script := l.OnRecoveryFrom("b", 5)
	if len(script) != 0 {
		t.Fatalf("script len %d, want 0 (all events covered)", len(script))
	}
	if l.Replaying("b") {
		t.Fatal("replaying an empty window")
	}
	if l.QueueLen("b") != 0 {
		t.Fatalf("covered events not trimmed: queue len %d", l.QueueLen("b"))
	}
	if l.MetaBytes() >= before {
		t.Fatal("trim did not release meta bytes")
	}
	// b's resident get events no longer pin old payload versions; only
	// its first-reads-to-come bound (last read 5 -> 6) remains.
	if f := l.PayloadFrontier("field"); f != 6 {
		t.Fatalf("frontier = %d, want 6", f)
	}
	// The component restarts at ts 6 with a fresh, unreplayed get.
	if _, fromLog := doGet(t, l, "b", "field", 6); fromLog {
		t.Fatal("post-recovery get served from log")
	}

	// Partially covered: only events above the bound replay.
	script = l.OnRecoveryFrom("a", 3)
	if len(script) != 2 || script[0].Version != 4 || script[1].Version != 5 {
		t.Fatalf("script %v, want puts v4,v5", script)
	}
	if !doPut(t, l, "a", "field", 4) || !doPut(t, l, "a", "field", 5) {
		t.Fatal("replayed puts not suppressed")
	}
	if l.Replaying("a") {
		t.Fatal("still replaying after consuming the window")
	}
}

// TestRecoveryFromReplicates: the covered bound rides the replication
// record, so a replica fed the same stream converges on the primary's
// post-recovery state byte-exactly.
func TestRecoveryFromReplicates(t *testing.T) {
	primary, replica := New(), New()
	for ts := int64(1); ts <= 4; ts++ {
		doGet(t, primary, "b", "field", ts)
		if err := replica.Apply(Record{Op: OpGet, App: "b", Name: "field", Version: ts, BBox: box, Bytes: 1000}); err != nil {
			t.Fatal(err)
		}
	}
	primary.OnRecoveryFrom("b", 2)
	if err := replica.Apply(Record{Op: OpRecovery, App: "b", Version: 2}); err != nil {
		t.Fatal(err)
	}
	ps, err := primary.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := replica.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ps, rs) {
		t.Fatal("replica diverged from primary after OnRecoveryFrom")
	}
}
