package recovery

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"gospaces/internal/domain"
	"gospaces/internal/sim"
	"gospaces/internal/staging"
	"gospaces/internal/transport"
	"gospaces/internal/wlog"
)

// The tests in this file drive the tentpole end to end: with log
// replication on, kill any staging server at any point in a logged
// producer/consumer schedule, let the supervisor promote a spare and
// restore the dead slot's event log from the freshest replica, then
// workflow_restart and replay — byte-exact reads, no divergence.

func replGroupConfig(n, k int) staging.Config {
	cfg := groupConfig(n)
	cfg.WlogReplicas = k
	return cfg
}

// wfOp is one step of the scripted workflow: a logged put or get of an
// explicit version, or a workflow_check, by the producer or consumer.
type wfOp struct {
	prod  bool
	check bool
	ver   int64
}

func (o wfOp) app() string {
	if o.prod {
		return "sim/0"
	}
	return "ana/0"
}

// script interleaves producer puts and consumer gets with a checkpoint
// by each side mid-stream, so a kill at any index exercises replay
// from a non-trivial anchor.
var script = []wfOp{
	{prod: true, ver: 1}, {ver: 1},
	{prod: true, ver: 2}, {ver: 2},
	{prod: true, check: true}, {check: true},
	{prod: true, ver: 3}, {ver: 3},
	{prod: true, ver: 4}, {ver: 4},
}

func verData(n int, ver int64) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(int64(i)*7 + ver*131)
	}
	return out
}

// harness is one running scenario: group + spare + supervisor + the
// two workflow clients.
type harness struct {
	tr     transport.Transport
	clk    *sim.Manual
	g      *staging.Group
	sup    *Supervisor
	prod   *staging.Client
	cons   *staging.Client
	global domain.BBox
	bufLen int
}

func startHarness(t *testing.T, cfg staging.Config) *harness {
	t.Helper()
	return startHarnessOn(t, manualWorld(), cfg)
}

// startHarnessOn is startHarness over a given transport, whose world
// runs on a manual clock: servers, supervisor and clients all dial
// through it.
func startHarnessOn(t *testing.T, tr transport.Transport, cfg staging.Config) *harness {
	t.Helper()
	g, err := staging.StartGroup(tr, "stage", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	if _, err := g.AddSpare(); err != nil {
		t.Fatal(err)
	}
	sup := New(tr, fastDetector(tr), g.Membership(), g, Config{})
	t.Cleanup(func() { sup.Close() })
	sup.Start()
	prod, err := g.NewClient("sim/0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { prod.Close() })
	cons, err := g.NewClient("ana/0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cons.Close() })
	return &harness{
		tr: tr, clk: manualOf(tr), g: g, sup: sup, prod: prod, cons: cons,
		global: cfg.Global, bufLen: domain.BufLen(cfg.Global, cfg.ElemSize),
	}
}

// waitIdle waits, stepping the clock, until the supervisor confirms
// the group repaired.
func (h *harness) waitIdle() error { return waitIdle(h.clk, period, h.sup).err }

func (h *harness) client(o wfOp) *staging.Client {
	if o.prod {
		return h.prod
	}
	return h.cons
}

// exec runs one script op, verifying get payloads byte-exactly.
func (h *harness) exec(o wfOp) error {
	c := h.client(o)
	switch {
	case o.check:
		_, err := c.WorkflowCheck()
		return err
	case o.prod:
		return c.PutWithLog("field", o.ver, h.global, verData(h.bufLen, o.ver))
	default:
		got, _, err := c.GetWithLog("field", o.ver, h.global)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, verData(h.bufLen, o.ver)) {
			return fmt.Errorf("get v%d: payload diverged from original bytes", o.ver)
		}
		return nil
	}
}

// lastCheck returns, per app, the index of that app's last executed
// checkpoint in script[:upto] (-1 if none): the replay anchor.
func lastCheck(upto int) map[string]int {
	anchors := map[string]int{"sim/0": -1, "ana/0": -1}
	for i := 0; i < upto; i++ {
		if script[i].check {
			anchors[script[i].app()] = i
		}
	}
	return anchors
}

// restartAndReplay performs workflow_restart for both apps, then
// re-executes each app's ops since its last checkpoint (the replay,
// which the restored log must suppress or serve byte-exactly) and
// continues with the unexecuted remainder of the script.
func (h *harness) restartAndReplay(t *testing.T, killAt int) {
	t.Helper()
	for _, c := range []*staging.Client{h.prod, h.cons} {
		if _, err := c.WorkflowRestart(); err != nil {
			t.Fatalf("workflow_restart %s: %v", c.App(), err)
		}
	}
	anchors := lastCheck(killAt)
	for i, o := range script {
		replayed := i < killAt && i > anchors[o.app()] && !o.check
		fresh := i >= killAt
		if !replayed && !fresh {
			continue
		}
		if err := h.exec(o); err != nil {
			if errors.Is(err, wlog.ErrReplayDivergence) {
				t.Fatalf("op %d (%+v): replay diverged: %v", i, o, err)
			}
			t.Fatalf("op %d (%+v): %v", i, o, err)
		}
	}
}

func runKillScenario(t *testing.T, victim, killAt int) {
	t.Helper()
	h := startHarness(t, replGroupConfig(3, 1))
	for i := 0; i < killAt; i++ {
		if err := h.exec(script[i]); err != nil {
			t.Fatalf("op %d (%+v): %v", i, script[i], err)
		}
	}
	if err := h.g.FailStop(victim); err != nil {
		t.Fatal(err)
	}
	if err := h.waitIdle(); err != nil {
		t.Fatal(err)
	}
	h.restartAndReplay(t, killAt)
	if n := h.sup.Metrics().Counter("recovery.log_restores").Value(); n != 1 {
		t.Fatalf("recovery.log_restores = %d, want 1", n)
	}
	if n := h.sup.Metrics().Counter("recovery.log_missing").Value(); n != 0 {
		t.Fatalf("recovery.log_missing = %d, want 0", n)
	}
}

// TestKillAnyServerAtAnyPoint is the chaos property: for every victim
// server and every op boundary in the schedule, fail-stop there, let
// the supervisor restore the log onto a spare, and replay cleanly. In
// short mode a sampled subset runs as the soak.
func TestKillAnyServerAtAnyPoint(t *testing.T) {
	for victim := 0; victim < 3; victim++ {
		for killAt := 1; killAt <= len(script); killAt++ {
			if testing.Short() && (victim+killAt)%4 != 0 {
				continue
			}
			t.Run(fmt.Sprintf("victim=%d/killAt=%d", victim, killAt), func(t *testing.T) {
				runKillScenario(t, victim, killAt)
			})
		}
	}
}

// runKillDuringReplay kills victim while the consumer is mid-replay,
// having replayed replayBefore of its two post-anchor gets: the
// partially advanced cursor must survive on the replica, and the second
// workflow_restart must rewind to the anchor and replay fully.
func runKillDuringReplay(t *testing.T, victim, replayBefore int) {
	t.Helper()
	h := startHarness(t, replGroupConfig(3, 1))
	for i, o := range script {
		if err := h.exec(o); err != nil {
			t.Fatalf("op %d: %v", i, o)
		}
	}
	// Consumer restarts and replays part of its window, leaving the
	// replay cursor mid-queue (or at the end when replayBefore is 2).
	if _, err := h.cons.WorkflowRestart(); err != nil {
		t.Fatal(err)
	}
	for v := int64(3); v < 3+int64(replayBefore); v++ {
		got, _, err := h.cons.GetWithLog("field", v, h.global)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, verData(h.bufLen, v)) {
			t.Fatalf("mid-replay get v%d diverged", v)
		}
	}
	if err := h.g.FailStop(victim); err != nil {
		t.Fatal(err)
	}
	if err := h.waitIdle(); err != nil {
		t.Fatal(err)
	}
	// Restart again: cursor rewinds to the anchor on the restored log.
	if _, err := h.cons.WorkflowRestart(); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int64{3, 4} {
		got, _, err := h.cons.GetWithLog("field", v, h.global)
		if err != nil {
			if errors.Is(err, wlog.ErrReplayDivergence) {
				t.Fatalf("replay get v%d diverged: %v", v, err)
			}
			t.Fatal(err)
		}
		if !bytes.Equal(got, verData(h.bufLen, v)) {
			t.Fatalf("replay get v%d: wrong bytes", v)
		}
	}
	// And the workflow continues past replay.
	if err := h.prod.PutWithLog("field", 5, h.global, verData(h.bufLen, 5)); err != nil {
		t.Fatal(err)
	}
	got, _, err := h.cons.GetWithLog("field", 5, h.global)
	if err != nil || !bytes.Equal(got, verData(h.bufLen, 5)) {
		t.Fatalf("post-replay get v5: %v", err)
	}
	if n := h.sup.Metrics().Counter("recovery.log_restores").Value(); n != 1 {
		t.Fatalf("recovery.log_restores = %d, want 1", n)
	}
}

func TestKillDuringReplay(t *testing.T) {
	runKillDuringReplay(t, 1, 1)
}

// TestKillDuringReplaySoak is the chaos soak over the kill-during-replay
// scenario: every victim crossed with every replay depth (cursor at the
// start, middle, and end of the window). It is cheap enough to run in
// short mode, which is the CI fast path.
func TestKillDuringReplaySoak(t *testing.T) {
	for victim := 0; victim < 3; victim++ {
		for replayBefore := 0; replayBefore <= 2; replayBefore++ {
			t.Run(fmt.Sprintf("victim=%d/replayed=%d", victim, replayBefore), func(t *testing.T) {
				runKillDuringReplay(t, victim, replayBefore)
			})
		}
	}
}

// TestNoReplicationLosesQueue is the regression guard: with K=0 the
// promoted spare comes up empty, the dead slot's queue and payloads are
// gone, and replay reads fail — exactly the loss the tentpole removes.
func TestNoReplicationLosesQueue(t *testing.T) {
	h := startHarness(t, replGroupConfig(3, 0))
	for i, o := range script {
		if err := h.exec(o); err != nil {
			t.Fatalf("op %d: %v", i, o)
		}
	}
	if err := h.g.FailStop(1); err != nil {
		t.Fatal(err)
	}
	if err := h.waitIdle(); err != nil {
		t.Fatal(err)
	}
	if n := h.sup.Metrics().Counter("recovery.log_missing").Value(); n != 1 {
		t.Fatalf("recovery.log_missing = %d, want 1", n)
	}
	if _, err := h.cons.WorkflowRestart(); err != nil {
		t.Fatal(err)
	}
	// The replayed read spans the promoted (empty) slot: its piece of
	// every logged version died with the server.
	if _, _, err := h.cons.GetWithLog("field", 3, h.global); err == nil {
		t.Fatal("replay read succeeded although the queue died with the server")
	}
}
