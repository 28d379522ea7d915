package staging

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"time"

	"gospaces/internal/domain"
	"gospaces/internal/synth"
)

// TestLockCoupledCycle drives the DataSpaces coupling idiom through the
// staging protocol: the producer brackets each version's puts with the
// write lock, consumers bracket reads with read locks, and no consumer
// ever observes a torn (partially written) version.
func TestLockCoupledCycle(t *testing.T) {
	g := testGroup(t, 4)
	global := g.Config().Global
	field := synth.NewField("f", global, 8)
	dec, err := domain.NewDecomposition(global, []int{2, 1, 1})
	if err != nil {
		t.Fatal(err)
	}

	const steps = 8
	var produced atomic.Int64
	var wg sync.WaitGroup
	wg.Add(2)
	errs := make(chan error, 8)

	// Producer: two rank chunks per version, under one write lock.
	go func() {
		defer wg.Done()
		c, err := g.NewClient("sim/0")
		if err != nil {
			errs <- err
			return
		}
		defer c.Close()
		for ts := int64(1); ts <= steps; ts++ {
			if err := c.LockOnWrite("f"); err != nil {
				errs <- err
				return
			}
			for r := 0; r < dec.NRanks; r++ {
				box, _ := dec.RankBox(r)
				if err := c.PutWithLog("f", ts, box, field.Fill(ts, box)); err != nil {
					errs <- err
					return
				}
			}
			produced.Store(ts)
			if err := c.UnlockOnWrite("f"); err != nil {
				errs <- err
				return
			}
		}
	}()

	// Consumer: polls under the read lock; whatever the latest complete
	// version is, it must read back intact.
	go func() {
		defer wg.Done()
		c, err := g.NewClient("ana/0")
		if err != nil {
			errs <- err
			return
		}
		defer c.Close()
		seen := int64(0)
		for seen < steps {
			if err := c.LockOnRead("f"); err != nil {
				errs <- err
				return
			}
			ts := produced.Load()
			if ts > seen {
				data, _, err := c.GetWithLog("f", ts, global)
				if err != nil {
					errs <- err
					return
				}
				if field.Verify(ts, global, data) >= 0 {
					errs <- errTorn(ts)
					return
				}
				seen = ts
			}
			if err := c.UnlockOnRead("f"); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type errTorn int64

func (e errTorn) Error() string { return "torn read at version " + string(rune('0'+e)) }

func TestLockErrorsSurfaceToClient(t *testing.T) {
	g := testGroup(t, 2)
	c, _ := g.NewClient("x/0")
	defer c.Close()
	if err := c.UnlockOnWrite("never-locked"); err == nil ||
		!strings.Contains(err.Error(), "not held") {
		t.Fatalf("err = %v", err)
	}
	if err := c.LockOnRead("f"); err != nil {
		t.Fatal(err)
	}
	if err := c.LockOnWrite("f"); err == nil {
		t.Fatal("upgrade allowed over RPC")
	}
}

// TestWorkflowRestartReleasesLocks: a component that dies holding locks
// must not dam the workflow after recovery.
func TestWorkflowRestartReleasesLocks(t *testing.T) {
	g := testGroup(t, 2)
	dead, _ := g.NewClient("dead/0")
	defer dead.Close()
	if err := dead.LockOnWrite("f"); err != nil {
		t.Fatal(err)
	}
	// "dead/0" crashes and restarts: workflow_restart must free its lock.
	if _, err := dead.WorkflowRestart(); err != nil {
		t.Fatal(err)
	}
	other, _ := g.NewClient("alive/0")
	defer other.Close()
	done := make(chan error, 1)
	go func() { done <- other.LockOnWrite("f") }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("lock still held by recovered component")
	}
}

// TestRecoveryFailsQueuedAcquire: a component dies while its write
// acquire is queued behind the producer's lock, and the lock server
// handles its RecoveryReq. The queued acquire fails instead of being
// granted when the producer releases, so the restarted incarnation's
// first lock operation runs (a dedup row of the dead one would shadow
// its Seq 1) and the producer's next write lock is not dammed.
func TestRecoveryFailsQueuedAcquire(t *testing.T) {
	g := testGroup(t, 2)
	srv := g.Server(lockServer)
	sim, _ := g.NewClient("sim/0")
	defer sim.Close()
	dead, _ := g.NewClient("ana/0")
	defer dead.Close()
	if err := sim.LockOnWrite("f"); err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() { queued <- dead.LockOnWrite("f") }()
	for deadline := time.Now().Add(5 * time.Second); srv.locks.Waiting("f") != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("ana/0's acquire never queued")
		}
	}
	if _, err := srv.Handle(RecoveryReq{App: "ana/0"}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-queued:
		if err == nil || !strings.Contains(err.Error(), "released") {
			t.Fatalf("the dead incarnation's queued acquire = %v, want it released", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the dead incarnation's acquire is still queued after its recovery")
	}
	if err := sim.UnlockOnWrite("f"); err != nil {
		t.Fatal(err)
	}
	if w, _ := srv.locks.Holders("f"); w != "" {
		t.Fatalf("writer %q after the producer's release, want none", w)
	}
	restarted, _ := g.NewClient("ana/0") // its lock sequence starts at 1 again
	defer restarted.Close()
	if err := restarted.LockOnWrite("f"); err != nil {
		t.Fatalf("the restarted incarnation's first acquire: %v", err)
	}
	if err := restarted.UnlockOnWrite("f"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- sim.LockOnWrite("f") }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the producer's next write lock is blocked")
	}
}

// TestLockFaultKeepsItsTypeOverTCP: a failed lock operation answered
// over loopback TCP matches its sentinel, as it does in process: the
// lock error is a registered wire type, so the remote error carries it.
func TestLockFaultKeepsItsTypeOverTCP(t *testing.T) {
	cl := listenTCP(t, NewServer(0))
	for _, f := range lockFaults {
		for _, req := range f.before {
			if _, err := cl.Call(req); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := cl.Call(f.req); !errors.Is(err, f.want) {
			t.Fatalf("%+v over TCP = %v, want %v", f.req, err, f.want)
		}
	}
}
