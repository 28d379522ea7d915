package mpi

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func makeComm(w *World, n int) (*Comm, []*Proc) {
	procs := make([]*Proc, n)
	for i := range procs {
		procs[i] = w.NewProc()
	}
	return w.NewComm(procs), procs
}

func TestSendRecvFIFO(t *testing.T) {
	w := NewWorld()
	comm, procs := makeComm(w, 2)
	done := make(chan error, 2)
	go func() {
		for i := 0; i < 10; i++ {
			if err := comm.Send(procs[0], 1, 7, i); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	go func() {
		for i := 0; i < 10; i++ {
			v, err := comm.Recv(procs[1], 0, 7)
			if err != nil {
				done <- err
				return
			}
			if v.(int) != i {
				done <- errors.New("out of order")
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestTagsIsolate(t *testing.T) {
	w := NewWorld()
	comm, procs := makeComm(w, 2)
	if err := comm.Send(procs[0], 1, 1, "tag1"); err != nil {
		t.Fatal(err)
	}
	if err := comm.Send(procs[0], 1, 2, "tag2"); err != nil {
		t.Fatal(err)
	}
	v, err := comm.Recv(procs[1], 0, 2)
	if err != nil || v.(string) != "tag2" {
		t.Fatalf("got %v %v", v, err)
	}
	v, err = comm.Recv(procs[1], 0, 1)
	if err != nil || v.(string) != "tag1" {
		t.Fatalf("got %v %v", v, err)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	w := NewWorld()
	const n = 8
	comm, procs := makeComm(w, n)
	var before, after sync.WaitGroup
	before.Add(n)
	after.Add(n)
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			before.Done()
			errs <- comm.Barrier(procs[i])
			after.Done()
		}(i)
	}
	before.Wait()
	after.Wait()
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// A second barrier on the same comm works (phases advance).
	errs2 := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) { errs2 <- comm.Barrier(procs[i]) }(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs2; err != nil {
			t.Fatal(err)
		}
	}
}

func TestKillRevokesBarrier(t *testing.T) {
	w := NewWorld()
	const n = 4
	comm, procs := makeComm(w, n)
	errs := make(chan error, n-1)
	for i := 0; i < n-1; i++ {
		go func(i int) { errs <- comm.Barrier(procs[i]) }(i)
	}
	time.Sleep(10 * time.Millisecond) // let them block
	w.Kill(procs[n-1])
	for i := 0; i < n-1; i++ {
		if err := <-errs; !errors.Is(err, ErrRevoked) {
			t.Fatalf("err = %v, want ErrRevoked", err)
		}
	}
	if !comm.Revoked() {
		t.Fatal("comm not revoked")
	}
	if err := comm.Barrier(procs[0]); !errors.Is(err, ErrRevoked) {
		t.Fatalf("later barrier: %v", err)
	}
	for i, p := range procs {
		if p.Dead() != (i == n-1) {
			t.Fatalf("rank %d dead = %v", i, p.Dead())
		}
	}
}

func TestRecvFromDeadPeerErrors(t *testing.T) {
	w := NewWorld()
	comm, procs := makeComm(w, 2)
	errs := make(chan error, 1)
	go func() {
		_, err := comm.Recv(procs[1], 0, 0)
		errs <- err
	}()
	time.Sleep(10 * time.Millisecond)
	w.Kill(procs[0])
	err := <-errs
	var pf ProcFailedError
	if !errors.As(err, &pf) && !errors.Is(err, ErrRevoked) {
		t.Fatalf("err = %v", err)
	}
}

func TestMessageBeforeDeathIsDelivered(t *testing.T) {
	w := NewWorld()
	comm, procs := makeComm(w, 2)
	if err := comm.Send(procs[0], 1, 0, "last words"); err != nil {
		t.Fatal(err)
	}
	w.Kill(procs[0])
	v, err := comm.Recv(procs[1], 0, 0)
	if err != nil || v.(string) != "last words" {
		t.Fatalf("got %v %v", v, err)
	}
}

func TestSendToDeadErrors(t *testing.T) {
	w := NewWorld()
	comm, procs := makeComm(w, 2)
	w.Kill(procs[1])
	err := comm.Send(procs[0], 1, 0, "x")
	var pf ProcFailedError
	if !errors.As(err, &pf) && !errors.Is(err, ErrRevoked) {
		t.Fatalf("err = %v", err)
	}
}

func TestDeadCallerErrors(t *testing.T) {
	w := NewWorld()
	comm, procs := makeComm(w, 2)
	w.Kill(procs[0])
	if err := comm.Send(procs[0], 1, 0, "x"); !errors.Is(err, ErrDead) && !errors.Is(err, ErrRevoked) {
		t.Fatalf("err = %v", err)
	}
}

func TestRepairWithSpares(t *testing.T) {
	w := NewWorld()
	comm, procs := makeComm(w, 4)
	pool := NewSparePool(w, 2)
	w.Kill(procs[2])
	fixed, replaced, err := comm.Repair(pool)
	if err != nil {
		t.Fatal(err)
	}
	if len(replaced) != 1 || replaced[0] != 2 {
		t.Fatalf("replaced = %v", replaced)
	}
	if len(fixed.Members()) != 4 {
		t.Fatalf("size=%d", len(fixed.Members()))
	}
	// One spare is left: the next draw succeeds, the one after fails.
	if _, ok := pool.Get(); !ok {
		t.Fatal("spares=0, want 1")
	}
	if _, ok := pool.Get(); ok {
		t.Fatal("spares=2, want 1")
	}
	// The repaired comm is fully operational.
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		m := fixed.members[i]
		go func() { errs <- fixed.Barrier(m) }()
	}
	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestRepairPoolExhausted(t *testing.T) {
	w := NewWorld()
	comm, procs := makeComm(w, 3)
	pool := NewSparePool(w, 0)
	w.Kill(procs[0])
	if _, _, err := comm.Repair(pool); err == nil {
		t.Fatal("repair with empty pool succeeded")
	}
}

func TestBadRankArguments(t *testing.T) {
	w := NewWorld()
	comm, procs := makeComm(w, 2)
	if err := comm.Send(procs[0], 9, 0, "x"); err == nil {
		t.Fatal("bad dst accepted")
	}
	if _, err := comm.Recv(procs[0], -1, 0); err == nil {
		t.Fatal("bad src accepted")
	}
	if comm.Rank(w.NewProc()) != -1 {
		t.Fatal("foreign proc has a rank")
	}
}

// TestManyRanksStress runs a realistic pattern: barrier, neighbour
// exchange, barrier, repeated, with GOMAXPROCS-level parallelism. The
// second barrier stands in for a reduction: every rank counts its step
// before it, so past it each reads the count of all n.
func TestManyRanksStress(t *testing.T) {
	w := NewWorld()
	const n = 16
	comm, procs := makeComm(w, n)
	var done atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			p := procs[rank]
			for step := 0; step < 20; step++ {
				if err := comm.Barrier(p); err != nil {
					errs <- err
					return
				}
				right := (rank + 1) % n
				left := (rank + n - 1) % n
				if err := comm.Send(p, right, 5, rank); err != nil {
					errs <- err
					return
				}
				v, err := comm.Recv(p, left, 5)
				if err != nil {
					errs <- err
					return
				}
				if v.(int) != left {
					errs <- errors.New("wrong halo value")
					return
				}
				done.Add(1)
				if err := comm.Barrier(p); err != nil {
					errs <- err
					return
				}
				if sum := done.Load(); sum < int64(n*(step+1)) {
					errs <- errors.New("wrong reduce value")
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestSelfSendRecv(t *testing.T) {
	w := NewWorld()
	comm, procs := makeComm(w, 2)
	if err := comm.Send(procs[0], 0, 1, "note to self"); err != nil {
		t.Fatal(err)
	}
	v, err := comm.Recv(procs[0], 0, 1)
	if err != nil || v.(string) != "note to self" {
		t.Fatalf("self message: %v %v", v, err)
	}
}

func TestSingleMemberCollectives(t *testing.T) {
	w := NewWorld()
	comm, procs := makeComm(w, 1)
	// A lone member completes every phase on arrival.
	for phase := 0; phase < 3; phase++ {
		if err := comm.Barrier(procs[0]); err != nil {
			t.Fatalf("phase %d: %v", phase, err)
		}
	}
}

func TestCollectiveDoubleEntryDetected(t *testing.T) {
	w := NewWorld()
	comm, procs := makeComm(w, 2)
	done := make(chan error, 1)
	go func() { done <- comm.Barrier(procs[1]) }()
	time.Sleep(10 * time.Millisecond)
	// procs[1] is parked in the phase; a second entry by the same proc
	// (API misuse) must error, not corrupt the phase.
	if err := comm.Barrier(procs[1]); err == nil {
		t.Fatal("double entry accepted")
	}
	if err := comm.Barrier(procs[0]); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
