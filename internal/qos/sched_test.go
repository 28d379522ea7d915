package qos

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSchedulerControlBypasses(t *testing.T) {
	s := newScheduler(1, nil)
	defer s.Close()
	if err := s.Acquire(LaneForeground); err != nil {
		t.Fatal(err)
	}
	// Gate is full; control traffic must still pass immediately.
	done := make(chan struct{})
	go func() {
		if err := s.Acquire(LaneControl); err != nil {
			t.Error(err)
		}
		s.Release(LaneControl)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("control lane blocked behind a full gate")
	}
	s.Release(LaneForeground)
}

func TestSchedulerBlocksAtCapacityAndGrantsFIFO(t *testing.T) {
	s := newScheduler(2, nil)
	defer s.Close()
	for i := 0; i < 2; i++ {
		if err := s.Acquire(LaneForeground); err != nil {
			t.Fatal(err)
		}
	}
	granted := make(chan int, 2)
	for i := 0; i < 2; i++ {
		i := i
		go func() {
			if err := s.Acquire(LaneForeground); err != nil {
				t.Error(err)
				return
			}
			granted <- i
		}()
	}
	select {
	case i := <-granted:
		t.Fatalf("acquire %d succeeded past capacity", i)
	case <-time.After(50 * time.Millisecond):
	}
	if d := s.QueueDepth(); d != 2 {
		t.Fatalf("queue depth = %d, want 2", d)
	}
	s.Release(LaneForeground)
	select {
	case <-granted:
	case <-time.After(2 * time.Second):
		t.Fatal("release did not wake a waiter")
	}
	s.Release(LaneForeground)
	select {
	case <-granted:
	case <-time.After(2 * time.Second):
		t.Fatal("second release did not wake the second waiter")
	}
}

// TestSchedulerWeightedFairness drives both lanes to saturation and
// checks the contended grant ratio tracks the configured 3:1 weights —
// recovery is neither starved by foreground pressure nor dominant.
func TestSchedulerWeightedFairness(t *testing.T) {
	s := newScheduler(1, nil)
	defer s.Close()

	const perLane = 200
	var fg, rec atomic.Int64
	var order sync.Mutex
	var trace []int

	// Hold the only slot so every worker queues before grants begin.
	if err := s.Acquire(LaneForeground); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < perLane; i++ {
		for _, lane := range []Lane{LaneForeground, LaneRecovery} {
			lane := lane
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if err := s.Acquire(lane); err != nil {
					t.Error(err)
					return
				}
				if lane == LaneForeground {
					fg.Add(1)
				} else {
					rec.Add(1)
				}
				order.Lock()
				trace = append(trace, laneIdx(lane))
				order.Unlock()
				s.Release(lane)
			}()
		}
	}
	close(start)
	// Let the workers enqueue, then open the gate.
	time.Sleep(100 * time.Millisecond)
	s.Release(LaneForeground)
	wg.Wait()

	if fg.Load() != perLane || rec.Load() != perLane {
		t.Fatalf("lost grants: fg=%d rec=%d", fg.Load(), rec.Load())
	}
	// While both lanes still had waiters (the first 2*min window), the
	// ratio must reflect the weights. Look at the first half of the
	// trace where contention is guaranteed.
	order.Lock()
	window := trace[:perLane]
	order.Unlock()
	var wFg, wRec int
	for _, l := range window {
		if l == 0 {
			wFg++
		} else {
			wRec++
		}
	}
	if wRec == 0 {
		t.Fatal("recovery lane starved under contention")
	}
	ratio := float64(wFg) / float64(wRec)
	if ratio < 1.5 || ratio > 6 {
		t.Fatalf("contended grant ratio %.2f (fg=%d rec=%d), want ~3", ratio, wFg, wRec)
	}
}

func TestSchedulerWorkConservingWhenOneLaneIdle(t *testing.T) {
	s := newScheduler(1, nil)
	defer s.Close()
	if err := s.Acquire(LaneRecovery); err != nil {
		t.Fatal(err)
	}
	// Many recovery-only waiters must all be served even though the
	// recovery weight is 1 — weights only matter under contention.
	done := make(chan struct{}, 8)
	for i := 0; i < 8; i++ {
		go func() {
			if err := s.Acquire(LaneRecovery); err != nil {
				t.Error(err)
				return
			}
			done <- struct{}{}
			s.Release(LaneRecovery)
		}()
	}
	time.Sleep(20 * time.Millisecond)
	s.Release(LaneRecovery)
	for i := 0; i < 8; i++ {
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatalf("recovery-only waiter %d starved", i)
		}
	}
}

func TestSchedulerCloseWakesWaiters(t *testing.T) {
	s := newScheduler(1, nil)
	if err := s.Acquire(LaneForeground); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 1)
	go func() { errs <- s.Acquire(LaneRecovery) }()
	time.Sleep(20 * time.Millisecond)
	s.Close()
	select {
	case err := <-errs:
		if err != ErrSchedClosed {
			t.Fatalf("waiter error = %v, want ErrSchedClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not wake the waiter")
	}
	if err := s.Acquire(LaneForeground); err != ErrSchedClosed {
		t.Fatalf("post-close acquire = %v, want ErrSchedClosed", err)
	}
	s.Close() // idempotent
}
