package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("count = %d", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(100)
	g.Add(-30)
	if g.Value() != 70 {
		t.Fatalf("gauge = %d", g.Value())
	}
}

func TestTimerStats(t *testing.T) {
	var tm Timer
	tm.Observe(2 * time.Second)
	tm.Observe(4 * time.Second)
	tm.Observe(6 * time.Second)
	if tm.Count() != 3 || tm.Total() != 12*time.Second || tm.Mean() != 4*time.Second {
		t.Fatalf("count=%d total=%v mean=%v", tm.Count(), tm.Total(), tm.Mean())
	}
}

func TestTimerEmptyMean(t *testing.T) {
	var tm Timer
	if tm.Mean() != 0 {
		t.Fatal("empty timer mean should be 0")
	}
}

func TestRegistryIdentityAndSnapshot(t *testing.T) {
	r := NewRegistry()
	if r.Counter("puts") != r.Counter("puts") {
		t.Fatal("same name returned different counters")
	}
	r.Counter("puts").Add(3)
	r.Gauge("bytes").Set(42)
	r.Timer("write").Observe(time.Millisecond)
	snap := r.Snapshot()
	for _, want := range []string{"counter puts = 3", "gauge bytes = 42", "timer write: count=1"} {
		if !strings.Contains(snap, want) {
			t.Fatalf("snapshot missing %q:\n%s", want, snap)
		}
	}
}
