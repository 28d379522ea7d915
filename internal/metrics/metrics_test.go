package metrics

import (
	"strings"
	"sync"
	"testing"
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

func TestRegistryIdentityAndSnapshot(t *testing.T) {
	r := NewRegistry()
	if r.Counter("puts") != r.Counter("puts") {
		t.Fatal("same name returned different counters")
	}
	r.Counter("puts").Add(3)
	r.Gauge("bytes").Set(42)
	snap := r.Snapshot()
	for _, want := range []string{"counter puts = 3", "gauge bytes = 42"} {
		if !strings.Contains(snap, want) {
			t.Fatalf("snapshot missing %q:\n%s", want, snap)
		}
	}
}
