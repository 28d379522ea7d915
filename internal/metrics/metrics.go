// Package metrics provides the lightweight counters, gauges, and timing
// accumulators used by the staging service and the experiment harness:
// cumulative write response time, staging memory usage, replay counts.
// All types are safe for concurrent use.
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing int64.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable int64 value, e.g. bytes currently resident.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Timer accumulates durations: total and count.
type Timer struct {
	mu    sync.Mutex
	total time.Duration
	count int64
}

// Observe records one duration.
func (t *Timer) Observe(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.total += d
	t.count++
}

// Total returns the cumulative observed time.
func (t *Timer) Total() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Count returns the number of observations.
func (t *Timer) Count() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count
}

// Mean returns the average observation, or 0 with no observations.
func (t *Timer) Mean() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.count == 0 {
		return 0
	}
	return t.total / time.Duration(t.count)
}

// Registry is a named collection of metrics, one per staging server or
// experiment run.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		timers:   make(map[string]*Timer),
	}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timer returns (creating if needed) the named timer.
func (r *Registry) Timer(name string) *Timer {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[name]
	if !ok {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// Snapshot renders all metrics sorted by name, for logs and the dsctl
// stats command.
func (r *Registry) Snapshot() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var lines []string
	for n, c := range r.counters {
		lines = append(lines, fmt.Sprintf("counter %s = %d", n, c.Value()))
	}
	for n, g := range r.gauges {
		lines = append(lines, fmt.Sprintf("gauge %s = %d", n, g.Value()))
	}
	for n, t := range r.timers {
		lines = append(lines, fmt.Sprintf("timer %s: count=%d total=%v mean=%v", n, t.Count(), t.Total(), t.Mean()))
	}
	sort.Strings(lines)
	out := ""
	for _, l := range lines {
		out += l + "\n"
	}
	return out
}
