package qos

import (
	"fmt"
	"testing"
)

// BenchmarkAdmit measures the admission fast path: the per-put cost a
// loaded server pays before touching the store. It must stay cheap —
// admission control that slows down admitted traffic defeats itself.
func BenchmarkAdmit(b *testing.B) {
	c := NewController(Config{
		Tenants: map[string]Quota{
			"hi": {StagingBytes: 1 << 40, Priority: 2},
			"lo": {StagingBytes: 1 << 40, Priority: 0},
		},
	}, nil)
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("hi/var%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := names[i&63]
		if rej := c.AdmitPut(n, 4096, true, 1<<30, 1<<40, Signals{QueueDepth: 3}); rej != nil {
			b.Fatalf("unexpected rejection: %v", rej)
		}
		c.Charge(n, 4096, 4096)
		c.Charge(n, -4096, -4096)
	}
}

// BenchmarkSchedulerUncontended measures the gate's cost when slots are
// free — the common case every admitted request pays.
func BenchmarkSchedulerUncontended(b *testing.B) {
	s := NewScheduler(Config{}, nil)
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Acquire(LaneForeground); err != nil {
			b.Fatal(err)
		}
		s.Release(LaneForeground)
	}
}
