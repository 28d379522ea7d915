package main

import (
	"testing"

	"gospaces"
)

func TestSplitHostPort(t *testing.T) {
	h, p, err := splitHostPort("127.0.0.1:7070")
	if err != nil || h != "127.0.0.1" || p != 7070 {
		t.Fatalf("got %q %d %v", h, p, err)
	}
	h, p, err = splitHostPort(":8080")
	if err != nil || h != "" || p != 8080 {
		t.Fatalf("got %q %d %v", h, p, err)
	}
	for _, bad := range []string{"nohost", "host:", "host:x", "host:-1"} {
		if _, _, err := splitHostPort(bad); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

func TestParseQoS(t *testing.T) {
	cfg, err := parseQoS("lo:staging=4096,wlog=8192,prio=0; hi:prio=2; mid", 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.HighWater != 0.8 {
		t.Fatalf("high water = %v", cfg.HighWater)
	}
	lo := cfg.Tenants["lo"]
	if lo.StagingBytes != 4096 || lo.WlogBytes != 8192 || lo.Priority != 0 {
		t.Fatalf("lo quota = %+v", lo)
	}
	if hi := cfg.Tenants["hi"]; hi.Priority != 2 || hi.StagingBytes != 0 {
		t.Fatalf("hi quota = %+v", hi)
	}
	if _, ok := cfg.Tenants["mid"]; !ok {
		t.Fatal("bare tenant name (unlimited quota) rejected")
	}
	for _, bad := range []string{"", ";", ":staging=1", "lo:staging", "lo:staging=x", "lo:ram=1", "lo:staging=-1"} {
		if _, err := parseQoS(bad, 0); err == nil {
			t.Fatalf("%q accepted", bad)
		}
	}
}

func TestApplyTierFlags(t *testing.T) {
	var opts gospaces.ServeOptions
	if err := applyTierFlags(&opts, "/tmp/tier", 1<<20); err != nil {
		t.Fatal(err)
	}
	if opts.TierDir != "/tmp/tier" || opts.MemoryBudget != 1<<20 {
		t.Fatalf("tier opts = %+v", opts)
	}

	// A budget without a tier is plain backpressure — still valid.
	opts = gospaces.ServeOptions{}
	if err := applyTierFlags(&opts, "", 4096); err != nil {
		t.Fatal(err)
	}
	if opts.MemoryBudget != 4096 || opts.TierDir != "" {
		t.Fatalf("budget-only opts = %+v", opts)
	}

	bad := []struct {
		dir    string
		budget int64
	}{
		{"/tmp/tier", 0}, // tier without a budget never spills
		{"", -1},         // negative budget
	}
	for _, b := range bad {
		opts = gospaces.ServeOptions{}
		if err := applyTierFlags(&opts, b.dir, b.budget); err == nil {
			t.Fatalf("accepted dir=%q budget=%d", b.dir, b.budget)
		}
	}
}
