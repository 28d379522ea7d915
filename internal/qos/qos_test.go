package qos

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"gospaces/internal/codec"
)

func TestTenantOf(t *testing.T) {
	cases := []struct{ name, want string }{
		{"hi/temperature", "hi"},
		{"lo/pressure/x", "lo"},
		{"temperature", DefaultTenant},
		{"/weird", DefaultTenant}, // empty prefix falls back
		{"", DefaultTenant},
	}
	for _, c := range cases {
		if got := TenantOf(c.name); got != c.want {
			t.Errorf("TenantOf(%q) = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestErrOverloadedRoundTrip(t *testing.T) {
	orig := &ErrOverloaded{Tenant: "lo", Resource: ResourceStaging, RetryAfter: 125 * time.Millisecond}

	// errors.As path (in-proc transport returns the value directly).
	wrapped := fmt.Errorf("staging put: %w", orig)
	got, ok := FromError(wrapped)
	if !ok || got.Tenant != "lo" || got.Resource != ResourceStaging || got.RetryAfter != orig.RetryAfter {
		t.Fatalf("FromError(errors.As path) = %+v, %v", got, ok)
	}

	// Wire path: the rejection is a registered message, so a remote
	// transport delivers it decoded (transport's
	// TestRetryAfterSurvivesRemoteErrorWire drives it over TCP).
	wire, ok := codec.Marshal(nil, orig)
	if !ok {
		t.Fatal("*ErrOverloaded is not registered with the wire codec")
	}
	back, err := codec.Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := back.(*ErrOverloaded); !ok || *got != *orig {
		t.Fatalf("wire round trip = %#v, want %+v", back, orig)
	}

	// Text that merely reads like a rejection is not one.
	if _, ok := FromError(errors.New("rpc: remote error: " + orig.Error())); ok {
		t.Fatal("FromError matched a string look-alike")
	}
	if _, ok := FromError(nil); ok {
		t.Fatal("FromError matched nil")
	}
}

func TestAdmitTenantStagingQuota(t *testing.T) {
	c := NewController(Config{
		Tenants: map[string]Quota{"lo": {StagingBytes: 100}},
	}, nil)

	if rej := c.AdmitPut("lo/x", 80, false, 0, 0, Signals{}); rej != nil {
		t.Fatalf("first put rejected: %v", rej)
	}
	c.Charge("lo/x", 80, 0)
	rej := c.AdmitPut("lo/y", 40, false, 0, 0, Signals{})
	if rej == nil {
		t.Fatal("over-quota put admitted")
	}
	if rej.Tenant != "lo" || rej.Resource != ResourceStaging {
		t.Fatalf("rejection = %+v", rej)
	}
	if rej.RetryAfter <= 0 {
		t.Fatal("rejection carries no retry-after hint")
	}
	// Freeing brings the tenant back under quota.
	c.Charge("lo/x", -80, 0)
	if rej := c.AdmitPut("lo/y", 40, false, 0, 0, Signals{}); rej != nil {
		t.Fatalf("post-free put rejected: %v", rej)
	}
	// Other tenants are unaffected throughout.
	if rej := c.AdmitPut("hi/z", 1000, false, 0, 0, Signals{}); rej != nil {
		t.Fatalf("unrelated tenant rejected: %v", rej)
	}
}

func TestAdmitWlogQuotaOnlyChargesLoggedPuts(t *testing.T) {
	c := NewController(Config{
		Tenants: map[string]Quota{"lo": {WlogBytes: 100}},
	}, nil)
	c.Charge("lo/x", 90, 90)

	if rej := c.AdmitPut("lo/y", 50, false, 0, 0, Signals{}); rej != nil {
		t.Fatalf("unlogged put hit wlog quota: %v", rej)
	}
	rej := c.AdmitPut("lo/y", 50, true, 0, 0, Signals{})
	if rej == nil || rej.Resource != ResourceWlog {
		t.Fatalf("logged over-quota put: %+v", rej)
	}
}

func TestGlobalShedIsPriorityOrdered(t *testing.T) {
	c := NewController(Config{
		Tenants:   map[string]Quota{"lo": {Priority: 0}, "hi": {Priority: 2}},
		Default:   Quota{Priority: 1},
		HighWater: 0.7,
	}, nil)
	const budget = 1000

	// At 80% of budget: priority 0 (threshold 0.7) sheds, priority 2
	// (threshold 1.0) and the default tenant (threshold 0.85) admit.
	used := int64(790)
	if rej := c.AdmitPut("lo/a", 10, false, used, budget, Signals{}); rej == nil {
		t.Fatal("low-priority put admitted above its shed threshold")
	} else if rej.Resource != ResourceGlobal {
		t.Fatalf("rejection resource = %q", rej.Resource)
	}
	if rej := c.AdmitPut("mid", 10, false, used, budget, Signals{}); rej != nil {
		t.Fatalf("default-priority put shed below its threshold: %v", rej)
	}
	if rej := c.AdmitPut("hi/a", 10, false, used, budget, Signals{}); rej != nil {
		t.Fatalf("high-priority put shed below ceiling: %v", rej)
	}

	// Nobody may exceed the full budget.
	if rej := c.AdmitPut("hi/a", 10, false, budget, budget, Signals{}); rej == nil {
		t.Fatal("high-priority put admitted past the hard ceiling")
	}
}

func TestRetryAfterGrowsWithPressureAndIsCapped(t *testing.T) {
	cfg := Config{RetryAfterBase: 10 * time.Millisecond, RetryAfterMax: 500 * time.Millisecond}
	c := NewController(cfg, nil)

	calm := c.retryAfter(1, Signals{})
	loaded := c.retryAfter(1.5, Signals{QueueDepth: 32, ReplLag: 256})
	if loaded <= calm {
		t.Fatalf("retry-after did not grow with pressure: calm=%v loaded=%v", calm, loaded)
	}
	if loaded > 500*time.Millisecond {
		t.Fatalf("retry-after exceeds cap: %v", loaded)
	}
	if huge := c.retryAfter(1e9, Signals{QueueDepth: 1 << 20}); huge != 500*time.Millisecond {
		t.Fatalf("extreme pressure not capped: %v", huge)
	}
}

func TestRebaseRebuildsUsageFromItems(t *testing.T) {
	c := NewController(Config{
		Tenants: map[string]Quota{"lo": {StagingBytes: 100}},
	}, nil)
	c.Charge("lo/x", 60, 60)
	c.Charge("hi/y", 40, 0)
	// Shed once so the counter has something to survive.
	if rej := c.AdmitPut("lo/z", 100, false, 0, 0, Signals{}); rej == nil {
		t.Fatal("expected shed")
	}

	// GC dropped lo/x down to 20 bytes and hi/y entirely.
	c.Rebase([]UsageItem{{Name: "lo/x", Bytes: 20, Logged: true}})

	stats := c.Snapshot()
	byTenant := map[string]TenantStat{}
	for _, s := range stats {
		byTenant[s.Tenant] = s
	}
	lo := byTenant["lo"]
	if lo.StoreBytes != 20 || lo.WlogBytes != 20 {
		t.Fatalf("lo usage after rebase = %+v", lo)
	}
	if lo.Sheds != 1 {
		t.Fatalf("shed counter lost across rebase: %+v", lo)
	}
	if hi := byTenant["hi"]; hi.StoreBytes != 0 {
		t.Fatalf("hi usage after rebase = %+v", hi)
	}
	// lo is back under quota now.
	if rej := c.AdmitPut("lo/z", 50, false, 0, 0, Signals{}); rej != nil {
		t.Fatalf("post-rebase put rejected: %v", rej)
	}
}

func TestSnapshotSortedAndQuotaAnnotated(t *testing.T) {
	c := NewController(Config{
		Tenants: map[string]Quota{"b": {StagingBytes: 10, Priority: 1}, "a": {WlogBytes: 5}},
	}, nil)
	c.Charge("b/x", 3, 0)
	c.Charge("a/x", 2, 2)
	s := c.Snapshot()
	if len(s) != 2 || s[0].Tenant != "a" || s[1].Tenant != "b" {
		t.Fatalf("snapshot order: %+v", s)
	}
	if s[1].StagingQuota != 10 || s[1].Priority != 1 || s[0].WlogQuota != 5 {
		t.Fatalf("snapshot quotas: %+v", s)
	}
}

func TestSpillWaterDefaultsBelowHighWater(t *testing.T) {
	c := NewController(Config{}, nil).Config()
	if want := 0.85 * c.HighWater; c.SpillWater() != want {
		t.Fatalf("SpillWater %v, want %v (85%% of HighWater)", c.SpillWater(), want)
	}
	if c.SpillWater() >= c.HighWater {
		t.Fatal("spill must trigger strictly before the shed rule")
	}
}
