// Package qos is the multi-tenant admission-control layer of the
// staging service. It makes overload a first-class, gracefully-degraded
// fault instead of a crash: every object name carries a tenant prefix,
// each tenant has quotas on staging memory and logged (wlog-protected)
// bytes, and a put that cannot be admitted is rejected with a typed
// ErrOverloaded carrying a server-computed retry-after hint — never by
// growing staging RAM without bound.
//
// Three cooperating pieces live here:
//
//   - TenantOf / Quota / Config: the tenant namespace over object names
//     and the per-tenant resource policy.
//   - Controller: per-tenant byte accounting plus the admit/shed
//     decision. Under sustained global pressure it sheds the
//     lowest-priority tenants first, and computes RetryAfter from the
//     live decision signals (quota overshoot, lane queue depth, wlog
//     replication lag).
//   - Scheduler (sched.go): the weighted two-lane concurrency gate that
//     keeps recovery traffic and foreground traffic from
//     starving each other at the server's frame-dispatch level.
//
// The package deliberately has no transport dependency: ErrOverloaded
// renders to (and parses back from) a canonical string, so the typed
// rejection survives the TCP wire where handler errors travel as
// messages.
package qos

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"gospaces/internal/codec"
	"gospaces/internal/metrics"
)

// DefaultTenant is the namespace of object names without a tenant
// prefix (no "/" in the name).
const DefaultTenant = "default"

// TenantOf maps an object name to its tenant namespace: the prefix
// before the first "/", or DefaultTenant when there is none.
// "hi/temperature" belongs to tenant "hi"; "temperature" to "default".
func TenantOf(name string) string {
	if i := strings.IndexByte(name, '/'); i > 0 {
		return name[:i]
	}
	return DefaultTenant
}

// Resource names the quota dimension an overload rejection is about.
const (
	// ResourceStaging is the per-tenant resident staging-memory quota.
	ResourceStaging = "staging_bytes"
	// ResourceWlog is the per-tenant logged (wlog-protected) byte quota.
	ResourceWlog = "wlog_bytes"
	// ResourceGlobal is the server-wide staging-RAM ceiling; rejections
	// against it are priority-ordered load shedding.
	ResourceGlobal = "staging_ram"
)

// Quota is one tenant's resource policy.
type Quota struct {
	// StagingBytes caps the tenant's resident staging payload bytes on
	// one server (0 = unlimited).
	StagingBytes int64
	// WlogBytes caps the tenant's resident logged payload bytes (the
	// bytes the event log must retain for replay) on one server
	// (0 = unlimited).
	WlogBytes int64
	// Priority orders tenants for load shedding under global pressure:
	// higher-priority tenants are shed last. 0 is the lowest priority.
	Priority int
}

// Config is the admission-control policy of one staging server.
type Config struct {
	// Tenants maps tenant names to their quotas; tenants not listed get
	// Default.
	Tenants map[string]Quota
	// Default is the quota applied to unlisted tenants.
	Default Quota
	// HighWater is the fraction of the server's global memory budget at
	// which priority-ordered shedding begins (default 0.7): at HighWater
	// the lowest-priority tenant is shed, and the shed threshold rises
	// linearly with priority until the full budget, which nobody may
	// exceed. Recovery and wlog-replication traffic is never shed.
	HighWater float64
}

// The retry-after hint's scale and cap, and the lane scheduler's bound
// on gated requests running at once (control-plane traffic bypasses the
// gate) and its lane service ratio under contention: of every 4
// contended grants, 3 go to foreground puts/gets and 1 to recovery, so
// restarts' recovery requests, wlog installs and tier scrubs neither
// starve nor are starved by foreground load.
const (
	retryAfterBase = 25 * time.Millisecond
	retryAfterMax  = 2 * time.Second
	maxConcurrent  = 16
)

var laneWeights = [2]int{3, 1} // foreground, recovery

// SpillWater is the fraction of the budget at which a staging server
// with a PFS tier starts demoting cold versions: 85% of HighWater, so
// spill runs strictly before the shed rule fires and
// reclaimable-by-demotion bytes never cause a rejection, mirroring the
// GC-before-shed policy.
func (c Config) SpillWater() float64 { return 0.85 * c.HighWater }

func (c Config) withDefaults() Config {
	if c.HighWater <= 0 || c.HighWater >= 1 {
		c.HighWater = 0.7
	}
	return c
}

// quotaFor returns the effective quota of tenant.
func (c Config) quotaFor(tenant string) Quota {
	if q, ok := c.Tenants[tenant]; ok {
		return q
	}
	return c.Default
}

// maxPriority is the highest priority any tenant can hold under this
// config (shedding thresholds are normalized against it).
func (c Config) maxPriority() int {
	max := c.Default.Priority
	for _, q := range c.Tenants {
		if q.Priority > max {
			max = q.Priority
		}
	}
	return max
}

// ---------------------------------------------------------------------
// Typed backpressure.

// ErrOverloaded is the typed admission rejection: the server refused
// the request because tenant Tenant is out of Resource, and the client
// should retry no sooner than RetryAfter. The retry layer
// (internal/transport.Retrying) honors the hint — with jitter, charged
// against the retry budget — instead of blind exponential backoff.
type ErrOverloaded struct {
	Tenant     string
	Resource   string
	RetryAfter time.Duration
}

func (e *ErrOverloaded) Error() string {
	return fmt.Sprintf("qos: overloaded: tenant=%s resource=%s retry_after=%s", e.Tenant, e.Resource, e.RetryAfter)
}

// Wire id of the rejection (internal/codec; DESIGN.md §7 has the whole
// table): registered, it crosses a remote transport as a typed cause.
func init() { codec.Register(512, &ErrOverloaded{}) }

// FromError extracts the typed overload rejection from err's chain —
// the same chain behind a remote transport as in process.
func FromError(err error) (*ErrOverloaded, bool) {
	var e *ErrOverloaded
	return e, errors.As(err, &e)
}

// ---------------------------------------------------------------------
// Admission controller.

// Signals are the live decision inputs the controller folds into its
// retry-after hints: the lane scheduler's queue depth and the wlog
// replication backlog (records emitted but not yet shipped).
type Signals struct {
	QueueDepth int
	ReplLag    int64
}

// tenantUsage is one tenant's accounting on one server.
type tenantUsage struct {
	storeBytes int64
	wlogBytes  int64
	admits     int64
	sheds      int64
}

// TenantStat is one tenant's exported accounting row.
type TenantStat struct {
	Tenant       string
	StoreBytes   int64 // resident staging payload bytes charged to the tenant
	WlogBytes    int64 // resident logged (replay-protected) bytes
	StagingQuota int64 // configured cap (0 = unlimited)
	WlogQuota    int64
	Priority     int
	Admits       int64
	Sheds        int64
}

// UsageItem is one resident object's contribution when rebasing the
// per-tenant accounting from a restored or garbage-collected store.
type UsageItem struct {
	Name   string
	Bytes  int64
	Logged bool
}

// Controller holds one server's per-tenant accounting and makes the
// admit/shed decision. It is safe for concurrent use.
type Controller struct {
	cfg    Config
	maxPri int
	reg    *metrics.Registry

	mu      sync.Mutex
	tenants map[string]*tenantUsage
}

// NewController builds a controller for cfg, reporting aggregate
// qos.admits / qos.sheds counters into reg (nil allocates a private
// registry).
func NewController(cfg Config, reg *metrics.Registry) *Controller {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	cfg = cfg.withDefaults()
	return &Controller{
		cfg:     cfg,
		maxPri:  cfg.maxPriority(),
		reg:     reg,
		tenants: make(map[string]*tenantUsage),
	}
}

// Config returns the effective (defaulted) policy.
func (c *Controller) Config() Config { return c.cfg }

func (c *Controller) usage(tenant string) *tenantUsage {
	u, ok := c.tenants[tenant]
	if !ok {
		u = &tenantUsage{}
		c.tenants[tenant] = u
	}
	return u
}

// retryAfter turns overshoot pressure and the live signals into the
// server-directed backoff hint. The hint grows linearly with relative
// overshoot, queue depth, and replication lag, and is capped at
// retryAfterMax — a client cannot be told to stall forever, and the
// retry layer charges the wait against its budget anyway.
func (c *Controller) retryAfter(overshoot float64, sig Signals) time.Duration {
	if overshoot < 1 {
		overshoot = 1
	}
	load := 1.0 + float64(sig.QueueDepth)/maxConcurrent
	if sig.ReplLag > 0 {
		load += float64(sig.ReplLag) / 64
	}
	// Compare in float space: extreme overshoot would overflow the
	// Duration conversion into a negative value.
	df := float64(retryAfterBase) * overshoot * load
	if df > float64(retryAfterMax) {
		df = float64(retryAfterMax)
	}
	d := time.Duration(df)
	if d < retryAfterBase {
		d = retryAfterBase
	}
	return d
}

// AdmitPut decides whether a foreground put of incoming bytes for name
// may be admitted. logged marks crash-consistent puts, which also
// charge the tenant's wlog quota. globalUsed/globalBudget describe the
// server-wide staging-RAM ceiling (budget 0 = unlimited; the global
// check is then skipped). A nil return admits; otherwise the caller
// must reject with the returned ErrOverloaded and MUST NOT mutate
// state. Admission order:
//
//  1. per-tenant staging quota (hard),
//  2. per-tenant wlog quota for logged puts (hard),
//  3. the global ceiling, shed in priority order: at HighWater of the
//     budget the lowest-priority tenant sheds first, the threshold
//     rising linearly with priority to the full budget, which nobody
//     may exceed.
func (c *Controller) AdmitPut(name string, incoming int64, logged bool, globalUsed, globalBudget int64, sig Signals) *ErrOverloaded {
	tenant := TenantOf(name)
	q := c.cfg.quotaFor(tenant)
	c.mu.Lock()
	u := c.usage(tenant)
	if q.StagingBytes > 0 && u.storeBytes+incoming > q.StagingBytes {
		over := float64(u.storeBytes+incoming) / float64(q.StagingBytes)
		u.sheds++
		c.mu.Unlock()
		c.reg.Counter("qos.sheds").Inc()
		return &ErrOverloaded{Tenant: tenant, Resource: ResourceStaging, RetryAfter: c.retryAfter(over, sig)}
	}
	if logged && q.WlogBytes > 0 && u.wlogBytes+incoming > q.WlogBytes {
		over := float64(u.wlogBytes+incoming) / float64(q.WlogBytes)
		u.sheds++
		c.mu.Unlock()
		c.reg.Counter("qos.sheds").Inc()
		return &ErrOverloaded{Tenant: tenant, Resource: ResourceWlog, RetryAfter: c.retryAfter(over, sig)}
	}
	if globalBudget > 0 {
		rank := 1.0
		if c.maxPri > 0 {
			rank = float64(q.Priority) / float64(c.maxPri)
		}
		threshold := c.cfg.HighWater + (1-c.cfg.HighWater)*rank
		if f := float64(globalUsed+incoming) / float64(globalBudget); f > threshold {
			u.sheds++
			c.mu.Unlock()
			c.reg.Counter("qos.sheds").Inc()
			return &ErrOverloaded{Tenant: tenant, Resource: ResourceGlobal, RetryAfter: c.retryAfter(f/threshold, sig)}
		}
	}
	u.admits++
	c.mu.Unlock()
	c.reg.Counter("qos.admits").Inc()
	return nil
}

// Charge adjusts tenant accounting after a store mutation attributed to
// name: storeDelta moves the resident staging bytes, wlogDelta the
// logged (replay-protected) bytes. Negative deltas free.
func (c *Controller) Charge(name string, storeDelta, wlogDelta int64) {
	tenant := TenantOf(name)
	c.mu.Lock()
	u := c.usage(tenant)
	u.storeBytes += storeDelta
	u.wlogBytes += wlogDelta
	if u.storeBytes < 0 {
		u.storeBytes = 0
	}
	if u.wlogBytes < 0 {
		u.wlogBytes = 0
	}
	c.mu.Unlock()
}

// Rebase replaces the per-tenant byte accounting with the ground truth
// of a resident-object walk — after garbage collection (which frees in
// bulk) and after a promoted spare restores a dead server's state from
// the replicated wlog (the inherited accounting that prevents a
// post-recovery admission stampede). Admit/shed counters are kept.
func (c *Controller) Rebase(items []UsageItem) {
	fresh := make(map[string]*tenantUsage, len(c.tenants))
	for _, it := range items {
		t := TenantOf(it.Name)
		u, ok := fresh[t]
		if !ok {
			u = &tenantUsage{}
			fresh[t] = u
		}
		u.storeBytes += it.Bytes
		if it.Logged {
			u.wlogBytes += it.Bytes
		}
	}
	c.mu.Lock()
	for t, old := range c.tenants {
		u, ok := fresh[t]
		if !ok {
			u = &tenantUsage{}
			fresh[t] = u
		}
		u.admits = old.admits
		u.sheds = old.sheds
	}
	c.tenants = fresh
	c.mu.Unlock()
}

// Snapshot exports every tenant's accounting, sorted by tenant name.
func (c *Controller) Snapshot() []TenantStat {
	c.mu.Lock()
	out := make([]TenantStat, 0, len(c.tenants))
	for t, u := range c.tenants {
		q := c.cfg.quotaFor(t)
		out = append(out, TenantStat{
			Tenant:       t,
			StoreBytes:   u.storeBytes,
			WlogBytes:    u.wlogBytes,
			StagingQuota: q.StagingBytes,
			WlogQuota:    q.WlogBytes,
			Priority:     q.Priority,
			Admits:       u.admits,
			Sheds:        u.sheds,
		})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
