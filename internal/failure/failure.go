// Package failure generates fail-stop failure schedules for workflow
// experiments. The paper injects random process failures with
// MTBF = 10 min into 40-timestep synthetic runs (§IV-A) and scales the
// failure count with the system size in Table III (MTBF 600/300/200 s
// for 1/2/3 failures).
package failure

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Kind classifies an injected fault. The zero value is the original
// rank fail-stop, so existing schedules keep their meaning; the other
// kinds target the staging data path and are consumed by the chaos
// transport (internal/transport.Chaos).
type Kind int

const (
	// RankFailStop kills one application rank (paper §IV-A).
	RankFailStop Kind = iota
	// ServerCrash blacks out one staging server for Duration: dials and
	// calls fail as if the process died, then the address recovers.
	ServerCrash
	// NetDelay adds latency to every call to one server for Duration.
	NetDelay
	// NetDrop loses responses from one server for Duration: the server
	// processes the request but the client observes a timeout.
	NetDrop
	// ServerFailStop permanently kills one staging server: its state is
	// lost and the address never recovers. Unlike the transient
	// ServerCrash there is no recovery horizon — only the recovery
	// supervisor (internal/recovery) promoting a spare brings the slot
	// back.
	ServerFailStop
	// SupervisorKill kills one recovery supervisor (Server indexes the
	// supervisor, not a staging server). The nemesis harness
	// (internal/workflow.RunNemesis) consumes it to crash leaders
	// mid-promotion; the chaos transport ignores it.
	SupervisorKill
	// TenantOverload floods the staging group with low-priority tenant
	// puts for Duration — offered load, not a fault in the transport
	// sense. The nemesis harness consumes it to drive the admission
	// control layer (internal/qos) while real faults are in flight; the
	// chaos transport ignores it.
	TenantOverload
	// The PFS* kinds target the cold-tier backend (internal/pfs) of one
	// staging server rather than the network: the nemesis harness arms
	// them on the server's tier store (FailNextWriteAt, Corrupt,
	// SetSlowIO); the chaos transport ignores them.

	// PFSTornWrite truncates the next tier write mid-record.
	PFSTornWrite
	// PFSPartialWrite cuts the next tier write at a random byte offset.
	PFSPartialWrite
	// PFSBitRot flips one bit of a spilled record at rest.
	PFSBitRot
	// PFSENOSPC makes the next tier write fail with no space; the tier
	// must degrade to RAM-only mode instead of losing data.
	PFSENOSPC
	// PFSSlowIO adds latency to every tier read/write for Duration.
	PFSSlowIO
)

// String renders the kind for traces and logs.
func (k Kind) String() string {
	switch k {
	case RankFailStop:
		return "rank-fail-stop"
	case ServerCrash:
		return "server-crash"
	case NetDelay:
		return "net-delay"
	case NetDrop:
		return "net-drop"
	case ServerFailStop:
		return "server-fail-stop"
	case SupervisorKill:
		return "supervisor-kill"
	case TenantOverload:
		return "tenant-overload"
	case PFSTornWrite:
		return "pfs-torn-write"
	case PFSPartialWrite:
		return "pfs-partial-write"
	case PFSBitRot:
		return "pfs-bit-rot"
	case PFSENOSPC:
		return "pfs-enospc"
	case PFSSlowIO:
		return "pfs-slow-io"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Injection is one scheduled fault event.
type Injection struct {
	// At is the time of the failure relative to workflow start.
	At time.Duration
	// Kind classifies the fault (zero value: rank fail-stop).
	Kind Kind
	// Component names the workflow component that fails (RankFailStop).
	Component string
	// Rank is the failing rank within the component (RankFailStop).
	Rank int
	// Server is the target staging server id (ServerCrash/Net*).
	Server int
	// Duration is the fault window length (ServerCrash/Net*/PFSSlowIO);
	// fail-stops — rank or server — are instantaneous and carry zero
	// duration (a ServerFailStop never recovers).
	Duration time.Duration
	// Offset is the byte offset a PFS torn/partial write or bit flip
	// lands at; negative means "let the store pick" (halfway through the
	// record). Only the PFS* kinds use it.
	Offset int
	// AtOp positions the injection on a logical-operation clock instead
	// of wall time: the fault fires before the AtOp-th workload
	// operation. Churn schedules (consumed by the trace-recorded soak,
	// internal/workflow.RunSoak) use it so a recorded fault lands at the
	// same point of the schedule on every replay regardless of machine
	// speed; wall-clock At is unused in such schedules.
	AtOp int
}

// Schedule is a time-ordered list of injections.
type Schedule []Injection

// Targets describes the components failures may hit; weights are the
// component sizes (larger components absorb proportionally more
// failures, as on a real machine).
type Target struct {
	Component string
	Ranks     int
}

// Exponential draws n failures with exponentially distributed
// inter-arrival times of the given MTBF, assigning each failure to a
// target component with probability proportional to its rank count.
// The schedule is deterministic for a given seed. Failures falling
// beyond horizon are wrapped back into (0, horizon) so the requested
// count always lands inside the run, matching the paper's "a failure
// was randomly introduced within 40 time steps" setup.
func Exponential(seed int64, mtbf time.Duration, n int, horizon time.Duration, targets []Target) (Schedule, error) {
	if mtbf <= 0 {
		return nil, fmt.Errorf("failure: non-positive MTBF %v", mtbf)
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("failure: no targets")
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("failure: non-positive horizon %v", horizon)
	}
	total := 0
	for _, t := range targets {
		if t.Ranks <= 0 {
			return nil, fmt.Errorf("failure: target %q with %d ranks", t.Component, t.Ranks)
		}
		total += t.Ranks
	}
	rng := rand.New(rand.NewSource(seed))
	sched := make(Schedule, 0, n)
	at := time.Duration(0)
	for i := 0; i < n; i++ {
		gap := time.Duration(rng.ExpFloat64() * float64(mtbf))
		at += gap
		t := at % horizon
		if t == 0 {
			t = horizon / 2
		}
		pick := rng.Intn(total)
		var comp string
		var ranks int
		for _, tg := range targets {
			if pick < tg.Ranks {
				comp = tg.Component
				ranks = tg.Ranks
				break
			}
			pick -= tg.Ranks
		}
		sched = append(sched, Injection{At: t, Component: comp, Rank: rng.Intn(ranks)})
	}
	sort.Slice(sched, func(i, j int) bool { return sched[i].At < sched[j].At })
	return sched, nil
}

// Chaos draws n network/server faults over horizon, uniformly over
// time, servers, and the given kinds, with window lengths uniform in
// [meanFault/2, 3*meanFault/2). The schedule is deterministic for a
// given seed; feed it to transport.Chaos.Apply to arm the faults.
func Chaos(seed int64, n int, horizon, meanFault time.Duration, nServers int, kinds ...Kind) (Schedule, error) {
	// Injections land strictly inside (0, horizon), so the horizon must
	// leave at least one representable instant between the endpoints
	// (horizon == 1ns would also make Int63n panic on a zero bound).
	if horizon <= time.Nanosecond {
		return nil, fmt.Errorf("failure: horizon %v too short", horizon)
	}
	if meanFault <= 0 {
		return nil, fmt.Errorf("failure: non-positive mean fault duration %v", meanFault)
	}
	if nServers <= 0 {
		return nil, fmt.Errorf("failure: non-positive server count %d", nServers)
	}
	if len(kinds) == 0 {
		kinds = []Kind{ServerCrash, NetDelay, NetDrop}
	}
	for _, k := range kinds {
		if k == RankFailStop {
			return nil, fmt.Errorf("failure: rank fail-stops belong in Exponential schedules")
		}
	}
	rng := rand.New(rand.NewSource(seed))
	sched := make(Schedule, 0, n)
	for i := 0; i < n; i++ {
		at := time.Duration(rng.Int63n(int64(horizon)-1)) + 1
		dur := meanFault/2 + time.Duration(rng.Int63n(int64(meanFault)))
		kind := kinds[rng.Intn(len(kinds))]
		if kind == ServerFailStop {
			// Permanent: no recovery horizon.
			dur = 0
		}
		sched = append(sched, Injection{
			At:       at,
			Kind:     kind,
			Server:   rng.Intn(nServers),
			Duration: dur,
		})
	}
	sort.Slice(sched, func(i, j int) bool { return sched[i].At < sched[j].At })
	return sched, nil
}

// Nemesis draws a recovery-soak schedule: n faults uniformly over
// (0, horizon) mixing permanent staging-server fail-stops, transient
// server blackouts of mean length meanFault, and supervisor kills
// (Server indexes the supervisor for those). It is the generator
// behind the nemesis harness (internal/workflow.RunNemesis), which
// concurrently kills supervisors, staging servers, and ranks and then
// asserts the standing invariants. Deterministic for a given seed.
func Nemesis(seed int64, n int, horizon, meanFault time.Duration, nServers, nSupervisors int) (Schedule, error) {
	if horizon <= time.Nanosecond {
		return nil, fmt.Errorf("failure: horizon %v too short", horizon)
	}
	if meanFault <= 0 {
		return nil, fmt.Errorf("failure: non-positive mean fault duration %v", meanFault)
	}
	if nServers <= 0 || nSupervisors <= 0 {
		return nil, fmt.Errorf("failure: nemesis needs servers (%d) and supervisors (%d)", nServers, nSupervisors)
	}
	rng := rand.New(rand.NewSource(seed))
	sched := make(Schedule, 0, n)
	for i := 0; i < n; i++ {
		at := time.Duration(rng.Int63n(int64(horizon)-1)) + 1
		switch rng.Intn(3) {
		case 0:
			sched = append(sched, Injection{At: at, Kind: ServerFailStop, Server: rng.Intn(nServers)})
		case 1:
			dur := meanFault/2 + time.Duration(rng.Int63n(int64(meanFault)))
			sched = append(sched, Injection{At: at, Kind: ServerCrash, Server: rng.Intn(nServers), Duration: dur})
		case 2:
			sched = append(sched, Injection{At: at, Kind: SupervisorKill, Server: rng.Intn(nSupervisors)})
		}
	}
	sort.Slice(sched, func(i, j int) bool { return sched[i].At < sched[j].At })
	return sched, nil
}

// NemesisOverload draws a schedule composing permanent staging-server
// fail-stops with tenant overload windows of mean length meanFault —
// the soak for the admission-control layer: recovery promotions must
// complete, and quotas must hold, while a low-priority tenant floods
// the group. Deterministic for a given seed.
func NemesisOverload(seed int64, n int, horizon, meanFault time.Duration, nServers int) (Schedule, error) {
	if horizon <= time.Nanosecond {
		return nil, fmt.Errorf("failure: horizon %v too short", horizon)
	}
	if meanFault <= 0 {
		return nil, fmt.Errorf("failure: non-positive mean fault duration %v", meanFault)
	}
	if nServers <= 0 {
		return nil, fmt.Errorf("failure: non-positive server count %d", nServers)
	}
	rng := rand.New(rand.NewSource(seed))
	sched := make(Schedule, 0, n)
	for i := 0; i < n; i++ {
		at := time.Duration(rng.Int63n(int64(horizon)-1)) + 1
		if rng.Intn(2) == 0 {
			sched = append(sched, Injection{At: at, Kind: ServerFailStop, Server: rng.Intn(nServers)})
		} else {
			dur := meanFault/2 + time.Duration(rng.Int63n(int64(meanFault)))
			sched = append(sched, Injection{At: at, Kind: TenantOverload, Duration: dur})
		}
	}
	sort.Slice(sched, func(i, j int) bool { return sched[i].At < sched[j].At })
	return sched, nil
}

// NemesisTier draws the storage-fault soak schedule: n faults uniformly
// over (0, horizon) mixing permanent staging-server fail-stops, tenant
// overload windows, and PFS storage faults against the servers' cold
// tiers — torn and partial writes at random byte offsets, at-rest bit
// rot, ENOSPC, and slow-I/O windows of mean length meanFault. It is the
// generator behind TestNemesisTierSoak: promotions must complete and
// replay must stay byte-exact while spilled records are being corrupted
// underneath the staging servers. Deterministic for a given seed.
func NemesisTier(seed int64, n int, horizon, meanFault time.Duration, nServers int) (Schedule, error) {
	if horizon <= time.Nanosecond {
		return nil, fmt.Errorf("failure: horizon %v too short", horizon)
	}
	if meanFault <= 0 {
		return nil, fmt.Errorf("failure: non-positive mean fault duration %v", meanFault)
	}
	if nServers <= 0 {
		return nil, fmt.Errorf("failure: non-positive server count %d", nServers)
	}
	rng := rand.New(rand.NewSource(seed))
	storage := []Kind{PFSTornWrite, PFSPartialWrite, PFSBitRot, PFSENOSPC, PFSSlowIO}
	sched := make(Schedule, 0, n)
	for i := 0; i < n; i++ {
		at := time.Duration(rng.Int63n(int64(horizon)-1)) + 1
		inj := Injection{At: at, Server: rng.Intn(nServers)}
		switch rng.Intn(4) {
		case 0:
			inj.Kind = ServerFailStop
		case 1:
			inj.Kind = TenantOverload
			inj.Duration = meanFault/2 + time.Duration(rng.Int63n(int64(meanFault)))
		default: // storage faults at double weight: they are the soak's point
			inj.Kind = storage[rng.Intn(len(storage))]
			switch inj.Kind {
			case PFSSlowIO:
				inj.Duration = meanFault/2 + time.Duration(rng.Int63n(int64(meanFault)))
			case PFSTornWrite, PFSPartialWrite, PFSBitRot:
				// Offsets land anywhere in a small record, including the
				// 24-byte CRC'd header; the store clamps overshoots.
				inj.Offset = rng.Intn(256) - 1 // -1 = store picks halfway
			}
		}
		sched = append(sched, inj)
	}
	sort.Slice(sched, func(i, j int) bool { return sched[i].At < sched[j].At })
	return sched, nil
}

// Churn draws the trace-recorded soak schedule: n faults positioned on
// a logical-operation clock in [0, horizonOps) rather than wall time,
// so the schedule composes deterministically with a recorded workload
// — replaying the trace re-arms each fault at the identical schedule
// position. Kinds are drawn uniformly from the given set (default:
// fail-stops plus blackouts). Fault targets are drawn from servers
// 1..nServers-1, never slot 0: the lock server's RPC dedup keys on a
// per-client sequence that a client-level retry cannot reuse, so
// faulting slot 0 would make retried lock acquires ambiguous and the
// replay nondeterministic. Blackouts and slow-I/O windows get Duration
// in [meanFault/2, 3*meanFault/2); fail-stops are permanent.
// Deterministic for a given seed.
func Churn(seed int64, n, horizonOps, nServers int, meanFault time.Duration, kinds ...Kind) (Schedule, error) {
	if horizonOps <= 0 {
		return nil, fmt.Errorf("failure: non-positive op horizon %d", horizonOps)
	}
	if nServers < 2 {
		return nil, fmt.Errorf("failure: churn needs at least 2 servers, got %d (slot 0 is never faulted)", nServers)
	}
	if meanFault <= 0 {
		return nil, fmt.Errorf("failure: non-positive mean fault duration %v", meanFault)
	}
	if len(kinds) == 0 {
		kinds = []Kind{ServerFailStop, ServerCrash}
	}
	for _, k := range kinds {
		switch k {
		case RankFailStop, SupervisorKill:
			return nil, fmt.Errorf("failure: %v has no logical-clock semantics in a churn schedule", k)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	sched := make(Schedule, 0, n)
	for i := 0; i < n; i++ {
		inj := Injection{
			Kind:   kinds[rng.Intn(len(kinds))],
			AtOp:   rng.Intn(horizonOps),
			Server: 1 + rng.Intn(nServers-1),
		}
		switch inj.Kind {
		case ServerCrash, NetDelay, NetDrop, PFSSlowIO, TenantOverload:
			inj.Duration = meanFault/2 + time.Duration(rng.Int63n(int64(meanFault)))
		case PFSTornWrite, PFSPartialWrite, PFSBitRot:
			inj.Offset = rng.Intn(256) - 1
		}
		sched = append(sched, inj)
	}
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].AtOp < sched[j].AtOp })
	return sched, nil
}

// Fixed builds a schedule from explicit injections (sorted by time).
func Fixed(inj ...Injection) Schedule {
	s := append(Schedule(nil), inj...)
	sort.Slice(s, func(i, j int) bool { return s[i].At < s[j].At })
	return s
}

// ExpectedFailures returns the expected failure count over the horizon
// for a given MTBF, for sanity checks in experiment configs.
func ExpectedFailures(mtbf, horizon time.Duration) float64 {
	if mtbf <= 0 {
		return math.Inf(1)
	}
	return float64(horizon) / float64(mtbf)
}
