package workflow

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"time"

	"gospaces/internal/domain"
	"gospaces/internal/health"
	"gospaces/internal/locks"
	"gospaces/internal/pfs"
	"gospaces/internal/qos"
	"gospaces/internal/recovery"
	"gospaces/internal/staging"
	"gospaces/internal/tier"
	"gospaces/internal/trace"
	"gospaces/internal/transport"
	"gospaces/internal/wlog"
)

// This file is the repo's one fault harness, the churn soak behind
// `wfbench -exp soak` and `make nemesis`: a recorded multi-group
// workload (producer/consumer pairs bracketing logged puts/gets with the
// paper's lock API, checkpointing and restarting mid-run) interleaved
// with a fault schedule (fail-stops, blackouts, network delay and drop
// windows, tier storage faults, tenant floods, recovery-supervisor
// kills and spare refills) over a group run by three redundant
// supervisors, the whole thing expressed as a trace.Event schedule
// positioned on a logical clock. Because the schedule — including every
// payload seed and every expected get digest — is generated
// deterministically from the seed BEFORE execution, recording and
// replaying are the same operation: executing the schedule. A failing
// run's trace file therefore reproduces the failure deterministically
// under `go test` or `dsctl trace replay`, which is what turns soak
// failures into checked-in regression tests.
// ReplayTrace is the one executor of trace events, for soak schedules
// and for dumps of live groups (dump.go) alike.

// SoakOptions configures one seeded churn soak.
type SoakOptions struct {
	// Seed drives the workload interleaving, payload contents, and the
	// fault schedule; a given seed always builds the same trace.
	Seed int64
	// Groups is the number of producer/consumer pairs (default 2).
	Groups int
	// Steps is the number of logged versions each producer writes
	// (default 5).
	Steps int
	// Servers is the staging-group size (default 4).
	Servers int
	// Spares is the warm-spare pool (default 2); it bounds how many
	// fail-stops the fault schedule may carry.
	Spares int
	// Faults is the number of injected faults (0 = clean run). Faults
	// never target slot 0: the lock table lives there and retried lock
	// RPCs use fresh dedup sequences, so faulting it would make replay
	// outcomes ambiguous.
	Faults int
	// Tier gives every server a PFS cold tier and a ~4-version memory
	// budget, so history spills and sweep reads promote it back; the
	// fault mix gains storage faults.
	Tier bool
	// Overload enables admission control with a small flood-tenant
	// quota; the fault mix gains flood bursts that must shed without
	// disturbing the workload.
	Overload bool
	// Label names the trace for humans; defaults to "soak seed=N".
	Label string
}

func (o *SoakOptions) defaults() {
	if o.Groups <= 0 {
		o.Groups = 2
	}
	if o.Steps <= 0 {
		o.Steps = 5
	}
	if o.Servers <= 0 {
		o.Servers = 4
	}
	if o.Spares <= 0 {
		o.Spares = 2
	}
	if o.Label == "" {
		o.Label = fmt.Sprintf("soak seed=%d", o.Seed)
	}
}

// SoakResult is the observable outcome of executing a soak trace.
type SoakResult struct {
	Events     int    // replayable events applied
	Puts       int    // workload puts issued (excluding restarts' re-puts)
	Gets       int    // checked gets (workload + sweep)
	Digest     uint64 // ordered fold of every checked get's payload sum
	StateSum   uint64 // content fingerprint of the final staging state (sweep)
	Restarts   int    // workflow_restart events executed
	Replayed   int    // wlog events replayed by those restarts
	FailStops  int    // servers permanently killed
	Blackouts  int    // transient blackout windows armed
	NetFaults  int    // network delay and drop windows armed
	TierFaults int    // storage faults armed on cold tiers
	FloodPuts  int64  // flood-tenant puts attempted
	FloodSheds int64  // flood puts rejected with a typed overload
	Retries    int64  // workload operations that needed at least one retry

	// The recovery side, harvested by the run's last barrier.
	SupKills      int   // supervisors killed, at once or at a promotion stage
	Promotions    int64 // membership writes, summed across the supervisors
	Takeovers     int64 // elections that found journaled promotion intents
	IntentResumes int64 // promotions resumed from a dead or deposed leader's journal
	DeadRetries   int64 // stranded slots healed by a later EvAddSpare
	SlotDowns     int   // stranded slots a client call failed fast on (ErrSlotDown)
	SupFenced     int64 // supervisor calls rejected as deposed
	ServerFenced  int64 // fenced calls the servers rejected
	TierSpills    int64 // versions demoted to a cold tier, summed over the members
	TierPromotes  int64 // spilled versions read back from a cold tier
}

// soakGlobal is the domain every soak trace spans: 64x64x1 bytes, so
// one version is 4 KiB and a few versions fit a tier-test budget.
func soakGlobal() domain.BBox { return domain.Box3(0, 0, 0, 63, 63, 0) }

// soakPayload generates the deterministic byte pattern for one put: a
// splitmix64 stream keyed by the recorded seed, so the trace carries
// 16 bytes per put instead of the payload and still replays
// byte-exactly.
func soakPayload(seed, n int64) []byte {
	data := make([]byte, n)
	x := uint64(seed) ^ 0x9e3779b97f4a7c15
	var word uint64
	for i := range data {
		if i%8 == 0 {
			x += 0x9e3779b97f4a7c15
			z := x
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			word = z ^ (z >> 31)
		}
		data[i] = byte(word >> (8 * (i % 8)))
	}
	return data
}

// payloadSum digests one payload (FNV-1a), the per-get check value
// recorded in the trace.
func payloadSum(data []byte) uint64 {
	s := uint64(1469598103934665603)
	for _, c := range data {
		s ^= uint64(c)
		s *= 1099511628211
	}
	return s
}

// foldDigest mixes one get's payload sum into the ordered digest
// accumulator (same mixer as the workflow ranks' result digest).
func foldDigest(acc, sum uint64) uint64 {
	x := acc ^ sum
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func soakPutSeed(base int64, g, v int) int64 {
	return base ^ (int64(g+1) << 40) ^ int64(v)*2654435761
}

func soakField(g int) string { return fmt.Sprintf("soak/g%d/field", g) }
func soakLock(g int) string  { return fmt.Sprintf("soak/lk/%d", g) }
func soakProd(g int) string  { return fmt.Sprintf("soak/prod/%d", g) }
func soakCons(g int) string  { return fmt.Sprintf("soak/cons/%d", g) }
func soakSweep() string      { return "soak/sweep" }
func soakFloodApp() string   { return "soak/flood" }

// BuildSoakTrace generates the complete recorded schedule for one
// seeded soak: the multi-group workload, the fault injections at their
// logical-clock positions, the final sweep, and the expected digest.
func BuildSoakTrace(o SoakOptions) (trace.Header, []trace.Event, error) {
	o.defaults()
	global := soakGlobal()
	vol := global.Volume()
	h := trace.Header{
		Version: trace.FormatVersion,
		Label:   o.Label,
		Seed:    o.Seed,
		Servers: o.Servers, Spares: o.Spares,
		Bits: 2, ElemSize: 1, Replicas: 2,
		DimX: 64, DimY: 64, DimZ: 1,
		Groups: o.Groups, Steps: o.Steps,
	}
	if o.Faults > 0 {
		h.Flags |= trace.FlagFaults
	}
	if o.Tier {
		h.Flags |= trace.FlagTier
		h.MemBudget = 4 * vol
	}
	if o.Overload {
		h.Flags |= trace.FlagOverload
	}

	rng := rand.New(rand.NewSource(o.Seed))

	// Per-put payload sums, computed up front so gets carry their
	// expected digest in the trace.
	sums := make([][]uint64, o.Groups)
	for g := range sums {
		sums[g] = make([]uint64, o.Steps+1)
		for v := 1; v <= o.Steps; v++ {
			sums[g][v] = payloadSum(soakPayload(soakPutSeed(o.Seed, g, v), vol))
		}
	}

	// Each group restarts its producer once, after a seeded put count.
	restartAfter := make([]int, o.Groups)
	for g := range restartAfter {
		if o.Steps >= 3 {
			restartAfter[g] = 2 + rng.Intn(o.Steps-2)
		}
	}

	// Workload segments: lock-bracketed put and get triples, checkpoint
	// and restart events riding after producers' puts. Segments are the
	// unit the fault schedule indexes (faults land between segments,
	// never inside a lock bracket — a single-threaded executor holding
	// a blocking lock across a fault would deadlock the schedule).
	type segment []trace.Event
	var segments []segment
	puts := make([]int, o.Groups)
	gets := make([]int, o.Groups)
	for {
		var ready []int
		for g := 0; g < o.Groups; g++ {
			if puts[g] < o.Steps || gets[g] < puts[g] {
				ready = append(ready, g)
			}
		}
		if len(ready) == 0 {
			break
		}
		g := ready[rng.Intn(len(ready))]
		doGet := gets[g] < puts[g] && (puts[g] == o.Steps || rng.Intn(2) == 0)
		if doGet {
			v := gets[g] + 1
			gets[g] = v
			segments = append(segments, segment{
				{Kind: trace.EvRLock, App: soakCons(g), Name: soakLock(g)},
				{Kind: trace.EvGet, App: soakCons(g), Name: soakField(g), Version: int64(v), Bytes: vol, Sum: sums[g][v], Logged: true},
				{Kind: trace.EvRUnlock, App: soakCons(g), Name: soakLock(g)},
			})
			continue
		}
		v := puts[g] + 1
		puts[g] = v
		seg := segment{
			{Kind: trace.EvLock, App: soakProd(g), Name: soakLock(g)},
			{Kind: trace.EvPut, App: soakProd(g), Name: soakField(g), Version: int64(v), Bytes: vol, Seed: soakPutSeed(o.Seed, g, v), Logged: true},
			{Kind: trace.EvUnlock, App: soakProd(g), Name: soakLock(g)},
		}
		// A checkpoint runs every server's GC, and keep-latest GC drops
		// the old versions of any group's field no consumer has read yet
		// (PayloadFrontier is MaxInt64 for an object nobody has read);
		// after a consumer's first logged get its resident Get event pins
		// the frontier at v1 forever, since consumers never checkpoint.
		// So checkpoints only ride behind segments where no group has two
		// versions staged and no reader on record.
		unread := false
		for h := range puts {
			unread = unread || puts[h] > 1 && gets[h] == 0
		}
		if v%3 == 0 && !unread {
			seg = append(seg, trace.Event{Kind: trace.EvCheckpoint, App: soakProd(g)})
		}
		if v == restartAfter[g] {
			seg = append(seg, trace.Event{Kind: trace.EvRestart, App: soakProd(g)})
		}
		segments = append(segments, seg)
	}

	// Fault schedule on the segment clock.
	var byOp map[int][]trace.Event
	if o.Faults > 0 {
		kinds := []trace.Event{{Kind: trace.EvFailStop}, {Kind: trace.EvSupervisorKill},
			{Kind: trace.EvBlackout}, {Kind: trace.EvNetFault}}
		if o.Tier {
			// Permanent fail-stops don't compose with private cold
			// tiers: a spare promotes with a fresh tier, so versions the
			// dead server had spilled (and nobody had logged a read for)
			// are unrecoverable. A tiered schedule fail-stops only before
			// its first spill, which the drawer cannot place, so tiered
			// churn keeps servers alive and tortures the storage instead.
			kinds = []trace.Event{{Kind: trace.EvBlackout}}
			for code := trace.TierTornWrite; code <= trace.TierSlowIO; code++ {
				kinds = append(kinds, trace.Event{Kind: trace.EvTierFault, Arg2: code})
			}
		}
		if o.Overload {
			kinds = append(kinds, trace.Event{Kind: trace.EvFlood})
		}
		var err error
		if byOp, err = drawChurn(o.Seed+1, o.Faults, len(segments), o.Servers, o.Spares, kinds...); err != nil {
			return h, nil, err
		}
	}

	var events []trace.Event
	emit := func(e trace.Event) {
		e.LC = uint64(len(events))
		events = append(events, e)
	}
	var digest uint64
	for i, seg := range segments {
		for _, f := range byOp[i] {
			emit(f)
		}
		for _, e := range seg {
			if e.Kind == trace.EvGet {
				digest = foldDigest(digest, e.Sum)
			}
			emit(e)
		}
	}
	// Final sweep: every version of every group must still read back
	// byte-exactly through whatever recovered/spilled/shed state the
	// churn left behind. Unlogged gets — the sweep is an audit, not a
	// workload participant, so it must not grow any replay queue.
	for g := 0; g < o.Groups; g++ {
		for v := 1; v <= o.Steps; v++ {
			e := trace.Event{Kind: trace.EvGet, App: soakSweep(), Name: soakField(g), Version: int64(v), Bytes: vol, Sum: sums[g][v]}
			digest = foldDigest(digest, e.Sum)
			emit(e)
		}
	}
	h.Digest = digest
	return h, events, nil
}

// BuildRegressionTrace builds one of the named crash-consistency
// scenarios persisted under testdata/: a clean seeded workload with
// faults inserted at hand-picked logical-clock positions so the trace
// exercises one specific recovery path. Unlike drawChurn's soaks, the
// fault placement here is part of the scenario's identity — a fail-stop
// immediately before a restart IS kill-mid-replay.
func BuildRegressionTrace(kind string) (trace.Header, []trace.Event, error) {
	switch kind {
	case "kill-mid-replay":
		// Kill a server, then immediately restart a producer so its
		// wlog replay (and the suppression of its re-issued puts) rides
		// through the promotion of a warm spare.
		h, events, err := BuildSoakTrace(SoakOptions{Seed: 101, Label: "regression/" + kind})
		if err != nil {
			return h, nil, err
		}
		var anchors []int
		slot := int64(1)
		for i, e := range events {
			if e.Kind == trace.EvRestart {
				anchors = append(anchors, i)
			}
		}
		for i := len(anchors) - 1; i >= 0; i-- {
			events = slices.Insert(events, anchors[i], trace.Event{Kind: trace.EvFailStop, Arg: slot})
			slot++
		}
		h.Flags |= trace.FlagFaults
		return h, renumber(events), nil

	case "tier-spill-enospc":
		// Degrade one cold tier with ENOSPC and tear a write on
		// another while spills are in flight; the sweep must still read
		// every version byte-exactly from RAM-degraded and twin-healed
		// tiers.
		h, events, err := BuildSoakTrace(SoakOptions{Seed: 202, Steps: 6, Tier: true, Label: "regression/" + kind})
		if err != nil {
			return h, nil, err
		}
		a1 := putAnchor(events, 3)
		a2 := putAnchor(events, 8)
		if a2 > a1 {
			events = slices.Insert(events, a2, trace.Event{Kind: trace.EvTierFault, Arg: 2, Arg2: trace.TierTornWrite, Version: 7})
		}
		events = slices.Insert(events, a1, trace.Event{Kind: trace.EvTierFault, Arg: 1, Arg2: trace.TierENOSPC, Version: -1})
		h.Flags |= trace.FlagFaults
		return h, renumber(events), nil

	case "overload-shed":
		// Flood bursts from a low-priority tenant against a tight
		// quota, plus a blackout mid-flood: admission must shed the
		// flood with typed errors and never disturb the workload
		// tenant's digest.
		h, events, err := BuildSoakTrace(SoakOptions{Seed: 303, Overload: true, Label: "regression/" + kind})
		if err != nil {
			return h, nil, err
		}
		a1 := putAnchor(events, 3)
		a2 := putAnchor(events, 6)
		a3 := putAnchor(events, 9)
		for _, ins := range []struct {
			at int
			ev trace.Event
		}{
			{a3, trace.Event{Kind: trace.EvFlood, Arg: 8}},
			{a2, trace.Event{Kind: trace.EvBlackout, Arg: 1, Arg2: 40}},
			{a1, trace.Event{Kind: trace.EvFlood, Arg: 6}},
		} {
			if ins.at >= 0 {
				events = slices.Insert(events, ins.at, ins.ev)
			}
		}
		h.Flags |= trace.FlagFaults
		return h, renumber(events), nil

	case "leader-killed-mid-promotion":
		// The leader dies between the log restore and the membership
		// write; a standby takes over from the intent journal.
		return killTrace(SoakOptions{Seed: 404, Label: "regression/" + kind}, "restored", false)

	case "deposed-leader-fenced":
		// The leader stalls past its lease after the membership write; a
		// standby finishes the promotion and the servers fence the stale
		// leader's view push when it wakes.
		return killTrace(SoakOptions{Seed: 505, Label: "regression/" + kind}, "stall", false)

	case "spare-exhaustion-healed":
		// The pool is empty at the fail-stop, so the slot is stranded
		// until a refill; the leader that heals it dies on the way.
		return killTrace(SoakOptions{Seed: 606, Label: "regression/" + kind}, "intent", true)

	default:
		return trace.Header{}, nil, fmt.Errorf("workflow: unknown regression trace %q", kind)
	}
}

// killTrace is a clean seeded soak with one fail-stop, before the third
// put, of slot 1 + Seed mod (Servers-1), which the recovery leader does
// not live through: an EvSupervisorKill in mode (a promotion stage or
// "stall") is armed right before it. With strand the header's spare pool
// is empty, so the fail-stop strands its slot until the EvAddSpare right
// behind it starts the pool's spares.
func killTrace(o SoakOptions, mode string, strand bool) (trace.Header, []trace.Event, error) {
	h, events, err := BuildSoakTrace(o)
	if err != nil {
		return h, nil, err
	}
	slot := 1 + int64(uint64(o.Seed)%uint64(h.Servers-1))
	faults := []trace.Event{{Kind: trace.EvSupervisorKill, Name: mode}, {Kind: trace.EvFailStop, Arg: slot}}
	if strand {
		faults = append(faults, trace.Event{Kind: trace.EvAddSpare, Arg: int64(h.Spares)})
		h.Spares = 0
	}
	h.Flags |= trace.FlagFaults
	return h, renumber(slices.Insert(events, putAnchor(events, 3), faults...)), nil
}

// putAnchor returns the index of the EvLock opening the segment of the
// n-th put (1-based), i.e. the last between-segments position before
// it, or -1 if there are fewer puts.
func putAnchor(events []trace.Event, n int) int {
	seen := 0
	for i, e := range events {
		if e.Kind == trace.EvPut {
			seen++
			if seen == n {
				if i > 0 && events[i-1].Kind == trace.EvLock {
					return i - 1
				}
				return i
			}
		}
	}
	return -1
}

// renumber restamps the logical clock 0..n-1 after insertions; the
// digest is untouched because fault events never carry get sums.
func renumber(events []trace.Event) []trace.Event {
	for i := range events {
		events[i].LC = uint64(i)
	}
	return events
}

// drawChurn draws a churn schedule: n faults, each a copy of one of
// kinds (a fault event kind, with its code in Arg2 for a tier fault)
// filled in and placed before a segment in [0, horizon), returned by
// segment. Targets are slots 1..servers-1, never slot 0: the lock
// server's RPC dedup keys on a per-client sequence that a client-level
// retry cannot reuse, so faulting slot 0 would make retried lock
// acquires ambiguous and the replay nondeterministic. A supervisor kill
// targets supervisor 0 or 1: a soak runs three and never kills the last.
// Fail-stops beyond the spare pool soften to 40ms blackouts. Blackout,
// net-fault and slow-I/O windows last [20, 60) ms, under the detectors'
// death threshold. A kind it cannot fill in is refused, so n draws are
// n events. Deterministic for a given seed.
func drawChurn(seed int64, n, horizon, servers, spares int, kinds ...trace.Event) (map[int][]trace.Event, error) {
	if horizon <= 0 {
		return nil, fmt.Errorf("workflow: churn over %d segments", horizon)
	}
	if servers < 2 {
		return nil, fmt.Errorf("workflow: churn needs at least 2 servers, got %d (slot 0 is never faulted)", servers)
	}
	if len(kinds) == 0 {
		return nil, errors.New("workflow: churn with no fault kinds")
	}
	for _, k := range kinds {
		switch k {
		case trace.Event{Kind: trace.EvFailStop}, trace.Event{Kind: trace.EvBlackout}, trace.Event{Kind: trace.EvNetFault},
			trace.Event{Kind: trace.EvSupervisorKill}, trace.Event{Kind: trace.EvFlood}:
			continue
		}
		if k != (trace.Event{Kind: trace.EvTierFault, Arg2: k.Arg2}) || k.Arg2 < trace.TierTornWrite || k.Arg2 > trace.TierSlowIO {
			return nil, fmt.Errorf("workflow: churn cannot draw %v", k)
		}
	}
	type draw struct {
		at int
		ev trace.Event
	}
	rng := rand.New(rand.NewSource(seed))
	// A window in ms, drawn at ns resolution: the tiered soak seeds were
	// picked for the schedules that draw gives.
	window := func() int64 { return 20 + rng.Int63n(int64(40*time.Millisecond))/int64(time.Millisecond) }
	draws := make([]draw, n)
	for i := range draws {
		ev := kinds[rng.Intn(len(kinds))]
		at := rng.Intn(horizon)
		ev.Arg = 1 + int64(rng.Intn(servers-1))
		switch ev.Kind {
		case trace.EvBlackout:
			ev.Arg2 = window()
		case trace.EvNetFault:
			ev.Arg2 = window()
			ev.Name = [2]string{"delay", "drop"}[rng.Intn(2)]
		case trace.EvFlood:
			ev.Arg = 3 + window()/10
		case trace.EvSupervisorKill:
			ev.Arg %= 2
		case trace.EvTierFault:
			switch ev.Arg2 {
			case trace.TierSlowIO:
				ev.Bytes = window()
			case trace.TierTornWrite, trace.TierPartialWrite, trace.TierBitRot:
				ev.Version = int64(rng.Intn(256) - 1)
			}
		}
		draws[i] = draw{at, ev}
	}
	slices.SortStableFunc(draws, func(a, b draw) int { return a.at - b.at })
	byOp := map[int][]trace.Event{}
	failStops := 0
	for _, d := range draws {
		if d.ev.Kind == trace.EvFailStop {
			if failStops >= spares {
				d.ev = trace.Event{Kind: trace.EvBlackout, Arg: d.ev.Arg, Arg2: 40}
			} else {
				failStops++
			}
		}
		byOp[d.at] = append(byOp[d.at], d.ev)
	}
	return byOp, nil
}

// RunSoak builds the seeded trace and executes it. The returned header
// and events are the artifact to persist when the run fails — they
// reproduce the failure deterministically.
func RunSoak(o SoakOptions) (trace.Header, []trace.Event, SoakResult, error) {
	h, events, err := BuildSoakTrace(o)
	if err != nil {
		return h, nil, SoakResult{}, err
	}
	res, err := ReplayTrace(h, events)
	return h, events, res, err
}

// ReplayTrace is the one executor of trace events: it runs a trace —
// a soak schedule or a dump of a live group — against a freshly built
// staging group and verifies it. Events apply in logical clock order,
// and notes are skipped. Every checked get must return the recorded
// bytes, and when the header carries a digest the ordered fold of all
// checked gets must reproduce it. An event that fails is reported as a
// *trace.DivergenceError naming its logical clock. Running it twice on
// the same trace must yield identical results — that is the
// determinism contract the regression tests pin down.
func ReplayTrace(h trace.Header, events []trace.Event) (SoakResult, error) {
	for i := 1; i < len(events); i++ {
		if events[i].LC <= events[i-1].LC {
			return SoakResult{}, fmt.Errorf("%w: lc=%d after lc=%d", trace.ErrOrder, events[i].LC, events[i-1].LC)
		}
	}
	x, err := newSoakExec(h)
	if err != nil {
		return SoakResult{}, err
	}
	defer x.close()
	for _, ev := range events {
		if ev.Kind == trace.EvNote {
			continue
		}
		if err := x.apply(ev); err != nil {
			return x.result(), &trace.DivergenceError{LC: ev.LC, Ev: ev, Err: err}
		}
	}
	if err := x.finish(); err != nil {
		return x.result(), err
	}
	res := x.result()
	if h.Digest != 0 && res.Digest != h.Digest {
		return res, &trace.DivergenceError{
			LC: uint64(len(events)), Ev: trace.Event{Kind: trace.EvNote, Name: "final-digest"},
			Err: fmt.Errorf("workload digest %#x, recorded %#x", res.Digest, h.Digest),
		}
	}
	return res, nil
}

// Every soak runs soakSupervisors redundant recovery supervisors, and
// the last is never killed, so one is always left to heal the group.
// soakSettle bounds each recovery barrier.
const (
	soakSupervisors = 3
	soakLeaseTTL    = 150 * time.Millisecond
	soakSettle      = 20 * time.Second
)

// soakExec drives a live staging group from trace events.
type soakExec struct {
	h       trace.Header
	global  domain.BBox
	size    int64 // bytes of one full-domain payload
	tr      *transport.Chaos
	group   *staging.Group
	sups    []*recovery.Supervisor
	clients map[string]*staging.Client

	// supMu guards killed and armed, which promotion hooks read from the
	// supervisors' goroutines. armed is the EvSupervisorKill mode waiting
	// for the next promotion.
	supMu  sync.Mutex
	killed []bool
	armed  string

	tierMu       sync.Mutex
	tierBackends map[int]*pfs.Store

	// history tracks each producer's logged puts since its last
	// checkpoint: exactly the suffix workflow_restart replays, so a
	// restart event re-issues them and the servers must suppress every
	// one byte-exactly. covered is the highest version the producer's
	// last checkpoint folded in — restarts pass it to
	// WorkflowRestartFrom, because a promoted spare may have restored a
	// wlog replica that lags behind the checkpoint mark (the torn
	// workflow_check case), and only the coverage hint lets the server
	// place the replay window where the lost mark would have.
	history map[string][]trace.Event
	covered map[string]int64
	lastPut map[string]int64

	res      SoakResult
	stateSum uint64
}

// maxTracePut bounds one full-domain payload, so a header read from a
// file cannot ask the executor for an absurd allocation.
const maxTracePut = 1 << 30

// putSize is the bytes of one full-domain payload the header describes
// (volume × element size), or false unless every extent and the
// element size are positive and the product stays within maxTracePut.
func putSize(h trace.Header) (int64, bool) {
	n := int64(1)
	for _, d := range []int64{h.DimX, h.DimY, h.DimZ, int64(h.ElemSize)} {
		if d < 1 || n > maxTracePut/d {
			return 0, false
		}
		n *= d
	}
	return n, true
}

// newSoakExec builds the group a trace header describes. The header
// comes from a file, so it is checked first: a positive, bounded domain
// and element size, and at least one server.
func newSoakExec(h trace.Header) (*soakExec, error) {
	size, ok := putSize(h)
	if !ok || h.Servers < 1 {
		return nil, fmt.Errorf("workflow: trace header describes no staging group: %+v", h)
	}
	x := &soakExec{
		h:            h,
		global:       domain.Box3(0, 0, 0, h.DimX-1, h.DimY-1, h.DimZ-1),
		size:         size,
		clients:      map[string]*staging.Client{},
		killed:       make([]bool, soakSupervisors),
		tierBackends: map[int]*pfs.Store{},
		history:      map[string][]trace.Event{},
		covered:      map[string]int64{},
		lastPut:      map[string]int64{},
	}
	x.tr = transport.NewChaos(transport.NewInProc(), h.Seed)
	scfg := staging.Config{
		Global:       x.global,
		NServers:     h.Servers,
		Bits:         h.Bits,
		ElemSize:     h.ElemSize,
		WlogReplicas: h.Replicas,
	}
	if h.Flags&trace.FlagOverload != 0 {
		scfg.QoS = &qos.Config{
			Tenants: map[string]qos.Quota{"flood": {StagingBytes: 4096, Priority: 0}},
			Default: qos.Quota{Priority: 1},
		}
	}
	if h.Flags&trace.FlagTier != 0 {
		scfg.MemoryBudgetPerServer = h.MemBudget
		scfg.TierBackend = func(id int) tier.Backend {
			be := pfs.NewStore()
			x.tierMu.Lock()
			x.tierBackends[id] = be
			x.tierMu.Unlock()
			return be
		}
	}
	group, err := staging.StartGroup(x.tr, fmt.Sprintf("soak/%d", h.Seed), scfg)
	if err != nil {
		return nil, err
	}
	x.group = group
	for i := 0; i < h.Spares; i++ {
		if _, err := group.AddSpare(); err != nil {
			x.close()
			return nil, err
		}
	}
	// The death threshold must sit well above the longest recorded
	// blackout or drop window (drawChurn bounds them under 60ms, the
	// hand-placed ones use 20-60ms): declaring a silent-but-alive
	// server dead promotes a spare, and when the window closes the
	// deposed server and any client still bound to it share the same
	// stale epoch — fencing can't catch that pairing, so a put can be
	// acked into deposed state and silently lost. With these settings a
	// dead verdict needs ~140ms of continuous silence: transient windows
	// ride, real kills promote. Every supervisor exists before any
	// starts, so the promotion hooks never see a partly built set.
	x.sups = make([]*recovery.Supervisor, soakSupervisors)
	for i := range x.sups {
		id := fmt.Sprintf("soak/sup/%d", i)
		det := health.NewDetector(x.tr, id, health.Config{
			Period:       10 * time.Millisecond,
			Timeout:      30 * time.Millisecond,
			SuspectAfter: 4,
			DeadAfter:    12,
		})
		x.sups[i] = recovery.New(x.tr, det, group.Membership(), group, recovery.Config{
			ID:            id,
			LeaseTTL:      soakLeaseTTL,
			PromotionHook: x.promotionHook(i),
		})
	}
	for _, s := range x.sups {
		s.Start()
	}
	// Dial every workload client now, while all slots are up:
	// Group.NewClient connects to the full membership, so lazily
	// creating a client mid-churn would race the promotion window.
	apps := []string{soakSweep()}
	if h.Flags&trace.FlagOverload != 0 {
		apps = append(apps, soakFloodApp())
	}
	for g := 0; g < h.Groups; g++ {
		apps = append(apps, soakProd(g), soakCons(g))
	}
	for _, app := range apps {
		if _, err := x.client(app); err != nil {
			x.close()
			return nil, err
		}
	}
	return x, nil
}

func (x *soakExec) close() {
	for _, c := range x.clients {
		c.Close()
	}
	for _, s := range x.sups {
		s.Close()
	}
	if x.group != nil {
		x.group.Close()
	}
}

func (x *soakExec) result() SoakResult {
	r := x.res
	r.StateSum = x.stateSum
	x.supMu.Lock()
	for _, k := range x.killed {
		if k {
			r.SupKills++
		}
	}
	x.supMu.Unlock()
	return r
}

// promotionHook fires an armed EvSupervisorKill when supervisor i's
// promotion completes a stage: a stage mode kills the leader there, and
// "stall" holds it at "replaced" for three lease TTLs, long enough for a
// standby to take over and for the servers to fence its view push when
// it wakes. The last supervisor is spared; the kill stays armed.
func (x *soakExec) promotionHook(i int) func(stage string, slot int) {
	return func(stage string, _ int) {
		x.supMu.Lock()
		mode := x.armed
		fire := i < len(x.sups)-1 && !x.killed[i] && (mode == stage || mode == "stall" && stage == "replaced")
		if fire {
			x.armed = ""
			x.killed[i] = mode != "stall"
		}
		x.supMu.Unlock()
		switch {
		case !fire:
		case mode == "stall":
			time.Sleep(3 * soakLeaseTTL)
		default:
			x.sups[i].Kill()
		}
	}
}

// killSupervisor applies an EvSupervisorKill: mode "" kills supervisor
// Arg at once (again is a no-op), and a promotion stage or "stall" is
// armed for the promotion hook.
func (x *soakExec) killSupervisor(ev trace.Event) error {
	switch {
	case slices.Contains([]string{"intent", "restored", "replaced", "pushed", "stall"}, ev.Name):
		x.supMu.Lock()
		x.armed = ev.Name
		x.supMu.Unlock()
		return nil
	case ev.Name != "":
		return fmt.Errorf("%w: unknown supervisor-kill mode %q", errSoakTerminal, ev.Name)
	}
	i := int(ev.Arg)
	if i < 0 || i >= len(x.sups)-1 {
		return fmt.Errorf("%w: supervisor %d of %d cannot be killed (the last never is)", errSoakTerminal, i, len(x.sups))
	}
	x.supMu.Lock()
	kill := !x.killed[i]
	x.killed[i] = true
	x.supMu.Unlock()
	if kill {
		x.sups[i].Kill()
	}
	return nil
}

// settle is the schedule's recovery barrier. It returns once exactly one
// live supervisor holds the lease and every live supervisor, the
// never-killed last one included, confirms the repaired group
// (WaitIdle). Waiting on each supervisor and not on one covers a
// standby's takeover: a new leader's WaitIdle returns only after it has
// resumed the journaled intents it was elected into. A supervisor a
// promotion hook kills mid-wait starts the barrier over.
func (x *soakExec) settle() error {
	expired, err := poll(soakSettle, func(deadline time.Time) (bool, error) {
		var live []int
		x.supMu.Lock()
		for i, k := range x.killed {
			if !k {
				live = append(live, i)
			}
		}
		x.supMu.Unlock()
		leaders := 0
		for _, i := range live {
			if x.sups[i].IsLeader() {
				leaders++
			}
		}
		if leaders != 1 {
			return false, fmt.Errorf("%d lease holders", leaders)
		}
		err := x.allIdle(live, deadline)
		return err == nil, err
	})
	if expired {
		return fmt.Errorf("workflow: recovery not settled after %v: %w", soakSettle, err)
	}
	return nil
}

// poll runs try every 5 ms until it reports done or d has passed, and
// returns try's last error and whether d ran out first. try is handed
// the deadline, for a wait of its own to stay within.
func poll(d time.Duration, try func(deadline time.Time) (bool, error)) (expired bool, err error) {
	deadline := time.Now().Add(d)
	for {
		done, err := try(deadline)
		if done {
			return false, err
		}
		if time.Now().After(deadline) {
			return true, err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// allIdle waits for each listed supervisor's WaitIdle; one that is
// killed while waiting fails it.
func (x *soakExec) allIdle(live []int, deadline time.Time) error {
	for _, i := range live {
		if err := x.sups[i].WaitIdle(time.Until(deadline)); err != nil {
			return fmt.Errorf("supervisor %d: %w", i, err)
		}
	}
	return nil
}

// awaitStranded is the barrier of a fail-stop into an empty spare pool:
// the leader finds no spare (recovery.no_spare) and strands the slot,
// and the barrier holds until a client call touching it fails fast with
// staging.ErrSlotDown. Every workload operation spans the whole domain,
// so none can finish before an EvAddSpare refills the pool: a schedule
// places one right behind such a fail-stop.
func (x *soakExec) awaitStranded() error {
	c, err := x.client(soakSweep())
	if err != nil {
		return err
	}
	expired, err := poll(soakSettle, func(time.Time) (bool, error) {
		_, err := c.Versions(soakField(0))
		return errors.Is(err, staging.ErrSlotDown), err
	})
	if expired {
		return fmt.Errorf("workflow: fail-stopped slot not stranded after %v: %v", soakSettle, err)
	}
	x.res.SlotDowns++
	return nil
}

// slotAddr is the address serving slot now: the original member or the
// spare promoted into it.
func (x *soakExec) slotAddr(slot int64) (string, error) {
	if addr := x.group.Membership().Addr(int(slot)); addr != "" {
		return addr, nil
	}
	return "", fmt.Errorf("%w: no slot %d of %d", errSoakTerminal, slot, x.h.Servers)
}

// failStop kills the server serving slot. A tiered soak fail-stops only
// before its first spill: a promoted spare attaches a fresh tier, so
// the versions on the dead server's tier would be lost.
func (x *soakExec) failStop(slot int64) error {
	addr, err := x.slotAddr(slot)
	if err != nil {
		return err
	}
	if x.h.Flags&trace.FlagTier != 0 {
		st, err := transport.CallOnce[staging.TierStatsResp](x.tr, addr, staging.TierStatsReq{})
		if err != nil {
			return err
		}
		if st.Spills > 0 {
			return fmt.Errorf("%w: slot %d fail-stopped after its first spill", errSoakTerminal, slot)
		}
	}
	return x.group.FailStop(slices.Index(x.group.Addrs(), addr))
}

// finish is the run's last barrier and its recovery ledger: the group
// settles under one lease holder, every fail-stop cost exactly one
// promotion, one spare and one epoch bump (every other bump strands or
// heals a slot), and a tiered group's
// post-run scrub loses nothing and leaves no tier degraded.
func (x *soakExec) finish() error {
	if err := x.settle(); err != nil {
		return err
	}
	var downChanges int64 // epochs that stranded or healed a slot
	for _, s := range x.sups {
		m := s.Metrics()
		downChanges += m.Counter("recovery.down_changes").Value()
		x.res.Promotions += m.Counter("recovery.promotions").Value()
		x.res.Takeovers += m.Counter("recovery.takeovers").Value()
		x.res.IntentResumes += m.Counter("recovery.intent_resumes").Value()
		x.res.DeadRetries += m.Counter("recovery.dead_retries").Value()
		x.res.SupFenced += m.Counter("recovery.fenced_rejects").Value()
	}
	spares, epoch := x.group.SparesConsumed(), x.group.Membership().Epoch()
	if x.res.Promotions != int64(x.res.FailStops) || int64(spares) != x.res.Promotions || epoch != 1+uint64(x.res.Promotions+downChanges) {
		return fmt.Errorf("workflow: recovery ledger: %d fail-stops, %d promotions, %d spares consumed, %d stranded-set changes, epoch %d",
			x.res.FailStops, x.res.Promotions, spares, downChanges, epoch)
	}
	c := x.clients[soakSweep()]
	if err := c.Reconnect(); err != nil {
		return err
	}
	st, err := c.Stats()
	if err != nil {
		return err
	}
	x.res.ServerFenced = st.FencedRejects
	if x.h.Flags&trace.FlagTier != 0 {
		return x.scrubTiers()
	}
	return nil
}

// scrubTiers disarms every storage fault still pending, then scrubs
// each member's tier: nothing may be lost and nothing left degraded.
func (x *soakExec) scrubTiers() error {
	x.tierMu.Lock()
	for _, be := range x.tierBackends {
		be.FailNextWriteAt(pfs.FaultNone, -1)
		be.SetSlowIO(0)
	}
	x.tierMu.Unlock()
	for _, addr := range x.group.Membership().Addrs() {
		sc, err := transport.CallOnce[staging.TierScrubResp](x.tr, addr, staging.TierScrubReq{})
		if err != nil {
			return err
		}
		if sc.Lost > 0 || sc.Degraded {
			return fmt.Errorf("workflow: tier at %s: scrub lost %d entries, degraded %v", addr, sc.Lost, sc.Degraded)
		}
		st, err := transport.CallOnce[staging.TierStatsResp](x.tr, addr, staging.TierStatsReq{})
		if err != nil {
			return err
		}
		x.res.TierSpills += st.Spills
		x.res.TierPromotes += st.Promotes
	}
	return nil
}

func (x *soakExec) client(app string) (*staging.Client, error) {
	if c, ok := x.clients[app]; ok {
		return c, nil
	}
	c, err := x.group.NewClient(app)
	if err != nil {
		return nil, err
	}
	x.clients[app] = c
	return c, nil
}

// errSoakTerminal marks executor errors retrying cannot fix — a
// divergence from the recorded run.
var errSoakTerminal = errors.New("workflow: soak divergence")

// retry runs fn until success or deadline; every transient staging
// error (degraded, stale epoch, mid-promotion dead slot, overload
// backoff) heals with time, exactly as workflow ranks experience it.
// Terminal errors (errSoakTerminal, wlog divergence) surface at once.
func (x *soakExec) retry(c *staging.Client, fn func() error) error {
	first := true
	_, err := poll(15*time.Second, func(time.Time) (bool, error) {
		if !first && c != nil {
			c.Reconnect()
		}
		err := fn()
		if err == nil || errors.Is(err, errSoakTerminal) || errors.Is(err, wlog.ErrReplayDivergence) {
			return true, err
		}
		if first {
			x.res.Retries++
			first = false
		}
		return false, err
	})
	return err
}

// lockIdempotent reports whether a lock-op error is the signature of a
// lost-ack retry (the previous attempt already took effect): acquiring
// a write lock we already hold, or releasing one we no longer hold.
func lockIdempotent(err error) bool {
	return errors.Is(err, locks.ErrWriteHeld) || errors.Is(err, locks.ErrNotHeld)
}

// apply executes one trace event.
func (x *soakExec) apply(ev trace.Event) error {
	switch ev.Kind {
	case trace.EvPut:
		if ev.Bytes != x.size {
			return fmt.Errorf("%w: put of %d bytes, the domain holds %d", errSoakTerminal, ev.Bytes, x.size)
		}
		c, err := x.client(ev.App)
		if err != nil {
			return err
		}
		data := soakPayload(ev.Seed, ev.Bytes)
		if err := x.retry(c, func() error {
			if ev.Logged {
				return c.PutWithLog(ev.Name, ev.Version, x.global, data)
			}
			return c.Put(ev.Name, ev.Version, x.global, data)
		}); err != nil {
			return err
		}
		x.res.Puts++
		if ev.Logged {
			x.history[ev.App] = append(x.history[ev.App], ev)
			if ev.Version > x.lastPut[ev.App] {
				x.lastPut[ev.App] = ev.Version
			}
		}
		return nil

	case trace.EvGet:
		c, err := x.client(ev.App)
		if err != nil {
			return err
		}
		var got []byte
		if err := x.retry(c, func() error {
			var gerr error
			if ev.Logged {
				got, _, gerr = c.GetWithLog(ev.Name, ev.Version, x.global)
			} else {
				got, _, gerr = c.Get(ev.Name, ev.Version, x.global)
			}
			return gerr
		}); err != nil {
			return err
		}
		sum := payloadSum(got)
		if ev.Sum != 0 && sum != ev.Sum {
			return fmt.Errorf("%w: get %s v%d returned sum %#x, recorded %#x (%d bytes)",
				errSoakTerminal, ev.Name, ev.Version, sum, ev.Sum, len(got))
		}
		x.res.Gets++
		x.res.Digest = foldDigest(x.res.Digest, sum)
		if ev.App == soakSweep() {
			x.stateSum = foldDigest(x.stateSum, sum)
		}
		return nil

	case trace.EvCheckpoint:
		c, err := x.client(ev.App)
		if err != nil {
			return err
		}
		if err := x.retry(c, func() error {
			_, cerr := c.WorkflowCheck()
			return cerr
		}); err != nil {
			return err
		}
		x.history[ev.App] = nil
		x.covered[ev.App] = x.lastPut[ev.App]
		return nil

	case trace.EvRestart:
		return x.applyRestart(ev)

	case trace.EvLock, trace.EvUnlock, trace.EvRLock, trace.EvRUnlock:
		c, err := x.client(ev.App)
		if err != nil {
			return err
		}
		return x.retry(c, func() error {
			var lerr error
			switch ev.Kind {
			case trace.EvLock:
				lerr = c.LockOnWrite(ev.Name)
			case trace.EvUnlock:
				lerr = c.UnlockOnWrite(ev.Name)
			case trace.EvRLock:
				lerr = c.LockOnRead(ev.Name)
			default:
				lerr = c.UnlockOnRead(ev.Name)
			}
			if lockIdempotent(lerr) {
				return nil
			}
			return lerr
		})

	case trace.EvFailStop:
		// A kill is a schedule barrier: the promotion must settle
		// before the workload proceeds. Two kills inside one promotion
		// window exceed the wlog redundancy and lose logged payloads
		// legitimately (the soak asserts recovery, not
		// correlated-failure data loss), and a put racing the tail of a
		// replica install can be clobbered by the restored snapshot.
		// The kill itself still tears live state — held client
		// bindings, wlog replica placement, the restart that follows in
		// the kill-mid-replay schedule — and every later operation runs
		// against the promoted membership. A kill into an empty pool
		// cannot settle until a refill: its barrier is the stranding.
		if err := x.settle(); err != nil {
			return err
		}
		strand := len(x.group.Spares()) == 0
		if err := x.failStop(ev.Arg); err != nil {
			return err
		}
		x.res.FailStops++
		if strand {
			return x.awaitStranded()
		}
		return x.settle()

	case trace.EvBlackout:
		addr, err := x.slotAddr(ev.Arg)
		if err != nil {
			return err
		}
		x.tr.Blackout(addr, time.Duration(ev.Arg2)*time.Millisecond)
		x.res.Blackouts++
		return nil

	case trace.EvNetFault:
		addr, err := x.slotAddr(ev.Arg)
		if err != nil {
			return err
		}
		d := time.Duration(ev.Arg2) * time.Millisecond
		switch ev.Name {
		case "delay":
			x.tr.Delay(addr, d)
		case "drop":
			x.tr.Drop(addr, d)
		default:
			return fmt.Errorf("%w: unknown net fault %q", errSoakTerminal, ev.Name)
		}
		x.res.NetFaults++
		return nil

	case trace.EvTierFault:
		return x.applyTierFault(ev)

	case trace.EvFlood:
		return x.applyFlood(ev)

	case trace.EvSupervisorKill:
		return x.killSupervisor(ev)

	case trace.EvAddSpare:
		for i := int64(0); i < ev.Arg; i++ {
			if _, err := x.group.AddSpare(); err != nil {
				return err
			}
		}
		return x.settle()

	case trace.EvNote:
		return nil

	default:
		return fmt.Errorf("%w: unknown event kind %v", errSoakTerminal, ev.Kind)
	}
}

// applyRestart re-runs the paper's recovery protocol for one producer:
// workflow_restart flips its queue into replay mode at the last
// checkpoint, and the producer re-issues every logged put since — the
// servers must suppress each one byte-exactly. A wlog divergence here
// is the torn-recovery failure the whole design exists to prevent, and
// it surfaces as a replay divergence at this event's logical clock.
func (x *soakExec) applyRestart(ev trace.Event) error {
	c, err := x.client(ev.App)
	if err != nil {
		return err
	}
	var replayed int
	if err := x.retry(c, func() error {
		n, rerr := c.WorkflowRestartFrom(x.covered[ev.App])
		if rerr != nil {
			return rerr
		}
		replayed = n
		return nil
	}); err != nil {
		return err
	}
	x.res.Restarts++
	x.res.Replayed += replayed
	for _, p := range x.history[ev.App] {
		data := soakPayload(p.Seed, p.Bytes)
		if err := x.retry(c, func() error {
			return c.PutWithLog(p.Name, p.Version, x.global, data)
		}); err != nil {
			return err
		}
	}
	return nil
}

// applyTierFault arms one storage fault against the cold-tier backend
// of the server serving a slot. Arming is best-effort by design: a bit
// flip finds nothing to rot before the first spill — deterministically
// so, since the schedule is fixed.
func (x *soakExec) applyTierFault(ev trace.Event) error {
	if ev.Arg2 < trace.TierTornWrite || ev.Arg2 > trace.TierSlowIO {
		return fmt.Errorf("%w: unknown tier fault code %d", errSoakTerminal, ev.Arg2)
	}
	addr, err := x.slotAddr(ev.Arg)
	if err != nil {
		return err
	}
	x.tierMu.Lock()
	be := x.tierBackends[x.group.ServerAt(addr).ID()]
	x.tierMu.Unlock()
	if be == nil {
		return nil
	}
	off := int(ev.Version)
	switch ev.Arg2 {
	case trace.TierTornWrite:
		be.FailNextWriteAt(pfs.FaultTruncate, off)
	case trace.TierPartialWrite:
		be.FailNextWriteAt(pfs.FaultPartial, off)
	case trace.TierENOSPC:
		be.FailNextWriteAt(pfs.FaultENOSPC, -1)
	case trace.TierBitRot:
		var g0 []string
		for _, name := range be.List("tier/") {
			if strings.HasSuffix(name, "/g0") {
				g0 = append(g0, name)
			}
		}
		if len(g0) == 0 {
			return nil
		}
		if off < 0 {
			off = 0
		}
		be.Corrupt(g0[off%len(g0)], off)
	case trace.TierSlowIO:
		be.SetSlowIO(200 * time.Microsecond)
		time.AfterFunc(time.Duration(ev.Bytes)*time.Millisecond, func() { be.SetSlowIO(0) })
	}
	x.res.TierFaults++
	return nil
}

// applyFlood issues one burst of low-priority flood-tenant puts. The
// admission layer sheds them at quota; typed overload rejections are
// the expected outcome, anything else transient is retried. Flood data
// never enters the digest — whether an individual flood put landed or
// shed may depend on promotion timing, so the determinism contract
// covers the workload tenant only.
func (x *soakExec) applyFlood(ev trace.Event) error {
	c, err := x.client(soakFloodApp())
	if err != nil {
		return err
	}
	for i := int64(0); i < ev.Arg; i++ {
		name := fmt.Sprintf("flood/f%d_%d", ev.LC, i)
		data := soakPayload(int64(ev.LC)+i, x.size)
		x.res.FloodPuts++
		err := x.retry(c, func() error {
			perr := c.Put(name, 1, x.global, data)
			if _, ok := qos.FromError(perr); ok {
				x.res.FloodSheds++
				return nil
			}
			return perr
		})
		if err != nil {
			return err
		}
	}
	return nil
}
