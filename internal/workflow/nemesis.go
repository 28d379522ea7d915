package workflow

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gospaces/internal/domain"
	"gospaces/internal/failure"
	"gospaces/internal/health"
	"gospaces/internal/pfs"
	"gospaces/internal/qos"
	"gospaces/internal/recovery"
	"gospaces/internal/staging"
	"gospaces/internal/tier"
	"gospaces/internal/transport"
	"gospaces/internal/wlog"
)

// NemesisOptions configures one seeded nemesis soak: a staging group
// with redundant recovery supervisors, a logged producer/consumer data
// path, and a nemesis concurrently killing staging servers and
// supervisors on a randomized schedule while the standing invariants
// are checked.
type NemesisOptions struct {
	// Seed drives every random choice; a given seed replays the same run.
	Seed int64
	// Servers is the staging-group size (default 4).
	Servers int
	// Spares is the warm-spare pool size (default 2).
	Spares int
	// Supervisors is the redundant supervisor count (default 3). The
	// last supervisor is never nemesis-killed, so the group can always
	// heal.
	Supervisors int
	// Steps is the number of logged versions the producer writes
	// (default 8).
	Steps int
	// Deaths is how many staging servers fail-stop permanently, capped
	// at Spares (default 1).
	Deaths int
	// Kills is how many leader supervisors the nemesis kills
	// mid-promotion (default 1; capped at Supervisors-1).
	Kills int
	// KillStage picks the promotion stage the leader dies at: "intent",
	// "restored", "replaced", or "pushed". "stall" stalls the leader
	// instead of killing it, long enough to be deposed, so its resumed
	// stale calls demonstrate server-side fencing. Empty rotates by
	// seed.
	KillStage string
	// SpareDelay starts the pool empty and refills it only after the
	// first death has been confirmed unrecoverable (recovery.no_spare),
	// exercising the dead-slot backlog heal.
	SpareDelay bool
	// Chaos adds a seeded schedule of transient server blackouts on top
	// of the deterministic deaths.
	Chaos int
	// Overload draws a seeded failure.NemesisOverload schedule of that
	// many injections and arms its tenant-overload windows: during each
	// window a quota'd low-priority tenant floods the group with puts.
	// The group runs with the admission layer (internal/qos) enabled, so
	// the soak asserts recovery and the logged data path survive while
	// the flood is shed.
	Overload int
	// Tier gives every server and spare a PFS cold tier plus a memory
	// budget of ~4 versions, so the producer's logged history spills and
	// replay reads promote spilled versions back.
	Tier bool
	// StorageFaults draws a seeded failure.NemesisTier schedule of that
	// many injections and arms its PFS faults — torn/partial writes at
	// random offsets, at-rest bit rot, ENOSPC, slow I/O — against the
	// servers' tier backends while the soak runs. Requires Tier.
	StorageFaults int
}

// NemesisResult is the observable outcome a soak test asserts on.
type NemesisResult struct {
	Deaths          int    // staging servers permanently killed
	Promotions      int64  // membership writes performed, summed across supervisors
	SparesConsumed  int    // spares permanently drawn from the pool
	Takeovers       int64  // elections that found journaled intents to resume
	IntentResumes   int64  // promotions resumed from a deposed leader's journal
	SpareReturns    int64  // failed promotions that refunded the pool
	DeadRetries     int64  // backlogged slots healed by a late AddSpare
	Elections       int64  // lease grants, summed across supervisors
	SupFenced       int64  // supervisor-observed fencing rejections
	ServerFenced    int64  // server-side fenced-call rejections
	Leaders         int    // supervisors holding the lease at the end
	ReplayEvents    int    // events replayed through the restored logs
	ReplayDiverged  bool   // any re-issued write diverged from the event log
	Epoch           uint64 // final membership epoch
	DownObserved    bool   // a client saw ErrSlotDown while the slot was stranded
	OverloadWindows int    // tenant-overload windows armed from the schedule
	FloodPuts       int64  // puts the flood tenant attempted during those windows
	FloodSheds      int64  // flood puts rejected with a typed qos overload
	StorageArmed    int64  // PFS faults armed from the NemesisTier schedule
	TierSpills      int64  // versions demoted to the cold tier, summed across servers
	TierPromotes    int64  // spilled versions promoted back by replay reads
	ScrubChecked    int64  // spilled generations checked by the post-soak scrub
	ScrubHealed     int64  // corrupt generations re-replicated from the twin
	ScrubLost       int64  // entries lost to double corruption (must stay 0)
	TierDegraded    bool   // any tier still degraded after the post-soak scrub
}

var nemesisStages = []string{"intent", "restored", "replaced", "pushed"}

func (o *NemesisOptions) defaults() {
	if o.Servers <= 0 {
		o.Servers = 4
	}
	if o.Spares <= 0 {
		o.Spares = 2
	}
	if o.Supervisors <= 0 {
		o.Supervisors = 3
	}
	if o.Steps <= 0 {
		o.Steps = 8
	}
	if o.Deaths <= 0 {
		o.Deaths = 1
	}
	if o.Deaths > o.Spares {
		o.Deaths = o.Spares
	}
	if o.Kills <= 0 {
		o.Kills = 1
	}
	if o.Kills >= o.Supervisors {
		o.Kills = o.Supervisors - 1
	}
	if o.KillStage == "" {
		o.KillStage = nemesisStages[int(o.Seed%int64(len(nemesisStages))+int64(len(nemesisStages)))%len(nemesisStages)]
	}
}

// nemesisPayload is the deterministic byte pattern for one version, so
// every read is verifiable byte-exactly without remembering writes.
func nemesisPayload(version, n int64) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(int64(i)*7 + version*131 + 1)
	}
	return data
}

// RunNemesis executes one seeded nemesis soak and returns the
// measured outcome; assertion lives in the caller. The run is
// deterministic up to goroutine scheduling: all fault choices derive
// from the seed.
func RunNemesis(o NemesisOptions) (NemesisResult, error) {
	o.defaults()
	rng := rand.New(rand.NewSource(o.Seed))
	var res NemesisResult

	tr := transport.NewChaos(transport.NewInProc(), o.Seed)
	global := domain.Box3(0, 0, 0, 63, 63, 0)
	scfg := staging.Config{
		Global:       global,
		NServers:     o.Servers,
		Bits:         2,
		ElemSize:     1,
		WlogReplicas: 2,
	}
	if o.Overload > 0 {
		// Admission control on: the flood tenant gets a small staging
		// quota at the lowest priority, everyone else (the logged
		// producer under "nemesis/") rides the default at priority 1.
		scfg.QoS = &qos.Config{
			Tenants: map[string]qos.Quota{"flood": {StagingBytes: 4096, Priority: 0}},
			Default: qos.Quota{Priority: 1},
		}
	}
	var tierMu sync.Mutex
	tierBackends := map[int]*pfs.Store{}
	if o.Tier {
		// A budget of ~4 versions forces the older logged history to
		// spill; replay reads then promote it back. Spares get their own
		// (reset-on-promotion) tiers via the same hook.
		scfg.MemoryBudgetPerServer = 4 * global.Volume()
		scfg.TierBackend = func(id int) tier.Backend {
			be := pfs.NewStore()
			tierMu.Lock()
			tierBackends[id] = be
			tierMu.Unlock()
			return be
		}
	}
	group, err := staging.StartGroup(tr, fmt.Sprintf("nemesis/%d", o.Seed), scfg)
	if err != nil {
		return res, err
	}
	defer group.Close()
	if !o.SpareDelay {
		for i := 0; i < o.Spares; i++ {
			if _, err := group.AddSpare(); err != nil {
				return res, err
			}
		}
	}

	// Redundant supervisors with fast detectors; the lease TTL is a few
	// detection windows so a takeover lands quickly enough for a short
	// soak.
	const leaseTTL = 150 * time.Millisecond
	sups := make([]*recovery.Supervisor, o.Supervisors)
	killed := make([]bool, o.Supervisors)
	var killMu sync.Mutex
	killsLeft := o.Kills
	for i := 0; i < o.Supervisors; i++ {
		i := i
		id := fmt.Sprintf("nemesis/sup/%d", i)
		det := health.NewDetector(tr, id, health.Config{
			Period:       5 * time.Millisecond,
			Timeout:      25 * time.Millisecond,
			SuspectAfter: 2,
			DeadAfter:    4,
		})
		cfg := recovery.Config{
			ID:       id,
			LeaseTTL: leaseTTL,
			OnPromote: func(slot int, addr string, epoch uint64) {
				group.Pool.SetMember(slot, addr, epoch)
			},
			OnSlotDown: func(slot int, down bool) {
				group.Pool.MarkSlotDown(slot, down)
			},
		}
		cfg.PromotionHook = func(stage string, slot int) {
			if stage != o.KillStage && o.KillStage != "stall" {
				return
			}
			killMu.Lock()
			if killsLeft <= 0 || i == o.Supervisors-1 {
				killMu.Unlock()
				return
			}
			if o.KillStage == "stall" && stage != "replaced" {
				killMu.Unlock()
				return
			}
			killsLeft--
			if o.KillStage != "stall" {
				killed[i] = true
			}
			killMu.Unlock()
			if o.KillStage == "stall" {
				// Stall past the lease: a standby is elected and finishes
				// the promotion; when this leader resumes, its next fenced
				// call (the view push) is rejected server-side.
				time.Sleep(3 * leaseTTL)
				return
			}
			sups[i].Kill()
		}
		sups[i] = recovery.New(tr, det, group.Membership(), group, cfg)
		sups[i].Start()
		defer sups[i].Close()
	}

	// Optional transient chaos riding on top of the deterministic
	// deaths: blackouts against servers, random supervisor kills within
	// the kill budget. The schedule is wall-clock and the run may end
	// inside its horizon, so its timers are kept: the settle phase stops
	// the pending ones (chaosFired counts the callbacks that ran or may
	// still run) and waits out the last blackout one fired (blackoutEnd).
	var (
		chaosTimers []*time.Timer
		chaosFired  sync.WaitGroup
		blackoutMu  sync.Mutex
		blackoutEnd time.Time
	)
	chaosAt := func(at time.Duration, f func()) {
		chaosFired.Add(1)
		chaosTimers = append(chaosTimers, time.AfterFunc(at, func() {
			defer chaosFired.Done()
			f()
		}))
	}
	if o.Chaos > 0 {
		sched, err := failure.Nemesis(o.Seed, o.Chaos, 300*time.Millisecond, 40*time.Millisecond, o.Servers, o.Supervisors-1)
		if err != nil {
			return res, err
		}
		addrs := group.Addrs()
		start := time.Now()
		for _, inj := range sched {
			inj := inj
			switch inj.Kind {
			case failure.ServerCrash:
				chaosAt(inj.At-time.Since(start), func() {
					tr.Blackout(addrs[inj.Server], inj.Duration)
					blackoutMu.Lock()
					if end := time.Now().Add(inj.Duration); end.After(blackoutEnd) {
						blackoutEnd = end
					}
					blackoutMu.Unlock()
				})
			case failure.SupervisorKill:
				chaosAt(inj.At-time.Since(start), func() {
					killMu.Lock()
					ok := killsLeft > 0 && !killed[inj.Server] && inj.Server != o.Supervisors-1
					if ok {
						killsLeft--
						killed[inj.Server] = true
					}
					killMu.Unlock()
					if ok {
						sups[inj.Server].Kill()
					}
				})
			default:
				// Permanent fail-stops stay deterministic (bounded by the
				// spare pool); skip schedule-driven ones.
			}
		}
	}

	// Storage faults against the cold tiers: torn/partial writes and
	// ENOSPC arm one-shot write faults (a failed spill rolls back and
	// the version stays resident — never half-moved), bit rot corrupts a
	// committed generation-0 record at rest (the twin generation must
	// heal it), and slow-I/O windows drag every tier access. All of it
	// runs while servers die and the flood sheds.
	var storageArmed atomic.Int64
	if o.Tier && o.StorageFaults > 0 {
		sched, err := failure.NemesisTier(o.Seed+1, o.StorageFaults, 300*time.Millisecond, 40*time.Millisecond, o.Servers)
		if err != nil {
			return res, err
		}
		start := time.Now()
		for _, inj := range sched {
			inj := inj
			arm := func(f func(be *pfs.Store)) {
				time.AfterFunc(inj.At-time.Since(start), func() {
					tierMu.Lock()
					be := tierBackends[inj.Server]
					tierMu.Unlock()
					if be == nil {
						return
					}
					f(be)
					storageArmed.Add(1)
				})
			}
			switch inj.Kind {
			case failure.PFSTornWrite:
				arm(func(be *pfs.Store) { be.FailNextWriteAt(pfs.FaultTruncate, inj.Offset) })
			case failure.PFSPartialWrite:
				arm(func(be *pfs.Store) { be.FailNextWriteAt(pfs.FaultPartial, inj.Offset) })
			case failure.PFSENOSPC:
				arm(func(be *pfs.Store) { be.FailNextWriteAt(pfs.FaultENOSPC, -1) })
			case failure.PFSBitRot:
				arm(func(be *pfs.Store) {
					// Rot a committed generation-0 record; its generation-1
					// twin stays intact, so the corruption is always
					// healable — any read or scrub must detect it, never
					// serve it.
					var g0 []string
					for _, name := range be.List("tier/") {
						if strings.HasSuffix(name, "/g0") {
							g0 = append(g0, name)
						}
					}
					if len(g0) == 0 {
						return
					}
					off := inj.Offset
					if off < 0 {
						off = 0
					}
					be.Corrupt(g0[off%len(g0)], off)
				})
			case failure.PFSSlowIO:
				arm(func(be *pfs.Store) {
					be.SetSlowIO(200 * time.Microsecond)
					time.AfterFunc(inj.Duration, func() { be.SetSlowIO(0) })
				})
			default:
				// Fail-stops and overload windows stay with their own
				// deterministic/seeded drivers above.
			}
		}
	}

	// Overload windows: a low-priority tenant floods the group while the
	// deterministic deaths (the composed ServerFailStops) land between
	// producer versions. Each window runs its own client so overlapping
	// windows never share a connection; errors are expected — the typed
	// overload rejections are the admission layer doing its job and are
	// counted, everything else (dead slots mid-promotion) is ignored.
	var floodWG sync.WaitGroup
	var floodPuts, floodSheds, floodSeq atomic.Int64
	if o.Overload > 0 {
		sched, err := failure.NemesisOverload(o.Seed, o.Overload, 300*time.Millisecond, 40*time.Millisecond, o.Servers)
		if err != nil {
			return res, err
		}
		start := time.Now()
		for _, inj := range sched {
			inj := inj
			if inj.Kind != failure.TenantOverload {
				continue // fail-stops stay deterministic, as above
			}
			res.OverloadWindows++
			floodWG.Add(1)
			time.AfterFunc(inj.At-time.Since(start), func() {
				defer floodWG.Done()
				flood, err := group.NewClient("nemesis/flood")
				if err != nil {
					return
				}
				defer flood.Close()
				end := time.Now().Add(inj.Duration)
				for time.Now().Before(end) {
					n := floodSeq.Add(1)
					floodPuts.Add(1)
					err := flood.Put(fmt.Sprintf("flood/f%d", n), 1, global, nemesisPayload(n, global.Volume()))
					if _, ok := qos.FromError(err); ok {
						floodSheds.Add(1)
					}
				}
			})
		}
	}

	// Spare-exhaustion heal: the pool starts empty, so the death strands
	// its slot (recovery.no_spare fires, clients see ErrSlotDown); a
	// concurrent late refill lets the backlog sweep promote. It must run
	// alongside the producer — writes touching the stranded slot cannot
	// finish until the pool refills.
	spareErr := make(chan error, 1)
	if o.SpareDelay {
		go func() {
			if err := waitCounter(sups, "recovery.no_spare", 10*time.Second); err != nil {
				spareErr <- err
				return
			}
			time.Sleep(150 * time.Millisecond) // hold the stranding window open
			for i := 0; i < o.Spares; i++ {
				if _, err := group.AddSpare(); err != nil {
					spareErr <- err
					return
				}
			}
			spareErr <- nil
		}()
	} else {
		spareErr <- nil
	}

	prod, err := group.NewClient("nemesis/prod")
	if err != nil {
		return res, err
	}
	defer prod.Close()

	// Producer phase: logged writes spread over the fault window, with
	// the deaths injected between versions. Writes retry through
	// degraded staging exactly like workflow ranks do.
	deathAt := make(map[int]int) // version index -> slot
	deadOrder := rng.Perm(o.Servers)
	for d := 0; d < o.Deaths; d++ {
		v := 2 + d*(o.Steps-3)/maxInt(1, o.Deaths)
		deathAt[v] = deadOrder[d]
	}
	for v := 1; v <= o.Steps; v++ {
		if slot, ok := deathAt[v]; ok {
			if err := group.FailStop(slot); err != nil {
				return res, err
			}
			res.Deaths++
		}
		data := nemesisPayload(int64(v), global.Volume())
		if err := nemesisRetry(10*time.Second, &res, func() error {
			if err := prod.PutWithLog("nemesis/field", int64(v), global, data); err != nil {
				prod.Reconnect()
				return err
			}
			return nil
		}); err != nil {
			return res, fmt.Errorf("put v%d: %w", v, err)
		}
		time.Sleep(time.Duration(rng.Intn(8)) * time.Millisecond)
	}

	if err := <-spareErr; err != nil {
		return res, err
	}

	// Heal phase: a never-killed supervisor drains the backlog.
	survivor := sups[o.Supervisors-1]
	if err := survivor.WaitIdle(20 * time.Second); err != nil {
		return res, err
	}

	// Consumer phase: every version reads back byte-exactly through the
	// (possibly restored) logs.
	cons, err := group.NewClient("nemesis/cons")
	if err != nil {
		return res, err
	}
	defer cons.Close()
	for v := 1; v <= o.Steps; v++ {
		want := nemesisPayload(int64(v), global.Volume())
		if err := nemesisRetry(10*time.Second, &res, func() error {
			got, _, err := cons.GetWithLog("nemesis/field", int64(v), global)
			if err != nil {
				cons.Reconnect()
				return err
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("nemesis: version %d read back %d bytes, mismatch", v, len(got))
			}
			return nil
		}); err != nil {
			return res, err
		}
	}

	// Replay phase: the producer restarts and re-issues every logged
	// write; the servers must suppress them all byte-exactly — any
	// divergence from the restored log is the torn-recovery failure the
	// whole design exists to prevent.
	replayed, err := prod.WorkflowRestart()
	if err != nil {
		return res, err
	}
	res.ReplayEvents = replayed
	for v := 1; v <= o.Steps; v++ {
		data := nemesisPayload(int64(v), global.Volume())
		if err := nemesisRetry(10*time.Second, &res, func() error {
			err := prod.PutWithLog("nemesis/field", int64(v), global, data)
			if errors.Is(err, wlog.ErrReplayDivergence) {
				res.ReplayDiverged = true
				return nil
			}
			if err != nil {
				prod.Reconnect()
			}
			return err
		}); err != nil {
			return res, fmt.Errorf("replay v%d: %w", v, err)
		}
	}

	// Drain any overload window still flooding past the data phases.
	floodWG.Wait()
	res.FloodPuts = floodPuts.Load()
	res.FloodSheds = floodSheds.Load()
	res.StorageArmed = storageArmed.Load()

	// Post-soak tier audit: disarm any fault still pending (the soak is
	// over; a live one-shot would sabotage the scrub's healing writes),
	// then scrub every reachable server's tier. Everything the storage
	// nemesis corrupted must surface here as detected-and-healed; a lost
	// entry would mean both generations rotted (the schedule never does
	// that) and an undetected one would already have failed the
	// byte-exact read/replay phases above.
	if o.Tier {
		tierMu.Lock()
		for _, be := range tierBackends {
			be.FailNextWriteAt(pfs.FaultNone, -1)
			be.SetSlowIO(0)
		}
		tierMu.Unlock()
		for _, addr := range group.Addrs() {
			conn, err := tr.Dial(addr)
			if err != nil {
				continue // a dead slot's original address
			}
			if raw, err := conn.Call(staging.TierScrubReq{}); err == nil {
				if sc, ok := raw.(staging.TierScrubResp); ok && sc.Enabled {
					res.ScrubChecked += sc.Checked
					res.ScrubHealed += sc.Healed
					res.ScrubLost += sc.Lost
					if sc.Degraded {
						res.TierDegraded = true
					}
				}
			}
			if raw, err := conn.Call(staging.TierStatsReq{}); err == nil {
				if st, ok := raw.(staging.TierStatsResp); ok && st.Enabled {
					res.TierSpills += st.Spills
					res.TierPromotes += st.Promotes
				}
			}
			conn.Close()
		}
	}

	// Stop the chaos schedule before settling: the harvest below calls
	// every server once, unretried, so no blackout may be live then.
	for _, t := range chaosTimers {
		if t.Stop() {
			chaosFired.Done()
		}
	}
	chaosFired.Wait()
	time.Sleep(time.Until(blackoutEnd))

	// Settle: the lease must converge on exactly one holder — a leader
	// killed at the tail of a promotion leaves takeover (and the
	// journaled-intent cleanup) to a successor elected after the data
	// phases already finished — and a stalled leader must wake, fire its
	// stale fenced calls, and observe its deposition before the
	// single-holder invariant is judged.
	var leader *recovery.Supervisor
	settle := time.Now().Add(8 * time.Second)
	for {
		leaders := 0
		var fenced int64
		leader = nil
		for _, sup := range sups {
			if sup.IsLeader() {
				leaders++
				leader = sup
			}
			fenced += sup.Metrics().Counter("recovery.fenced_rejects").Value()
		}
		if leaders == 1 && (o.KillStage != "stall" || fenced > 0) {
			break
		}
		if time.Now().After(settle) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if leader != nil {
		// Let a freshly elected leader finish any promotion it resumed
		// from the journal.
		if err := leader.WaitIdle(10 * time.Second); err != nil {
			return res, err
		}
	}

	// Harvest: metrics, lease state, server-side fencing stats.
	for _, sup := range sups {
		m := sup.Metrics()
		res.Promotions += m.Counter("recovery.promotions").Value()
		res.Takeovers += m.Counter("recovery.takeovers").Value()
		res.IntentResumes += m.Counter("recovery.intent_resumes").Value()
		res.SpareReturns += m.Counter("recovery.spare_returns").Value()
		res.DeadRetries += m.Counter("recovery.dead_retries").Value()
		res.Elections += m.Counter("recovery.elections").Value()
		res.SupFenced += m.Counter("recovery.fenced_rejects").Value()
		if sup.IsLeader() {
			res.Leaders++
		}
	}
	res.SparesConsumed = group.SparesConsumed()
	res.Epoch = group.Membership().Epoch()
	stats, err := cons.Stats()
	if err != nil {
		return res, err
	}
	res.ServerFenced = stats.FencedRejects
	return res, nil
}

// nemesisRetry retries fn until it succeeds or the deadline passes,
// recording whether a stranded slot was observed en route. Any error is
// retryable during a soak: degraded staging, stale epochs, blackouts,
// and promotions in flight all heal.
func nemesisRetry(timeout time.Duration, res *NemesisResult, fn func() error) error {
	deadline := time.Now().Add(timeout)
	for {
		err := fn()
		if err == nil {
			return nil
		}
		if errors.Is(err, staging.ErrSlotDown) {
			res.DownObserved = true
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitCounter blocks until any supervisor's named counter goes
// positive.
func waitCounter(sups []*recovery.Supervisor, name string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		for _, sup := range sups {
			if sup.Metrics().Counter(name).Value() > 0 {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("nemesis: counter %s stayed zero for %v", name, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
