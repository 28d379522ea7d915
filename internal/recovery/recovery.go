// Package recovery implements the staging-server fail-stop recovery
// supervisor: it subscribes to liveness verdicts from a health.Detector
// and, on a confirmed death, promotes a warm spare into the dead slot,
// bumps the membership epoch, and pushes the new view to every member.
// The dead server's event log, logged payloads and lock table reach the
// spare from a surviving wlog replica before the membership moves.
//
// Recovery itself is crash-consistent: any number of redundant
// supervisors may run against one group, and lease-based leader
// election (a token CAS on a majority of the membership) picks exactly
// one to act. Every recovery-side mutation — the membership write, the
// view push, the log-restore install — carries the leader's fencing
// token, so a deposed leader's stale calls are rejected server-side.
// Each promotion is journaled as an intent record on a majority of
// members before anything is mutated, so a standby that takes over
// mid-promotion resumes the same slot with the same spare: no
// half-promoted group, no double-spent spare.
// The supervisor never touches object or log state directly: a replica
// holder installs its replica on the spare itself.
package recovery

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"gospaces/internal/health"
	"gospaces/internal/metrics"
	"gospaces/internal/sim"
	"gospaces/internal/staging"
	"gospaces/internal/transport"
)

// SparePool hands out addresses of warm spare servers; staging.Group
// implements it. TakeSpareFor is idempotent per dead slot — until the
// promotion commits (CommitSpare) or aborts (ReturnSpare), repeated
// draws for the same slot return the same spare, which is what lets a
// leader takeover resume a half-done promotion without spending a
// second spare.
type SparePool interface {
	TakeSpareFor(slot int) (addr string, ok bool)
	ReturnSpare(slot int) bool
	CommitSpare(slot int)
}

// Config tunes the supervisor. Clients learn what it does only from
// the servers' view it pushes: a promotion, a stranded slot
// (health.View.Down) and its heal each come as a new epoch.
type Config struct {
	// ID names this supervisor in lease records (default "supervisor/0").
	// Redundant supervisors over one group must use distinct IDs.
	ID string
	// LeaseTTL is the leader-lease duration: a standby takes over within
	// one TTL of the leader stalling or dying. Default 3x the detector's
	// detection window.
	LeaseTTL time.Duration
	// PromotionHook, if set, runs after each completed promotion stage
	// ("intent", "restored", "replaced", "pushed") — where the soak's
	// EvSupervisorKill (internal/workflow) kills or stalls a leader
	// mid-promotion.
	PromotionHook func(stage string, slot int)
}

func (c Config) withDefaults(det *health.Detector) Config {
	if c.ID == "" {
		c.ID = "supervisor/0"
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 3 * det.Window()
	}
	return c
}

// Supervisor drives fail-stop recovery for one staging group. Several
// redundant supervisors may supervise the same group; leader election
// picks one to act and the rest stand by.
type Supervisor struct {
	conns  *peers
	det    *health.Detector
	clk    sim.Clock // the detector's: leases and WaitIdle read it
	mem    *health.Membership
	spares SparePool
	cfg    Config
	reg    *metrics.Registry

	events <-chan health.Event
	memCh  <-chan health.Change

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	mu      sync.Mutex
	started bool
	leader  bool
	token   uint64 // lease token while leader
	maxSeen uint64 // highest token observed cluster-wide
	// dead is the backlog of confirmed-dead slots awaiting promotion,
	// each with the address that died (for the intent journal).
	dead map[int]string
	wake chan struct{} // closed+replaced when seen or settled moves (WaitIdle)
	// seen is the detector's verdicts as of the last probe round whose
	// transitions the loop has handled (nil before the first), next the
	// round the loop waits on after it, and settled the last moment a
	// recovery was in flight: what WaitIdle decides on.
	seen    map[int]health.Status
	next    <-chan struct{}
	settled time.Time
}

// New wires a supervisor over a running detector and membership. It
// arms the detector to watch every current member and subscribes to
// membership changes so a standby's detector follows promotions made
// by the leader; call Start to begin supervising. The detector should
// not be started yet (Start does it).
func New(tr transport.Transport, det *health.Detector, mem *health.Membership, spares SparePool, cfg Config) *Supervisor {
	s := &Supervisor{
		conns:  &peers{tr: tr, conns: make(map[string]transport.Client)},
		det:    det,
		clk:    det.Clock(),
		mem:    mem,
		spares: spares,
		cfg:    cfg.withDefaults(det),
		reg:    metrics.NewRegistry(),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		dead:   make(map[int]string),
		wake:   make(chan struct{}),
	}
	for id, addr := range mem.Addrs() {
		det.Watch(id, addr)
	}
	s.events = det.Subscribe()
	s.memCh = mem.Subscribe()
	return s
}

// Metrics returns the registry recording recovery.promotions,
// recovery.duration_ns, and recovery.no_spare; with log replication
// enabled it also records recovery.log_restores, recovery.log_records,
// recovery.log_bytes, recovery.log_lag (stream-position spread among
// surviving replicas), recovery.log_missing, and
// recovery.failed_log_restores. The HA machinery adds
// recovery.elections, recovery.lease_renewals, recovery.takeovers
// (elections that found journaled intents), recovery.intent_resumes,
// recovery.spare_returns (failed promotions refunding the pool),
// recovery.dead_retries (backlogged slots healed by a late AddSpare),
// recovery.down_changes (epochs bumped by stranding or healing a slot),
// recovery.view_repushes (rejoined members re-sent the current view),
// and recovery.fenced_rejects (this supervisor's calls rejected as
// deposed).
func (s *Supervisor) Metrics() *metrics.Registry { return s.reg }

// ID returns the supervisor's lease identity.
func (s *Supervisor) ID() string { return s.cfg.ID }

// IsLeader reports whether this supervisor currently holds the
// recovery lease (false once stopped).
func (s *Supervisor) IsLeader() bool {
	if s.stopped() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.leader
}

// Token returns the fencing token of the current (or last-held) lease.
func (s *Supervisor) Token() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.token
}

// Start launches the detector, runs a first election round, and starts
// the supervision loop. It is a no-op when already started.
func (s *Supervisor) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.next = s.det.Round() // the detector's first round: it is not started yet
	round := s.next
	s.mu.Unlock()
	s.det.Start()
	// First election immediately: a lone supervisor becomes leader with
	// no added latency; contending candidates fall back to jittered
	// retries in the loop.
	s.campaign()
	go s.loop(round, s.clk.NewTicker(s.renewEvery()))
}

// Close stops supervising gracefully (the detector and the member
// connections are closed too). The lease is not released — it expires
// on its own, which is also exactly what a crash looks like to the
// standbys.
func (s *Supervisor) Close() error {
	s.stopOnce.Do(func() { close(s.stop) })
	s.det.Close() // closes the event channel, unblocking the loop
	s.mu.Lock()
	started := s.started
	s.mu.Unlock()
	if started {
		<-s.done
	}
	s.conns.close()
	return nil
}

// Kill stops the supervisor abruptly — the soak's supervisor crash
// (EvSupervisorKill). Unlike Close it does not wait for the loop to
// drain: the member connections close at once, so an in-flight
// promotion's calls fail and it aborts at its next stage boundary,
// leaving the journaled intent for the next leader to resume. Call
// Close afterwards to reap the loop goroutine.
func (s *Supervisor) Kill() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.det.Close()
	s.conns.close()
}

func (s *Supervisor) stopped() bool {
	select {
	case <-s.stop:
		return true
	default:
		return false
	}
}

// wakeLocked wakes every WaitIdle caller to re-check its condition.
// Caller holds s.mu.
func (s *Supervisor) wakeLocked() {
	close(s.wake)
	s.wake = make(chan struct{})
}

// WaitIdle blocks until the group is confirmed repaired, or the timeout
// expires: no recovery is in flight, and every watched slot is Alive
// and has answered a probe sent after the later of the call and the
// last moment a recovery was in flight. A member killed before the call
// can never answer, and a promoted spare (its slot re-targeted, so not
// heard yet) must answer before WaitIdle returns; a member that rejoins
// has been re-sent the view by then. A workflow calls WaitIdle before
// re-binding clients so promoted addresses are in place. The wait parks
// on supervisor wakeups — one per probe round the loop has handled, and
// one per recovery ending — and a recovery's end asks the detector for
// a probe round at once, so it returns within one probe round-trip of
// the repair. A stopped supervisor confirms nothing: WaitIdle fails at
// once.
func (s *Supervisor) WaitIdle(timeout time.Duration) error {
	since := s.clk.Now()
	timer := s.clk.NewTimer(timeout)
	defer timer.Stop()
	for {
		s.mu.Lock()
		wake, idle := s.wake, s.idleLocked(since)
		s.mu.Unlock()
		if s.stopped() {
			return errors.New("recovery: supervisor stopped")
		}
		if idle {
			return nil
		}
		select {
		case <-wake:
		case <-s.stop:
		case <-timer.C:
			return fmt.Errorf("recovery: not idle after %v (verdicts %v)", timeout, s.det.Statuses())
		}
	}
}

// idleLocked is WaitIdle's condition for a call made at since. Caller
// holds s.mu.
func (s *Supervisor) idleLocked(since time.Time) bool {
	if s.seen == nil || s.reg.Counter("recovery.in_flight").Value() > 0 {
		return false
	}
	if s.settled.After(since) {
		since = s.settled
	}
	for _, st := range s.seen {
		if st.State != health.Alive || st.Heard.Before(since) {
			return false
		}
	}
	return true
}

// beginRecovery and endRecovery bracket one promotion attempt for
// WaitIdle: it holds while one is in flight and, after it, until every
// slot answers a probe sent once it ended. endRecovery asks for that
// probe round at once rather than leaving it to the next periodic one.
// Both wake WaitIdle's waiters, so recovery.in_flight changes only
// under s.mu and a waiter (or a test moving a manual clock) sees each
// change.
func (s *Supervisor) beginRecovery() {
	s.mu.Lock()
	s.reg.Counter("recovery.in_flight").Inc()
	s.wakeLocked()
	s.mu.Unlock()
}

func (s *Supervisor) endRecovery() {
	s.mu.Lock()
	s.reg.Counter("recovery.in_flight").Add(-1)
	s.settled = s.clk.Now()
	s.wakeLocked()
	s.mu.Unlock()
	s.det.ProbeNow()
}

// renewEvery is the lease maintenance period: a third of the TTL so a
// leader renews well before expiry, plus a per-supervisor deterministic
// jitter so contending candidates do not campaign in lock-step.
func (s *Supervisor) renewEvery() time.Duration {
	ttl := s.cfg.LeaseTTL
	every := ttl / 3
	if span := ttl / 6; span > 0 {
		h := fnv.New32a()
		h.Write([]byte(s.cfg.ID))
		every += time.Duration(h.Sum32()) % span
	}
	return every
}

func (s *Supervisor) loop(round <-chan struct{}, tick *sim.Ticker) {
	defer close(s.done)
	defer tick.Stop()
	for {
		select {
		case <-s.stop:
			return
		case ev, ok := <-s.events:
			if !ok {
				return
			}
			s.handleEvent(ev)
		case <-round:
			if round = s.confirmRound(); round == nil {
				return
			}
		case ch := <-s.memCh:
			s.handleChange(ch)
		case <-tick.C:
			s.tick()
		}
	}
}

// confirmRound takes the detector's verdicts as of the probe round that
// just ended, handles every transition queued behind them (a rejoined
// member is re-sent the view here), and only then publishes them to
// WaitIdle — so it never sees an answer the supervisor has not acted on.
// It returns the next round to wait on, nil once the detector is closed.
func (s *Supervisor) confirmRound() <-chan struct{} {
	next, seen := s.det.Round(), s.det.Statuses()
	for drained := false; !drained; {
		select {
		case ev, ok := <-s.events:
			if !ok {
				return nil
			}
			s.handleEvent(ev)
		default:
			drained = true
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seen, s.next = seen, next
	s.wakeLocked()
	return next
}

// tick maintains the lease — renew as leader, campaign as standby —
// and sweeps the dead-slot backlog (which is how a slot stranded by
// spare exhaustion heals once AddSpare refills the pool).
func (s *Supervisor) tick() {
	if s.stopped() {
		return
	}
	if s.isLeader() {
		if s.renew() {
			s.reg.Counter("recovery.lease_renewals").Inc()
		} else {
			s.stepDown()
		}
	} else {
		s.campaign()
	}
	s.sweep()
}

// handleEvent folds one liveness transition into the backlog and, as
// leader, acts on it.
func (s *Supervisor) handleEvent(ev health.Event) {
	switch ev.State {
	case health.Dead:
		if s.mem.Addr(ev.Server) != ev.Addr {
			// The verdict was queued behind the membership change that
			// already promoted a spare into the slot: backlogging it would
			// promote over the live spare.
			return
		}
		s.mu.Lock()
		if _, ok := s.dead[ev.Server]; !ok {
			s.dead[ev.Server] = ev.Addr
		}
		s.mu.Unlock()
		s.sweep()
	case health.Alive:
		s.mu.Lock()
		delete(s.dead, ev.Server)
		leader := s.leader
		token := s.token
		s.mu.Unlock()
		// A member that was dark during a view push converges on rejoin:
		// the leader re-sends the current view to it (a spare that died
		// out of the membership is not re-pushed). A stranded slot that
		// rejoins heals: every member gets the view that lists it up.
		v := s.mem.View()
		if !leader || ev.Server < 0 || ev.Server >= len(v.Addrs) || v.Addrs[ev.Server] != ev.Addr {
			return
		}
		healed := v.IsDown(ev.Server) && s.setDown(ev.Server, false)
		if healed {
			v = s.mem.View()
		}
		if s.pushViewTo(ev.Addr, token, v) {
			s.reg.Counter("recovery.view_repushes").Inc()
		}
		if healed {
			s.pushView(token, v)
		}
	}
}

// handleChange follows a membership write made by whichever supervisor
// is leader: the detector re-targets the slot, and the slot leaves this
// supervisor's backlog.
func (s *Supervisor) handleChange(ch health.Change) {
	s.det.Watch(ch.Server, ch.Addr)
	s.mu.Lock()
	delete(s.dead, ch.Server)
	s.mu.Unlock()
}

func (s *Supervisor) isLeader() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.leader
}

func (s *Supervisor) currentToken() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.token
}

// stepDown drops leadership locally; the lease expires (or has been
// superseded) on the servers.
func (s *Supervisor) stepDown() {
	s.mu.Lock()
	s.leader = false
	s.mu.Unlock()
}

// observeDeposed records a server-side fencing rejection: a newer
// leader exists, so this one stops acting immediately.
func (s *Supervisor) observeDeposed() {
	s.reg.Counter("recovery.fenced_rejects").Inc()
	s.stepDown()
}

// quorum is the grant count an election or renewal must exceed half
// of: the membership minus the slots this supervisor has confirmed
// dead (a dead member can never grant, and waiting for it would wedge
// small groups — a 2-server group with one death could otherwise never
// elect anyone to repair it). Competing leaders elected over
// different subjective live-sets are still serialized by the fencing
// tokens: the per-server CAS feeds every candidate the cluster-wide
// token high-water mark, so the later leader's token is strictly
// higher and fences the earlier one out of every mutation.
func (s *Supervisor) quorum(addrs []string) int {
	s.mu.Lock()
	n := len(addrs)
	for slot := range s.dead {
		if slot >= 0 && slot < len(addrs) {
			n--
		}
	}
	s.mu.Unlock()
	if n < 1 {
		n = 1
	}
	return n
}

// leaseRound proposes (or renews) the lease on every member and counts
// grants, folding refused servers' token high-water marks into maxSeen
// so the next campaign proposes past them.
func (s *Supervisor) leaseRound(addrs []string, token uint64) int {
	grants := 0
	for _, addr := range addrs {
		resp, err := call[staging.LeaseCASResp](s, addr,
			staging.LeaseCASReq{Holder: s.cfg.ID, Token: token, TTL: s.cfg.LeaseTTL})
		if err != nil {
			continue
		}
		s.mu.Lock()
		if resp.MaxToken > s.maxSeen {
			s.maxSeen = resp.MaxToken
		}
		s.mu.Unlock()
		if resp.Granted {
			grants++
		}
	}
	return grants
}

// campaign runs one election round: propose maxSeen+1 to every member,
// become leader on a majority of grants. On success the membership is
// fenced at the new token and any journaled promotion intents from the
// deposed leader are resumed.
func (s *Supervisor) campaign() bool {
	if s.stopped() {
		return false
	}
	addrs := s.mem.Addrs()
	s.mu.Lock()
	token := s.maxSeen + 1
	s.mu.Unlock()
	grants := s.leaseRound(addrs, token)
	if grants*2 <= s.quorum(addrs) {
		// Give back any partial grants: two candidates each holding half
		// the membership would otherwise re-extend their halves on every
		// retry and livelock the election.
		if grants > 0 {
			s.releaseRound(addrs)
		}
		return false
	}
	s.mu.Lock()
	s.leader = true
	s.token = token
	if token > s.maxSeen {
		s.maxSeen = token
	}
	s.mu.Unlock()
	s.reg.Counter("recovery.elections").Inc()
	// Seal the in-process membership too, so a deposed leader sharing
	// this Membership object cannot race a stale Replace past us.
	s.mem.Fence(token)
	s.onElected(token)
	return true
}

// renew extends the lease under the current token; losing the majority
// means a partition or a superseding leader, either way leadership is
// gone — the stragglers that did renew are released so a successor
// need not wait out their TTL.
func (s *Supervisor) renew() bool {
	addrs := s.mem.Addrs()
	if s.leaseRound(addrs, s.currentToken())*2 > s.quorum(addrs) {
		return true
	}
	s.releaseRound(addrs)
	return false
}

// releaseRound gives this supervisor's lease grants back on every
// member; a record held by someone else is untouched.
func (s *Supervisor) releaseRound(addrs []string) {
	for _, addr := range addrs {
		// Best effort: a grant that is not given back expires on its own.
		call[staging.LeaseCASResp](s, addr, staging.LeaseCASReq{Holder: s.cfg.ID, Release: true})
	}
}

// onElected resumes whatever the previous leader left half-done: the
// journaled promotion intents found on a majority of members. It then
// heals every stranded slot this supervisor does not hold dead — one
// that rejoined while it stood by, which only a leader heals — and
// pushes the view to every member, so none keeps a deposed leader's.
func (s *Supervisor) onElected(token uint64) {
	intents := s.fetchIntents()
	if len(intents) > 0 {
		s.reg.Counter("recovery.takeovers").Inc()
	}
	for _, in := range intents {
		if s.stopped() || !s.isLeader() {
			return
		}
		s.resume(in)
	}
	for _, slot := range s.mem.View().Down {
		s.mu.Lock()
		_, dead := s.dead[slot]
		s.mu.Unlock()
		if !dead {
			s.setDown(slot, false)
		}
	}
	s.pushView(token, s.mem.View())
}

// fetchIntents unions the journaled promotion intents across members,
// keeping the highest-token record per slot.
func (s *Supervisor) fetchIntents() []staging.PromotionIntent {
	best := make(map[int]staging.PromotionIntent)
	for _, addr := range s.mem.Addrs() {
		resp, err := call[staging.LeaderInfoResp](s, addr, staging.LeaderInfoReq{})
		if err != nil {
			continue
		}
		for _, in := range resp.Intents {
			if cur, ok := best[in.Slot]; !ok || in.Token > cur.Token {
				best[in.Slot] = in
			}
		}
	}
	slots := make([]int, 0, len(best))
	for slot := range best {
		slots = append(slots, slot)
	}
	sort.Ints(slots)
	out := make([]staging.PromotionIntent, 0, len(best))
	for _, slot := range slots {
		out = append(out, best[slot])
	}
	return out
}

// resume continues a promotion journaled by a deposed leader. The
// shared spare assignment is authoritative: TakeSpareFor returns the
// spare the deposed leader already drew for the slot, so the resumed
// promotion can never spend a second one.
func (s *Supervisor) resume(in staging.PromotionIntent) {
	token := s.currentToken()
	already := s.mem.Addr(in.Slot) == in.Spare
	var spare string
	if already {
		// The membership write landed before the takeover; only the
		// finish work (view push, intent clear, commit) is outstanding.
		spare = in.Spare
	} else {
		var ok bool
		spare, ok = s.spares.TakeSpareFor(in.Slot)
		if !ok {
			// The intent is stale: the deposed leader's spare was returned
			// to the pool (failed restore) and the pool is now dry. Clear
			// the journal; the dead-slot sweep re-promotes on refill.
			s.clearIntent(in.Slot, token)
			return
		}
	}
	s.mu.Lock()
	if _, ok := s.dead[in.Slot]; !ok && !already {
		s.dead[in.Slot] = in.DeadAddr
	}
	s.mu.Unlock()
	s.reg.Counter("recovery.intent_resumes").Inc()
	s.beginRecovery()
	s.promote(in.Slot, in.DeadAddr, spare)
	s.endRecovery()
}

// sweep drives the dead-slot backlog as leader: every backlogged slot
// gets a promotion attempt. Slots that found no spare stay backlogged
// and are retried on every lease tick — a later AddSpare heals them
// (recovery.dead_retries counts those late heals).
func (s *Supervisor) sweep() {
	if s.stopped() || !s.isLeader() {
		return
	}
	s.mu.Lock()
	slots := make([]int, 0, len(s.dead))
	for slot := range s.dead {
		slots = append(slots, slot)
	}
	sort.Ints(slots)
	s.mu.Unlock()
	for _, slot := range slots {
		if s.stopped() || !s.isLeader() {
			return
		}
		s.recoverSlot(slot)
	}
}

// recoverSlot runs the promotion sequence for one backlogged slot:
// spare draw → intent journal → log restore → fenced membership write →
// fenced view push → re-target detector.
func (s *Supervisor) recoverSlot(slot int) {
	s.mu.Lock()
	deadAddr, ok := s.dead[slot]
	s.mu.Unlock()
	if !ok {
		return
	}

	start := s.clk.Now()
	s.beginRecovery()
	defer s.endRecovery()

	spare, ok := s.spares.TakeSpareFor(slot)
	if !ok {
		// Spare exhaustion: the slot enters the stranded backlog. It is
		// re-attempted every lease tick, so a later AddSpare heals it;
		// meanwhile the view lists it Down, so clients fail fast with
		// ErrSlotDown.
		s.reg.Counter("recovery.no_spare").Inc()
		if s.setDown(slot, true) {
			s.pushView(s.currentToken(), s.mem.View())
		}
		return
	}
	if s.mem.View().IsDown(slot) {
		s.reg.Counter("recovery.dead_retries").Inc()
	}
	s.promote(slot, deadAddr, spare)
	s.reg.Counter("recovery.duration_ns").Add(s.clk.Now().Sub(start).Nanoseconds())
}

// setDown strands (down) or heals slot in the membership under this
// leader's token, and reports whether that made a new view for the
// caller to push.
func (s *Supervisor) setDown(slot int, down bool) bool {
	changed, err := s.mem.SetDownFenced(s.currentToken(), slot, down)
	if errors.Is(err, health.ErrFenced) {
		s.observeDeposed()
	}
	if changed {
		s.reg.Counter("recovery.down_changes").Inc()
	}
	return changed
}

// hook runs the promotion-stage hook and reports whether the promotion
// should proceed — false once the supervisor is stopped (killed
// mid-promotion) or deposed.
func (s *Supervisor) hook(stage string, slot int) bool {
	if h := s.cfg.PromotionHook; h != nil {
		h(stage, slot)
	}
	return !s.stopped() && s.isLeader()
}

// promote executes (or resumes) the promotion of spare into slot. Every
// stage is idempotent under the intent journal: a takeover re-runs the
// sequence with the same spare, skipping the log restore once the
// membership already points at it (the restore strictly precedes the
// membership write, so a promoted address implies a completed restore —
// re-installing onto a live member would wipe post-promotion writes).
func (s *Supervisor) promote(slot int, deadAddr, spare string) {
	token := s.currentToken()
	intent := staging.PromotionIntent{Slot: slot, DeadAddr: deadAddr, Spare: spare, Token: token}
	if !s.putIntent(intent, token) {
		s.reg.Counter("recovery.failed_promotions").Inc()
		return
	}
	if !s.hook("intent", slot) {
		return
	}
	already := s.mem.Addr(slot) == spare
	if !already && !s.restoreLog(slot, spare, token) {
		// The restore failed outright (the spare is unreachable): refund
		// the pool so another slot — or a retry — can spend the spare.
		s.giveBack(slot, token)
		s.reg.Counter("recovery.failed_promotions").Inc()
		return
	}
	if !s.hook("restored", slot) {
		return
	}
	if _, err := s.mem.ReplaceFenced(token, slot, spare); err != nil {
		if errors.Is(err, health.ErrFenced) {
			s.observeDeposed()
			return
		}
		s.giveBack(slot, token)
		s.reg.Counter("recovery.failed_promotions").Inc()
		return
	}
	if !already {
		// Count the supervisor that performed the membership write; a
		// takeover finishing an already-replaced promotion must not
		// count it twice across the redundant set.
		s.reg.Counter("recovery.promotions").Inc()
	}
	if !s.hook("replaced", slot) {
		return
	}
	s.pushView(token, s.mem.View())
	if !s.hook("pushed", slot) {
		return
	}
	s.clearIntent(slot, token)
	s.spares.CommitSpare(slot)
	s.det.Watch(slot, spare)
	s.mu.Lock()
	delete(s.dead, slot)
	s.mu.Unlock()
}

// giveBack refunds a spare the promotion could not spend, clearing the
// journaled intent first so a takeover cannot resume onto a spare that
// is back in the pool. A deposed leader must not refund — the new
// leader owns the assignment now.
func (s *Supervisor) giveBack(slot int, token uint64) {
	if !s.isLeader() {
		return
	}
	s.clearIntent(slot, token)
	if s.spares.ReturnSpare(slot) {
		s.reg.Counter("recovery.spare_returns").Inc()
	}
}

// putIntent journals the promotion intent on a majority of the
// surviving membership (the dead slot cannot ack). A fencing rejection
// means a newer leader exists and the promotion is abandoned here.
func (s *Supervisor) putIntent(in staging.PromotionIntent, token uint64) bool {
	addrs := s.mem.Addrs()
	acks, polled := 0, 0
	for i, addr := range addrs {
		if i == in.Slot {
			continue
		}
		polled++
		if _, err := fencedCall[staging.IntentPutResp](s, addr, token, staging.IntentPutReq{Intent: in}); err != nil {
			if staging.IsFenced(err) {
				s.observeDeposed()
				return false
			}
			continue
		}
		acks++
	}
	return acks*2 > polled
}

// clearIntent drops the journaled intent on every reachable member.
func (s *Supervisor) clearIntent(slot int, token uint64) {
	for _, addr := range s.mem.Addrs() {
		if _, err := fencedCall[staging.IntentClearResp](s, addr, token, staging.IntentClearReq{Slot: slot}); err != nil && staging.IsFenced(err) {
			s.observeDeposed()
			return
		}
	}
}

// call issues one request to addr over the member's kept connection
// and expects an R back.
func call[R any](s *Supervisor, addr string, req any) (R, error) {
	return transport.As[R](s.conns.call(addr, req))
}

// fencedCall issues one request to addr under the fencing token and
// expects an R back.
func fencedCall[R any](s *Supervisor, addr string, token uint64, req any) (R, error) {
	return call[R](s, addr, staging.FencedReq{Token: token, Req: req})
}

// peers keeps one client per member address for every supervisor call:
// the lease rounds, the intent journal, the position queries, the fenced
// install and the view push. A client is dialled on first use and
// dropped on a transport fault, so the next call to that address
// re-dials; close shuts every client and refuses new dials.
type peers struct {
	tr transport.Transport

	mu     sync.Mutex
	conns  map[string]transport.Client
	closed bool
}

// call issues req to addr over its kept client.
func (p *peers) call(addr string, req any) (any, error) {
	c, err := p.client(addr)
	if err != nil {
		return nil, err
	}
	resp, err := c.Call(req)
	if transport.Retryable(err) || errors.Is(err, transport.ErrClosed) {
		p.mu.Lock()
		if p.conns[addr] == c {
			delete(p.conns, addr)
		}
		p.mu.Unlock()
		c.Close()
	}
	return resp, err
}

// client returns addr's kept client, dialling it if there is none. The
// dial runs outside the lock, so a slow one never holds up close.
func (p *peers) client(addr string) (transport.Client, error) {
	p.mu.Lock()
	c, ok := p.conns[addr]
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return nil, transport.ErrClosed
	}
	if ok {
		return c, nil
	}
	c, err := p.tr.Dial(addr)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		c.Close()
		return nil, transport.ErrClosed
	}
	if kept, ok := p.conns[addr]; ok { // a concurrent call dialled first
		c.Close()
		return kept, nil
	}
	p.conns[addr] = c
	return c, nil
}

func (p *peers) close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for addr, c := range p.conns {
		c.Close()
		delete(p.conns, addr)
	}
}

// restoreLog restores the dead slot's replicated event-log state onto
// the spare before the membership moves. Every surviving member is
// asked for its replica's position only; the freshest holder — the
// highest stream position, ties to the lowest-numbered — is then told,
// under this leader's fencing token, to install its replica on the
// spare itself. The supervisor relays no state: the replica crosses the
// wire once, holder to spare, and no losing copy crosses at all.
// Flush-before-ack on the origin guarantees the freshest surviving
// replica holds every acknowledged operation. Finding no replica is not
// fatal — the slot comes up empty, the pre-replication behavior — but
// it is counted, because with replication enabled it means the queues
// died with the server. It reports whether the promotion may proceed.
func (s *Supervisor) restoreLog(deadSlot int, spareAddr string, token uint64) bool {
	addrs := s.mem.Addrs()
	holder := ""
	minSeq, maxSeq := int64(-1), int64(-1)
	for i, addr := range addrs {
		if i == deadSlot {
			continue
		}
		resp, err := call[staging.ReplFetchResp](s, addr, staging.ReplFetchReq{Slot: deadSlot})
		if err != nil || !resp.Found {
			continue
		}
		if minSeq < 0 || resp.Seq < minSeq {
			minSeq = resp.Seq
		}
		if resp.Seq > maxSeq {
			maxSeq, holder = resp.Seq, addr
		}
	}
	if holder == "" {
		s.reg.Counter("recovery.log_missing").Inc()
		return true
	}
	resp, err := fencedCall[staging.ReplFetchResp](s, holder, token, staging.ReplFetchReq{Slot: deadSlot, InstallOn: spareAddr})
	if err != nil || !resp.Found {
		if staging.IsFenced(err) {
			s.observeDeposed()
			return false
		}
		s.reg.Counter("recovery.failed_log_restores").Inc()
		return false
	}
	s.reg.Counter("recovery.log_restores").Inc()
	s.reg.Counter("recovery.log_records").Add(resp.Seq)
	s.reg.Counter("recovery.log_bytes").Add(resp.Bytes)
	s.reg.Counter("recovery.log_lag").Add(maxSeq - minSeq)
	return true
}

// pushView installs v on every member, including a promoted spare
// (which clears its spare flag). Unreachable members are skipped; they
// adopt the view on rejoin — the leader re-pushes it when the detector
// reports them Alive again.
func (s *Supervisor) pushView(token uint64, v health.View) {
	for _, addr := range v.Addrs {
		if !s.isLeader() {
			return
		}
		s.pushViewTo(addr, token, v)
	}
}

// pushViewTo sends one fenced view install, reporting success: the
// member answers with its health.PingResp.
func (s *Supervisor) pushViewTo(addr string, token uint64, v health.View) bool {
	_, err := fencedCall[health.PingResp](s, addr, token, staging.EpochSetReq{View: v})
	if staging.IsFenced(err) {
		s.observeDeposed()
	}
	return err == nil
}
