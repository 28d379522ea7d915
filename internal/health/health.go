// Package health provides staging-server failure detection for the
// recovery supervisor (internal/recovery): a lightweight heartbeat
// detector that probes each member of a staging group with PingReq RPCs
// and publishes liveness transitions, plus the epoch-stamped Membership
// that names the current server set. The ping answers with a View and
// a Lease; Fence is the one fencing rule members and Membership keep.
//
// Detection is φ-style consecutive-miss counting rather than a full
// accrual detector: a server that misses SuspectAfter consecutive
// periodic probes is Suspect, one that misses DeadAfter is Dead. A Dead
// verdict is the trigger for the supervisor's promotion sequence; the
// detector itself never mutates membership.
package health

import (
	"fmt"
	"sync"
	"time"

	"gospaces/internal/codec"
	"gospaces/internal/metrics"
	"gospaces/internal/sim"
	"gospaces/internal/transport"
)

// PingReq is the liveness probe. Staging servers answer it from their
// view and their lease record, each under its own lock and never a
// data-path lock, so a ping never blocks behind data traffic.
type PingReq struct {
	// From identifies the prober (supervisor or dsctl), for traces.
	From string
}

// PingResp reports the server's identity, membership view and lease
// record. It is the one answer about both: the supervisor's probe, a
// client's rebind, the answer to a view push, to a lease proposal and
// to an intent write, and dsctl's health and leader all read it.
type PingResp struct {
	// ID is the server's id within its group.
	ID int
	// View is the membership view the server holds (the zero View until
	// the first EpochSet push).
	View View
	// Spare is true while the server waits in the spare pool, outside
	// the membership.
	Spare bool
	// Lease is the server's record of recovery leadership.
	Lease Lease
}

// Wire ids of the probe pair and the fencing rejection
// (internal/codec; DESIGN.md §7 has the whole table). Never renumber.
func init() {
	codec.Register(256, PingReq{})
	codec.Register(257, PingResp{})
	codec.Register(258, &FencedError{})
}

// State is a probed server's liveness verdict.
type State int

// Liveness states, ordered by suspicion.
const (
	// Alive: the last probe succeeded.
	Alive State = iota
	// Suspect: at least SuspectAfter consecutive probes missed.
	Suspect
	// Dead: at least DeadAfter consecutive probes missed. Dead is
	// sticky: the detector keeps probing (a rejoin is reported), but
	// the supervisor treats the first Dead verdict as a confirmed
	// fail-stop.
	Dead
)

// String renders the state for logs and dsctl health.
func (s State) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Event is one liveness transition.
type Event struct {
	// Server is the membership slot id.
	Server int
	// Addr is the address that was probed.
	Addr string
	// State is the new verdict.
	State State
	// Misses is the consecutive-miss count at the transition.
	Misses int
}

// Config tunes the detector.
type Config struct {
	// Period is the probe interval (default 50ms).
	Period time.Duration
	// Timeout bounds one probe, independent of the transport's own
	// deadlines (default 4x Period).
	Timeout time.Duration
	// SuspectAfter is the consecutive-miss threshold for Suspect
	// (default 2).
	SuspectAfter int
	// DeadAfter is the consecutive-miss threshold for Dead (default 4).
	DeadAfter int
}

func (c Config) withDefaults() Config {
	if c.Period <= 0 {
		c.Period = 50 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 4 * c.Period
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 2
	}
	if c.DeadAfter < c.SuspectAfter {
		c.DeadAfter = c.SuspectAfter + 2
	}
	return c
}

// Status is one watched slot's verdict and the send time of the last
// probe it answered at its current address (zero until it answers one).
type Status struct {
	State State
	Heard time.Time
}

// target is one probed server slot.
type target struct {
	id     int
	addr   string
	misses int
	state  State
	heard  time.Time
}

// Detector probes a set of staging servers and publishes liveness
// transitions. Create with NewDetector, arm targets with Watch, then
// Start; Close stops the probe loop and closes subscriber channels and
// the probe clients. Its ticker, probe timeouts and Heard stamps are on
// its transport's clock (transport.ClockOf).
type Detector struct {
	// conns keeps one client per probed address: a miss closes nothing,
	// and a re-targeted slot's new address is dialled on its first probe.
	conns *transport.Peers
	clk   sim.Clock
	cfg   Config
	from  string
	reg   *metrics.Registry

	mu      sync.Mutex
	targets map[int]*target
	subs    []chan Event
	round   chan struct{} // closed+replaced after every probe round (Round)
	started bool
	closed  bool

	// kick holds at most one requested round (ProbeNow) not yet started:
	// a request made while it is full is served by that round.
	kick     chan struct{}
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// NewDetector creates a detector probing over tr on behalf of prober
// identity `from` (e.g. "supervisor/0").
func NewDetector(tr transport.Transport, from string, cfg Config) *Detector {
	return &Detector{
		conns:   transport.NewPeers(tr),
		clk:     transport.ClockOf(tr),
		cfg:     cfg.withDefaults(),
		from:    from,
		reg:     metrics.NewRegistry(),
		targets: make(map[int]*target),
		round:   make(chan struct{}),
		kick:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// Metrics returns the registry recording health.probes, health.misses,
// health.deaths, health.rejoins, and health.rounds.
func (d *Detector) Metrics() *metrics.Registry { return d.reg }

// Clock returns the clock the detector runs on, its transport's.
func (d *Detector) Clock() sim.Clock { return d.clk }

// Window returns the worst-case detection latency: the time from a
// fail-stop to the Dead verdict (DeadAfter missed periods plus one
// probe timeout). It sizes timeouts that must outlast a detection — the
// supervisor's lease TTL — and is never a
// wait for "nothing has failed recently": that is a condition on
// answered probes (Statuses, Round).
func (d *Detector) Window() time.Duration {
	return time.Duration(d.cfg.DeadAfter)*d.cfg.Period + d.cfg.Timeout
}

// Round returns a channel that is closed when the probe round in
// progress, periodic or requested (ProbeNow), ends — every verdict of
// the round recorded and every transition it caused already queued to
// subscribers — or when the detector closes. Call it again for the next
// round.
func (d *Detector) Round() <-chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.round
}

// Watch adds (or re-targets) membership slot id at addr. The slot
// starts Alive with a clean miss count, not yet heard from. Watching a
// slot at the address it already watches changes nothing: a supervisor
// that promoted into the slot hears its own membership change back, and
// must not forget the answers the spare gave meanwhile.
func (d *Detector) Watch(id int, addr string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.targets[id]
	if ok && t.addr == addr {
		return
	}
	d.targets[id] = &target{id: id, addr: addr, state: Alive}
}

// Subscribe returns a channel of liveness transitions. The channel is
// buffered; a subscriber that falls far behind loses the oldest
// transitions (the current verdict is always available via States).
// Close closes all subscriber channels.
func (d *Detector) Subscribe() <-chan Event {
	ch := make(chan Event, 64)
	d.mu.Lock()
	d.subs = append(d.subs, ch)
	d.mu.Unlock()
	return ch
}

// Statuses returns the current verdict per slot id, with the send time
// of the last probe each slot answered. Every transition behind these
// verdicts is already queued to the subscribers.
func (d *Detector) Statuses() map[int]Status {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[int]Status, len(d.targets))
	for id, t := range d.targets {
		out[id] = Status{State: t.state, Heard: t.heard}
	}
	return out
}

// Start launches the probe loop. It is a no-op when already started.
func (d *Detector) Start() {
	d.mu.Lock()
	if d.started {
		d.mu.Unlock()
		return
	}
	d.started = true
	d.mu.Unlock()
	// Armed here, not on the loop's goroutine: the first periodic round
	// is due one Period after Start returns, on any clock.
	go d.loop(d.clk.NewTicker(d.cfg.Period))
}

// Close stops probing and closes subscriber channels and the probe
// clients.
func (d *Detector) Close() error {
	d.stopOnce.Do(func() { close(d.stop) })
	d.mu.Lock()
	started := d.started
	d.mu.Unlock()
	if started {
		<-d.done
	} else {
		d.closeSubs()
	}
	return nil
}

// ProbeNow asks for one probe round now, outside the periodic schedule,
// which it leaves as it is. Every request is answered by a round whose
// probes are sent after it: requests made while a requested round runs
// coalesce into one more round after it. Answers count as in any round
// — they advance Heard, report rejoins, and the round closes Round — but
// a miss is not counted toward Suspect or Dead: detection keeps its
// configured timing (Window), and a round asked for more often than
// Period cannot hasten a death verdict. A request made before Start is
// served once the detector starts.
func (d *Detector) ProbeNow() {
	select {
	case d.kick <- struct{}{}:
	default: // a requested round is pending already and serves this one too
	}
}

func (d *Detector) closeSubs() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, ch := range d.subs {
		close(ch)
	}
	d.subs = nil
	if !d.closed {
		close(d.round) // after the subscriptions: a woken waiter finds them closed
	}
	d.closed = true
	d.conns.Close()
}

func (d *Detector) loop(ticker *sim.Ticker) {
	defer close(d.done)
	defer d.closeSubs()
	// Requested rounds run beside the periodic ones, so a slow one never
	// delays the schedule; both end before the subscriptions close.
	requested := make(chan struct{})
	go func() {
		defer close(requested)
		for {
			select {
			case <-d.stop:
				return
			case <-d.kick:
				d.probeAll(true)
			}
		}
	}()
	defer func() { <-requested }()
	defer ticker.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-ticker.C:
			d.probeAll(false)
		}
	}
}

// probeAll pings every target once, concurrently, folds the results
// into the miss counters (a requested round's misses excepted), and
// ends the round.
func (d *Detector) probeAll(requested bool) {
	d.mu.Lock()
	snapshot := make([]*target, 0, len(d.targets))
	for _, t := range d.targets {
		snapshot = append(snapshot, t)
	}
	d.mu.Unlock()

	type verdict struct {
		t    *target
		ok   bool
		sent time.Time
	}
	results := make(chan verdict, len(snapshot))
	for _, t := range snapshot {
		go func(t *target) {
			sent := d.clk.Now()
			results <- verdict{t: t, ok: d.probe(t), sent: sent}
		}(t)
	}
	for range snapshot {
		v := <-results
		if v.ok || !requested {
			d.record(v.t, v.ok, v.sent)
		}
	}
	d.reg.Counter("health.rounds").Inc()
	d.mu.Lock()
	if !d.closed {
		close(d.round)
		d.round = make(chan struct{})
	}
	d.mu.Unlock()
}

// probe pings one target over its address's kept client, bounded by
// the configured timeout on the detector's clock, and reports whether a
// PingResp came back. A probe that outlives the timeout finishes on its
// own; this round counts it a miss.
func (d *Detector) probe(t *target) bool {
	d.reg.Counter("health.probes").Inc()
	var err error
	answered := sim.Within(d.clk, d.cfg.Timeout, d.stop, func() {
		_, err = transport.As[PingResp](d.conns.Call(t.addr, PingReq{From: d.from}))
	})
	return answered && err == nil
}

// record folds one probe outcome, of a probe sent at sent, into the
// target's state, publishing transitions. The transition is queued to
// the subscribers under d.mu, so no one reads a verdict (Statuses)
// whose transition is not queued yet.
func (d *Detector) record(t *target, ok bool, sent time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.targets[t.id] != t {
		return // re-targeted mid-probe; verdict belongs to the old addr
	}
	var ev *Event
	if ok {
		if t.state != Alive {
			if t.state == Dead {
				d.reg.Counter("health.rejoins").Inc()
			}
			t.state = Alive
			ev = &Event{Server: t.id, Addr: t.addr, State: Alive}
		}
		t.misses = 0
		if sent.After(t.heard) {
			t.heard = sent
		}
	} else {
		d.reg.Counter("health.misses").Inc()
		t.misses++
		switch {
		case t.misses >= d.cfg.DeadAfter && t.state != Dead:
			t.state = Dead
			d.reg.Counter("health.deaths").Inc()
			ev = &Event{Server: t.id, Addr: t.addr, State: Dead, Misses: t.misses}
		case t.misses >= d.cfg.SuspectAfter && t.state == Alive:
			t.state = Suspect
			ev = &Event{Server: t.id, Addr: t.addr, State: Suspect, Misses: t.misses}
		}
	}
	if ev == nil {
		return
	}
	for _, ch := range d.subs {
		select {
		case ch <- *ev:
		default: // subscriber far behind; drop the oldest transition
			select {
			case <-ch:
			default:
			}
			select {
			case ch <- *ev:
			default:
			}
		}
	}
}
