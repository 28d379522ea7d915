package health

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"gospaces/internal/sim"
	"gospaces/internal/transport"
)

// The detector tests run on a manual clock: a periodic round happens
// when a test advances the clock one Period (tick), and every count
// below is a count of rounds, never of elapsed time.

// pingHandler answers pings while alive.
func pingHandler(id int, alive *atomic.Bool) transport.Handler {
	return func(req any) (any, error) {
		if _, ok := req.(PingReq); ok && alive.Load() {
			return PingResp{ID: id}, nil
		}
		return nil, transport.ErrClosed
	}
}

// manualWorld returns an in-process transport whose world runs on a
// manual clock.
func manualWorld() (*transport.InProc, *sim.Manual) {
	clk := sim.NewManual()
	tr := transport.NewInProc()
	tr.Clock = clk
	return tr, clk
}

func fastConfig() Config {
	return Config{Period: 5 * time.Millisecond, Timeout: 20 * time.Millisecond, SuspectAfter: 2, DeadAfter: 4}
}

// tick advances the clock one period and waits for the periodic round
// it starts to end.
func tick(d *Detector, clk *sim.Manual) {
	round := d.Round()
	clk.Advance(d.cfg.Period)
	<-round
}

// next returns the transition the ended rounds queued, if any: a round
// queues its transitions before it ends.
func next(events <-chan Event) (Event, bool) {
	select {
	case ev := <-events:
		return ev, true
	default:
		return Event{}, false
	}
}

// tickUntil ticks until the detector publishes a want transition and
// returns it with the number of rounds that took. Other transitions on
// the way are skipped.
func tickUntil(t *testing.T, d *Detector, clk *sim.Manual, events <-chan Event, want State) (Event, int) {
	t.Helper()
	for n := 1; n <= 100; n++ {
		tick(d, clk)
		for ev, ok := next(events); ok; ev, ok = next(events) {
			if ev.State == want {
				return ev, n
			}
		}
	}
	t.Fatalf("no %v transition in 100 rounds", want)
	return Event{}, 0
}

func TestDetectorDeathAndRejoin(t *testing.T) {
	tr, clk := manualWorld()
	var alive atomic.Bool
	alive.Store(true)
	closer, err := tr.Listen("srv/0", pingHandler(0, &alive))
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()

	d := NewDetector(tr, "test/0", fastConfig())
	defer d.Close()
	d.Watch(0, "srv/0")
	events := d.Subscribe()
	d.Start()

	// Healthy server: no transitions, one probe a round.
	for i := 0; i < 8; i++ {
		tick(d, clk)
	}
	if ev, ok := next(events); ok {
		t.Fatalf("healthy server produced %+v", ev)
	}
	if n := d.Metrics().Counter("health.probes").Value(); n != 8 {
		t.Fatalf("health.probes = %d after 8 rounds", n)
	}

	// Kill it: Suspect then Dead, each at exactly its miss count.
	alive.Store(false)
	if ev, n := tickUntil(t, d, clk, events, Suspect); ev.Server != 0 || ev.Misses != 2 || n != 2 {
		t.Fatalf("suspect event %+v after %d rounds, want 2 misses in 2", ev, n)
	}
	if ev, n := tickUntil(t, d, clk, events, Dead); ev.Misses != 4 || n != 2 {
		t.Fatalf("dead event %+v after 2 more rounds' %d", ev, n)
	}
	if d.Statuses()[0].State != Dead {
		t.Fatalf("state = %v", d.Statuses()[0].State)
	}
	if d.Metrics().Counter("health.deaths").Value() != 1 {
		t.Fatalf("deaths = %d", d.Metrics().Counter("health.deaths").Value())
	}

	// Revive it: the next round reports the rejoin.
	alive.Store(true)
	if _, n := tickUntil(t, d, clk, events, Alive); n != 1 {
		t.Fatalf("rejoin reported after %d rounds, want 1", n)
	}
	if d.Metrics().Counter("health.rejoins").Value() != 1 {
		t.Fatalf("rejoins = %d", d.Metrics().Counter("health.rejoins").Value())
	}
}

func TestDetectorUnknownEndpointIsDead(t *testing.T) {
	tr, clk := manualWorld()
	d := NewDetector(tr, "test/0", fastConfig())
	defer d.Close()
	d.Watch(3, "srv/missing")
	events := d.Subscribe()
	d.Start()
	if ev, n := tickUntil(t, d, clk, events, Dead); ev.Server != 3 || n != 4 {
		t.Fatalf("dead event %+v after %d rounds, want slot 3 after 4", ev, n)
	}
}

func TestDetectorWatchResetsVerdict(t *testing.T) {
	tr, clk := manualWorld()
	var alive atomic.Bool
	alive.Store(true)
	closer, err := tr.Listen("srv/new", pingHandler(7, &alive))
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()

	d := NewDetector(tr, "test/0", fastConfig())
	defer d.Close()
	d.Watch(0, "srv/gone")
	events := d.Subscribe()
	d.Start()
	tickUntil(t, d, clk, events, Dead)

	// Promote: the slot re-targets a healthy replacement and goes back
	// to Alive without a rejoin event (fresh target, clean slate).
	d.Watch(0, "srv/new")
	tick(d, clk)
	if st := d.Statuses()[0]; st.State != Alive || st.Heard.IsZero() {
		t.Fatalf("re-targeted slot after a round: %+v, want alive and heard", st)
	}
	if ev, ok := next(events); ok {
		t.Fatalf("re-targeting produced %+v", ev)
	}
}

// TestDetectorHeardAndRounds: a slot is heard at the send time of the
// last probe it answered — a probe it misses moves nothing, a re-target
// forgets it — and Round closes once per probe round, then for good at
// Close.
func TestDetectorHeardAndRounds(t *testing.T) {
	tr, clk := manualWorld()
	var alive atomic.Bool
	alive.Store(true)
	for _, addr := range []string{"srv/0", "srv/new"} {
		closer, err := tr.Listen(addr, pingHandler(0, &alive))
		if err != nil {
			t.Fatal(err)
		}
		defer closer.Close()
	}
	d := NewDetector(tr, "test/0", Config{Period: 5 * time.Millisecond, Timeout: 20 * time.Millisecond, SuspectAfter: 50, DeadAfter: 100})
	defer d.Close()
	d.Watch(0, "srv/0")
	rounds := func(n int) {
		for i := 0; i < n; i++ {
			tick(d, clk)
		}
	}
	if st := d.Statuses()[0]; st.State != Alive || !st.Heard.IsZero() {
		t.Fatalf("watched, never probed: %+v, want alive and unheard", st)
	}
	started := clk.Now()
	d.Start()
	rounds(1)
	if heard := d.Statuses()[0].Heard; !heard.After(started) {
		t.Fatalf("after one round heard at %v, not after Start at %v", heard, started)
	}
	if n := d.Metrics().Counter("health.rounds").Value(); n != 1 {
		t.Fatalf("health.rounds = %d after one round", n)
	}

	alive.Store(false)
	last := d.Statuses()[0].Heard
	rounds(2)
	if got := d.Statuses()[0].Heard; !got.Equal(last) {
		t.Fatalf("missed probes moved heard from %v to %v", last, got)
	}

	alive.Store(true)
	d.Watch(0, "srv/new")
	if st := d.Statuses()[0]; !st.Heard.IsZero() {
		t.Fatalf("re-targeted slot still heard at %v", st.Heard)
	}
	rounds(1)
	if st := d.Statuses()[0]; st.State != Alive || st.Heard.IsZero() {
		t.Fatalf("re-targeted slot after a round: %+v, want alive and heard", st)
	}
	// Watching the slot's own address again (a supervisor hearing back
	// the membership change it made) forgets nothing.
	heard := d.Statuses()[0].Heard
	d.Watch(0, "srv/new")
	if got := d.Statuses()[0].Heard; !got.Equal(heard) {
		t.Fatalf("re-watching the same address moved heard from %v to %v", heard, got)
	}

	d.Close()
	select {
	case <-d.Round():
	default:
		t.Fatal("Round still open after Close")
	}
}

// farConfig puts the periodic rounds an hour apart, so every round a
// test sees is one it asked for (ProbeNow) or ran by hand (probeAll).
func farConfig() Config {
	return Config{Period: time.Hour, Timeout: 20 * time.Millisecond, SuspectAfter: 2, DeadAfter: 3}
}

// requestRound asks for a probe round and waits for it to end.
func requestRound(d *Detector) {
	round := d.Round()
	d.ProbeNow()
	<-round
}

// TestProbeNowMissesNotCounted: a target that fails only requested
// rounds keeps its miss count and its state — a requested round can
// never hasten a death verdict — while the periodic rounds around them
// count as configured.
func TestProbeNowMissesNotCounted(t *testing.T) {
	tr, _ := manualWorld()
	var alive atomic.Bool
	closer, err := tr.Listen("srv/0", pingHandler(0, &alive))
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	d := NewDetector(tr, "test/0", farConfig())
	defer d.Close()
	d.Watch(0, "srv/0")
	events := d.Subscribe()
	d.Start()

	misses := func() int {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.targets[0].misses
	}
	d.probeAll(false) // a periodic round, run by hand: one miss
	if m := misses(); m != 1 {
		t.Fatalf("misses = %d after one periodic round, want 1", m)
	}
	for i := 0; i < 5; i++ { // more requested misses than DeadAfter
		requestRound(d)
	}
	if m, st := misses(), d.Statuses()[0].State; m != 1 || st != Alive {
		t.Fatalf("after five missed requested rounds: misses %d, %v; want 1, alive", m, st)
	}
	if n := d.Metrics().Counter("health.misses").Value(); n != 1 {
		t.Fatalf("health.misses = %d, want the periodic round's 1", n)
	}
	if ev, ok := next(events); ok {
		t.Fatalf("requested rounds produced %+v", ev)
	}
	d.probeAll(false) // the second periodic miss is the second in a row
	if ev, ok := next(events); !ok || ev.State != Suspect || ev.Misses != 2 {
		t.Fatalf("after the second periodic miss: %+v (%v), want suspect at 2 misses", ev, ok)
	}
}

// TestProbeNowAnswers: a requested round's answers advance Heard and its
// end closes Round, with no periodic round anywhere near. ProbeNow after
// Close does nothing.
func TestProbeNowAnswers(t *testing.T) {
	tr, clk := manualWorld()
	var alive atomic.Bool
	alive.Store(true)
	closer, err := tr.Listen("srv/0", pingHandler(0, &alive))
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	d := NewDetector(tr, "test/0", farConfig())
	defer d.Close()
	d.Watch(0, "srv/0")
	d.Start()
	asked := clk.Now()
	requestRound(d)
	if st := d.Statuses()[0]; st.State != Alive || !st.Heard.After(asked) {
		t.Fatalf("after a requested round: %+v, want alive and heard after %v", st, asked)
	}
	if n := d.Metrics().Counter("health.rounds").Value(); n != 1 {
		t.Fatalf("health.rounds = %d, want the one requested round", n)
	}
	d.Close()
	d.ProbeNow()
	if n := d.Metrics().Counter("health.rounds").Value(); n != 1 {
		t.Fatalf("health.rounds = %d after a ProbeNow on a closed detector", n)
	}
}

// TestProbeNowCoalesces: requests made while a requested round is
// running coalesce into exactly one more round, whose probes leave after
// them.
func TestProbeNowCoalesces(t *testing.T) {
	tr, clk := manualWorld()
	entered := make(chan struct{}, 1)
	gate := make(chan struct{})
	closer, err := tr.Listen("srv/0", func(req any) (any, error) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
		return PingResp{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	d := NewDetector(tr, "test/0", Config{Period: time.Hour, Timeout: 10 * time.Second, SuspectAfter: 2, DeadAfter: 3})
	defer d.Close()
	d.Watch(0, "srv/0")
	d.Start()
	d.ProbeNow()
	<-entered // the first round's probe is in flight
	asked := clk.Now()
	for i := 0; i < 10; i++ {
		d.ProbeNow()
	}
	close(gate)
	rounds := d.Metrics().Counter("health.rounds")
	for {
		round := d.Round() // taken before the count: a round ending after the check closes it
		if rounds.Value() >= 2 {
			break
		}
		<-round
	}
	if heard := d.Statuses()[0].Heard; !heard.After(asked) {
		t.Fatalf("heard at %v, not after the coalesced requests at %v", heard, asked)
	}
	d.Close() // waits for the requested rounds to stop
	if n := rounds.Value(); n != 2 {
		t.Fatalf("health.rounds = %d, want 2: ten requests during a round coalesce into one", n)
	}
}

// TestDetectorTimeoutCountsAsMiss: a probe the server never answers is
// a miss once the timeout passes on the detector's clock. The timeout
// is shorter than the period, so every round is one tick and one
// timeout.
func TestDetectorTimeoutCountsAsMiss(t *testing.T) {
	tr, clk := manualWorld()
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	closer, err := tr.Listen("srv/slow", func(req any) (any, error) {
		entered <- struct{}{}
		<-block
		return PingResp{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	defer close(block)

	cfg := Config{Period: 10 * time.Millisecond, Timeout: 5 * time.Millisecond, SuspectAfter: 2, DeadAfter: 3}
	d := NewDetector(tr, "test/0", cfg)
	defer d.Close()
	d.Watch(0, "srv/slow")
	events := d.Subscribe()
	d.Start()
	for n := 1; n <= cfg.DeadAfter; n++ {
		round := d.Round()
		clk.Advance(cfg.Period)
		<-entered // the probe's timeout is armed before its call starts
		clk.Advance(cfg.Timeout)
		<-round
		if got := d.Metrics().Counter("health.misses").Value(); got != int64(n) {
			t.Fatalf("health.misses = %d after %d timed-out rounds", got, n)
		}
	}
	for ev, ok := next(events); ; ev, ok = next(events) {
		if !ok {
			t.Fatal("no dead verdict after DeadAfter timed-out rounds")
		}
		if ev.State == Dead {
			break
		}
	}
}

func TestMembershipEpochsAndSubscribe(t *testing.T) {
	m := NewMembership([]string{"a", "b", "c"})
	if m.Epoch() != 1 {
		t.Fatalf("initial epoch = %d", m.Epoch())
	}
	sub := m.Subscribe()
	epoch, err := m.ReplaceFenced(0, 1, "b2")
	if err != nil || epoch != 2 {
		t.Fatalf("replace: epoch %d err %v", epoch, err)
	}
	if m.Addr(1) != "b2" || m.Addr(0) != "a" {
		t.Fatalf("addrs = %v", m.Addrs())
	}
	select {
	case ch := <-sub: // queued before ReplaceFenced returns
		if ch.Epoch != 2 || ch.Server != 1 || ch.Addr != "b2" {
			t.Fatalf("change = %+v", ch)
		}
	default:
		t.Fatal("no membership change delivered")
	}
	if _, err := m.ReplaceFenced(0, 9, "x"); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
	if v := m.View(); len(v.Addrs) != 3 || len(v.Down) != 0 || v.Epoch != 2 {
		t.Fatalf("view = %+v", v)
	}
	if m.Addr(9) != "" {
		t.Fatal("out-of-range addr not empty")
	}
}

// TestMembershipDownBumpsEpoch checks that stranding and healing a slot
// each name a new view, that a promotion heals the slot it fills, and
// that a deposed writer cannot move the stranded set.
func TestMembershipDownBumpsEpoch(t *testing.T) {
	m := NewMembership([]string{"a", "b", "c"})
	sub := m.Subscribe()
	for _, step := range []struct {
		id      int
		down    bool
		changed bool
		want    []int
	}{
		{2, true, true, []int{2}},
		{2, true, false, []int{2}},
		{0, true, true, []int{0, 2}},
		{0, false, true, []int{2}},
		{0, false, false, []int{2}},
	} {
		prev := m.View()
		held := slices.Clone(prev.Down)
		before := prev.Epoch
		changed, err := m.SetDownFenced(1, step.id, step.down)
		if err != nil || changed != step.changed {
			t.Fatalf("SetDownFenced(%d, %v) = %v, %v", step.id, step.down, changed, err)
		}
		v := m.View()
		if bumped := v.Epoch != before; bumped != step.changed || !slices.Equal(v.Down, step.want) {
			t.Fatalf("after SetDownFenced(%d, %v): down %v at epoch %d (was %d), want %v", step.id, step.down, v.Down, v.Epoch, before, step.want)
		}
		for slot := range 3 {
			if v.IsDown(slot) != slices.Contains(step.want, slot) {
				t.Fatalf("after SetDownFenced(%d, %v): IsDown(%d) = %v, want down %v", step.id, step.down, slot, v.IsDown(slot), step.want)
			}
		}
		if !slices.Equal(prev.Down, held) { // a view is replaced, never written into
			t.Fatalf("SetDownFenced(%d, %v) wrote into the previous view: %v, was %v", step.id, step.down, prev.Down, held)
		}
	}
	select {
	case ch := <-sub:
		t.Fatalf("stranded-set change notified as %+v", ch)
	default:
	}
	if _, err := m.SetDownFenced(0, 1, true); !IsFenced(err) {
		t.Fatalf("deposed writer: %v, want a FencedError", err)
	}
	if _, err := m.SetDownFenced(1, 5, true); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
	epoch, err := m.ReplaceFenced(1, 2, "c2")
	if down := m.View().Down; err != nil || len(down) != 0 || epoch != 5 {
		t.Fatalf("promotion into the stranded slot: down %v at epoch %d, err %v", down, epoch, err)
	}
}

func TestDetectorCloseIsPromptAndIdempotent(t *testing.T) {
	tr, clk := manualWorld()
	d := NewDetector(tr, "test/0", fastConfig())
	d.Watch(0, "srv/missing")
	events := d.Subscribe()
	d.Start()
	tick(d, clk)
	// Close returns with the clock standing still, twice.
	d.Close()
	d.Close()
	// Subscriber channel is closed after Close.
	for {
		if _, ok := <-events; !ok {
			return
		}
	}
}
