package health

import (
	"sync/atomic"
	"testing"
	"time"

	"gospaces/internal/transport"
)

// pingHandler answers pings while alive.
func pingHandler(id int, alive *atomic.Bool) transport.Handler {
	return func(req any) (any, error) {
		if _, ok := req.(PingReq); ok && alive.Load() {
			return PingResp{ID: id}, nil
		}
		return nil, transport.ErrClosed
	}
}

func fastConfig() Config {
	return Config{Period: 5 * time.Millisecond, Timeout: 20 * time.Millisecond, SuspectAfter: 2, DeadAfter: 4}
}

func waitFor(t *testing.T, ch <-chan Event, want State, timeout time.Duration) Event {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatalf("event channel closed waiting for %v", want)
			}
			if ev.State == want {
				return ev
			}
		case <-deadline:
			t.Fatalf("no %v event within %v", want, timeout)
		}
	}
}

func TestDetectorDeathAndRejoin(t *testing.T) {
	tr := transport.NewInProc()
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

	// Healthy server: no transitions, probes counted.
	time.Sleep(40 * time.Millisecond)
	select {
	case ev := <-events:
		t.Fatalf("healthy server produced %+v", ev)
	default:
	}
	if d.Metrics().Counter("health.probes").Value() == 0 {
		t.Fatal("no probes recorded")
	}

	// Kill it: Suspect then Dead, with the configured miss counts.
	alive.Store(false)
	ev := waitFor(t, events, Suspect, time.Second)
	if ev.Server != 0 || ev.Misses < 2 {
		t.Fatalf("suspect event %+v", ev)
	}
	ev = waitFor(t, events, Dead, time.Second)
	if ev.Misses < 4 {
		t.Fatalf("dead event %+v", ev)
	}
	if d.Statuses()[0].State != Dead {
		t.Fatalf("state = %v", d.Statuses()[0].State)
	}
	if d.Metrics().Counter("health.deaths").Value() != 1 {
		t.Fatalf("deaths = %d", d.Metrics().Counter("health.deaths").Value())
	}

	// Revive it: the detector reports the rejoin.
	alive.Store(true)
	waitFor(t, events, Alive, time.Second)
	if d.Metrics().Counter("health.rejoins").Value() != 1 {
		t.Fatalf("rejoins = %d", d.Metrics().Counter("health.rejoins").Value())
	}
}

func TestDetectorUnknownEndpointIsDead(t *testing.T) {
	tr := transport.NewInProc()
	d := NewDetector(tr, "test/0", fastConfig())
	defer d.Close()
	d.Watch(3, "srv/missing")
	events := d.Subscribe()
	d.Start()
	ev := waitFor(t, events, Dead, time.Second)
	if ev.Server != 3 {
		t.Fatalf("dead event %+v", ev)
	}
}

func TestDetectorSetAddrResetsVerdict(t *testing.T) {
	tr := transport.NewInProc()
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
	waitFor(t, events, Dead, time.Second)

	// Promote: the slot re-targets a healthy replacement and goes back
	// to Alive without a rejoin event (fresh target, clean slate).
	d.SetAddr(0, "srv/new")
	time.Sleep(50 * time.Millisecond)
	if got := d.Statuses()[0].State; got != Alive {
		t.Fatalf("re-targeted slot state = %v", got)
	}
}

// TestDetectorHeardAndRounds: a slot is heard at the send time of the
// last probe it answered — a probe it misses moves nothing, a re-target
// forgets it — and Round closes once per probe round, then for good at
// Close. Everything is counted in rounds, not time.
func TestDetectorHeardAndRounds(t *testing.T) {
	tr := transport.NewInProc()
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
			<-d.Round()
		}
	}
	if st := d.Statuses()[0]; st.State != Alive || !st.Heard.IsZero() {
		t.Fatalf("watched, never probed: %+v, want alive and unheard", st)
	}
	started := time.Now()
	d.Start()
	rounds(1) // the first round's probe leaves after Start
	if heard := d.Statuses()[0].Heard; heard.Before(started) {
		t.Fatalf("after one round heard at %v, before Start at %v", heard, started)
	}
	if n := d.Metrics().Counter("health.rounds").Value(); n < 1 {
		t.Fatalf("health.rounds = %d after one round", n)
	}

	alive.Store(false)
	rounds(1) // the round in progress may still be answered; later ones are not
	last := d.Statuses()[0].Heard
	rounds(2)
	if got := d.Statuses()[0].Heard; !got.Equal(last) {
		t.Fatalf("missed probes moved heard from %v to %v", last, got)
	}

	alive.Store(true)
	d.SetAddr(0, "srv/new")
	if st := d.Statuses()[0]; !st.Heard.IsZero() {
		t.Fatalf("re-targeted slot still heard at %v", st.Heard)
	}
	rounds(2)
	if st := d.Statuses()[0]; st.State != Alive || st.Heard.IsZero() {
		t.Fatalf("re-targeted slot after two rounds: %+v, want alive and heard", st)
	}
	// Watching the slot's own address again (a supervisor hearing back
	// the membership change it made) forgets nothing.
	heard := d.Statuses()[0].Heard
	d.SetAddr(0, "srv/new")
	if got := d.Statuses()[0].Heard; got.Before(heard) {
		t.Fatalf("re-watching the same address moved heard back from %v to %v", heard, got)
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
func requestRound(t *testing.T, d *Detector) {
	t.Helper()
	round := d.Round()
	d.ProbeNow()
	select {
	case <-round:
	case <-time.After(5 * time.Second):
		t.Fatal("requested probe round never ended")
	}
}

// TestProbeNowMissesNotCounted: a target that fails only requested
// rounds keeps its miss count and its state — a requested round can
// never hasten a death verdict — while the periodic rounds around them
// count as configured.
func TestProbeNowMissesNotCounted(t *testing.T) {
	tr := transport.NewInProc()
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
		requestRound(t, d)
	}
	if m, st := misses(), d.Statuses()[0].State; m != 1 || st != Alive {
		t.Fatalf("after five missed requested rounds: misses %d, %v; want 1, alive", m, st)
	}
	if n := d.Metrics().Counter("health.misses").Value(); n != 1 {
		t.Fatalf("health.misses = %d, want the periodic round's 1", n)
	}
	select {
	case ev := <-events:
		t.Fatalf("requested rounds produced %+v", ev)
	default:
	}
	d.probeAll(false) // the second periodic miss is the second in a row
	if ev := waitFor(t, events, Suspect, time.Second); ev.Misses != 2 {
		t.Fatalf("suspect event %+v, want 2 misses", ev)
	}
}

// TestProbeNowAnswers: a requested round's answers advance Heard and its
// end closes Round, with no periodic round anywhere near. ProbeNow after
// Close does nothing.
func TestProbeNowAnswers(t *testing.T) {
	tr := transport.NewInProc()
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
	asked := time.Now()
	requestRound(t, d)
	if st := d.Statuses()[0]; st.State != Alive || st.Heard.Before(asked) {
		t.Fatalf("after a requested round: %+v, want alive and heard since %v", st, asked)
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
	tr := transport.NewInProc()
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
	asked := time.Now()
	for i := 0; i < 10; i++ {
		d.ProbeNow()
	}
	close(gate)
	rounds := d.Metrics().Counter("health.rounds")
	for deadline := time.Now().Add(5 * time.Second); rounds.Value() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("health.rounds = %d: the requests made during a round were never served", rounds.Value())
		}
	}
	if heard := d.Statuses()[0].Heard; heard.Before(asked) {
		t.Fatalf("heard at %v, before the coalesced requests at %v", heard, asked)
	}
	d.Close() // waits for the requested rounds to stop
	if n := rounds.Value(); n != 2 {
		t.Fatalf("health.rounds = %d, want 2: ten requests during a round coalesce into one", n)
	}
}

func TestDetectorTimeoutCountsAsMiss(t *testing.T) {
	tr := transport.NewInProc()
	block := make(chan struct{})
	closer, err := tr.Listen("srv/slow", func(req any) (any, error) {
		<-block
		return PingResp{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	defer close(block)

	d := NewDetector(tr, "test/0", Config{Period: 5 * time.Millisecond, Timeout: 10 * time.Millisecond, SuspectAfter: 2, DeadAfter: 3})
	defer d.Close()
	d.Watch(0, "srv/slow")
	events := d.Subscribe()
	d.Start()
	waitFor(t, events, Dead, time.Second)
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
	case ch := <-sub:
		if ch.Epoch != 2 || ch.Server != 1 || ch.Addr != "b2" {
			t.Fatalf("change = %+v", ch)
		}
	case <-time.After(time.Second):
		t.Fatal("no membership change delivered")
	}
	if _, err := m.ReplaceFenced(0, 9, "x"); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
	addrs, epoch := m.Snapshot()
	if len(addrs) != 3 || epoch != 2 {
		t.Fatalf("snapshot = %v, %d", addrs, epoch)
	}
	if m.Addr(9) != "" {
		t.Fatal("out-of-range addr not empty")
	}
}

func TestDetectorCloseIsPromptAndIdempotent(t *testing.T) {
	tr := transport.NewInProc()
	d := NewDetector(tr, "test/0", fastConfig())
	d.Watch(0, "srv/missing")
	events := d.Subscribe()
	d.Start()
	done := make(chan struct{})
	go func() {
		d.Close()
		d.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return")
	}
	// Subscriber channel is closed after Close.
	for {
		if _, ok := <-events; !ok {
			return
		}
	}
}
