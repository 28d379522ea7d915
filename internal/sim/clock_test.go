package sim

import (
	"testing"
	"time"
)

func fired(c <-chan time.Time) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// TestManualReadingsOrdered: readings taken one after another are
// distinct and increasing, and only Advance moves the clock further.
func TestManualReadingsOrdered(t *testing.T) {
	m := NewManual()
	a, b := m.Now(), m.Now()
	if !b.After(a) || b.Sub(a) != time.Nanosecond {
		t.Fatalf("readings %v then %v, want one nanosecond apart", a, b)
	}
	m.Advance(time.Second)
	if c := m.Now(); c.Sub(b) < time.Second {
		t.Fatalf("after Advance(1s) the clock moved %v", c.Sub(b))
	}
}

// TestManualTimersFireInDeadlineOrder: Advance fires exactly the timers
// due by its end, each with the time it was due; a stopped timer never
// fires, and a non-positive one has fired at creation.
func TestManualTimersFireInDeadlineOrder(t *testing.T) {
	m := NewManual()
	late, early, stopped := m.NewTimer(30*time.Millisecond), m.NewTimer(10*time.Millisecond), m.NewTimer(20*time.Millisecond)
	if !fired(m.NewTimer(0).C) {
		t.Fatal("a zero timer has not fired at creation")
	}
	if got := m.Pending(); len(got) != 3 || got[0] >= got[1] || got[1] >= got[2] {
		t.Fatalf("pending %v, want three deadlines soonest first", got)
	}
	if !stopped.Stop() || stopped.Stop() {
		t.Fatal("Stop reports a disarm once, then nothing")
	}
	m.Advance(15 * time.Millisecond)
	if fired(late.C) || !fired(early.C) {
		t.Fatal("Advance(15ms) must fire the 10ms timer and not the 30ms one")
	}
	m.Advance(15 * time.Millisecond)
	if fired(stopped.C) || !fired(late.C) {
		t.Fatal("the stopped timer fired, or the 30ms one did not")
	}
	if n := len(m.Pending()); n != 0 {
		t.Fatalf("%d deadlines pending after every timer fired", n)
	}
}

// TestManualTickerDropsForSlowReceiver: a ticker fires once per period
// an Advance spans, and a receiver that takes none holds one reading.
func TestManualTickerDropsForSlowReceiver(t *testing.T) {
	m := NewManual()
	tk := m.NewTicker(10 * time.Millisecond)
	m.Advance(35 * time.Millisecond)
	if !fired(tk.C) || fired(tk.C) {
		t.Fatal("three ticks into an untaken channel must leave exactly one")
	}
	if got := m.Pending(); len(got) != 1 || got[0] != 5*time.Millisecond {
		t.Fatalf("pending %v, want the next tick 5ms ahead", got)
	}
	tk.Stop()
	m.Advance(time.Second)
	if fired(tk.C) {
		t.Fatal("a stopped ticker ticked")
	}
}

// TestManualSleepAndWithin: Sleep returns once the clock passes it;
// Within gives up on a call still running when its time passes, and
// AwaitPending is the barrier that says its timer is armed.
func TestManualSleepAndWithin(t *testing.T) {
	m := NewManual()
	woke := make(chan struct{})
	go func() {
		m.Sleep(time.Second)
		close(woke)
	}()
	m.AwaitPending(1)
	m.Advance(time.Second)
	<-woke

	if !Within(m, time.Second, nil, func() {}) {
		t.Fatal("a call that returns at once was given up on")
	}
	release := make(chan struct{})
	defer close(release)
	out := make(chan bool)
	go func() { out <- Within(m, time.Second, nil, func() { <-release }) }()
	m.AwaitPending(1)
	m.Advance(time.Second)
	if <-out {
		t.Fatal("a call still running after its time was not given up on")
	}
	stop := make(chan struct{})
	close(stop)
	if Within(m, time.Hour, stop, func() { <-release }) {
		t.Fatal("a closed stop did not end the wait")
	}
}
