package sim

import (
	"sort"
	"sync"
	"time"
)

// Clock is the time a protocol layer reads: its timers, tickers,
// sleeps and timestamps. Wall is real time; Manual is time a test
// moves by hand. A layer takes its clock from the transport it runs
// over (transport.ClockOf), so one in-process world runs on one clock.
type Clock interface {
	Now() time.Time
	NewTimer(d time.Duration) *Timer
	NewTicker(d time.Duration) *Ticker
	Sleep(d time.Duration)
}

// Timer delivers one reading on C once its duration has passed, as
// time.Timer does.
type Timer struct {
	C    <-chan time.Time
	stop func() bool
}

// Stop disarms the timer; it reports false when the timer had already
// fired or been stopped.
func (t *Timer) Stop() bool { return t.stop() }

// Ticker delivers a reading on C every period, dropping readings for a
// slow receiver, as time.Ticker does.
type Ticker struct {
	C    <-chan time.Time
	stop func()
}

// Stop disarms the ticker.
func (t *Ticker) Stop() { t.stop() }

// Wall is real time.
var Wall Clock = wall{}

type wall struct{}

func (wall) Now() time.Time        { return time.Now() }
func (wall) Sleep(d time.Duration) { time.Sleep(d) }

func (wall) NewTimer(d time.Duration) *Timer {
	t := time.NewTimer(d)
	return &Timer{C: t.C, stop: t.Stop}
}

func (wall) NewTicker(d time.Duration) *Ticker {
	t := time.NewTicker(d)
	return &Ticker{C: t.C, stop: t.Stop}
}

// Within runs f on a goroutine of its own and waits for it, for at most
// d of clk's time or until stop closes (a nil stop never does). It
// reports whether f returned in time; an f that did not finishes on its
// own. The timer is armed before f starts, so once f is seen running,
// a Manual clock's Advance counts toward d.
func Within(clk Clock, d time.Duration, stop <-chan struct{}, f func()) bool {
	timer := clk.NewTimer(d)
	defer timer.Stop()
	done := make(chan struct{})
	go func() {
		f()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-timer.C:
		return false
	case <-stop:
		return false
	}
}

// Manual is a clock that only a test moves: Advance fires the timers
// and tickers that come due, in deadline order, and nothing else does.
// Every reading is one nanosecond past the one before, so readings
// taken one after another are ordered as wall-clock readings are — a
// probe stamped after a call reads as sent after it — without the
// clock running on its own.
type Manual struct {
	mu      sync.Mutex
	now     time.Time
	seq     uint64
	pending []*deadline
	armed   chan struct{} // closed and replaced whenever a deadline is armed
}

// deadline is one armed timer (every == 0) or ticker.
type deadline struct {
	at    time.Time
	every time.Duration
	seq   uint64
	c     chan time.Time
}

// NewManual returns a manual clock at a fixed instant.
func NewManual() *Manual {
	return &Manual{now: time.Unix(1e9, 0), armed: make(chan struct{})}
}

// Now implements Clock.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.readLocked()
}

func (m *Manual) readLocked() time.Time {
	m.now = m.now.Add(time.Nanosecond)
	return m.now
}

// NewTimer implements Clock. A timer of d <= 0 has fired already.
func (m *Manual) NewTimer(d time.Duration) *Timer {
	dl := m.arm(d, 0)
	return &Timer{C: dl.c, stop: func() bool { return m.disarm(dl) }}
}

// NewTicker implements Clock. It panics on d <= 0, as time.NewTicker
// does.
func (m *Manual) NewTicker(d time.Duration) *Ticker {
	if d <= 0 {
		panic("sim: non-positive ticker period")
	}
	dl := m.arm(d, d)
	return &Ticker{C: dl.c, stop: func() { m.disarm(dl) }}
}

// Sleep implements Clock: it returns once Advance has moved the clock
// d past the call.
func (m *Manual) Sleep(d time.Duration) { <-m.NewTimer(d).C }

func (m *Manual) arm(d, every time.Duration) *deadline {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	dl := &deadline{at: m.readLocked().Add(d), every: every, seq: m.seq, c: make(chan time.Time, 1)}
	if d <= 0 {
		dl.c <- m.now
		return dl
	}
	m.pending = append(m.pending, dl)
	close(m.armed)
	m.armed = make(chan struct{})
	return dl
}

func (m *Manual) disarm(dl *deadline) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, p := range m.pending {
		if p == dl {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			return true
		}
	}
	return false
}

// Advance moves the clock d forward. Every timer and ticker due by then
// fires in deadline order (a ticker once per period it spans, readings
// its receiver has not taken dropped), each with the time it was due.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	end := m.now.Add(d)
	for len(m.pending) > 0 {
		m.sortLocked()
		dl := m.pending[0]
		if dl.at.After(end) {
			break
		}
		if dl.at.After(m.now) {
			m.now = dl.at
		}
		select {
		case dl.c <- dl.at:
		default:
		}
		if dl.every > 0 {
			dl.at = dl.at.Add(dl.every)
		} else {
			m.pending = m.pending[1:]
		}
	}
	if end.After(m.now) {
		m.now = end
	}
}

func (m *Manual) sortLocked() {
	sort.Slice(m.pending, func(i, j int) bool {
		a, b := m.pending[i], m.pending[j]
		if !a.at.Equal(b.at) {
			return a.at.Before(b.at)
		}
		return a.seq < b.seq
	})
}

// Pending returns how far past now each armed timer and ticker is
// next due, soonest first.
func (m *Manual) Pending() []time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sortLocked()
	out := make([]time.Duration, len(m.pending))
	for i, dl := range m.pending {
		out[i] = dl.at.Sub(m.now)
	}
	return out
}

// AwaitPending blocks until at least n timers and tickers are armed:
// the barrier a test uses to know a goroutine has armed the deadline it
// is about to wait on.
func (m *Manual) AwaitPending(n int) {
	for {
		m.mu.Lock()
		ok, armed := len(m.pending) >= n, m.armed
		m.mu.Unlock()
		if ok {
			return
		}
		<-armed
	}
}
