package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gospaces/internal/codec"
)

type muxEcho struct {
	Caller int
	Seq    int
	Slow   bool
}

func init() { codec.Register(0xff02, muxEcho{}) }

// TestMuxConcurrentCalls hammers one shared client from many
// goroutines: every call must return exactly once with its own echo —
// a cross-delivered response would surface as a mismatched
// caller/sequence pair.
func TestMuxConcurrentCalls(t *testing.T) {
	tr := NewTCPTimeout(5*time.Second, time.Second)
	ep, err := tr.ListenTCP("127.0.0.1:0", func(req any) (any, error) { return req, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	cl, err := tr.Dial(ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const callers, calls = 32, 50
	var wg sync.WaitGroup
	errs := make(chan error, callers*calls)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for s := 0; s < calls; s++ {
				resp, err := cl.Call(muxEcho{Caller: c, Seq: s})
				if err != nil {
					errs <- fmt.Errorf("caller %d seq %d: %v", c, s, err)
					return
				}
				e, ok := resp.(muxEcho)
				if !ok || e.Caller != c || e.Seq != s {
					errs <- fmt.Errorf("caller %d seq %d got foreign response %#v", c, s, resp)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if g := tr.Metrics().Gauge("transport.inflight").Value(); g != 0 {
		t.Fatalf("transport.inflight = %d after all calls returned", g)
	}
}

// TestMuxConcurrentCallsUnderChaos repeats the hammer through the chaos
// transport with latency, dropped responses, and periodic connection
// kills plus a server crash/restart mid-run. The invariant weakens to:
// every call returns exactly once, and a successful return is the
// caller's own echo — never a neighbour's.
func TestMuxConcurrentCallsUnderChaos(t *testing.T) {
	tr := NewTCPTimeout(2*time.Second, time.Second)
	handler := func(req any) (any, error) { return req, nil }
	ep, err := tr.ListenTCP("127.0.0.1:0", handler)
	if err != nil {
		t.Fatal(err)
	}
	addr := ep.Addr()
	ch := NewChaos(tr, 42)
	ch.SetCallFaults(0.15, 3*time.Millisecond, 0.1)

	cl, err := ch.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const callers, calls = 16, 40
	var wg sync.WaitGroup
	var returned, okCalls atomic.Int64
	errs := make(chan error, callers*calls)
	stop := make(chan struct{})
	nemesisDone := make(chan struct{})
	// Nemesis: kill live connections a few times, then crash and restart
	// the server once. It holds the restarted endpoint open until the
	// callers are done.
	go func() {
		defer close(nemesisDone)
		for i := 0; i < 3; i++ {
			select {
			case <-stop:
				return
			case <-time.After(30 * time.Millisecond):
				ch.KillConns(addr)
			}
		}
		ep.Close()
		time.Sleep(20 * time.Millisecond)
		ep2, err := tr.ListenTCP(addr, handler)
		if err != nil {
			return // port raced away; the calls just keep failing, which is fine
		}
		<-stop
		ep2.Close()
	}()

	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for s := 0; s < calls; s++ {
				resp, err := cl.Call(muxEcho{Caller: c, Seq: s})
				returned.Add(1)
				if err != nil {
					if !Retryable(err) && !errors.Is(err, ErrClosed) {
						errs <- fmt.Errorf("caller %d seq %d: non-transport error %v", c, s, err)
					}
					continue
				}
				okCalls.Add(1)
				e, ok := resp.(muxEcho)
				if !ok || e.Caller != c || e.Seq != s {
					errs <- fmt.Errorf("caller %d seq %d got foreign response %#v", c, s, resp)
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	<-nemesisDone
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := returned.Load(); got != callers*calls {
		t.Fatalf("%d calls returned, want exactly %d", got, callers*calls)
	}
	if okCalls.Load() == 0 {
		t.Fatal("no call succeeded under chaos; faults drowned the test")
	}
	t.Logf("chaos run: %d/%d calls succeeded", okCalls.Load(), callers*calls)
}

// TestSlowCallDoesNotKillNeighbors is the regression for per-call
// deadlines: one call that outlives CallTimeout must return ErrTimeout
// while its neighbours on the same connection complete, and the
// connection itself must survive (no re-dial).
func TestSlowCallDoesNotKillNeighbors(t *testing.T) {
	block := make(chan struct{})
	tr := NewTCPTimeout(150*time.Millisecond, time.Second)
	ep, err := tr.ListenTCP("127.0.0.1:0", func(req any) (any, error) {
		if e, ok := req.(muxEcho); ok && e.Slow {
			<-block
		}
		return req, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	defer close(block)

	cl, err := tr.Dial(ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tc := cl.(*tcpClient)
	tc.mu.Lock()
	connBefore := tc.cur
	tc.mu.Unlock()
	if connBefore == nil {
		t.Fatal("no live connection after dial")
	}

	slowErr := make(chan error, 1)
	go func() {
		_, err := cl.Call(muxEcho{Caller: 99, Slow: true})
		slowErr <- err
	}()

	// Fast neighbours keep completing while the slow call is stuck.
	deadline := time.Now().Add(400 * time.Millisecond)
	for s := 0; time.Now().Before(deadline); s++ {
		resp, err := cl.Call(muxEcho{Caller: 1, Seq: s})
		if err != nil {
			t.Fatalf("fast neighbour failed while slow call in flight: %v", err)
		}
		if e := resp.(muxEcho); e.Caller != 1 || e.Seq != s {
			t.Fatalf("fast neighbour got foreign response %#v", resp)
		}
	}

	if err := <-slowErr; !errors.Is(err, ErrTimeout) {
		t.Fatalf("slow call returned %v, want ErrTimeout", err)
	}

	// The connection must be the same one: a timeout is per-call, not a
	// stream teardown.
	tc.mu.Lock()
	connAfter := tc.cur
	tc.mu.Unlock()
	if connAfter != connBefore {
		t.Fatal("slow-call timeout tore down the shared connection")
	}
	if _, err := cl.Call(muxEcho{Caller: 2, Seq: 0}); err != nil {
		t.Fatalf("call after slow-call timeout: %v", err)
	}
}

// TestMuxLateResponseDiscarded pins the other half of the timeout
// semantics: when the server answers after the caller gave up, the late
// response is dropped by id — it must never be delivered to the next
// call that reuses the stream.
func TestMuxLateResponseDiscarded(t *testing.T) {
	var delay atomic.Bool
	tr := NewTCPTimeout(100*time.Millisecond, time.Second)
	ep, err := tr.ListenTCP("127.0.0.1:0", func(req any) (any, error) {
		if delay.Load() {
			time.Sleep(250 * time.Millisecond)
		}
		return req, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	cl, err := tr.Dial(ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	delay.Store(true)
	if _, err := cl.Call(muxEcho{Caller: 7, Seq: 7}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("delayed call returned %v, want ErrTimeout", err)
	}
	delay.Store(false)
	// The late response for (7,7) lands during these calls; each must
	// still get its own echo.
	for s := 0; s < 20; s++ {
		resp, err := cl.Call(muxEcho{Caller: 8, Seq: s})
		if err != nil {
			t.Fatalf("call after timeout: %v", err)
		}
		if e := resp.(muxEcho); e.Caller != 8 || e.Seq != s {
			t.Fatalf("late response cross-delivered: got %#v", resp)
		}
	}
}
