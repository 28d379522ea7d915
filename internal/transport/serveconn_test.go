package transport

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

func handlerStarts(tr *TCP) int64 {
	return tr.Metrics().Counter("transport.handler_starts").Value()
}

// gatedServer listens on tr with a handler that signals arrived and
// then blocks until release yields, and dials it over a transport of
// its own, so tr's counters are the server's alone. release closes
// before the endpoint does, so a failing test never waits on a
// blocked handler.
func gatedServer(t *testing.T, tr *TCP, buffer int) (ep *TCPEndpoint, cl Client, arrived, release chan struct{}) {
	t.Helper()
	arrived, release = make(chan struct{}, buffer), make(chan struct{})
	ep, err := tr.ListenTCP("127.0.0.1:0", func(req any) (any, error) {
		arrived <- struct{}{}
		<-release
		return echoHandler(req)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ep.Close() })
	cl, err = NewTCPTimeout(10*time.Second, time.Second).Dial(ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	t.Cleanup(func() { close(release) })
	return ep, cl, arrived, release
}

// callAll issues n concurrent calls on cl; their errors arrive on the
// returned channel.
func callAll(cl Client, n int) <-chan error {
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			_, err := cl.Call(echoReq{Msg: fmt.Sprint(i)})
			errs <- err
		}(i)
	}
	return errs
}

// serveAll waits for n calls to arrive, releases them and checks their
// results.
func serveAll(t *testing.T, n int, arrived, release chan struct{}, errs <-chan error) {
	t.Helper()
	for i := 0; i < n; i++ {
		<-arrived
	}
	for i := 0; i < n; i++ {
		release <- struct{}{}
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestServeConnReusesHandlers: a connection keeps its handler
// goroutines. Sequential calls are all served by the first one, and a
// new handler starts only for a frame that finds every live one busy.
func TestServeConnReusesHandlers(t *testing.T) {
	t.Run("sequential", func(t *testing.T) {
		tr := NewTCP()
		ep, err := tr.ListenTCP("127.0.0.1:0", echoHandler)
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		cl, err := NewTCP().Dial(ep.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		for i := 0; i < 1000; i++ {
			msg := fmt.Sprint(i)
			if resp, err := cl.Call(echoReq{Msg: msg}); err != nil || resp.(echoResp).Msg != "echo:"+msg {
				t.Fatalf("call %d: %v %v", i, resp, err)
			}
		}
		if n := handlerStarts(tr); n != 1 {
			t.Fatalf("1000 sequential calls started %d handlers, want 1", n)
		}
	})
	t.Run("concurrent", func(t *testing.T) {
		const callers = 16
		tr := NewTCP()
		_, cl, arrived, release := gatedServer(t, tr, callers)
		serveAll(t, callers, arrived, release, callAll(cl, callers))
		if n := handlerStarts(tr); n != callers {
			t.Fatalf("%d callers blocked at once started %d handlers, want %d", callers, n, callers)
		}
	})
}

// TestServeConnInflightBound pins the read loop's backpressure: with
// every handler blocked, exactly maxConnInflight frames of one
// connection are handled at once, and the next is handled only after
// one of them returns — by that handler, not a new one.
func TestServeConnInflightBound(t *testing.T) {
	tr := NewTCP()
	_, cl, arrived, release := gatedServer(t, tr, maxConnInflight+1)
	frame, _, err := appendFrame(0, 1, nil, echoReq{Msg: "0"})
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, maxConnInflight+1)
	for i := 0; i <= maxConnInflight; i++ {
		go func() {
			_, err := cl.Call(echoReq{Msg: "0"}) // every frame the same length
			errs <- err
		}()
	}
	for i := 0; i < maxConnInflight; i++ {
		<-arrived
	}
	// The read loop has frame 257 in hand once it has counted its bytes.
	in := tr.Metrics().Counter("transport.bytes_in")
	want := int64((maxConnInflight + 1) * len(frame))
	for deadline := time.Now().Add(5 * time.Second); in.Value() < want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("server read %d bytes, want the %d of %d frames", in.Value(), want, maxConnInflight+1)
		}
	}
	select {
	case <-arrived:
		t.Fatalf("frame %d was handled while %d were in flight", maxConnInflight+1, maxConnInflight)
	case <-time.After(50 * time.Millisecond):
	}
	release <- struct{}{} // one handler returns
	select {
	case <-arrived:
	case <-time.After(5 * time.Second):
		t.Fatalf("frame %d was not handled after a slot freed", maxConnInflight+1)
	}
	for i := 0; i < maxConnInflight; i++ {
		release <- struct{}{}
	}
	for i := 0; i <= maxConnInflight; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if n := handlerStarts(tr); n != maxConnInflight {
		t.Fatalf("%d handlers started, want %d: frame %d did not reuse the freed one", n, maxConnInflight, maxConnInflight+1)
	}
}

// TestServeConnCloseWaitsForHandlers: closing the endpoint while some of
// a connection's handlers are idle and some are busy returns only after
// the busy ones have returned, and leaves no handler goroutine behind.
func TestServeConnCloseWaitsForHandlers(t *testing.T) {
	before := runtime.NumGoroutine()
	const idle, busy = 6, 2
	tr := NewTCP()
	ep, cl, arrived, release := gatedServer(t, tr, idle+busy)
	serveAll(t, idle, arrived, release, callAll(cl, idle))
	callAll(cl, busy)
	for i := 0; i < busy; i++ {
		<-arrived
	}
	if n := handlerStarts(tr); n != idle {
		t.Fatalf("%d handlers started, want %d: the busy calls reuse idle ones", n, idle)
	}

	closed := make(chan struct{})
	go func() {
		ep.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while handlers were still busy")
	case <-time.After(50 * time.Millisecond):
	}
	for i := 0; i < busy; i++ {
		release <- struct{}{}
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the busy handlers did")
	}
	cl.Close()

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutines leaked after Close (%d > %d):\n%s", n, before, buf[:runtime.Stack(buf, true)])
	}
}
