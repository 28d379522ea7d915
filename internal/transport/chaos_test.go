package transport

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"gospaces/internal/sim"
)

func echoServer(t *testing.T, tr Transport, addr string) func() {
	t.Helper()
	closer, err := tr.Listen(addr, func(req any) (any, error) { return req, nil })
	if err != nil {
		t.Fatal(err)
	}
	return func() { closer.Close() }
}

func TestChaosTransparentWithoutFaults(t *testing.T) {
	ch := NewChaos(NewInProc(), 1)
	defer echoServer(t, ch, "s")()
	c, err := ch.Dial("s")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 50; i++ {
		if resp, err := c.Call(i); err != nil || resp != i {
			t.Fatalf("call %d: %v %v", i, resp, err)
		}
	}
}

func TestChaosDropReturnsTimeout(t *testing.T) {
	ch := NewChaos(NewInProc(), 1)
	defer echoServer(t, ch, "s")()
	ch.SetCallFaults(0, 0, 1.0) // drop every response
	c, _ := ch.Dial("s")
	defer c.Close()
	_, err := c.Call("x")
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if !Retryable(err) {
		t.Fatal("dropped response must be retryable")
	}
}

func TestChaosBlackoutWindowAndRecovery(t *testing.T) {
	ch := NewChaos(NewInProc(), 1)
	defer echoServer(t, ch, "s")()
	defer echoServer(t, ch, "other")()
	c, _ := ch.Dial("s")
	defer c.Close()
	other, _ := ch.Dial("other")
	defer other.Close()
	if _, err := c.Call("before"); err != nil {
		t.Fatal(err)
	}
	ch.Blackout("s", 60*time.Millisecond)
	if _, err := c.Call("during"); !errors.Is(err, ErrNoEndpoint) {
		t.Fatalf("err during blackout = %v, want ErrNoEndpoint", err)
	}
	if _, err := ch.Dial("s"); !errors.Is(err, ErrNoEndpoint) {
		t.Fatalf("dial during blackout = %v, want ErrNoEndpoint", err)
	}
	if _, err := other.Call("x"); err != nil {
		t.Fatalf("untargeted address perturbed: %v", err)
	}
	time.Sleep(80 * time.Millisecond)
	if _, err := c.Call("after"); err != nil {
		t.Fatalf("call after blackout: %v", err)
	}
}

// TestChaosDelayAndDropWindows: a delay window adds a quarter of its
// length to each call to its address and a drop window loses each
// response from its address; both expire, and neither touches another
// address.
func TestChaosDelayAndDropWindows(t *testing.T) {
	ch := NewChaos(NewInProc(), 1)
	for _, a := range []string{"slow", "lossy", "other"} {
		defer echoServer(t, ch, a)()
	}
	dial := func(addr string) Client {
		c, err := ch.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	slow, lossy, other := dial("slow"), dial("lossy"), dial("other")
	timed := func(c Client) (time.Duration, error) {
		start := time.Now()
		_, err := c.Call("x")
		return time.Since(start), err
	}
	ch.Delay("slow", 160*time.Millisecond)
	ch.Drop("lossy", 160*time.Millisecond)
	if d, err := timed(slow); err != nil || d < 35*time.Millisecond {
		t.Fatalf("call in the delay window took %v (%v), want >= 40ms", d, err)
	}
	if _, err := timed(lossy); !errors.Is(err, ErrTimeout) {
		t.Fatalf("call in the drop window = %v, want ErrTimeout", err)
	}
	if d, err := timed(other); err != nil || d >= 35*time.Millisecond {
		t.Fatalf("untargeted address perturbed: %v (%v)", d, err)
	}
	time.Sleep(180 * time.Millisecond)
	if d, err := timed(slow); err != nil || d >= 35*time.Millisecond {
		t.Fatalf("call after the delay window took %v (%v)", d, err)
	}
	if _, err := timed(lossy); err != nil {
		t.Fatalf("call after the drop window: %v", err)
	}
}

func TestChaosDelayAddsLatency(t *testing.T) {
	ch := NewChaos(NewInProc(), 1)
	defer echoServer(t, ch, "s")()
	ch.SetCallFaults(1.0, 30*time.Millisecond, 0)
	c, _ := ch.Dial("s")
	defer c.Close()
	start := time.Now()
	if _, err := c.Call("x"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("injected delay not observed: call took %v", d)
	}
}

func TestChaosKillConnsForcesRedial(t *testing.T) {
	tcp := NewTCP()
	ch := NewChaos(tcp, 1)
	closer, err := ch.Listen("127.0.0.1:0", func(req any) (any, error) { return req, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	addr := closer.(interface{ Addr() string }).Addr()
	c, err := ch.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(echoReq{Msg: "a"}); err != nil {
		t.Fatal(err)
	}
	ch.KillConns(addr)
	// The kill marks the connection broken; the next call transparently
	// re-dials the (still live) endpoint.
	if resp, err := c.Call(echoReq{Msg: "b"}); err != nil || resp.(echoReq).Msg != "b" {
		t.Fatalf("re-dial after kill failed: %v %v", resp, err)
	}
}

func TestChaosKillConnsBreaksInFlightCall(t *testing.T) {
	tcp := NewTCP()
	ch := NewChaos(tcp, 1)
	entered := make(chan struct{}, 1)
	block := make(chan struct{})
	closer, err := ch.Listen("127.0.0.1:0", func(req any) (any, error) {
		entered <- struct{}{}
		<-block
		return req, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	addr := closer.(interface{ Addr() string }).Addr()
	c, err := ch.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	errCh := make(chan error, 1)
	go func() {
		_, err := c.Call(echoReq{Msg: "stuck"})
		errCh <- err
	}()
	<-entered // the call is in flight, parked in the handler
	ch.KillConns(addr)
	select {
	case err := <-errCh:
		// Release the parked handler before the deferred endpoint Close
		// drains it, then check the error.
		close(block)
		if !errors.Is(err, ErrConnBroken) {
			t.Fatalf("in-flight call err = %v, want ErrConnBroken", err)
		}
	case <-time.After(5 * time.Second):
		close(block)
		t.Fatal("in-flight call hung after connection kill")
	}
}

// TestChaosServeFaults drives the server-side faults behind stagingd's
// -chaos-* flags on a manual clock. With delay probability 1 every call
// takes at least the delay; with hang probability 1 a call outlives
// the transport's CallTimeout and fails with a retryable ErrTimeout.
func TestChaosServeFaults(t *testing.T) {
	const delay, hang, timeout = 30 * time.Millisecond, time.Hour, 50 * time.Millisecond
	clk := sim.NewManual()
	in := NewInProc()
	in.Clock = clk
	ch := NewChaos(in, 1)
	defer echoServer(t, ch, "s")()
	c, err := ch.Dial("s")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	call := func(req any) <-chan error {
		done := make(chan error, 1)
		go func() {
			resp, err := c.Call(req)
			if err == nil && resp != req {
				err = fmt.Errorf("echo of %v = %v", req, resp)
			}
			done <- err
		}()
		return done
	}

	ch.SetServeFaults(1, delay, 0, 0)
	for i := 0; i < 3; i++ {
		start := clk.Now()
		done := call(i)
		clk.AwaitPending(1)
		clk.Advance(delay - time.Millisecond)
		select {
		case err := <-done:
			t.Fatalf("call %d returned before the delay: %v", i, err)
		default:
		}
		clk.Advance(time.Millisecond)
		if err := <-done; err != nil {
			t.Fatalf("delayed call %d: %v", i, err)
		}
		if took := clk.Now().Sub(start); took < delay {
			t.Fatalf("delayed call %d took %v, want at least %v", i, took, delay)
		}
	}

	ch.SetServeFaults(0, 0, 1, hang)
	in.CallTimeout = timeout
	done := call("hung")
	clk.AwaitPending(2) // the call's deadline and the handler's hang
	clk.Advance(timeout)
	if err := <-done; !errors.Is(err, ErrTimeout) || !Retryable(err) {
		t.Fatalf("hung call = %v, want a retryable ErrTimeout", err)
	}
	clk.Advance(hang) // release the hung handler
}
