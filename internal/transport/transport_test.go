package transport

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"gospaces/internal/codec"
)

type echoReq struct{ Msg string }
type echoResp struct{ Msg string }

// Wire ids 0xff00 and up are the test range of this package.
func init() {
	codec.Register(0xff00, echoReq{})
	codec.Register(0xff01, echoResp{})
}

func echoHandler(req any) (any, error) {
	r, ok := req.(echoReq)
	if !ok {
		return nil, fmt.Errorf("bad request type %T", req)
	}
	if r.Msg == "boom" {
		return nil, errors.New("synthetic failure")
	}
	return echoResp{Msg: "echo:" + r.Msg}, nil
}

func TestInProcRoundTrip(t *testing.T) {
	tr := NewInProc()
	closer, err := tr.Listen("srv0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	c, err := tr.Dial("srv0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Call(echoReq{Msg: "hi"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.(echoResp).Msg != "echo:hi" {
		t.Fatalf("resp = %v", resp)
	}
}

func TestInProcErrors(t *testing.T) {
	tr := NewInProc()
	if _, err := tr.Dial("missing"); !errors.Is(err, ErrNoEndpoint) {
		t.Fatalf("dial missing: %v", err)
	}
	closer, _ := tr.Listen("s", echoHandler)
	if _, err := tr.Listen("s", echoHandler); err == nil {
		t.Fatal("duplicate listen accepted")
	}
	c, _ := tr.Dial("s")
	if _, err := c.Call(echoReq{Msg: "boom"}); err == nil {
		t.Fatal("handler error not propagated")
	}
	c.Close()
	if _, err := c.Call(echoReq{Msg: "hi"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("call on closed: %v", err)
	}
	closer.Close()
	c2, err := tr.Dial("s")
	if err == nil {
		_ = c2
		t.Fatal("dial after close succeeded")
	}
}

// TestTypedCalls: As and CallOnce hand back the typed response, pass a
// dial or handler error through unchanged, and turn a response of
// another type into an error naming both — never a panic in the caller.
func TestTypedCalls(t *testing.T) {
	tr := NewInProc()
	closer, _ := tr.Listen("s", echoHandler)
	defer closer.Close()
	if resp, err := CallOnce[echoResp](tr, "s", echoReq{Msg: "hi"}); err != nil || resp.Msg != "echo:hi" {
		t.Fatalf("CallOnce = %+v, %v", resp, err)
	}
	if _, err := CallOnce[echoResp](tr, "missing", echoReq{}); !errors.Is(err, ErrNoEndpoint) {
		t.Fatalf("CallOnce to a missing endpoint: %v", err)
	}
	if _, err := CallOnce[echoResp](tr, "s", echoReq{Msg: "boom"}); err == nil || err.Error() != "synthetic failure" {
		t.Fatalf("CallOnce with a failing handler: %v", err)
	}
	_, err := CallOnce[echoReq](tr, "s", echoReq{Msg: "hi"})
	if err == nil || !strings.Contains(err.Error(), "transport.echoResp, want transport.echoReq") {
		t.Fatalf("CallOnce expecting the wrong type: %v", err)
	}
	if _, err := As[echoResp](nil, nil); err == nil {
		t.Fatal("As took a nil response for an echoResp")
	}
}

func TestInProcConcurrentCalls(t *testing.T) {
	tr := NewInProc()
	closer, _ := tr.Listen("s", echoHandler)
	defer closer.Close()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := tr.Dial("s")
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for j := 0; j < 100; j++ {
				msg := fmt.Sprintf("m%d-%d", i, j)
				resp, err := c.Call(echoReq{Msg: msg})
				if err != nil || resp.(echoResp).Msg != "echo:"+msg {
					t.Errorf("call %s: %v %v", msg, resp, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestTCPRoundTrip(t *testing.T) {
	tr := NewTCP()
	ep, err := tr.ListenTCP("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	c, err := tr.Dial(ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 10; i++ {
		resp, err := c.Call(echoReq{Msg: fmt.Sprintf("n%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		if resp.(echoResp).Msg != fmt.Sprintf("echo:n%d", i) {
			t.Fatalf("resp = %v", resp)
		}
	}
}

func TestTCPHandlerError(t *testing.T) {
	tr := NewTCP()
	ep, err := tr.ListenTCP("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	c, _ := tr.Dial(ep.Addr())
	defer c.Close()
	_, err = c.Call(echoReq{Msg: "boom"})
	if err == nil || !strings.Contains(err.Error(), "synthetic failure") {
		t.Fatalf("err = %v", err)
	}
	// The connection must survive a handler error.
	if _, err := c.Call(echoReq{Msg: "after"}); err != nil {
		t.Fatalf("call after error: %v", err)
	}
}

func TestTCPConcurrentClients(t *testing.T) {
	tr := NewTCP()
	ep, err := tr.ListenTCP("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := tr.Dial(ep.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for j := 0; j < 50; j++ {
				msg := fmt.Sprintf("c%d-%d", i, j)
				resp, err := c.Call(echoReq{Msg: msg})
				if err != nil || resp.(echoResp).Msg != "echo:"+msg {
					t.Errorf("%s: %v %v", msg, resp, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestTCPDialFailure(t *testing.T) {
	tr := NewTCP()
	if _, err := tr.Dial("127.0.0.1:1"); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestTCPCloseUnblocksClients(t *testing.T) {
	tr := NewTCP()
	ep, err := tr.ListenTCP("127.0.0.1:0", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := tr.Dial(ep.Addr())
	defer c.Close()
	if _, err := c.Call(echoReq{Msg: "x"}); err != nil {
		t.Fatal(err)
	}
	ep.Close()
	if _, err := c.Call(echoReq{Msg: "y"}); err == nil {
		t.Fatal("call after endpoint close succeeded")
	}
}
