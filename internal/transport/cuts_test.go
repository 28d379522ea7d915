package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"

	"gospaces/internal/codec"
)

// sgResp has the shape of staging.GetResp (which this package cannot
// import): the bulk bytes sit in a slice of structs, mid-message.
type (
	sgPiece struct {
		Box  [6]int64
		Data []byte
	}
	sgResp struct {
		Version int64
		Pieces  []sgPiece
		FromLog bool
	}
)

func init() { codec.Register(0xff05, sgResp{}) }

func sgPieces(n, size int) sgResp {
	resp := sgResp{Version: 7, FromLog: true}
	for i := 0; i < n; i++ {
		data := make([]byte, size)
		for j := range data {
			data[j] = byte(i + j*7)
		}
		resp.Pieces = append(resp.Pieces, sgPiece{Box: [6]int64{int64(i)}, Data: data})
	}
	return resp
}

// TestScatterGatherResponse: a get response reaches a raw socket byte
// for byte as codec.Append would have laid it out,
// transport.bytes_out counts exactly header + body, and the sending
// side allocates next to nothing per response — the pieces leave as
// iovecs of the handler's own slices, never copied into a frame buffer
// (the contiguous encode allocated more than the response). Two shapes:
// couple-large's 2 MiB of 16 × 128 KiB pieces, and a replayed get's
// answer on restart-spill, 32 × 16 KiB: pieces of exactly vecThreshold.
func TestScatterGatherResponse(t *testing.T) {
	for _, shape := range []struct{ pieces, size int }{{16, 128 << 10}, {32, vecThreshold}} {
		t.Run(fmt.Sprintf("%dx%dKiB", shape.pieces, shape.size>>10), func(t *testing.T) {
			scatterGatherResponse(t, sgPieces(shape.pieces, shape.size))
		})
	}
}

func scatterGatherResponse(t *testing.T, resp sgResp) {
	wire, err := codec.Append(nil, resp)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTCP()
	ep, err := tr.ListenTCP("127.0.0.1:0", func(req any) (any, error) {
		if req.(echoReq).Msg == "get" {
			return resp, nil
		}
		return echoHandler(req)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	conn, err := net.Dial("tcp", ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The client is this test's own loop over a raw socket, reading into
	// one buffer, so everything the process allocates is the server's.
	frame := make([]byte, frameHdrLen+len(wire))
	call := func(msg string, id uint64) []byte {
		t.Helper()
		req, _, err := appendFrame(0, id, nil, echoReq{Msg: msg})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, frame[:frameHdrLen]); err != nil {
			t.Fatal(err)
		}
		if frame[4] != flagResponse || binary.BigEndian.Uint64(frame[6:14]) != id {
			t.Fatalf("response header %x", frame[:frameHdrLen])
		}
		body := frame[frameHdrLen : frameHdrLen+int(binary.BigEndian.Uint32(frame[14:18]))]
		if _, err := io.ReadFull(conn, body); err != nil {
			t.Fatal(err)
		}
		return body
	}
	// After one call the connection's goroutines, read buffer and metric
	// handles exist.
	warm := len(call("warm", 1))

	const rounds = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		if body := call("get", uint64(2+i)); !bytes.Equal(body, wire) {
			t.Fatalf("response %d: %d body bytes differ from the %d codec.Append encodes", i, len(body), len(wire))
		}
	}
	runtime.ReadMemStats(&after)
	conn.Close()
	ep.Close() // every handler goroutine has done its accounting
	if got, want := tr.Metrics().Counter("transport.bytes_out").Value(), int64(frameHdrLen+warm+rounds*(frameHdrLen+len(wire))); got != want {
		t.Fatalf("transport.bytes_out = %d, want %d (header + body of every response, exactly)", got, want)
	}
	per := (after.TotalAlloc - before.TotalAlloc) / rounds
	t.Logf("sending a %d-byte response allocated %d bytes", len(wire), per)
	if per >= 64<<10 {
		t.Fatal("the response was copied on its way out")
	}
}

// TestFrameTooLargeFailsOneCall: a message that outgrows MaxFrameBody —
// counted with its cuts — is that call's failure and nobody else's. A
// request is refused before a byte is written; a response is answered
// with an error frame carrying ErrFrameTooLarge as a typed, terminal
// cause, where the server used to close the connection on every other
// in-flight call and the retry layer re-sent into the same close.
func TestFrameTooLargeFailsOneCall(t *testing.T) {
	chunk := make([]byte, 8<<20)
	huge := sgResp{Pieces: make([]sgPiece, MaxFrameBody/len(chunk)+1)}
	for i := range huge.Pieces {
		huge.Pieces[i].Data = chunk // 72 MiB of cuts, 8 MiB of memory
	}
	started, hold := make(chan struct{}), make(chan struct{})
	ep, err := NewTCP().ListenTCP("127.0.0.1:0", func(req any) (any, error) {
		r, ok := req.(echoReq)
		switch {
		case !ok:
			t.Errorf("handler saw a %T: the oversized request was sent", req)
		case r.Msg == "huge":
			return huge, nil
		case r.Msg == "slow":
			close(started)
			<-hold
		}
		return echoHandler(req)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	tr := NewTCP() // the client's own, so bytes_out counts what it alone wrote
	cl, err := tr.Dial(ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	conn, _ := cl.(*tcpClient).live()

	slow := make(chan error, 1)
	go func() {
		_, err := cl.Call(echoReq{Msg: "slow"})
		slow <- err
	}()
	<-started
	_, err = cl.Call(echoReq{Msg: "huge"})
	var re *RemoteError
	if !errors.Is(err, ErrFrameTooLarge) || !errors.As(err, &re) || Retryable(err) {
		t.Fatalf("oversized response = %v, want a terminal RemoteError that Is ErrFrameTooLarge", err)
	}
	close(hold)
	if err := <-slow; err != nil {
		t.Fatalf("the call in flight beside the oversized response: %v", err)
	}

	sent := tr.Metrics().Counter("transport.bytes_out").Value()
	if _, err := cl.Call(huge); !errors.Is(err, ErrFrameTooLarge) || errors.As(err, &re) {
		t.Fatalf("oversized request = %v, want a local ErrFrameTooLarge", err)
	}
	if got := tr.Metrics().Counter("transport.bytes_out").Value(); got != sent {
		t.Fatalf("refusing an oversized request wrote %d bytes", got-sent)
	}
	if resp, err := cl.Call(echoReq{Msg: "after"}); err != nil || resp.(echoResp).Msg != "echo:after" {
		t.Fatalf("call after the refusals: %v %v", resp, err)
	}
	if now, _ := cl.(*tcpClient).live(); now != conn {
		t.Fatal("the client re-dialled: a too-large message cost it its connection")
	}
}

// TestVecThresholdBoundary: a byte field one byte short of vecThreshold
// is copied into the frame's head, and one of exactly vecThreshold
// leaves as a cut of the field itself.
func TestVecThresholdBoundary(t *testing.T) {
	resp := sgResp{Pieces: []sgPiece{{Data: make([]byte, vecThreshold-1)}, {Data: make([]byte, vecThreshold)}}}
	wire, err := codec.Append(nil, resp)
	if err != nil {
		t.Fatal(err)
	}
	frame, cuts, err := appendFrame(flagResponse, 1, nil, resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 1 || &cuts[0].Data[0] != &resp.Pieces[1].Data[0] {
		t.Fatalf("%d cuts: want one, the %d-byte field itself", len(cuts), vecThreshold)
	}
	if head := len(frame) - frameHdrLen; head != len(wire)-vecThreshold {
		t.Fatalf("head is %d bytes, want %d: the %d-byte field copied in, the other not", head, len(wire)-vecThreshold, vecThreshold-1)
	}
	if body := int(binary.BigEndian.Uint32(frame[14:18])); body != len(wire) {
		t.Fatalf("the header counts %d body bytes, want %d", body, len(wire))
	}
}

// TestFrameTooLargeRefusedUnbuilt: a message that would outgrow
// MaxFrameBody in its head alone — every byte field under vecThreshold,
// so nothing is cut — fails its one call before its frame is built: a
// request locally and a response as an error frame, each allocating a
// small fraction of the frame it refused.
func TestFrameTooLargeRefusedUnbuilt(t *testing.T) {
	chunk := make([]byte, vecThreshold-1)
	huge := sgResp{Pieces: make([]sgPiece, MaxFrameBody/len(chunk)+1)}
	for i := range huge.Pieces {
		huge.Pieces[i].Data = chunk // 64 MiB of head, 16 KiB of memory
	}
	size, err := codec.Measure(huge, vecThreshold)
	if err != nil || size.Head <= MaxFrameBody {
		t.Fatalf("the message's head is %d bytes (%v): not over MaxFrameBody", size.Head, err)
	}
	ep, err := NewTCP().ListenTCP("127.0.0.1:0", func(req any) (any, error) {
		if r, ok := req.(echoReq); ok && r.Msg == "huge" {
			return huge, nil
		}
		return echoHandler(req)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	cl, err := NewTCP().Dial(ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Call(echoReq{Msg: "warm"}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		req    any
		remote bool
	}{{"request", huge, false}, {"response", echoReq{Msg: "huge"}, true}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := cl.Call(tc.req)
		runtime.ReadMemStats(&after)
		var re *RemoteError
		if !errors.Is(err, ErrFrameTooLarge) || errors.As(err, &re) != tc.remote {
			t.Fatalf("oversized %s = %v, want ErrFrameTooLarge (remote %v)", tc.name, err, tc.remote)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("refusing a %d-byte %s allocated %d bytes", size.Len, tc.name, alloc)
		if alloc >= MaxFrameBody/16 {
			t.Fatalf("refusing the %s allocated %d bytes: its frame was built", tc.name, alloc)
		}
	}
}
