package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"gospaces/internal/codec"
)

// buildFrame assembles a raw frame for malformed-input tests, allowing
// deliberately wrong magic and length fields.
func buildFrame(magic uint32, flags byte, id uint64, declaredLen uint32, body []byte) []byte {
	buf := make([]byte, frameHdrLen, frameHdrLen+len(body))
	binary.BigEndian.PutUint32(buf[0:4], magic)
	buf[4] = flags
	binary.BigEndian.PutUint64(buf[6:14], id)
	binary.BigEndian.PutUint32(buf[14:18], declaredLen)
	return append(buf, body...)
}

func TestReadFrameMalformed(t *testing.T) {
	good := buildFrame(frameMagic, 0, 7, 3, []byte{1, 2, 3})
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, io.EOF},
		{"truncated header", good[:frameHdrLen-4], io.ErrUnexpectedEOF},
		{"bad magic", buildFrame(0xdeadbeef, 0, 7, 0, nil), ErrFrameCorrupt},
		// The two-codec wire format: its frames must be refused whole,
		// never handed to the one codec as if they were its own.
		{"old magic gSP1", buildFrame(0x67535031, 0, 7, 3, []byte{1, 2, 3}), ErrFrameCorrupt},
		{"retired codec-selector flag", buildFrame(frameMagic, 1<<2, 7, 3, []byte{1, 2, 3}), ErrFrameCorrupt},
		{"cause flag without error flag", buildFrame(frameMagic, flagResponse|flagCause, 7, 0, nil), ErrFrameCorrupt},
		{"oversized length", buildFrame(frameMagic, 0, 7, MaxFrameBody+1, nil), ErrFrameTooLarge},
		{"truncated body", good[:len(good)-2], io.ErrUnexpectedEOF},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, body, err := readFrame(bytes.NewReader(tc.in))
			if !errors.Is(err, tc.want) {
				t.Fatalf("got err %v, want %v", err, tc.want)
			}
			if body != nil {
				t.Fatal("malformed frame returned a body")
			}
		})
	}

	flags, id, body, err := readFrame(bytes.NewReader(good))
	if err != nil || flags != 0 || id != 7 || !bytes.Equal(body, []byte{1, 2, 3}) {
		t.Fatalf("good frame: flags=%d id=%d body=%v err=%v", flags, id, body, err)
	}
	codec.PutBuf(body)
}

// TestServerSurvivesGarbageConn feeds raw garbage and protocol
// violations straight into the listener: the server must drop those
// connections without crashing, and keep serving well-formed clients.
func TestServerSurvivesGarbageConn(t *testing.T) {
	tr := NewTCPTimeout(2*time.Second, time.Second)
	ep, err := tr.ListenTCP("127.0.0.1:0", func(req any) (any, error) { return req, nil })
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	payloads := [][]byte{
		[]byte("GET / HTTP/1.1\r\n\r\n"), // not our protocol
		buildFrame(frameMagic, 0, 1, MaxFrameBody+99, nil),
		buildFrame(frameMagic, flagResponse, 1, 0, nil),  // response on a server stream
		buildFrame(frameMagic, 0, 1, 2, []byte{0xfe, 1}), // unregistered type id
	}
	for _, p := range payloads {
		conn, err := net.Dial("tcp", ep.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(p)
		// The server either answers (per-call payload error) or closes;
		// it must do one of the two promptly rather than hang.
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		io.Copy(io.Discard, conn)
		conn.Close()
	}

	// A well-formed client still gets service.
	cl, err := tr.Dial(ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	resp, err := cl.Call(echoReq{Msg: "after garbage"})
	if err != nil || resp.(echoReq).Msg != "after garbage" {
		t.Fatalf("call after garbage conns: %v %v", resp, err)
	}
}

// TestClientSurvivesGarbageResponse runs a fake server that answers
// with corrupt frames: the pending call must fail with a typed error,
// the demux goroutine must exit, and the client must re-dial cleanly.
func TestClientSurvivesGarbageResponse(t *testing.T) {
	responses := [][]byte{
		[]byte("garbage that is long enough to cover a frame header ..."),
		buildFrame(frameMagic, flagResponse, 1, MaxFrameBody+1, nil),
		buildFrame(frameMagic, 0, 1, 0, nil), // request flag on a client stream
	}
	for _, raw := range responses {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan struct{})
		go func() {
			defer close(served)
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			var hdr [frameHdrLen]byte
			if _, err := io.ReadFull(conn, hdr[:]); err == nil {
				n := binary.BigEndian.Uint32(hdr[14:18])
				io.CopyN(io.Discard, conn, int64(n))
			}
			conn.Write(raw)
			conn.Close()
		}()

		before := runtime.NumGoroutine()
		tr := NewTCPTimeout(2*time.Second, time.Second)
		cl, err := tr.Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		_, err = cl.Call(echoReq{Msg: "x"})
		if err == nil {
			t.Fatal("corrupt response frame did not fail the call")
		}
		if !errors.Is(err, ErrConnBroken) && !errors.Is(err, ErrTimeout) {
			t.Fatalf("unexpected error class: %v", err)
		}
		cl.Close()
		ln.Close()
		<-served

		// The demux goroutine must be gone; allow the runtime a moment.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked after corrupt response (%d > %d):\n%s",
				n, before, buf[:runtime.Stack(buf, true)])
		}
	}
}

// FuzzFrameDecode holds the frame reader to its contract on arbitrary
// bytes: a typed error or a well-formed frame, never a panic.
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(buildFrame(frameMagic, 0, 1, 0, nil))
	f.Add(buildFrame(frameMagic, flagResponse, 2, 3, []byte{1, 2, 3}))
	f.Add(buildFrame(frameMagic, flagResponse|flagError, 3, 2, []byte{1, 'x'}))
	f.Add(buildFrame(frameMagic, 1<<2, 4, 4, []byte{0, 1, 0, 0})) // retired codec-selector bit
	f.Add(buildFrame(0xbadbad, 0, 5, 0, nil))
	f.Add(buildFrame(frameMagic, 0, 6, MaxFrameBody+1, nil))
	if env, _, err := appendFrame(flagResponse, 9, nil, echoReq{Msg: "seed"}); err == nil {
		f.Add(env)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		flags, _, body, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(body) > MaxFrameBody {
			t.Fatalf("readFrame returned %d-byte body past MaxFrameBody", len(body))
		}
		// Whatever the frame carries, payload decoding must degrade to a
		// typed error, not a panic.
		var aliased bool
		if flags&flagResponse != 0 {
			var rerr error
			_, aliased, rerr = decodeResponse(flags, body)
			checkDecodeErr(t, rerr)
		} else {
			var derr error
			_, aliased, derr = decodePayload(body)
			checkDecodeErr(t, derr)
		}
		if !aliased {
			codec.PutBuf(body)
		}
	})
}

func checkDecodeErr(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		return
	}
	var re *RemoteError
	if errors.As(err, &re) {
		return // decoded error frame: a remote error is a valid outcome
	}
	// Every payload rejection is the codec's typed error wrapped in
	// ErrFrameCorrupt; anything else is an untyped escape.
	if errors.Is(err, ErrFrameCorrupt) && (errors.Is(err, codec.ErrCorrupt) || errors.Is(err, codec.ErrUnknownType)) {
		return
	}
	t.Fatalf("untyped decode error: %v", err)
}
