package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"gospaces/internal/codec"
)

// The multiplexed wire format. Every message — request or response —
// is one self-contained frame:
//
//	offset  size  field
//	0       4     magic 0x67535032 ("gSP2")
//	4       1     flags (response / error / cause)
//	5       1     reserved (0)
//	6       8     request id (big endian; responses echo the request's)
//	14      4     body length (big endian)
//	18      n     body
//
// Request body: the payload in the one wire codec (internal/codec): a
// registered type id + the type's fields.
//
// Response body: with flagError set it starts with a uvarint-prefixed
// error string, then — with flagCause — the encoded typed error the
// handler's chain held, then optionally an encoded payload; without
// flagError the body is just the encoded payload (empty body = nil
// payload).
//
// Because frames carry explicit lengths and ids, one connection
// sustains any number of concurrent in-flight calls: writers interleave
// whole frames under a write lock, and the reader demultiplexes
// responses back to their callers by id.
//
// "gSP1" frames selected between gob and a hand-written binary codec
// with flag bit 2; both are gone, so the magic moved on and the bit is
// retired: a frame carrying either is corrupt, never mis-decoded.
const (
	frameMagic  = 0x67535032
	frameHdrLen = 18

	flagResponse = 1 << 0
	flagError    = 1 << 1
	flagCause    = 1 << 3
	flagsKnown   = flagResponse | flagError | flagCause

	// MaxFrameBody bounds one frame's body; a length field beyond it is
	// treated as stream corruption, not an allocation request.
	MaxFrameBody = 64 << 20
)

// frameTooLargeError is ErrFrameTooLarge with the size. It is a wire
// type (ids 768–1023 are this package's) so that a server refusing to
// send an oversized response answers the one call with a typed cause.
type frameTooLargeError struct{ Bytes int }

func (e *frameTooLargeError) Error() string {
	return fmt.Sprintf("%v: %d bytes", ErrFrameTooLarge, e.Bytes)
}
func (e *frameTooLargeError) Is(target error) bool { return target == ErrFrameTooLarge }

func init() { codec.Register(768, &frameTooLargeError{}) }

// readFrame reads one frame; the returned body is a buffer from
// codec.GetBuf, asked for by the header's length, which the caller
// releases with codec.PutBuf or hands on with the message decoded from
// it (decodePayload). The free list's pop is never too small, so no
// read zero-fills a fresh body unless its class is empty. Corruption
// (bad magic, oversized length) is typed: the stream is desynced and
// the connection must be torn down.
func readFrame(r io.Reader) (flags byte, id uint64, body []byte, err error) {
	var hdr [frameHdrLen]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	if binary.BigEndian.Uint32(hdr[0:4]) != frameMagic {
		return 0, 0, nil, fmt.Errorf("%w: bad magic %#x", ErrFrameCorrupt, hdr[0:4])
	}
	if flags = hdr[4]; flags&^flagsKnown != 0 || flags&(flagError|flagCause) == flagCause {
		return 0, 0, nil, fmt.Errorf("%w: flags %#x", ErrFrameCorrupt, flags)
	}
	id = binary.BigEndian.Uint64(hdr[6:14])
	n := binary.BigEndian.Uint32(hdr[14:18])
	if n > MaxFrameBody {
		return 0, 0, nil, fmt.Errorf("%w: body %d bytes", ErrFrameTooLarge, n)
	}
	body = codec.GetBuf(int(n))
	if _, err = io.ReadFull(r, body); err != nil {
		codec.PutBuf(body)
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // header promised a body
		}
		return 0, 0, nil, err
	}
	return flags, id, body, nil
}

// vecThreshold is the byte-field size from which a frame leaves the
// field in place and writes it as its own iovec (a codec.Cut) instead
// of copying it into the frame buffer. Below it one contiguous write is
// cheaper than another iovec. 16 KiB pieces are what a replayed get
// answers on restart-spill (32 a version): from 64 KiB, each answer was
// regrown into a frame buffer about seven times.
const vecThreshold = 16 << 10

// appendFrame builds one frame into a buffer from codec.GetBuf, sized
// by measuring v first: the header, herr's head for an error response,
// then v's encoding less every byte field of at least vecThreshold
// bytes — those come back as cuts aliasing v, for writeFrame to splice
// in. The buffer grows only for an error's head, and a body past
// MaxFrameBody, its cuts counted, is refused unbuilt. A v whose type
// (or whose nested payload's type) is not registered is an error: there
// is no other codec to fall back to. The caller gives the returned
// buffer back with codec.PutBuf whether or not err is nil.
func appendFrame(flags byte, id uint64, herr error, v any) ([]byte, []codec.Cut, error) {
	var m codec.Measured
	if v != nil {
		var err error
		if m, err = codec.Measure(v, vecThreshold); err != nil {
			return nil, nil, fmt.Errorf("transport: encode %T: %w", v, err)
		}
	}
	n := frameHdrLen
	if m.Len <= MaxFrameBody {
		n += m.Head // a frame refused below needs room for its header only
	}
	buf := codec.GetBuf(n)[:frameHdrLen]
	if herr != nil {
		var ef byte
		buf, ef = appendError(buf, herr)
		flags |= ef
	}
	body := len(buf) - frameHdrLen + m.Len
	if body > MaxFrameBody {
		return buf, nil, &frameTooLargeError{Bytes: body}
	}
	var cuts []codec.Cut
	if v != nil {
		buf, cuts = m.AppendTo(buf)
	}
	binary.BigEndian.PutUint32(buf[0:4], frameMagic)
	buf[4] = flags
	buf[5] = 0
	binary.BigEndian.PutUint64(buf[6:14], id)
	binary.BigEndian.PutUint32(buf[14:18], uint32(body))
	return buf, cuts, nil
}

// appendError appends an error response's head: the error string, and
// the first error in herr's chain that is a registered wire type, so
// the caller's errors.As finds the same typed cause it would in
// process. It reports the flag bits the frame must carry.
func appendError(buf []byte, herr error) ([]byte, byte) {
	buf = codec.AppendString(buf, herr.Error())
	for e := herr; e != nil; e = errors.Unwrap(e) {
		if out, ok := codec.Marshal(buf, e); ok {
			return out, flagError | flagCause
		}
	}
	return buf, flagError
}

// aliasThreshold is the body size from which payloads decode in alias
// mode. Below it copying the few bytes costs less than a body that
// lives as long as the value, and the body goes straight back to the
// free list.
const aliasThreshold = 16 << 10

// decodePayload decodes a payload encoded by appendFrame. An empty
// body is a nil payload. Large payloads decode in alias mode — the
// value's byte fields point into body itself, saving one full payload
// copy — so when aliased is true body lives as long as the value:
// serveConn gives it back once the handler is done with the request,
// and a response with a codec.Frame field (a GetResp) holds it there
// for its reader to release after the last read (codec.UnmarshalFrame).
// Any other aliased response leaves it to the GC.
func decodePayload(body []byte) (v any, aliased bool, err error) {
	if len(body) == 0 {
		return nil, false, nil
	}
	if aliased = len(body) >= aliasThreshold; aliased {
		v, err = codec.UnmarshalFrame(body)
	} else {
		v, err = codec.Unmarshal(body)
	}
	if err != nil {
		return nil, false, fmt.Errorf("%w: %w", ErrFrameCorrupt, err)
	}
	return v, aliased, nil
}

// decodeResponse splits a response body into payload and remote error,
// with decodePayload's aliasing contract.
func decodeResponse(flags byte, body []byte) (v any, aliased bool, err error) {
	if flags&flagError == 0 {
		return decodePayload(body)
	}
	r := codec.NewReader(body)
	re := &RemoteError{Msg: r.String()}
	if flags&flagCause != 0 {
		c, _ := codec.UnmarshalFrom(r)
		if re.Cause, _ = c.(error); re.Cause == nil && r.Err() == nil {
			return nil, false, fmt.Errorf("%w: error frame: %w: cause %T is not an error", ErrFrameCorrupt, codec.ErrCorrupt, c)
		}
	}
	if r.Err() != nil {
		return nil, false, fmt.Errorf("%w: error frame: %w", ErrFrameCorrupt, r.Err())
	}
	payload, aliased, err := decodePayload(r.Rest())
	if err != nil {
		return nil, false, err
	}
	return payload, aliased, re
}
