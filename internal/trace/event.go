package trace

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// EventKind classifies one replayable trace event. Workload kinds
// drive the staging client verbatim on replay; fault kinds re-arm the
// same injection the recorded run suffered; EvNote is an
// observability-only record (e.g. a GC pass harvested from a server's
// ring buffer) that replay skips. Kinds are encoded by value, so new
// ones are appended and the format version stays put.
type EventKind uint8

// Replayable event kinds.
const (
	EvPut EventKind = iota + 1
	EvGet
	EvCheckpoint
	EvRestart
	EvLock    // exclusive write lock acquire
	EvUnlock  // write lock release
	EvRLock   // shared read lock acquire
	EvRUnlock // read lock release
	EvFailStop
	EvBlackout
	EvTierFault
	EvFlood
	EvNote
	// EvSupervisorKill kills a recovery supervisor. Name picks the mode:
	// "" kills supervisor Arg at once; "intent", "restored", "replaced"
	// or "pushed" kills the leader when the next promotion completes that
	// stage; "stall" holds the leader at "replaced" past its lease.
	EvSupervisorKill
	// EvAddSpare starts Arg warm spares in the group's pool.
	EvAddSpare

	evKindMax = EvAddSpare
)

func (k EventKind) String() string {
	switch k {
	case EvPut:
		return "put"
	case EvGet:
		return "get"
	case EvCheckpoint:
		return "checkpoint"
	case EvRestart:
		return "restart"
	case EvLock:
		return "lock"
	case EvUnlock:
		return "unlock"
	case EvRLock:
		return "rlock"
	case EvRUnlock:
		return "runlock"
	case EvFailStop:
		return "fail-stop"
	case EvBlackout:
		return "blackout"
	case EvTierFault:
		return "tier-fault"
	case EvFlood:
		return "flood"
	case EvNote:
		return "note"
	case EvSupervisorKill:
		return "supervisor-kill"
	case EvAddSpare:
		return "add-spare"
	default:
		return fmt.Sprintf("ev(%d)", int(k))
	}
}

// Event is one entry of a recorded workflow trace: a workload-facing
// staging operation or an injected fault, positioned on the run's
// logical clock. Replay is driven purely by these fields — wall-clock
// time never appears, so the same trace produces the same outcome on
// any machine at any speed.
type Event struct {
	// LC is the logical clock: the event's position in the recorded
	// schedule. Events replay in strictly increasing LC order.
	LC uint64
	// Kind selects the operation.
	Kind EventKind
	// App is the acting client identity (component/rank, which is also
	// the wlog queue and — via the object-name prefix — the QoS tenant).
	App string
	// Name is the staged object or lock name, or EvSupervisorKill's mode.
	Name string
	// Version is the object version (puts/gets).
	Version int64
	// Bytes is the payload length (puts) or expected length (gets).
	Bytes int64
	// Seed parameterizes the deterministic payload generator for puts,
	// so the trace carries no bulk data yet replays byte-exactly.
	Seed int64
	// Sum is the expected FNV-1a digest of the bytes a get returns;
	// zero means unchecked. Replay fails loudly when a get's bytes
	// digest differently from the recorded run.
	Sum uint64
	// Logged selects the logged data path (PutWithLog/GetWithLog).
	Logged bool
	// Arg is the fault target: the staging slot for
	// EvFailStop/EvBlackout/EvTierFault, the burst size for EvFlood, the
	// supervisor for EvSupervisorKill, the spare count for EvAddSpare.
	Arg int64
	// Arg2 is the fault parameter: blackout duration in milliseconds,
	// or the failure.Kind code of a tier fault.
	Arg2 int64
}

// String renders the event for terminals.
func (e Event) String() string {
	s := fmt.Sprintf("lc=%d %s", e.LC, e.Kind)
	if e.App != "" {
		s += " app=" + e.App
	}
	if e.Name != "" {
		s += " name=" + e.Name
	}
	if e.Version != 0 {
		s += fmt.Sprintf(" v=%d", e.Version)
	}
	if e.Bytes != 0 {
		s += fmt.Sprintf(" bytes=%d", e.Bytes)
	}
	if e.Logged {
		s += " logged"
	}
	if e.Arg != 0 || e.Arg2 != 0 {
		s += fmt.Sprintf(" arg=%d,%d", e.Arg, e.Arg2)
	}
	return s
}

// maxTraceString bounds every encoded string field; anything longer is
// corrupt by definition (object and app names are short), and the
// bound keeps a rotted length prefix from ballooning a decode.
const maxTraceString = 4096

func appendString(buf []byte, s string) []byte {
	var l [2]byte
	binary.BigEndian.PutUint16(l[:], uint16(len(s)))
	buf = append(buf, l[:]...)
	return append(buf, s...)
}

func readString(buf []byte) (string, []byte, error) {
	if len(buf) < 2 {
		return "", nil, ErrCorrupt
	}
	n := int(binary.BigEndian.Uint16(buf))
	buf = buf[2:]
	if n > maxTraceString || len(buf) < n {
		return "", nil, ErrCorrupt
	}
	return string(buf[:n]), buf[n:], nil
}

func appendU64(buf []byte, v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return append(buf, b[:]...)
}

func readU64(buf []byte) (uint64, []byte, error) {
	if len(buf) < 8 {
		return 0, nil, ErrCorrupt
	}
	return binary.BigEndian.Uint64(buf), buf[8:], nil
}

// encodeEvent serializes one event as the payload of a framed trace
// record: fixed-width big-endian integers and length-prefixed strings,
// so the byte image of a trace is deterministic across runs.
func encodeEvent(e Event) []byte {
	buf := make([]byte, 0, 64+len(e.App)+len(e.Name))
	buf = appendU64(buf, e.LC)
	flags := byte(0)
	if e.Logged {
		flags = 1
	}
	buf = append(buf, byte(e.Kind), flags)
	buf = appendString(buf, e.App)
	buf = appendString(buf, e.Name)
	buf = appendU64(buf, uint64(e.Version))
	buf = appendU64(buf, uint64(e.Bytes))
	buf = appendU64(buf, uint64(e.Seed))
	buf = appendU64(buf, e.Sum)
	buf = appendU64(buf, uint64(e.Arg))
	buf = appendU64(buf, uint64(e.Arg2))
	return buf
}

// decodeEvent is the inverse of encodeEvent; every malformed input
// returns ErrCorrupt rather than panicking.
func decodeEvent(buf []byte) (Event, error) {
	var e Event
	var err error
	if e.LC, buf, err = readU64(buf); err != nil {
		return e, err
	}
	if len(buf) < 2 {
		return e, ErrCorrupt
	}
	e.Kind = EventKind(buf[0])
	if e.Kind < EvPut || e.Kind > evKindMax {
		return e, fmt.Errorf("%w: unknown event kind %d", ErrCorrupt, buf[0])
	}
	if buf[1] > 1 {
		return e, fmt.Errorf("%w: bad flag byte %#x", ErrCorrupt, buf[1])
	}
	e.Logged = buf[1] == 1
	buf = buf[2:]
	if e.App, buf, err = readString(buf); err != nil {
		return e, err
	}
	if e.Name, buf, err = readString(buf); err != nil {
		return e, err
	}
	var u uint64
	if u, buf, err = readU64(buf); err != nil {
		return e, err
	}
	e.Version = int64(u)
	if u, buf, err = readU64(buf); err != nil {
		return e, err
	}
	e.Bytes = int64(u)
	if u, buf, err = readU64(buf); err != nil {
		return e, err
	}
	e.Seed = int64(u)
	if e.Sum, buf, err = readU64(buf); err != nil {
		return e, err
	}
	if u, buf, err = readU64(buf); err != nil {
		return e, err
	}
	e.Arg = int64(u)
	if u, buf, err = readU64(buf); err != nil {
		return e, err
	}
	e.Arg2 = int64(u)
	if len(buf) != 0 {
		return e, fmt.Errorf("%w: %d trailing bytes after event", ErrCorrupt, len(buf))
	}
	return e, nil
}

// FromRecord converts one ring-buffer observability record into a
// trace event, for exporting a live server's recent activity as a
// trace file (dsctl trace dump). Ring records carry no payload seeds,
// so puts exported this way replay with the synthetic generator seeded
// by version; operations with no replay semantics map to EvNote.
func FromRecord(r Record) Event {
	e := Event{
		App:     r.App,
		Name:    r.Name,
		Version: r.Version,
		Bytes:   r.Bytes,
		Seed:    r.Version,
	}
	switch r.Op {
	// The ring only records puts and gets on the logged data path
	// (unlogged ops leave no record), so all four data kinds replay
	// through PutWithLog/GetWithLog.
	case OpPut, OpSuppressedPut:
		e.Kind, e.Logged = EvPut, true
	case OpGet, OpReplayGet:
		e.Kind, e.Logged = EvGet, true
	case OpCheckpoint:
		e.Kind = EvCheckpoint
	case OpRecovery:
		e.Kind = EvRestart
	case OpLock:
		// The ring folds all four lock verbs into OpLock and keeps the
		// verb in Detail; failed attempts replay as nothing.
		switch {
		case strings.HasSuffix(r.Detail, "err"):
			e.Kind = EvNote
		case r.Detail == "acquire write":
			e.Kind = EvLock
		case r.Detail == "release write":
			e.Kind = EvUnlock
		case r.Detail == "acquire read":
			e.Kind = EvRLock
		case r.Detail == "release read":
			e.Kind = EvRUnlock
		default:
			e.Kind = EvNote
		}
	default:
		e.Kind = EvNote
	}
	return e
}
