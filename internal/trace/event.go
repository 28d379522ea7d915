package trace

import "fmt"

// EventKind classifies one replayable trace event. Workload kinds
// drive the staging client verbatim on replay; fault kinds re-arm the
// same injection the recorded run suffered; EvNote is an
// observability-only record (e.g. a GC pass harvested from a server's
// ring buffer) that replay skips. Kinds are encoded by value, so new
// ones are only ever appended.
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
	// EvNetFault opens a network fault window of Arg2 ms on slot Arg:
	// Name "delay" slows each call by a quarter of the window, "drop"
	// loses each response (the server did the work).
	EvNetFault

	evKindMax = EvNetFault
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
	case EvNetFault:
		return "net-fault"
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
	// Name is the staged object or lock name, EvSupervisorKill's mode or
	// EvNetFault's fault.
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
	// EvFailStop/EvBlackout/EvNetFault/EvTierFault, the burst size for
	// EvFlood, the supervisor for EvSupervisorKill, the spare count for
	// EvAddSpare.
	Arg int64
	// Arg2 is the fault parameter: a blackout or net-fault window in
	// milliseconds, or the tier-fault code (TierTornWrite … TierSlowIO)
	// of a tier fault.
	Arg2 int64
}

// Tier-fault codes: an EvTierFault's Arg2 names the storage fault it
// arms on the slot's cold tier. They are trace-format values, fixed like
// the event kinds, because checked-in traces carry them.
const (
	TierTornWrite    int64 = iota + 7 // truncate the next tier write at Version
	TierPartialWrite                  // cut the next tier write at Version
	TierBitRot                        // flip a bit of a spilled record at rest
	TierENOSPC                        // fail the next tier write with no space
	TierSlowIO                        // slow every tier I/O for Bytes ms
)

// ValidateWire refuses an event of a kind this build does not know:
// the codec calls it on every decoded Event, so such a frame is
// corrupt, not an event replay would have to skip.
func (e *Event) ValidateWire() error {
	if e.Kind < EvPut || e.Kind > evKindMax {
		return fmt.Errorf("unknown event kind %d", e.Kind)
	}
	return nil
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
