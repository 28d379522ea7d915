// Package staging implements the DataSpaces-like data staging service:
// a group of in-memory servers that jointly store versioned array
// regions of a global domain, addressed by bounding box. The package
// provides both the original staging semantics (keep the latest version
// of each object) and the paper's crash-consistent semantics, where
// every put/get is logged in per-component event queues (internal/wlog)
// so failed components can replay (PutWithLog, GetWithLog,
// WorkflowCheck, WorkflowRestart — Table I of the paper).
package staging

import (
	"time"

	"gospaces/internal/codec"
	"gospaces/internal/domain"
	"gospaces/internal/health"
	"gospaces/internal/locks"
	"gospaces/internal/qos"
	"gospaces/internal/store"
	"gospaces/internal/tier"
	"gospaces/internal/trace"
	"gospaces/internal/wlog"
)

// Piece is one stored array fragment: a bbox and its row-major payload.
type Piece struct {
	BBox domain.BBox
	Data []byte
}

// PutReq writes one piece of an object version to a server.
type PutReq struct {
	App      string // component/rank identity, e.g. "sim/12"
	Name     string
	Version  int64
	ElemSize int
	Logged   bool // true: crash-consistent path with event logging
	// Defer asks for the ack without flushing the piece's record to the
	// replicas: a later piece of the same put flushes for both (Client.put).
	Defer bool
	// Piece's payload is never copied into a frame: from 16 KiB up the
	// transport writes it as its own iovec (codec.AppendCuts), wherever
	// the field sits. Field order is a wire constant all the same.
	Piece Piece
}

// PutResp acknowledges a put.
type PutResp struct {
	// Suppressed is true when the write was a replayed duplicate and
	// the payload was already staged (paper Fig. 2, case 2).
	Suppressed bool
	// Deferred is true when the server honoured PutReq.Defer: the piece
	// is applied and logged, on no replica until the stream's next flush.
	Deferred bool
}

// GetReq reads the fragments of an object version intersecting a bbox.
// Version NoVersion (-1) means "latest on this server".
type GetReq struct {
	App     string
	Name    string
	Version int64
	BBox    domain.BBox
	Logged  bool
	// Seq numbers a logged get among its client's (0: none). The retry
	// layer re-sends it unchanged, so a server recognizes the retry of a
	// get whose answer was lost and logs it once (wlog.Log.RetriedGet);
	// a replayed get stamps it on the event it consumes.
	Seq uint64
}

// GetResp carries the resolved version and matching fragments.
type GetResp struct {
	Version int64
	Pieces  []Piece
	// FromLog is true when the version was dictated by the replay log.
	FromLog bool
	// Frame is the frame body the pieces alias, when the transport read
	// the answer off the wire; it has no wire encoding. The client
	// releases it after copying the pieces out.
	Frame codec.Frame
}

// CheckpointReq notifies the staging server of a component checkpoint
// (workflow_check in Table I).
type CheckpointReq struct {
	App string
}

// CheckpointResp returns the checkpoint event id assigned by the server.
type CheckpointResp struct {
	ChkID string
	// FreedBytes is the payload freed by the garbage collection pass
	// that runs at the end of the checkpoint cycle.
	FreedBytes int64
}

// RecoveryReq notifies the staging server that a component restarted
// from its last checkpoint (workflow_restart in Table I). Covered, when
// positive, is the highest event version the component's durable
// checkpoint folds in: the server drops covered events from the replay
// window, healing a workflow_check torn by a server fail-stop mid-mark.
type RecoveryReq struct {
	App     string
	Covered int64
}

// RecoveryResp summarizes the replay script generated for the component.
type RecoveryResp struct {
	ReplayEvents int
}

// QueryReq asks which versions of an object a server holds.
type QueryReq struct {
	Name string
}

// QueryResp lists versions ascending.
type QueryResp struct {
	Versions []int64
}

// EpochReq is the membership-epoch envelope: it wraps any staging
// request with the client's view of the membership epoch. A server
// whose epoch is newer rejects the call with StaleEpochError so the
// client re-binds to the current membership before retrying — a client
// routing on a stale view could read from (or write to) a promoted
// spare's predecessor. Bare requests bypass the check: they serve the
// control RPCs, which name their server.
type EpochReq struct {
	Epoch uint64
	Req   any
}

// EpochSetReq installs a membership view on a server. The recovery
// leader pushes it to every member whenever the view changes — a
// promotion, a slot stranded, a stranded slot healed, each a new epoch
// — and once on election; a server only adopts views not older than the
// one it holds, and answers with its health.PingResp (the view it holds
// after the push). Receiving a view also clears the server's spare
// flag: a spare that is told about membership has been promoted into it.
type EpochSetReq struct {
	View health.View
}

// LockReq acquires or releases a named reader/writer lock hosted by
// server 0 of the group (dspaces_lock_on_read/write).
type LockReq struct {
	Name    string
	Holder  string
	Write   bool
	Release bool
	// Seq is the holder's lock-operation sequence number. Lock
	// transitions are not idempotent (acquire/release change state), so
	// when the retry layer re-sends a request whose response was lost,
	// the server uses (Holder, Seq) to recognize the duplicate and
	// return the original outcome instead of re-executing. Clients
	// number from 1.
	Seq uint64
}

// LockResp acknowledges a lock operation.
type LockResp struct{}

// LockRecord is one operation the lock server's table completed, in the
// log-replication stream: the table reports it under its own mutex, so
// the stream holds the transitions in the order they happened, and a
// replica's table that applies them (locks.Manager.Apply) holds the
// origin's locks and dedup rows at every position — a promoted spare
// answers retried lock RPCs exactly like the dead server would have.
type LockRecord = locks.Record

// ReplRecord is one mutation of a staging server's replicated state —
// an event-log record (with the put payload, so replay reads survive
// the origin server), or a lock-server record. Seq orders the stream.
type ReplRecord struct {
	Seq  int64
	Wlog *wlog.Record
	// Obj is the logged object a Wlog OpPut record stored, its payload
	// and ingest CRC with it, so a restored server can serve replay
	// reads without the dead origin, and the one account of what was put
	// (the OpPut record names the app alone). The origin ships the very
	// object it stored; a replica keeps a checked copy (keepObject), logs
	// the put from it, and refuses a put record without one.
	Obj  *store.Object
	Lock *LockRecord
}

// ReplState is a full snapshot of a server's replicated state at stream
// position Seq: the event log, the logged objects, and the lock table
// (held locks and dedup rows; empty except on the lock server) —
// everything a spare needs to take the slot over.
type ReplState struct {
	Seq int64
	// Wlog is wlog.Log.Snapshot's output, itself a codec message: only
	// Log.Restore opens it, under the codec's bounds and the snapshot's
	// own ValidateWire.
	Wlog    []byte
	Objects []*store.Object
	Locks   locks.State
}

// ReplApplyReq ships a batch of replication records from the origin of
// Slot to a peer. Epoch fences the stream: a receiver holding a newer
// membership epoch rejects the batch, so an origin from a prior view
// (a zombie predecessor of a promoted spare) cannot corrupt replicas.
type ReplApplyReq struct {
	Epoch   uint64
	Slot    int
	Records []ReplRecord
}

// ReplApplyResp acknowledges a batch: Seq is the receiver's stream
// position after it. NeedSnapshot reports a sequence gap — the batch
// does not continue from Seq and nothing past the gap was applied; the
// origin picks the cure, the records since Seq when its log still
// holds them, else a full ReplSnapshotReq.
type ReplApplyResp struct {
	NeedSnapshot bool
	Seq          int64
}

// ReplSnapshotReq installs a full replica snapshot of Slot on a peer,
// fenced by Epoch like ReplApplyReq.
type ReplSnapshotReq struct {
	Epoch uint64
	Slot  int
	State ReplState
}

// ReplSnapshotResp acknowledges a snapshot install.
type ReplSnapshotResp struct {
	Seq int64
}

// ReplFetchReq asks for the position of the replica a server hosts of
// Slot. With InstallOn (sent fenced) the server installs the replica on
// that spare itself, under the same token: it crosses the wire once.
type ReplFetchReq struct {
	Slot      int
	InstallOn string
}

// ReplFetchResp is the replica's position (Found=false: none here); after
// an install, the records installed and the log and payload bytes.
type ReplFetchResp struct {
	Found bool
	Epoch uint64
	Seq   int64
	Bytes int64
}

// WlogInstallReq restores a replicated state snapshot onto the
// receiving server itself (a promoted spare taking over Slot), as
// opposed to ReplSnapshotReq which updates a hosted peer replica.
type WlogInstallReq struct {
	Slot  int
	State ReplState
}

// WlogInstallResp acknowledges the restore.
type WlogInstallResp struct {
	Records int64
}

// FencedReq is the recovery-leadership envelope: it wraps a
// recovery-side mutation (EpochSetReq, WlogInstallReq, ReplFetchReq,
// intent journal updates) with the sender's fencing token. A server
// that has granted a lease with a higher token — a newer leader exists
// — rejects the call with a health.FencedError, so a deposed
// supervisor's stale mutations can never land after a takeover.
type FencedReq struct {
	Token uint64
	Req   any
}

// LeaseCASReq is the leader-election compare-and-swap: supervisor
// Holder proposes to hold the recovery lease under Token for TTL. The
// proposal is granted when the server's lease record is free (empty or
// expired) or already held by Holder, and Token is not behind the
// server's fence. The server answers with its health.PingResp, whose
// Lease grants the proposal or names why not: the holder it keeps and
// the fence the candidate proposes past next round. A supervisor is
// leader while a majority of the membership grants its lease.
//
// Release set makes the call the inverse: Holder gives back its grant
// (a no-op when the record is held by someone else). A candidate that
// fails to reach a majority must release — two candidates each holding
// half the grants would otherwise re-extend their halves on every
// retry and livelock the election.
type LeaseCASReq struct {
	Holder  string
	Token   uint64
	TTL     time.Duration
	Release bool
}

// IntentPutReq journals a promotion intent on a member (sent fenced);
// the member answers with its health.PingResp.
type IntentPutReq struct {
	Intent health.Intent
}

// IntentClearReq drops the journaled intent for Slot once the
// promotion has fully completed (sent fenced); the member answers with
// its health.PingResp.
type IntentClearReq struct {
	Slot int
}

// TraceReq fetches the server's recent protocol trace.
type TraceReq struct {
	// Limit caps the records returned (0 = all retained).
	Limit int
}

// TraceResp carries the server's recent protocol trace, oldest first,
// as typed records: dsctl trace renders them, dsctl trace dump exports
// them.
type TraceResp struct {
	Raw []trace.Record
	// Total is how many records the server ever traced (including those
	// evicted from the ring).
	Total uint64
}

// StatsReq asks a server for its resource accounting.
type StatsReq struct{}

// StatsResp reports server-side accounting used by the Figure 9
// experiments. Every field is a count (Client.Stats sums them).
type StatsResp struct {
	StoreBytes     int64 // resident object payload bytes
	LogMetaBytes   int64 // resident event-record bytes
	Objects        int
	Puts           int64
	Gets           int64
	SuppressedPuts int64
	ReplayGets     int64
	GCFreedBytes   int64
	PutNanos       int64 // cumulative server-side put handling time
	// Log-replication accounting: the origin-side stream position
	// (records emitted for this server's own slot) and the batches they
	// shipped in, and the replica state hosted for peer slots.
	ReplSeq        int64
	ReplBatches    int64
	ReplicaSlots   int
	ReplicaBytes   int64
	ReplicaRecords int64
	// What it cost to heal replica peers: catch-ups served from the
	// retained log against full snapshots, with the bytes each shipped.
	DeltaResyncs  int64
	DeltaBytes    int64
	SnapshotsSent int64
	SnapshotBytes int64
	// FencedRejects counts recovery-side mutations rejected because the
	// caller's fencing token trailed the server's fence — evidence a
	// deposed leader tried to keep mutating after a takeover.
	FencedRejects int64
}

// QosStatsReq asks a server for its admission-control accounting
// (dsctl qos surfaces it).
type QosStatsReq struct{}

// QosTenant is one tenant's accounting row on one server.
type QosTenant = qos.TenantStat

// QosStatsResp reports a server's admission-control state: per-tenant
// usage against quota, aggregate admit/shed counters, and the lane
// scheduler's queue depths. Enabled is false when the server runs
// without a QoS config (all other fields are then zero).
type QosStatsResp struct {
	Enabled         bool
	ID              int
	Tenants         []QosTenant
	Admits          int64
	Sheds           int64
	QueueForeground int64
	QueueRecovery   int64
	ReplLag         int64
}

// TierStatsReq asks a server for its cold-tier accounting (dsctl tier
// surfaces it).
type TierStatsReq struct{}

// TierStatsResp reports a server's cold-tier state: the tier's own
// accounting (resident entries, spill/promote traffic, scrub results,
// degradation). Enabled is false when no tier is attached.
type TierStatsResp struct {
	Enabled bool
	ID      int
	tier.Stats
}

// TierScrubReq triggers a CRC scrub pass over the server's spilled
// records: corrupt generations are re-replicated from the surviving
// twin, unrecoverable entries dropped. Sent by `dsctl scrub` and by a
// tiered soak's last barrier (workflow's finish), to every member.
type TierScrubReq struct{}

// TierScrubResp reports one scrub pass; Degraded is the tier's state
// after it.
type TierScrubResp struct {
	Enabled bool
	ID      int
	tier.ScrubReport
	Degraded bool
}
