package staging

import "gospaces/internal/codec"

// wireTypes is the staging protocol's type-id table: every request,
// response and typed error that crosses a transport, keyed by its
// wire id (internal/codec builds the encoding from the type itself).
// The ids are wire constants: never renumber, never reuse (27 and 28
// were the supervisor's shard-key scan, 53 and 54 the in-transit reduce
// pair), only append. Ids 256 and up belong
// to other packages (health, qos, transport, wlog, tier; DESIGN.md §7
// has the whole table).
var wireTypes = map[uint16]any{
	1: PutReq{}, 2: PutResp{},
	3: GetReq{}, 4: GetResp{},
	5: ShardPutReq{}, 6: ShardPutResp{},
	7: ShardGetReq{}, 8: ShardGetResp{},
	9: EpochReq{}, 10: FencedReq{},
	12: ReplApplyResp{}, 14: ReplSnapshotResp{},
	15: ReplFetchReq{}, 16: ReplFetchResp{},
	18: WlogInstallResp{},
	19: CheckpointReq{}, 20: CheckpointResp{},
	21: RecoveryReq{}, 22: RecoveryResp{},
	23: QueryReq{}, 24: QueryResp{},
	25: ShardDropReq{}, 26: ShardDropResp{},
	29: EpochSetReq{}, 30: EpochSetResp{},
	31: MembershipReq{}, 32: MembershipResp{},
	33: LockReq{}, 34: LockResp{},
	35: LeaseCASReq{}, 36: LeaseCASResp{},
	37: IntentPutReq{}, 38: IntentPutResp{},
	39: IntentClearReq{}, 40: IntentClearResp{},
	41: LeaderInfoReq{}, 42: LeaderInfoResp{},
	43: TraceReq{}, 44: TraceResp{},
	45: StatsReq{}, 46: StatsResp{},
	47: QosStatsReq{}, 48: QosStatsResp{},
	49: TierStatsReq{}, 50: TierStatsResp{},
	51: TierScrubReq{}, 52: TierScrubResp{},
	55: &StaleEpochError{}, 56: &FencedError{},
}

// retainedTypes are the messages whose decoded state the receiving
// server keeps after the handler returns — replica-slot records, hosted
// snapshots, the log and store a promoted spare installs — so their
// bytes are copied out of the frame buffer, never aliased.
var retainedTypes = map[uint16]any{
	11: ReplApplyReq{}, 13: ReplSnapshotReq{}, 17: WlogInstallReq{},
}

func init() {
	for id, m := range wireTypes {
		codec.Register(id, m)
	}
	for id, m := range retainedTypes {
		codec.RegisterRetained(id, m)
	}
}
