package staging

import (
	"gospaces/internal/codec"
	"gospaces/internal/locks"
)

// wireTypes is the staging protocol's type-id table: every request,
// response and typed error that crosses a transport, keyed by its
// wire id (internal/codec builds the encoding from the type itself).
// The ids are wire constants: never renumber, never reuse (5–8 and
// 25/26 were the CoREC shard store's put, get and drop pairs, 27 and 28
// the supervisor's shard-key scan, 30 EpochSetResp and 31/32 the
// MembershipReq pair, whose view health.PingResp now carries, 53 and 54
// the in-transit reduce pair), only append. Ids 256 and up belong to
// other packages (health, qos, transport, wlog, tier; DESIGN.md §7 has
// the whole table).
var wireTypes = map[uint16]any{
	1: PutReq{}, 2: PutResp{},
	3: GetReq{}, 4: GetResp{},
	9: EpochReq{}, 10: FencedReq{},
	11: ReplApplyReq{}, 12: ReplApplyResp{},
	13: ReplSnapshotReq{}, 14: ReplSnapshotResp{},
	15: ReplFetchReq{}, 16: ReplFetchResp{},
	17: WlogInstallReq{}, 18: WlogInstallResp{},
	19: CheckpointReq{}, 20: CheckpointResp{},
	21: RecoveryReq{}, 22: RecoveryResp{},
	23: QueryReq{}, 24: QueryResp{},
	29: EpochSetReq{},
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
	57: &locks.Error{},
}

func init() {
	for id, m := range wireTypes {
		codec.Register(id, m)
	}
}
