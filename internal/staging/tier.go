package staging

import (
	"strconv"

	"gospaces/internal/store"
	"gospaces/internal/tier"
)

// This file wires the PFS cold tier (internal/tier) into the staging
// server: QoS-aware spill of cold logged versions when resident bytes
// cross the spill watermark (strictly before the shed rule fires),
// transparent promote-on-get for replay readers, checkpoint GC over
// spilled versions, and the TierStats/TierScrub control RPCs.

// defaultTierWatermark is the spill trigger as a fraction of the
// memory budget without QoS; with it, the trigger is the QoS spill
// water (qos.Config.SpillWater), strictly below the shed rule.
const defaultTierWatermark = 0.6

// EnableTier attaches a cold-tier backend. Puts demote cold versions
// above the QoS spill water when QoS is enabled, else above
// defaultTierWatermark of the memory budget. Call before the server
// serves traffic, after EnableQoS.
func (s *Server) EnableTier(be tier.Backend) {
	s.tier = tier.New(be, strconv.Itoa(s.id))
	s.tierWater = defaultTierWatermark
	if s.qosCtl != nil {
		s.tierWater = s.qosCtl.Config().SpillWater()
	}
}

// spillWater is the resident-bytes level above which puts demote cold
// versions (0 = spill disabled).
func (s *Server) spillWater() int64 {
	if s.tier == nil || s.budget <= 0 {
		return 0
	}
	return int64(float64(s.budget) * s.tierWater)
}

// maybeSpill demotes cold logged versions until resident bytes plus
// the incoming payload fit under the spill watermark, or no candidates
// remain. Cold means: strictly older than the newest version of its
// name (normal readers only see the latest) yet still retained for
// replay (at or above the payload frontier — anything below it is
// garbage, collected by GC, not spilled). A degraded tier ends the
// pass; the put then falls through to the normal GC/shed path.
func (s *Server) maybeSpill(incoming int64) {
	water := s.spillWater()
	if water == 0 {
		return
	}
	s.tierMu.Lock()
	defer s.tierMu.Unlock()
	if s.store.BytesUsed()+incoming <= water {
		return
	}
	for _, name := range s.store.Names() {
		versions := s.store.Versions(name)
		if len(versions) < 2 {
			continue
		}
		for _, v := range versions[:len(versions)-1] {
			if s.store.BytesUsed()+incoming <= water {
				return
			}
			if !s.spillVersion(name, v) && s.tier.Degraded() {
				return
			}
		}
	}
}

// spillVersion demotes one (name, version): its logged objects go to
// the tier as one batch, and only what that batch durably committed is
// dropped from RAM, so a crash or backend fault at any point leaves the
// version either resident or spilled — never half-moved. Unlogged
// objects of the version stay resident. Reports whether it was demoted.
func (s *Server) spillVersion(name string, version int64) bool {
	var batch []*store.Object
	for _, o := range s.store.VersionObjects(name, version) {
		if o.Logged && o.Data != nil {
			batch = append(batch, o)
		}
	}
	if len(batch) == 0 || s.tier.Spill(batch) != nil {
		return false
	}
	freed := s.store.DropObjects(name, version, batch)
	s.chargeQoS(name, -freed, -freed)
	return true
}

// promoteFromTier pulls (name, version) back into staging RAM — the
// transparent promote-on-get path behind replay reads of spilled
// versions. Reports whether any object was promoted.
func (s *Server) promoteFromTier(name string, version int64) bool {
	if s.tier == nil {
		return false
	}
	s.tierMu.Lock()
	defer s.tierMu.Unlock()
	// A Promote error is a manifest commit that failed: the tier counts
	// the degradation itself, and the objects it returns are verified
	// and still committed there, so re-inserting them is safe.
	objs, _ := s.tier.Promote(name, version)
	if len(objs) == 0 {
		return false
	}
	var resident int64
	for _, o := range objs {
		delta, err := s.store.PutAccounted(o)
		if err != nil {
			s.chargeQoS(name, resident, resident)
			return false
		}
		resident += delta
	}
	s.chargeQoS(name, resident, resident)
	return true
}

// tierGC extends checkpoint GC to the cold tier: spilled versions
// below the payload frontier can never be replayed again.
func (s *Server) tierGC() int64 {
	if s.tier == nil {
		return 0
	}
	var freed int64
	for _, name := range s.store.Names() {
		freed += s.tier.DropBelow(name, s.log.PayloadFrontier(name))
	}
	return freed
}

func (s *Server) handleTierStats() (any, error) {
	if s.tier == nil {
		return TierStatsResp{ID: s.id}, nil
	}
	return TierStatsResp{Enabled: true, ID: s.id, Stats: s.tier.Stats()}, nil
}

func (s *Server) handleTierScrub() (any, error) {
	if s.tier == nil {
		return TierScrubResp{ID: s.id}, nil
	}
	rep := s.tier.Scrub()
	return TierScrubResp{Enabled: true, ID: s.id, ScrubReport: rep, Degraded: s.tier.Degraded()}, nil
}
