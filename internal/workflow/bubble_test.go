//go:build goexperiment.synctest

//go:debug asynctimerchan=0

// The bubble twins: the soak's determinism test, the checked-in
// regression traces and the nemesis schedules, each schedule run inside
// a testing/synctest bubble, where every clock the soak reads is the
// bubble's virtual one and time moves only when every goroutine of the
// run is blocked. They keep their twins' assertions; the nemesis seeds
// run in sequence, as a bubble cannot hold a parallel test. Run them
// with
//
//	GOEXPERIMENT=synctest go test -race -run Bubble ./internal/workflow/
//
// (make synctest). The go:debug line gives the bubble the timer
// channels it needs under go.mod's language version.

package workflow

import (
	"testing"
	"testing/synctest"
)

// bubble runs f as t inside a synctest bubble of its own.
func bubble(t *testing.T, f func(t *testing.T)) { synctest.Run(func() { f(t) }) }

func TestBubbleSoakReplayDeterministic(t *testing.T) { bubble(t, TestSoakReplayDeterministic) }

func TestBubbleReplayRegression(t *testing.T) {
	for _, kind := range []string{"kill-mid-replay", "tier-spill-enospc", "overload-shed",
		"leader-killed-mid-promotion", "deposed-leader-fenced", "spare-exhaustion-healed"} {
		t.Run(kind, func(t *testing.T) { bubble(t, func(t *testing.T) { runRegression(t, kind) }) })
	}
}

func TestBubbleNemesisLeaderKilledMidPromotion(t *testing.T) {
	nemesisLeaderKilledMidPromotion(t, bubble)
}
func TestBubbleNemesisDeposedLeaderFenced(t *testing.T)  { nemesisDeposedLeaderFenced(t, bubble) }
func TestBubbleNemesisSpareExhaustionHeals(t *testing.T) { nemesisSpareExhaustionHeals(t, bubble) }
func TestBubbleNemesisChaosSoak(t *testing.T)            { nemesisChaosSoak(t, bubble) }
func TestBubbleNemesisNetFaultReplay(t *testing.T)       { nemesisNetFaultReplay(t, bubble) }
func TestBubbleNemesisOverloadSoak(t *testing.T)         { nemesisOverloadSoak(t, bubble) }
func TestBubbleNemesisTierSoak(t *testing.T)             { nemesisTierSoak(t, bubble) }
