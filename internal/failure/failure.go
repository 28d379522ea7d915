// Package failure generates fail-stop failure schedules for workflow
// experiments. The paper injects random process failures with
// MTBF = 10 min into 40-timestep synthetic runs (§IV-A) and scales the
// failure count with the system size in Table III (MTBF 600/300/200 s
// for 1/2/3 failures).
package failure

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// Injection is one scheduled rank fail-stop.
type Injection struct {
	// At is the time of the failure relative to workflow start.
	At time.Duration
	// Component names the workflow component that fails.
	Component string
	// Rank is the failing rank within the component.
	Rank int
}

// Schedule is a time-ordered list of injections.
type Schedule []Injection

// Targets describes the components failures may hit; weights are the
// component sizes (larger components absorb proportionally more
// failures, as on a real machine).
type Target struct {
	Component string
	Ranks     int
}

// Exponential draws n failures with exponentially distributed
// inter-arrival times of the given MTBF, assigning each failure to a
// target component with probability proportional to its rank count.
// The schedule is deterministic for a given seed. Failures falling
// beyond horizon are wrapped back into (0, horizon) so the requested
// count always lands inside the run, matching the paper's "a failure
// was randomly introduced within 40 time steps" setup.
func Exponential(seed int64, mtbf time.Duration, n int, horizon time.Duration, targets []Target) (Schedule, error) {
	if mtbf <= 0 {
		return nil, fmt.Errorf("failure: non-positive MTBF %v", mtbf)
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("failure: no targets")
	}
	if horizon <= 0 {
		return nil, fmt.Errorf("failure: non-positive horizon %v", horizon)
	}
	total := 0
	for _, t := range targets {
		if t.Ranks <= 0 {
			return nil, fmt.Errorf("failure: target %q with %d ranks", t.Component, t.Ranks)
		}
		total += t.Ranks
	}
	rng := rand.New(rand.NewSource(seed))
	sched := make(Schedule, 0, n)
	at := time.Duration(0)
	for i := 0; i < n; i++ {
		gap := time.Duration(rng.ExpFloat64() * float64(mtbf))
		at += gap
		t := at % horizon
		if t == 0 {
			t = horizon / 2
		}
		pick := rng.Intn(total)
		var comp string
		var ranks int
		for _, tg := range targets {
			if pick < tg.Ranks {
				comp = tg.Component
				ranks = tg.Ranks
				break
			}
			pick -= tg.Ranks
		}
		sched = append(sched, Injection{At: t, Component: comp, Rank: rng.Intn(ranks)})
	}
	sort.Slice(sched, func(i, j int) bool { return sched[i].At < sched[j].At })
	return sched, nil
}

// Fixed builds a schedule from explicit injections (sorted by time).
func Fixed(inj ...Injection) Schedule {
	s := append(Schedule(nil), inj...)
	sort.Slice(s, func(i, j int) bool { return s[i].At < s[j].At })
	return s
}
