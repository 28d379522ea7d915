package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gospaces"
	"gospaces/internal/expt"
)

// soakExp runs one churn soak per seed: record the deterministic
// trace, execute it against a live staging group, then immediately
// replay the recorded trace and hold both runs to the same digest.
// A failing seed's trace is persisted under -trace-dir, and `dsctl
// trace replay <path>` re-executes it (copied into
// internal/workflow/testdata/ with a TestReplayRegression_* case
// pointed at it, it becomes a regression test).
func soakExp(p params) error {
	t := &expt.Table{
		Title:   "Churn soak: recorded fault schedules, record vs replay digests",
		Headers: []string{"seed", "events", "puts", "gets", "restarts", "failstops", "promotions", "sup-kills", "blackouts", "tierfaults", "floods/sheds", "retries", "wall", "verdict"},
	}
	failures := 0
	for _, seed := range p.seeds {
		o := p.soak
		o.Seed = seed
		start := time.Now()
		h, events, rec, err := gospaces.RunSoak(o)
		verdict := "CONSISTENT"
		if err != nil {
			verdict = fmt.Sprintf("DIVERGED: %v", err)
		} else {
			rep, rerr := gospaces.ReplaySoakTrace(h, events)
			switch {
			case rerr != nil:
				verdict = fmt.Sprintf("REPLAY DIVERGED: %v", rerr)
				err = rerr
			case rep.Digest != rec.Digest:
				verdict = fmt.Sprintf("REPLAY DIGEST %#x != %#x", rep.Digest, rec.Digest)
				err = fmt.Errorf("digest mismatch")
			case rep.StateSum != rec.StateSum:
				verdict = fmt.Sprintf("REPLAY STATE %#x != %#x", rep.StateSum, rec.StateSum)
				err = fmt.Errorf("state mismatch")
			}
		}
		if err != nil {
			failures++
			if path, werr := persistFailingTrace(p.traceDir, seed, h, events); werr != nil {
				fmt.Fprintf(os.Stderr, "wfbench: soak seed %d: persisting trace: %v\n", seed, werr)
			} else {
				fmt.Fprintf(os.Stderr, "wfbench: soak seed %d failed; replay it with: dsctl trace replay %s\n", seed, path)
			}
		}
		t.Add(seed, len(events), rec.Puts, rec.Gets, rec.Restarts, rec.FailStops, rec.Promotions, rec.SupKills, rec.Blackouts,
			rec.TierFaults, fmt.Sprintf("%d/%d", rec.FloodPuts, rec.FloodSheds), rec.Retries,
			time.Since(start).Round(time.Millisecond), verdict)
	}
	t.Write(p.out)
	if failures > 0 {
		return fmt.Errorf("%d of %d soak seeds diverged", failures, len(p.seeds))
	}
	return nil
}

func persistFailingTrace(dir string, seed int64, h gospaces.TraceHeader, events []gospaces.TraceEvent) (string, error) {
	if dir == "" {
		dir = "."
	}
	path := filepath.Join(dir, fmt.Sprintf("soak-seed%d.trace", seed))
	if err := gospaces.WriteTraceFile(path, h, events); err != nil {
		return "", err
	}
	return path, nil
}
