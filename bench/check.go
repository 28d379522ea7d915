package main

import "fmt"

// verdict of one metric on one workload, comparing a base set of runs
// with a new one.
type verdict struct {
	workload, metric  string
	base, new, ratio  float64 // medians; ratio is new/base
	baseRuns, newRuns int
	spread            float64 // widest (max-min)/median within either set
	status            string  // ok, REGRESSION, unresolved
	note              string
}

// failedFrac is the one metric that is not in BENCHMARK.json, because the
// contract wants metrics that are never 0 and carries failures in the
// result line instead: failed over attempted operations, summed over a
// set's runs of one workload. Its bound is 0, absolute.
const failedFrac = "failed_frac"

// compare applies the benchmark's own bounds. A metric regresses when
// the new median is worse than the base median by more than its bound.
// When the runs of one set — the same code — already differ by more than
// the bound, the comparison cannot tell a change from noise: the metric
// is unresolved, unless every new run is better than every base run.
// Failed operations regress as soon as the new set fails a larger share
// of what it attempted than the base set did: a run that drops or refuses
// work must not pass for a faster one.
func compare(defs []metricDef, base, new resultFile) []verdict {
	type set struct {
		metrics           map[string][]float64
		runs              int
		attempted, failed int
	}
	collect := func(f resultFile) map[string]*set {
		out := map[string]*set{}
		for _, r := range f.Runs {
			if r.Trace != 0 {
				continue
			}
			if out[r.Workload] == nil {
				out[r.Workload] = &set{metrics: map[string][]float64{}}
			}
			s := out[r.Workload]
			s.runs++
			s.attempted += r.Attempted
			s.failed += r.Failed
			for name, v := range r.Metrics {
				s.metrics[name] = append(s.metrics[name], v.Value)
			}
		}
		return out
	}
	b, n := collect(base), collect(new)
	var out []verdict
	for _, w := range workloads {
		bs, ns := b[w.name], n[w.name]
		if bs == nil || ns == nil {
			continue
		}
		for _, d := range defs {
			bv, nv := bs.metrics[d.Name], ns.metrics[d.Name]
			if len(bv) == 0 || len(nv) == 0 {
				continue
			}
			v := verdict{
				workload: w.name, metric: d.Name,
				base: median(bv), new: median(nv), baseRuns: len(bv), newRuns: len(nv),
			}
			v.ratio = ratio(v.new, v.base)
			worse := v.ratio - 1
			if d.Better == "higher" {
				worse = 1 - v.ratio
			}
			v.spread = max(spreadOf(bv), spreadOf(nv))
			switch {
			case v.spread > d.Bound && !allBetter(d, bv, nv):
				v.status = "unresolved"
			case worse > d.Bound:
				v.status = "REGRESSION"
			default:
				v.status = "ok"
			}
			out = append(out, v)
		}
		v := verdict{
			workload: w.name, metric: failedFrac, status: "ok", baseRuns: bs.runs, newRuns: ns.runs,
			base: ratio(float64(bs.failed), float64(bs.attempted)), new: ratio(float64(ns.failed), float64(ns.attempted)),
			note: fmt.Sprintf("%d of %d operations failed, then %d of %d", bs.failed, bs.attempted, ns.failed, ns.attempted),
		}
		v.ratio = ratio(v.new, v.base)
		if v.new > v.base {
			v.status = "REGRESSION"
		}
		out = append(out, v)
	}
	return out
}

// spreadOf is (max - min) / median of one set's runs; 0 for a single run.
func spreadOf(xs []float64) float64 {
	s := sorted(xs)
	return ratio(s[len(s)-1]-s[0], median(xs))
}

// allBetter reports whether every new run beats every base run.
func allBetter(d metricDef, base, new []float64) bool {
	b, n := sorted(base), sorted(new)
	if d.Better == "higher" {
		return n[0] > b[len(b)-1]
	}
	return n[len(n)-1] < b[0]
}

func checkFiles(sp spec, basePath, newPath string) (int, error) {
	base, err := readResults(basePath)
	if err != nil {
		return 0, err
	}
	new, err := readResults(newPath)
	if err != nil {
		return 0, err
	}
	return report(compare(sp.EndToEnd, base, new)), nil
}

func report(vs []verdict) int {
	if len(vs) == 0 {
		fmt.Println("no untraced run of the same workload in both files")
		return 2
	}
	fmt.Printf("%-14s %-20s %12s %12s %9s %8s %5s  %s\n", "workload", "metric", "base", "new", "new/base", "spread", "runs", "status")
	count := map[string]int{}
	for _, v := range vs {
		fmt.Printf("%-14s %-20s %12.4f %12.4f %9.4f %7.1f%% %2d/%-2d  %s",
			v.workload, v.metric, v.base, v.new, v.ratio, 100*v.spread, v.baseRuns, v.newRuns, v.status)
		if v.note != "" {
			fmt.Printf("  (%s)", v.note)
		}
		fmt.Println()
		count[v.status]++
	}
	fmt.Printf("%d comparisons: %d within their bounds, %d regressed, %d unresolved\n",
		len(vs), count["ok"], count["REGRESSION"], count["unresolved"])
	if count["REGRESSION"] > 0 {
		return 1
	}
	return 0
}
