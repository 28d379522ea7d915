// Benchmarks regenerating the paper's evaluation (one per table/figure)
// plus ablations of the design choices called out in DESIGN.md.
//
// Figures 9(a)-(d) measure the live staging service; Figure 9(e) and
// Figure 10 run the protocol on the virtual-time simulator at the
// paper's Cori scales. Custom metrics carry the paper's headline
// numbers: write-overhead %, memory-overhead %, and the improvement of
// uncoordinated over coordinated checkpointing.
//
// Run with: go test -bench=. -benchmem
package gospaces_test

import (
	"testing"
	"time"

	"gospaces"
	"gospaces/internal/ckpt"
	"gospaces/internal/cluster"
	"gospaces/internal/domain"
	"gospaces/internal/expt"
	"gospaces/internal/failure"
	"gospaces/internal/staging"
	"gospaces/internal/synth"
	"gospaces/internal/transport"
)

// benchLive returns a fast live-measurement configuration.
func benchLive() expt.LiveParams {
	p := expt.DefaultLiveParams()
	p.Steps = 10
	return p
}

// BenchmarkTableII runs the live functional workflow at a scaled-down
// Table II configuration (the full protocol: MPI ranks, staging,
// logging, checkpointing) with one injected failure.
func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := gospaces.RunWorkflow(gospaces.WorkflowOptions{
			Scheme:    gospaces.Uncoordinated,
			Steps:     10,
			Global:    gospaces.Box3(0, 0, 0, 63, 63, 31),
			SimRanks:  4,
			AnaRanks:  2,
			NServers:  2,
			SimPeriod: 4,
			AnaPeriod: 5,
			Failures:  []gospaces.FailAt{{Component: "ana", Rank: 0, TS: 7}},
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.CorruptReads != 0 {
			b.Fatal("corruption")
		}
	}
}

// BenchmarkFig9a measures the cumulative write response time of the
// staging service, original vs data-logging, across Case 1 subset
// sizes. The write_overhead_pct metric is the number on the Figure 9(a)
// bars (paper: +10..15%).
func BenchmarkFig9a(b *testing.B) {
	expt.Reps = 3
	for i := 0; i < b.N; i++ {
		rows, err := expt.Fig9Case1(benchLive())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[len(rows)-1].WriteOverheadPct, "write_overhead_pct")
	}
}

// BenchmarkFig9b is the Case 2 counterpart: checkpoint periods 2..6 ts.
func BenchmarkFig9b(b *testing.B) {
	expt.Reps = 3
	for i := 0; i < b.N; i++ {
		rows, err := expt.Fig9Case2(benchLive())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[2].WriteOverheadPct, "write_overhead_pct")
	}
}

// BenchmarkFig9c reports the staging memory overhead of data logging
// for Case 1 (paper: +81..86%, flat across subsets).
func BenchmarkFig9c(b *testing.B) {
	expt.Reps = 1
	for i := 0; i < b.N; i++ {
		rows, err := expt.Fig9Case1(benchLive())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].MemOverheadPct, "mem_overhead_20pct")
		b.ReportMetric(rows[len(rows)-1].MemOverheadPct, "mem_overhead_100pct")
	}
}

// BenchmarkFig9d reports the memory overhead across checkpoint periods
// (paper: +76% at 2 ts growing to +97% at 6 ts).
func BenchmarkFig9d(b *testing.B) {
	expt.Reps = 1
	for i := 0; i < b.N; i++ {
		rows, err := expt.Fig9Case2(benchLive())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].MemOverheadPct, "mem_overhead_2ts")
		b.ReportMetric(rows[len(rows)-1].MemOverheadPct, "mem_overhead_6ts")
	}
}

// BenchmarkFig9e runs the four schemes at Table II scale with one
// failure on the virtual-time simulator and reports the uncoordinated
// improvement over coordinated (paper: ~3%).
func BenchmarkFig9e(b *testing.B) {
	seeds := []int64{1, 2, 3, 4, 5}
	for i := 0; i < b.N; i++ {
		rows, err := expt.Fig9e(seeds)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Scheme == "uncoordinated +1f" {
				b.ReportMetric(r.VsCoordPct, "un_vs_co_improvement_pct")
			}
		}
	}
}

// BenchmarkFig10 runs the scalability study (704..11264 cores, 1..3
// failures) and reports the best-case improvement at the largest scale
// (paper: "up to 13.48%").
func BenchmarkFig10(b *testing.B) {
	seeds := []int64{1, 2, 3, 4, 5}
	for i := 0; i < b.N; i++ {
		rows, err := expt.Fig10(seeds)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].BestImpUn, "upto_pct_704cores")
		b.ReportMetric(rows[len(rows)-1].BestImpUn, "upto_pct_11264cores")
	}
}

// BenchmarkPutPath micro-benchmarks a single staged put, original vs
// logged, isolating the per-request cost of data logging.
func BenchmarkPutPath(b *testing.B) {
	for _, logged := range []bool{false, true} {
		name := "original"
		if logged {
			name = "logged"
		}
		b.Run(name, func(b *testing.B) {
			global := domain.Box3(0, 0, 0, 63, 63, 31)
			g, err := staging.StartGroup(transport.NewInProc(), "bench", staging.Config{
				Global: global, NServers: 2, Bits: 2, ElemSize: 8,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer g.Close()
			c, err := g.NewClient("bench/0")
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			data := make([]byte, domain.BufLen(global, 8))
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				version := int64(i + 1)
				if logged {
					err = c.PutWithLog("f", version, global, data)
				} else {
					err = c.Put("f", version, global, data)
				}
				if err != nil {
					b.Fatal(err)
				}
				// Bound log growth as a real workflow's GC would.
				if logged && version%8 == 0 {
					if _, err := c.WorkflowCheck(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkAblationGC quantifies what garbage collection buys: staging
// memory with checkpoint-driven GC versus a log that never trims.
func BenchmarkAblationGC(b *testing.B) {
	run := func(b *testing.B, gc bool) {
		global := domain.Box3(0, 0, 0, 63, 63, 31)
		g, err := staging.StartGroup(transport.NewInProc(), "gc", staging.Config{
			Global: global, NServers: 2, Bits: 2, ElemSize: 8,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer g.Close()
		prod, _ := g.NewClient("sim/0")
		cons, _ := g.NewClient("ana/0")
		defer prod.Close()
		defer cons.Close()
		field := synth.NewField("f", global, 8)
		for ts := int64(1); ts <= 24; ts++ {
			if err := prod.PutWithLog("f", ts, global, field.Fill(ts, global)); err != nil {
				b.Fatal(err)
			}
			if _, _, err := cons.GetWithLog("f", ts, global); err != nil {
				b.Fatal(err)
			}
			if gc && ts%4 == 0 {
				if _, err := prod.WorkflowCheck(); err != nil {
					b.Fatal(err)
				}
				if _, err := cons.WorkflowCheck(); err != nil {
					b.Fatal(err)
				}
			}
		}
		st, err := prod.Stats()
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(st.StoreBytes)/(1<<20), "resident_MiB")
	}
	b.Run("with-gc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, true)
		}
	})
	b.Run("no-gc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, false)
		}
	})
}

// BenchmarkAblationCoordinationStall isolates the failure-free cost of
// global coordination: coordinated vs uncoordinated with no failures on
// the virtual-time model.
func BenchmarkAblationCoordinationStall(b *testing.B) {
	w := cluster.TableII()
	w.NFailures = 0
	for i := 0; i < b.N; i++ {
		co, err := expt.RunSim(expt.SimParams{Workflow: w, Machine: cluster.Cori(), Scheme: ckpt.Coordinated})
		if err != nil {
			b.Fatal(err)
		}
		un, err := expt.RunSim(expt.SimParams{Workflow: w, Machine: cluster.Cori(), Scheme: ckpt.Uncoordinated})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric((float64(co.TotalTime)/float64(un.TotalTime)-1)*100, "stall_pct")
	}
}

// BenchmarkAblationReplayVsRework compares recovering a consumer via
// log replay against re-running the producer (what a system without
// staging logs would need): replay reads only the consumer-side data.
func BenchmarkAblationReplayVsRework(b *testing.B) {
	b.Run("replay-from-log", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := expt.SimParams{Workflow: cluster.TableII(), Machine: cluster.Cori(), Scheme: ckpt.Uncoordinated, Seed: 3}
			res, err := expt.RunSim(p)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.TotalTime.Seconds(), "total_s")
		}
	})
	b.Run("global-rework", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := expt.SimParams{Workflow: cluster.TableII(), Machine: cluster.Cori(), Scheme: ckpt.Coordinated, Seed: 3}
			res, err := expt.RunSim(p)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(res.TotalTime.Seconds(), "total_s")
		}
	})
}

// BenchmarkExtensionProactive compares plain uncoordinated C/R against
// proactive checkpointing (paper future work) on the same failure
// schedule.
func BenchmarkExtensionProactive(b *testing.B) {
	base := expt.SimParams{
		Workflow: cluster.TableII(),
		Machine:  cluster.Cori(),
		Scheme:   ckpt.Uncoordinated,
		// Mid-period failure so the proactive checkpoint has ground to win.
		Failures: failure.Fixed(failure.Injection{At: 225 * time.Second, Component: "sim"}),
	}
	for i := 0; i < b.N; i++ {
		plain, err := expt.RunSim(base)
		if err != nil {
			b.Fatal(err)
		}
		pro := base
		pro.Proactive = true
		pro.PredictRecall = 1
		proRes, err := expt.RunSim(pro)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric((1-float64(proRes.TotalTime)/float64(plain.TotalTime))*100, "saved_pct")
	}
}

// BenchmarkExtensionMultiLevel compares PFS-only checkpoints against
// two-level (node-local + PFS) checkpointing, failure-free.
func BenchmarkExtensionMultiLevel(b *testing.B) {
	w := cluster.TableII()
	w.NFailures = 0
	base := expt.SimParams{Workflow: w, Machine: cluster.Cori(), Scheme: ckpt.Uncoordinated}
	for i := 0; i < b.N; i++ {
		plain, err := expt.RunSim(base)
		if err != nil {
			b.Fatal(err)
		}
		ml := base
		ml.MultiLevel = true
		mlRes, err := expt.RunSim(ml)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(plain.CheckpointTime.Seconds(), "pfs_ckpt_s")
		b.ReportMetric(mlRes.CheckpointTime.Seconds(), "multilevel_ckpt_s")
	}
}
