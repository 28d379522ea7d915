// Command wfbench regenerates the tables and figures of the paper's
// evaluation (Duan & Parashar, IPDPS 2020, §IV).
//
// Usage:
//
//	wfbench -exp table1|table2|table3|motivation|fig9a|fig9b|fig9c|fig9d|fig9e|fig10|sweep|all
//	        [-seeds n] [-steps n] [-reps n]
//
// Figures 9(a)–(d) and the Fig. 2 motivation measure the live staging
// service in this process; Figure 9(e), Figure 10 and the MTBF sweep
// run the crash-consistency protocol on the virtual-time simulator at
// the paper's Cori scales. Two experiments go beyond the paper: -exp
// nemesis (MTTR with the recovery leader killed mid-promotion) and
// -exp soak (the record/replay churn soak make soak-smoke runs).
// Performance of the staging service itself is bench/'s job.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"gospaces"
	"gospaces/internal/cluster"
	"gospaces/internal/domain"
	"gospaces/internal/expt"
	"gospaces/internal/health"
	"gospaces/internal/recovery"
	"gospaces/internal/staging"
	"gospaces/internal/transport"
)

// expUsage is the -exp flag's help text: every experiment by name.
const expUsage = "experiment to run: table1, table2, table3, fig9a, fig9b, fig9c, fig9d, fig9e, fig10, sweep, motivation, nemesis, soak, all"

// allExps is what -exp all runs, in order (fig9c/fig9d print with
// fig9a/fig9b; the soak is make soak-smoke's).
var allExps = []string{"table1", "table2", "table3", "motivation", "nemesis", "fig9a", "fig9b", "fig9e", "fig10", "sweep"}

// params carries the flags into the experiments.
type params struct {
	out   io.Writer
	live  expt.LiveParams
	seeds []int64
	// soak holds the -soak-* flags (soakExp sets its Seed per seed); a
	// failing seed's trace is persisted under traceDir.
	soak     gospaces.SoakOptions
	traceDir string
}

func main() {
	p := params{out: os.Stdout, live: expt.DefaultLiveParams()}
	exp := flag.String("exp", "all", expUsage)
	seeds := flag.Int("seeds", 5, "number of failure-schedule seeds for the simulated experiments")
	flag.Int64Var(&p.live.Steps, "steps", 20, "coupling cycles for the live staging measurements")
	flag.IntVar(&expt.Reps, "reps", 5, "repetitions (median) for the live staging measurements")
	flag.IntVar(&p.soak.Groups, "soak-groups", 2, "producer/consumer pairs per churn soak")
	flag.IntVar(&p.soak.Steps, "soak-steps", 5, "logged versions per producer in a churn soak")
	flag.IntVar(&p.soak.Faults, "soak-faults", 6, "injected faults per churn soak (0 = clean)")
	flag.BoolVar(&p.soak.Tier, "soak-tier", true, "give soak servers a cold tier and storage faults")
	flag.BoolVar(&p.soak.Overload, "soak-overload", true, "enable admission control and flood bursts in soaks")
	flag.StringVar(&p.traceDir, "trace-dir", ".", "directory for failing soak runs' persisted traces")
	flag.Parse()
	for i := 1; i <= *seeds; i++ {
		p.seeds = append(p.seeds, int64(i))
	}

	names := []string{*exp}
	if *exp == "all" {
		names = allExps
	}
	for _, n := range names {
		if err := run(n, p); err != nil {
			fmt.Fprintf(os.Stderr, "wfbench: %s: %v\n", n, err)
			os.Exit(1)
		}
	}
}

// experiments maps every -exp name to what runs it.
var experiments = map[string]func(params) error{
	"table1": table1, "table2": table2, "table3": table3,
	"fig9a": fig9Case1, "fig9c": fig9Case1,
	"fig9b": fig9Case2, "fig9d": fig9Case2,
	"fig9e": fig9e, "fig10": fig10, "sweep": sweep,
	"motivation": motivation, "nemesis": nemesisExp, "soak": soakExp,
}

// run dispatches one experiment by name.
func run(name string, p params) error {
	f, ok := experiments[name]
	if !ok {
		return fmt.Errorf("unknown experiment %q", name)
	}
	return f(p)
}

func fig9Case1(p params) error {
	rows, err := expt.Fig9Case1(p.live)
	if err != nil {
		return err
	}
	expt.WriteCase1(p.out, rows)
	return nil
}

func fig9Case2(p params) error {
	rows, err := expt.Fig9Case2(p.live)
	if err != nil {
		return err
	}
	expt.WriteCase2(p.out, rows)
	return nil
}

func fig9e(p params) error {
	rows, err := expt.Fig9e(p.seeds)
	if err != nil {
		return err
	}
	case2, err := expt.Fig9eCase2(p.seeds)
	if err != nil {
		return err
	}
	expt.WriteFig9e(p.out, rows, case2)
	return nil
}

func fig10(p params) error {
	rows, err := expt.Fig10(p.seeds)
	if err != nil {
		return err
	}
	expt.WriteFig10(p.out, rows)
	return nil
}

func sweep(p params) error {
	rows, err := expt.MTBFSweep(p.seeds)
	if err != nil {
		return err
	}
	expt.WriteSweep(p.out, rows)
	return nil
}

// motivation runs the paper's Figure 2 scenario live — one consumer
// failure under each scheme — and prints whether the results stayed
// correct. This is the paper's core claim demonstrated on real staging
// servers with byte-level verification.
func motivation(p params) error {
	t := &expt.Table{
		Title:   "Fig 2 motivation (live): one analytic failure under each scheme",
		Headers: []string{"scheme", "recoveries", "replayed", "suppressed", "corrupt reads", "verdict"},
	}
	for _, scheme := range []gospaces.Scheme{
		gospaces.Coordinated, gospaces.Uncoordinated, gospaces.Individual, gospaces.Hybrid,
	} {
		res, err := gospaces.RunWorkflow(gospaces.WorkflowOptions{
			Scheme:      scheme,
			Steps:       12,
			Global:      gospaces.Box3(0, 0, 0, 63, 63, 31),
			SimRanks:    4,
			AnaRanks:    2,
			NServers:    2,
			SimPeriod:   4,
			AnaPeriod:   5,
			CoordPeriod: 4,
			Failures: []gospaces.FailAt{
				{Component: "ana", Rank: 0, TS: 8},
				{Component: "sim", Rank: 1, TS: 10},
			},
			Spares: 4,
		})
		if err != nil {
			return err
		}
		verdict := "CONSISTENT"
		if res.CorruptReads > 0 {
			verdict = "CORRUPTED (the paper's motivation)"
		}
		t.Add(scheme.String(), res.Recoveries, res.ReplayedEvents, res.SuppressedPuts, res.CorruptReads, verdict)
	}
	t.Write(p.out)
	return nil
}

// nemesisExp measures live MTTR for a staging-server fail-stop under
// three redundant supervisors, clean versus with the recovery leader
// killed mid-promotion: the killed-leader case pays roughly one lease
// TTL for the standby takeover, and the journaled intent lets the
// successor finish the same promotion (one spare, one epoch bump).
func nemesisExp(p params) error {
	t := &expt.Table{
		Title:   "Supervisor HA (live): MTTR for a server fail-stop, 3 redundant supervisors",
		Headers: []string{"scenario", "median MTTR", "promotions", "takeovers", "verdict"},
	}
	for _, sc := range []struct {
		name string
		kill bool
	}{
		{"clean recovery (leader survives)", false},
		{"leader killed mid-promotion", true},
	} {
		mttrs := make([]time.Duration, 0, expt.Reps)
		var promotions, takeovers int64
		for rep := 0; rep < expt.Reps; rep++ {
			d, p, tk, err := nemesisMTTR(sc.kill)
			if err != nil {
				return err
			}
			mttrs = append(mttrs, d)
			promotions += p
			takeovers += tk
		}
		sort.Slice(mttrs, func(i, j int) bool { return mttrs[i] < mttrs[j] })
		verdict := "CONSISTENT"
		if promotions != int64(expt.Reps) {
			verdict = fmt.Sprintf("BAD: %d promotions over %d runs", promotions, expt.Reps)
		}
		if sc.kill && takeovers == 0 {
			verdict = "BAD: leader killed but no takeover"
		}
		t.Add(sc.name, mttrs[len(mttrs)/2].Round(time.Millisecond), promotions, takeovers, verdict)
	}
	t.Write(p.out)
	return nil
}

// nemesisMTTR runs one fail-stop and reports the time from the kill to
// every slot alive again, plus promotion/takeover counts summed over
// the redundant supervisors.
func nemesisMTTR(kill bool) (time.Duration, int64, int64, error) {
	tr := transport.NewInProc()
	g, err := staging.StartGroup(tr, "stage", staging.Config{
		Global:       domain.Box3(0, 0, 0, 63, 63, 0),
		NServers:     4,
		Bits:         2,
		ElemSize:     1,
		WlogReplicas: 1,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	defer g.Close()
	if _, err := g.AddSpare(); err != nil {
		return 0, 0, 0, err
	}

	// Logged traffic so the promotion restores a real replica.
	prod, err := g.NewClient("sim/0")
	if err != nil {
		return 0, 0, 0, err
	}
	defer prod.Close()
	buf := make([]byte, 64*64)
	for i := range buf {
		buf[i] = byte(i * 7)
	}
	if err := prod.PutWithLog("field", 1, domain.Box3(0, 0, 0, 63, 63, 0), buf); err != nil {
		return 0, 0, 0, err
	}

	const nSups = 3
	sups := make([]*recovery.Supervisor, nSups)
	var killMu sync.Mutex
	killArmed := kill
	for i := 0; i < nSups; i++ {
		i := i
		id := fmt.Sprintf("wfbench/sup/%d", i)
		det := health.NewDetector(tr, id, health.Config{
			Period:       5 * time.Millisecond,
			Timeout:      25 * time.Millisecond,
			SuspectAfter: 2,
			DeadAfter:    4,
		})
		cfg := recovery.Config{ID: id, LeaseTTL: 150 * time.Millisecond}
		// Kill at "intent": the promotion is journaled but nothing is
		// mutated yet, so the dead slot stays dark until a standby wins
		// the lease and resumes — the worst-case MTTR path.
		cfg.PromotionHook = func(stage string, slot int) {
			if stage != "intent" || i == nSups-1 {
				return
			}
			killMu.Lock()
			armed := killArmed
			killArmed = false
			killMu.Unlock()
			if armed {
				sups[i].Kill()
			}
		}
		sups[i] = recovery.New(tr, det, g.Membership(), g, cfg)
		sups[i].Start()
		defer sups[i].Close()
	}

	start := time.Now()
	if err := g.FailStop(1); err != nil {
		return 0, 0, 0, err
	}
	// The last supervisor is never killed; its view converges once the
	// promotion (original or resumed) lands.
	if err := sups[nSups-1].WaitIdle(20 * time.Second); err != nil {
		return 0, 0, 0, err
	}
	mttr := time.Since(start)
	var promotions, takeovers int64
	for _, s := range sups {
		promotions += s.Metrics().Counter("recovery.promotions").Value()
		takeovers += s.Metrics().Counter("recovery.takeovers").Value()
	}
	return mttr, promotions, takeovers, nil
}

// table1 prints the user interface of Table I.
func table1(p params) error {
	t := &expt.Table{
		Title:   "Table I: user interface for checkpoint/restart in workflows",
		Headers: []string{"paper API", "gospaces API", "purpose"},
	}
	t.Add("workflow_check()", "Client.WorkflowCheck", "send a checkpoint event to data staging")
	t.Add("workflow_restart()", "Client.WorkflowRestart", "recover the staging client and notify the recovery event")
	t.Add("dspaces_put_with_log()", "Client.PutWithLog", "log data to data staging")
	t.Add("dspaces_get_with_log()", "Client.GetWithLog", "retrieve the logged data specified by geometric descriptor")
	t.Write(p.out)
	return nil
}

func table2(p params) error {
	w := cluster.TableII()
	t := &expt.Table{
		Title:   "Table II: experimental setup for synthetic test cases",
		Headers: []string{"parameter", "value"},
	}
	t.Add("total cores", fmt.Sprintf("%d + %d + %d = %d", w.SimCores, w.AnalyticCores, w.StagingCores, w.TotalCores()))
	t.Add("simulation cores", w.SimCores)
	t.Add("staging cores", w.StagingCores)
	t.Add("analytic cores", w.AnalyticCores)
	t.Add("volume size", fmt.Sprintf("%dx%dx%d", w.Global.Extent(0), w.Global.Extent(1), w.Global.Extent(2)))
	t.Add("data size (40 ts)", expt.MiB(w.BytesPerStep()*int64(w.Steps)))
	t.Add("access pattern", "write immediately followed by read")
	t.Add("coordinated ckpt period (ts)", w.CoordPeriod)
	t.Add("simulation ckpt period (ts)", w.SimPeriod)
	t.Add("analytic ckpt period (ts)", w.AnaPeriod)
	t.Add("MTBF", w.MTBF)
	t.Write(p.out)
	return nil
}

func table3(p params) error {
	t := &expt.Table{
		Title:   "Table III: scalability test configurations",
		Headers: []string{"scale", "total", "sim", "staging", "analytic", "data/40ts", "periods", "MTBF", "failures"},
	}
	for _, w := range cluster.TableIII() {
		t.Add(w.Name, w.TotalCores(), w.SimCores, w.StagingCores, w.AnalyticCores,
			expt.MiB(w.BytesPerStep()*int64(w.Steps)),
			fmt.Sprintf("%d/%d/%d", w.CoordPeriod, w.SimPeriod, w.AnaPeriod),
			w.MTBF, w.NFailures)
	}
	t.Write(p.out)
	return nil
}
