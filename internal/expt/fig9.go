package expt

import (
	"bytes"
	"fmt"
	"time"

	"gospaces/internal/ckpt"
	"gospaces/internal/cluster"
	"gospaces/internal/domain"
	"gospaces/internal/staging"
	"gospaces/internal/synth"
	"gospaces/internal/transport"
)

// LiveParams sizes the live-staging measurements of Figures 9(a)–(d).
// The defaults are a laptop-scale rendition of Table II: the same
// write-immediately-followed-by-read pattern and checkpoint periods,
// over a smaller domain.
type LiveParams struct {
	Global             domain.BBox
	ElemSize           int
	Steps              int64
	NServers, Bits     int
	SimRanks, AnaRanks int
	SimPeriod          int
	AnaPeriod          int
}

// DefaultLiveParams returns the scaled-down Table II setup.
func DefaultLiveParams() LiveParams {
	return LiveParams{
		Global:    domain.Box3(0, 0, 0, 127, 127, 63),
		ElemSize:  8,
		Steps:     20,
		NServers:  4,
		Bits:      2,
		SimRanks:  4,
		AnaRanks:  2,
		SimPeriod: 4,
		AnaPeriod: 5,
	}
}

// LiveRow is one measurement of a live staging run pair
// (original vs data-logging).
type LiveRow struct {
	Label string
	// Cumulative client-observed write response time.
	DsWrite, LogWrite time.Duration
	// WriteOverheadPct is (LogWrite/DsWrite - 1) * 100 — the number on
	// top of the Figure 9(a)/(b) bars (paper: +10..15%).
	WriteOverheadPct float64
	// Time-averaged staging memory (object payloads + event records).
	DsMem, LogMem int64
	// MemOverheadPct is (LogMem/DsMem - 1) * 100 — Figure 9(c)/(d)
	// (paper: +76..97%).
	MemOverheadPct float64
}

// fills memoizes synth.Field.Fill by (version, box). A figure's runs
// regenerate the same blocks in every rep and both arms, and checking
// a get with synth.Field.Verify regenerates the block read; Fill is
// deterministic, so a block made once is the block every time. Fill
// sits outside the measured write time, so this changes no measured
// number, only how long a run takes. It holds every block its runs
// touch, two subsets' worth of bytes per step, up to fillsBudget bytes;
// a block past that is made afresh each time.
type fills struct {
	field  *synth.Field
	blocks map[fillKey][]byte
	bytes  int
}

// fillsBudget bounds a memo: the unit tests' full-domain 10 steps
// (160 MiB) fit whole, and wfbench's longer runs keep their first steps.
const fillsBudget = 256 << 20

type fillKey struct {
	version int64
	box     domain.BBox
}

func newFills(p LiveParams) *fills {
	return &fills{field: synth.NewField("field", p.Global, p.ElemSize), blocks: map[fillKey][]byte{}}
}

// Fill returns the field's block; callers must not modify it.
func (f *fills) Fill(version int64, box domain.BBox) []byte {
	k := fillKey{version, box}
	b, ok := f.blocks[k]
	if !ok {
		b = f.field.Fill(version, box)
		if f.bytes+len(b) <= fillsBudget {
			f.blocks[k] = b
			f.bytes += len(b)
		}
	}
	return b
}

// liveRun drives producer/consumer rank clients through the coupling
// pattern on live in-process staging servers and returns the cumulative
// write response time and the time-averaged staging memory. The field
// is p's, its blocks made through field.
func liveRun(p LiveParams, subsetFrac float64, logged bool, field *fills) (time.Duration, int64, error) {
	sub := domain.Subset(p.Global, subsetFrac)
	group, err := staging.StartGroup(transport.NewInProc(), "fig9", staging.Config{
		Global:   p.Global,
		NServers: p.NServers,
		Bits:     p.Bits,
		ElemSize: p.ElemSize,
	})
	if err != nil {
		return 0, 0, err
	}
	defer group.Close()

	simDec, err := domain.NewDecomposition(sub, []int{p.SimRanks, 1, 1})
	if err != nil {
		return 0, 0, err
	}
	anaDec, err := domain.NewDecomposition(sub, []int{p.AnaRanks, 1, 1})
	if err != nil {
		return 0, 0, err
	}
	producers := make([]*staging.Client, p.SimRanks)
	for i := range producers {
		if producers[i], err = group.NewClient(fmt.Sprintf("sim/%d", i)); err != nil {
			return 0, 0, err
		}
		defer producers[i].Close()
	}
	consumers := make([]*staging.Client, p.AnaRanks)
	for i := range consumers {
		if consumers[i], err = group.NewClient(fmt.Sprintf("ana/%d", i)); err != nil {
			return 0, 0, err
		}
		defer consumers[i].Close()
	}

	var memSum int64
	var memSamples int64
	for ts := int64(1); ts <= p.Steps; ts++ {
		for i, c := range producers {
			box, err := simDec.RankBox(i)
			if err != nil {
				return 0, 0, err
			}
			data := field.Fill(ts, box)
			if logged {
				err = c.PutWithLog("field", ts, box, data)
			} else {
				err = c.Put("field", ts, box, data)
			}
			if err != nil {
				return 0, 0, err
			}
		}
		for i, c := range consumers {
			box, err := anaDec.RankBox(i)
			if err != nil {
				return 0, 0, err
			}
			var got []byte
			if logged {
				got, _, err = c.GetWithLog("field", ts, box)
			} else {
				got, _, err = c.Get("field", ts, box)
			}
			if err != nil {
				return 0, 0, err
			}
			if !bytes.Equal(field.Fill(ts, box), got) { // synth.Field.Verify, against the memo
				return 0, 0, fmt.Errorf("expt: fig9 data corruption at ts %d", ts)
			}
		}
		if logged {
			if ts%int64(p.SimPeriod) == 0 {
				for _, c := range producers {
					if _, err := c.WorkflowCheck(); err != nil {
						return 0, 0, err
					}
				}
			}
			if ts%int64(p.AnaPeriod) == 0 {
				for _, c := range consumers {
					if _, err := c.WorkflowCheck(); err != nil {
						return 0, 0, err
					}
				}
			}
		}
		st, err := producers[0].Stats()
		if err != nil {
			return 0, 0, err
		}
		memSum += st.StoreBytes + st.LogMetaBytes
		memSamples++
	}
	var write time.Duration
	for _, c := range producers {
		write += c.CumulativeWriteTime()
	}
	return write, memSum / memSamples, nil
}

// medianRun repeats liveRun and takes the median write time (wall-time
// noise at millisecond scales otherwise dominates the overhead ratio)
// and the mean memory.
func medianRun(p LiveParams, frac float64, logged bool, reps int, field *fills) (time.Duration, int64, error) {
	if reps < 1 {
		reps = 1
	}
	writes := make([]time.Duration, 0, reps)
	var mem int64
	for i := 0; i < reps; i++ {
		w, m, err := liveRun(p, frac, logged, field)
		if err != nil {
			return 0, 0, err
		}
		writes = append(writes, w)
		mem += m
	}
	for i := 1; i < len(writes); i++ {
		for j := i; j > 0 && writes[j] < writes[j-1]; j-- {
			writes[j], writes[j-1] = writes[j-1], writes[j]
		}
	}
	return writes[len(writes)/2], mem / int64(reps), nil
}

// Reps is the repetition count for the live measurements.
var Reps = 5

// Fig9Case1 runs Case 1 — exchanging 20..100% subsets of the domain —
// and returns one row per subset fraction, with write response time
// (Fig 9a) and staging memory (Fig 9c) for original vs logged staging.
func Fig9Case1(p LiveParams) ([]LiveRow, error) {
	fracs := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	rows := make([]LiveRow, 0, len(fracs))
	for _, f := range fracs {
		field := newFills(p) // a subset's blocks serve only its own runs
		ds, dsMem, err := medianRun(p, f, false, Reps, field)
		if err != nil {
			return nil, err
		}
		lg, lgMem, err := medianRun(p, f, true, Reps, field)
		if err != nil {
			return nil, err
		}
		rows = append(rows, LiveRow{
			Label:            fmt.Sprintf("%d%% subset", int(f*100)),
			DsWrite:          ds,
			LogWrite:         lg,
			WriteOverheadPct: pct(lg, ds),
			DsMem:            dsMem,
			LogMem:           lgMem,
			MemOverheadPct:   pctI(lgMem, dsMem),
		})
	}
	return rows, nil
}

// Fig9Case2 runs Case 2 — the full domain with checkpoint periods 2..6
// — and returns one row per period (Fig 9b write time, Fig 9d memory).
func Fig9Case2(p LiveParams) ([]LiveRow, error) {
	rows := make([]LiveRow, 0, 5)
	field := newFills(p) // every period exchanges the same blocks
	for period := 2; period <= 6; period++ {
		q := p
		q.SimPeriod = period
		q.AnaPeriod = period + 1
		ds, dsMem, err := medianRun(q, 1.0, false, Reps, field)
		if err != nil {
			return nil, err
		}
		lg, lgMem, err := medianRun(q, 1.0, true, Reps, field)
		if err != nil {
			return nil, err
		}
		rows = append(rows, LiveRow{
			Label:            fmt.Sprintf("%dts period", period),
			DsWrite:          ds,
			LogWrite:         lg,
			WriteOverheadPct: pct(lg, ds),
			DsMem:            dsMem,
			LogMem:           lgMem,
			MemOverheadPct:   pctI(lgMem, dsMem),
		})
	}
	return rows, nil
}

func pct(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return (float64(a)/float64(b) - 1) * 100
}

func pctI(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return (float64(a)/float64(b) - 1) * 100
}

// Fig9eRow is one scheme's total workflow execution time at Table II
// scale with one injected failure, averaged over seeds.
type Fig9eRow struct {
	Scheme       string
	MeanTotal    time.Duration
	VsCoordPct   float64 // improvement relative to coordinated
	MeanRollback float64
}

// Fig9e reproduces Figure 9(e): total workflow execution time of the
// four schemes (plus the failure-free original-staging baseline) at
// Table II scale with one failure, averaged over seeds.
func Fig9e(seeds []int64) ([]Fig9eRow, error) {
	w := cluster.TableII()
	mach := cluster.Cori()

	// Failure-free baseline with original staging ("Ds" bar).
	base := w
	base.NFailures = 0
	dsRes, err := RunSim(SimParams{Workflow: base, Machine: mach, Scheme: ckpt.Individual})
	if err != nil {
		return nil, err
	}

	schemes := []ckpt.Scheme{ckpt.Coordinated, ckpt.Uncoordinated, ckpt.Hybrid, ckpt.Individual}
	means := make(map[ckpt.Scheme]time.Duration)
	rollbacks := make(map[ckpt.Scheme]float64)
	for _, s := range schemes {
		var sum time.Duration
		var rb int
		for _, seed := range seeds {
			res, err := RunSim(SimParams{Workflow: w, Machine: mach, Scheme: s, Seed: seed})
			if err != nil {
				return nil, err
			}
			sum += res.TotalTime
			rb += res.Rollbacks
		}
		means[s] = sum / time.Duration(len(seeds))
		rollbacks[s] = float64(rb) / float64(len(seeds))
	}
	co := means[ckpt.Coordinated]
	rows := []Fig9eRow{{Scheme: "Ds (failure-free)", MeanTotal: dsRes.TotalTime}}
	for _, s := range schemes {
		rows = append(rows, Fig9eRow{
			Scheme:       s.String() + " +1f",
			MeanTotal:    means[s],
			VsCoordPct:   (1 - float64(means[s])/float64(co)) * 100,
			MeanRollback: rollbacks[s],
		})
	}
	return rows, nil
}

// Fig9eCase2 sweeps the coordinated/uncoordinated comparison over
// checkpoint periods 2..6 ts (the Case 2 series of Figure 9(e)).
func Fig9eCase2(seeds []int64) ([]LiveRowF, error) {
	var rows []LiveRowF
	for period := 2; period <= 6; period++ {
		w := cluster.TableII()
		w.CoordPeriod = period
		w.SimPeriod = period
		w.AnaPeriod = period + 1
		mach := cluster.Cori()
		var coSum, unSum time.Duration
		for _, seed := range seeds {
			co, err := RunSim(SimParams{Workflow: w, Machine: mach, Scheme: ckpt.Coordinated, Seed: seed})
			if err != nil {
				return nil, err
			}
			un, err := RunSim(SimParams{Workflow: w, Machine: mach, Scheme: ckpt.Uncoordinated, Seed: seed})
			if err != nil {
				return nil, err
			}
			coSum += co.TotalTime
			unSum += un.TotalTime
		}
		rows = append(rows, LiveRowF{
			Label:          fmt.Sprintf("%dts period", period),
			Coordinated:    coSum / time.Duration(len(seeds)),
			Uncoordinated:  unSum / time.Duration(len(seeds)),
			ImprovementPct: (1 - float64(unSum)/float64(coSum)) * 100,
		})
	}
	return rows, nil
}

// LiveRowF is a generic labelled coordinated-vs-uncoordinated pair.
type LiveRowF struct {
	Label          string
	Coordinated    time.Duration
	Uncoordinated  time.Duration
	ImprovementPct float64
}
