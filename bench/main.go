// Command bench is the repository's end-to-end benchmark: logged against
// unlogged put/get through the production staging stack on loopback TCP,
// with a per-layer budget from a separate traced run. See README.md.
//
//	bash bench/run.sh --workload couple-large --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -all -seed 1 -out A.json
//	bash bench/run.sh -check A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	if len(os.Args) == 2 && os.Args[1] == spinChildFlag {
		spinChild()
	}
	var (
		workloadName = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		all          = flag.Bool("all", false, "run every workload, untraced then traced")
		seed         = flag.Int64("seed", 1, "seed of the generated inputs and the op stream")
		seconds      = flag.Float64("seconds", 0, "how long one run measures (default: run_seconds of BENCHMARK.json)")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
		out          = flag.String("out", "", "append the runs to this result file (JSON)")
		check        = flag.Bool("check", false, "compare two result files: -check BASE.json NEW.json")
	)
	flag.Parse()
	// usage reports an error that is the caller's or the environment's,
	// not a measurement's.
	usage := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}

	root, err := findRoot()
	if err != nil {
		return usage(err)
	}
	sp, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return usage(err)
	}
	if *check {
		if flag.NArg() != 2 {
			return usage(fmt.Errorf("-check takes two result files: BASE.json NEW.json"))
		}
		code, err := checkFiles(sp, flag.Arg(0), flag.Arg(1))
		if err != nil {
			return usage(err)
		}
		return code
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	// The span files go where run.sh keeps the build.
	work := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return usage(err)
	}

	type job struct {
		w     workload
		trace int
	}
	var jobs []job
	switch {
	case *all:
		for _, w := range workloads {
			jobs = append(jobs, job{w, 0}, job{w, 1})
		}
	default:
		w, ok := findWorkload(*workloadName)
		if !ok {
			return usage(fmt.Errorf("unknown workload %q (have %s)", *workloadName, strings.Join(workloadNames(), ", ")))
		}
		jobs = []job{{w, *trace}}
	}

	stop, err := keepAwake()
	if err != nil {
		return usage(err)
	}
	defer stop()

	env := environment(root, *seed, *seconds)
	env.print(os.Stdout)
	var last result
	for _, j := range jobs {
		spans := filepath.Join(work, "spans-"+j.w.name+".jsonl")
		res, err := measure(j.w, *seed, *seconds, j.trace == 1, spans)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", j.w.name, err)
			return 1
		}
		res.Env = env
		res.print(os.Stdout)
		if *out != "" {
			if err := appendResult(*out, res); err != nil {
				return usage(err)
			}
		}
		last = res
	}
	if !*all {
		// The contract's last line: one JSON object, nothing after it.
		fmt.Println(last.contractLine())
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// findRoot is the directory that holds BENCHMARK.json: the working
// directory (the driver runs from the checkout's root) or its parent
// (go run from bench/).
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in the working directory or its parent")
}

// result is one run of one workload.
type result struct {
	Env       env              `json:"env"`
	Workload  string           `json:"workload"`
	Trace     int              `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Cycles    int              `json:"cycles"`
	Digest    string           `json:"op_stream_digest"`
	Spans     string           `json:"spans,omitempty"`
	Metrics   map[string]value `json:"metrics"`
	// Info is the untraced run's absolute numbers: printed and kept, not
	// bounded (see endToEnd).
	Info map[string]value `json:"info,omitempty"`
}

// measure runs one workload once. Untraced, the metrics are the
// end-to-end ones. Traced, the metrics are the per-layer ones, from a
// segment run through the decorators for half of `seconds`, two short
// untraced references around it, and the probes.
func measure(w workload, seed int64, seconds float64, traced bool, spanFile string) (result, error) {
	res := result{Workload: w.name}
	if !traced {
		r, err := newRun(w, seed, nil)
		if err != nil {
			return res, err
		}
		if err := r.execute(seconds); err != nil {
			return res, err
		}
		res.fill(r)
		info := r.absoluteValues()
		if res.Info, err = withUnits(declared(perLayer, info), info); err != nil {
			return res, err
		}
		res.Metrics, err = withUnits(endToEnd, r.endToEndValues())
		return res, err
	}
	res.Trace = 1
	// Reference, traced, reference: the machine's drift over the run
	// lands on both sides of the overhead ratio.
	var refs [2]*run
	var r *run
	rec := newRecorder()
	for i, part := range []struct {
		rec     *recorder
		seconds float64
	}{{nil, seconds / 8}, {rec, seconds / 2}, {nil, seconds / 8}} {
		x, err := newRun(w, seed, part.rec)
		if err != nil {
			return res, err
		}
		if err := x.execute(part.seconds); err != nil {
			return res, err
		}
		if part.rec != nil {
			r = x
		} else {
			refs[i/2] = x
		}
	}
	ps, err := r.probeShape()
	if err != nil {
		return res, err
	}
	probe := map[string]float64{}
	st, err := startStack(w.global, 1, w.budget, nil)
	if err != nil {
		return res, err
	}
	err = probes(ps, st.tr, probe)
	st.close()
	if err != nil {
		return res, fmt.Errorf("probes: %w", err)
	}
	spans := rec.finished()
	b := analyze(spans)
	if got := ratio(float64(b.count["op:put.logged"]["call:PutReq"]), float64(b.ops["op:put.logged"])); r.s.failed == 0 && got != float64(w.rpcsPerPut) {
		return res, fmt.Errorf("%s: %.3f PutReq calls per logged put in the trace, want exactly %d", w.name, got, w.rpcsPerPut)
	}
	if err := writeSpans(spanFile, spans); err != nil {
		return res, err
	}
	res.Spans = spanFile
	res.fill(refs[0], r, refs[1])
	refMs := (refs[0].s.opMedianMs() + refs[1].s.opMedianMs()) / 2
	res.Metrics, err = withUnits(perLayer, perLayerValues(refMs, r, b, probe))
	return res, err
}

// fill copies the runs' verdicts: attempted and failed over every run
// made, cycles and digest of the measured one (the first, or the traced).
func (res *result) fill(runs ...*run) {
	for i, r := range runs {
		res.Attempted += r.s.attempted
		res.Failed += r.s.failed
		if i == 0 || r.rec != nil {
			res.Cycles = r.s.cycles
			res.Digest = fmt.Sprintf("%016x", r.digest)
		}
	}
	res.Correct = true // a corrupt read or a broken count ends the run with an error instead
}

func (res result) print(w *os.File) {
	mode := "end-to-end, tracing off"
	if res.Trace == 1 {
		mode = "per-layer, traced"
	}
	fmt.Fprintf(w, "\n== %s (%s): %d cycles, %d ops attempted, %d failed, failed_frac %.6f, op stream %s\n",
		res.Workload, mode, res.Cycles, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)), res.Digest)
	defs := endToEnd
	if res.Trace == 1 {
		defs = perLayer
	}
	for _, d := range defs {
		v := res.Metrics[d.Name]
		n := ""
		if v.N > 0 {
			n = fmt.Sprintf("n=%d", v.N)
		}
		fmt.Fprintf(w, "%-38s %14.4f %-7s %s\n", d.Name, v.Value, v.Unit, n)
	}
	for _, d := range declared(perLayer, res.Info) {
		v := res.Info[d.Name]
		fmt.Fprintf(w, "  (not bounded) %-22s %14.4f %-7s n=%d\n", d.Name, v.Value, v.Unit, v.N)
	}
	if res.Spans != "" {
		fmt.Fprintf(w, "spans written to %s\n", res.Spans)
	}
}

// contractLine is the driver's result line: exactly correct, attempted,
// failed and metrics, each metric exactly value and unit.
func (res result) contractLine() string {
	type vu struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := make(map[string]vu, len(res.Metrics))
	for name, v := range res.Metrics {
		m[name] = vu{v.Value, v.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]vu `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, m})
	return string(line)
}

// resultFile is a set of runs; -out appends to it so that two
// invocations of the same code make one set.
type resultFile struct {
	Runs []result `json:"runs"`
}

func readResults(path string) (resultFile, error) {
	var f resultFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

func appendResult(path string, res result) error {
	f, err := readResults(path)
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	f.Runs = append(f.Runs, res)
	raw, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
