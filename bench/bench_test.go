package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"gospaces/internal/pfs"
	"gospaces/internal/transport"
)

// quick makes a run cheap enough for a test: one set-up, short probes.
func quick(t *testing.T) {
	gen, start, budget := genReps, startReps, probeBudget
	genReps, startReps, probeBudget = 1, 1, 2*time.Millisecond
	t.Cleanup(func() { genReps, startReps, probeBudget = gen, start, budget })
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90},
		{100, 90}, {99, 75}, {40, 75}, {39, 50}, {0, 50},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		// The rule itself: at least ten samples beyond the chosen
		// percentile, and fewer than ten beyond the next one up.
		if p := tailPercentile(c.n); p != 50 && float64(c.n)*(100-p)/100 < 10-1e-9 {
			t.Errorf("n=%d: p%v has fewer than ten samples beyond it", c.n, p)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, p := tail(xs); p != 99 || v != 990 {
		t.Errorf("tail of 1..1000 = %v at p%v, want 990 at p99", v, p)
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
	if got := ratio(1, 0); got != 0 {
		t.Errorf("ratio with zero base = %v", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	// One operation: a root, three children of which two overlap, and a
	// grandchild. Children run on other goroutines, so nesting is by
	// containment alone.
	spans := []span{
		{ID: 0, Parent: -1, Op: 1, Name: "op:put.logged", Start: 0, End: 100},
		{ID: 1, Parent: -1, Op: 1, Name: "call:PutReq", Start: 10, End: 30},
		{ID: 2, Parent: -1, Op: 1, Name: "call:PutReq", Start: 20, End: 50},
		{ID: 3, Parent: -1, Op: 1, Name: "call:PutReq", Start: 60, End: 70},
		{ID: 4, Parent: -1, Op: 1, Name: "handle:PutReq", Start: 62, End: 68},
		{ID: 5, Parent: -1, Op: 0, Name: "call:PingReq", Start: 5, End: 6}, // between operations
	}
	link(spans)
	wantParent := []int{-1, 0, 0, 0, 3, -1}
	for i, s := range spans {
		if s.Parent != wantParent[i] {
			t.Errorf("span %d: parent %d, want %d", i, s.Parent, wantParent[i])
		}
	}
	self := selfTimes(spans)
	// Root: 100 minus the union [10,50] + [60,70] = 50; the overlap
	// [20,30] is counted once.
	for id, want := range map[int]int64{0: 50, 1: 20, 2: 30, 3: 4, 4: 6} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	b := analyze(spans)
	if b.ops["op:put.logged"] != 1 || b.count["op:put.logged"]["call:PutReq"] != 3 {
		t.Errorf("breakdown counts: %+v %+v", b.ops, b.count)
	}
	// Overlapping children make the self times add up to more than the
	// operation took; that excess is what unattributed reports.
	if got := b.unattributed(); got != 0.1 {
		t.Errorf("unattributed = %v, want 0.1", got)
	}
}

func TestRecorderReset(t *testing.T) {
	r := newRecorder()
	open := r.begin("call:PutReq")
	r.reset()
	r.end(open) // a span in flight across the reset must not panic or count
	op := r.beginOp("op:check")
	r.endOp(op)
	got := r.finished()
	if len(got) != 1 || got[0].Name != "op:check" || got[0].Op == 0 {
		t.Errorf("after reset: %+v", got)
	}
}

func TestSeedDeterminism(t *testing.T) {
	quick(t)
	w, _ := findWorkload("couple-small")
	w.warm = 0
	digest := func(seed int64) uint64 {
		r, err := newRun(w, seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Zero seconds: exactly one measured cycle, so the op stream's
		// length does not depend on the machine's speed.
		if err := r.execute(0); err != nil {
			t.Fatal(err)
		}
		return r.digest
	}
	a, b, c := digest(7), digest(7), digest(8)
	if a != b {
		t.Errorf("same seed, different op streams: %016x and %016x", a, b)
	}
	if a == c {
		t.Errorf("seeds 7 and 8 gave the same op stream %016x", a)
	}
}

func TestTransportDecoratorPassesThrough(t *testing.T) {
	rec := newRecorder()
	inner := transport.NewTCP()
	tr := &tracedTransport{inner: inner, rec: rec}
	boom := errors.New("boom")
	closer, err := tr.Listen("127.0.0.1:0", func(req any) (any, error) {
		if req == "fail" {
			return nil, boom
		}
		return req, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()
	// The staging group asks the closer for its bound address.
	ep, ok := closer.(*transport.TCPEndpoint)
	if !ok || ep.Addr() == "" || ep.Addr() == "127.0.0.1:0" {
		t.Fatalf("Listen returned %T, want the inner *transport.TCPEndpoint with its bound address", closer)
	}
	cl, err := tr.Dial(ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if resp, err := cl.Call("hello"); err != nil || resp != "hello" {
		t.Errorf("Call = %v, %v; want the handler's echo", resp, err)
	}
	_, err = cl.Call("fail")
	var remote *transport.RemoteError
	if !errors.As(err, &remote) || remote.Msg != "boom" {
		t.Errorf("handler error came back as %v, want the transport's RemoteError(boom) untouched", err)
	}
	if _, err := tr.Dial("127.0.0.1:1"); !errors.Is(err, transport.ErrNoEndpoint) {
		t.Errorf("dial of a dead port = %v, want ErrNoEndpoint untouched", err)
	}
	names := map[string]int{}
	for _, s := range rec.finished() {
		names[s.Name]++
	}
	if names["call:string"] != 2 || names["handle:string"] != 2 {
		t.Errorf("spans recorded: %v", names)
	}
}

func TestBackendDecoratorPassesThrough(t *testing.T) {
	rec := newRecorder()
	plain, traced := pfs.NewStore(), &tracedBackend{inner: pfs.NewStore(), rec: rec}
	for _, be := range []interface {
		Write(string, []byte) error
		Read(string) ([]byte, bool)
		Rename(string, string) error
		List(string) []string
		Delete(string)
	}{plain, traced} {
		if err := be.Write("a/x", []byte("one")); err != nil {
			t.Fatal(err)
		}
		if err := be.Rename("a/x", "a/y"); err != nil {
			t.Fatal(err)
		}
		be.Write("a/z", []byte("two"))
		be.Delete("a/z")
	}
	if got, want := traced.List("a/"), plain.List("a/"); !reflect.DeepEqual(got, want) {
		t.Errorf("List = %v, want %v", got, want)
	}
	got, ok := traced.Read("a/y")
	want, _ := plain.Read("a/y")
	if !ok || string(got) != string(want) {
		t.Errorf("Read = %q, %v; want %q", got, ok, want)
	}
	if _, ok := traced.Read("a/x"); ok {
		t.Error("renamed object still readable under its old name")
	}
	if err := traced.Rename("missing", "b"); (err == nil) != (plain.Rename("missing", "b") == nil) {
		t.Errorf("Rename of a missing object: decorated error %v differs from the plain store's", err)
	}
}

// TestSpecMatchesProgram fails when BENCHMARK.json and the lists the
// program emits from differ, or a name breaks the contract's pattern.
func TestSpecMatchesProgram(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sp.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", sp.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(sp.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", sp.PerLayer, perLayer)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(sp.Workloads), len(workloads))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name || sp.Workloads[i].Why != w.why {
			t.Errorf("workload %d: json %+v, code %q %q", i, sp.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
		name(w.name)
	}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q breaks %v", d.Name, d.Unit, unitRE)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", sp.RunSeconds)
	}
	if runs := 4 + 22*len(workloads); float64(runs)*float64(sp.RunSeconds+8) > 3420 {
		t.Errorf("%d runs of %d s plus set-up do not fit the driver's 3420 s", runs, sp.RunSeconds)
	}
}

// TestSmoke runs every workload untraced and traced for the shortest
// possible time. measure fails on a corrupt read, a broken exact count,
// or a metric that is declared but not measured (and the reverse), so
// bit-rot anywhere in the evidence generator fails here.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real staging groups over loopback TCP")
	}
	quick(t)
	dir := t.TempDir()
	for _, w := range workloads {
		// The shortest cycle that still has a checkpoint of either
		// component, a spill, a replayed get and a re-issued put.
		w.warm, w.steps = 0, 3
		if w.simCheck > 0 {
			w.simCheck, w.anaCheck = 2, 2
		}
		for _, traced := range []bool{false, true} {
			res, err := measure(w, 3, 0, traced, dir+"/spans-"+w.name+".jsonl")
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			if !traced {
				for name, v := range res.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, name, v.Value)
					}
				}
				continue
			}
			if got := res.Metrics["client.rpcs_per_put"].Value; got != float64(w.rpcsPerPut) {
				t.Errorf("%s: client.rpcs_per_put = %v, want %d", w.name, got, w.rpcsPerPut)
			}
			if got := res.Metrics["qos.sheds"].Value; got != 0 {
				t.Errorf("%s: qos.sheds = %v", w.name, got)
			}
			if got := res.Metrics["tier.spills"].Value; (got > 0) != w.spills {
				t.Errorf("%s: tier.spills = %v, spilling expected: %v", w.name, got, w.spills)
			}
			if st, err := os.Stat(res.Spans); err != nil || st.Size() == 0 {
				t.Errorf("%s: span file %q: %v", w.name, res.Spans, err)
			}
		}
	}
}

func TestContractLine(t *testing.T) {
	res := result{Correct: true, Attempted: 10, Metrics: map[string]value{"setup_s": {Value: 0.5, Unit: "s", N: 3}}}
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(res.contractLine()), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Errorf("keys of the result line: %v", got)
	}
	var metrics map[string]map[string]json.RawMessage
	json.Unmarshal(got["metrics"], &metrics)
	if m := metrics["setup_s"]; len(m) != 2 || m["value"] == nil || m["unit"] == nil {
		t.Errorf("a metric must be exactly value and unit: %s", got["metrics"])
	}
}

func TestCompare(t *testing.T) {
	defs := []metricDef{
		{"put_ms_p50", "ms", "lower", 0.10},
		{"goodput_mib_s", "MiB/s", "higher", 0.10},
	}
	set := func(put, goodput []float64) resultFile {
		var f resultFile
		for i := range put {
			f.Runs = append(f.Runs, result{Workload: "couple-small", Metrics: map[string]value{
				"put_ms_p50": {Value: put[i]}, "goodput_mib_s": {Value: goodput[i]},
			}})
		}
		// A traced run in the file is not an end-to-end measurement.
		f.Runs = append(f.Runs, result{Workload: "couple-small", Trace: 1, Metrics: map[string]value{"put_ms_p50": {Value: 99}}})
		return f
	}
	status := func(base, new resultFile) map[string]string {
		out := map[string]string{}
		for _, v := range compare(defs, base, new) {
			out[v.metric] = v.status
		}
		return out
	}
	base := set([]float64{1.00, 1.02}, []float64{100, 101})
	if got := status(base, set([]float64{1.05, 1.06}, []float64{95, 96})); got["put_ms_p50"] != "ok" || got["goodput_mib_s"] != "ok" {
		t.Errorf("within bounds: %v", got)
	}
	if got := status(base, set([]float64{1.20, 1.21}, []float64{80, 81})); got["put_ms_p50"] != "REGRESSION" || got["goodput_mib_s"] != "REGRESSION" {
		t.Errorf("20%% worse both ways: %v", got)
	}
	// The base's own two runs differ by more than the bound: a 20 %
	// change cannot be told from noise.
	noisy := set([]float64{1.00, 1.30}, []float64{100, 101})
	if got := status(noisy, set([]float64{1.38, 1.39}, []float64{100, 101})); got["put_ms_p50"] != "unresolved" {
		t.Errorf("noisy base: %v", got)
	}
	// ... unless every new run beats every base run.
	if got := status(noisy, set([]float64{0.50, 0.51}, []float64{100, 101})); got["put_ms_p50"] != "ok" {
		t.Errorf("noisy base, clear win: %v", got)
	}
	// Failing more of what was attempted is a regression whatever the
	// timings say; failing no more than the base is not.
	if got := status(base, base); got[failedFrac] != "ok" {
		t.Errorf("no failures on either side: %v", got)
	}
	failing := set([]float64{0.50, 0.51}, []float64{200, 201})
	failing.Runs[0].Attempted, failing.Runs[0].Failed = 1000, 1
	failing.Runs[1].Attempted = 1000
	if got := status(base, failing); got[failedFrac] != "REGRESSION" || got["put_ms_p50"] != "ok" {
		t.Errorf("one failed operation in the new set: %v", got)
	}
	if got := status(failing, failing); got[failedFrac] != "ok" {
		t.Errorf("the same failures on both sides: %v", got)
	}
}
