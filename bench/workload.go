package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"gospaces/internal/dht"
	"gospaces/internal/domain"
	"gospaces/internal/health"
	"gospaces/internal/recovery"
	"gospaces/internal/staging"
	"gospaces/internal/synth"
)

// workload is one named shape of the same program: a producer component
// and a consumer component coupled through staging, step by step, in two
// groups of identical configuration — one driven with Put/Get, one with
// PutWithLog/GetWithLog — followed by a failure and the recovery from it.
// One cycle is `steps` coupled steps, the failure, and a closing
// checkpoint; cycles repeat until the run's time is up.
type workload struct {
	name string
	why  string
	// global is the coupled field (elemSize bytes per cell); prod and cons
	// are how many rank boxes the producer and the consumer split it
	// into along the first dimension.
	global     domain.BBox
	servers    int
	prod, cons int
	// budget is the per-server memory budget. The cold tier is always
	// attached; spills says whether the budget is small enough to make
	// it work (then it must, otherwise it must not).
	budget int64
	spills bool
	steps  int
	// simCheck and anaCheck are the producer's and the consumer's
	// checkpoint periods in steps within a cycle (0: only the closing
	// checkpoint), so a component restart has a replay window.
	simCheck, anaCheck int
	// ring is how many distinct versions of the field are generated
	// before timing; version v carries buffer v mod ring.
	ring int
	// warm is the number of untimed cycles before measurement.
	warm int
	// rpcsPerPut is how many PutReq one rank put is defined to be: the
	// DHT cells (4 per dimension) its box covers.
	rpcsPerPut int
	// failstop makes the cycle's failure a staging-server fail-stop in a
	// fresh group with one warm spare, repaired by the recovery
	// supervisor; otherwise it is a restart of both components.
	failstop bool
}

// The names are the contract (BENCHMARK.json). Shapes are sized so that
// one cycle takes well under a second on two cores.
var workloads = []workload{
	{
		name:   "couple-large",
		why:    "8 MiB/step in 128 KiB pieces: payload walks (extract, wire, ingest copy, CRC-32C, replication) do the work; per-RPC costs are noise",
		global: domain.Box3(0, 0, 0, 127, 127, 63), servers: 4, prod: 4, cons: 2,
		budget: 1 << 30, steps: 9, simCheck: 4, anaCheck: 5, ring: 4, warm: 1, rpcsPerPut: 16,
	},
	{
		name:   "couple-small",
		why:    "128 KiB/step in 2 KiB pieces: per-RPC costs (codec, framing, lanes, admission, counters, wlog append, replication round trip) do the work; payload walks are noise",
		global: domain.Box3(0, 0, 0, 31, 31, 15), servers: 4, prod: 4, cons: 2,
		budget: 1 << 30, steps: 18, simCheck: 4, anaCheck: 5, ring: 16, warm: 2, rpcsPerPut: 16,
	},
	{
		name:   "restart-spill",
		why:    "1 MiB versions against a 1.5 MiB budget: every put spills to the cold tier and every replayed get promotes from it, so tier, pfs and the replay cursor do the work",
		global: domain.Box3(0, 0, 0, 63, 63, 31), servers: 2, prod: 1, cons: 1,
		budget: 3 << 19, spills: true, steps: 12, ring: 16, warm: 1, rpcsPerPut: 64,
	},
	{
		name:   "failstop",
		why:    "a staging server is killed 8 logged versions after a checkpoint: health, recovery, wlog snapshot/install and the view push do the work; the data path is idle",
		global: domain.Box3(0, 0, 0, 63, 63, 31), servers: 4, prod: 1, cons: 1,
		budget: 1 << 30, steps: 24, simCheck: 16, anaCheck: 16, ring: 8, warm: 2, rpcsPerPut: 64, failstop: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// The two arms of every coupled step.
const (
	unlogged = 0
	logged   = 1
)

// arm is one group and its rank clients.
type arm struct {
	st         *stack
	prod, cons []*staging.Client
	// failstop only: the logged arm's failure detector and supervisor.
	det *health.Detector
	sup *recovery.Supervisor
}

func (a *arm) close() {
	if a.sup != nil {
		a.sup.Close()
	}
	if a.det != nil {
		a.det.Close()
	}
	closeClients(a.prod)
	closeClients(a.cons)
	if a.st != nil {
		a.st.close()
	}
}

// samples is everything a run measures from outside the stack.
type samples struct {
	put, get [2][]float64 // per arm, one client call each, ms
	// Per coupled step, the two arms side by side: logged over unlogged
	// time of the step's puts and of its gets, and the logged arm's bytes
	// moved over its time. The arms of one step run within milliseconds
	// of each other, so a stall of the machine lands in one step's value
	// and the median over steps drops it.
	stepPut, stepGet, stepGoodput []float64
	// The same per step against the raw-socket floor measured in that
	// step: the logged arm's ms per MiB put (got) over the floor's ms per
	// MiB, and the floor itself. A slow spell of the host slows both.
	stepPutWire, stepGetWire, stepFloor []float64

	check            []float64 // per cycle, all its WorkflowCheck calls, ms
	recover          []float64 // the cycle's recovery, ms
	replayGet        []float64 // GetWithLog answered from the log, ms
	suppressedPut    []float64 // re-issued PutWithLog, ms
	restart          []float64 // WorkflowRestart, ms
	failoverRead     []float64 // failstop: first read after recovery, ms
	stage            map[string][]float64
	setupGen         []float64 // payload generation, s
	setupStack       []float64 // groups up and clients dialled, s
	mem              [2]float64
	memSamples       int
	storeBytes       float64 // logged arm, summed over samples
	userBytes        int64   // logged arm, bytes put and got through the API
	replicaBytes     float64 // logged arm, summed over samples
	attempted        int
	failed           int
	cycles           int
	puts, reputs     int // logged arm PutWithLog calls: coupled, re-issued
	replays          int // logged arm replayed GetWithLog calls
	recoveryLogBytes []float64
}

// run drives one workload. The op stream — which version, which rank,
// which arm first, which server dies — is a function of the seed alone.
type run struct {
	w    workload
	seed int64
	rec  *recorder // nil: tracing off

	rng     *rand.Rand
	digest  uint64 // FNV-1a over the op stream, for the determinism test
	prodBox []domain.BBox
	consBox []domain.BBox
	prodBuf [][][]byte // [ring][rank]
	consBuf [][][]byte
	prodSum [][]uint64 // checksums of the above, for the digest
	consSum [][]uint64
	arms    [2]*arm
	version int64
	s       samples

	// srvsPerGet is how many servers one consumer rank's get touches:
	// one GetReq, and one replayed-get count, each.
	srvsPerGet int
	// base is each arm's counters when timing began; delta what the
	// timed cycles added.
	base, delta [2]counts

	stampMu sync.Mutex
	stamps  map[string]time.Time

	echo *echoLink // raw loopback connection carrying piece-sized messages
}

func newRun(w workload, seed int64, rec *recorder) (*run, error) {
	r := &run{w: w, seed: seed, rec: rec}
	r.rng = rand.New(rand.NewSource(seed))
	r.digest = 14695981039346656037
	r.s.stage = map[string][]float64{}
	var err error
	if r.prodBox, err = rankBoxes(w.global, w.prod); err != nil {
		return nil, err
	}
	if r.consBox, err = rankBoxes(w.global, w.cons); err != nil {
		return nil, err
	}
	idx, err := dht.NewIndex(w.global, w.servers, dhtBits)
	if err != nil {
		return nil, err
	}
	rpcs := 0
	for _, s := range idx.ServersFor(r.prodBox[0]) {
		for _, cell := range idx.ServerCells(s) {
			if _, ok := cell.Intersect(r.prodBox[0]); ok {
				rpcs++
			}
		}
	}
	if rpcs != w.rpcsPerPut {
		return nil, fmt.Errorf("%s: the index splits a rank put into %d RPCs, the workload is defined as %d", w.name, rpcs, w.rpcsPerPut)
	}
	r.srvsPerGet = len(idx.ServersFor(r.consBox[0]))
	return r, nil
}

func rankBoxes(global domain.BBox, n int) ([]domain.BBox, error) {
	dec, err := domain.NewDecomposition(global, []int{n, 1, 1})
	if err != nil {
		return nil, err
	}
	out := make([]domain.BBox, n)
	for i := range out {
		if out[i], err = dec.RankBox(i); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// note folds one op of the stream into the run's digest: what was done,
// by which rank, at which version, and the checksum of the bytes it
// carried or expected.
func (r *run) note(kind string, arm, rank int, version int64, payload uint64) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%016x|%s|%d|%d|%d|%016x", r.digest, kind, arm, rank, version, payload)
	r.digest = h.Sum64()
}

// generate fills the ring of buffers: `ring` versions of the field, cut
// into each producer rank's put buffer and each consumer rank's expected
// read. The field's name carries the seed, so the bytes do too.
func (r *run) generate() {
	t0 := time.Now()
	field := synth.NewField(fmt.Sprintf("field-%d", r.seed), r.w.global, elemSize)
	r.prodBuf, r.consBuf = make([][][]byte, r.w.ring), make([][][]byte, r.w.ring)
	r.prodSum, r.consSum = make([][]uint64, r.w.ring), make([][]uint64, r.w.ring)
	for v := 0; v < r.w.ring; v++ {
		whole := field.Fill(int64(v), r.w.global)
		for _, b := range r.prodBox {
			buf := domain.Extract(whole, r.w.global, b, elemSize)
			r.prodBuf[v] = append(r.prodBuf[v], buf)
			r.prodSum[v] = append(r.prodSum[v], synth.Checksum(buf))
		}
		for _, b := range r.consBox {
			buf := domain.Extract(whole, r.w.global, b, elemSize)
			r.consBuf[v] = append(r.consBuf[v], buf)
			r.consSum[v] = append(r.consSum[v], synth.Checksum(buf))
		}
	}
	r.s.setupGen = append(r.s.setupGen, time.Since(t0).Seconds())
}

// startArms brings both groups up and dials every rank. The logged arm
// of failstop also gets a warm spare, a failure detector and a recovery
// supervisor whose promotion hook stamps the stages of the repair.
func (r *run) startArms() error {
	t0 := time.Now()
	for a := range r.arms {
		st, err := startStack(r.w.global, r.w.servers, r.w.budget, r.rec)
		if err != nil {
			r.closeArms()
			return err
		}
		am := &arm{st: st}
		r.arms[a] = am
		if am.prod, err = st.clients("sim", r.w.prod); err != nil {
			r.closeArms()
			return err
		}
		if am.cons, err = st.clients("ana", r.w.cons); err != nil {
			r.closeArms()
			return err
		}
		if r.w.failstop && a == logged {
			if _, err := st.group.AddSpare(); err != nil {
				r.closeArms()
				return err
			}
			am.det = health.NewDetector(st.bare, "bench/supervisor", health.Config{
				Period: 5 * time.Millisecond, Timeout: 25 * time.Millisecond,
				SuspectAfter: 2, DeadAfter: 4,
			})
			am.sup = recovery.New(st.bare, am.det, st.group.Membership(), st.group, recovery.Config{
				ID: "bench/supervisor", LeaseTTL: 150 * time.Millisecond,
				PromotionHook: func(stage string, _ int) { r.stamp(stage) },
			})
			am.sup.Start()
		}
	}
	r.s.setupStack = append(r.s.setupStack, time.Since(t0).Seconds())
	return nil
}

func (r *run) closeArms() {
	for a := range r.arms {
		if r.arms[a] != nil {
			r.arms[a].close()
			r.arms[a] = nil
		}
	}
}

func (r *run) stamp(stage string) {
	r.stampMu.Lock()
	r.stamps[stage] = time.Now()
	r.stampMu.Unlock()
}

// timed runs one client call as one operation: a root span when tracing,
// and the wall time the client observed, in ms.
func (r *run) timed(name string, f func() error) (float64, error) {
	var id int
	if r.rec != nil {
		id = r.rec.beginOp(name)
	}
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	if r.rec != nil {
		r.rec.endOp(id)
	}
	r.s.attempted++
	if err != nil {
		r.s.failed++
		fmt.Printf("FAILED %s: %v\n", name, err)
	}
	return float64(d) / 1e6, err
}

var armName = [2]string{"unlogged", "logged"}

// put stages version v of rank p's box on arm a.
func (r *run) put(a, p int, v int64, opName string) (float64, error) {
	c, buf := r.arms[a].prod[p], r.prodBuf[v%int64(r.w.ring)][p]
	r.note("put", a, p, v, r.prodSum[v%int64(r.w.ring)][p])
	return r.timed(opName, func() error {
		if a == logged {
			return c.PutWithLog(varName, v, r.prodBox[p], buf)
		}
		return c.Put(varName, v, r.prodBox[p], buf)
	})
}

// get reads version v of rank c's box on arm a and checks every byte
// against the generated buffer. A mismatch ends the run.
func (r *run) get(a, c int, v int64, opName string) (float64, error) {
	cl := r.arms[a].cons[c]
	r.note("get", a, c, v, r.consSum[v%int64(r.w.ring)][c])
	var data []byte
	ms, err := r.timed(opName, func() error {
		var err error
		if a == logged {
			data, _, err = cl.GetWithLog(varName, v, r.consBox[c])
		} else {
			data, _, err = cl.Get(varName, v, r.consBox[c])
		}
		return err
	})
	if err == nil && !bytes.Equal(data, r.consBuf[v%int64(r.w.ring)][c]) {
		return ms, &corruptRead{op: opName, arm: armName[a], rank: c, version: v}
	}
	return ms, err
}

type corruptRead struct {
	op, arm string
	rank    int
	version int64
}

func (e *corruptRead) Error() string {
	return fmt.Sprintf("corrupt read: %s on %s arm, consumer rank %d, version %d differs from the generated buffer", e.op, e.arm, e.rank, e.version)
}

// fatal reports whether err must end the run: only a corrupt read does;
// a failed or refused operation is counted and the run goes on.
func fatal(err error) bool {
	var bad *corruptRead
	return errors.As(err, &bad)
}

// step is one coupled step: on each arm, every producer rank writes its
// box and every consumer rank immediately reads its own. The arms are
// interleaved step by step, so drift in the machine's speed lands on both
// sides of the overhead ratio.
func (r *run) step(record bool) error {
	r.version++
	v := r.version
	// Which arm goes first is a coin per step, not a strict alternation:
	// alternating locks the order to the step's place in the checkpoint
	// cadence, and the ratio then read 1.75 on odd seeds and 1.80 on even.
	order := [2]int{unlogged, logged}
	if r.rng.Intn(2) == 0 {
		order = [2]int{logged, unlogged}
	}
	var putMs, getMs [2]float64
	clean := record
	for _, a := range order {
		for _, p := range r.rng.Perm(r.w.prod) {
			ms, err := r.put(a, p, v, "op:put."+armName[a])
			if fatal(err) {
				return err
			}
			clean = clean && err == nil
			putMs[a] += ms
			if record && err == nil {
				r.s.put[a] = append(r.s.put[a], ms)
			}
		}
		for _, c := range r.rng.Perm(r.w.cons) {
			ms, err := r.get(a, c, v, "op:get."+armName[a])
			if fatal(err) {
				return err
			}
			clean = clean && err == nil
			getMs[a] += ms
			if record && err == nil {
				r.s.get[a] = append(r.s.get[a], ms)
			}
		}
	}
	if clean {
		var putBytes, getBytes float64
		for p := range r.prodBox {
			putBytes += float64(len(r.prodBuf[0][p]))
		}
		for c := range r.consBox {
			getBytes += float64(len(r.consBuf[0][c]))
		}
		floor, err := r.wireFloor()
		if err != nil {
			return err
		}
		r.s.puts += r.w.prod
		r.s.userBytes += int64(putBytes + getBytes)
		r.s.stepPut = append(r.s.stepPut, ratio(putMs[logged], putMs[unlogged]))
		r.s.stepGet = append(r.s.stepGet, ratio(getMs[logged], getMs[unlogged]))
		r.s.stepPutWire = append(r.s.stepPutWire, ratio(putMs[logged]/(putBytes/mib), floor))
		r.s.stepGetWire = append(r.s.stepGetWire, ratio(getMs[logged]/(getBytes/mib), floor))
		r.s.stepFloor = append(r.s.stepFloor, floor)
		r.s.stepGoodput = append(r.s.stepGoodput, ratio((putBytes+getBytes)/mib, (putMs[logged]+getMs[logged])/1e3))
	}
	if record {
		r.sampleMemory()
	}
	return nil
}

// wireFloor is what the kernel charges, right now, to move a MiB the way
// a put moves it: one producer rank's put as piece-sized messages over a
// raw loopback TCP connection, each answered with 8 bytes. It runs once
// per step, between the arms' operations, so it sees the machine the
// operations saw. In ms per MiB.
func (r *run) wireFloor() (float64, error) {
	t0 := time.Now()
	for i := 0; i < r.w.rpcsPerPut; i++ {
		if err := r.echo.roundTrip(); err != nil {
			return 0, fmt.Errorf("raw-socket floor: %w", err)
		}
	}
	ms := float64(time.Since(t0)) / 1e6
	return ms / (float64(r.w.rpcsPerPut*len(r.echo.msg)) / mib), nil
}

// sampleMemory reads what the servers hold after a step, outside every
// timer: payload bytes plus event-log metadata, per arm (Fig. 9c/d).
func (r *run) sampleMemory() {
	var got [2]staging.StatsResp
	for a := range r.arms {
		st, err := r.arms[a].prod[0].Stats()
		if err != nil {
			return
		}
		got[a] = st
	}
	for a := range got {
		r.s.mem[a] += float64(got[a].StoreBytes + got[a].LogMetaBytes)
	}
	r.s.storeBytes += float64(got[logged].StoreBytes)
	r.s.replicaBytes += float64(got[logged].ReplicaBytes)
	r.s.memSamples++
}

// check is WorkflowCheck by the given ranks of the logged arm; it returns
// the time the calls took, in ms.
func (r *run) check(clients []*staging.Client) float64 {
	var total float64
	for _, c := range clients {
		ms, _ := r.timed("op:check", func() error {
			_, err := c.WorkflowCheck()
			return err
		})
		total += ms
	}
	return total
}

// warmSteps is how many untimed unlogged steps a fresh group gets before
// its coupled steps: connections, buffers and the servers' first pages
// are then as warm as in a long-lived group, and the event log — what
// the recovery has to restore — is still empty.
const warmSteps = 8

func (r *run) warmGroups() {
	for i := int64(1); i <= warmSteps; i++ {
		for _, am := range r.arms {
			r.timed("op:warm", func() error { return am.prod[0].Put("warm", i, r.prodBox[0], r.prodBuf[0][0]) })
			r.timed("op:warm", func() error {
				_, _, err := am.cons[0].Get("warm", i, r.consBox[0])
				return err
			})
		}
	}
}

// cycle runs the coupled steps, the failure and its recovery, and the
// closing checkpoint.
func (r *run) cycle(record bool) error {
	if r.w.failstop {
		if err := r.startArms(); err != nil {
			return err
		}
		defer r.closeArms()
		r.warmGroups()
	}
	lg := r.arms[logged]
	first := r.version + 1
	simFrom, anaFrom := first, first // first version not covered by a checkpoint
	var checkMs float64
	for i := 1; i <= r.w.steps; i++ {
		if err := r.step(record); err != nil {
			return err
		}
		if r.w.simCheck > 0 && i%r.w.simCheck == 0 {
			checkMs += r.check(lg.prod)
			simFrom = r.version + 1
		}
		if r.w.anaCheck > 0 && i%r.w.anaCheck == 0 {
			checkMs += r.check(lg.cons)
			anaFrom = r.version + 1
		}
	}
	var err error
	if r.w.failstop {
		err = r.failServer(record, anaFrom)
	} else {
		err = r.restartComponents(record, simFrom, anaFrom)
	}
	if err != nil {
		return err
	}
	checkMs += r.check(lg.prod)
	checkMs += r.check(lg.cons)
	if record {
		r.s.check = append(r.s.check, checkMs)
		r.s.cycles++
		if r.w.failstop {
			return r.harvest() // the groups are about to go
		}
	}
	return nil
}

// harvest adds what the arms' counters gained since base to delta.
func (r *run) harvest() error {
	for a, am := range r.arms {
		now, err := am.st.counters(am.prod[0])
		if err != nil {
			return fmt.Errorf("read %s arm counters: %w", armName[a], err)
		}
		r.delta[a] = r.delta[a].plus(now.minus(r.base[a]))
	}
	return nil
}

// genReps and startReps are how many times a run generates its payloads
// and starts its groups, so that the set-up time it reports is a sum of
// two medians. Starting a group is cheap and jittery (a few dozen TCP
// dials), so it is repeated more. Tests lower both.
var genReps, startReps = 5, 15

// execute sets up, warms up, and runs whole cycles until `seconds` of
// measurement have passed (at least one).
func (r *run) execute(seconds float64) error {
	var err error
	if r.echo, err = newEchoLink(int(domainBytes(r.w)) / r.w.prod / r.w.rpcsPerPut); err != nil {
		return err
	}
	defer r.echo.close()
	for i := 0; i < genReps; i++ {
		r.generate()
	}
	if !r.w.failstop {
		for i := 0; i < startReps; i++ {
			r.closeArms()
			if err := r.startArms(); err != nil {
				return err
			}
		}
		defer r.closeArms()
	}
	for i := 0; i < r.w.warm; i++ {
		if err := r.cycle(false); err != nil {
			return err
		}
	}
	if !r.w.failstop {
		for a, am := range r.arms {
			var err error
			if r.base[a], err = am.st.counters(am.prod[0]); err != nil {
				return err
			}
		}
	}
	if r.rec != nil {
		r.rec.reset() // the trace, like the timers, starts after warm-up
	}
	for start := time.Now(); r.s.cycles < 1 || time.Since(start).Seconds() < seconds; {
		if err := r.cycle(true); err != nil {
			return err
		}
	}
	if !r.w.failstop {
		if err := r.harvest(); err != nil {
			return err
		}
	}
	return r.verify()
}

// verify checks the counts that must come out exactly, whatever the
// machine's speed; they only hold when no operation failed.
func (r *run) verify() error {
	if r.s.failed > 0 {
		fmt.Printf("%s: %d of %d operations failed, so the exact counts are not checked\n", r.w.name, r.s.failed, r.s.attempted)
		return nil
	}
	lg, ul := r.delta[logged], r.delta[unlogged]
	want := func(what string, got, want int64) error {
		if got != want {
			return fmt.Errorf("%s: %s = %d, want exactly %d", r.w.name, what, got, want)
		}
		return nil
	}
	rpcs := int64(r.w.rpcsPerPut)
	checks := []error{
		want("suppressed puts", lg[cSuppressed], rpcs*int64(r.s.reputs)),
		want("replayed gets", lg[cReplayGets], int64(r.srvsPerGet*r.s.replays)),
		want("qos sheds", lg[cSheds]+ul[cSheds], 0),
		want("unlogged arm spills", ul[cSpills], 0),
	}
	if !r.w.failstop {
		// A promoted spare's counters start at zero, so only long-lived
		// groups can account for every put.
		checks = append(checks,
			want("logged PutReq handled", lg[cPuts], rpcs*int64(r.s.puts+r.s.reputs)),
			want("unlogged PutReq handled", ul[cPuts], rpcs*int64(len(r.s.put[unlogged]))))
	}
	for _, err := range checks {
		if err != nil {
			return err
		}
	}
	if r.w.spills != (lg[cSpills] > 0) {
		return fmt.Errorf("%s: %d spills on the logged arm, but spilling is %v for this budget", r.w.name, lg[cSpills], r.w.spills)
	}
	return nil
}

// restartComponents crashes the consumer, then the producer. Each rank
// of the restarted component calls WorkflowRestart and re-issues what it
// did since its last checkpoint: the consumer's gets are answered from
// the event log (from the cold tier, when the version was spilled), the
// producer's puts are recognised and suppressed. The cycle's recovery
// time is the consumer's: restart plus every replayed get.
func (r *run) restartComponents(record bool, simFrom, anaFrom int64) error {
	lg := r.arms[logged]
	var recoverMs float64
	for c, cl := range lg.cons {
		ms, err := r.timed("op:restart", func() error {
			_, err := cl.WorkflowRestart()
			return err
		})
		if record && err == nil {
			r.s.restart = append(r.s.restart, ms)
		}
		recoverMs += ms
		for v := anaFrom; v <= r.version; v++ {
			ms, err := r.get(logged, c, v, "op:replay_get")
			if fatal(err) {
				return err
			}
			recoverMs += ms
			if record && err == nil {
				r.s.replayGet = append(r.s.replayGet, ms)
				r.s.replays++
				r.s.userBytes += int64(len(r.consBuf[0][c]))
			}
		}
	}
	if record {
		r.s.recover = append(r.s.recover, recoverMs)
	}
	for p, cl := range lg.prod {
		ms, err := r.timed("op:restart", func() error {
			_, err := cl.WorkflowRestart()
			return err
		})
		if record && err == nil {
			r.s.restart = append(r.s.restart, ms)
		}
		for v := simFrom; v <= r.version; v++ {
			ms, err := r.put(logged, p, v, "op:reput")
			if record && err == nil {
				r.s.suppressedPut = append(r.s.suppressedPut, ms)
				r.s.reputs++
				r.s.userBytes += int64(len(r.prodBuf[0][p]))
			}
		}
	}
	return nil
}

// failServer kills one seeded server of the logged group, waits for the
// supervisor to promote the spare and go quiet, and reads every version
// since the consumer's checkpoint (first and up) back through the new
// membership; the first read carries the client's rebind. The cycle's
// recovery time is kill to quiet (MTTR).
func (r *run) failServer(record bool, first int64) error {
	lg := r.arms[logged]
	time.Sleep(30 * time.Millisecond) // let the detector see every member alive
	victim := r.rng.Intn(r.w.servers)
	r.note("failstop", logged, victim, r.version, 0)
	r.stampMu.Lock()
	r.stamps = map[string]time.Time{}
	r.stampMu.Unlock()

	var id int
	if r.rec != nil {
		id = r.rec.beginOp("op:recover")
	}
	promoted := lg.sup.Metrics().Counter("recovery.promotions")
	t0 := time.Now()
	err := lg.st.group.FailStop(victim)
	// WaitIdle means "nothing seen failing for one detection window". If
	// the machine stalls the detector for that long right after the
	// kill, it returns before the death was noticed at all; the workflow
	// would then find the slot dead and wait again, and so does this.
	for deadline := t0.Add(20 * time.Second); err == nil; {
		err = lg.sup.WaitIdle(time.Until(deadline))
		if promoted.Value() > 0 || time.Now().After(deadline) {
			break
		}
	}
	done := time.Now()
	if r.rec != nil {
		r.rec.endOp(id)
	}
	r.s.attempted++
	if err != nil {
		r.s.failed++
		fmt.Printf("FAILED recover server %d: %v\n", victim, err)
		return nil
	}
	if spent := lg.st.group.SparesConsumed(); promoted.Value() != 1 || spent != 1 {
		return fmt.Errorf("failstop of server %d: %d promotions, %d spares spent, want 1 and 1", victim, promoted.Value(), spent)
	}
	if record {
		r.s.recover = append(r.s.recover, float64(done.Sub(t0))/1e6)
		r.stampMu.Lock()
		prev := t0
		for i, stage := range []string{"intent", "restored", "replaced", "pushed"} {
			at, ok := r.stamps[stage]
			if !ok {
				break
			}
			name := []string{"detect", "restore", "replace", "push"}[i]
			r.s.stage[name] = append(r.s.stage[name], float64(at.Sub(prev))/1e6)
			prev = at
		}
		r.s.stage["quiet"] = append(r.s.stage["quiet"], float64(done.Sub(prev))/1e6)
		r.stampMu.Unlock()
		r.s.recoveryLogBytes = append(r.s.recoveryLogBytes, float64(lg.sup.Metrics().Counter("recovery.log_bytes").Value()))
	}
	for v := first; v <= r.version; v++ {
		for c := range lg.cons {
			ms, err := r.get(logged, c, v, "op:failover_get")
			if fatal(err) {
				return err
			}
			if record && err == nil && v == first && c == 0 {
				r.s.failoverRead = append(r.s.failoverRead, ms)
			}
		}
	}
	// The producers rebind too, on a call of their own, so that the
	// closing checkpoint is timed as a checkpoint.
	for _, cl := range lg.prod {
		r.timed("op:failover_query", func() error {
			_, err := cl.Versions(varName)
			return err
		})
	}
	return nil
}
