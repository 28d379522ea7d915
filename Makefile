# Tier-1 verification and CI targets. `make check` is the pre-merge
# gate; `make short` skips the chaos soak for fast iteration.

GO ?= go

.PHONY: check vet fmt-check build test race synctest short flake-sweep bench bench-smoke bench-e2e-test bench-pairs nemesis recovery-stress soak-smoke fuzz-smoke no-gob no-wallclock no-dial loc loc-check

check: vet fmt-check no-gob no-wallclock no-dial loc-check test race synctest

# bench/ is a module of its own, so tier-1 never compiles it: vetting it
# here is what catches an exported-API change in codec, transport or
# staging that breaks the benchmark (seconds; bench-e2e-test runs it).
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

# Named directories, not ".": gofmt would also walk the parent checkout
# bench-pairs leaves in .bench_build/. bench/ is included (gofmt takes
# directories, not package patterns, so the module boundary is no bar).
fmt-check:
	@out=$$(gofmt -l *.go cmd internal examples bench); test -z "$$out" || { echo "gofmt -l lists:"; echo "$$out"; exit 1; }

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# One codec, verifiably: internal/codec encodes every message and every
# storage body the service itself defines (the wlog snapshot, the tier
# manifest and spill record, a trace file's header and events), so no
# non-test file imports encoding/gob. internal/ckpt is the one
# exemption: ckpt.Saver serializes *application* state, of types the
# application owns and cannot register with the codec. Nor does a
# non-test file of the packages that define storage bodies or keep
# logged objects (tier, trace, wlog, staging, store) import
# encoding/binary: a byte layout laid by hand outside the codec would
# be a second codec. Framing stays in internal/ckpt and
# internal/transport.
no-gob:
	@out=$$(grep -rl --include='*.go' --exclude='*_test.go' '"encoding/gob"' *.go cmd internal examples | grep -v '^internal/ckpt/'); \
	test -z "$$out" || { echo "$$out"; echo 'encoding/gob imported outside internal/ckpt (above): messages and storage bodies go through internal/codec'; exit 1; }
	@out=$$(grep -rl --include='*.go' --exclude='*_test.go' '"encoding/binary"' internal/tier internal/trace internal/wlog internal/staging internal/store); \
	test -z "$$out" || { echo "$$out"; echo 'encoding/binary imported by a storage-body package (above): bodies go through internal/codec, framing through internal/ckpt or internal/transport'; exit 1; }

# One clock, verifiably: failure detection and recovery read time only
# from the clock of the transport they run over (transport.ClockOf), so
# an in-process world on a sim.Manual clock runs them with no wall time
# at all, and their tests move that clock instead of sleeping. No file
# in internal/health or internal/recovery, test or not, calls the wall
# clock directly.
no-wallclock:
	@out=$$(grep -rnE 'time\.(Sleep|Now|After|AfterFunc|Since|Until|NewTimer|NewTicker|Tick)\(' --include='*.go' internal/health internal/recovery); \
	test -z "$$out" || { echo "$$out"; echo 'direct wall-clock call in internal/health or internal/recovery (above): read the transport'"'"'s clock (sim.Clock)'; exit 1; }

# One kept client per peer, verifiably: a transport client re-dials a
# broken connection itself, so a caller that talks to a server again
# keeps one client for it in a transport.Peers, and a one-off call is
# transport.CallOnce. No non-test file outside internal/transport calls
# Dial: none dials, drops and re-dials on a rule of its own.
no-dial:
	@out=$$(grep -rn --include='*.go' --exclude='*_test.go' '\.Dial(' *.go cmd internal examples | grep -v '^internal/transport/'); \
	test -z "$$out" || { echo "$$out"; echo 'Dial called outside internal/transport (above): keep a client in a transport.Peers, or make a one-off call with transport.CallOnce'; exit 1; }

# The line count ROADMAP item 4's budget is measured in: non-test Go
# under the wire/staging packages plus the public facade. `make loc`
# also prints the root module's whole non-test Go total (bench/, a
# module of its own, aside), so lines moved out of the LOC set into
# another package still show.
LOC = cat $$(ls internal/staging/*.go internal/transport/*.go internal/codec/*.go gospaces.go | grep -v _test) | wc -l
GO_LOC = find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' -exec cat {} + | wc -l
loc:
	@echo "LOC set: $$($(LOC))"; echo "root module non-test Go: $$($(GO_LOC))"

# The ratchet: `make loc` may not rise unnoticed. A PR that needs more
# lines raises LOC_BUDGET in its own diff, where a reviewer sees it; one
# that removes lines lowers it to what it reaches.
# 6244 → 6268: a replica holder installs its replica on the promoted
# spare itself (ReplFetchReq.InstallOn, fenced), so restored state
# crosses the wire once instead of twice through the supervisor.
# 6268 → 6314: a server connection keeps its handler goroutines and
# hands each frame to an idle one (the frame type, the idle count, the
# handler_starts counter) instead of growing a new goroutine's stack
# per request.
# 6314 → 6272: one trace-fetch method (Client.Trace goes) and no
# client-side replay kinds in the facade (gospaces.TraceEv*,
# TraceEventFromRecord, TraceRecord); every trace executes through the
# soak executor.
# 6272 → 6230: the chaos transport arms its fault windows by address
# only (Apply, its schedule timeline, the addr→id map and FailStop go).
# 6230 → 6250: one clock. The in-process transport carries it
# (InProc.Clock, transport.ClockOf, Unwrap on Chaos and Retrying); the
# chaos windows and per-call sleeps, the retry back-off, the staging
# lease and InProc's call timeout (sim.Within) read it. And a replayed
# get retried behind the cursor ships the replicas no advance.
# 6250 → 6226: the supervisor's shard-key scan goes with its
# re-protection pass (ShardKeysReq/Resp and their handler).
# 6226 → 6225: clients learn the membership from the servers only
# (Pool.SetMember/MarkSlotDown/SlotDown go; the view carries Down), and
# the spill watermark is no setting (Config.TierWatermark goes).
# 6225 → 6224: every change to the stranded slots is an epoch, so a
# view at the pool's own epoch is never adopted again.
# 6224 → 6327: every frame is built once. codec.Measure sizes an
# encoding exactly before AppendTo builds it (the plan's size pass), so
# a frame's buffer grows at most once and one over MaxFrameBody is
# refused unbuilt; the transport's one frame builder (appendFrame)
# replaces beginFrame, finishFrameTail, appendPayload and cutBytes.
# 6327 → 6319: one request pipeline. Handle opens the envelopes once,
# before the lane gate; one replicate stage takes replMu and flushes for
# every logged mutation; the codec has one decode rule (RegisterRetained
# goes) and the handlers that keep received bytes copy them.
# 6319 → 6296: one record of a logged object. The replication stream,
# the replica snapshot and the cold tier's spill record carry
# store.Object, checked by store.Object.Verify (ReplObject, the
# record's Data/ElemSize/CRC triple and staging's CRC table go).
# 6296 → 6267: one membership view. health.View is the one record of
# it, and the health ping its one answer: MembershipReq/Resp and
# EpochSetResp go (ids 30–32 retired), a client rebinds by ping, a
# view push is answered with the PingResp, and the server and the
# client's Pool each hold one View (StatsResp.Epoch goes too). A
# logged get carries a request number, so its retry is logged once.
# 6267 → 6267: one kept client per peer. transport.Peers (dialled on
# first use, never dropped on a fault) replaces the staging client's
# per-slot connections, their re-dial on rebind and the replicator's
# dropPeer; Client.Stats sums every StatsResp field over c.call.
# 6267 → 6075: one store per server. The CoREC shard store goes (its
# map, its three handlers and message pairs, ids 5–8 and 25/26 retired,
# Client.ShardConn, the facade's Redundancy), and ServerHealth is the
# health ping alone.
# 6075 → 5951: one lease record and one fence. The health ping answers
# every lease and intent call and carries the lease record (LeaseCASResp,
# the intent acks and the LeaderInfoReq pair go, ids 36, 38, 40–42
# retired), and health.Fence is the one fencing rule (staging's
# FencedError moves to health as id 258). About 60 of the lines went to
# internal/health, which this set does not count: the root module's
# non-test Go fell 20347 → 20288. Counters nothing reads go too (the
# server's tier.* set, repl_records_shipped, replica_snapshots_installed,
# log_installs, stale_epoch_rejects) and Retrying.spendRetry.
# 5951 → 6052: one size-classed LIFO free list for frame buffers
# (codec/buf.go: 29 classes from 64 KiB to 8 MiB, each a stack bounded
# at 16 MiB, replacing the 256-slot FIFO channel); every frame buffer
# is asked for by size, and a GetResp hands its frame body back after
# the copy through codec.Frame (UnmarshalFrame, GetResp.Frame).
LOC_BUDGET = 6052
loc-check:
	@loc=$$($(LOC)); echo "make loc: $$loc, LOC_BUDGET: $(LOC_BUDGET)"; \
	test $$loc -le $(LOC_BUDGET) || { echo 'over budget: remove lines, or raise LOC_BUDGET in this diff'; exit 1; }

# The resilience acceptance gate: the wire codec, transport, staging,
# and the fail-stop recovery stack under the race detector (includes the
# chaos soak, lifecycle, supervised-recovery, log-replication,
# multiplexing concurrency, and frame-corruption tests, plus the
# crash-consistency state machines: wlog, ckpt, pfs, the cold tier — the
# parallel EC kernel, the admission-control/QoS layer, the lock table
# the lock server, its replicas and a promoted spare all run, and the
# goroutine MPI runtime, whose ranks wait on condition variables).
race:
	$(GO) test -race ./internal/codec/... ./internal/transport/... ./internal/staging/... ./internal/ec/... ./internal/health/... ./internal/recovery/... ./internal/wlog/... ./internal/ckpt/... ./internal/pfs/... ./internal/tier/... ./internal/qos/... ./internal/trace/... ./internal/locks/... ./internal/mpi/...

# The soak's determinism test, the checked-in regression traces and the
# nemesis schedules again, each inside a testing/synctest bubble
# (internal/workflow/bubble_test.go): every clock they read is the
# bubble's virtual one, so a schedule's timeouts, leases and windows
# fire in an order set by the schedule, not by the machine's load.
# Twenty times each under the race detector (~1 min). Runs on Go 1.24
# and 1.25 only: GOEXPERIMENT=synctest and synctest.Run exist in no
# other release (1.26 removes them), so another toolchain fails here
# at once. go.mod stays at 1.22 (the test file's go:debug line supplies
# the timer channels).
synctest:
	@v=$$($(GO) env GOVERSION); case $$v in go1.24|go1.24.*|go1.25|go1.25.*) ;; \
	*) echo "make synctest: needs Go 1.24 or 1.25 (GOEXPERIMENT=synctest, synctest.Run); $(GO) is $$v" >&2; exit 1;; esac
	GOEXPERIMENT=synctest $(GO) test -race -count=20 -run Bubble ./internal/workflow/

# Fast loop: -short skips the chaos soak and other slow tests.
short:
	$(GO) test -short ./...

# Tier-1 "green every run" is checked by running it many times: the
# whole suite five times over, each package's line carrying its wall
# time (EXPERIMENTS.md keeps the trajectory).
flake-sweep:
	$(GO) test -count=5 ./...

# The nemesis schedules under the race detector: seeded soak traces
# (internal/workflow/soak.go) of supervisor/server kills over the
# HA-recovery stack — leader killed at every promotion stage,
# deposed-leader fencing, spare exhaustion, churn-drawn chaos (net
# delay/drop windows included), net faults around a restart's replay, a
# shed flood around a promoting fail-stop, and storage faults tearing,
# rotting, and ENOSPC-failing the cold tier under a spilling group.
# Every run's last barrier checks the recovery ledger.
nemesis:
	$(GO) test -race -run 'TestNemesis' -count=1 -timeout 10m ./internal/workflow/

# Recovery timing gate: WaitIdle confirms a repaired group (no window
# pads it, and the repair's end asks for the probe round at once), so
# the kill sweeps, the chaos soak that wait on it, the requested probe
# rounds and the supervisor's and detector's kept clients run ten times each under
# the race detector. So do the transport's kept handler goroutines:
# their reuse, in-flight bound and close, the head-of-line and teardown
# checks, the get whose version is collected before its response is
# written, and the put piece re-sent during a replay whose server then
# fail-stops (it waits on a promotion), and the recovery tests that
# flaked: on wall time, the view push a dark member misses and the
# redundant supervisors' election; on the manual clock, the WaitIdle
# over a retrying detector (TestWaitIdle*) and the spare refunded after
# a failed restore, both of which advanced the clock past a barrier. A
# flake seen here is filed in CHANGES.md with its seed.
recovery-stress:
	$(GO) test -race -count=10 -timeout 20m -run 'TestWaitIdle|TestProbeNow|TestSupervisorKeepsOneConnPerMember|TestDetectorKeepsOneConnPerAddress|TestKillAnyServerAtAnyPoint|TestKillInsidePut|TestNemesisChaosSoak|TestServeConn|TestSlowCallDoesNotKillNeighbors|TestTCPConcurrentCloseDuringCalls|TestGetSurvivesGCBeforeWrite|TestReplayRetrySurvivesPromotion|TestViewPushPartialFailureConverges|TestRedundantSupervisorsElectionAndFencing|TestSpareReturnedOnFailedRestore' ./internal/health ./internal/recovery ./internal/workflow ./internal/transport ./internal/staging

# Bounded churn-soak gate: replay the checked-in regression traces
# (each twice) and the record-vs-replay determinism tests, replay one of
# them through the operator's tool (dsctl trace replay, no servers),
# then run two fresh wfbench soak seeds end to end (record, execute,
# replay, compare digests). Stays well under two minutes.
soak-smoke:
	$(GO) test -run 'TestSoakReplayDeterministic|TestSoakDivergenceDeterministic|TestReplayRegression' -count=1 -timeout 5m ./internal/workflow/
	$(GO) run ./cmd/dsctl trace replay internal/workflow/testdata/kill-mid-replay.trace
	$(GO) run ./cmd/wfbench -exp soak -seeds 2 -trace-dir .

# Every fuzz target fuzzed for FUZZTIME (5 s) each, one `go test -fuzz`
# per target (the tool fuzzes one at a time); plain `go test` runs only
# their seeds. An input it finds is a defect: fix it and check the input
# in under that package's testdata/fuzz.
FUZZTIME ?= 5s
FUZZ_TARGETS = ./internal/codec:FuzzDecode ./internal/codec:FuzzEncodedSize \
	./internal/codec:FuzzBufClasses \
	./internal/trace:FuzzTraceDecode \
	./internal/trace:FuzzTraceRoundTrip ./internal/ckpt:FuzzRecordRoundTrip \
	./internal/ckpt:FuzzDecodeRecord ./internal/ckpt:FuzzTwinLoad \
	./internal/transport:FuzzFrameDecode ./internal/staging:FuzzFastpathDecode \
	./internal/tier:FuzzRecordBody ./internal/domain:FuzzCopyRegion \
	./internal/staging:FuzzServerHandle
fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		echo "fuzz $$t"; \
		$(GO) test -run '^$$' -fuzz "^$${t#*:}\$$" -fuzztime $(FUZZTIME) "$${t%%:*}"; \
	done

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# One-iteration compile-and-run pass over the data-plane benchmarks
# (including the codec's reflection plan, the admission fast path, the
# wlog event/delta paths, the PFS/cold-tier record paths, and the logged
# put/get through a replicating group, in-process and over TCP by piece
# size, and the client's split/reassembly kernel beside the row walk it
# replaced); catches bit-rot without the cost of real measurement.
bench-smoke:
	$(GO) test -bench . -benchtime=1x -run=^$$ ./internal/domain ./internal/codec ./internal/transport ./internal/staging ./internal/ec ./internal/qos ./internal/wlog ./internal/pfs ./internal/tier

# The end-to-end benchmark is a module of its own (bench/go.mod), so
# the root `go test ./...` never reaches it: its unit tests and the
# smoke run of all four workloads, traced and not (~7 s).
bench-e2e-test:
	cd bench && $(GO) test ./...

# The standing rule for a PR that touches a hot path, in one command:
# ten alternated parent/change pairs of `bench/run.sh -all` (the change
# is the working tree) and the benchmark's own -check over the two
# result files, left in .bench_build/{parent,change}.json. About 55
# minutes at the benchmark's 20 s runs.
PAIRS ?= 10
bench-pairs:
	@test -n "$(PARENT)" || { echo 'usage: make bench-pairs PARENT=<rev> [PAIRS=10] [BENCH_ARGS="-seconds 10"]'; exit 2; }
	PAIRS=$(PAIRS) bash scripts/bench-pairs.sh $(PARENT) $(BENCH_ARGS)
