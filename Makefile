# Tier-1 verification and CI targets. `make check` is the pre-merge
# gate; `make short` skips the chaos soak for fast iteration.

GO ?= go

.PHONY: check vet fmt-check build test race short bench bench-smoke bench-e2e-test bench-pairs nemesis recovery-stress soak-smoke no-gob loc loc-check

check: vet fmt-check no-gob loc-check test race

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
# manifest), so no non-test file imports encoding/gob. internal/ckpt is
# the one exemption: ckpt.Saver serializes *application* state, of types
# the application owns and cannot register with the codec.
no-gob:
	@out=$$(grep -rl --include='*.go' --exclude='*_test.go' '"encoding/gob"' *.go cmd internal examples | grep -v '^internal/ckpt/'); \
	test -z "$$out" || { echo "$$out"; echo 'encoding/gob imported outside internal/ckpt (above): messages and storage bodies go through internal/codec'; exit 1; }

# The line count ROADMAP item 4's budget is measured in: non-test Go
# under the wire/staging packages plus the public facade.
LOC = cat $$(ls internal/staging/*.go internal/transport/*.go internal/codec/*.go gospaces.go | grep -v _test) | wc -l
loc:
	@$(LOC)

# The ratchet: `make loc` may not rise unnoticed. A PR that needs more
# lines raises LOC_BUDGET in its own diff, where a reviewer sees it; one
# that removes lines lowers it to what it reaches.
# 6244 → 6268: a replica holder installs its replica on the promoted
# spare itself (ReplFetchReq.InstallOn, fenced), so restored state
# crosses the wire once instead of twice through the supervisor.
LOC_BUDGET = 6268
loc-check:
	@loc=$$($(LOC)); echo "make loc: $$loc, LOC_BUDGET: $(LOC_BUDGET)"; \
	test $$loc -le $(LOC_BUDGET) || { echo 'over budget: remove lines, or raise LOC_BUDGET in this diff'; exit 1; }

# The resilience acceptance gate: the wire codec, transport, staging,
# and the fail-stop recovery stack under the race detector (includes the
# chaos soak, lifecycle, supervised-recovery, log-replication,
# multiplexing concurrency, and frame-corruption tests, plus the
# crash-consistency state machines: wlog, ckpt, pfs, the cold tier — the
# parallel EC kernel, the admission-control/QoS layer, and the lock
# table the lock server, its replicas and a promoted spare all run).
race:
	$(GO) test -race ./internal/codec/... ./internal/transport/... ./internal/staging/... ./internal/ec/... ./internal/health/... ./internal/recovery/... ./internal/corec/... ./internal/wlog/... ./internal/ckpt/... ./internal/pfs/... ./internal/tier/... ./internal/qos/... ./internal/trace/... ./internal/locks/...

# Fast loop: -short skips the chaos soak and other slow tests.
short:
	$(GO) test -short ./...

# The nemesis schedules under the race detector: seeded soak traces
# (internal/workflow/soak.go) of supervisor/server kills over the
# HA-recovery stack — leader killed at every promotion stage,
# deposed-leader fencing, spare exhaustion, Churn-drawn chaos, a shed
# flood around a promoting fail-stop, and storage faults tearing,
# rotting, and ENOSPC-failing the cold tier under a spilling group.
# Every run's last barrier checks the recovery ledger.
nemesis:
	$(GO) test -race -run 'TestNemesis' -count=1 -timeout 10m ./internal/workflow/

# Recovery timing gate: WaitIdle confirms a repaired group (no window
# pads it), so the kill sweeps and the chaos soak that wait on it run
# ten times each under the race detector. A flake seen here is filed in
# CHANGES.md with its seed.
recovery-stress:
	$(GO) test -race -count=10 -timeout 20m -run 'TestWaitIdle|TestKillAnyServerAtAnyPoint|TestKillInsidePut|TestNemesisChaosSoak' ./internal/recovery ./internal/workflow

# Bounded churn-soak gate: replay the checked-in regression traces
# (each twice) and the record-vs-replay determinism tests, then run two
# fresh wfbench soak seeds end to end (record, execute, replay, compare
# digests). Stays well under two minutes.
soak-smoke:
	$(GO) test -run 'TestSoakReplayDeterministic|TestSoakDivergenceDeterministic|TestReplayRegression' -count=1 -timeout 5m ./internal/workflow/
	$(GO) run ./cmd/wfbench -exp soak -seeds 2 -trace-dir .

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
