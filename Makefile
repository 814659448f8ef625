GO ?= go
GOFMT ?= gofmt

.PHONY: check build vet fmt test race bench-baseline bench-ckpt bench-simnet bench-adapt bench-farm bench-spectral bench-fft race-ckpt race-simnet race-sched race-policy race-farm race-spectral

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fail when any file needs reformatting; print the offenders.
fmt:
	@out="$$($(GOFMT) -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

test:
	$(GO) test ./...

# The simulator runs one goroutine per rank; everything must stay
# race-detector clean. This is the full gate a PR must pass.
race:
	$(GO) test -race ./...

# Regenerate the committed engine-overhead baseline (BENCH_engine.json
# at the repo root). Run after intentional engine cost changes and
# commit the diff.
bench-baseline:
	BENCH_BASELINE=1 $(GO) test ./internal/bench -run TestWriteEngineBaseline -count=1 -v

# Regenerate the committed checkpoint-store baseline (BENCH_ckpt.json
# at the repo root). Run after intentional store/writer changes and
# commit the diff.
bench-ckpt:
	BENCH_CKPT=1 $(GO) test ./internal/bench -run TestWriteCkptBaseline -count=1 -v

# The async writer is the only real host-side concurrency in the
# simulated runs (simnet runs one rank goroutine at a time); hammer it
# under the race detector beyond the single pass `race` gives.
race-ckpt:
	$(GO) test -race -count=2 ./internal/ckpt

# Put every layer that runs rank goroutines — the simulator itself,
# the MPI layer, all three solvers, faults, and the supervisor — under
# the race detector. Ranks run one at a time, handing control over
# through channels; the detector checks that every handoff orders the
# state the ranks share.
race-simnet:
	$(GO) test -race -count=1 \
		./internal/simnet ./internal/mpi ./internal/fault \
		./internal/core ./internal/supervisor ./internal/bench

# The scheduler suites — the pinned virtual-clock digests over every
# primitive and fault plan, resolver validation, and the P=2048
# capacity run — race-enabled and repeated, so a handoff that leaks
# state between ranks or a replay that moves a clock shows up.
race-sched:
	$(GO) test -race -count=2 \
		-run 'Scheduler|ManyRanks' ./internal/simnet

# Regenerate the committed capacity sweep (BENCH_simnet.json at the
# repo root): the PMS and Tanaka interconnect models from P=64 to
# P=1024, weak and strong scaling.
bench-simnet:
	BENCH_SIMNET=1 $(GO) test ./internal/bench -run TestWriteSimnetBaseline -count=1 -v -timeout 30m

# Regenerate the committed adaptive-resilience baseline
# (BENCH_adapt.json at the repo root): the fault-swept differential of
# the adaptive policy against the static checkpoint-cadence sweep. The
# run enforces the acceptance bars (within 5% of the best static in
# every cell, >= 20% better than the worst in at least one).
bench-adapt:
	BENCH_ADAPT=1 $(GO) test ./internal/bench -run TestWriteAdaptBaseline -count=1 -v

# The adaptive-resilience layer (estimator, cadence controller, writer
# selection, escalation ladder) runs inside every rank goroutine and
# the supervisor's monitor; keep it race-clean under repetition.
race-policy:
	$(GO) test -race -count=2 ./internal/policy ./internal/supervisor

# Regenerate the committed job-farm chaos baseline (BENCH_farm.json at
# the repo root): the full paper campaign — thousands of jobs, >= 20
# daemon SIGKILLs — with the zero-loss / zero-dup / bit-identity audit
# enforced.
bench-farm:
	BENCH_FARM=1 $(GO) test ./internal/bench -run TestWriteFarmBaseline -count=1 -v

# The farm daemon runs a worker pool, retry timers, an HTTP server, and
# chaos injection against one mutex-guarded state machine; hammer it
# (and the quick subprocess chaos campaign) under the race detector.
race-farm:
	$(GO) test -race -count=1 ./internal/farm \
		&& $(GO) test -race -count=1 ./internal/bench -run TestFarmbenchChaos

# The pseudospectral solvers run flop recording and the distributed
# transpose inside rank goroutines; put the package plus its transform
# substrate under the race detector.
race-spectral:
	$(GO) test -race -count=1 \
		./internal/spectral ./internal/fft

# Regenerate the committed serial-vs-slab spectral baseline
# (BENCH_spectral.json at the repo root). Bit-identity between the
# one-rank reference and every slab run is enforced before any number
# is written.
bench-spectral:
	BENCH_SPECTRAL=1 $(GO) test ./internal/bench -run TestWriteSpectralBaseline -count=1 -v -timeout 30m

# Microbenchmark the FFT kernels: the legacy all-radix-2 ladder vs the
# mixed-radix Stockham planner at matched lengths, and the 2N-vs-3N/2
# de-aliasing row comparison behind the padded-pipeline speedup. Attach
# a profile with ARGS="-cpuprofile fft.pprof".
bench-fft:
	$(GO) run ./cmd/fftbench $(ARGS)

check: build vet fmt race race-ckpt race-simnet race-policy race-farm race-spectral
