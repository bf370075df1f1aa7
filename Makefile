# Development targets for the basrpt reproduction.

GO ?= go

.PHONY: all build test race vet bench bench-pins trace-smoke ops-smoke soak cover experiments stability fuzz scenarios doccheck clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The second line reruns the shard-determinism tests with 4 Ps. -count=1
# keeps the test cache, which does not key on GOMAXPROCS, from answering
# it with a result recorded at another GOMAXPROCS.
race:
	$(GO) test -race ./...
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'TestRunShardDecomposed|TestRunShardBatch|TestRunShardWorkerPool' ./internal/fabricsim/

vet:
	gofmt -l . && $(GO) vet ./...

# The repository's benchmark: both fabric engines on the four workloads
# BENCHMARK.json declares, digest-checked, end-to-end plus per-layer
# (see bench/README.md). The Go microbenchmarks stay reachable as
# `go test -bench . -benchmem ./...`.
bench:
	bash bench/run.sh

# The benchmark's digest gate without its timing budget: every workload
# at its full horizon, one warm-up plus three repetitions, no per-layer
# pass. Exits 1 when any repetition's digest differs from its workload's
# pin (about a minute on 2 vCPUs).
bench-pins:
	bash bench/run.sh -seconds 0 -trace 0

# Trace-export smoke check: two fixed-seed traced runs must produce
# byte-identical JSONL (the determinism contract CI also enforces).
trace-smoke:
	$(GO) run ./cmd/basrptsim -racks 2 -hosts 3 -duration 0.3 -load 0.6 \
		-seed 42 -trace trace_smoke_a.jsonl
	$(GO) run ./cmd/basrptsim -racks 2 -hosts 3 -duration 0.3 -load 0.6 \
		-seed 42 -trace trace_smoke_b.jsonl
	cmp trace_smoke_a.jsonl trace_smoke_b.jsonl
	@echo "trace determinism OK: $$(wc -c < trace_smoke_a.jsonl) bytes, byte-identical across runs"

# Live-ops smoke: start a sharded and a centralized run with -ops, poll
# /metrics and /progress mid-flight and assert they are well-formed (each
# engine feeds its own heartbeat), then validate the -timeline Chrome
# trace_event export. Artifacts land in ops_smoke_out/ (kept on failure
# for the CI upload).
ops-smoke:
	bash scripts/ops_smoke.sh

# Checkpoint/restore soak: halt runs at a mid-run checkpoint, resume in a
# fresh process, and require byte-identical summaries and traces versus
# the uninterrupted runs — per seed, with and without fault injection.
# Artifacts land in soak_out/ (kept on failure for the CI upload).
soak:
	bash scripts/soak.sh

cover:
	$(GO) test -cover ./...

# Print the theory experiments (Figure 1, Theorem 1, DTMC, the exact-vs-
# fast ablation, the distributed emulation). The fabric experiments are
# the scenario specs: `make scenarios`.
experiments:
	$(GO) run ./cmd/basrptbench -exp all

# The long-horizon stability showcase behind Figures 2 and 5(b): SRPT vs
# fast BASRPT at 92% load with a 30% query share for 120 simulated
# seconds (about 4 minutes of wall time per arm). Each arm writes its
# time series to stability_out/<arm>_{queue,maxport,total_backlog,throughput}.csv.
stability:
	mkdir -p stability_out
	$(GO) run ./cmd/basrptsim -scheduler srpt -load 0.92 -queryfrac 0.3 -racks 2 -hosts 6 \
		-duration 120 -series stability_out/srpt
	$(GO) run ./cmd/basrptsim -scheduler fast-basrpt -load 0.92 -queryfrac 0.3 -racks 2 -hosts 6 \
		-duration 120 -series stability_out/fast

# Scenario-library regression gate: rerun every spec under scenarios/ and
# byte-compare the regenerated findings.json + FINDINGS.md against the
# committed files (they are byte-deterministic at any -parallel value).
# On mismatch the regenerated artifacts land under scenario_out/ for the
# CI upload.
scenarios:
	$(GO) run ./cmd/basrptexp -check -dir scenarios -out scenario_out

# Documentation lint: package comments everywhere, command comments on
# every cmd, and doc comments on every exported symbol of the packages
# other code consumes (scenario, obs, ops, fabricsim, sched, flow).
doccheck:
	bash scripts/doccheck.sh

# Short fuzzing passes over the parsing-adjacent substrates, plus the
# flow table against its dense reference model.
fuzz:
	$(GO) test -fuzz FuzzGreedyMaximal -fuzztime 15s ./internal/matching/
	$(GO) test -fuzz FuzzHungarianFeasible -fuzztime 15s ./internal/matching/
	$(GO) test -fuzz FuzzEmpiricalCDFRoundTrip -fuzztime 15s ./internal/stats/
	$(GO) test -fuzz FuzzPercentile -fuzztime 15s ./internal/stats/
	$(GO) test -fuzz FuzzFaultSchedule -fuzztime 15s ./internal/faults/
	$(GO) test -fuzz FuzzReadTrace -fuzztime 15s ./internal/trace/
	$(GO) test -fuzz FuzzCheckpointLoad -fuzztime 15s ./internal/checkpoint/
	$(GO) test -fuzz FuzzParseSpec -fuzztime 15s ./internal/scenario/
	$(GO) test -fuzz FuzzShardRouting -fuzztime 15s ./internal/fabricsim/
	$(GO) test -fuzz FuzzTableAgainstDense -fuzztime 15s ./internal/flow/

clean:
	$(GO) clean ./...
	rm -rf internal/matching/testdata internal/stats/testdata internal/faults/testdata \
		internal/trace/testdata internal/checkpoint/testdata internal/scenario/testdata \
		internal/fabricsim/testdata internal/flow/testdata \
		soak_out scenario_out ops_smoke_out stability_out
	rm -f trace_smoke_a.jsonl trace_smoke_b.jsonl
