# Developer and CI entry points for rvpsim. `make ci` is the gate a
# change must pass: formatting, vet, build, the full test suite under
# the race detector, and the cross-run determinism check.

GO ?= go

.PHONY: all ci vet build test race determinism lockstep bench-smoke fmt-check fuzz-smoke faults staticcheck govulncheck serve-smoke obs-smoke storage-faults fsck-smoke sync-vet pgo release

all: ci

ci: fmt-check vet sync-vet staticcheck govulncheck build race determinism faults storage-faults fuzz-smoke bench-smoke serve-smoke obs-smoke fsck-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

determinism:
	$(GO) test -run 'TestDeterminism|TestCheckpointDeterminism' ./...

# Differential validation: run the timing pipeline and the reference
# emulator in lockstep over all nine workloads under every recovery
# scheme; any divergence in the committed stream or architectural state
# fails the target.
lockstep:
	$(GO) test -race -run TestLockstepAllWorkloads ./internal/lockstep/ -count 1

# The benchmark is perfbench (BENCHMARK.json; see perfbench/README.md).
# CI runs perfbench's own unit tests — it is a separate module, so the
# root `go test ./...` never reaches them — then one short pass of each
# workload. perfbench exits 0 even when simulated cells fail its result
# check, so the target fails unless each run's last line reports
# "correct":true and "failed":0.
bench-smoke:
	cd perfbench && $(GO) test ./...
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for w in repro ffsweep bigcode; do \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 > "$$tmp/$$w.out"; \
		last=$$(tail -n 1 "$$tmp/$$w.out"); \
		echo "$$w: $$last"; \
		echo "$$last" | grep -q '"correct":true' && echo "$$last" | grep -Eq '"failed":0[,}]' || \
			{ echo "bench-smoke: $$w reported incorrect or failed cells"; exit 1; }; \
	done; \
	echo "bench-smoke OK"

# Short fuzzing pass: 30s per native fuzz target. Long exploratory runs
# stay manual (go test -fuzz FuzzAssemble -fuzztime 10m ./internal/asm).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzAssemble -fuzztime 30s ./internal/asm
	$(GO) test -run '^$$' -fuzz FuzzEncodeDecode -fuzztime 30s ./internal/isa
	$(GO) test -run '^$$' -fuzz FuzzJobRequest -fuzztime 30s ./internal/server

# Static analysis and vulnerability scanning, gated on tool presence:
# the build container ships only the go toolchain, so missing tools are
# reported and skipped rather than failing ci.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# End-to-end smoke of the service binaries: boot rvpd on an ephemeral
# port, probe health through rvpc, run one small job to completion, and
# shut the daemon down with SIGTERM. No curl, no fixed ports.
serve-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/rvpd" ./cmd/rvpd; \
	$(GO) build -o "$$tmp/rvpc" ./cmd/rvpc; \
	"$$tmp/rvpd" -addr 127.0.0.1:0 -addr-file "$$tmp/addr" -state "$$tmp/state" & pid=$$!; \
	for i in $$(seq 1 100); do [ -s "$$tmp/addr" ] && break; sleep 0.1; done; \
	[ -s "$$tmp/addr" ] || { echo "rvpd never wrote its address"; kill $$pid; exit 1; }; \
	addr="http://$$(cat "$$tmp/addr")"; \
	"$$tmp/rvpc" -server "$$addr" health; \
	"$$tmp/rvpc" -server "$$addr" submit -wait -workload go -predictor rvp -n 200000; \
	kill -TERM $$pid; wait $$pid; \
	echo "serve-smoke OK"

# Observability smoke against a live daemon: watch a job's live event
# stream end to end (queued -> started -> progress heartbeats -> done)
# and pull the merged client+server trace, asserting the cross-process
# spans (client submit, daemon admission and simulation) all landed in
# one Chrome trace file.
obs-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/rvpd" ./cmd/rvpd; \
	$(GO) build -o "$$tmp/rvpc" ./cmd/rvpc; \
	"$$tmp/rvpd" -addr 127.0.0.1:0 -addr-file "$$tmp/addr" -state "$$tmp/state" -progress-every 50000 & pid=$$!; \
	for i in $$(seq 1 100); do [ -s "$$tmp/addr" ] && break; sleep 0.1; done; \
	[ -s "$$tmp/addr" ] || { echo "rvpd never wrote its address"; kill $$pid; exit 1; }; \
	addr="http://$$(cat "$$tmp/addr")"; \
	"$$tmp/rvpc" -server "$$addr" submit -watch -workload go -predictor rvp -n 200000 \
		-trace-out "$$tmp/trace.json" | tee "$$tmp/watch.log"; \
	for ev in queued started progress done; do \
		grep -q "$$ev" "$$tmp/watch.log" || { echo "watch stream missing $$ev event"; kill $$pid; exit 1; }; \
	done; \
	for span in submit admission queue_wait worker "sim:go/"; do \
		grep -q "$$span" "$$tmp/trace.json" || { echo "merged trace missing $$span span"; kill $$pid; exit 1; }; \
	done; \
	kill -TERM $$pid; wait $$pid; \
	echo "obs-smoke OK"

# Fault-injection invariant suite: recovery schemes must never commit a
# wrong value and must terminate under injected latency/flip/panic faults.
faults:
	$(GO) test -race ./internal/faultinject/ -run . -count 1

# Hostile-storage suite under the race detector: the crash-at-every-
# syscall harness over every durable store, the shared torn/corrupt-tail
# conformance matrix, the vfs fault injector's own tests, and the
# ENOSPC-degradation e2e for the daemon.
storage-faults:
	$(GO) test -race -count 1 ./internal/vfs/ ./internal/wal/ ./internal/wal/waltest/
	$(GO) test -race -count 1 -run 'TornTailMatrix|ENOSPC' ./internal/server/ ./internal/exp/

# Durability-layer errcheck: no discarded Sync/SyncDir/Close error in
# the packages that own persistent state or pooled connections.
sync-vet:
	$(GO) test -count 1 ./internal/tools/syncvet/

# Offline-scrub smoke through the shipped binary: a torn WAL tail and a
# garbage checkpoint must be detected (exit 1), repaired / quarantined
# on request, and leave a state dir fsck then calls clean (exit 0).
fsck-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/rvpadmin" ./cmd/rvpadmin; \
	mkdir -p "$$tmp/state"; \
	printf '{"crc":1,"rec":{"torn' > "$$tmp/state/cells.jsonl"; \
	printf 'not a checkpoint' > "$$tmp/state/bad.ckpt"; \
	if "$$tmp/rvpadmin" fsck "$$tmp/state" >/dev/null; then \
		echo "fsck missed the damage"; exit 1; fi; \
	"$$tmp/rvpadmin" fsck -repair -quarantine "$$tmp/q" "$$tmp/state" >/dev/null; \
	"$$tmp/rvpadmin" fsck "$$tmp/state" >/dev/null; \
	[ -f "$$tmp/q/bad.ckpt.corrupt" ] || { echo "checkpoint not quarantined"; exit 1; }; \
	echo "fsck-smoke OK"

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Profile-guided optimization. `make pgo` captures a CPU profile of what
# users run, the cmd/experiments sweep at a reduced budget, into
# default.pgo; `make release` then builds the binaries with that profile
# applied. The profile is a local artifact (gitignored): release falls
# back to a plain build when it is absent, so CI stays hermetic.
pgo:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/experiments -n 50000 -workers 2 -pprof "$$tmp" > /dev/null; \
	cp "$$tmp/cpu.pprof" default.pgo; \
	echo "wrote default.pgo; run 'make release' to build with it"

release:
	@mkdir -p bin
	@if [ -f default.pgo ]; then \
		echo "building with profile-guided optimization (default.pgo)"; \
		$(GO) build -pgo=default.pgo -o bin/ ./cmd/...; \
	else \
		echo "default.pgo not found; plain build (run 'make pgo' first to enable PGO)"; \
		$(GO) build -o bin/ ./cmd/...; \
	fi
