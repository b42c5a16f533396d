# Convenience targets; `make ci` is the tier-1 gate (see ci.sh).

.PHONY: ci build test vet vet-fast vet-baseline bench bench-smoke bench-baseline diff-smoke slo-smoke slo-baseline chaos fuzz

ci:
	./ci.sh

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...
	go run ./cmd/m3vet ./...

# Syntactic rules only — skips the interprocedural fixpoint (call
# graph, effect summaries, taint) for quick local iteration.
vet-fast:
	go run ./cmd/m3vet -fast ./...

# Regenerate the committed suppression set from the current tree. The
# sharedstate keys in vet-baseline.json are the open shared-state
# inventory (docs/ANALYSIS.md); review the diff before committing — a
# new key is a new shared-state obligation.
vet-baseline:
	go run ./cmd/m3vet -write-baseline vet-baseline.json

bench:
	go test -bench=. -benchmem

# The bench regression gate: rerun the fast experiment subset with run
# captures bundled, keep the JSON artifact for inspection, and fail if
# any gated metric regressed past its tolerance against the committed
# baseline (BENCH_5.json, refresh with `make bench-baseline` when a
# change legitimately moves the numbers — see docs/EXPERIMENTS.md).
# When the gate is red, the diff attributes every regression via the
# two files' captures (layer/path cycle deltas, histogram shift, blame
# drift — docs/OBSERVABILITY.md) and the machine-readable attribution
# is retained as artifacts/diff-report.json. BENCH_0.json through
# BENCH_4.json are previous generations' baselines, kept for
# historical comparison.
bench-smoke:
	mkdir -p artifacts
	go run ./cmd/m3bench -e smoke -capture -json artifacts/bench-smoke.json >artifacts/bench-smoke.log
	go run ./cmd/m3bench -diff -report artifacts/diff-report.json BENCH_5.json artifacts/bench-smoke.json

bench-baseline:
	go run ./cmd/m3bench -e smoke -capture -json BENCH_5.json

# The attribution self-test: capture the tier-1 workload, re-capture
# with the kernel's syscall dispatch cost perturbed +10%, and require
# m3diff to attribute the regression to the kernel — top blame-drift
# category and a growing kernel profile layer — with byte-stable
# reports.
diff-smoke:
	go run ./cmd/m3diff -selftest

# The SLO regression gate: run the critical-path attribution + SLO
# report (cmd/m3slo) over the tier-1 workload and require the JSON
# report — every blame cell, exemplar span tree, and burn rate — to be
# byte-identical to the committed SLO_0.json golden. The report is
# deterministic by construction (docs/OBSERVABILITY.md), so any diff
# is a real behavior change; refresh with `make slo-baseline` when a
# change legitimately moves the attribution.
slo-smoke:
	mkdir -p artifacts
	go run ./cmd/m3slo -w tar -json artifacts/slo-smoke.json >artifacts/slo-smoke.log
	diff -u SLO_0.json artifacts/slo-smoke.json

slo-baseline:
	go run ./cmd/m3slo -w tar -json SLO_0.json

# The chaos tier: determinism under fault injection plus the workload
# matrix that proves isolation survives packet loss, PE crashes, and —
# with the supervisor armed — service crashes that must recover
# (docs/FAULTS.md, docs/RECOVERY.md), plus the chaos-overload tier:
# graceful degradation, kernel shedding, deadline expiry, and the
# zero-overhead-when-off bit-identity proof (docs/OVERLOAD.md).
# Race-enabled — fault events must not break the engine's strict
# hand-off.
chaos:
	go test -race -run 'TestFaultDeterminism|TestChaosMatrix|TestObsChaosStreamDeterministic|TestFlightDump|TestOverload' ./internal/bench

# Short fuzz smoke over the decoders of on-disk input — the fault-plan
# parser, the m3fs metadata journal, the bench-file reader and the
# run-capture reader — plus the event-queue cross-check (calendar
# queue vs a test-only reference heap, pop order). The full fuzzers
# run for as long as you let them: go test -fuzz FuzzFaultPlan
# ./internal/fault, go test -fuzz FuzzJournal ./internal/m3fs,
# go test -fuzz FuzzReadBenchJSON ./internal/bench,
# go test -fuzz FuzzReadCaptureJSON ./internal/obs,
# go test -fuzz FuzzEventQueue ./internal/sim.
fuzz:
	go test -run '^$$' -fuzz FuzzFaultPlan -fuzztime 10s ./internal/fault
	go test -run '^$$' -fuzz FuzzJournal -fuzztime 10s ./internal/m3fs
	go test -run '^$$' -fuzz FuzzReadBenchJSON -fuzztime 10s ./internal/bench
	go test -run '^$$' -fuzz FuzzReadCaptureJSON -fuzztime 10s ./internal/obs
	go test -run '^$$' -fuzz FuzzEventQueue -fuzztime 10s ./internal/sim
