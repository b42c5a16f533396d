#!/bin/sh
# ci.sh — the tier-1 gate. Every PR must pass this script unchanged.
#
#   build      the whole module compiles
#   go vet     the stock Go checks
#   hostbench  `go vet` of the host benchmark in _hostbench, a module of
#              its own that `./...` skips, so an API change cannot
#              break the benchmark unnoticed; offline, writes no go.sum
#   m3vet      the repo's own determinism & isolation linter, including
#              the interprocedural passes (sharedstate, timetaint,
#              capflow); known-accepted findings are suppressed by
#              vet-baseline.json and the shared-state inventory is kept
#              as artifacts/sharedstate.json (see docs/ANALYSIS.md)
#   tests      the full suite under the race detector — any data race
#              would mean the sim's strict goroutine hand-off is broken
#              — with shuffled test order, so no test can silently
#              depend on a sibling running first
#   chaos      the fault-injection tier: determinism under faults, the
#              isolation-survives-failure matrix, service crash
#              recovery, and the chaos-overload tier — graceful
#              degradation under open-loop overload (docs/FAULTS.md,
#              docs/RECOVERY.md, docs/OVERLOAD.md)
#   fuzz       a short smoke over the fault-plan and journal decoders
#   bench      the bench regression gate: the smoke experiment subset
#              (with run captures bundled) diffed against the committed
#              BENCH_4.json baseline; the JSON artifact and the
#              machine-readable regression attribution are kept under
#              artifacts/ — bench-smoke.json and diff-report.json —
#              for inspection (docs/EXPERIMENTS.md)
#   diff       the attribution self-test: a seeded +10% kernel
#              dispatch-cost perturbation must be attributed to the
#              kernel layer by m3diff, with byte-stable reports
#              (docs/OBSERVABILITY.md)
#   slo        the SLO regression gate: the m3slo attribution report
#              over the tier-1 workload, byte-compared against the
#              committed SLO_0.json golden (docs/OBSERVABILITY.md)
set -eux

go build ./...
go vet ./...
(cd _hostbench && GOFLAGS=-mod=mod GOPROXY=off GOWORK=off go vet .)
go run ./cmd/m3vet -json artifacts/sharedstate.json ./...
go test -race -shuffle=on ./...
make chaos
make fuzz
make bench-smoke
make diff-smoke
make slo-smoke
