GO ?= go

.PHONY: all build test vet fmt-check race bench bench-miss bench-exec bench-serve bench-compose bench-e2e cover check doccheck metriccheck

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Fails when any file needs gofmt.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Every package under the race detector, once. Two suites race by design
# and run four times: the composer's seal paths (window timer, batch,
# cohort, stop — and internal/compose/serve, which drives those seals
# through Submit), and plan admission (a worker's claim against the
# submitter's abandon, Stop against Submit).
race:
	$(GO) test -race ./...
	$(GO) test -race -count=4 ./internal/compose/... ./internal/plan/serve

# Documentation hygiene: formatting, vet, and a go/ast walk asserting that
# every exported identifier in the execution-facing packages carries a doc
# comment (tools/doccheck).
doccheck: vet fmt-check
	$(GO) run ./tools/doccheck ./internal/orchestrator ./internal/orchestrator/resilience \
		./internal/workflow ./internal/testbed \
		./internal/controller ./internal/controller/reconcile ./internal/changelog \
		./internal/plan/serve ./internal/plan/cache ./internal/plan/engine ./internal/plan/decompose \
		./internal/plan/solver ./internal/compose ./internal/compose/serve \
		./internal/obs/events ./internal/obs/slo ./internal/obs/tenants

# Metrics-naming hygiene: a go/ast walk asserting that every cornet_*
# metric registered in code is documented in the README's observability
# tables (tools/metriccheck).
metriccheck:
	$(GO) run ./tools/metriccheck ./internal ./cmd

cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

bench:
	$(GO) test -run '^$$' -bench BenchmarkPlannerScale -benchtime 1x -benchmem .
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./internal/plan/...

# One warm-seeded plan miss in process (plan_miss without the HTTP): ns/op,
# B/op and allocs/op of parse -> translate -> fingerprint -> warm-seed scan
# -> one-node solve -> cache put. The probe behind DESIGN §13's cost table.
bench-miss:
	$(GO) test -run '^$$' -bench BenchmarkMiss -benchmem -count 5 ./internal/plan/serve

# The execution path in process (exec_plain / exec_composed without the
# HTTP): one three-block Engine.Execute, one Dispatcher.Run of 24 changes,
# and the workflow-vs-event-driven ablation. TestExecuteAllocBudget and
# TestDispatch24AllocBudget pin the first two's allocs/op.
bench-exec:
	$(GO) test -run '^$$' -bench 'BenchmarkExecute|BenchmarkDispatch24|BenchmarkEventVsWorkflow' -benchmem -count 5 ./internal/orchestrator

# Quick serving-layer smoke: cache hit speedup, warm-start seeding, and
# overload shedding against their acceptance bars. Overwrites
# BENCH_serve.json in the working tree (quick numbers; don't commit them
# as the baseline — see EXPERIMENTS.md for the refresh procedure).
bench-serve:
	$(GO) run ./cmd/cornet-bench -exp bench-serve -quick

# Quick composition smoke: K concurrent market-scoped changes must merge
# into one solve at union-identical cost; conflicting rivals queue and
# complete. Overwrites BENCH_compose.json with quick numbers — the
# committed baseline comes from the full form (see EXPERIMENTS.md).
bench-compose:
	$(GO) run ./cmd/cornet-bench -exp bench-compose -quick

# The end-to-end benchmark of cornetd over real HTTP: all four workloads,
# untraced and traced (~3 min, needs 2 CPUs). Appends to
# bench/out/results.json; compare two such files with
# `go run ./bench -compare A.json B.json` (see bench/README.md).
bench-e2e:
	$(GO) run ./bench

check: build vet fmt-check test race doccheck metriccheck
