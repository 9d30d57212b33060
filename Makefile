# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all check test race bench bench-check samples samples-check gobench repro examples lines doclines allows fmt vet lint cover cover-check shuffle mutants

all: check

# The full gate: static analysis plus the test suite under the race
# detector (the wall-clock backends and the span tracer are concurrent).
check: vet lint race

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Shuffled test order: inter-test state leaks (shared package globals, leaked
# goroutines, order-dependent registries) surface as flakes here first.
shuffle:
	$(GO) test -shuffle=on ./...

# Benchmark-regression harness: rerun every row of the experiment table
# (bench/experiments.go) that has a Measure and refresh its committed
# BENCH_<name>.json baseline. The rows' design gates are checked either way.
bench:
	$(GO) run ./cmd/benchreg

# Verify a fresh run against the committed baselines. Simulated time is
# deterministic, so CI demands bit-exact reproduction (-tol 0); use
# `go run ./cmd/benchreg -check -tol 0.05` manually for a looser gate.
bench-check:
	$(GO) run ./cmd/benchreg -check -tol 0

# Sample outputs, generated from the same table: docs/sample-output/NAME.txt
# is `hambench -exp NAME` (a file that names no row fails the run; a row
# without a file fails bench's table test), except the three named below
# (veinfo-json pins the registry snapshot format of `veinfo -json`): 20 files,
# calibration.txt among them, the paper's numbers against their bands.
# `samples` rewrites every file, `samples-check` fails on any byte of drift.
SAMPLES := docs/sample-output
BUILD := .bench_build

samples samples-check:
	@mkdir -p $(BUILD) && $(GO) build -o $(BUILD)/hambench ./cmd/hambench
	@set -e; for f in $(SAMPLES)/*.txt; do \
		exp=$$(basename $$f .txt); \
		case $$exp in \
		fig9-socket1) cmd="$(BUILD)/hambench -exp fig9 -socket 1" ;; \
		tables-1-and-3) cmd="$(GO) run ./cmd/veinfo" ;; \
		veinfo-json) cmd="$(GO) run ./cmd/veinfo -json" ;; \
		*) cmd="$(BUILD)/hambench -exp $$exp" ;; \
		esac; \
		$$cmd > $(BUILD)/fresh.txt 2> $(BUILD)/fresh.err || { cat $(BUILD)/fresh.err >&2; exit 1; }; \
		if [ $@ = samples ]; then cp $(BUILD)/fresh.txt $$f; \
		else cmp $(BUILD)/fresh.txt $$f || { echo "$$f: drifted from \`$$cmd\`; run \`make samples\` if intended" >&2; exit 1; }; fi; \
	done; \
	echo "$@: $$(ls $(SAMPLES)/*.txt | wc -l) sample outputs"

gobench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every paper artefact (Fig. 9, Fig. 10, Table IV, ablations).
repro:
	$(GO) run ./cmd/veinfo
	$(GO) run ./cmd/hambench -exp all

# Every examples/* program, built once and run: each verifies itself against
# a host reference. Tier-1 (`go test ./...`) runs the same test without -v.
examples:
	$(GO) test -count=1 -run TestExamples -v .

# Non-test Go lines outside bench/perf: the size ROADMAP aim 2 ("the least
# code") and its universal gate track.
lines:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/perf/*' | xargs cat | wc -l

# Lines and bytes of the user-facing documents — README, DESIGN, EXPERIMENTS
# and docs/*.md — the doc size ROADMAP aim 2 tracks beside `lines`.
DOCS := README.md DESIGN.md EXPERIMENTS.md $(wildcard docs/*.md)

doclines:
	@echo "$$(cat $(DOCS) | wc -l) lines, $$(cat $(DOCS) | wc -c) bytes"

# Lines of .go files that carry //lint:allow: the count ROADMAP's gate "adds
# no net new //lint:allow" compares. It fails above ALLOWS_MAX, which a change
# lowers when it removes an allow and never raises.
ALLOWS_MAX := 43

allows:
	@n=$$(grep -r --include='*.go' '//lint:allow' . | wc -l); echo $$n; \
	if [ $$n -gt $(ALLOWS_MAX) ]; then echo "allows: $$n lines carry //lint:allow, more than ALLOWS_MAX = $(ALLOWS_MAX)" >&2; exit 1; fi

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

# Repository-specific invariants (DES clock, span nesting, deterministic
# output, unit types) — see docs/LINTING.md.
lint:
	$(GO) run ./cmd/hamlint ./...

cover:
	$(GO) test -cover ./...

# The mutant table (internal/mutants/mutants.txt): each row's edit, applied
# through -overlay, must fail its test pattern or make its analyzer report.
# Prints killed or SURVIVED per row; fails on any survivor.
mutants:
	$(GO) run ./internal/mutants

# Coverage-regression harness: fail if the guarded packages (gateway, sched,
# internal/core) fall below the floors recorded in COVER_baseline.txt.
# Refresh the floors with `go run ./cmd/coverreg`.
cover-check:
	$(GO) run ./cmd/coverreg -check
