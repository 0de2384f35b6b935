GO ?= go

.PHONY: all build test vet bench bench-save bench-cmp experiments examples cover clean \
        test-oracle fuzz

# Flags shared by bench and bench-save so saved baselines stay comparable.
# BENCHCOUNT=3 matches the methodology recorded in the BENCH_*.json
# files: scripts/benchcmp keeps the per-benchmark minimum ns/op across
# the repeats, which damps scheduler noise on shared runners. Use
# BENCHCOUNT=1 for a quick look.
BENCHCOUNT ?= 3
BENCHFLAGS ?= -run='^$$' -bench=. -benchmem -benchtime=200ms -count=$(BENCHCOUNT)

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: vet
	$(GO) test -race ./...

bench:
	$(GO) test $(BENCHFLAGS) .

# The differential & metamorphic suite: internal/core cross-checked
# against the naive paper-literal oracles (docs/TESTING.md). SEED and
# PAIRS feed the suite's own flags; add ORACLEFLAGS=-quickchecks for the
# 4x sweep with larger shapes.
SEED ?= 1
PAIRS ?= 520
ORACLEFLAGS ?=
test-oracle:
	$(GO) test ./internal/oracle -v -run 'Differential|Law' \
		-args -seed $(SEED) -pairs $(PAIRS) $(ORACLEFLAGS)

# Short-budget native fuzzing of every target (seed corpora are in
# testdata/fuzz/). Go runs one -fuzz pattern at a time, so loop.
FUZZTIME ?= 10s
FUZZTARGETS ?= FuzzParseLTL FuzzParseSystem FuzzParseHom FuzzCheckAll FuzzCheckFairAbstract FuzzCheckStatistical FuzzRbarPreservation FuzzServeRequest FuzzAntichainInclusion
fuzz:
	@for t in $(FUZZTARGETS); do \
		echo "== $$t"; \
		$(GO) test -run='^$$' -fuzz="^$$t$$" -fuzztime=$(FUZZTIME) . || exit 1; \
	done

# Save a benchmark baseline to compare against after a change:
#   make bench-save OUT=bench_before.txt
#   ...edit...
#   make bench-save OUT=bench_after.txt
#   make bench-cmp BEFORE=bench_before.txt AFTER=bench_after.txt
OUT ?= bench_baseline.txt
bench-save:
	$(GO) test $(BENCHFLAGS) . | tee $(OUT)

# THRESHOLD, when set, makes the comparison fail (exit 1) if any
# benchmark regresses below it, e.g. make bench-cmp THRESHOLD=0.90.
# JSON=1 emits the comparison as one JSON object (per-benchmark ratios,
# both geomeans, worst, gate verdict) instead of the table; the exit status
# gates identically.
BEFORE ?= bench_before.txt
AFTER  ?= bench_after.txt
THRESHOLD ?=
JSON ?=
bench-cmp:
	./scripts/benchcmp $(if $(JSON),-json) $(if $(THRESHOLD),-threshold $(THRESHOLD)) $(BEFORE) $(AFTER)

# Reproduce every figure and claim of the paper (EXPERIMENTS.md source).
experiments:
	$(GO) run ./cmd/rlbench

experiments-md:
	$(GO) run ./cmd/rlbench -md

# Run every example (and the portfolio sections behind -parallel) and
# diff what each prints against examples/testdata/, durations and the
# worker count masked.
examples:
	./scripts/checkexamples

cover:
	$(GO) test ./internal/... -coverprofile=cover.out
	$(GO) tool cover -func=cover.out | tail -1

clean:
	rm -f cover.out test_output.txt bench_output.txt
