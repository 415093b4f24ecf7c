# Development entry points for the mpmb repository.

GO ?= go

.PHONY: all build test test-race cover bench bench-compare microbench fuzz vet fmt loc experiments clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

# Benchmark trajectory: time the flat-memory OS trial kernel against the
# frozen seed baseline on the pinned corpora (headline + secondary) and
# write BENCH_core.json (kernel/seed ns per trial, allocations, prune and
# prefix-fallback effectiveness, speedup).
bench:
	$(GO) run ./cmd/mpmb-bench perf -bench-out BENCH_core.json -secondary

# Re-run the core micro-benchmarks and diff them against the committed
# baseline. Uses benchstat when it is on PATH; otherwise degrades to
# printing the raw old/new numbers side by side (no network install is
# attempted, so this works offline).
BENCH_BASELINE := internal/core/testdata/bench_baseline.txt
bench-compare:
	$(GO) test -run '^$$' -bench . -benchmem -count 3 ./internal/core/ | tee /tmp/bench_new.txt
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat $(BENCH_BASELINE) /tmp/bench_new.txt; \
	else \
		echo "benchstat not installed; raw comparison below (install golang.org/x/perf/cmd/benchstat for statistics)"; \
		echo "--- baseline ($(BENCH_BASELINE)) ---"; \
		grep '^Benchmark' $(BENCH_BASELINE) || true; \
		echo "--- new (/tmp/bench_new.txt) ---"; \
		grep '^Benchmark' /tmp/bench_new.txt || true; \
	fi

# All go-test micro-benchmarks (per paper table/figure plus ablations).
microbench:
	$(GO) test -bench=. -benchmem ./...

# Brief fuzzing sessions over both graph parsers, and the text parser
# against its frozen string-based reference.
fuzz:
	$(GO) test ./internal/bigraph/ -run '^FuzzRead$$' -fuzz '^FuzzRead$$' -fuzztime=30s
	$(GO) test ./internal/bigraph/ -run '^FuzzReadBinary$$' -fuzz '^FuzzReadBinary$$' -fuzztime=30s
	$(GO) test ./internal/bigraph/ -run '^FuzzReadMatchesReference$$' -fuzz '^FuzzReadMatchesReference$$' -fuzztime=30s

vet:
	$(GO) vet ./...

fmt:
	gofmt -l -w .

# Non-test Go line counts, the net size ROADMAP.md tracks: the root
# module (perfbench is its own module) and the perfbench harness.
# Hidden directories (build caches) are skipped.
loc:
	@printf 'root module: '; find . \( -path ./perfbench -o -path './.*' \) -prune -o -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l
	@printf 'perfbench:   '; find perfbench -path 'perfbench/.*' -prune -o -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l

# Regenerate every paper table and figure (laptop-scaled defaults).
experiments:
	$(GO) run ./cmd/mpmb-bench -exp all

clean:
	$(GO) clean ./...
