# Repo checks. `make check` is the full CI gate; the individual targets
# exist so a failing stage can be rerun alone.
#
#   make fmt    gofmt -s diff check (fails listing unformatted files)
#   make vet    go vet
#   make lint   ringlint, the repo-specific static analyzers (hotpath,
#               derivedstate, forksafe, truncation, viewsafe, guardedby,
#               golife, refpair, syncio, ctxflow) over the whole module,
#               with per-analyzer wall times
#   make lint-only ONLY=<a,b>  a subset of the analyzers (iterating on
#               one analyzer or an annotation pass)
#   make build  compile everything
#   make test   full test suite, shuffled (includes the fuzz seed corpora)
#   make test-debug  internal packages with the ringdebug assertion tag
#               (rank/select inverses, wavelet range sanity, leap ordering,
#               the last-variable Bind normal builds skip)
#   make race   race-detector lane over the full module (~4m on a
#               single-CPU container; rerun alone when iterating)
#   make bench  the parallel-LTJ sweep benchmark, one iteration
#   make bench-smoke      compile-and-run every benchmark once (catches
#                         bit-rotted benchmarks without paying full runs)
#   make bench-substrate  the rank/select substrate microbenchmarks
#                         (bits, bitvector, wavelet, ring Leap/Bind);
#                         benchstat-friendly: set BENCH_COUNT>=10 to compare
#   make bench-mmap-load  cold-start load comparison, decode vs mmap
#                         (wall + peak RSS, fresh process per run),
#                         writing BENCH_mmap_load.json
#   make serve-smoke      end-to-end ringserve smoke: build, index, serve,
#                         query, overload shedding, SIGTERM drain
#   make persist-smoke    end-to-end live-update smoke: insert over HTTP,
#                         SIGKILL, recover from the WAL, drain with a
#                         final checkpoint, inspect with ringstats
#   make mmap-smoke       end-to-end zero-copy smoke: ringstats layout,
#                         decode-vs-mmap differential serving across a
#                         restart, live mode with view-loaded checkpoints
#   make repl-smoke       end-to-end replication smoke: leader + follower,
#                         lag to zero, read-your-writes via X-Ring-Min-Seq,
#                         leader kill, promote, clean drain
#   make race-batch  batched lane (wavelet/ring/ltj) under -race with the
#               ringdebug assertions enabled
#   make bench-check  vet + test the nested benchmark module
#               (cmd/ringbench, its own go.mod over this module's
#               internal/* packages; ~10 s) — the root build and tests
#               do not compile it
#   make check  fmt + vet + lint + build + test + test-debug + race +
#               race-batch + bench-smoke + bench-check + serve-smoke +
#               persist-smoke + mmap-smoke + repl-smoke; leaves the
#               tree clean

GO ?= go
BENCH_COUNT ?= 1

.PHONY: check fmt vet lint lint-only build test test-debug race race-batch bench bench-smoke bench-check bench-substrate bench-mmap-load serve-smoke persist-smoke mmap-smoke repl-smoke

check: fmt vet lint build test test-debug race race-batch bench-smoke bench-check serve-smoke persist-smoke mmap-smoke repl-smoke

fmt:
	@unformatted=$$(gofmt -s -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/ringlint -timing ./...

# Run a single analyzer while iterating on it or on annotations:
#   make lint-only ONLY=guardedby
#   make lint-only ONLY=refpair,syncio
lint-only:
	$(GO) run ./cmd/ringlint -timing -only $(ONLY) ./...

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

test-debug:
	$(GO) test -tags ringdebug ./internal/...

race:
	$(GO) test -race ./...

# Batched lane under the race detector with the ringdebug assertions on:
# the radix-intersection descents run with both their invariant checks
# and concurrency instrumentation.
race-batch:
	$(GO) test -race -tags ringdebug ./internal/wavelet ./internal/ring ./internal/ltj

bench:
	$(GO) test . -run XXX -bench 'BenchmarkParallelLTJ' -benchtime 1x

bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

bench-substrate:
	$(GO) test -run '^$$' -bench . -benchmem -count $(BENCH_COUNT) \
		./internal/bits ./internal/bitvector ./internal/wavelet ./internal/ring

bench-check:
	cd cmd/ringbench && $(GO) vet ./... && $(GO) test ./...

bench-mmap-load:
	$(GO) run ./cmd/benchload -json $(CURDIR)/BENCH_mmap_load.json

serve-smoke:
	sh scripts/serve_smoke.sh

persist-smoke:
	sh scripts/persist_smoke.sh

mmap-smoke:
	sh scripts/mmap_smoke.sh

repl-smoke:
	sh scripts/repl_smoke.sh
