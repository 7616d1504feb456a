# Repo checks. `make check` is the full CI gate; the individual targets
# exist so a failing stage can be rerun alone.
#
#   make fmt    gofmt -s diff check (fails listing unformatted files)
#   make vet    go vet
#   make lint   ringlint, the repo-specific static analyzers (hotpath,
#               derivedstate, truncation, viewsafe, guardedby, golife,
#               refpair, syncio, ctxflow) over the whole module, with
#               per-analyzer wall times
#   make lint-only ONLY=<a,b>  a subset of the analyzers (iterating on
#               one analyzer or an annotation pass); an unknown name
#               fails
#   make build  compile everything
#   make cross  compile everything for macOS (arm64) and Windows (amd64):
#               file mapping is Linux-only, every other platform takes
#               the file-read fallback
#   make test   full test suite, shuffled (includes the fuzz seed corpora)
#   make test-debug  the root package and the internal packages with the
#               ringdebug assertion tag (rank/select inverses, wavelet range
#               sanity, leap ordering, the binds normal builds elide, every
#               replayed lonely enumeration re-run and compared)
#   make race   race-detector lane over the full module (~4m on a
#               single-CPU container; rerun alone when iterating)
#   make bench-smoke      compile-and-run every benchmark once (catches
#                         bit-rotted benchmarks without paying full runs)
#   make serve-smoke      end-to-end ringserve smoke: build, index,
#                         ringstats layout, serve the mapped file, a join
#                         checked against awk, mapped-load metrics,
#                         overload shedding, SIGTERM drain, restart
#   make persist-smoke    end-to-end live-update smoke: insert over HTTP,
#                         SIGKILL, recover from the WAL, drain with a
#                         final checkpoint, inspect with ringstats
#   make repl-smoke       end-to-end replication smoke: leader + follower,
#                         lag to zero, read-your-writes via X-Ring-Min-Seq,
#                         leader kill, promote, clean drain
#   make race-batch  batched lane (wavelet/ring/ltj) under -race with the
#               ringdebug assertions enabled
#   make bench-check  vet + test the nested benchmark module
#               (cmd/ringbench, its own go.mod over this module's
#               internal/* packages; ~10 s) — the root build and tests
#               do not compile it
#   make check  fmt + vet + lint + build + cross + test + test-debug +
#               race + race-batch + bench-smoke + bench-check +
#               serve-smoke + persist-smoke + repl-smoke; leaves the
#               tree clean

GO ?= go

.PHONY: check fmt vet lint lint-only build cross test test-debug race race-batch bench-smoke bench-check serve-smoke persist-smoke repl-smoke

check: fmt vet lint build cross test test-debug race race-batch bench-smoke bench-check serve-smoke persist-smoke repl-smoke

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

cross:
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	GOOS=windows GOARCH=amd64 $(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

test-debug:
	$(GO) test -tags ringdebug . ./internal/...

race:
	$(GO) test -race ./...

# Batched lane under the race detector with the ringdebug assertions on:
# the radix-intersection descents run with both their invariant checks
# and concurrency instrumentation.
race-batch:
	$(GO) test -race -tags ringdebug ./internal/wavelet ./internal/ring ./internal/ltj

bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

bench-check:
	cd cmd/ringbench && $(GO) vet ./... && $(GO) test ./...

serve-smoke:
	sh scripts/serve_smoke.sh

persist-smoke:
	sh scripts/persist_smoke.sh

repl-smoke:
	sh scripts/repl_smoke.sh
