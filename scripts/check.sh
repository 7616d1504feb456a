#!/bin/sh
# CI gate: formatting, vet, the repo-specific ringlint analyzers, build,
# shuffled tests, the ringdebug assertion lane, the full-module
# race-detector lane (~4m on a single-CPU container), a
# compile-and-smoke pass over every benchmark (one iteration each), vet
# and tests of the nested benchmark module (cmd/ringbench), the
# end-to-end ringserve smoke (query, overload shedding, SIGTERM drain),
# the live-update persistence smoke (insert, SIGKILL, WAL recovery,
# checkpointed drain), the zero-copy mmap smoke (layout inspection,
# decode-vs-mmap differential serving, live mode with view-loaded
# checkpoints), and the replication smoke (leader + follower, lag to
# zero, read-your-writes via X-Ring-Min-Seq, leader kill + promote).
# Equivalent to `make check`; kept as a script for environments
# without make.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -s"
unformatted=$(gofmt -s -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:"
    echo "$unformatted"
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== ringlint"
# Fails fast (set -eu) before the build/test lanes; -timing prints the
# per-analyzer wall times of the parallel run. RINGLINT_JSON=path makes
# the findings+timings report machine readable for CI artifacts.
if [ -n "${RINGLINT_JSON:-}" ]; then
    go run ./cmd/ringlint -json ./... > "$RINGLINT_JSON"
else
    go run ./cmd/ringlint -timing ./...
fi

echo "== go build"
go build ./...

echo "== go test (shuffled)"
go test -shuffle=on ./...

echo "== go test -tags ringdebug (assertion lane)"
go test -tags ringdebug ./internal/...

echo "== go test -race (full module)"
go test -race ./...

echo "== go test -race -tags ringdebug (batched lane: radix intersection under assertions)"
go test -race -tags ringdebug ./internal/wavelet ./internal/ring ./internal/ltj

echo "== bench smoke (compile and run every benchmark once)"
go test -run '^$' -bench . -benchtime 1x ./...

echo "== bench check (cmd/ringbench is its own module: vet and test it against this tree)"
(cd cmd/ringbench && go vet ./... && go test ./...)

echo "== serve smoke (end-to-end ringserve: query, shed, drain)"
sh scripts/serve_smoke.sh

echo "== persist smoke (live updates: insert, SIGKILL, recover, checkpoint)"
sh scripts/persist_smoke.sh

echo "== mmap smoke (zero-copy load: layout, decode-vs-mmap differential, live views)"
sh scripts/mmap_smoke.sh

echo "== repl smoke (replication: bootstrap, lag to zero, read-your-writes, promote)"
sh scripts/repl_smoke.sh

echo "all checks passed"
