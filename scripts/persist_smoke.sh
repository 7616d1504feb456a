#!/bin/sh
# End-to-end smoke test for the live-update persistence path: starts
# ringserve on an empty -data-dir, inserts synchronously, SIGKILLs the
# process mid-life, restarts on the same directory and checks that every
# acknowledged triple survived; then deletes, drains gracefully (final
# checkpoint + WAL seal), verifies a third recovery serves the exact
# final state, and runs ringstats -data-dir over the sealed directory.
#
# Run via `make persist-smoke`. Needs curl; picks an off-main port
# (override with PERSIST_SMOKE_PORT).
set -eu
cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
PORT=${PERSIST_SMOKE_PORT:-18474}
BASE="http://127.0.0.1:$PORT"
DATA="$TMP/data"
SRV_PID=

cleanup() {
    if [ -n "$SRV_PID" ]; then
        kill -9 "$SRV_PID" 2>/dev/null || true
    fi
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

start_server() {
    "$TMP/ringserve" -data-dir "$DATA" -addr "127.0.0.1:$PORT" \
        2>> "$TMP/server.log" &
    SRV_PID=$!
    ready=0
    for _ in $(seq 1 150); do
        if curl -fsS -o /dev/null "$BASE/readyz" 2>/dev/null; then
            ready=1
            break
        fi
        if ! kill -0 "$SRV_PID" 2>/dev/null; then
            echo "persist-smoke: server exited during startup"
            cat "$TMP/server.log"
            SRV_PID=
            exit 1
        fi
        sleep 0.1
    done
    if [ "$ready" != 1 ]; then
        echo "persist-smoke: /readyz never became ready"
        cat "$TMP/server.log"
        exit 1
    fi
}

count_knows() {
    curl -fsS "$BASE/query" -d '{"pattern":[{"s":"?x","p":"knows","o":"?y"}],"limit":100,"no_cache":true}' |
        sed 's/.*"count":\([0-9]*\).*/\1/'
}

echo "== persist-smoke: build ringserve + ringstats"
go build -o "$TMP/ringserve" ./cmd/ringserve
go build -o "$TMP/ringstats" ./cmd/ringstats

echo "== persist-smoke: start on an empty data dir and insert (sync)"
start_server
code=$(curl -s -o "$TMP/ins.json" -w '%{http_code}' "$BASE/insert" \
    -d '{"triples":[{"s":"alice","p":"knows","o":"bob"},{"s":"bob","p":"knows","o":"carol"},{"s":"carol","p":"knows","o":"dave"}]}')
if [ "$code" != 200 ]; then
    echo "persist-smoke: sync insert returned $code: $(cat "$TMP/ins.json")"
    exit 1
fi
n=$(count_knows)
if [ "$n" != 3 ]; then
    echo "persist-smoke: expected 3 triples after insert, got $n"
    exit 1
fi

echo "== persist-smoke: SIGKILL and recover from the WAL"
kill -9 "$SRV_PID"
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=
start_server
n=$(count_knows)
if [ "$n" != 3 ]; then
    echo "persist-smoke: acked triples lost across SIGKILL: got $n, want 3"
    cat "$TMP/server.log"
    exit 1
fi
if ! grep -q 'recovered' "$TMP/server.log"; then
    echo "persist-smoke: no recovery line in server log:"
    cat "$TMP/server.log"
    exit 1
fi

echo "== persist-smoke: delete, then drain (checkpoint + WAL seal)"
code=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/delete" \
    -d '{"triples":[{"s":"carol","p":"knows","o":"dave"}]}')
if [ "$code" != 200 ]; then
    echo "persist-smoke: delete returned $code"
    exit 1
fi
kill -TERM "$SRV_PID"
SRV_EXIT=0
wait "$SRV_PID" || SRV_EXIT=$?
SRV_PID=
if [ "$SRV_EXIT" != 0 ]; then
    echo "persist-smoke: exit code $SRV_EXIT after SIGTERM"
    cat "$TMP/server.log"
    exit 1
fi
if ! grep -q 'checkpointed and sealed' "$TMP/server.log"; then
    echo "persist-smoke: no checkpoint line in server log:"
    cat "$TMP/server.log"
    exit 1
fi
if [ ! -f "$DATA/MANIFEST" ]; then
    echo "persist-smoke: no MANIFEST after graceful shutdown"
    exit 1
fi

echo "== persist-smoke: third start serves the checkpointed state"
start_server
n=$(count_knows)
if [ "$n" != 2 ]; then
    echo "persist-smoke: expected 2 triples after delete + restart, got $n"
    exit 1
fi
metrics=$(curl -fsS "$BASE/metrics")
for series in ringserve_wal_appended_total ringserve_memtable_triples \
    ringserve_static_rings ringserve_manifest_version \
    ringserve_snapshot_install_seconds; do
    case "$metrics" in
    *"$series"*) ;;
    *)
        echo "persist-smoke: /metrics missing $series"
        exit 1
        ;;
    esac
done
kill -TERM "$SRV_PID"
wait "$SRV_PID" || true
SRV_PID=

echo "== persist-smoke: ringstats -data-dir on the sealed directory"
stats=$("$TMP/ringstats" -data-dir "$DATA")
case "$stats" in
*'manifest version'*) ;;
*)
    echo "persist-smoke: ringstats output missing manifest version: $stats"
    exit 1
    ;;
esac
case "$stats" in
*'estimated replay:    0 batches'*) ;;
*)
    echo "persist-smoke: sealed directory should need no replay: $stats"
    exit 1
    ;;
esac

echo "persist-smoke passed"
