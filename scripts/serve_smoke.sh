#!/bin/sh
# End-to-end smoke test for ringserve: builds the binaries, indexes a
# dense random graph, checks with ringstats that it loads zero-copy,
# starts the server over the mapped file, and exercises the serving
# contract from outside the process — readiness gating, a join whose
# solution count must equal one computed by awk from the input, the
# metrics and mapped-load exposition, bounded admission under overload
# (at least one request must be shed with 429/503 while capacity is
# held), a graceful SIGTERM drain that lets the in-flight query finish,
# and a restart that must give the same answer.
#
# Run via `make serve-smoke`. Needs curl and awk; picks an off-main port
# (override with SERVE_SMOKE_PORT).
set -eu
cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
PORT=${SERVE_SMOKE_PORT:-18473}
BASE="http://127.0.0.1:$PORT"
SRV_PID=

cleanup() {
    if [ -n "$SRV_PID" ]; then
        kill "$SRV_PID" 2>/dev/null || true
    fi
    rm -rf "$TMP"
}
trap cleanup EXIT INT TERM

# start_server: launch ringserve over the index and wait for readiness.
start_server() {
    "$TMP/ringserve" -index "$TMP/graph.ring" -addr "127.0.0.1:$PORT" \
        -max-concurrent 1 -max-queue 1 -queue-wait 50ms \
        2>> "$TMP/server.log" &
    SRV_PID=$!
    ready=0
    for _ in $(seq 1 100); do
        if curl -fsS -o /dev/null "$BASE/readyz" 2>/dev/null; then
            ready=1
            break
        fi
        # The process dying is a faster, clearer failure than the poll timeout.
        if ! kill -0 "$SRV_PID" 2>/dev/null; then
            echo "serve-smoke: server exited during startup"
            cat "$TMP/server.log"
            SRV_PID=
            exit 1
        fi
        sleep 0.1
    done
    if [ "$ready" != 1 ]; then
        echo "serve-smoke: /readyz never became ready"
        cat "$TMP/server.log"
        exit 1
    fi
}

# join_answer: an anchored join, fully enumerated sequentially so its
# solutions are in a fixed order; only the wall-clock field is masked.
join_answer() {
    curl -fsS -G --data-urlencode 'q=n000 p0 ?b ; ?b p1 ?c' \
        --data 'limit=100000&no_cache=1' "$BASE/query" |
        sed 's/"elapsed_ms":[0-9.eE+-]*/"elapsed_ms":X/'
}

echo "== serve-smoke: build ringbuild + ringserve + ringstats"
go build -o "$TMP/ringbuild" ./cmd/ringbuild
go build -o "$TMP/ringserve" ./cmd/ringserve
go build -o "$TMP/ringstats" ./cmd/ringstats

echo "== serve-smoke: index a dense random graph"
# ~20k edges over 200 nodes: the 3-hop all-variable join below is heavy
# enough to hold its admission slot while the overload burst arrives.
awk 'BEGIN { srand(7); for (i = 0; i < 20000; i++)
        printf "n%03d p%d n%03d\n", int(rand()*200), int(rand()*4), int(rand()*200) }' \
    > "$TMP/graph.tsv"
"$TMP/ringbuild" -in "$TMP/graph.tsv" -out "$TMP/graph.ring"

echo "== serve-smoke: ringstats reports the zero-copy layout"
if ! "$TMP/ringstats" -index "$TMP/graph.ring" | grep -q 'zero-copy'; then
    echo "serve-smoke: ringstats does not report a zero-copy layout"
    exit 1
fi

echo "== serve-smoke: start ringserve (capacity 1, queue 1)"
start_server

echo "== serve-smoke: query"
body=$(curl -fsS -G --data-urlencode 'q=?a p0 ?b' --data 'limit=3' "$BASE/query")
case "$body" in
*'"solutions"'*) ;;
*)
    echo "serve-smoke: query response missing solutions: $body"
    exit 1
    ;;
esac

echo "== serve-smoke: join count matches an awk evaluation of the input"
# The oracle shares no code with the server: dedupe the input triples,
# then count n000 -p0-> b -p1-> c paths.
want=$(awk '!seen[$0]++ { if ($1 == "n000" && $2 == "p0") a[$3] = 1; if ($2 == "p1") out[$1]++ }
    END { n = 0; for (b in a) n += out[b]; print n }' "$TMP/graph.tsv")
answer=$(join_answer)
got=$(printf '%s' "$answer" | sed 's/.*"count":\([0-9]*\).*/\1/')
if [ "$want" = 0 ] || [ "$got" != "$want" ]; then
    echo "serve-smoke: join count $got, awk says $want: $answer"
    exit 1
fi

echo "== serve-smoke: cached reply (same bytes, Content-Length framed)"
# The same cacheable query twice: the second reply must come from the
# result cache and carry the first one's solutions array byte for byte.
for n in 1 2; do
    curl -fsS -D "$TMP/hdr$n.txt" -o "$TMP/reply$n.json" -G \
        --data-urlencode 'q=n000 ?p ?b ; ?b p0 ?c' --data 'limit=50' "$BASE/query"
    if ! grep -qi '^content-length: [0-9]' "$TMP/hdr$n.txt"; then
        echo "serve-smoke: reply $n has no Content-Length:"
        cat "$TMP/hdr$n.txt"
        exit 1
    fi
    sed 's/^{"solutions":\(\[.*\]\),"count":.*$/\1/' "$TMP/reply$n.json" > "$TMP/sols$n.json"
done
if ! grep -q '"cached":false' "$TMP/reply1.json" || ! grep -q '"cached":true' "$TMP/reply2.json"; then
    echo "serve-smoke: want a miss then a hit, got:"
    cat "$TMP/reply1.json" "$TMP/reply2.json"
    exit 1
fi
if ! grep -q '^\[{' "$TMP/sols1.json" || ! cmp -s "$TMP/sols1.json" "$TMP/sols2.json"; then
    echo "serve-smoke: the cached solutions differ from the evaluated ones:"
    cat "$TMP/sols1.json" "$TMP/sols2.json"
    exit 1
fi

echo "== serve-smoke: overload burst (expect shedding)"
HEAVY='q=?a ?p ?b ; ?b ?q ?c ; ?c ?r ?d'
: > "$TMP/codes.txt"
pids=
for _ in 1 2 3 4 5 6; do
    curl -s -o /dev/null -w '%{http_code}\n' -G \
        --data-urlencode "$HEAVY" \
        --data 'limit=100000&timeout_ms=400&no_cache=1' \
        "$BASE/query" >> "$TMP/codes.txt" &
    pids="$pids $!"
done
for pid in $pids; do
    wait "$pid" || true
done
if ! grep -q '^200$' "$TMP/codes.txt"; then
    echo "serve-smoke: no query admitted under overload:"
    cat "$TMP/codes.txt"
    exit 1
fi
if ! grep -qE '^(429|503)$' "$TMP/codes.txt"; then
    echo "serve-smoke: admission is unbounded — nothing shed under overload:"
    cat "$TMP/codes.txt"
    exit 1
fi

echo "== serve-smoke: metrics"
metrics=$(curl -fsS "$BASE/metrics")
for series in ringserve_queries_total ringserve_admission_shed_total \
    ringserve_index_triples ringserve_query_duration_seconds_count; do
    case "$metrics" in
    *"$series"*) ;;
    *)
        echo "serve-smoke: /metrics missing $series"
        exit 1
        ;;
    esac
done
bytes=$(printf '%s\n' "$metrics" | awk '/^ringserve_index_bytes_mapped/ { print $2 }')
if [ -z "$bytes" ] || [ "$bytes" = 0 ]; then
    echo "serve-smoke: ringserve_index_bytes_mapped is '$bytes', want > 0"
    exit 1
fi
if ! curl -fsS "$BASE/stats" | grep -q '"mapped"'; then
    echo "serve-smoke: /stats missing the mapped section"
    exit 1
fi

echo "== serve-smoke: graceful drain"
curl -s -o /dev/null -w '%{http_code}\n' -G \
    --data-urlencode "$HEAVY" \
    --data 'limit=100000&timeout_ms=1000&no_cache=1' \
    "$BASE/query" > "$TMP/drain_code.txt" &
DRAIN_PID=$!
sleep 0.3
kill -TERM "$SRV_PID"
SRV_EXIT=0
wait "$SRV_PID" || SRV_EXIT=$?
SRV_PID=
if [ "$SRV_EXIT" != 0 ]; then
    echo "serve-smoke: server exit code $SRV_EXIT after SIGTERM"
    cat "$TMP/server.log"
    exit 1
fi
if ! grep -q 'drain complete' "$TMP/server.log"; then
    echo "serve-smoke: no 'drain complete' in server log:"
    cat "$TMP/server.log"
    exit 1
fi
wait "$DRAIN_PID" || true
if ! grep -q '^200$' "$TMP/drain_code.txt"; then
    echo "serve-smoke: in-flight query did not survive the drain: $(cat "$TMP/drain_code.txt")"
    exit 1
fi

echo "== serve-smoke: restart, same answer"
start_server
again=$(join_answer)
kill -TERM "$SRV_PID"
wait "$SRV_PID" || true
SRV_PID=
if [ "$again" != "$answer" ]; then
    printf 'serve-smoke: answer changed across a restart\nbefore: %s\nafter:  %s\n' "$answer" "$again"
    exit 1
fi

echo "serve-smoke passed"
