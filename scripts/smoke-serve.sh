#!/usr/bin/env sh
# Lifecycle smoke test for bgserve: boot a real process on a free
# port, exercise health, a run, the result cache and the metrics
# endpoint, then SIGTERM it and require a clean drain and exit 0.
# Used by `make smoke-serve` and CI; needs only sh, curl and go.
set -eu

workdir=$(mktemp -d)
out="$workdir/bgserve.out"
pid=""

cleanup() {
    if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
        kill -KILL "$pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
    echo "smoke-serve: FAIL: $1" >&2
    echo "--- server output ---" >&2
    cat "$out" >&2 || true
    exit 1
}

echo "smoke-serve: building bgserve"
go build -o "$workdir/bgserve" ./cmd/bgserve

"$workdir/bgserve" -addr 127.0.0.1:0 -state "$workdir/state.jsonl" >"$out" 2>"$workdir/bgserve.err" &
pid=$!

# The server announces "bgserve: listening on 127.0.0.1:PORT" before
# serving; that line is the contract for discovering the port.
addr=""
i=0
while [ $i -lt 100 ]; do
    addr=$(sed -n 's/^bgserve: listening on //p' "$out" | head -n1)
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || fail "server exited before listening"
    i=$((i + 1))
    sleep 0.1
done
[ -n "$addr" ] && base="http://$addr" || fail "server never announced its port"
echo "smoke-serve: server up at $base (pid $pid)"

i=0
until curl -sf "$base/healthz" >/dev/null; do
    i=$((i + 1))
    [ $i -lt 50 ] || fail "/healthz never answered"
    sleep 0.1
done

cfg='{"Workload":"NASA","JobCount":80,"FailureNominal":500,"Scheduler":"balancing","Param":0.1}'
echo "smoke-serve: submitting run"
curl -sf -X POST "$base/v1/runs?wait=1" -d "$cfg" >"$workdir/run1.json" \
    || fail "run submission failed"
grep -q '"state":"done"' "$workdir/run1.json" || fail "run did not complete: $(cat "$workdir/run1.json")"

echo "smoke-serve: checking the event stream holds the record's events"
id=$(sed -n 's/^{"id":"\([^"]*\)".*/\1/p' "$workdir/run1.json")
[ -n "$id" ] || fail "no run id in the record: $(cat "$workdir/run1.json")"
want=$(grep -o '"events":[0-9]*' "$workdir/run1.json" | head -n1 | cut -d: -f2)
curl -sf "$base/v1/runs/$id/events" >"$workdir/events.ndjson" || fail "event stream fetch failed"
got=$(wc -l <"$workdir/events.ndjson" | tr -d ' ')
[ -n "$want" ] && [ "$want" -gt 0 ] || fail "record reports no events: $(cat "$workdir/run1.json")"
[ "$got" -eq "$want" ] || fail "event stream has $got lines, the record says $want"

echo "smoke-serve: checking cache hit is byte-identical"
curl -sf -D "$workdir/hdr2" -X POST "$base/v1/runs" -d "$cfg" >"$workdir/run2.json" \
    || fail "repeat submission failed"
grep -qi '^x-cache: hit' "$workdir/hdr2" || fail "repeat was not a cache hit"
cmp -s "$workdir/run1.json" "$workdir/run2.json" || fail "cache hit body not byte-identical"

echo "smoke-serve: scraping /metrics"
curl -sf "$base/metrics" >"$workdir/metrics.prom" || fail "metrics scrape failed"
grep -q '^service_runs_completed 1$' "$workdir/metrics.prom" || fail "service_runs_completed != 1"
grep -q '^service_cache_hits 1$' "$workdir/metrics.prom" || fail "service_cache_hits != 1"

echo "smoke-serve: SIGTERM, expecting graceful drain"
kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
[ "$rc" -eq 0 ] || fail "server exited $rc after SIGTERM"
grep -q '^bgserve: drained, bye$' "$out" || fail "no drain confirmation in output"
pid=""

echo "smoke-serve: OK"
