#!/usr/bin/env sh
# Chaos smoke test: boot bgserve with deterministic fault injection,
# soak it with the bgload client fleet (which must pass its SLOs
# despite the injected faults), kill -9 the server mid-flight, restart
# it on the same state journal, and require a clean recovery — ready,
# restored runs served, and a chaos-free soak passing afterwards.
# Used by `make smoke-chaos` and CI; needs only sh, curl and go.
set -eu

CHAOS_SEED=${CHAOS_SEED:-7}
CHAOS_LEVEL=${CHAOS_LEVEL:-0.3}

workdir=$(mktemp -d)
out="$workdir/bgserve.out"
state="$workdir/state.jsonl"
pid=""

cleanup() {
    if [ -n "$pid" ] && kill -0 "$pid" 2>/dev/null; then
        kill -KILL "$pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
    echo "smoke-chaos: FAIL: $1" >&2
    echo "--- server output ---" >&2
    cat "$out" "$workdir/bgserve.err" >&2 || true
    exit 1
}

start_server() {
    "$workdir/bgserve" -addr 127.0.0.1:0 -state "$state" "$@" \
        >"$out" 2>"$workdir/bgserve.err" &
    pid=$!
    addr=""
    i=0
    while [ $i -lt 100 ]; do
        addr=$(sed -n 's/^bgserve: listening on //p' "$out" | head -n1)
        [ -n "$addr" ] && break
        kill -0 "$pid" 2>/dev/null || fail "server exited before listening"
        i=$((i + 1))
        sleep 0.1
    done
    [ -n "$addr" ] || fail "server never announced its port"
    base="http://$addr"
    i=0
    until curl -sf "$base/healthz" >/dev/null; do
        i=$((i + 1))
        [ $i -lt 50 ] || fail "/healthz never answered"
        sleep 0.1
    done
}

echo "smoke-chaos: building bgserve and bgload"
go build -o "$workdir/bgserve" ./cmd/bgserve
go build -o "$workdir/bgload" ./cmd/bgload

echo "smoke-chaos: starting chaotic server (seed $CHAOS_SEED, level $CHAOS_LEVEL)"
start_server -chaos-seed "$CHAOS_SEED" -chaos-level "$CHAOS_LEVEL"
grep -q 'chaos injection on' "$out" || fail "chaos was not enabled"
echo "smoke-chaos: server up at $base (pid $pid)"

echo "smoke-chaos: soaking through injected faults"
"$workdir/bgload" -addr "$base" -clients 4 -requests 60 -seed "$CHAOS_SEED" \
    >"$workdir/soak1.txt" 2>&1 || fail "chaos soak failed SLOs: $(cat "$workdir/soak1.txt")"
grep -q '^bgload SLO report: PASS' "$workdir/soak1.txt" || fail "no PASS verdict in soak report"

# Record one completed config's response for the post-crash cache check.
cfg='{"Workload":"NASA","JobCount":80,"FailureNominal":500,"Scheduler":"balancing","Param":0.1}'
ok=0
for i in 1 2 3 4 5 6 7 8; do
    # Chaos can fault any attempt; a few tries must land one clean 200.
    if curl -sf -X POST "$base/v1/runs?wait=1" -d "$cfg" >"$workdir/pre-kill.json" 2>/dev/null &&
        grep -q '"state":"done"' "$workdir/pre-kill.json"; then
        ok=1
        break
    fi
    sleep 0.2
done
[ "$ok" -eq 1 ] || fail "could not complete a reference run under chaos"

# Record its event stream too. Chaos can fault or silently truncate the
# response, so retry until the stream holds every event the record
# counts.
run_id() { sed -n 's/^{"id":"\([^"]*\)".*/\1/p' "$1"; }
id=$(run_id "$workdir/pre-kill.json")
want=$(grep -o '"events":[0-9]*' "$workdir/pre-kill.json" | head -n1 | cut -d: -f2)
[ -n "$id" ] && [ -n "$want" ] && [ "$want" -gt 0 ] || fail "reference record lacks an id or events: $(cat "$workdir/pre-kill.json")"
ok=0
for i in 1 2 3 4 5 6 7 8; do
    if curl -sf "$base/v1/runs/$id/events" >"$workdir/pre-kill.ndjson" 2>/dev/null &&
        [ "$(wc -l <"$workdir/pre-kill.ndjson" | tr -d ' ')" -eq "$want" ]; then
        ok=1
        break
    fi
    sleep 0.2
done
[ "$ok" -eq 1 ] || fail "could not read the reference run's $want events under chaos"

echo "smoke-chaos: kill -9 mid-soak"
"$workdir/bgload" -addr "$base" -clients 4 -requests 200 -seed 99 \
    >"$workdir/soak-killed.txt" 2>&1 &
loadpid=$!
sleep 2
kill -KILL "$pid" || fail "could not kill server"
wait "$pid" 2>/dev/null || true
pid=""
wait "$loadpid" 2>/dev/null || true # the fleet sees the crash; its verdict is irrelevant

echo "smoke-chaos: restarting chaos-free on the same journal"
start_server
echo "smoke-chaos: recovered server up at $base (pid $pid)"
curl -sf "$base/readyz" >/dev/null || fail "/readyz not ready after crash recovery"

echo "smoke-chaos: checking the pre-kill run survived as a cache hit"
curl -sf -D "$workdir/hdr" -X POST "$base/v1/runs" -d "$cfg" >"$workdir/post-kill.json" \
    || fail "resubmission after recovery failed"
grep -qi '^x-cache: hit' "$workdir/hdr" || fail "pre-kill run not restored from journal"

echo "smoke-chaos: checking the restored event stream is byte-identical"
curl -sf "$base/v1/runs/$(run_id "$workdir/post-kill.json")/events" >"$workdir/post-kill.ndjson" \
    || fail "restored event stream fetch failed"
cmp -s "$workdir/pre-kill.ndjson" "$workdir/post-kill.ndjson" || fail "restored event stream differs from the pre-kill one"

echo "smoke-chaos: clean soak against the recovered server"
"$workdir/bgload" -addr "$base" -clients 2 -requests 20 -seed 5 \
    >"$workdir/soak2.txt" 2>&1 || fail "post-recovery soak failed: $(cat "$workdir/soak2.txt")"
grep -q '^bgload SLO report: PASS' "$workdir/soak2.txt" || fail "no PASS verdict after recovery"

echo "smoke-chaos: SIGTERM, expecting graceful drain"
kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
[ "$rc" -eq 0 ] || fail "server exited $rc after SIGTERM"
pid=""

echo "smoke-chaos: OK"
