#!/usr/bin/env bash
# Job-service smoke test over a real Unix socket: a clean
# serve/submit/drain round trip (with a mid-run metrics scrape and a
# stats read), then a SIGKILL mid-lifecycle — the restarted server must
# replay the journaled job and finish it, and the killed server must
# leave a well-formed flight-recorder dump behind — and finally a
# SIGTERM that drains the server gracefully and writes the SLA summary
# plus its run-ledger record.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=${EUREKA_BIN:-target/release/eureka}
dir=$(mktemp -d)
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill -9 "$server_pid" 2>/dev/null || true
    rm -rf "$dir"
}
trap cleanup EXIT

serve_args=(serve --socket "$dir/eureka.sock" --journal-dir "$dir/journal"
    --checkpoint-dir "$dir/ckpt" --fast
    --metrics-out "$dir/metrics.prom" --flightrec-dir "$dir/flightrec"
    --sla-budget-us 1000000 --ledger-dir "$dir/ledger")
submit_args=(submit --socket "$dir/eureka.sock" --benchmark mobilenetv1
    --arch eureka-p4 --batch 32)

start_server() {
    "$BIN" "${serve_args[@]}" >> "$dir/server.log" 2>&1 &
    server_pid=$!
    for _ in $(seq 1 100); do
        [ -S "$dir/eureka.sock" ] && return 0
        sleep 0.05
    done
    echo "server never opened its socket" >&2
    cat "$dir/server.log" >&2
    exit 1
}

# Waits for the per-connection flight-recorder dump to land on disk
# with at least one event of the given kind.
wait_for_flightrec() {
    for _ in $(seq 1 100); do
        if ls "$dir/flightrec"/flightrec-*.jsonl > /dev/null 2>&1 &&
            grep -q "\"event\":\"$1\"" "$dir/flightrec"/flightrec-*.jsonl; then
            return 0
        fi
        sleep 0.05
    done
    echo "no flight-recorder dump with a $1 record appeared" >&2
    exit 1
}

# --- Round trip: submit --wait completes, drain --shutdown exits. -----
start_server
"$BIN" "${submit_args[@]}" --wait > "$dir/first.json"
grep -q '"status":"completed"' "$dir/first.json"

# Mid-run observability: the Prometheus exposition is rewritten after
# every connection and must validate; the stats verb must report the
# completed job's latency quantiles.
for _ in $(seq 1 100); do
    grep -q "eureka_service_e2e_us_completed_count 1" "$dir/metrics.prom" \
        2>/dev/null && break
    sleep 0.05
done
python3 scripts/check_metrics.py "$dir/metrics.prom" \
    --require eureka_service_served \
    --require eureka_service_completed \
    --require eureka_service_e2e_us_completed
"$BIN" stats --socket "$dir/eureka.sock" > "$dir/stats.txt"
grep -q "completed=1" "$dir/stats.txt"
grep -q "e2e_us" "$dir/stats.txt"
"$BIN" stats --socket "$dir/eureka.sock" --json | grep -q '"latency"'

"$BIN" drain --socket "$dir/eureka.sock" --shutdown > /dev/null
wait "$server_pid" 2>/dev/null || true
server_pid=""
[ ! -S "$dir/eureka.sock" ] || { echo "socket not removed on shutdown" >&2; exit 1; }

# --- SIGKILL: an accepted job survives in the journal and replays, ----
# and the last per-connection flight-recorder dump survives as the
# crashed server's black box.
rm -rf "$dir/flightrec"
start_server
"$BIN" "${submit_args[@]}" > /dev/null   # accepted; maybe still running
wait_for_flightrec job-admitted
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""
# The write-ahead record is the durable truth. It must exist whether or
# not the job finished before the kill landed.
[ "$(ls "$dir/journal"/*.job 2>/dev/null | wc -l)" -ge 1 ] || {
    echo "no journal record survived the SIGKILL" >&2
    exit 1
}
# The dump must hold eureka-events-v1 lines, densely sequenced, naming
# only this daemon's jobs, whose admitted keys must correspond to
# write-ahead journal records.
python3 - "$dir" <<'EOF'
import glob, json, sys
dir = sys.argv[1]
dumps = glob.glob(f"{dir}/flightrec/flightrec-*.jsonl")
assert len(dumps) == 1, f"expected one dump, found {dumps}"
records = [json.loads(l) for l in open(dumps[0], encoding="utf-8") if l.strip()]
assert records, "empty flight-recorder dump"
for r in records:
    assert r["schema"] == "eureka-events-v1", f"bad schema stamp: {r}"
    assert isinstance(r["event"], str) and isinstance(r["det"], dict), f"malformed: {r}"
    for field in ("seq", "t_us"):
        assert isinstance(r["wall"][field], int), f"missing wall.{field}: {r}"
seqs = [r["wall"]["seq"] for r in records]
assert seqs == list(range(seqs[0], seqs[0] + len(seqs))), "seqs not consecutive"
stems = {p.rsplit("/", 1)[1].split(".")[0] for p in glob.glob(f"{dir}/journal/*.job")}
admitted = {r["det"]["job"] for r in records if r["event"] == "job-admitted"}
for r in records:
    if "job" in r["det"]:
        assert r["det"]["job"] in admitted, f"job of another service: {r}"
    if r["event"] == "job-admitted":
        assert r["det"]["key"] in stems, (
            f"admitted job key {r['det']['key']} has no journal record {stems}")
print(f"flight recorder OK ({len(records)} events)")
EOF
mkdir -p results
cp "$dir/flightrec"/flightrec-*.jsonl results/flightrec-smoke.jsonl

rm -f "$dir/eureka.sock"  # stale socket from the killed server
start_server
# The restart either replays the unfinished job or finds it already
# journaled terminal; a fresh submit of the same spec must complete
# either way, replaying checkpointed units instead of recomputing.
"$BIN" "${submit_args[@]}" --wait > "$dir/replayed.json"
grep -q '"status":"completed"' "$dir/replayed.json"

# --- SIGTERM: graceful drain, clean exit, SLA summary + ledger. -------
kill -TERM "$server_pid"
wait "$server_pid"
server_pid=""
grep -q "serve: drained" "$dir/server.log" || {
    echo "server did not report a graceful drain" >&2
    cat "$dir/server.log" >&2
    exit 1
}
grep -q "sla: budget=1000000us" "$dir/server.log" || {
    echo "server did not print the SLA summary" >&2
    cat "$dir/server.log" >&2
    exit 1
}
grep -lq '"kind":"serve"' "$dir/ledger"/*.json || {
    echo "no serve record appended to the run ledger" >&2
    exit 1
}
grep -q '"sla_budget_us":1000000' "$dir/ledger"/*.json || {
    echo "ledger record is missing the SLA fields" >&2
    exit 1
}

echo "serve smoke OK ($(ls "$dir/ckpt" 2>/dev/null | wc -l) checkpoint file(s))"
