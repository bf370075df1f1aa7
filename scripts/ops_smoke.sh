#!/usr/bin/env bash
# ops_smoke.sh — live ops-endpoint smoke test, wired into `make ops-smoke`
# and CI.
#
# Starts a sharded fabric run with the -ops endpoint on an ephemeral
# port, polls /metrics and /progress while the simulation executes, and
# asserts both are well-formed (Prometheus exposition lines, valid
# progress JSON). Does the same for a centralized run, whose heartbeat is
# Config.OnProgress rather than the per-barrier ShardConfig.OnWindow.
# Then runs a short decomposed run with -timeline and checks the Chrome
# trace_event export parses and names the cell tracks.
# Stdlib + curl only; artifacts land in ops_smoke_out/ (kept on failure
# for the CI upload).
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=ops_smoke_out
rm -rf "$OUT"
mkdir -p "$OUT"

GO="${GO:-go}"
$GO build -o "$OUT/basrptsim" ./cmd/basrptsim

fail() {
    echo "ops-smoke: FAIL: $*" >&2
    exit 1
}

# await_live LOG METRICS waits for the run logging to LOG to print its
# endpoint ("[ops endpoint listening on http://127.0.0.1:PORT]", before
# simulating), sets URL, then polls until /metrics reports live decisions
# and leaves the last scrape in METRICS.
await_live() {
    URL=""
    for _ in $(seq 1 50); do
        URL=$(grep -oE 'http://[0-9.]+:[0-9]+' "$1" | head -1 || true)
        [ -n "$URL" ] && break
        sleep 0.1
    done
    [ -n "$URL" ] && echo "ops-smoke: endpoint at $URL" || fail "no ops URL in $1: $(cat "$1")"
    for _ in $(seq 1 100); do
        if curl -sf "$URL/metrics" >"$2" 2>/dev/null \
            && grep -qE '^basrpt_run_decisions [1-9]' "$2"; then
            return 0
        fi
        sleep 0.1
    done
    fail "/metrics never reported live decisions: $(cat "$2" 2>/dev/null || true)"
}

# --- live endpoint: long enough run to be mid-flight when we poll -------
# (2 s simulated keeps the batched engine busy through every assertion
# below; the run is killed once the checks pass, so wall cost is bounded
# by the polling, not the horizon). -workers 3 splits the 8 cells into
# uneven 3-3-2 spans, one goroutine each per batch.
"$OUT/basrptsim" -shards 4 -racks 8 -hosts 6 -duration 2 -load 0.7 -workers 3 \
    -ops 127.0.0.1:0 >"$OUT/run.log" 2>&1 &
SIM_PID=$!
trap 'kill "$SIM_PID" 2>/dev/null || true' EXIT
await_live "$OUT/run.log" "$OUT/metrics.txt"

grep -qE '^basrpt_run_sim_time_seconds [0-9]' "$OUT/metrics.txt" || fail "/metrics lacks basrpt_run_sim_time_seconds"
grep -qE '^basrpt_run_percent_done [0-9]' "$OUT/metrics.txt" || fail "/metrics lacks basrpt_run_percent_done"

# The sharded engine's barrier plane must be live mid-run: barrier
# cadence (windows per barrier > 0), the three spans -workers asked for,
# and per-cell busy attribution for the first and last cell of the 8-rack
# fixture.
grep -qE '^basrpt_shard_windows_per_barrier [0-9.]+' "$OUT/metrics.txt" || fail "/metrics lacks basrpt_shard_windows_per_barrier"
grep -qE '^basrpt_shard_barriers [1-9]' "$OUT/metrics.txt" || fail "/metrics lacks live basrpt_shard_barriers"
grep -qE '^basrpt_shard_workers 3$' "$OUT/metrics.txt" || fail "/metrics lacks basrpt_shard_workers 3"
grep -qE '^basrpt_shard_cell_busy_seconds\{cell="0"\} [0-9.]' "$OUT/metrics.txt" || fail "/metrics lacks per-cell busy attribution"
grep -qE '^basrpt_shard_cell_busy_seconds\{cell="7"\} [0-9.]' "$OUT/metrics.txt" || fail "/metrics lacks busy attribution for the last cell"
# ...and the shares the final imbalance report computes, live.
for g in barrier_wait_fraction serial_fraction skew_ratio; do
    grep -qE "^basrpt_shard_$g [0-9.]" "$OUT/metrics.txt" || fail "/metrics lacks basrpt_shard_$g"
done
grep -qE '^basrpt_run_backlog_bytes [0-9]' "$OUT/metrics.txt" || fail "/metrics lacks basrpt_run_backlog_bytes"

curl -sf "$URL/progress" >"$OUT/progress.json" || fail "/progress unreachable"
python3 - "$OUT/progress.json" <<'PYEOF' || fail "/progress is not well-formed"
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["uptime_s"] >= 0, doc
run = doc.get("run")
assert run is not None and run["duration_s"] == 2, doc
assert 0 <= doc.get("percent_done", 0) <= 100, doc
shard = doc.get("shard")
assert shard is not None and shard["cells"] == 8, doc
assert shard["barriers"] >= 1 and shard["windows_per_barrier"] > 0, doc
assert len(shard["busy_ns"]) == 8 and "cell_wait_ns" not in shard, doc
assert all(ns >= 0 for ns in shard["busy_ns"]) and sum(shard["busy_ns"]) > 0, doc
assert 0 <= shard["serial_fraction"] <= 1 and len(shard["worker_wait_ns"]) == 3, doc
assert run["backlog_bytes"] >= 0, doc
PYEOF

curl -sf "$URL/debug/pprof/cmdline" >/dev/null || fail "pprof endpoint unreachable"

kill "$SIM_PID" 2>/dev/null || true
wait "$SIM_PID" 2>/dev/null || true

# --- centralized engine: the sample-tick heartbeat feeds /metrics -------
# (30 s simulated takes far longer than the checks; killed after them)
"$OUT/basrptsim" -racks 4 -hosts 6 -duration 30 -load 0.7 \
    -ops 127.0.0.1:0 >"$OUT/central_run.log" 2>&1 &
SIM_PID=$!
await_live "$OUT/central_run.log" "$OUT/central_metrics.txt"
curl -sf "$URL/progress" >"$OUT/central_progress.json" || fail "centralized /progress unreachable"
python3 - "$OUT/central_progress.json" <<'PYEOF' || fail "centralized /progress is not well-formed"
import json, sys
doc = json.load(open(sys.argv[1]))
run = doc.get("run")
assert run is not None and run["duration_s"] == 30, doc
assert "shard" not in doc, doc
PYEOF

kill "$SIM_PID" 2>/dev/null || true
wait "$SIM_PID" 2>/dev/null || true

# --- timeline export: short decomposed run ------------------------------
"$OUT/basrptsim" -shards 4 -racks 8 -hosts 6 -duration 0.005 -load 0.7 \
    -timeline "$OUT/timeline.json" >"$OUT/timeline_run.log" 2>&1 \
    || fail "timeline run failed: $(cat "$OUT/timeline_run.log")"
python3 - "$OUT/timeline.json" <<'PYEOF' || fail "timeline export is not a valid Chrome trace"
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert len(events) > 10, f"only {len(events)} events"
names = {e["args"]["name"] for e in events if e.get("ph") == "M" and e.get("name") == "thread_name"}
assert "cell 0" in names and "coordinator" in names, names
assert any(e.get("ph") == "X" and e.get("name") == "window" for e in events)
assert any(e.get("ph") == "X" and e.get("name") == "batch" for e in events)
assert any(e.get("ph") == "X" and e.get("name") == "route" and e.get("tid") == 0 for e in events)
PYEOF

rm -rf "$OUT"
trap - EXIT
echo "ops-smoke: OK (/metrics live on both engines, /progress well-formed, pprof up, timeline valid)"
