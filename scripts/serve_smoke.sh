#!/bin/sh
# Live-telemetry smoke: start a soaking process on an ephemeral port,
# scrape every endpoint while the workload is running, check the
# payloads are well-formed, then verify graceful SIGTERM shutdown
# (final checkpoint appended, event log flushed, port released), also
# when the signal, or the end of --duration, lands in the middle of a
# long iteration.
# Wired to the @serve-smoke dune alias (see the root dune file); not
# part of @runtest so the tier-1 suite stays fast.
set -eu

VSTAMP="$1"
tmpdir=$(mktemp -d)
soak_pid=""
cleanup() {
  [ -n "$soak_pid" ] && kill "$soak_pid" 2>/dev/null || true
  rm -rf "$tmpdir"
}
trap cleanup EXIT

"$VSTAMP" soak --port 0 --port-file "$tmpdir/port" --quiet \
  --ops 150 --checkpoint-every 10 \
  --history "$tmpdir/hist.jsonl" --events-out "$tmpdir/events.jsonl" &
soak_pid=$!

# wait for the server to come up (the port file is written post-bind)
i=0
while [ ! -s "$tmpdir/port" ]; do
  i=$((i + 1))
  [ "$i" -gt 50 ] && { echo "soak never bound a port" >&2; exit 1; }
  sleep 0.1
done
port=$(cat "$tmpdir/port")

scrape() { "$VSTAMP" scrape --port "$port" "$1"; }

# /metrics: Prometheus text with TYPE headers and the live counters
scrape /metrics > "$tmpdir/metrics"
grep -q '^# TYPE soak_iterations_total counter' "$tmpdir/metrics"
grep -q '^kvs_ops_total{op="put"} ' "$tmpdir/metrics"
grep -q '^sync_rounds_total ' "$tmpdir/metrics"

# concurrent scrapes while the workload keeps running
pids=""
for i in 1 2 3 4; do
  scrape /metrics > "$tmpdir/m$i" &
  pids="$pids $!"
done
for p in $pids; do wait "$p"; done
for i in 1 2 3 4; do
  grep -q '^# TYPE' "$tmpdir/m$i"
done

# /healthz and /stats.json: well-formed JSON with the expected fields
scrape /healthz > "$tmpdir/healthz"
grep -q '"status":"ok"' "$tmpdir/healthz"
grep -q '"last_step":' "$tmpdir/healthz"
scrape /stats.json > "$tmpdir/stats"
grep -q '"soak_iterations_total":' "$tmpdir/stats"

# /events.json: a JSON array of recent events
scrape '/events.json?n=5' > "$tmpdir/events"
grep -q '"event":' "$tmpdir/events"

# vstamp top renders a frame off two live snapshots
"$VSTAMP" top --port "$port" --once --interval 0.3 --no-color \
  > "$tmpdir/frame"
grep -q 'vstamp top' "$tmpdir/frame"
grep -q 'rates (counters, per second)' "$tmpdir/frame"

# graceful shutdown: SIGTERM, then the final checkpoint must be in the
# ledger, the event log flushed, and the port closed
kill -TERM "$soak_pid"
wait "$soak_pid" || true
soak_pid=""
grep -q '"final":true' "$tmpdir/hist.jsonl"
tail -n 1 "$tmpdir/events.jsonl" | grep -q '"event":'
if scrape /healthz >/dev/null 2>&1; then
  echo "server still answering after shutdown" >&2
  exit 1
fi

# SIGTERM mid-iteration: at the default --ops 300, iteration 5
# (sync-star, seed 6) runs for minutes, so the stop must end it at the
# next simulator step and still shut down gracefully
rm -f "$tmpdir/port"
"$VSTAMP" soak --port 0 --port-file "$tmpdir/port" --quiet \
  --ops 300 --iterations 5 --history "$tmpdir/hist5.jsonl" &
soak_pid=$!
i=0
while [ ! -s "$tmpdir/port" ]; do
  i=$((i + 1))
  [ "$i" -gt 50 ] && { echo "soak never bound a port" >&2; exit 1; }
  sleep 0.1
done
port=$(cat "$tmpdir/port")
i=0
until scrape /healthz 2>/dev/null | grep -q '"iterations":4'; do
  i=$((i + 1))
  [ "$i" -gt 600 ] && { echo "soak never finished iteration 4" >&2; exit 1; }
  sleep 0.1
done
sleep 1.5
kill -TERM "$soak_pid"
i=0
while kill -0 "$soak_pid" 2>/dev/null; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    kill -9 "$soak_pid"
    echo "soak still running 10s after SIGTERM mid-iteration" >&2
    exit 1
  fi
  sleep 0.1
done
wait "$soak_pid" || true
soak_pid=""
grep -q '"final":true' "$tmpdir/hist5.jsonl"

# --duration mid-iteration: the deadline must end iteration 5 the same
# way, without a signal, and the run must exit 0
"$VSTAMP" soak --ops 300 --duration 6 --port 0 -q \
  --history "$tmpdir/hist_dur.jsonl" &
soak_pid=$!
deadline=$(($(date +%s) + 20))
while kill -0 "$soak_pid" 2>/dev/null; do
  if [ "$(date +%s)" -ge "$deadline" ]; then
    kill -9 "$soak_pid"
    echo "soak --duration 6 still running after 20s" >&2
    exit 1
  fi
  sleep 0.1
done
status=0
wait "$soak_pid" || status=$?
soak_pid=""
if [ "$status" -ne 0 ]; then
  echo "soak --duration 6 exited $status, not 0" >&2
  exit 1
fi
grep -q '"final":true' "$tmpdir/hist_dur.jsonl"

echo "serve smoke ok"
