#!/bin/sh
# Flight-recorder smoke: soak with an alert rules file on a short,
# rule-triggering run; scrape the recorded history via /range.json and
# the alert plane via /alerts.json; verify that a rule still firing at
# shutdown makes soak exit non-zero; and render the markdown
# post-mortem from the --tsdb-out dump with `vstamp report`, whose
# error for a missing dump names the path once.
# Wired to the @report-smoke dune alias (see the root dune file); not
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

# one rule that fires as soon as the workload iterates, one that can
# never fire inside this smoke's lifetime
cat > "$tmpdir/rules.txt" <<'EOF'
# report-smoke rules
iterating soak_iterations_total >= 1
stalled   absent(soak_iterations_total) for 10m
EOF

# a bad rules file must be rejected up front with a line number
printf 'broken soak_iterations_total >!> 1\n' > "$tmpdir/bad_rules.txt"
if "$VSTAMP" soak --rules "$tmpdir/bad_rules.txt" --iterations 1 \
    --port 0 --quiet --no-history 2> "$tmpdir/badrules.err"; then
  echo "soak accepted an unparseable rules file" >&2
  exit 1
fi
grep -q 'line 1' "$tmpdir/badrules.err"

"$VSTAMP" soak --port 0 --port-file "$tmpdir/port" --quiet \
  --ops 60 --no-history --record-every 0.1 \
  --rules "$tmpdir/rules.txt" --tsdb-out "$tmpdir/dump.json" \
  --events-out "$tmpdir/events.jsonl" &
soak_pid=$!

i=0
while [ ! -s "$tmpdir/port" ]; do
  i=$((i + 1))
  [ "$i" -gt 50 ] && { echo "soak never bound a port" >&2; exit 1; }
  sleep 0.1
done
port=$(cat "$tmpdir/port")

scrape() { "$VSTAMP" scrape --port "$port" "$1"; }

# give the recorder a few cadences and the first iteration time to land
sleep 2

# /range.json without a metric: the series index
scrape /range.json > "$tmpdir/index.json"
grep -q '"metrics":' "$tmpdir/index.json"
grep -q 'soak_iterations_total' "$tmpdir/index.json"
grep -q '"footprint_bytes":' "$tmpdir/index.json"

# /range.json with a metric: rolled-up buckets of the recorded history
scrape '/range.json?metric=soak_iterations_total&from=-60' \
  > "$tmpdir/range.json"
grep -q '"metric":"soak_iterations_total"' "$tmpdir/range.json"
grep -q '"kind":"counter"' "$tmpdir/range.json"
grep -q '"points":\[{' "$tmpdir/range.json"

# GC telemetry is on by default in soak
scrape '/range.json?metric=runtime_heap_words&from=-60' \
  | grep -q '"kind":"gauge"'

# /alerts.json: the threshold rule must be firing by now, the absence
# rule must not
scrape /alerts.json > "$tmpdir/alerts.json"
grep -q '"name":"iterating"' "$tmpdir/alerts.json"
grep -q '"state":"firing"' "$tmpdir/alerts.json"
grep -q '"to":"firing"' "$tmpdir/alerts.json"
if grep -q '"name":"stalled","rule":[^}]*"state":"firing"' \
    "$tmpdir/alerts.json"; then
  echo "absence rule fired during an active soak" >&2
  exit 1
fi

# the firing gauge is exported to Prometheus too
scrape /metrics | grep -q '^vstamp_alerts_firing{rule="iterating"} 1'

# the alert transition reached the event plane (the durable file is
# checked after shutdown; the live ring may have rotated past it)
scrape '/events.json?n=500' | grep -q '"event":"soak.iteration"'

# vstamp top --once renders the alerts panel and exits 0
"$VSTAMP" top --port "$port" --once --no-color > "$tmpdir/frame"
grep -q 'alerts' "$tmpdir/frame"
grep -q 'iterating' "$tmpdir/frame"

# a live post-mortem straight off the endpoints
"$VSTAMP" report --port "$port" --window 2m > "$tmpdir/live.md"
grep -q '^# vstamp soak post-mortem' "$tmpdir/live.md"

# shutdown with the rule still firing: soak must exit non-zero
kill -TERM "$soak_pid"
rc=0
wait "$soak_pid" || rc=$?
soak_pid=""
if [ "$rc" -eq 0 ]; then
  echo "soak exited 0 with an alert firing at shutdown" >&2
  exit 1
fi

# the firing transition reached the durable event log
grep -q '"event":"alert.firing"' "$tmpdir/events.jsonl"

# the dump was written after the server stopped; the post-mortem
# renders from it
[ -s "$tmpdir/dump.json" ]
grep -q '"schema":"vstamp-tsdb/1"' "$tmpdir/dump.json"
"$VSTAMP" report --dump "$tmpdir/dump.json" --out "$tmpdir/report.md"
grep -q '^# vstamp soak post-mortem' "$tmpdir/report.md"
grep -q '^## Alerts' "$tmpdir/report.md"
grep -q '^### Timeline' "$tmpdir/report.md"
grep -q '^## Runtime / GC' "$tmpdir/report.md"
grep -q '^## Metrics' "$tmpdir/report.md"
grep -q '| iterating | firing |' "$tmpdir/report.md"
grep -q 'runtime_heap_words' "$tmpdir/report.md"
# every table row is well-formed markdown (starts and ends with a pipe)
if grep '^|' "$tmpdir/report.md" | grep -qv '|$'; then
  echo "report emitted a torn markdown table row" >&2
  exit 1
fi

# an unreadable dump is one error line that names the path once
missing="$tmpdir/missing.tsdb.json"
if "$VSTAMP" report --dump "$missing" 2> "$tmpdir/missing.err"; then
  echo "report rendered a missing dump" >&2
  exit 1
fi
if [ "$(grep -o "$missing" "$tmpdir/missing.err" | wc -l)" -ne 1 ]; then
  echo "report --dump does not name a missing dump exactly once:" >&2
  cat "$tmpdir/missing.err" >&2
  exit 1
fi

echo "report smoke ok"
