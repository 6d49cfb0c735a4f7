#!/bin/sh
# Local CI: build, tests, docs (when odoc is available), CLI smoke.
# Run from the repository root: scripts/ci.sh
set -eu

cd "$(dirname "$0")/.."

echo "== bench ledger presence =="
if [ ! -f BENCH_core.json ]; then
  echo "error: BENCH_core.json is missing from the repository root." >&2
  echo "The perf trajectory needs a committed baseline; regenerate it with" >&2
  echo "  dune exec bench/main.exe" >&2
  echo "and commit BENCH_core.json (and the BENCH_history.jsonl it appends)." >&2
  exit 1
fi
schema=$(sed -n 's/.*"schema":"vstamp-bench-core\/\([0-9][0-9]*\)".*/\1/p' \
  BENCH_core.json)
if [ -z "$schema" ]; then
  echo "error: BENCH_core.json carries no vstamp-bench-core schema field." >&2
  echo "Regenerate it with: dune exec bench/main.exe" >&2
  exit 1
fi
if [ "$schema" -lt 4 ]; then
  echo "error: BENCH_core.json is schema vstamp-bench-core/$schema, which" >&2
  echo "predates /4 (no monitor_overhead block) — the regression gate" >&2
  echo "cannot cover the observability lanes against it.  Regenerate the" >&2
  echo "baseline with: dune exec bench/main.exe" >&2
  exit 1
fi
echo "BENCH_core.json present (schema vstamp-bench-core/$schema)"

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

if command -v odoc >/dev/null 2>&1; then
  echo "== dune build @doc =="
  dune build @doc
else
  echo "== skipping dune build @doc (odoc not installed) =="
fi

echo "== trace smoke (record -> replay byte-identity, exports) =="
dune build @trace-smoke --force

echo "== bench smoke (quick bench -> regression gate pass/fail/refuse) =="
dune build @bench-smoke --force

echo "== backend smoke (every keyed backend end to end) =="
dune build @backend-smoke --force

echo "== serve smoke (soak server, live scrapes, graceful shutdown) =="
dune build @serve-smoke --force

echo "== lag smoke (partition weather, /lag.json, divergence panel) =="
dune build @lag-smoke --force

echo "== report smoke (flight recorder, alerts, post-mortem) =="
dune build @report-smoke --force

echo "== churn smoke (replica churn, /idspace.json, identity-space panel) =="
dune build @churn-smoke --force

echo "== cluster smoke (3-process cluster, federation, causal merge) =="
dune build @cluster-smoke --force

echo "== net smoke (3-node TCP mesh, convergence, reconnect backoff) =="
dune build @net-smoke --force

echo "== perfbench correctness (BENCHMARK.json workloads, untraced and traced) =="
# A run fails when an op reads wrong, when its replay's frame or stamp
# bytes differ from the nodes', or when the traced layers leave more
# than the gate's share of a round unaccounted.  The last stdout line
# is the JSON result.  Under host steal a traced run skips the
# accounting gate and says so on stderr ("accounting gate not
# applied"), so a traced run is repeated, up to 3 attempts, until one
# applies it; the stage says which attempt did, or warns with the
# steal when none did.
perf_err=$(mktemp)
perfbench_check() { # perfbench_check WORKLOAD SECONDS TRACE
  attempts=1
  [ "$3" -eq 1 ] && attempts=3
  attempt=0
  while :; do
    attempt=$((attempt + 1))
    last=$(sh perfbench/run.sh --workload "$1" --seed 1 --seconds "$2" \
      --trace "$3" 2> "$perf_err" | tail -n 1)
    if ! { printf '%s\n' "$last" | grep -q '"correct": true' &&
      printf '%s\n' "$last" | grep -Eq '"failed": 0[,}]'; }; then
      echo "error: perfbench $1 --trace $3 failed its checks:" >&2
      cat "$perf_err" >&2
      printf '%s\n' "$last" | cut -c1-400 >&2
      rm -f "$perf_err"
      exit 1
    fi
    skipped=$(sed -n 's/^perfbench: accounting gate not applied: //p' \
      "$perf_err")
    if [ "$3" -eq 0 ]; then
      echo "$1 --trace 0: correct, no failed ops"
      return
    elif [ -z "$skipped" ]; then
      echo "$1 --trace 1: correct, no failed ops, accounting gate applied" \
        "(attempt $attempt of $attempts)"
      return
    elif [ "$attempt" -ge "$attempts" ]; then
      echo "warning: $1 --trace 1: correct, no failed ops, but the" \
        "accounting gate was not applied in $attempts attempts" \
        "($skipped)" >&2
      return
    fi
    echo "$1 --trace 1: accounting gate not applied ($skipped), rerunning"
  done
}
for workload in mesh-rewrite pair-bulk; do
  perfbench_check "$workload" 1 0
  perfbench_check "$workload" 2 1
done
rm -f "$perf_err"

echo "== CLI help (--help=plain of every leaf command) =="
# cmdliner reports a flag name defined twice in one command only when
# that command runs, so walk the whole command tree from the group help.
vstamp() { dune exec bin/vstamp_cli.exe -- "$@"; }
leaves=0
check_help() { # check_help [CMD...]: CMD's help, then every command below
  out=$(vstamp "$@" --help=plain) || {
    echo "error: vstamp $* --help=plain exited non-zero" >&2
    exit 1
  }
  subs=$(printf '%s\n' "$out" | awk '/^COMMANDS/ { on = 1; next }
    /^[A-Z]/ { on = 0 } on && /^       [a-z]/ { print $1 }')
  [ -n "$subs" ] || leaves=$((leaves + 1))
  for sub in $subs; do check_help "$@" "$sub"; done
}
check_help
if [ "$leaves" -lt 2 ]; then
  echo "error: found no commands in vstamp --help=plain" >&2
  exit 1
fi
echo "$leaves leaf commands: help ok"

echo "== CLI smoke: vstamp metrics =="
dune exec bin/vstamp_cli.exe -- metrics -t stamps -w churn -n 100 >/dev/null
dune exec bin/vstamp_cli.exe -- metrics -t stamps -w churn -n 100 --format prom >/dev/null
dune exec bin/vstamp_cli.exe -- metrics -t stamps -w churn -n 100 --format json >/dev/null

echo "== CLI smoke: deterministic telemetry =="
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
dune exec bin/vstamp_cli.exe -- simulate -t stamps -w churn -n 100 \
  --metrics-out "$tmpdir/a.jsonl" >/dev/null
dune exec bin/vstamp_cli.exe -- simulate -t stamps -w churn -n 100 \
  --metrics-out "$tmpdir/b.jsonl" >/dev/null
cmp "$tmpdir/a.jsonl" "$tmpdir/b.jsonl"

echo "== unused exports =="
# Every value an interface under lib/ exports must have a caller in
# another module (tests count); the script lists each one that has none.
sh scripts/unused_exports.sh

echo "== code size =="
# ROADMAP item 4 counts progress as net lines removed with behaviour
# unchanged; these counts make that measure reproducible from a CI log.
# No threshold.
lines() { cat "$@" 2>/dev/null | wc -l | tr -d ' '; }
for dir in lib/*/ bin/ bench/; do
  printf '%-14s %6s .ml %6s .mli\n' "${dir%/}" \
    "$(lines "$dir"*.ml)" "$(lines "$dir"*.mli)"
done
printf '%-14s %6s .ml %6s .mli\n' "lib+bin" \
  "$(lines lib/*/*.ml bin/*.ml)" "$(lines lib/*/*.mli bin/*.mli)"

echo "ok"
