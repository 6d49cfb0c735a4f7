#!/bin/sh
# Backend smoke: every keyed name backend must drive a simulation end
# to end, produce deterministic telemetry, and the CLI must reject
# unknown keys with the valid set.  The set of backends is discovered
# from the CLI's own error message, so a backend added to the table is
# picked up without editing this script.  The list specification, which
# has no key, runs through its own tracker, stamps-list.  Wired to
# the @backend-smoke dune alias (see the root dune file); not part of
# @runtest.
set -eu

VSTAMP="$1"
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

# unknown keys must fail, and the failure lists the keys
if "$VSTAMP" simulate --backend __none__ -n 10 >/dev/null 2>"$tmpdir/err"; then
  echo "backend smoke: unknown backend was accepted" >&2
  exit 1
fi
keys=$(sed -n 's/.*valid: \(.*\)).*/\1/p' "$tmpdir/err" | tr -d ',')
if [ -z "$keys" ]; then
  echo "backend smoke: could not discover the keyed backends" >&2
  cat "$tmpdir/err" >&2
  exit 1
fi
echo "backends: $keys"

for b in $keys; do
  # a churny trace exercises update/fork/join/reduce on the backend
  "$VSTAMP" simulate --backend "$b" -w churn -s 11 -n 150 \
    --metrics-out "$tmpdir/$b-a.jsonl" >"$tmpdir/$b-a.out"
  grep -q "ops=150" "$tmpdir/$b-a.out"
  # same seed, same backend: the telemetry must be byte-identical
  "$VSTAMP" simulate --backend "$b" -w churn -s 11 -n 150 \
    --metrics-out "$tmpdir/$b-b.jsonl" >/dev/null
  cmp "$tmpdir/$b-a.jsonl" "$tmpdir/$b-b.jsonl"
done

# every backend must agree with the causal-history oracle (on by default)
for b in $keys; do
  "$VSTAMP" simulate --backend "$b" -w gossip -s 7 -n 120 \
    >"$tmpdir/$b-oracle.out"
  grep -q "acc=exact" "$tmpdir/$b-oracle.out"
done
"$VSTAMP" simulate -t stamps-list -w gossip -s 7 -n 120 \
  >"$tmpdir/list-oracle.out"
grep -q "acc=exact" "$tmpdir/list-oracle.out"

echo "backend smoke ok"
