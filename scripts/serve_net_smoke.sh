#!/bin/sh
# Networked anti-entropy smoke: boot three `vstamp serve` nodes on
# ephemeral loopback ports (cascade mesh: each node dials the nodes
# booted before it), seed one disjoint write per node, wait until the
# HTTP planes report equal store digests on all three, check that each
# node's /metrics digest is the exact integer of its /peers.json and
# that no node counted a protocol error, then kill one node and watch a survivor's /peers.json report the reconnect
# backoff.  Finally, graceful shutdown.  Wired to the @net-smoke dune
# alias (see the root dune file); not part of @runtest because it runs
# three real servers for a few seconds.  It first checks that an
# unwritable --port-file is one `error:` line and exit 1, and that an
# out-of-range port or a negative timeout is refused before any bind.
set -eu

VSTAMP="$1"
tmpdir=$(mktemp -d)
pids=""
cleanup() {
  for p in $pids; do kill "$p" 2>/dev/null || true; done
  rm -rf "$tmpdir"
}
trap cleanup EXIT

# the port file carries two lines (sync port, then HTTP port), written
# only after both planes are bound
wait_ports() {
  i=0
  while [ "$(wc -l 2>/dev/null < "$1" || echo 0)" -lt 2 ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "node never bound: $1" >&2; exit 1; }
    sleep 0.1
  done
}

serve_node() { # serve_node NAME [--peer ...]
  name="$1"; shift
  "$VSTAMP" serve --port 0 --http-port 0 --quiet --interval 0.2 \
    --node-id "$name" --port-file "$tmpdir/$name.ports" \
    --put "owner-$name=$name" "$@" &
  pids="$pids $!"
}

rc=0
"$VSTAMP" serve --port 0 --http-port 0 --quiet --duration 1 \
  --port-file "$tmpdir/missing/ports" 2> "$tmpdir/err" || rc=$?
if [ "$rc" -ne 1 ] || [ "$(wc -l < "$tmpdir/err")" -ne 1 ] \
  || ! grep -qx "error: $tmpdir/missing/ports: .*" "$tmpdir/err"; then
  echo "unwritable --port-file: exit $rc, want 1 and one error line" >&2
  cat "$tmpdir/err" >&2
  exit 1
fi

# a port outside 0-65535 and a negative timeout are refused, naming the
# flag, before anything binds (no port file appears)
refused() { # refused FLAG VSTAMP-ARGS...
  flag="$1"; shift
  rc=0
  "$VSTAMP" "$@" 2> "$tmpdir/err" || rc=$?
  if [ "$rc" -eq 0 ] || ! grep -q -- "$flag" "$tmpdir/err" \
    || [ -e "$tmpdir/refused.ports" ]; then
    echo "$*: exit $rc, want a refusal naming $flag" >&2
    cat "$tmpdir/err" >&2
    exit 1
  fi
}
refused --port serve --port 70000 --http-port 0 --quiet --duration 1 \
  --port-file "$tmpdir/refused.ports"
refused --timeout scrape --timeout=-1 --port 1 /metrics

serve_node n0
p0=$!
wait_ports "$tmpdir/n0.ports"
sync0=$(sed -n 1p "$tmpdir/n0.ports")
http0=$(sed -n 2p "$tmpdir/n0.ports")

serve_node n1 --peer "127.0.0.1:$sync0"
wait_ports "$tmpdir/n1.ports"
sync1=$(sed -n 1p "$tmpdir/n1.ports")
http1=$(sed -n 2p "$tmpdir/n1.ports")

serve_node n2 --peer "127.0.0.1:$sync0" --peer "127.0.0.1:$sync1"
p2=$!
wait_ports "$tmpdir/n2.ports"
http2=$(sed -n 2p "$tmpdir/n2.ports")

scrape() { "$VSTAMP" scrape --port "$1" "$2"; }
digest() { scrape "$1" /metrics | sed -n 's/^net_store_digest \(.*\)$/\1/p'; }

# convergence: the three disjoint writes replicate everywhere, so the
# content digests agree across the cluster
i=0
while :; do
  d0=$(digest "$http0"); d1=$(digest "$http1"); d2=$(digest "$http2")
  [ -n "$d0" ] && [ "$d0" = "$d1" ] && [ "$d1" = "$d2" ] && break
  i=$((i + 1))
  [ "$i" -gt 100 ] && {
    echo "cluster never converged: '$d0' / '$d1' / '$d2'" >&2; exit 1; }
  sleep 0.1
done

# the digest prints exactly: the float gauge writes an integral value
# below 1e16 in full and anything else with an exponent, so each node's
# /metrics digest must be a plain integer equal to its /peers.json
# store_digest (a digest wider than 53 bits fails one or the other)
for http in "$http0" "$http1" "$http2"; do
  m=$(digest "$http")
  p=$(scrape "$http" /peers.json \
    | sed -n 's/.*"store_digest":\([^,}]*\).*/\1/p')
  case "$m" in
    '' | *[!0-9]*)
      echo "net_store_digest '$m' is not a plain integer" >&2; exit 1 ;;
  esac
  [ "$m" = "$p" ] || {
    echo "net_store_digest $m, /peers.json store_digest $p" >&2; exit 1; }
done

# a conforming mesh trips no protocol error on any node: every Offer a
# node sends is strictly ascending, and so is every one it accepts
for http in "$http0" "$http1" "$http2"; do
  scrape "$http" /metrics > "$tmpdir/m"
  grep -q '^net_protocol_errors_total 0$' "$tmpdir/m" || {
    echo "node on HTTP port $http counted protocol errors:" >&2
    grep '^net_protocol_errors_total' "$tmpdir/m" >&2
    exit 1
  }
done

# the net metric families are live on a converged node
scrape "$http1" /metrics > "$tmpdir/m1"
grep -q '^# TYPE net_rounds_total counter' "$tmpdir/m1"
grep -q '^net_store_keys 3$' "$tmpdir/m1"
grep -q '^net_sync_shipped_bytes_total ' "$tmpdir/m1"
scrape "$http1" /stats.json | grep -q '"net_store_keys":3'

# /peers.json: identity plus a connected dial peer
scrape "$http1" /peers.json > "$tmpdir/peers1"
grep -q '"node_id":"n1"' "$tmpdir/peers1"
grep -q '"protocol":"vstamp-sync/2"' "$tmpdir/peers1"
grep -q '"state":"connected"' "$tmpdir/peers1"

# kill n0; n1 dials it, so its /peers.json must show the reconnect
# machinery: state backoff/connecting with the attempt counter climbing
kill -TERM "$p0"
wait "$p0" || true
pids=$(echo "$pids" | sed "s/ $p0//")
i=0
while :; do
  scrape "$http1" /peers.json > "$tmpdir/peers1" 2>/dev/null || true
  if grep -Eq '"state":"(backoff|connecting)"' "$tmpdir/peers1" \
    && grep -Eq '"attempts":[1-9]' "$tmpdir/peers1"; then
    break
  fi
  i=$((i + 1))
  [ "$i" -gt 100 ] && {
    echo "survivor never reported reconnect backoff" >&2
    cat "$tmpdir/peers1" >&2
    exit 1
  }
  sleep 0.1
done
grep -q '"last_error":' "$tmpdir/peers1"

# the rest of the cluster keeps serving through the outage
scrape "$http2" /healthz | grep -q '"status":"ok"'
kill -TERM "$p2"
wait "$p2" || true
pids=$(echo "$pids" | sed "s/ $p2//")
if scrape "$http2" /healthz >/dev/null 2>&1; then
  echo "n2 still answering after shutdown" >&2
  exit 1
fi

echo "serve net smoke ok"
