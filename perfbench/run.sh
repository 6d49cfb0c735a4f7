#!/bin/sh
# Build the serve-path benchmark from source, then run it:
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the last stdout line is the JSON result.
#
# The run is pinned to one processor.  Its threads take turns on the
# OCaml runtime lock anyway, and on a shared virtual machine a wakeup
# sent to an idle processor waits for the host to schedule it: unpinned,
# that wait shows up as host steal in every round trip.
set -eu
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --profile release --display quiet perfbench/main.exe 1>&2
cpu=$(taskset -cp $$ | sed 's/.*[:,-] *//')
exec taskset -c "$cpu" ./_build/default/perfbench/main.exe "$@"
