#!/bin/sh
# Exports with no caller: for each `val NAME` in lib/*/*.mli, look for
# NAME as a whole word in the .ml files under lib, bin, bench,
# perfbench, test and examples, skipping the module's own .ml.  Prints
# "INTERFACE: NAME" for every name with no hit and exits 1 if there is
# one.  Tests count as callers.
# Run from anywhere: sh scripts/unused_exports.sh
set -eu

cd "$(dirname "$0")/.."

sources=$(find lib bin bench perfbench test examples -name '*.ml' \
  -not -path '*/_build/*' | sort)
status=0
for mli in lib/*/*.mli; do
  own=${mli%.mli}.ml
  others=$(printf '%s\n' "$sources" | grep -vxF "$own")
  names=$(sed -n "s/^ *val \([a-z_][A-Za-z0-9_']*\).*/\1/p" "$mli" | sort -u)
  for name in $names; do
    # shellcheck disable=SC2086 # the file list is split on purpose
    if ! grep -qw -e "$name" $others; then
      echo "$mli: $name"
      status=1
    fi
  done
done
exit "$status"
