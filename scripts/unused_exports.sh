#!/bin/sh
# Exports with no caller: lists each `val NAME` in lib/*/*.mli that no
# other .ml file under lib, bin, bench, perfbench, test or examples
# uses, and exits 1 if there is one.  Tests count as callers.  A file
# F uses NAME of module M (lib/L/m.mli) when F is not lib/L/m.ml and
# its code, outside comments and strings, has
#   - M.NAME, with any library prefix or submodule path in between;
#   - A.NAME, where some file binds `module A = ...` (or `let module`)
#     to a right-hand side that names M or, transitively, another such
#     A: an alias, a functor application, a first-class unpack;
#   - NAME as a whole word, when F opens M, a submodule of M or such
#     an A (`open`, `let open ... in`, `include`, `M.( ... )`).
# A `val` inside a `module type ... = sig` is a signature obligation
# and is not checked.  Any doubt keeps an export.  Prints how many
# names it checked on stderr, and exits 1 when that count is 0.
# Run from anywhere: sh scripts/unused_exports.sh
set -eu

cd "$(dirname "$0")/.."

sources=$(find lib bin bench perfbench test examples -name '*.ml' \
  -not -path '*/_build/*' | sort)
# shellcheck disable=SC2086 # the file list is split on purpose
exec awk '
# The code of one line, with comments and string contents blanked.  An
# open comment or string carries over to the next line.
function code(s,   out, re, tok, i) {
  gsub(/\047(\\.|[^\\\047])\047/, "c", s)
  out = ""
  while (s != "") {
    if (quote != "") {
      if (!(i = index(s, quote))) break
      s = substr(s, i + length(quote)); quote = ""; continue
    }
    re = instr ? "\\\\.|\"" : "\\(\\*|\\*\\)|\"|\\{[a-z_]*\\|"
    if (!match(s, re)) {
      if (!instr && !depth) out = out s
      break
    }
    tok = substr(s, RSTART, RLENGTH)
    if (!instr && !depth) out = out substr(s, 1, RSTART - 1) " "
    s = substr(s, RSTART + RLENGTH)
    if (tok == "\"") instr = !instr
    else if (instr) continue
    else if (tok == "(*") depth++
    else if (tok == "*)") { if (depth) depth-- }
    else quote = "|" substr(tok, 2, length(tok) - 2) "}"
  }
  return out
}
# Record that alias a names every module in s.
function names(a, s,   n, t, i) {
  n = split(s, t, /[^A-Za-z0-9_\047]+/)
  for (i = 1; i <= n; i++) if (t[i] ~ /^[A-Z]/) rev[t[i]] = rev[t[i]] " " a
}
FNR == 1 { depth = instr = nstack = ntype = tpend = 0; quote = pend = "" }
FILENAME ~ /\.mli$/ {
  c = code($0)
  if (!ntype && match(c, /^[ \t]*val[ \t]+[a-z_][A-Za-z0-9_\047]*/)) {
    name = substr(c, RSTART, RLENGTH); sub(/^[ \t]*val[ \t]+/, "", name)
    if (!((FILENAME, name) in seen)) {
      seen[FILENAME, name] = 1; mli[++nvals] = FILENAME; val[nvals] = name
    }
  }
  n = split(c, t, /[^A-Za-z0-9_\047]+/)
  for (i = 1; i <= n; i++) {
    if (t[i] == "module") tpend = t[i + 1] == "type" && t[i + 2] != "of"
    else if (t[i] ~ /^(sig|struct|object|begin)$/) {
      stack[++nstack] = tpend; ntype += tpend; tpend = 0
    } else if (t[i] == "end" && nstack) ntype -= stack[nstack--]
  }
  next
}
{
  c = code($0)
  if (pend != "" && c ~ /[^ \t]/) { names(pend, c); pend = "" }
  if (match(c, /module[ \t]+[A-Z][A-Za-z0-9_\047]*[ \t]*=/)) {
    a = substr(c, RSTART + 6, RLENGTH - 7); gsub(/[ \t]/, "", a)
    rhs = substr(c, RSTART + RLENGTH)
    if (rhs ~ /^[ \t]*$/) pend = a; else names(a, rhs)
  }
  n = split(c, t, /[^A-Za-z0-9_\047.]+/)
  for (i = 1; i <= n; i++) {
    if (t[i] == "open" || t[i] == "include") {
      np = split(t[i + 1], p, ".")
      for (j = 1; j <= np; j++)
        if (p[j] ~ /^[A-Z]/) opens[p[j], FILENAME] = 1
    }
    np = split(t[i], p, ".")
    nc = 0
    for (j = 1; j <= np; j++) {
      if (p[j] ~ /^[A-Z]/) { caps[++nc] = p[j]; continue }
      if (p[j] == "" && j == np)
        # M.( ... ), M.[ ... ] or M.{ ... }: a local open
        for (k = 1; k <= nc; k++) opens[caps[k], FILENAME] = 1
      else if (p[j] ~ /^[a-z_]/) {
        words[FILENAME, p[j]] = 1
        for (k = 1; k <= nc; k++) {
          key = caps[k] SUBSEP p[j]
          if (!(key in first)) first[key] = FILENAME
          else if (first[key] != FILENAME) many[key] = 1
        }
      }
      nc = 0
    }
  }
}
# The modules a use of m may be written through: m and every alias that
# reaches it.
function via(m,   out, q, h, n, t, i, k) {
  out = " " m " "; q[n = 1] = m
  for (h = 1; h <= n; h++) {
    k = split(rev[q[h]], t, " ")
    for (i = 1; i <= k; i++)
      if (!index(out, " " t[i] " ")) { out = out t[i] " "; q[++n] = t[i] }
  }
  return out
}
END {
  for (k in opens) {
    split(k, kk, SUBSEP); openers[kk[1]] = openers[kk[1]] " " kk[2]
  }
  status = 0
  for (x = 1; x <= nvals; x++) {
    own = mli[x]; sub(/i$/, "", own)
    m = mli[x]; sub(/.*\//, "", m); sub(/\.mli$/, "", m)
    m = toupper(substr(m, 1, 1)) substr(m, 2)
    if (!(m in paths)) paths[m] = via(m)
    nv = split(paths[m], v, " ")
    used = 0
    for (i = 1; i <= nv && !used; i++) {
      key = v[i] SUBSEP val[x]
      if (key in first && (first[key] != own || key in many)) used = 1
      nf = split(openers[v[i]], f, " ")
      for (j = 1; j <= nf && !used; j++)
        if (f[j] != own && (f[j], val[x]) in words) used = 1
    }
    if (!used) { print mli[x] ": " val[x]; status = 1 }
  }
  printf "%d exported names checked\n", nvals > "/dev/stderr"
  exit nvals ? status : 1
}
' $sources lib/*/*.mli
