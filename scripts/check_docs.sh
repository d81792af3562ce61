#!/usr/bin/env bash
# Documentation link checker (run by scripts/ci.sh):
#   1. every `DESIGN.md §N` reference anywhere in the repo must resolve
#      to an actual `## N.` section heading in DESIGN.md;
#   2. every relative markdown link in the top-level docs must point at
#      a file that exists;
#   3. every `op/variant` row EXPERIMENTS.md or README.md cites must be in
#      `BENCH_tuning_latency.json`, which `perf_report` writes;
#   4. no doc but CHANGES.md names a timing tool other than `perf_report`.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
docs=(README.md OPERATIONS.md CONTRIBUTING.md DESIGN.md EXPERIMENTS.md ROADMAP.md PAPER.md)

# --- 1. DESIGN.md section references -------------------------------------
sections=$(grep -oE '^## [0-9]+' DESIGN.md | awk '{print $2}')
refs=$(grep -rhoE 'DESIGN\.md §[0-9]+' "${docs[@]}" CHANGES.md crates tests scripts examples 2>/dev/null \
  | grep -oE '[0-9]+$' | sort -un)
checked=0
for n in $refs; do
  checked=$((checked + 1))
  if ! printf '%s\n' "$sections" | grep -qx "$n"; then
    echo "ERROR: 'DESIGN.md §$n' is referenced but DESIGN.md has no '## $n.' section" >&2
    fail=1
  fi
done
echo "check_docs: $checked distinct DESIGN.md § reference(s) checked"

# --- 2. relative links in the docs ---------------------------------------
links=0
for f in "${docs[@]}"; do
  [ -f "$f" ] || continue
  # [text](target) links, minus URLs and pure #anchors
  while IFS= read -r target; do
    [ -n "$target" ] || continue
    case "$target" in
      http://* | https://* | mailto:*) continue ;;
    esac
    links=$((links + 1))
    if [ ! -e "${target%%#*}" ]; then
      echo "ERROR: $f links to missing file: $target" >&2
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$f" | sed 's/^](//; s/)$//' | grep -v '^#' || true)
done
echo "check_docs: $links relative link(s) checked"

# --- 3. cited perf_report rows ---------------------------------------------
# A backticked `a/b` whose `a` is not a directory here (`crates/core` is a
# path, `store_scan/filter_pushdown` a row).
rows=0
while IFS= read -r cited; do
  op=${cited%%/*}
  [ -d "$op" ] && continue
  rows=$((rows + 1))
  if ! grep -qF "\"op\": \"$op\", \"variant\": \"${cited#*/}\"" BENCH_tuning_latency.json; then
    echo "ERROR: perf_report row '$cited' is cited but not in BENCH_tuning_latency.json" >&2
    fail=1
  fi
done < <(grep -ohE '`[a-z][a-z0-9_]*/[a-z0-9_]+`' EXPERIMENTS.md README.md | tr -d '`' | sort -u)
echo "check_docs: $rows cited perf_report row(s) checked"

# --- 4. one timing tool -----------------------------------------------------
if grep -niE 'cargo bench|criterion' "${docs[@]}" .claude/skills/verify/SKILL.md; then
  echo "ERROR: a doc names a timing tool other than perf_report (above)" >&2
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED" >&2
  exit 1
fi
echo "check_docs: OK"
