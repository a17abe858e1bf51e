#!/usr/bin/env bash
# cache-resume-smoke.sh — end-to-end resume gate for ncapsweep.
#
# Resuming an interrupted sweep means rerunning it with the same -cache:
#
#   1. Run the E11 sweep without a cache: the golden tables and report.
#   2. Run it again with -cache, then delete half of the cache entries —
#      the state an interrupted sweep leaves behind.
#   3. Rerun with the same -cache. The tables and the report must be
#      byte-identical to the golden ones, and the cache whole again.
#
# Usage: scripts/cache-resume-smoke.sh [workdir]   (workdir is recreated)
set -euo pipefail

WORK=${1:-cache-resume-smoke}
rm -rf "$WORK"
mkdir -p "$WORK"
BIN="$WORK/ncapsweep"
go build -o "$BIN" ./cmd/ncapsweep
SWEEP=(-exp e11 -workload apache -jobs 2 -q)
CACHE="$WORK/cache"

echo "== golden (uncached) =="
"$BIN" "${SWEEP[@]}" -json "$WORK/golden.json" > "$WORK/golden.txt"

echo "== first run with -cache =="
"$BIN" "${SWEEP[@]}" -cache "$CACHE" -json "$WORK/first.json" > "$WORK/first.txt"
entries=("$CACHE"/*.json)
total=${#entries[@]}
if [ "$total" -lt 2 ]; then
  echo "FAIL: cache holds $total entries after a full sweep" >&2
  exit 1
fi

echo "== interrupt: delete every other entry of $total =="
for i in "${!entries[@]}"; do
  if (( i % 2 == 0 )); then
    rm "${entries[$i]}"
  fi
done
left=$(find "$CACHE" -name '*.json' | wc -l)
echo "$left of $total entries left"

echo "== resume with the same -cache =="
"$BIN" "${SWEEP[@]}" -cache "$CACHE" -json "$WORK/resumed.json" > "$WORK/resumed.txt"
cmp "$WORK/golden.txt" "$WORK/resumed.txt"
cmp "$WORK/golden.json" "$WORK/resumed.json"
after=$(find "$CACHE" -name '*.json' | wc -l)
if [ "$after" -ne "$total" ]; then
  echo "FAIL: resumed sweep left $after of $total cache entries" >&2
  exit 1
fi
echo "OK: resumed tables and report are byte-identical to the uncached run"
