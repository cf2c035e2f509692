#!/usr/bin/env bash
# Builds the benchmark program and runs the repository benchmark. Run it from
# anywhere inside a full checkout; it works from the checkout root.
#
#   bash benchmark/run.sh                  full set: every workload, seed 1
#   bash benchmark/run.sh --seed 2         full set on the held-out seed
#   bash benchmark/run.sh --trace          traced full set (per-layer metrics)
#   bash benchmark/run.sh --smoke          every workload at 1/20 scale, the
#                                          pre-push check (< 30 s)
#   bash benchmark/run.sh --workload NAME [--seed N] [--seconds S]
#                         [--trace 0|1]    one workload; the last line of
#                                          output is its JSON result
#
# Full sets append one JSON line per workload to
# benchmark/out/set_<seed>_<time>.jsonl; compare sets with
# benchmark/agree.py. Exits non-zero when the build fails or any run
# reports a failed operation or a wrong delivery.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"
if [[ ! -f CMakeLists.txt || ! -d src ]]; then
  echo "run.sh: needs the repository sources (CMakeLists.txt, src/) next to benchmark/" >&2
  exit 2
fi

workload="" seed=1 seconds="" trace=0 smoke=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then trace="$2"; shift 2
      else trace=1; shift; fi ;;
    --smoke) smoke=1; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

OUT=benchmark/out
BUILD="$OUT/build"
mkdir -p "$OUT"
if [[ ! -f "$BUILD/CMakeCache.txt" ]]; then
  generator=()
  if command -v ninja >/dev/null; then generator=(-G Ninja); fi
  cmake -S benchmark -B "$BUILD" "${generator[@]}" \
    -DCMAKE_BUILD_TYPE=Release >&2
fi
jobs=$(nproc 2>/dev/null || echo 2)
cmake --build "$BUILD" --parallel "$(( jobs < 4 ? jobs : 4 ))" >&2
BIN="$BUILD/ps2bench"

PS2BENCH_GIT_REV="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export PS2BENCH_GIT_REV

args=(--seed "$seed" --trace "$trace" --out "$OUT")
[[ -n "$seconds" ]] && args+=(--seconds "$seconds")
[[ "$smoke" == 1 ]] && args+=(--smoke)

if [[ -n "$workload" ]]; then
  exec "$BIN" --workload "$workload" "${args[@]}"
fi

set_file="$OUT/set_${seed}_$(date +%Y%m%d-%H%M%S).jsonl"
status=0
for w in $("$BIN" --list); do
  "$BIN" --workload "$w" "${args[@]}" --result-file "$set_file" || status=1
  echo
done
echo "results: $set_file"
exit "$status"
