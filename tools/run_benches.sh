#!/usr/bin/env bash
# run_benches.sh: build the Release tree and refresh every committed
# BENCH_*.json from the bench/micro_* binaries, uniformly.
#
#   tools/run_benches.sh [build-dir]
#
# The Google-Benchmark binaries (micro_codec, micro_scanner,
# micro_telemetry) emit their standard JSON via --benchmark_out; the
# wall-clock campaign benches (micro_engine, micro_hotpath, micro_chaos,
# micro_adversary, micro_report)
# write their own JSON summaries. BENCH_adversary.json carries the
# per-adversary-profile classification throughput and outcome taxonomy
# plus the 10k malicious+hostile soak (micro_adversary aborts on any
# jobs-1-vs-4 outcome drift or unclassified attempt). All artifacts land in the repository
# root as BENCH_<name>.json so diffs of a perf PR show the numbers
# moving. BENCH_engine.json carries both the clean scaling sweep and
# the hostile load-balance section at --jobs = cores (throughput plus
# the busy-time straggler ratio; micro_engine itself enforces the
# straggler <= 1.20 gate on multi-core hosts).
# BENCH_hotpath.json additionally carries the per-crypto-backend
# aead_seal_cached sweep ("backends": portable / aesni); micro_hotpath
# enforces two crypto gates before it rewrites the file -- aesni must be
# >= 3x portable where the ISA exists, and on AES-NI hosts aead_seal_cached
# must not regress > 10% against the committed JSON it is replacing --
# so a kernel regression fails this script instead of silently
# refreshing the baseline it is measured against.
#
# Benches also exist as ctest entries labeled `bench` (ctest -L bench),
# but that path drops the JSON in the build tree; this script is the
# front door for refreshing the committed copies.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build-release}"
JOBS="$(nproc 2>/dev/null || echo 4)"

cmake -S "$ROOT" -B "$BUILD" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD" -j"$JOBS" --target \
  micro_codec micro_scanner micro_telemetry micro_engine micro_hotpath \
  micro_chaos micro_adversary micro_report

# Google-Benchmark timing suites: standard JSON reporter.
for name in codec scanner telemetry; do
  echo "== micro_$name"
  "$BUILD/bench/micro_$name" \
    --benchmark_out="$ROOT/BENCH_$name.json" \
    --benchmark_out_format=json
done

# Wall-clock campaign benches: self-managed JSON summaries.
echo "== micro_engine"
"$BUILD/bench/micro_engine" "$ROOT/BENCH_engine.json"
echo "== micro_hotpath"
"$BUILD/bench/micro_hotpath" "$ROOT/BENCH_hotpath.json"
echo "== micro_chaos"
"$BUILD/bench/micro_chaos" "$ROOT/BENCH_chaos.json"
echo "== micro_adversary"
"$BUILD/bench/micro_adversary" "$ROOT/BENCH_adversary.json"
echo "== micro_report"
"$BUILD/bench/micro_report" "$ROOT/BENCH_report.json"

echo "refreshed:"
ls -1 "$ROOT"/BENCH_*.json
