#!/usr/bin/env bash
# verify_all.sh: the PR gate. Builds three trees and runs the fast lane
# plus the chaos lane in each:
#
#   build/        plain (tier-1 reference configuration)
#   build-asan/   -DSANITIZE=address,undefined
#   build-tsan/   -DSANITIZE=thread
#
# then the digest lane: the campaign benchmark's self-tests and one
# short run of every workload on seed 9001, whose outputs must match the
# stored digests in campaign_bench/references byte for byte. That makes
# the determinism contract (CSV, report, merged metrics) part of the
# gate instead of a by-hand check; the lane only invokes the benchmark
# and builds it into .bench_build as its README describes.
#
#   tools/verify_all.sh [--fast]
#
# --fast skips the chaos lane (impaired 10k-target soaks) and runs only
# the fast lane in each tree; the digest lane runs either way. The soak
# and bench labels are never run here -- they have their own entry
# points (ctest -L soak, tools/run_benches.sh).
#
# On the plain tree the fast lane also runs a second pass with
# QREPRO_CRYPTO_BACKEND=portable, forcing every AEAD context and every
# SHA-256 object onto the scalar kernels: the default pass
# exercises the fastest kernels the host offers (aesni and SHA-NI where
# the ISA exists), so between the two passes both ends of the crypto
# dispatch (DESIGN.md "Crypto backends") stay green, for AES-GCM and
# SHA-256 alike -- tests that pin a backend explicitly are unaffected
# by the knob.
#
# On the plain tree each fast-lane gtest binary also runs whole, as one
# process: ctest's process per test hides a test that needs a fresh one.
#
# The last line is the tracked size (ROADMAP "Design quality"): the
# lines of all files under src/ and tools/, their sum, and tests/.
#
# On the sanitizer trees the fast lane additionally runs one pass with
# QREPRO_ADVERSARY=broken: every campaign that leaves
# CampaignOptions.adversary unset then scans a fabric of misbehaving
# endpoints (DESIGN.md "Adversarial endpoints"), so the mutated-
# handshake parse paths and the protocol-error classifier sweep under
# ASan/UBSan and the watchdog/steal interplay under TSan -- tests that
# pin an adversary explicitly are unaffected by the knob.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="$(nproc 2>/dev/null || echo 4)"
RUN_CHAOS=1
[[ "${1:-}" == "--fast" ]] && RUN_CHAOS=0

verify_tree() {
  local dir="$1"; shift
  local backends=(default)
  [[ "$dir" == build ]] && backends=(default portable)
  echo "=== $dir: configure + build"
  cmake -S "$ROOT" -B "$ROOT/$dir" "$@" >/dev/null
  cmake --build "$ROOT/$dir" -j"$JOBS"
  for backend in "${backends[@]}"; do
    echo "=== $dir: fast lane (ctest -LE 'soak|bench|chaos'," \
         "crypto backend $backend)"
    local env_prefix=(env)
    [[ "$backend" != default ]] && env_prefix+=("QREPRO_CRYPTO_BACKEND=$backend")
    (cd "$ROOT/$dir" && "${env_prefix[@]}" ctest --output-on-failure \
        -j"$JOBS" -LE 'soak|bench|chaos')
  done
  if [[ "$dir" == build ]]; then
    echo "=== $dir: fast-lane binaries, each as one process"
    local bin out
    for bin in "$ROOT/$dir"/tests/test_*; do
      [[ -x $bin && ! $bin =~ /test_(engine_soak|chaos)$ ]] || continue
      out="$("$bin" --gtest_brief=1 2>&1)" ||
        { echo "$out"; echo "verify_all: ${bin##*/} failed"; exit 1; }
    done
  fi
  if [[ "$dir" == build-asan || "$dir" == build-tsan ]]; then
    echo "=== $dir: fast lane (ctest -LE 'soak|bench|chaos'," \
         "adversary broken)"
    (cd "$ROOT/$dir" && env QREPRO_ADVERSARY=broken ctest \
        --output-on-failure -j"$JOBS" -LE 'soak|bench|chaos')
  fi
  if [[ "$RUN_CHAOS" == 1 ]]; then
    echo "=== $dir: chaos lane (ctest -L chaos)"
    (cd "$ROOT/$dir" && ctest --output-on-failure -L chaos)
  fi
}

verify_tree build
verify_tree build-asan -DSANITIZE=address,undefined
verify_tree build-tsan -DSANITIZE=thread

echo "=== campaign_bench: digest lane (selftest, --all --seed 9001)"
(cd "$ROOT" && python3 campaign_bench/run.py --selftest)
(cd "$ROOT" && python3 campaign_bench/run.py --all --seed 9001 --seconds 1)

echo "verify_all: all trees and the digest lane green"

lines() { find "$ROOT/$1" -type f -exec cat {} + | wc -l; }
echo "size: src $(lines src) + tools $(lines tools) =" \
     "$(($(lines src) + $(lines tools))) lines; tests $(lines tests)"
