#!/usr/bin/env bash
# verify_all.sh: the PR gate. Builds three trees and runs the fast lane
# plus the chaos lane in each:
#
#   build/        plain (tier-1 reference configuration)
#   build-asan/   -DSANITIZE=address,undefined
#   build-tsan/   -DSANITIZE=thread
#
#   tools/verify_all.sh [--fast]
#
# --fast skips the chaos lane (impaired 10k-target soaks) and runs only
# the fast lane in each tree. The soak and bench labels are never run
# here -- they have their own entry points (ctest -L soak,
# tools/run_benches.sh).
#
# On the TSan tree the fast lane runs twice, once per campaign
# schedule: QREPRO_SCHEDULE=static/dynamic flips the default for every
# test that leaves CampaignOptions.schedule unset, so the race
# detector sweeps both the static worker-per-shard path and the
# dynamic steal loop (tests that pin a schedule explicitly are
# unaffected by the knob).
#
# On the plain tree the fast lane also runs a second pass with
# QREPRO_CRYPTO_BACKEND=portable, forcing every AEAD context and every
# SHA-256 object onto the reference scalar kernels: the default pass
# exercises the fastest kernels the host offers (aesni and SHA-NI where
# the ISA exists), so between the two passes both ends of the crypto
# dispatch (DESIGN.md "Crypto backends") stay green, for AES-GCM and
# SHA-256 alike -- tests that pin a backend explicitly are unaffected
# by the knob.
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
  local schedules=(default)
  [[ "$dir" == build-tsan ]] && schedules=(static dynamic)
  local backends=(default)
  [[ "$dir" == build ]] && backends=(default portable)
  echo "=== $dir: configure + build"
  cmake -S "$ROOT" -B "$ROOT/$dir" "$@" >/dev/null
  cmake --build "$ROOT/$dir" -j"$JOBS"
  for schedule in "${schedules[@]}"; do
    for backend in "${backends[@]}"; do
      echo "=== $dir: fast lane (ctest -LE 'soak|bench|chaos'," \
           "schedule $schedule, crypto backend $backend)"
      local env_prefix=(env)
      [[ "$schedule" != default ]] && env_prefix+=("QREPRO_SCHEDULE=$schedule")
      [[ "$backend" != default ]] && env_prefix+=("QREPRO_CRYPTO_BACKEND=$backend")
      (cd "$ROOT/$dir" && "${env_prefix[@]}" ctest --output-on-failure \
          -j"$JOBS" -LE 'soak|bench|chaos')
    done
  done
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

echo "verify_all: all trees green"
