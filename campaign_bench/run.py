#!/usr/bin/env python3
"""Build and run the campaign benchmark (see README.md here).

Run from the root of a checkout:

  python3 campaign_bench/run.py --workload sni_scan --seed 1 --seconds 25
  python3 campaign_bench/run.py --all --seed 1 --seconds 25   # every workload
  python3 campaign_bench/run.py --workload sni_scan --seed 1 --record
  python3 campaign_bench/run.py --selftest

The first call configures and compiles a Release build of src/ plus the
benchmark into $CARGO_TARGET_DIR (default .bench_build); later calls only
rebuild what changed. Build output goes to stderr; stdout carries the
benchmark's report, whose last line is the JSON result.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["weekly_sweep", "sni_scan", "sni_hostile"]


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("campaign_bench: src/ not found next to the benchmark; "
                 "run from the root of a full checkout")
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", target])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("campaign_bench: build failed: " + " ".join(step))
    return os.path.join(build_dir, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's digests as the reference")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's self-tests")
    args = parser.parse_args()

    if args.selftest:
        selftest = build("campaign_bench_selftest")
        return subprocess.run([selftest],
                              cwd=os.path.dirname(selftest)).returncode
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload or --all")

    binary = build("campaign_bench")
    status = 0
    for workload in WORKLOADS if args.all else [args.workload]:
        command = [binary, "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--references", os.path.join(HERE, "references")]
        if args.record:
            command.append("--record")
        sys.stdout.flush()
        returncode = subprocess.run(command).returncode
        status = status or returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
