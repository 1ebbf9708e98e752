#!/usr/bin/env python3
"""Builds the matopt request benchmark from this checkout and runs it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cold_plan|exec_local|exec_sharded \
        --seed N --seconds S --trace 0|1 [--corrupt-sink]

The first call configures and builds perfbench/ (which compiles the matopt
library from src/) into .bench_build/perfbench; later calls only rebuild what
changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. With --trace 1 the spans are written to
.bench_build/perfbench/trace-<workload>-seed<N>.json (Chrome trace-event
format). Exit status is the benchmark's; 1 when the build fails or the sources
are missing. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "matopt_perfbench"
# One invocation must end within three minutes; the benchmark caps its own
# measured phase well below this.
TIMEOUT_S = 175


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: no matopt sources under {ROOT / 'src'}",
              file=sys.stderr)
        return False
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "matopt_perfbench", "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cold_plan", "exec_local", "exec_sharded"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--corrupt-sink", action="store_true",
                        help="flip one bit of the first measured sink, to "
                             "show that the output check fails the run")
    args = parser.parse_args()

    if not build():
        return 1
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--source-sha", source_id()]
    if args.trace == "1":
        trace_file = BUILD_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        command += ["--trace-file", str(trace_file)]
    if args.corrupt_sink:
        command.append("--corrupt-sink")
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=ROOT,
                              timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
