#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of the repository. The program and the library under
src/ are built with CMake (Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; the first run builds,
later runs only check that the build is current. Build output goes to
stderr, so the last line of stdout is the program's JSON result. The exit
status is the program's: 0 when the run is correct, 1 when a check failed,
2 on a usage or build error.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["fig9_grid", "traffic_steady", "traffic_overload", "pdes_allreduce"]


def build(build_dir: Path) -> Path:
    """Configures (once) and builds the program; returns the executable."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return build_dir / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    if not (HERE.parent / "src" / "CMakeLists.txt").is_file():
        print("perfbench: the library sources (src/) are missing; run from a "
              "full checkout of the repository", file=sys.stderr)
        return 2
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = build_dir.resolve() / "perfbench"
    try:
        exe = build(build_dir)
    except (RuntimeError, OSError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(build_dir)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
