#!/usr/bin/env python3
"""Build masq_bench from source, then run one workload.

Usage, from the repository root:

  python3 bench/suite/run.py --workload <name> --seed <n> --seconds <s> \
      --trace <0|1>

Configures bench/suite as a CMake project of its own in .bench_build/
(Release; the first build compiles the simulator, later ones only check it),
then runs masq_bench with the same arguments. masq_bench's last stdout line is
the result JSON. Build output goes to stderr, so a failed build prints no
result and exits non-zero.
"""

import os
import subprocess
import sys
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
BUILD = ROOT / ".bench_build"


def build():
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(SUITE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "masq_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    return True


def main():
    try:
        built = build()
    except OSError as e:  # cmake missing
        print(f"run.py: {e}", file=sys.stderr)
        built = False
    if not built:
        print("run.py: build failed", file=sys.stderr)
        return 1
    return subprocess.run([str(BUILD / "masq_bench")] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
