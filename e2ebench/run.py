#!/usr/bin/env python3
"""Builds the e2ebench binary from source and runs one workload.

    python3 e2ebench/run.py --workload detonate-mix --seed 1 --seconds 45 --trace 0

Run it from the repository root. The first run configures and builds the
product libraries and the binary into .bench_build/e2ebench (about a
minute on 4 cores); later runs only re-check the build. All build output
goes to standard error, so the last line of standard output is the
binary's JSON result. Extra flags (--smoke, --plant-wrong-verdict) pass
through.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2ebench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2ebench: the product sources (src/) are not next to the "
                 "benchmark; run from a full checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", BUILD, "--target", "e2ebench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("e2ebench: build failed: %s" % err)
    sys.stdout.flush()
    result = subprocess.run([BINARY, "--workdir", BUILD] + sys.argv[1:])
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
