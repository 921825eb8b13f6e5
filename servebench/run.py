#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

Usage (from the repository root):
  python3 servebench/run.py --workload fresh_pages --seed 1 --seconds 20 --trace 0

The build tree is .bench_build/ and trace files go to .bench_out/, both
at the repository root. Build output goes to stderr, so the last line of
stdout is the benchmark's result JSON.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")


def build():
    jobs = str(max(1, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    try:
        build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"servebench: build failed: {err}", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD, "servebench")
    args = [binary] + sys.argv[1:] + ["--out_dir", OUT]
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main())
