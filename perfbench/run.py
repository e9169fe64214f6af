#!/usr/bin/env python3
"""Build the end-to-end benchmark driver from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload link_bursty --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The driver and the library sources it links are built as a Release CMake
project under .bench_build/perfbench (compiled on first use, rebuilt
incrementally after).  Build output goes to stderr, so the driver's JSON
result stays the last line of stdout.  Span files and spools are written
under .bench_build/perfbench/run.  perfbench/README.md describes the
workloads and metrics.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "disco_perfbench")


def build():
    """Configure and build the driver (incrementally after the first run).

    Configuring every time is cheap and repairs a tree whose first
    configure failed.  Raises CalledProcessError on failure.
    """
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "disco_perfbench", "-j", "4"],
                   stdout=sys.stderr, check=True)


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def main(argv):
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    cmd = [BINARY] + argv + ["--out", os.path.join(BUILD, "run")]
    if "--smoke" not in argv:
        sha = git_sha()
        if sha:
            cmd += ["--git-sha", sha]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
