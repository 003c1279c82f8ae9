#!/usr/bin/env python3
"""Build the benchmark from source, then run it.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The arguments pass through to perfbench/main.exe (see README.md here),
which runs pinned to one CPU (see "Measuring on a shared host" there).
Build output goes to standard error, so the last line of standard
output is the benchmark's JSON result. Everything the run writes stays
inside the working directory: _build/ for the build and .perfbench/ for
scratch files and traced-run reports.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    scratch = os.path.join(root, ".perfbench", "tmp")
    os.makedirs(scratch, exist_ok=True)
    # No shared dune cache outside the working directory; temporary
    # files of the program land in the scratch directory.
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=scratch)
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/main.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    # The program runs its OCaml code on one domain. Spread over two
    # vCPUs of a shared host, its threads' hand-offs wait on the host to
    # wake the other vCPU, which measures the host's load.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
