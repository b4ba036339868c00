#!/usr/bin/env python3
"""Build the transaction-runtime benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload inmem-private --seed 1 --seconds 10 --trace 0

Every argument is passed to perfbench/main.exe (see README.md next to
this file).  The wrapper adds the host facts the OCaml side cannot read
by itself: the commit hash (from .git when the checkout has one) and the
online CPU count.  It exits non-zero without a result when the checkout
does not hold the library sources the benchmark builds against.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def commit_hash():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 0


def main():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        print("perfbench: no dune-project and lib/ next to perfbench/; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    # The dune cache lives outside the checkout; keep every write inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    args = [EXE] + sys.argv[1:] + [
        "--commit", commit_hash(),
        "--nproc", str(nproc()),
        "--work-dir", os.path.join(ROOT, ".perfbench_tmp"),
    ]
    return subprocess.run(args, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode


if __name__ == "__main__":
    sys.exit(main())
