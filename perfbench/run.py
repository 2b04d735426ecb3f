#!/usr/bin/env python3
"""Build the twq benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload doc64k --seed 1 --seconds 10 --trace 0

Workloads: doc64k, deep, corpus, walkers. The build goes to
$CARGO_TARGET_DIR (default: .bench_build in the checkout). Build output goes
to standard error; standard output is the benchmark's report, whose last
line is one JSON object. Spans of traced runs go to perfbench/out/.
"""

import hashlib
import os
import resource
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def source_digest():
    """A digest of the program and benchmark sources, for the report header."""
    h = hashlib.sha256()
    for top in ("crates", "perfbench/src"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:12]


def commit():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        rev = out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        rev = "none"
    return f"{rev}+src:{source_digest()}"


def no_core_dumps():
    # The deep robustness op aborts a child on purpose.
    resource.setrlimit(resource.RLIMIT_CORE, (0, 0))


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("benchmark build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target if os.path.isabs(target) else os.path.join(ROOT, target),
                       "release", "twq-perfbench")
    args = [exe, *sys.argv[1:], "--commit", commit(),
            "--out", os.path.join(ROOT, "perfbench", "out")]
    try:
        run = subprocess.run(args, cwd=ROOT, timeout=RUN_TIMEOUT_S, preexec_fn=no_core_dumps)
    except subprocess.TimeoutExpired:
        print(f"benchmark run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode if run.returncode >= 0 else 1


if __name__ == "__main__":
    sys.exit(main())
