#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: lenet-pipeline, mlp-batched, lenet-served, lenet-sharded. The build goes to
$CARGO_TARGET_DIR (default: .bench_build); models, reference counts and traces go to
.bench_data. Build output goes to standard error, so the last line of standard output
is the benchmark's JSON result. Exits non-zero, without a result, when the build fails
or the arguments are wrong.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# What the measured program is built from: hashed into the result so two results of
# different sources are never compared silently (the checkout need not be a git
# repository).
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "src", "vendor", "perfbench"]
SKIP_DIRS = {"target", ".bench_build", ".bench_data", "__pycache__"}


def source_id():
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        git = f"git-{sha}{'-dirty' if dirty else ''}"
    except (OSError, subprocess.CalledProcessError):
        git = "git-none"
    digest = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        files = []
        if os.path.isfile(path):
            files.append(path)
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return f"{git}-src-{digest.hexdigest()[:12]}"


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(target, "release", "perfbench")
    args = sys.argv[1:] + [
        "--data-dir",
        os.path.join(ROOT, ".bench_data"),
        "--source",
        source_id(),
    ]
    # Train or load the models and compute the serial reference in a process of their
    # own, so the measuring process starts warm.
    prepare = subprocess.run([binary] + args + ["--prepare"], cwd=ROOT, stdout=sys.stderr)
    if prepare.returncode != 0:
        return prepare.returncode
    sys.stdout.flush()
    return subprocess.run([binary] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
