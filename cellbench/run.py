#!/usr/bin/env python3
"""Builds the cellbench harness from source and runs one workload.

    python3 cellbench/run.py --workload fig4_cells --seed 0 --seconds 10 --trace 0
    python3 cellbench/run.py --self-test

Run from the repository root. The build lives in $CARGO_TARGET_DIR
(default .bench_build) under cellbench/. Seed 0 is checked against the
stored reference in cellbench/reference/seed0.json; for any other seed
the interpreter-tier reference is derived first, in its own process, and
cached beside the build. The last line of standard output is the result
object; everything else (build output, mismatches) goes to stderr.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig4_cells", "long_translated", "verify_gate", "smp_attack")
# Workloads whose ops need simulated facts from the interpreter tier.
SIMULATED = ("fig4_cells", "long_translated")
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 850


def log(message):
    print(f"cellbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "cellbench"


def call(cmd, timeout, **kwargs):
    """Runs cmd to completion; on timeout the child is killed and reaped."""
    try:
        return subprocess.run(cmd, timeout=timeout, check=False, **kwargs).returncode
    except subprocess.TimeoutExpired:
        log(f"timed out after {timeout:.0f} s: {' '.join(map(str, cmd))}")
        return 124


def build(bdir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no simulator sources under {ROOT / 'src'}; cannot build")
        return False
    started = time.monotonic()
    if not (bdir / "CMakeCache.txt").is_file():
        if call(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                BUILD_LIMIT_S, stdout=sys.stderr) != 0:
            return False
    left = BUILD_LIMIT_S - (time.monotonic() - started)
    jobs = str(min(os.cpu_count() or 1, 4))
    return call(["cmake", "--build", bdir, "-j", jobs, "--target", "cellbench"],
                left, stdout=sys.stderr) == 0


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() or "none"


def src_digest():
    """SHA-256 over the simulator and benchmark sources, for provenance."""
    digest = hashlib.sha256()
    for top in ("src", "cellbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def reference_for(binary, bdir, workload, seed, deadline):
    if seed == 0:
        return HERE / "reference" / "seed0.json"
    if workload not in SIMULATED:
        return None
    path = bdir / "ref" / f"{workload}-seed{seed}.json"
    if not path.is_file():
        path.parent.mkdir(parents=True, exist_ok=True)
        partial = path.with_name(path.name + f".{os.getpid()}.tmp")
        code = call([binary, "--derive", "--workload", workload, "--seed", str(seed),
                     "--out", partial], deadline - time.monotonic())
        if code != 0:
            partial.unlink(missing_ok=True)
            return False
        os.replace(partial, path)
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    bdir = build_dir()
    if not build(bdir):
        log("build failed")
        return 1
    binary = bdir / "cellbench"
    if args.self_test:
        return call([binary, "--self-test"], RUN_LIMIT_S)

    deadline = time.monotonic() + RUN_LIMIT_S
    reference = reference_for(binary, bdir, args.workload, args.seed, deadline)
    if reference is False:
        log("could not derive the reference")
        return 1
    stem = f"{args.workload}-seed{args.seed}"
    for sub in ("results", "traces"):
        (bdir / sub).mkdir(parents=True, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result-out", bdir / "results" / f"{stem}-trace{args.trace}.json",
           "--git-sha", git_sha(), "--src-digest", src_digest()]
    if reference is not None:
        cmd += ["--reference", reference]
    if args.trace:
        cmd += ["--trace-out", bdir / "traces" / f"{stem}.json"]
    sys.stdout.flush()
    return call(cmd, deadline - time.monotonic())


if __name__ == "__main__":
    sys.exit(main())
