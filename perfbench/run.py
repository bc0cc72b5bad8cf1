#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload ring_mixed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all        # every workload, both modes

The benchmark is built from source with cargo (release profile, offline)
into $CARGO_TARGET_DIR, or `.bench_build` when that is unset. For one
workload the last line of standard output is the result JSON; its metric
names are checked against BENCHMARK.json. The exit code is nonzero when
the build fails, a correctness or durability check fails, or the result
does not match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("ring_mixed", "vfs_cold", "file_serve")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_rev(root):
    """The git revision when the checkout is a repository, else a hash of
    the sources the benchmark builds from."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            dirty = subprocess.run(
                ["git", "status", "--porcelain", "--", "crates", "perfbench"],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip()
            return out.stdout.strip() + ("-dirty" if dirty else "")
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build(root, target_dir):
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        res = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            cwd=root,
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if res.returncode != 0:
        fail("build failed")
    return os.path.join(target_dir, "release", "perfbench")


def run_one(binary, root, target_dir, rev, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, (stdout lines, result dict
    or None))."""
    cmd = [
        binary,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--rev", rev,
        "--out", os.path.join(target_dir, "perfbench-reports"),
    ]
    try:
        res = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} timed out", file=sys.stderr)
        return 1, ([], None)
    sys.stderr.write(res.stderr)
    lines = res.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return res.returncode, (lines, result)


def check_result(result, spec, trace):
    """The result has exactly the contract's keys and the metric names
    BENCHMARK.json lists for this mode."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, unit {wrong}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    args = ap.parse_args()

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found; run from the root of a checkout")
    for need in ("Cargo.toml", "crates"):
        if not os.path.exists(os.path.join(root, need)):
            fail(f"{need} not found; the benchmark builds the repository's crates from source")
    with open(spec_path) as f:
        spec = json.load(f)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    if seconds < 1:
        fail("--seconds must be at least 1")

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    binary = build(root, target_dir)
    rev = source_rev(root)

    if args.workload != "all":
        if args.trace is None:
            fail("--trace is required for a single workload")
        code, (lines, result) = run_one(
            binary, root, target_dir, rev, args.workload, args.seed, seconds, args.trace
        )
        problem = "no result line" if result is None else check_result(result, spec, args.trace)
        if problem:
            # Show what the run printed, but do not end on a result line.
            print("\n".join(lines[:-1] if result is not None else lines))
            fail(problem)
        print("\n".join(lines))
        sys.exit(code)

    # Every workload in both modes: the one command that prints every
    # metric and runs every check.
    ok = True
    traces = (0, 1) if args.trace is None else (args.trace,)
    for workload in WORKLOADS:
        for trace in traces:
            print(f"== {workload} --trace {trace}")
            code, (lines, result) = run_one(
                binary, root, target_dir, rev, workload, args.seed, seconds, trace
            )
            print("\n".join(lines[:-1] if result is not None else lines))
            problem = "no result line" if result is None else check_result(result, spec, trace)
            if problem or code != 0 or not result["correct"]:
                ok = False
                print(f"FAILED: {problem or 'checks failed (exit %d)' % code}")
    print("all workloads passed" if ok else "some workloads FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
