#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload <harden|recover|explore|verify> \
        --seed N --seconds S --trace <0|1>

Run it from the repository root. It builds the `perfbench` package (release,
offline) into $CARGO_TARGET_DIR, or `.bench_build` when that is unset. It then
runs one closed-loop measurement and checks that the reported metrics are
exactly the ones BENCHMARK.json names, with their units. The last stdout line
is the result object. The same object, stamped with a host fingerprint, is
written to `.bench_out/`; traced runs also leave their spans and per-layer
report there. Exits non-zero without printing a result when the build, the
run or the metric check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root):
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml"),
    ]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed (exit {done.returncode})")
    binary = os.path.join(target, "release", "perfbench")
    if not os.path.isfile(binary):
        fail(f"build produced no binary at {binary}")
    return binary


def source_digest(root):
    """sha256 over the sources the benchmark builds from, for checkouts
    that are not git repositories."""
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "vendor", os.path.relpath(BENCH_DIR, root)]:
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else []
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def output_of(cmd, cwd=None):
    try:
        done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=30)
        return done.stdout.strip() if done.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def fingerprint(root):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        commit = output_of(["git", "rev-parse", "HEAD"], cwd=root)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "rustc": output_of(["rustc", "-V"]) or "unknown",
        "profile": "release",
        "commit": commit or "tree:" + source_digest(root),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")

    binary = build(root)
    host = fingerprint(root)
    print("perfbench: host " + json.dumps(host, sort_keys=True), file=sys.stderr)

    out_dir = os.path.join(root, ".bench_out")
    cmd = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", out_dir,
    ]
    started = time.monotonic()
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"run failed (exit {done.returncode})")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("run printed no result")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in wanted}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail(f"metric set mismatch: missing {missing}, unexpected {extra}, wrong unit {units}")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result keys {sorted(result)}")

    os.makedirs(out_dir, exist_ok=True)
    stamp = {
        "host": host,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": round(time.monotonic() - started, 3),
        "result": result,
    }
    name = f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(stamp, fh, indent=2, sort_keys=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
