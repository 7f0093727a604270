#!/usr/bin/env python3
"""Smoke test of the benchmark: one minimal pass of every workload.

    python3 perfbench/smoke.py

Run it from the repository root. For each workload in BENCHMARK.json it runs
`run.py` with `--seconds 0` (a single pass) untraced and traced. It asserts
that every named metric is emitted with its unit, that every oracle passed,
and that pass 0's count-type values are bit-identical between the untraced
and the traced run. Exits non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

SEED = 1


def run(workload, trace):
    cmd = [
        sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py"),
        "--workload", workload, "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
    ]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    assert done.returncode == 0, f"{workload} trace {trace}: exit {done.returncode}"
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        name = w["name"]
        for trace, wanted in [(0, spec["end_to_end"]), (1, spec["per_layer"])]:
            result = run(name, trace)
            assert result["correct"], f"{name} trace {trace}: an oracle failed"
            assert result["failed"] == 0 and result["attempted"] >= 1, result
            for m in wanted:
                got = result["metrics"].get(m["name"])
                assert got is not None, f"{name} trace {trace}: {m['name']} missing"
                assert got["unit"] == m["unit"], f"{name}: {m['name']} unit {got['unit']}"
                assert isinstance(got["value"], (int, float)), f"{name}: {m['name']} value"
        counts = []
        for trace in (0, 1):
            path = os.path.join(".bench_out", f"counts-{name}-s{SEED}-t{trace}.txt")
            with open(path) as fh:
                counts.append(fh.read())
        assert counts[0] == counts[1], f"{name}: counts differ untraced/traced"
        print(f"smoke: {name} ok")
    print("smoke: all workloads ok")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print(f"smoke: FAILED: {e}", file=sys.stderr)
        sys.exit(1)
