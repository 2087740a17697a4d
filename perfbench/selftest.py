"""Toy-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json on tiny inputs (run.py --toy), untraced
and traced, and checks that the last stdout line is a correct result that
names every end-to-end (untraced) or per-layer (traced) metric with its unit.
Then checks that run.py fails without printing a result in a directory that
holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc = run(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{where}: exit {proc.returncode}, no result line; {proc.stderr[-400:]}")
                continue
            if proc.returncode != 0 or set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: exit {proc.returncode}, result keys {sorted(result)}")
            if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
                failed = [line for line in lines if line.startswith("FAILED")]
                problems.append(f"{where}: not correct: {failed[:3]}")
            metrics = result.get("metrics", {})
            for metric in wanted:
                got = metrics.get(metric["name"])
                if not got or got.get("unit") != metric["unit"] or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{where}: metric {metric['name']} missing or without unit {metric['unit']}")
            extra = set(metrics) - {m["name"] for m in wanted}
            if extra:
                problems.append(f"{where}: metrics not in BENCHMARK.json: {sorted(extra)}")
            print(f"{where}: {len(metrics)} metrics, {result.get('attempted')} operations", flush=True)

    bare = os.path.join(HERE, "_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("_work", "_results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = run(bare, bench["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    else:
        print(f"bare directory: exit {proc.returncode} without a result")

    for problem in problems:
        print("PROBLEM " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
