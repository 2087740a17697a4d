"""Alternating parent/change runs of one perfbench workload, summarized in BENCH_<workload>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . --workload vocab-20k --pairs 10

Runs each tree's own perfbench/run.py --seconds 40 --trace 0 in that tree, one
process at a time, on seeds 1..N: the parent runs first on odd seeds and the
change first on even seeds. Writes BENCH_<workload>.json in the current
directory with:
- every run: its seed, whether it ran first in its pair, its result line, its
  repetition count and its median `build-dict s` (build-dict's wall time does
  not depend on the model code, so it shows which of the host's speed states
  the run met);
- every pair: both sides' metrics and build-dict medians, which side each
  metric favours, and whether the change stayed within BENCHMARK.json's bound;
- per metric: each side's median and quartiles, the change's wins over the
  pairs, and whether the gain rule holds (wins in at least nine tenths of the
  pairs, medians apart by more than the parent's interquartile range);
- the failed-operation counts of both sides, a run that printed no result
  counting as one failed operation.
--toy runs the workload's tiny inputs for one second (the self-test's
settings), so that the tool itself can be tested.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN_SECONDS = 40
SIDES = ("parent", "change")


def run_once(tree: str, workload: str, seed: int, toy: bool) -> dict:
    """One perfbench run in tree: its result line, repetitions and build-dict median, or its failure."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1" if toy else str(RUN_SECONDS), "--trace", "0"] + (["--toy"] if toy else [])
    try:
        proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=20 * RUN_SECONDS)
    except subprocess.TimeoutExpired:
        return {"error": "timed out"}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    record = {"result": result}
    for line in lines:
        words = line.split()
        if words[:2] == ["build-dict", "s"]:  # "  build-dict s  n=3 median 0.0213, ..."
            record["build_dict_median_s"] = float(words[4].rstrip(","))
        elif words[:1] == ["workload"] and "repetitions" in words:
            record["repetitions"] = int(words[words.index("repetitions") - 1])
        elif words[:1] == ["env"]:
            record["env"] = json.loads(line[len("env "):])
    return record


def metric_values(record: dict) -> dict[str, float]:
    return {name: m["value"] for name, m in record.get("result", {}).get("metrics", {}).items()}


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and quartiles (numpy.percentile's linear rule)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def compare(parent: float, change: float, better: str) -> bool | None:
    """True when the change is better, False when worse, None on a tie."""
    if parent == change:
        return None
    return (change < parent) if better == "lower" else (change > parent)


def within_bound(parent: float, change: float, better: str, bound: float) -> bool:
    """The change is no worse than the parent by more than bound, as a fraction of the parent."""
    worse_by = (change - parent) if better == "lower" else (parent - change)
    return worse_by <= bound * abs(parent)


def summarize(pairs: list[dict], metrics: dict[str, dict]) -> dict:
    summary = {}
    for name, spec in metrics.items():
        done = [p for p in pairs if name in p["parent"]["metrics"] and name in p["change"]["metrics"]]
        if not done:
            continue
        values = {side: [p[side]["metrics"][name] for p in done] for side in SIDES}
        stats = {side: quartiles(values[side]) for side in SIDES}
        parent_iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        wins = sum(p["change_better"][name] is True for p in done)
        median_gain = compare(stats["parent"]["median"], stats["change"]["median"], spec["better"])
        summary[name] = {
            "better": spec["better"],
            "unit": spec["unit"],
            **stats,
            "parent_iqr": parent_iqr,
            "median_change_pct": 100.0 * (stats["change"]["median"] / stats["parent"]["median"] - 1.0),
            "change_wins_of_pairs": [wins, len(done)],
            "median_within_bound": within_bound(
                stats["parent"]["median"], stats["change"]["median"], spec["better"], spec["bound"]),
            "gain_rule_met": wins >= 0.9 * len(done) and median_gain is True
            and abs(stats["change"]["median"] - stats["parent"]["median"]) > parent_iqr,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--toy", action="store_true", help="tiny inputs and 1-second runs, for the tool's test")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(trees["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = {m["name"]: m for m in json.load(fh)["end_to_end"]}

    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    pairs = []
    for seed in range(1, args.pairs + 1):
        order = SIDES if seed % 2 else SIDES[::-1]
        pair: dict = {"seed": seed, "first": order[0]}
        for side in order:
            record = {"seed": seed, "first": side == order[0], **run_once(trees[side], args.workload, seed, args.toy)}
            runs[side].append(record)
            pair[side] = {"metrics": metric_values(record), "build_dict_median_s": record.get("build_dict_median_s")}
            shown = ", ".join(f"{name} {value:.6g}" for name, value in pair[side]["metrics"].items())
            print(f"seed {seed} {side}: {record.get('error') or shown}", flush=True)
        shared = [name for name in metrics if name in pair["parent"]["metrics"] and name in pair["change"]["metrics"]]
        pair["change_better"] = {
            name: compare(pair["parent"]["metrics"][name], pair["change"]["metrics"][name], metrics[name]["better"])
            for name in shared
        }
        pair["change_within_bound"] = {
            name: within_bound(pair["parent"]["metrics"][name], pair["change"]["metrics"][name],
                               metrics[name]["better"], metrics[name]["bound"])
            for name in shared
        }
        pairs.append(pair)

    failed = {
        side: {
            "attempted": sum(r["result"]["attempted"] if "result" in r else 1 for r in runs[side]),
            "failed": sum(r["result"]["failed"] if "result" in r else 1 for r in runs[side]),
        }
        for side in SIDES
    }
    seconds = "1" if args.toy else str(RUN_SECONDS)
    report = {
        "workload": args.workload,
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed SEED --seconds {seconds} --trace 0"
        + (" --toy" if args.toy else ""),
        "protocol": (
            f"{args.pairs} parent/change pairs on seeds 1-{args.pairs}, one process per run, run one after "
            "the other, each tree running its own perfbench; the parent runs first on odd seeds, the change "
            "on even seeds. Quartiles are the linear-rule 25th/75th percentiles over one side's runs; a win "
            "is the change's value better than the parent's in the same pair. build_dict_median_s is the "
            "run's median build-dict time, a gauge of the host's speed state."
        ),
        "env": {side: next((r["env"] for r in runs[side] if "env" in r), None) for side in SIDES},
        "failed_operations": failed,
        "summary": summarize(pairs, metrics),
        "pairs": pairs,
        "runs": {side: [{k: v for k, v in r.items() if k != "env"} for r in runs[side]] for side in SIDES},
    }
    out = f"BENCH_{args.workload}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, s in report["summary"].items():
        print(f"{name}: parent {s['parent']['median']:.6g}, change {s['change']['median']:.6g} "
              f"({s['median_change_pct']:+.1f}%), change wins {s['change_wins_of_pairs'][0]} of "
              f"{s['change_wins_of_pairs'][1]}, within bound {s['median_within_bound']}, "
              f"gain rule met {s['gain_rule_met']}")
    print(f"failed operations: parent {failed['parent']['failed']} of {failed['parent']['attempted']}, "
          f"change {failed['change']['failed']} of {failed['change']['attempted']}; wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
