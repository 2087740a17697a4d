"""Developer tools under tools/."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_artifact_digest_prints_one_line_of_digests():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "artifact_digest.py"), "--workload", "fc-k20", "--seed", "2"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    result = json.loads(lines[0])
    assert (result.pop("workload"), result.pop("seed")) == ("fc-k20", 2)
    for key in ("checkpoint", "trainlog lr", "trainlog val_error", "trainlog train_loss_mean",
                "stdout build-dict", "stdout train", "stdout eval-words --k 1", "stdout eval-words --k 10",
                "stdout eval-translate", "embeddings.csv", "embeddings_neighbors.json"):
        assert key in result
    assert all(len(value) == 64 and int(value, 16) >= 0 for value in result.values())



def test_artifact_digest_prints_one_line_per_seed():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "artifact_digest.py"), "--workload", "fc-k20",
         "--seed", "3", "--seed", "2"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    first, second = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(r["workload"], r["seed"]) for r in (first, second)] == [("fc-k20", 3), ("fc-k20", 2)]
    assert sorted(first) == sorted(second) and first["checkpoint"] != second["checkpoint"]

def test_bench_pairs_writes_one_pair_of_toy_runs(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "bench_pairs.py"), "--parent", ROOT, "--change", ROOT,
         "--workload", "fc-k20", "--pairs", "1", "--toy"],
        capture_output=True, text=True, timeout=600, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    with open(tmp_path / "BENCH_fc-k20.json", encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["failed_operations"]["parent"]["failed"] == report["failed_operations"]["change"]["failed"] == 0
    (pair,) = report["pairs"]
    assert (pair["seed"], pair["first"]) == (1, "parent")
    for side in ("parent", "change"):
        (run,) = report["runs"][side]
        assert run["result"]["correct"] and run["build_dict_median_s"] > 0 and run["repetitions"] >= 3
        assert run["first"] == (side == "parent")
        assert pair[side]["metrics"] == {name: m["value"] for name, m in run["result"]["metrics"].items()}
    for name in ("setup_s", "train_examples_per_s", "eval_words_s", "embed_eval_s", "total_s", "peak_rss_mb"):
        summary = report["summary"][name]
        assert summary["change_wins_of_pairs"][1] == 1
        assert summary["parent"]["q1"] == summary["parent"]["median"] == summary["parent"]["q3"]
        assert name in pair["change_better"] and name in pair["change_within_bound"]
