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
