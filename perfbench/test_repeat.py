"""Checks of the benchmark itself.

Two traced runs at one seed must give identical counts and identical
output guards, and the benchmark must refuse to run without the package.

    python3 -m pytest perfbench/test_repeat.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SEED = 5
COUNTS = ("autodiff.tensors_per_op", "kernels.mb_moved",
          "retrieval.candidates_scanned", "correspondence.pixels_scanned",
          "synthgen.store_mb", "memory.store_mb")
GUARDS = {"train": "loss_final", "eval": "mae_deg",
          "contact": "contact_err_px"}


def run(script, *args):
    return subprocess.run([sys.executable, str(script), *args],
                          capture_output=True, text=True, timeout=600)


def repeatable(workload):
    proc = run(HERE / "run.py", "--workload", workload, "--seed", str(SEED),
               "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    line = next(line for line in proc.stdout.splitlines()
                if line.startswith("record "))
    record = json.loads(line[len("record "):])
    values = {name: record["per_layer"][name]["value"] for name in COUNTS}
    guard = GUARDS[workload]
    values[guard] = record["end_to_end"][guard]["value"]
    return values


@pytest.mark.parametrize("workload", sorted(GUARDS))
def test_counts_and_guards_repeat_at_one_seed(workload):
    first = repeatable(workload)
    assert first == repeatable(workload)
    assert first[GUARDS[workload]] > 0


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = run(tmp_path / HERE.name / "run.py", "--workload", "eval",
               "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()
