"""Tiny-size smoke test of the benchmark: result schema and metric names.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
It is not part of the tier-1 suite, whose ``testpaths`` is ``tests/``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TRAINING = ("synth_grid", "adult_arch2")

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))


def run_bench(root: Path, workload: str, trace: int, tiny=True):
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "5", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv + (["--tiny"] if tiny else []), cwd=root, capture_output=True,
                          text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_schema(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    specs = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in specs]
    for m in specs:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
        if not trace:
            assert entry["value"] > 0, m["name"]

    info = json.loads(info_line)["info"]
    assert {"nproc", "python", "numpy", "blas", "blas_threads", "workload_seed",
            "git_commit"} <= set(info["environment"])
    if workload in TRAINING:
        assert set(info["digests"]) == {"runs.csv", "cells.csv"}
        if trace:
            assert result["metrics"]["train.step_ms"]["value"] > 0
            assert result["metrics"]["network.forward.train.calls"]["value"] > 0
    elif trace:
        assert result["metrics"]["cli.main.calls"]["value"] > 0


def test_fails_without_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0, tiny=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_adult_shaped_file_matches_the_real_file_shape(tmp_path):
    import adult_shaped
    from bpsfair.data import adult_preset, apply_encoder, fit_encoder, load_csv

    path = tmp_path / "adult.csv"
    adult_shaped.write_adult_csv(path, seed=3)
    table = load_csv(path, adult_preset())
    assert table.n_rows == 45_222
    assert table.dropped_count == 48_842 - 45_222
    assert abs(table.labels.mean() - 0.24) < 0.01
    assert abs(table.groups.mean() - 0.67) < 0.01
    encoder = fit_encoder(table)
    sizes = {c: len(v) for c, v in encoder.vocabularies.items()}
    assert sizes == adult_shaped.VOCAB_SIZES
    assert apply_encoder(table, encoder).X.shape == (45_222, 102)

    again = tmp_path / "again.csv"
    adult_shaped.write_adult_csv(again, seed=3)
    assert again.read_bytes() == path.read_bytes()
