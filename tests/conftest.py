"""Test helpers shared by the test modules: ``from conftest import ...``."""

import numpy as np

from bpsfair.data import adult_preset
from bpsfair.report import cells_from_runs, read_runs_csv


def stored_cells(out):
    """The cells that cells.csv is written from: out/runs.csv read back and aggregated."""
    return cells_from_runs(read_runs_csv(out / "runs.csv"))


def write_adult_shaped_csv(path, n, seed=0):
    """An Adult-shaped CSV of n rows: the adult_preset columns, ~7% "?" rows."""
    rng = np.random.default_rng(seed)
    schema = adult_preset()
    columns = {}
    for c, k in zip(schema.categorical, (7, 16, 7, 14, 6, 5, 41)):
        columns[c] = np.array([f"{c}-{j}" for j in range(k)])[rng.integers(0, k, n)]
    for c in schema.continuous:
        columns[c] = rng.integers(0, 200_000, n).astype(str)
    columns["workclass"][rng.random(n) < 0.07] = "?"
    columns["sex"] = np.where(rng.random(n) < 0.67, "Male", "Female")
    columns["income"] = np.where(rng.random(n) < 0.24, ">50K", "<=50K")
    names = list(columns)
    lines = columns[names[0]]
    for c in names[1:]:
        lines = np.char.add(np.char.add(lines, ", "), columns[c])
    path.write_text(",".join(names) + "\n" + "\n".join(lines.tolist()) + "\n")
