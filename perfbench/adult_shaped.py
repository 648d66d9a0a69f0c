"""Seeded generator of Adult-shaped CSV files and prediction dumps.

The real UCI Adult file is not shipped with the repository, so the
benchmark writes a stand-in with the same header, the column names and
vocabulary sizes of ``bpsfair.data.adult_preset()``, about 24% positive
labels, about 67% male rows, and exactly as many ``?`` rows as the real
file, so that ``load_csv`` keeps 45,222 of 48,842 raw rows.  Labels follow
a noisy logistic score of a few features, so a trained net beats the
majority-class rate.
"""

from __future__ import annotations

import numpy as np

RAW_ROWS = 48_842
KEPT_ROWS = 45_222
TRAIN_FILE_ROWS = 32_561  # rows after this one spell labels ">50K." like adult.test
POSITIVE_SHARE = 0.24
MALE_SHARE = 0.67

# Column order of the combined UCI file; vocabulary sizes after dropping "?" rows.
COLUMNS = (
    "age", "workclass", "fnlwgt", "education", "education-num", "marital-status",
    "occupation", "relationship", "race", "sex", "capital-gain", "capital-loss",
    "hours-per-week", "native-country", "income",
)
VOCAB_SIZES = {
    "workclass": 7,
    "education": 16,
    "marital-status": 7,
    "occupation": 14,
    "relationship": 6,
    "race": 5,
    "native-country": 41,
}
MISSING_COLUMNS = ("workclass", "occupation", "native-country")


def _category_probs(column: str) -> np.ndarray:
    k = VOCAB_SIZES[column]
    j = np.arange(k, dtype=np.float64)
    if column == "education":  # ordered levels, peaked around high-school
        w = np.exp(-(((j - 8.5) / 3.0) ** 2))
    elif column == "native-country":  # one dominant country, long tail
        tail = 1.0 / j[1:]
        w = np.concatenate(([tail.sum() * 0.91 / 0.09], tail))
    else:
        w = np.exp(-0.45 * j)
    return w / w.sum()


def adult_columns(n_rows: int, seed: int) -> dict:
    """Column arrays of an Adult-shaped table, before "?" injection."""
    rng = np.random.default_rng(seed)
    cols: dict = {}
    codes = {}
    for column, k in VOCAB_SIZES.items():
        codes[column] = rng.choice(k, size=n_rows, p=_category_probs(column))
        cols[column] = np.array([f"{column}-{j}" for j in range(k)])[codes[column]]
    cols["age"] = np.clip(17 + rng.gamma(3.0, 7.0, n_rows), 17, 90).astype(np.int64)
    cols["fnlwgt"] = rng.lognormal(np.log(178_000.0), 0.5, n_rows).astype(np.int64)
    cols["education-num"] = codes["education"] + 1
    gain = rng.random(n_rows) < 0.08
    cols["capital-gain"] = np.where(gain, rng.lognormal(8.5, 1.0, n_rows), 0).astype(np.int64)
    loss = rng.random(n_rows) < 0.047
    cols["capital-loss"] = np.where(loss, rng.normal(1_900, 350, n_rows), 0).clip(0).astype(
        np.int64)
    cols["hours-per-week"] = np.clip(rng.normal(40, 12, n_rows), 1, 99).astype(np.int64)
    male = rng.random(n_rows) < MALE_SHARE
    cols["sex"] = np.where(male, "Male", "Female")

    score = (
        0.45 * (cols["education-num"] - 10)
        + 0.05 * (cols["age"] - 38)
        + 0.04 * (cols["hours-per-week"] - 40)
        + 1.8 * (codes["marital-status"] == 0)
        + 0.6 * (codes["occupation"] < 3)
        + 0.4 * male
        + 2.5 * gain
        + rng.logistic(0.0, 0.6, n_rows)
    )
    positive = score > np.quantile(score, 1.0 - POSITIVE_SHARE)
    test_part = np.arange(n_rows) >= TRAIN_FILE_ROWS
    cols["income"] = np.where(
        positive, np.where(test_part, ">50K.", ">50K"), np.where(test_part, "<=50K.", "<=50K")
    )
    return cols


def write_adult_csv(path, seed: int, raw_rows: int = RAW_ROWS, kept_rows: int = KEPT_ROWS):
    """Write an Adult-shaped CSV; ``raw_rows - kept_rows`` rows carry a "?"."""
    cols = adult_columns(raw_rows, seed)
    rng = np.random.default_rng((seed, 1))
    missing_rows = rng.choice(raw_rows, size=raw_rows - kept_rows, replace=False)
    which = rng.choice(len(MISSING_COLUMNS), size=missing_rows.size, p=(0.35, 0.35, 0.30))
    for slot, column in enumerate(MISSING_COLUMNS):
        cols[column] = cols[column].astype(object)
        cols[column][missing_rows[which == slot]] = "?"
    text = [",".join(COLUMNS)]
    text += [",".join(map(str, row)) for row in zip(*(cols[c].tolist() for c in COLUMNS))]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(text) + "\n")


def write_prediction_dump(path, n_rows: int, seed: int):
    """Write a ``y_true, y_prob, group`` dump; returns the arrays as the program reads them.

    Probabilities are whole millionths, written with six decimals, so the
    returned floats are exactly what a CSV parser reads back.
    """
    rng = np.random.default_rng((seed, 2))
    group = (rng.random(n_rows) < MALE_SHARE).astype(np.int64)
    y_true = (rng.random(n_rows) < np.where(group == 1, 0.31, 0.11)).astype(np.int64)
    logits = 2.2 * (y_true - 0.5) + 0.4 * (group - 0.5) + rng.normal(0.0, 1.1, n_rows)
    micro = np.rint(1e6 / (1.0 + np.exp(-logits))).astype(np.int64)
    lines = ["y_true,y_prob,group"]
    lines += [f"{y},{m / 1e6:.6f},{g}" for y, m, g in zip(y_true.tolist(), micro.tolist(),
                                                          group.tolist())]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    return y_true, micro / 1e6, group
