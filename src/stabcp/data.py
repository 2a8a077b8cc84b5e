"""Dataset ingestion (CSV read/write) and synthetic generators.

Generators are pure functions of their spec (seed included): the same spec
produces bit-identical arrays.  The held-out row is drawn from the same law as
the observed ones, so coverage experiments on generated data are exchangeable
by construction.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .core import TabularDataset, _as_finite_array, _integral, _real
from .errors import DataError, InvalidInputError

GENERATOR_KINDS = ("linear-gaussian", "friedman1")


@dataclass(frozen=True)
class GeneratorSpec:
    """Settings of a synthetic dataset: kind, size, noise level, seed."""

    kind: str
    n: int
    p: int
    noise_sd: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise InvalidInputError(f"unknown generator kind {self.kind!r}")
        object.__setattr__(self, "n", _integral(self.n, "n", 2))
        object.__setattr__(self, "p", _integral(self.p, "p", 1))
        if self.kind == "friedman1" and self.p < 5:
            raise InvalidInputError("friedman1 needs p >= 5")
        object.__setattr__(self, "noise_sd", _real(self.noise_sd, "noise_sd", 0))
        object.__setattr__(self, "seed", _integral(self.seed, "seed", 0))


def gen_linear_gaussian(spec: GeneratorSpec) -> TabularDataset:
    """Standard-normal features with a sparse random linear signal plus noise.

    Ten percent of the coordinates (at least one) carry standard-normal
    coefficients; the rest are pure noise features.  The last generated row is
    held out as the query point with its true response recorded.
    """
    if spec.kind != "linear-gaussian":
        raise InvalidInputError(f"spec kind is {spec.kind!r}, expected 'linear-gaussian'")
    rng = np.random.default_rng(spec.seed)
    total = spec.n + 1
    X = rng.standard_normal((total, spec.p))
    n_informative = max(1, int(round(0.1 * spec.p)))
    informative = np.sort(rng.choice(spec.p, size=n_informative, replace=False))
    coef = np.zeros(spec.p)
    coef[informative] = rng.standard_normal(n_informative)
    y = X @ coef + spec.noise_sd * rng.standard_normal(total)
    meta = {
        "kind": spec.kind, "n": spec.n, "p": spec.p,
        "noise_sd": spec.noise_sd, "seed": spec.seed,
        "coef": coef, "informative": informative,
    }
    return TabularDataset(X[:-1], y[:-1], X[-1], test_target=float(y[-1]), meta=meta)


def gen_friedman1(spec: GeneratorSpec) -> TabularDataset:
    """The classic five-feature nonlinear benchmark response with noise.

    ``y = 10 sin(pi x1 x2) + 20 (x3 - 1/2)^2 + 10 x4 + 5 x5 + noise`` on
    uniform [0, 1] features; coordinates beyond the fifth are inert.
    """
    if spec.kind != "friedman1":
        raise InvalidInputError(f"spec kind is {spec.kind!r}, expected 'friedman1'")
    rng = np.random.default_rng(spec.seed)
    total = spec.n + 1
    X = rng.uniform(0.0, 1.0, size=(total, spec.p))
    y = (10.0 * np.sin(np.pi * X[:, 0] * X[:, 1])
         + 20.0 * (X[:, 2] - 0.5) ** 2
         + 10.0 * X[:, 3]
         + 5.0 * X[:, 4]
         + spec.noise_sd * rng.standard_normal(total))
    meta = {"kind": spec.kind, "n": spec.n, "p": spec.p,
            "noise_sd": spec.noise_sd, "seed": spec.seed}
    return TabularDataset(X[:-1], y[:-1], X[-1], test_target=float(y[-1]), meta=meta)


def generate(spec: GeneratorSpec) -> TabularDataset:
    if spec.kind == "linear-gaussian":
        return gen_linear_gaussian(spec)
    return gen_friedman1(spec)


def _parse_cell(text: str, row: int, name: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise DataError(f"row {row}, column {name!r}: not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise DataError(f"row {row}, column {name!r}: non-finite value {text!r}")
    return value


def read_csv_columns(path, target_column=None) -> tuple[np.ndarray, np.ndarray, list]:
    """Parse a headered numeric CSV into (features, targets, feature_names).

    The target column is selected by name, or the last column when none is
    given.  Rejects files without a header and any non-finite cell, reporting
    the offending row and column.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            rows = list(csv.reader(fh))
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: not UTF-8 text: {exc}") from exc
    rows = [row for row in rows if row]
    if len(rows) < 2:
        raise DataError(f"{path}: need a header row and at least one data row")
    header = [cell.strip() for cell in rows[0]]

    def _is_number(cell: str) -> bool:
        try:
            float(cell)
        except ValueError:
            return False
        return True

    if all(_is_number(cell) for cell in header):
        raise DataError(f"{path}: missing header row")
    if target_column is None:
        target_idx = len(header) - 1
    else:
        if target_column not in header:
            raise DataError(f"{path}: no column named {target_column!r}")
        target_idx = header.index(target_column)
    feature_names = [name for i, name in enumerate(header) if i != target_idx]
    X_rows, y_values = [], []
    for r, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DataError(f"{path}: row {r}: expected {len(header)} cells, got {len(row)}")
        values = [_parse_cell(cell, r, header[i]) for i, cell in enumerate(row)]
        y_values.append(values[target_idx])
        X_rows.append([v for i, v in enumerate(values) if i != target_idx])
    return np.asarray(X_rows, dtype=float), np.asarray(y_values, dtype=float), feature_names


def load_csv(path, target_column=None) -> TabularDataset:
    """Load a CSV and hold its last row out as the query point
    (``dataset_from_rows``); that row's response is kept as the true target
    for benchmark mode.
    """
    X, y, names = read_csv_columns(path, target_column)
    last_row = X.shape[0] - 1
    if last_row < 2:
        raise DataError(f"{path}: need at least three data rows (two observed + query)")
    meta = {"path": str(path), "feature_names": names, "test_row": last_row}
    return dataset_from_rows(X, y, last_row, meta)


def save_csv(dataset: TabularDataset, path) -> None:
    """Write the observed rows plus the query row (last) as a headered CSV
    whose target column ``y`` comes last.

    Floats are written with full round-trip precision, so save/load is the
    identity.  The query row needs a known true target.
    """
    if dataset.test_target is None:
        raise DataError("cannot save a dataset whose query row has no true target")
    names = dataset.meta.get("feature_names") or [f"x{i + 1}" for i in range(dataset.p)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(names) + ["y"])
        for row, target in zip(dataset.features, dataset.targets):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(target))])
        writer.writerow([repr(float(v)) for v in dataset.test_point]
                        + [repr(float(dataset.test_target))])


def dataset_from_rows(X, y, test_index: int, meta=None) -> TabularDataset:
    """Build a dataset from a pooled table by holding one row out."""
    X = _as_finite_array(X, "X", 2)
    y = _as_finite_array(y, "y", 1)
    total = X.shape[0]
    if y.shape[0] != total:
        raise InvalidInputError(f"X has {total} rows but y has {y.shape[0]} entries")
    test_index = _integral(test_index, "test_index", 0, total)
    keep = np.ones(total, dtype=bool)
    keep[test_index] = False
    return TabularDataset(X[keep], y[keep], X[test_index],
                          test_target=float(y[test_index]), meta=dict(meta or {}))
