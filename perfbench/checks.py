"""Output checks the benchmark applies to every iteration.

The file checks return what failed (problem messages, or for the ratios the
failing rows); an empty list means the output passed.  ``ridge_gap``
measures a learner's estimate against a plain joint ridge solve.  Nothing
here changes the outputs or the learner state it reads.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

RIDGE_TOLERANCE = 1e-8
RATIO_FLOOR = 0.25
RATIO_SLACK = 1e-12


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_regret(path: Path) -> list[str]:
    """Every value finite; width_sum never above width_budget."""
    problems = []
    for row in _rows(path):
        values = {k: float(v) for k, v in row.items() if v != ""}
        bad = sorted(k for k, v in values.items() if not math.isfinite(v))
        if bad:
            problems.append(f"round {row['round']}: non-finite {bad}")
        budget = values.get("width_budget")
        if budget is not None and values["width_sum"] > budget:
            problems.append(
                f"round {row['round']}: width_sum {values['width_sum']} "
                f"> width_budget {budget}"
            )
    return problems


def check_metrics(path: Path) -> list[str]:
    """Recall in [0, 1], diversity in [0, 2], alive users never increase."""
    problems = []
    alive: dict[int, int] = {}
    for row in _rows(path):
        t, value = int(row["round"]), float(row["value"])
        alive[t] = int(row["n_users"])
        limit = {"recall": 1.0, "diversity": 2.0}.get(row["metric"])
        if not math.isfinite(value) or (
            limit is not None and not 0.0 <= value <= limit
        ):
            problems.append(f"round {t}: {row['metric']} = {value}")
    counts = [alive[t] for t in sorted(alive)]
    if any(b > a for a, b in zip(counts, counts[1:])):
        problems.append(f"alive-user counts increase: {counts}")
    return problems


def check_ratios(path: Path, preconditions: list[bool]) -> list[int]:
    """Indices of rows whose ratio leaves [1/4, 1] while the guarantee holds."""
    rows = _rows(path)
    if len(rows) != len(preconditions):
        return list(range(max(len(rows), len(preconditions))))
    failed = []
    for i, (row, holds) in enumerate(zip(rows, preconditions)):
        ratio = float(row["ratio"])
        if not math.isfinite(ratio) or (
            holds and not RATIO_FLOOR <= ratio <= 1.0 + RATIO_SLACK
        ):
            failed.append(i)
    return failed


def ridge_gap(estimate: np.ndarray, log, lam: float) -> float:
    """Scaled gap between a learner's estimate and the joint ridge solution.

    The reference solves (lam*I + sum zeta zeta^T) eta = sum w zeta with
    zeta = [z; x] taken from the features the episode logged.
    """
    zeta = np.vstack(
        [np.hstack([r.relevance_features, r.diversity_features]) for r in log]
    )
    w = np.concatenate([np.asarray(r.rewards, dtype=np.float64) for r in log])
    phi = lam * np.eye(zeta.shape[1]) + zeta.T @ zeta
    reference = np.linalg.solve(phi, zeta.T @ w)
    gap = float(np.max(np.abs(estimate - reference)))
    return gap / max(1.0, float(np.max(np.abs(reference))))
