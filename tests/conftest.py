import dataclasses

import numpy as np
import pytest

from dispersion_bandit import lmdh
from dispersion_bandit.baselines import SlateSelection
from dispersion_bandit.catalog import ItemCatalog, PreferenceVector, Slate
from dispersion_bandit.errors import DimensionMismatchError


class TableDistanceMetric:
    """Distance metric backed by an explicit symmetric table, for hand-made instances."""

    def __init__(self, table: np.ndarray):
        table = np.ascontiguousarray(table, dtype=np.float64)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise DimensionMismatchError("distance table must be square")
        if not np.array_equal(table, table.T):
            raise ValueError("distance table must be symmetric")
        if np.any(table < 0.0):
            raise ValueError("distances must be non-negative")
        if np.any(np.diagonal(table) != 0.0):
            raise ValueError("self-distance must be zero")
        table.flags.writeable = False
        self._table = table
        self.max_distance = float(table.max())

    def __len__(self) -> int:
        return len(self._table)

    def column(self, item: int, others: np.ndarray | None = None) -> np.ndarray:
        if others is None:  # the whole row, in place
            return self._table[item]
        others = np.asarray(others, dtype=np.intp)
        return self._table[item][others]


def count_selects(monkeypatch) -> list:
    """Patch `lmdh.select_slate` to append to the returned list on every call."""
    calls = []
    original = lmdh.select_slate

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(lmdh, "select_slate", counted)
    return calls


def log_fields(log) -> list:
    """Every field of every round, arrays as (dtype, shape, bytes)."""
    return [
        tuple(
            (value.dtype.str, value.shape, value.tobytes())
            if isinstance(value, np.ndarray)
            else value
            for value in (getattr(r, f.name) for f in dataclasses.fields(r))
        )
        for r in log
    ]


def logged(Z, X, slate=None):
    """The selection that logged features (Z, X), by default for the slate 0..k-1."""
    if slate is None:
        slate = Slate(tuple(range(len(Z))))
    return SlateSelection(slate, relevance_features=Z, diversity_features=X)


def random_table(rng, n):
    """Random symmetric non-negative distance table with zero diagonal."""
    raw = rng.uniform(0.0, 1.0, size=(n, n))
    table = np.triu(raw, k=1)
    return table + table.T


def random_catalog(rng, n_items, d=2, m=1):
    relevance = rng.uniform(-1.0, 1.0, size=(n_items, d))
    metrics = tuple(TableDistanceMetric(random_table(rng, n_items)) for _ in range(m))
    return ItemCatalog(relevance=relevance, metrics=metrics)


def random_eta(rng, d=2, m=1, nonneg=False):
    lo = 0.0 if nonneg else -1.0
    return PreferenceVector(
        theta=rng.uniform(lo, 1.0, size=d), beta=rng.uniform(0.0, 1.0, size=m)
    )


def utility_by_hand(items, theta, beta, relevance, tables):
    """Independent oracle: direct double loop over the utility definition."""
    total = 0.0
    for a in items:
        total += float(np.dot(theta, relevance[a]))
    for weight, table in zip(beta, tables):
        for i, a in enumerate(items):
            for b in items[i + 1 :]:
                total += float(weight) * float(table[a][b])
    return total


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
