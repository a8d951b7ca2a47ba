import numpy as np
import pytest

from dispersion_bandit import lmdh
from dispersion_bandit.catalog import ItemCatalog, PreferenceVector
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
        self.entrywise = True

    def __len__(self) -> int:
        return len(self._table)

    def column(self, item: int, others: np.ndarray) -> np.ndarray:
        others = np.asarray(others, dtype=np.intp)
        return self._table[item][others]


class UnsharedLmdhPolicy:
    """LMDH without a memo: `select_slate` and `update` on statistics of its own.

    The reference that every policy sharing a memo must match bit for bit.
    """

    name = "lmdh"

    def __init__(self, config, catalog):
        self.config, self.catalog = config, catalog
        self.stats = lmdh.HybridStatistics(config.d, config.m, config.lam)

    def select(self, candidates):
        return lmdh.select_slate(self.stats, self.config, self.catalog, candidates)

    def observe(self, selection, rewards):
        lmdh.update(self.stats, selection.slate, rewards, selection)


def count_selects(monkeypatch) -> list:
    """Patch `lmdh.select_slate` to append to the returned list on every call."""
    calls = []
    original = lmdh.select_slate

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(lmdh, "select_slate", counted)
    return calls


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
