"""Ground set, feature model, marginal gains, and the slate utility.

The utility of an ordered item set A under preferences eta = [theta; beta] is

    F(A | eta) = sum_i theta_i * R_i(A)  +  sum_i beta_i * V_i(A)

where each R_i is modular (sums per-item relevance values) and each V_i is a
dispersion function (sums a pairwise distance over all unordered item pairs
in A).  Both are linear in eta, and so is the gain of appending an item:

    F(A + a | eta) - F(A | eta) = eta . [z_a; x(a | A)]

where z_a is a's relevance row and x_i(a | A) sums h_i(a, b) over b in A.
`marginal_gains` gives this gain at each position of a slate, and F(A) is
their left-to-right sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    DuplicateItemError,
    InsufficientCandidatesError,
    InvalidItemError,
    UndefinedSimilarityError,
)

#: Ground sets up to this size memoise each distance row on its first read;
#: larger ones compute every column on demand, with the same bits.
TABLE_THRESHOLD = 4096

METRIC_MODES = ("raw", "slate-normalized")


def integer_ids(ids, what: str) -> list:
    """`ids` as a list of integers, not cast, so errors name them as given.

    Bools and floats raise InvalidItemError naming the first five, even when
    whole: truncating 1.7 or True to an id would pick an item nobody named.
    """
    values = ids.ravel().tolist() if isinstance(ids, np.ndarray) else list(ids)
    bad = [v for v in values if not (type(v) is int or isinstance(v, np.integer))]
    if bad:
        raise InvalidItemError(
            f"{what} must be integers, got [{', '.join(map(str, bad[:5]))}]"
        )
    return values


def distinct_sorted(values: np.ndarray) -> np.ndarray:
    """`np.unique(values)` for integers: one sort and a first-of-run mask.

    On numpy 2 `np.unique` is many times slower than a sort of the same ids.
    """
    ordered = np.sort(values, axis=None)
    first = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


def unit_rows(vectors: np.ndarray) -> np.ndarray:
    """Rows scaled to unit norm; zero-norm rows raise UndefinedSimilarityError."""
    norms = np.linalg.norm(vectors, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise UndefinedSimilarityError(
            f"items {zero[:5].tolist()} have zero-norm vectors"
        )
    return vectors / norms[:, None]


class CosineDistanceMetric:
    """scale * (1 - cos_sim) over item relevance vectors, read a column at a time.

    Non-negative and symmetric with h(i, i) = 0.  With `scale = 1` this is the
    plain cosine distance; the slate-normalized variant uses
    `scale = 2 / (K * (K - 1))` so that a full slate of capacity K
    accumulates the size-normalized average pair distance.

    Every entry is one fixed-order `einsum` product of two unit rows (a gemv
    would round by an entry's position), so h(i, j) == h(j, i) bit for bit,
    and an entry's bits do not depend on which other ids it is read with, in
    which order, or in which thread or forked process: `column` is a pure,
    deterministic function of its arguments.  Ground sets of at most
    `TABLE_THRESHOLD` items memoise item i's whole row the first time a
    column of i is read, so a run computes only the rows it reads; larger
    ones compute each column on demand, with the same bits.
    """

    def __init__(self, vectors: np.ndarray, scale: float = 1.0):
        vectors = np.ascontiguousarray(vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise DimensionMismatchError("metric vectors must be 2-dimensional")
        self.scale = float(scale)
        self._unit = unit_rows(vectors)
        self._unit.flags.writeable = False
        # one 1-D array per item read so far, not an L x L array with a mask:
        # numpy advises huge pages for large arrays, so a row of one would
        # fault a whole 2 MB page
        self._rows: dict[int, np.ndarray] | None = (
            {} if len(vectors) <= TABLE_THRESHOLD else None
        )

    def __len__(self) -> int:
        return len(self._unit)

    @property
    def max_distance(self) -> float:
        """A bound on every distance `column` returns: 2 * scale, for opposite
        vectors, plus the rounding of unit rows and of a dot product over
        their dimension, each within a few ulps per term.
        """
        dim = self._unit.shape[1]
        return 2.0 * self.scale * (1.0 + 4 * (dim + 4) * np.finfo(np.float64).eps)

    def _distances(self, unit: np.ndarray, item: int) -> np.ndarray:
        """h(item, j) for each row j of `unit`, self-distances not yet zeroed."""
        dist = np.einsum("ij,j->i", unit, self._unit[item])
        np.subtract(1.0, dist, out=dist)
        dist *= self.scale
        return np.clip(dist, 0.0, None, out=dist)

    def _row(self, item: int) -> np.ndarray:
        """h(item, j) for every item j, read-only; memoised with the rows.

        Two threads that miss on the same row both compute it, with equal
        bits, so whichever store lands last changes nothing.
        """
        row = None if self._rows is None else self._rows.get(item)
        if row is None:
            row = self._distances(self._unit, item)
            row[item] = 0.0
            row.flags.writeable = False
            if self._rows is not None:
                self._rows[item] = row
        return row

    def column(self, item: int, others: np.ndarray | None = None) -> np.ndarray:
        """Distances h(item, j) for every j in `others`, as a new array; with
        `others` None, for every item, read-only, with no gather of unit rows."""
        if others is None:
            return self._row(item)
        others = np.asarray(others, dtype=np.intp)
        if self._rows is not None:
            return self._row(item)[others]
        col = self._distances(self._unit[others], item)
        col[others == item] = 0.0
        return col


def cosine_metric(
    vectors: np.ndarray,
    mode: str = "slate-normalized",
    slate_capacity: int | None = None,
) -> CosineDistanceMetric:
    """Build the experiment distance metric in one of two modes.

    `raw`:              h = 1 - cos_sim
    `slate-normalized`: h = (1 - cos_sim) * 2 / (K * (K - 1))

    The slate-normalized mode fixes the normalizer at the slate capacity K so
    that h stays a genuine pairwise metric while matching the scale of the
    size-normalized average pair distance on full slates.
    """
    if mode not in METRIC_MODES:
        raise ValueError(f"unknown metric mode {mode!r}; expected one of {METRIC_MODES}")
    if mode == "raw":
        scale = 1.0
    else:
        if slate_capacity is None or slate_capacity < 2:
            raise ValueError("slate-normalized mode needs a slate capacity >= 2")
        scale = 2.0 / (slate_capacity * (slate_capacity - 1))
    return CosineDistanceMetric(vectors, scale=scale)


@dataclass(frozen=True)
class Slate:
    """Ordered list of distinct integer item ids."""

    items: tuple[int, ...]

    def __post_init__(self):
        items = integer_ids(tuple(self.items), "slate ids")
        object.__setattr__(self, "items", tuple(map(int, items)))
        if len(set(self.items)) != len(self.items):
            raise DuplicateItemError(f"slate contains duplicates: {self.items}")

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, item: int) -> bool:
        return item in self.items


@dataclass(frozen=True)
class PreferenceVector:
    """eta = [theta; beta]: relevance and diversity preference weights."""

    theta: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        theta = np.ascontiguousarray(self.theta, dtype=np.float64)
        beta = np.ascontiguousarray(self.beta, dtype=np.float64)
        if theta.ndim != 1 or beta.ndim != 1:
            raise DimensionMismatchError("theta and beta must be 1-dimensional")
        theta.flags.writeable = False
        beta.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "beta", beta)


@dataclass(frozen=True)
class ItemCatalog:
    """Immutable ground set: per-item relevance vectors plus m distance metrics.

    Item ids are the dense range 0..L-1.  Safe to share across threads and
    processes; every operation over it is a pure, deterministic function.
    Two states change, neither changing a result: each metric's memo of the
    distance rows read so far, and `selections`, which maps an LMDH config
    to the selections that all its policies on this catalog share.
    """

    relevance: np.ndarray
    metrics: tuple[CosineDistanceMetric, ...]
    selections: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        relevance = np.ascontiguousarray(self.relevance, dtype=np.float64)
        if relevance.ndim != 2 or relevance.shape[0] < 1 or relevance.shape[1] < 1:
            raise DimensionMismatchError("relevance must be a non-empty L x d array")
        relevance.flags.writeable = False
        object.__setattr__(self, "relevance", relevance)
        metrics = tuple(self.metrics)
        if not metrics:
            raise DimensionMismatchError("at least one distance metric is required")
        for metric in metrics:
            if len(metric) != relevance.shape[0]:
                raise DimensionMismatchError(
                    "metric covers a different number of items than the catalog"
                )
        object.__setattr__(self, "metrics", metrics)

    @property
    def item_count(self) -> int:
        return self.relevance.shape[0]

    @property
    def relevance_dim(self) -> int:
        return self.relevance.shape[1]

    @property
    def diversity_dim(self) -> int:
        return len(self.metrics)

    def all_items(self) -> np.ndarray:
        return np.arange(self.item_count)

    def check_ids(self, ids: list, what: str) -> None:
        """Raise InvalidItemError naming the (first five) ids outside 0..L-1, as given."""
        bad = [i for i in ids if not 0 <= i < self.item_count]
        if bad:
            raise InvalidItemError(
                f"{what} outside ground set of size {self.item_count}: {bad[:5]}"
            )

    def open_mask(self, candidates, k: int) -> np.ndarray:
        """Candidates as a boolean mask over the catalog with >= k items open.

        The one candidate format every selector works on: a bool array of
        shape (L,) is used as is; any other iterable of ids, in any order and
        with repeats, is range-checked and scattered into a fresh mask.
        """
        mask = candidates
        if getattr(mask, "dtype", None) != bool or mask.shape != (self.item_count,):
            ids = integer_ids(candidates, "candidate ids")
            self.check_ids(ids, "candidate ids")
            mask = np.zeros(self.item_count, dtype=bool)
            mask[np.asarray(ids, dtype=np.intp)] = True
        n_open = np.count_nonzero(mask)
        if k < 1 or n_open < k:
            raise InsufficientCandidatesError(
                f"need {k} items but only {n_open} candidates"
            )
        return mask

    def check_eta(self, eta: PreferenceVector) -> None:
        if eta.theta.shape[0] != self.relevance_dim:
            raise DimensionMismatchError(
                f"theta has length {eta.theta.shape[0]}, catalog d={self.relevance_dim}"
            )
        if eta.beta.shape[0] != self.diversity_dim:
            raise DimensionMismatchError(
                f"beta has length {eta.beta.shape[0]}, catalog m={self.diversity_dim}"
            )


def slate_features(
    slate: Slate, catalog: ItemCatalog
) -> tuple[np.ndarray, np.ndarray]:
    """Per-position marginal features (z, x) of a slate, in slate order.

    z[p] is item a_p's relevance row and x[p, i] = sum_{j < p} h_i(a_p, a_j)
    its diversity marginal against the items before it (zero at p = 0).  The
    ids, integers by `Slate`'s own check, are range-checked.
    """
    items = slate.items
    if items and not (min(items) >= 0 and max(items) < catalog.item_count):
        catalog.check_ids(items, "slate ids")
    ids = np.asarray(items, dtype=np.intp)
    x = np.zeros((ids.size, catalog.diversity_dim))
    for p in range(1, ids.size):
        for i, metric in enumerate(catalog.metrics):
            x[p, i] = metric.column(items[p], ids[:p]).sum()
    return catalog.relevance[ids], x


def marginal_gains(z: np.ndarray, x: np.ndarray, eta: PreferenceVector) -> np.ndarray:
    """Each position's gain theta . z_p + beta . x_p from a slate's
    `slate_features`, each dot one fixed-order `einsum` over its row."""
    return np.einsum("ij,j->i", z, eta.theta) + np.einsum("ij,j->i", x, eta.beta)


def left_sum(values) -> float:
    """Sum of python floats left to right; builtin `sum` is compensated from 3.12."""
    total = 0.0
    for value in values:
        total += value
    return total


def utility(
    slate: Slate | tuple[int, ...], eta: PreferenceVector, catalog: ItemCatalog
) -> float:
    """F(A | eta), the left sum of the slate's `marginal_gains`; 0.0 when empty."""
    catalog.check_eta(eta)
    if not isinstance(slate, Slate):
        slate = Slate(tuple(slate))  # rejects non-integer and repeated ids
    return left_sum(marginal_gains(*slate_features(slate, catalog), eta).tolist())


def guarantee_preconditions(eta: PreferenceVector, catalog: ItemCatalog) -> bool:
    """True iff theta.z_a >= 0 for every item and beta is element-wise >= 0.

    Under these conditions the greedy selector is guaranteed a 1/4 fraction of
    the optimal utility.  Checked explicitly, never silently assumed.
    """
    catalog.check_eta(eta)
    if np.any(eta.beta < 0.0):
        return False
    return bool(np.all(catalog.relevance @ eta.theta >= 0.0))
