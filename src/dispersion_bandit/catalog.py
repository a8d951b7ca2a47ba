"""Ground set, feature model, marginal gains, and the slate utility.

The utility of an ordered item set A under preferences eta = [theta; beta] is

    F(A | eta) = sum_i theta_i * R_i(A)  +  sum_i beta_i * V_i(A)

where each R_i is modular (sums per-item relevance values) and each V_i is a
dispersion function (sums a pairwise distance over all unordered item pairs
in A).  Both marginal gains are locally linear in eta, which is what the
greedy selector and the bandit learner exploit:

    F(A + a | eta) - F(A | eta) = eta . [rel_marginal(a); div_marginal(a | A)]
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DuplicateItemError,
    InsufficientCandidatesError,
    InvalidItemError,
    UndefinedSimilarityError,
)

#: Ground sets up to this size memoise each distance row on its first read;
#: larger ones evaluate every column on demand from the vectors.
TABLE_THRESHOLD = 4096

METRIC_MODES = ("raw", "slate-normalized")


def _check_integers(values: list | tuple, what: str) -> None:
    """Raise InvalidItemError naming the first five values that are not integers.

    Bools and floats count as bad even when whole: truncating 1.7 or True to
    an id would pick an item nobody named.
    """
    bad = [v for v in values if not (type(v) is int or isinstance(v, np.integer))]
    if bad:
        raise InvalidItemError(
            f"{what} must be integers, got [{', '.join(map(str, bad[:5]))}]"
        )


def integer_ids(ids, what: str) -> np.ndarray:
    """`ids` as an intp array; any non-integer dtype or value raises InvalidItemError."""
    if isinstance(ids, np.ndarray):
        if ids.dtype.kind in "iu" or ids.size == 0:
            return ids.astype(np.intp, copy=False)
        values = ids.ravel().tolist()
    else:
        values = list(ids)
    _check_integers(values, what)
    return np.asarray(values, dtype=np.intp)


def distinct_sorted(values: np.ndarray) -> np.ndarray:
    """`np.unique(values)` for integers: one sort and a first-of-run mask.

    On numpy 2 `np.unique` is many times slower than a sort of the same ids.
    """
    ordered = np.sort(values, axis=None)
    first = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


def sorted_ids(ids) -> np.ndarray:
    """Distinct ids as a sorted intp array; one already in that form is returned as is."""
    if (
        isinstance(ids, np.ndarray)
        and ids.dtype == np.intp
        and ids.ndim == 1
        and (ids[1:] > ids[:-1]).all()
    ):
        return ids
    return distinct_sorted(integer_ids(ids, "candidate ids"))


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

    For ground sets of at most `TABLE_THRESHOLD` items, item i's distance row
    is computed the first time a column of i is read and memoised; a run
    computes only the rows it reads.  Each row is formed by one fixed-order
    product per entry, so h(i, j) == h(j, i) bit for bit, and a row's bits do
    not depend on which rows were filled before it, or in which thread or
    forked process: `column` stays a pure, deterministic function of its
    arguments.  Larger ground sets evaluate every column on demand from the
    vectors, which agrees with the rows to floating-point noise (well
    within 1e-12).
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

    @property
    def entrywise(self) -> bool:
        """True when an entry of `column` has the same bits whatever other ids
        it is read with: the memoised rows are; a product over gathered rows
        rounds by an entry's position.
        """
        return self._rows is not None

    def _row(self, item: int) -> np.ndarray:
        """h(item, j) for every item j, computed on first use.

        Two threads that miss on the same row both compute it, with equal
        bits, so whichever store lands last changes nothing.
        """
        row = self._rows.get(item)
        if row is None:
            # einsum sums each entry's products in one fixed order; a one-row
            # `U @ u` is a gemv, whose rounding depends on the entry's position
            row = np.einsum("ij,j->i", self._unit, self._unit[item])
            np.subtract(1.0, row, out=row)
            row *= self.scale
            np.clip(row, 0.0, None, out=row)
            row[item] = 0.0
            row.flags.writeable = False
            self._rows[item] = row
        return row

    def column(self, item: int, others: np.ndarray) -> np.ndarray:
        """Distances h(item, j) for every j in `others`, as a new array."""
        others = np.asarray(others, dtype=np.intp)
        if self._rows is not None:
            return self._row(item)[others]
        col = self.scale * (1.0 - self._unit[others] @ self._unit[item])
        np.clip(col, 0.0, None, out=col)
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
        items = tuple(self.items)
        _check_integers(items, "slate ids")
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
    The one state that changes is each metric's memo of the distance rows
    read so far, which changes no result.
    """

    relevance: np.ndarray
    metrics: tuple[CosineDistanceMetric, ...]

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

    def check_ids(self, ids: np.ndarray, what: str) -> None:
        """Raise InvalidItemError naming the (first five) ids outside 0..L-1."""
        bad = ids[(ids < 0) | (ids >= self.item_count)]
        if bad.size:
            raise InvalidItemError(
                f"{what} outside ground set of size {self.item_count}: "
                f"{bad[:5].tolist()}"
            )

    def candidate_ids(self, candidates, k: int) -> np.ndarray:
        """Candidates as a sorted, distinct, in-range intp array holding >= k ids.

        The one candidate format every selector works on: a strictly
        increasing intp array passes with a range check of its end points and
        no copy; any other iterable is sorted and deduplicated once.
        """
        cand = sorted_ids(candidates)
        if cand.size and (cand[0] < 0 or cand[-1] >= self.item_count):
            self.check_ids(cand, "candidate ids")
        if k < 1 or cand.size < k:
            raise InsufficientCandidatesError(
                f"need {k} items but only {cand.size} candidates"
            )
        return cand

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
    slate: Slate | tuple[int, ...], catalog: ItemCatalog
) -> tuple[np.ndarray, np.ndarray]:
    """Per-position marginal features (z, x) of a slate, in slate order.

    `slate` is a `Slate` or a sequence of ids.  z[p] is item a_p's relevance
    row and x[p, i] = sum_{j < p} h_i(a_p, a_j) its diversity marginal
    against the items before it (zero at p = 0).  The ids must be integers
    (a `Slate` checked its own) and are range-checked.
    """
    if isinstance(slate, Slate):
        items = slate.items
    else:
        items = integer_ids(slate, "slate ids").tolist()
    ids = np.asarray(items, dtype=np.intp)
    if items and not (min(items) >= 0 and max(items) < catalog.item_count):
        catalog.check_ids(ids, "slate ids")
    x = np.zeros((ids.size, catalog.diversity_dim))
    for p in range(1, ids.size):
        for i, metric in enumerate(catalog.metrics):
            x[p, i] = metric.column(items[p], ids[:p]).sum()
    return catalog.relevance[ids], x


def utility(
    slate: Slate | tuple[int, ...], eta: PreferenceVector, catalog: ItemCatalog
) -> float:
    """F(A | eta); order-independent, 0.0 for the empty slate.

    Checks eta and the ids, then evaluates `slate_features` with
    `features_utility`.
    """
    catalog.check_eta(eta)
    if not isinstance(slate, Slate):
        slate = Slate(tuple(slate))  # rejects non-integer and repeated ids
    return features_utility(*slate_features(slate, catalog), eta)


def features_utility(z: np.ndarray, x: np.ndarray, eta: PreferenceVector) -> float:
    """F(A | eta) from a slate's (z, x) of `slate_features`; 0.0 for no rows.

    Relevance is z's column sums dotted with theta; the diversity marginals
    are summed left to right.  No checks: `utility` makes them.
    """
    if z.shape[0] == 0:
        return 0.0
    value = float(z.sum(axis=0) @ eta.theta)
    for beta_i, column in zip(eta.beta.tolist(), x.T.tolist()):
        dispersion = 0.0  # a left fold, not builtin `sum` (compensated from 3.12)
        for x_p in column:
            dispersion += x_p
        value += beta_i * dispersion
    return value


def guarantee_preconditions(eta: PreferenceVector, catalog: ItemCatalog) -> bool:
    """True iff theta.z_a >= 0 for every item and beta is element-wise >= 0.

    Under these conditions the greedy selector is guaranteed a 1/4 fraction of
    the optimal utility.  Checked explicitly, never silently assumed.
    """
    catalog.check_eta(eta)
    if np.any(eta.beta < 0.0):
        return False
    return bool(np.all(catalog.relevance @ eta.theta >= 0.0))
