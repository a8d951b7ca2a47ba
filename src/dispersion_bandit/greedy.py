"""Greedy slate construction and the exhaustive subset oracle.

The greedy selector appends, at every step, the item with the largest locally
linear marginal gain eta . delta(a | A).  When theta.z_a >= 0 for all items
and beta >= 0, its utility is at least 1/4 of the best K-subset's; in the
random instances studied here the observed ratio is typically above 0.99.

The exhaustive oracle enumerates K-subsets, not K-permutations: F(A | eta) is
order-independent (a permutation-invariance test asserts this), so subsets
suffice.  Its cached subset tables take K bytes per subset up to n = 256:
76 KB for C(20, 5), 1.85 MB for C(20, 10).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .catalog import ItemCatalog, PreferenceVector, Slate, left_sum
from .errors import DegenerateInstanceError, TooLargeInstanceError

#: gamma, the greedy selector's approximation factor (the 1/4 above); the
#: scaled regret and the LMDH regret bound divide by it.
GAMMA = 0.25

#: Maximum number of subsets the exhaustive oracle will enumerate, all in one
#: cached table of K bytes per subset (n <= 256); every command's instance has
#: at most C(20, 10) = 184 756, a 1.85 MB table.
SUBSET_BUDGET = 262_144

_SCORE_ROWS = 4_096  # subsets scored per vectorized step, so temporaries stay small


@dataclass(frozen=True)
class GreedyResult:
    """Slate in selection order plus the per-step marginal gains."""

    slate: Slate
    gain_trace: tuple[float, ...]

    @property
    def value(self) -> float:
        """Telescoped utility of the full slate: the gains' `left_sum`."""
        return left_sum(self.gain_trace)


def greedy_fill(acc: np.ndarray, k: int, score, add_column):
    """The greedy pass loop shared by every slate selector.

    Pass `step` scores all rows with `score(step, acc)`, which returns a
    fresh array, sets the taken ones' scores to -inf, picks the first
    maximum (the smallest id, as rows are items in id order) and calls
    `add_column(acc, pick)`, which adds the pick's column to `acc` in place,
    so `acc` holds the summed columns of the picks so far.  Returns the pick
    positions, `acc`'s row at each pick (before its own column is added) and
    the score at each pick.
    """
    picks: list[int] = []
    rows = np.empty((k,) + acc.shape[1:])
    pick_scores = np.empty(k)
    for step in range(k):
        scores = score(step, acc)
        for taken_pick in picks:  # fewer calls than a boolean mask over every score
            scores[taken_pick] = -np.inf
        pick = int(scores.argmax())
        picks.append(pick)
        rows[step] = acc[pick]
        pick_scores[step] = scores[pick]
        if step + 1 < k:
            add_column(acc, pick)
    return np.array(picks, dtype=np.intp), rows, pick_scores


def metric_columns(catalog: ItemCatalog):
    """add(acc, pick): acc[:, i] += h_i(pick, j) over every item j, for each metric i."""

    def add(acc: np.ndarray, pick: int) -> None:
        for i, metric in enumerate(catalog.metrics):
            acc[:, i] += metric.column(pick)

    return add


def greedy_select(
    eta: PreferenceVector,
    catalog: ItemCatalog,
    candidates,
    k: int,
) -> GreedyResult:
    """Pick K items, each maximizing eta . delta(a | A); ties -> smallest id.

    Always fills all K slots even if late marginal gains are negative.
    """
    catalog.check_eta(eta)
    mask = catalog.open_mask(candidates, k)
    rel_scores = catalog.relevance @ eta.theta
    rel_scores[~mask] = -np.inf
    picks, _, gains = greedy_fill(
        np.zeros((catalog.item_count, catalog.diversity_dim)),
        k,
        lambda step, div_acc: rel_scores + div_acc @ eta.beta,
        metric_columns(catalog),
    )
    return GreedyResult(
        slate=Slate(tuple(picks.tolist())),
        gain_trace=tuple(float(g) for g in gains),
    )


def _pairwise_weights(
    eta: PreferenceVector, catalog: ItemCatalog, cand: np.ndarray
) -> np.ndarray:
    """W[p, q] = sum_i beta_i * h_i(cand[p], cand[q]) over the candidate grid."""
    w = np.zeros((cand.size, cand.size))
    for p, item in enumerate(cand.tolist()):
        for beta_i, metric in zip(eta.beta, catalog.metrics):
            w[p] += beta_i * metric.column(item, cand)
    return w


@functools.lru_cache(maxsize=4)
def _subset_table(n: int, k: int) -> np.ndarray:
    """Every k-subset of range(n) in lexicographic order, read-only, one per (n, k)."""
    count = math.comb(n, k)
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), k))
    dtype = np.min_scalar_type(n - 1)  # uint8 up to n = 256
    table = np.fromiter(flat, dtype=dtype, count=count * k).reshape(count, k)
    table.flags.writeable = False
    return table


def exhaustive_optimum(
    eta: PreferenceVector,
    catalog: ItemCatalog,
    candidates,
    k: int,
) -> tuple[tuple[int, ...], float]:
    """Best K-subset by brute force; returns (sorted item ids, value).

    Enumerates C(n, K) subsets in lexicographic order (first maximizer wins),
    from the cached `_subset_table`, scored `_SCORE_ROWS` at a time.
    Refuses instances above `SUBSET_BUDGET` subsets, ones with a non-finite
    item value or pair weight, and ones where no value is above -inf.
    """
    catalog.check_eta(eta)
    cand = np.flatnonzero(catalog.open_mask(candidates, k))
    n_subsets = math.comb(cand.size, k)
    if n_subsets > SUBSET_BUDGET:
        raise TooLargeInstanceError(
            f"C({cand.size}, {k}) = {n_subsets} exceeds budget {SUBSET_BUDGET}"
        )

    per_item = catalog.relevance[cand] @ eta.theta
    w = _pairwise_weights(eta, catalog, cand).ravel()  # W[p, q] at p * n + q
    if not (np.isfinite(per_item).all() and np.isfinite(w).all()):
        raise DegenerateInstanceError(
            f"no K = {k} subset of the {cand.size} candidates is scored: "
            "an item value or pair weight is not finite"
        )

    best_value = -np.inf
    best_subset: tuple[int, ...] | None = None
    table = _subset_table(cand.size, k)
    for start in range(0, len(table), _SCORE_ROWS):
        block = table[start : start + _SCORE_ROWS].astype(np.intp)  # fast gathers
        values = per_item[block].sum(axis=1)
        for p in range(k - 1):  # pairs (p, q) in lexicographic order
            row = block[:, p] * cand.size
            for q in range(p + 1, k):
                values += w.take(row + block[:, q])
        pick = int(values.argmax())
        if values[pick] > best_value:  # strict: an earlier block keeps a tie
            best_value = float(values[pick])
            best_subset = tuple(cand[block[pick]].tolist())

    if best_subset is None:
        raise DegenerateInstanceError(
            f"no K = {k} subset of the {cand.size} candidates has a value above -inf"
        )
    return best_subset, best_value


def ratio_to_optimum(greedy_value: float, optimal_value: float) -> float:
    """greedy / optimum; an optimum <= 0 has no meaningful ratio and raises.

    The ratio study divides `greedy_select(...).value` by the optimum of
    `exhaustive_optimum`; under the guarantee's preconditions it is >= GAMMA.
    """
    if optimal_value <= 0.0:
        raise DegenerateInstanceError(
            f"optimal utility {optimal_value} is not positive (greedy "
            f"{greedy_value}); ratio undefined"
        )
    return greedy_value / optimal_value
