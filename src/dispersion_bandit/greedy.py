"""Greedy slate construction and the exhaustive subset oracle.

The greedy selector appends, at every step, the item with the largest locally
linear marginal gain eta . delta(a | A).  When theta.z_a >= 0 for all items
and beta >= 0, its utility is at least 1/4 of the best K-subset's; in the
random instances studied here the observed ratio is typically above 0.99.

The exhaustive oracle enumerates K-subsets, not K-permutations: F(A | eta) is
order-independent (a permutation-invariance test asserts this), so subsets
suffice.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .catalog import ItemCatalog, PreferenceVector, Slate
from .errors import DegenerateInstanceError, TooLargeInstanceError

#: gamma, the greedy selector's approximation factor (the 1/4 above); the
#: scaled regret and the LMDH regret bound divide by it.
GAMMA = 0.25

#: Maximum number of subsets the exhaustive oracle will enumerate, all in one
#: cached table; every command's instance has at most C(20, 10) = 184 756.
SUBSET_BUDGET = 262_144

_SCORE_ROWS = 4_096  # subsets scored per vectorized step, so temporaries stay small


@dataclass(frozen=True)
class GreedyResult:
    """Slate in selection order plus the per-step marginal gains."""

    slate: Slate
    gain_trace: tuple[float, ...]

    @property
    def value(self) -> float:
        """Telescoped utility of the full slate, summed left to right.

        Not builtin `sum`: it is compensated from Python 3.12 on.
        """
        total = 0.0
        for gain in self.gain_trace:
            total += gain
        return total


def greedy_fill(acc: np.ndarray, k: int, score, add_column):
    """The greedy pass loop shared by every slate selector.

    Pass `step` scores all candidates with `score(step, acc)`, which returns
    a fresh array, sets the taken ones' scores to -inf, picks the first
    maximum (the smallest id, as candidates are sorted) and calls
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


def metric_columns(catalog: ItemCatalog, cand: np.ndarray):
    """add(acc, pick): acc[:, i] += h_i(cand[pick], cand) for each metric i."""

    def add(acc: np.ndarray, pick: int) -> None:
        item = int(cand[pick])
        for i, metric in enumerate(catalog.metrics):
            acc[:, i] += metric.column(item, cand)

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
    cand = catalog.candidate_ids(candidates, k)
    rel_scores = catalog.relevance[cand] @ eta.theta
    picks, _, gains = greedy_fill(
        np.zeros((cand.size, catalog.diversity_dim)),
        k,
        lambda step, div_acc: rel_scores + div_acc @ eta.beta,
        metric_columns(catalog, cand),
    )
    return GreedyResult(
        slate=Slate(tuple(cand[picks].tolist())),
        gain_trace=tuple(float(g) for g in gains),
    )


def _pairwise_weights(
    eta: PreferenceVector, catalog: ItemCatalog, cand: np.ndarray
) -> np.ndarray:
    """W[p, q] = sum_i beta_i * h_i(cand[p], cand[q]) over the candidate grid."""
    add = metric_columns(catalog, cand)
    h = np.zeros((cand.size, cand.size, catalog.diversity_dim))  # h[p, q, i]
    for p in range(cand.size):
        add(h[p], p)
    w = np.zeros((cand.size, cand.size))
    for i, beta_i in enumerate(eta.beta):
        if beta_i != 0.0:
            w += beta_i * h[:, :, i]
    return w


@functools.lru_cache(maxsize=4)
def _subset_table(n: int, k: int) -> np.ndarray:
    """Every k-subset of range(n) in lexicographic order, read-only, one per (n, k)."""
    count = math.comb(n, k)
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), k))
    table = np.fromiter(flat, dtype=np.intp, count=count * k).reshape(count, k)
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
    Refuses instances above `SUBSET_BUDGET` subsets.
    """
    catalog.check_eta(eta)
    cand = catalog.candidate_ids(candidates, k)
    n_subsets = math.comb(cand.size, k)
    if n_subsets > SUBSET_BUDGET:
        raise TooLargeInstanceError(
            f"C({cand.size}, {k}) = {n_subsets} exceeds budget {SUBSET_BUDGET}"
        )

    per_item = catalog.relevance[cand] @ eta.theta
    w = _pairwise_weights(eta, catalog, cand)
    pair_pos = list(itertools.combinations(range(k), 2))

    best_value = -np.inf
    best_subset: tuple[int, ...] | None = None
    table = _subset_table(cand.size, k)
    for start in range(0, len(table), _SCORE_ROWS):
        block = table[start : start + _SCORE_ROWS]
        values = per_item[block].sum(axis=1)
        for p, q in pair_pos:
            values += w[block[:, p], block[:, q]]
        pick = int(values.argmax())
        if values[pick] > best_value:  # strict: an earlier block keeps a tie
            best_value = float(values[pick])
            best_subset = tuple(cand[block[pick]].tolist())

    assert best_subset is not None
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
