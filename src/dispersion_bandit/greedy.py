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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .catalog import ItemCatalog, PreferenceVector, Slate, utility
from .errors import DegenerateInstanceError, TooLargeInstanceError

#: Maximum number of subsets the exhaustive oracle will enumerate.
DEFAULT_SUBSET_BUDGET = 10_000_000

_ENUM_CHUNK = 262_144  # subsets scored per vectorized block


@dataclass(frozen=True)
class GreedyResult:
    """Slate in selection order plus the per-step marginal gains."""

    slate: Slate
    gain_trace: tuple[float, ...]

    @property
    def value(self) -> float:
        """Telescoped utility of the full slate."""
        return float(sum(self.gain_trace))


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
    div_acc = np.zeros((cand.size, catalog.diversity_dim))
    taken = np.zeros(cand.size, dtype=bool)

    chosen: list[int] = []
    gains: list[float] = []
    for _ in range(k):
        scores = rel_scores + div_acc @ eta.beta
        scores[taken] = -np.inf
        pick = int(np.argmax(scores))  # first max = smallest id (cand is sorted)
        gains.append(float(scores[pick]))
        taken[pick] = True
        item = int(cand[pick])
        chosen.append(item)
        for i, metric in enumerate(catalog.metrics):
            div_acc[:, i] += metric.column(item, cand)

    return GreedyResult(slate=Slate(tuple(chosen), capacity=k), gain_trace=tuple(gains))


def _pairwise_weights(
    eta: PreferenceVector, catalog: ItemCatalog, cand: np.ndarray
) -> np.ndarray:
    """W[p, q] = sum_i beta_i * h_i(cand[p], cand[q]) over the candidate grid."""
    w = np.zeros((cand.size, cand.size))
    for beta_i, metric in zip(eta.beta, catalog.metrics):
        if beta_i == 0.0:
            continue
        for p, item in enumerate(cand):
            w[p] += beta_i * metric.column(int(item), cand)
    return w


def exhaustive_optimum(
    eta: PreferenceVector,
    catalog: ItemCatalog,
    candidates,
    k: int,
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> tuple[tuple[int, ...], float]:
    """Best K-subset by brute force; returns (sorted item ids, value).

    Enumerates C(n, K) subsets in lexicographic order (first maximizer wins),
    scored in vectorized blocks.  Refuses instances above `budget` subsets.
    """
    catalog.check_eta(eta)
    cand = catalog.candidate_ids(candidates, k)
    n_subsets = math.comb(cand.size, k)
    if n_subsets > budget:
        raise TooLargeInstanceError(
            f"C({cand.size}, {k}) = {n_subsets} exceeds budget {budget}"
        )

    per_item = catalog.relevance[cand] @ eta.theta
    w = _pairwise_weights(eta, catalog, cand)
    pair_pos = list(itertools.combinations(range(k), 2))

    best_value = -np.inf
    best_subset: tuple[int, ...] | None = None
    combos = itertools.combinations(range(cand.size), k)
    while True:
        block = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(combos, _ENUM_CHUNK)),
            dtype=np.intp,
        ).reshape(-1, k)
        if block.size == 0:
            break
        values = per_item[block].sum(axis=1)
        for p, q in pair_pos:
            values += w[block[:, p], block[:, q]]
        pick = int(np.argmax(values))
        if values[pick] > best_value:
            best_value = float(values[pick])
            best_subset = tuple(int(cand[i]) for i in block[pick])
        if block.shape[0] < _ENUM_CHUNK:
            break

    assert best_subset is not None
    return best_subset, best_value


def approximation_ratio(
    eta: PreferenceVector,
    catalog: ItemCatalog,
    candidates,
    k: int,
    budget: int = DEFAULT_SUBSET_BUDGET,
) -> float:
    """F(greedy) / F(optimum) on one instance.

    At least 1/4 whenever theta.z_a >= 0 for all items and beta >= 0, and at
    most 1 by optimality of the exhaustive solution.
    """
    result = greedy_select(eta, catalog, candidates, k)
    _, best_value = exhaustive_optimum(eta, catalog, candidates, k, budget=budget)
    if best_value == 0.0:
        raise DegenerateInstanceError("optimal utility is zero; ratio undefined")
    return utility(result.slate, eta, catalog) / best_value
