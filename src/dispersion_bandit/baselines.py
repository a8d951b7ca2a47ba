"""Comparison policies (LogRank, MMR, epsilon-greedy) and the policy protocol.

Every policy, learned or static, speaks the same protocol: `select` returns a
SlateSelection and `observe` receives that same selection with the realized
rewards.  The static policies return the bare slate.  The learner's
selection also logs the marginal features as they stood at each selection
step: the diversity component of an item's features depends on the partial
slate it was appended to, and recomputing them later is forbidden for
learners.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .catalog import ItemCatalog, Slate
from .errors import DimensionMismatchError
from .greedy import greedy_fill


@dataclass(frozen=True)
class SlateSelection:
    """A selected slate and, from the learner, its features logged at pick time.

    The features feed the learner's own update; static policies leave them None.
    """

    slate: Slate
    relevance_features: np.ndarray | None = None  # (k, d): z_a for each position
    diversity_features: np.ndarray | None = None  # (k, m): x_a against the partial slate
    widths: np.ndarray | None = None  # sqrt(v_a) per position; UCB policies only


def claim_memo(memo: dict, catalog: ItemCatalog, setting) -> dict:
    """`memo`, bound under its key "owner" to the first catalog and setting it serves.

    Its keys are the bytes of what each selection read, which leave out the
    catalog and the policy's settings, so any other owner raises ValueError.
    """
    owner_catalog, owner_setting = memo.setdefault("owner", (catalog, setting))
    if owner_catalog is not catalog or owner_setting != setting:
        raise ValueError("the memo was made for another config or catalog")
    return memo


class StaticScorer:
    """Fixed per-item quality r_a = sigmoid(u_bar . z_a), computed on first read."""

    def __init__(self, u_bar: np.ndarray, catalog: ItemCatalog):
        u_bar = np.array(u_bar, dtype=np.float64)  # a copy: `quality` reads it later
        if u_bar.shape != (catalog.relevance_dim,):
            raise DimensionMismatchError(
                f"u_bar has shape {u_bar.shape}, expected ({catalog.relevance_dim},)"
            )
        self.catalog = catalog  # range-checks the candidate ids
        self._u_bar = u_bar

    @cached_property
    def quality(self) -> np.ndarray:
        logits = self.catalog.relevance @ self._u_bar
        quality = 1.0 / (1.0 + np.exp(-logits))
        quality.flags.writeable = False
        return quality

    @cached_property
    def _unit(self) -> np.ndarray:
        """Unit rows for the MMR similarity penalty."""
        norms = np.linalg.norm(self.catalog.relevance, axis=1)
        safe = np.where(norms == 0.0, 1.0, norms)
        unit = self.catalog.relevance / safe[:, None]
        unit.flags.writeable = False
        return unit


def logrank_select(scorer: StaticScorer, candidates, k: int) -> Slate:
    """Top-K candidates by quality, ties broken by smallest item id."""
    cand = scorer.catalog.candidate_ids(candidates, k)
    neg = -scorer.quality[cand]
    if k < cand.size:
        # a stable sort of every position not above the k-th smallest key
        # gives the same first k as a stable sort of all of them
        kth = np.partition(neg, k - 1)[k - 1]
        top = np.flatnonzero(~(neg > kth))
    else:
        top = np.arange(cand.size)
    order = top[np.argsort(neg[top], kind="stable")][:k]
    return Slate(tuple(int(cand[i]) for i in order))


def mmr_select(
    scorer: StaticScorer,
    catalog: ItemCatalog,
    candidates,
    k: int,
    mmr_alpha: float = 0.9,
) -> Slate:
    """Maximal-marginal-relevance selection.

    Appends the argmax of  alpha * r_a - ((1 - alpha) / |A|) * sum_j sim(a, j)
    over the partial slate A; the penalty is defined as 0 when A is empty, so
    the first pick is the highest-quality item.
    """
    if not 0.0 <= mmr_alpha <= 1.0:
        raise ValueError(f"mmr_alpha must lie in [0, 1], got {mmr_alpha}")
    cand = catalog.candidate_ids(candidates, k)
    quality = scorer.quality[cand]
    unit = scorer._unit[cand]

    def score(step: int, sim_sum: np.ndarray, taken: np.ndarray) -> np.ndarray:
        scores = mmr_alpha * quality
        if step > 0:
            scores = scores - (1.0 - mmr_alpha) / step * sim_sum
        return scores

    def add_similarity(sim_sum: np.ndarray, pick: int) -> None:
        sim_sum += unit @ scorer._unit[cand[pick]]

    picks, _, _ = greedy_fill(np.zeros(cand.size), k, score, add_similarity)
    return Slate(tuple(cand[picks].tolist()))


def epsilon_greedy_select(
    scorer: StaticScorer,
    candidates,
    k: int,
    epsilon: float,
    rng: np.random.Generator,
) -> Slate:
    """Per slot: explore uniformly with probability epsilon, else best quality."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    cand = scorer.catalog.candidate_ids(candidates, k)
    quality = scorer.quality[cand]  # a copy; taken entries become -inf
    taken = np.zeros(cand.size, dtype=bool)
    chosen: list[int] = []
    for step in range(k):
        if rng.random() < epsilon:
            pick = int(np.flatnonzero(~taken)[rng.integers(cand.size - step)])
        else:
            pick = int(np.argmax(quality))
        taken[pick] = True
        quality[pick] = -np.inf
        chosen.append(int(cand[pick]))
    return Slate(tuple(chosen))


class _StaticPolicy:
    """Shared plumbing: static policies never learn."""

    def __init__(self, scorer: StaticScorer, catalog: ItemCatalog, k: int):
        self.scorer = scorer
        self.catalog = catalog
        self.k = k

    def observe(self, selection: SlateSelection, rewards: np.ndarray) -> None:
        pass


class _FixedSlatePolicy(_StaticPolicy):
    """A static policy whose slate is a function of the candidate set alone.

    Each candidate set's selection is stored in a memo under the set's
    bytes and returned whenever the same set comes back.  The memo is the
    policy's own unless one is given: in a replay world the policies of all
    users share one, so each slate is computed once per world.  It is bound
    to the policy's name, scorer, K and `setting` (a subclass's parameters).
    """

    def __init__(
        self,
        scorer: StaticScorer,
        catalog: ItemCatalog,
        k: int,
        memo: dict | None = None,
        setting: tuple = (),
    ):
        super().__init__(scorer, catalog, k)
        self._memo = claim_memo(
            {} if memo is None else memo, catalog, (self.name, scorer, k, *setting)
        )

    def _slate(self, cand: np.ndarray) -> Slate:
        raise NotImplementedError

    def select(self, candidates) -> SlateSelection:
        cand = self.catalog.candidate_ids(candidates, self.k)
        key = cand.tobytes()
        selection = self._memo.get(key)
        if selection is None:
            selection = self._memo[key] = SlateSelection(self._slate(cand))
        return selection


class LogRankPolicy(_FixedSlatePolicy):
    name = "logrank"

    def _slate(self, cand: np.ndarray) -> Slate:
        return logrank_select(self.scorer, cand, self.k)


class MmrPolicy(_FixedSlatePolicy):
    name = "mmr"

    def __init__(
        self,
        scorer: StaticScorer,
        catalog: ItemCatalog,
        k: int,
        mmr_alpha: float = 0.9,
        memo: dict | None = None,
    ):
        super().__init__(scorer, catalog, k, memo, (mmr_alpha,))
        self.mmr_alpha = mmr_alpha

    def _slate(self, cand: np.ndarray) -> Slate:
        return mmr_select(self.scorer, self.catalog, cand, self.k, self.mmr_alpha)


class EpsilonGreedyPolicy(_StaticPolicy):
    name = "epsilon-greedy"

    def __init__(
        self,
        scorer: StaticScorer,
        catalog: ItemCatalog,
        k: int,
        epsilon: float,
        rng: np.random.Generator,
    ):
        super().__init__(scorer, catalog, k)
        self.epsilon = epsilon
        self.rng = rng

    def select(self, candidates) -> SlateSelection:
        slate = epsilon_greedy_select(
            self.scorer, candidates, self.k, self.epsilon, self.rng
        )
        return SlateSelection(slate)
