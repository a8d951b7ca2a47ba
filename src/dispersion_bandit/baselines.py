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

from .catalog import ItemCatalog, Slate, unit_rows
from .errors import DimensionMismatchError
from .greedy import greedy_fill


@dataclass(frozen=True, slots=True)
class SlateSelection:
    """A selected slate and, from the learner, its features logged at pick time.

    The features feed the learner's own update; static policies leave them None.
    """

    slate: Slate
    relevance_features: np.ndarray | None = None  # (k, d): z_a for each position
    diversity_features: np.ndarray | None = None  # (k, m): x_a against the partial slate
    widths: np.ndarray | None = None  # sqrt(v_a) per position; UCB policies only


class StaticScorer:
    """Fixed per-item quality r_a = sigmoid(u_bar . z_a), computed on first read.

    `u_bar` may also be a function that returns it, called on that first read.
    """

    def __init__(self, u_bar, catalog: ItemCatalog):
        if not callable(u_bar):
            u_bar = np.array(u_bar, dtype=np.float64)  # a copy: `quality` reads it later
            if u_bar.shape != (catalog.relevance_dim,):
                raise DimensionMismatchError(
                    f"u_bar has shape {u_bar.shape}, expected ({catalog.relevance_dim},)"
                )
        self.catalog = catalog  # makes the open mask of the candidates
        self._u_bar = u_bar
        self.slates: dict = {}  # (name, K, *setting) -> a fixed-slate policy's memo

    @cached_property
    def quality(self) -> np.ndarray:
        logits = self.catalog.relevance @ (
            self._u_bar() if callable(self._u_bar) else self._u_bar
        )
        quality = 1.0 / (1.0 + np.exp(-logits))
        quality.flags.writeable = False
        return quality

    @cached_property
    def _unit(self) -> np.ndarray:
        """Unit rows for the MMR similarity penalty (`unit_rows`)."""
        unit = unit_rows(self.catalog.relevance)
        unit.flags.writeable = False
        return unit


def logrank_select(scorer: StaticScorer, candidates, k: int) -> Slate:
    """Top-K candidates by quality, ties broken by smallest item id."""
    mask = scorer.catalog.open_mask(candidates, k)
    neg = np.where(mask, -scorer.quality, np.inf)
    # a stable sort of the open items not above the k-th smallest key (all
    # of them if it is inf or NaN) gives the same first k as one of them all
    kth = np.partition(neg, k - 1)[k - 1]
    top = np.flatnonzero(mask & ~(neg > kth))
    return Slate(tuple(top[np.argsort(neg[top], kind="stable")][:k].tolist()))


def mmr_select(
    scorer: StaticScorer,
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
    mask = scorer.catalog.open_mask(candidates, k)
    relevance = mmr_alpha * scorer.quality
    relevance[~mask] = -np.inf

    def score(step: int, sim_sum: np.ndarray) -> np.ndarray:
        if step == 0:
            return relevance.copy()
        return relevance - (1.0 - mmr_alpha) / step * sim_sum

    def add_similarity(sim_sum: np.ndarray, pick: int) -> None:
        sim_sum += scorer._unit @ scorer._unit[pick]

    picks, _, _ = greedy_fill(np.zeros(mask.size), k, score, add_similarity)
    return Slate(tuple(picks.tolist()))


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
    mask = scorer.catalog.open_mask(candidates, k)
    remaining = mask.copy()
    n_open = int(np.count_nonzero(mask))
    quality = np.where(mask, scorer.quality, -np.inf)  # below any quality in [0, 1]
    chosen: list[int] = []
    for step in range(k):
        if rng.random() < epsilon:
            pick = int(np.flatnonzero(remaining)[rng.integers(n_open - step)])
        else:
            pick = int(np.argmax(quality))
        remaining[pick] = False
        quality[pick] = -np.inf
        chosen.append(pick)
    return Slate(tuple(chosen))


class _FixedSlatePolicy:
    """A static policy whose slate is a function of the candidate set alone.

    Each candidate set's selection is stored in a memo under its open mask's
    packed bits and returned whenever the same set comes back.  The memo is
    the scorer's, under the policy's name, K and `setting` (a subclass's
    parameters): in a replay world the policies of all users share it, so
    each slate is computed once per world.
    """

    def __init__(
        self,
        scorer: StaticScorer,
        k: int,
        setting: tuple = (),
    ):
        self.scorer = scorer
        self.k = k
        self._memo = scorer.slates.setdefault((self.name, k, *setting), {})

    def _slate(self, mask: np.ndarray) -> Slate:
        raise NotImplementedError

    def select(self, candidates) -> SlateSelection:
        mask = self.scorer.catalog.open_mask(candidates, self.k)
        key = np.packbits(mask).tobytes()
        selection = self._memo.get(key)
        if selection is None:
            selection = self._memo[key] = SlateSelection(self._slate(mask))
        return selection

    def observe(self, selection: SlateSelection, rewards: np.ndarray) -> None:
        pass


class LogRankPolicy(_FixedSlatePolicy):
    name = "logrank"

    def _slate(self, mask: np.ndarray) -> Slate:
        return logrank_select(self.scorer, mask, self.k)


class MmrPolicy(_FixedSlatePolicy):
    name = "mmr"

    def __init__(
        self,
        scorer: StaticScorer,
        k: int,
        mmr_alpha: float = 0.9,
    ):
        super().__init__(scorer, k, (mmr_alpha,))
        self.mmr_alpha = mmr_alpha

    def _slate(self, mask: np.ndarray) -> Slate:
        return mmr_select(self.scorer, mask, self.k, self.mmr_alpha)


class EpsilonGreedyPolicy:
    name = "epsilon-greedy"

    def __init__(
        self,
        scorer: StaticScorer,
        k: int,
        epsilon: float,
        rng: np.random.Generator,
    ):
        self.scorer = scorer
        self.k = k
        self.epsilon = epsilon
        self.rng = rng

    def select(self, candidates) -> SlateSelection:
        slate = epsilon_greedy_select(
            self.scorer, candidates, self.k, self.epsilon, self.rng
        )
        return SlateSelection(slate)

    def observe(self, selection: SlateSelection, rewards: np.ndarray) -> None:
        pass
