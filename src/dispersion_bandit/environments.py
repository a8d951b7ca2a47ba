"""Feedback worlds: the simulated Bernoulli user and the offline replay user.

Both worlds expose the same two calls — ``candidates(t, k)`` and
``feedback(selection)`` — so `run_episode` can drive any policy against
either without knowing which; candidates are a read-only boolean mask of the
open items.  The simulated world knows the hidden preference vector eta*,
draws position rewards from Bernoulli(clamp(eta*.delta, 0, 1)) and keeps the
true F(A) of what it showed for `scaled_regret`; the replay world scores a
recommendation 1 exactly when the item sits in the user's held-out positive
set, and closes everything already recommended.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import SlateSelection
from .catalog import (
    ItemCatalog,
    PreferenceVector,
    cosine_metric,
    left_sum,
    marginal_gains,
    slate_features,
    utility,
)
from .errors import (
    DispersionBanditError,
    ExhaustedCandidatesError,
    InvalidItemError,
    ProtocolViolationError,
    prefix_message,
)
from .seeding import INSTANCE, REWARDS, rng_from_seed

#: `study_instance`'s uniform draw ranges: the item features, and the
#: relevance and diversity preferences.  Both are non-negative, which makes
#: the greedy guarantee's preconditions hold by construction.
FEATURE_RANGE = (0.0, 0.5)
PREFERENCE_RANGE = (0.0, 0.2)


@dataclass(frozen=True)
class SimInstance:
    """A simulated world: catalog plus the hidden truth eta*.

    (seed, index) keys the instance's streams, the rewards' among them.
    """

    catalog: ItemCatalog
    eta_star: PreferenceVector
    seed: int
    index: int = 0

    def __post_init__(self):
        self.catalog.check_eta(self.eta_star)


def study_instance(
    seed: int,
    index: int = 0,
    n_items: int = 20,
    d: int = 10,
    k: int = 5,
    metric_mode: str = "slate-normalized",
) -> SimInstance:
    """Draw a simulated instance with uniform features and preferences.

    Features come from `FEATURE_RANGE`, theta and beta from
    `PREFERENCE_RANGE`, on instance stream `index` under `seed`.  One
    diversity function (cosine dispersion), so m = 1.
    """
    rng = rng_from_seed(seed, INSTANCE, index)
    vectors = rng.uniform(*FEATURE_RANGE, size=(n_items, d))
    theta = rng.uniform(*PREFERENCE_RANGE, size=d)
    beta = rng.uniform(*PREFERENCE_RANGE, size=1)
    metric = cosine_metric(vectors, mode=metric_mode, slate_capacity=k)
    catalog = ItemCatalog(vectors, (metric,))
    return SimInstance(catalog, PreferenceVector(theta, beta), seed, index)


@dataclass(frozen=True)
class ReplayUser:
    """One held-out user and their positive test items."""

    user_id: int
    positives: frozenset[int]


@dataclass(frozen=True)
class TrialRound:
    """Everything observed in one round, in selection order."""

    num_candidates: int
    items: tuple[int, ...]
    rewards: tuple[float, ...]
    relevance_features: np.ndarray | None  # learner only, as in SlateSelection
    diversity_features: np.ndarray | None
    widths: np.ndarray | None
    # no round sets it; it remains only because perfbench/worker.py reads it,
    # and goes with ROADMAP item 1's change to perfbench
    candidate_items: tuple[int, ...] | None = None


class SimulatedEnvironment:
    """Bernoulli world; the full ground set is on offer every round.

    Candidates are not consumed across rounds here — the horizon (1000
    rounds) dwarfs the inventory (20 items) in the simulated study, so the
    same items stay recommendable and the learner revisits them.

    `feedback` computes each distinct ordered slate's marginal gains once per
    run and keeps their truth under the slate's items: the clamped gains are
    the Bernoulli means, the gains outside [0, 1] count towards `clamp_hits`
    at every feedback, and their left sum is the F(A) that `true_utility`
    returns to `scaled_regret`; a slate never fed back takes the full
    `utility` path.
    """

    def __init__(self, instance: SimInstance):
        self.instance = instance
        self._rewards_rng = rng_from_seed(instance.seed, REWARDS, instance.index)
        self.clamp_hits = 0
        self._truth: dict = {}  # items -> (clamped means, F(A), clamp count)
        self._all = np.ones(instance.catalog.item_count, dtype=bool)
        self._all.flags.writeable = False

    def candidates(self, t: int, k: int) -> np.ndarray:
        if self._all.size < k:
            raise ExhaustedCandidatesError(
                f"round {t}: catalog holds {self._all.size} items, need {k}"
            )
        return self._all

    def feedback(self, selection: SlateSelection) -> np.ndarray:
        """Independent Bernoulli rewards, one per position, from the seeded reward stream."""
        items, inst = selection.slate.items, self.instance
        if items not in self._truth:
            gains = marginal_gains(*slate_features(selection.slate, inst.catalog), inst.eta_star)
            clamps = int(np.count_nonzero((gains < 0.0) | (gains > 1.0)))
            self._truth[items] = (np.clip(gains, 0.0, 1.0), left_sum(gains.tolist()), clamps)
        means, _, clamps = self._truth[items]
        self.clamp_hits += clamps
        return (self._rewards_rng.random(len(items)) < means).astype(np.float64)

    def true_utility(self, items: tuple[int, ...]) -> float:
        """F(A) under eta* of the slate with these ordered items."""
        truth = self._truth.get(items)
        if truth is None:
            return utility(items, self.instance.eta_star, self.instance.catalog)
        return truth[1]


class ReplayEnvironment:
    """Offline replay world: membership rewards, shown items leave the pool.

    A boolean mask over the catalog marks the items still open to the user,
    and is the one record of what the user has been shown: every item starts
    open, and each accepted slate closes its items in a new mask, so a mask
    handed out by `candidates` never changes.
    """

    def __init__(self, catalog: ItemCatalog, user: ReplayUser):
        self.user = user
        self._open = np.ones(catalog.item_count, dtype=bool)
        self._open.flags.writeable = False

    def candidates(self, t: int, k: int) -> np.ndarray:
        """The open mask itself, read-only."""
        remaining = np.count_nonzero(self._open)
        if remaining < k:
            raise ExhaustedCandidatesError(
                f"round {t}: {remaining} candidates left, need {k}"
            )
        return self._open

    def feedback(self, selection: SlateSelection) -> np.ndarray:
        """Membership rewards against the user's positives; closes the slate's items.

        A slate holding an id outside the catalog raises InvalidItemError,
        and one holding an item that is already closed raises
        ProtocolViolationError; each names the ids and closes nothing.
        """
        items = selection.slate.items
        n_items = self._open.size
        if items and not (min(items) >= 0 and max(items) < n_items):
            raise InvalidItemError(
                f"user {self.user.user_id} was shown items "
                f"{sorted(i for i in items if not 0 <= i < n_items)} outside "
                f"the catalog's {n_items} items"
            )
        ids = np.array(items, dtype=np.intp)
        repeats = ids[~self._open[ids]]
        if repeats.size:
            raise ProtocolViolationError(
                f"user {self.user.user_id} was already shown items "
                f"{sorted(repeats.tolist())}"
            )
        self._open = self._open.copy()  # a handed-out mask stays as it was
        self._open[ids] = False
        self._open.flags.writeable = False
        positives = self.user.positives
        return np.array([1.0 if item in positives else 0.0 for item in items])


def run_episode(policy, environment, n: int, k: int) -> tuple[TrialRound, ...]:
    """Drive `policy` against `environment` for up to n rounds; the rounds in order.

    Candidate exhaustion ends the episode gracefully with the rounds finished
    so far; any other library error propagates annotated with the round it
    occurred in.  Deterministic given the policy and environment seeds.
    A handed-out mask never changes, so its count is made once per mask
    object: once per run in the simulated world.
    """
    rounds: list[TrialRound] = []
    counted = None
    for t in range(1, n + 1):
        try:
            cand = environment.candidates(t, k)
        except ExhaustedCandidatesError:
            break
        if cand is not counted:
            counted, num_candidates = cand, int(np.count_nonzero(cand))
        try:
            selection = policy.select(cand)
            rewards = environment.feedback(selection)
            policy.observe(selection, rewards)
        except DispersionBanditError as exc:
            prefix_message(exc, f"round {t}")
            raise
        rounds.append(
            TrialRound(
                num_candidates=num_candidates,
                items=selection.slate.items,
                rewards=tuple(rewards.tolist()),
                relevance_features=selection.relevance_features,
                diversity_features=selection.diversity_features,
                # copied: storing the select's own array measured 0.18 MB more
                # peak RSS on perfbench's sim-ratio, likely allocator fragmentation
                widths=None if selection.widths is None else selection.widths.copy(),
            )
        )
    return tuple(rounds)

