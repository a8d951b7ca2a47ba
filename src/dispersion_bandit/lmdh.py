"""Hybrid linear-UCB learner over joint relevance + diversity marginal features.

The learner regresses rewards w on zeta = [z; x]: the item's relevance
vector z and its diversity marginal x against the partial slate.  There is
one shared theta and one shared beta and no per-arm parameters, so the
statistics are the plain joint ridge sums A = lam*I + sum zeta zeta^T and
b = sum w zeta with A^{-1} cached: [theta_hat; beta_hat] = A^{-1} b and the
width is v = zeta^T A^{-1} zeta.  Hybrid LinUCB's Schur-complement split
(Li et al. 2010, Algorithm 2) exists to keep per-arm blocks apart, so it
buys nothing here; sums that are only ever added to do not drift from the
joint ridge solution.  Within one selection only x changes between passes,
so the width's z-only terms are computed once per selection (`_z_terms`).

The greedy passes score only the items whose score bound can still reach
a pick, with the slate unchanged bit for bit (`_score_bounds`).

Every fresh learner starts from A = lam*I, and a selection reads nothing of
the statistics but A^{-1} and b.  Learners given one memo store each
selection they make while b is zero under the exact bytes of A^{-1}, b and
the candidates, and a learner that meets the same bytes takes the stored
selection.  In a replay world every test user starts with every item open,
so users select alike until their first hit, and the memo computes each of
those selections once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baselines import SlateSelection, claim_memo
from .catalog import ItemCatalog, Slate
from .errors import (
    DimensionMismatchError,
    InvalidFeedbackError,
    NumericalDegeneracyError,
    PreconditionError,
)
from .greedy import GAMMA, greedy_fill, metric_columns

#: S, the bound on the true preference's norm that the confidence radius assumes.
ETA_NORM_BOUND = 1.0


@dataclass(frozen=True)
class LmdhConfig:
    """Run-time knobs for the learner."""

    lam: float
    alpha: float
    d: int
    m: int
    k: int

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {self.alpha}")
        for name in ("d", "m", "k"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class TheoryParams:
    """Inputs to the confidence-radius and regret-bound formulas."""

    n: int
    k: int
    d: int
    m: int
    lam: float
    delta: float

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")
        for name in ("k", "d", "m"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.lam <= 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")


def _pd_inverse(mat: np.ndarray, label: str) -> np.ndarray:
    try:
        np.linalg.cholesky(mat)  # raises unless positive definite
        inv = np.linalg.inv(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalDegeneracyError(f"{label} is not positive definite") from exc
    if not np.isfinite(inv).all():
        raise NumericalDegeneracyError(f"inverse of {label} is not finite")
    return (inv + inv.T) / 2.0


class HybridStatistics:
    """Joint sums A = lam*I + sum zeta zeta^T and b = sum w zeta; A^{-1} cached.

    `clamp_count` is the number of negative widths clipped to zero among the
    items that selections' passes scored: every candidate, or only the
    survivors when `select_slate` prunes.  It is a diagnostic no output reads.
    """

    def __init__(self, d: int, m: int, lam: float):
        if d < 1 or m < 1:
            raise ValueError(f"d and m must be >= 1, got d={d}, m={m}")
        if lam <= 0:
            raise ValueError(f"lam must be positive, got {lam}")
        self.d = d
        self.m = m
        self.A = lam * np.eye(d + m)
        self.b = np.zeros(d + m)
        self.inv_A = np.eye(d + m) / lam
        self.clamp_count = 0


def estimate_preferences(stats: HybridStatistics) -> tuple[np.ndarray, np.ndarray]:
    """Return (theta_hat, beta_hat) = A^{-1} b; all-zero on fresh statistics."""
    eta = stats.inv_A @ stats.b
    return eta[: stats.d], eta[stats.d :]


def _check_feature_dims(z: np.ndarray, x: np.ndarray, stats: HybridStatistics) -> None:
    if z.shape[-1] != stats.d or x.shape[-1] != stats.m:
        raise DimensionMismatchError(
            f"features have dims ({z.shape[-1]}, {x.shape[-1]}), "
            f"statistics expect ({stats.d}, {stats.m})"
        )


def _z_terms(Z: np.ndarray, stats: HybridStatistics) -> tuple[np.ndarray, np.ndarray]:
    """Width terms fixed within a round: row-wise z.P_zz z and 2 Z P_zx, P = A^{-1}."""
    d = stats.d
    term_zz = np.einsum("ij,ij->i", Z @ stats.inv_A[:d, :d], Z)
    return term_zz, 2.0 * (Z @ stats.inv_A[:d, d:])


def _raw_widths_batch(
    term_zz: np.ndarray, zx2: np.ndarray, X: np.ndarray, stats: HybridStatistics
) -> np.ndarray:
    """Row-wise v = z.P_zz z + 2 z.P_zx x + x.P_xx x with P = A^{-1}.

    Given `_z_terms`' first two terms this costs O(L*m^2): the x terms are
    elementwise products, made in place, whose m diversity columns are added
    one at a time, which at m = 1 has the bits of a row-wise `einsum` at a
    fraction of its per-call cost.
    """
    quad = np.dot(X, stats.inv_A[stats.d :, stats.d :])  # np.dot: no matmul overhead
    quad *= X
    cross = zx2 * X
    v = term_zz + cross[:, 0]
    for i in range(1, X.shape[1]):
        v += cross[:, i]
    for i in range(X.shape[1]):
        v += quad[:, i]
    return v


def confidence_width(
    z: np.ndarray, x: np.ndarray, stats: HybridStatistics
) -> float:
    """Variance term v = zeta^T A^{-1} zeta: the learner's batch path on one row."""
    z = np.asarray(z, dtype=np.float64).reshape(1, -1)
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    _check_feature_dims(z, x, stats)
    term_zz, zx2 = _z_terms(z, stats)
    return max(float(_raw_widths_batch(term_zz, zx2, x, stats)[0]), 0.0)


def _check_config(config: LmdhConfig, catalog: ItemCatalog) -> None:
    if config.d != catalog.relevance_dim or config.m != catalog.diversity_dim:
        raise DimensionMismatchError(
            f"config dims ({config.d}, {config.m}) do not match catalog "
            f"({catalog.relevance_dim}, {catalog.diversity_dim})"
        )


def _score_bounds(stats, config, catalog, rel_scores, term_zz, zx2, beta):
    """(U, floor, slack): U_i bounds item i's UCB score in every pass, within slack.

    Within one selection an item's diversity marginal x only grows, from 0
    to at most x_max = (k-1) * max h.  With m = 1 the width
    v(x) = z.P_zz z + 2 z.P_zx x + P_xx x^2 (P = A^{-1}) is convex in x when
    P_xx >= 0, so it peaks at 0 or at x_max, and so does beta_hat * x:
    U_i = rel_i + max(beta_hat * x_max, 0) + alpha * sqrt(max(v_i(0), v_i(x_max), 0)).
    No A^{-1} block but P_xx needs to be positive semi-definite, and alpha may
    be 0.  `floor` is the k-th largest score of the first pass, where x = 0.

    A score and U each pass through at most k + 12 rounded operations on
    the same z terms, so each is within gamma = 2 (k + 12) eps of its exact
    value, relative to the largest sizes of its terms; a square root
    stretches an absolute error e of v to at most sqrt(e).  `slack` adds
    both sides' errors.

    The first pass's k best always survive, and `select_slate` widens a set
    that fails four times and scores whole any set of a quarter of the
    candidates or more; so with at most 16k candidates a failing first set
    costs a second run over every candidate, and no bound is computed
    there.  Nor is one at m > 1, when P_xx < 0, or when a term is not
    finite.  The passes over the survivors read their columns alone, which
    holds the slate's bits because a metric's entry has one value whatever
    ids it is read with.
    """
    if stats.m != 1 or rel_scores.size <= 16 * config.k:
        return None
    p_xx = float(stats.inv_A[-1, -1])
    if not p_xx >= 0.0:
        return None
    x_max = (config.k - 1) * catalog.metrics[0].max_distance
    beta_x = float(beta[0]) * x_max
    quad = p_xx * x_max * x_max
    gamma = 2 * (config.k + 12) * np.finfo(np.float64).eps
    v_size = float(np.abs(term_zz).max() + np.abs(zx2).max() * x_max) + quad
    score_size = float(np.abs(rel_scores).max()) + abs(beta_x)
    score_size += config.alpha * math.sqrt(v_size)
    slack = gamma * score_size + 2.0 * config.alpha * math.sqrt(gamma * v_size)
    if not math.isfinite(slack):  # then neither is some term of U
        return None

    first = np.maximum(term_zz, 0.0)
    bound = zx2[:, 0] * x_max
    bound += quad
    bound += term_zz
    np.maximum(bound, first, out=bound)
    np.sqrt(bound, out=bound)
    bound *= config.alpha
    bound += rel_scores
    bound += max(beta_x, 0.0)
    np.sqrt(first, out=first)
    first *= config.alpha
    first += rel_scores
    floor = np.partition(first, first.size - config.k)[first.size - config.k]
    return bound, floor, slack


def select_slate(
    stats: HybridStatistics,
    config: LmdhConfig,
    catalog: ItemCatalog,
    candidates,
) -> SlateSelection:
    """Greedy UCB slate: k `greedy_fill` passes, each re-scoring against the prefix.

    Candidates are validated once by `ItemCatalog.candidate_ids`; the whole
    catalog's relevance rows Z are read in place, a subset's gathered once
    with `np.take`.  They are fixed per item, so the z-only width terms and
    Z theta_hat are computed once per call, O(L*d*(d+m)); each pass then
    recomputes only the terms that involve the diversity marginal x, which
    changes as the slate grows, O(L*m^2).  Ties take the smallest item id.
    A^{-1} is read from cache.

    The passes score only the survivors, the candidates whose bound
    (`_score_bounds`) reaches the first pass's k-th best score, kept in id
    order.  The slate stands when every pick's score beats the largest bound
    left out by the slack; otherwise the passes run again over the four
    times as many candidates with the largest bounds.  Survivors that make
    up a quarter of the candidates or more become every candidate.  Negative
    widths of the scored items not yet taken are counted in
    `stats.clamp_count` and clipped to zero; a run that does not stand takes
    its count back, so the count depends on which items were scored.

    `greedy_fill` records the accumulator row and the score at each pick, but
    not the width, so the score closure keeps each pass's square-rooted
    widths in `passes` and the width at each pick is read from them
    afterwards.  Each pass works in place on arrays it made itself.
    """
    _check_config(config, catalog)
    cand = catalog.candidate_ids(candidates, config.k)

    theta, beta = estimate_preferences(stats)
    Z = catalog.relevance
    if cand.size < catalog.item_count:
        Z = np.take(Z, cand, axis=0)  # the rows of Z[cand], a fraction of its cost
    term_zz, zx2 = _z_terms(Z, stats)
    rel_scores = Z @ theta

    def run_passes(rows):
        """Picks (positions in cand), features, widths and scores over cand[rows]."""
        if rows is None:
            ids, rel, tzz, zx = cand, rel_scores, term_zz, zx2
        else:
            ids, rel, tzz, zx = cand[rows], rel_scores[rows], term_zz[rows], zx2[rows]
        passes: list[np.ndarray] = []  # sqrt of the clipped widths of every pass

        def score(step: int, X: np.ndarray, taken: np.ndarray) -> np.ndarray:
            v = _raw_widths_batch(tzz, zx, X, stats)
            if (v < 0.0).any():
                stats.clamp_count += int(np.count_nonzero(v[~taken] < 0.0))
                np.maximum(v, 0.0, out=v)
            np.sqrt(v, out=v)
            passes.append(v)
            scores = np.dot(X, beta)
            scores += rel
            scores += config.alpha * v
            return scores

        picks, div_feats, pick_scores = greedy_fill(
            np.zeros((rel.size, catalog.diversity_dim)),
            config.k,
            score,
            metric_columns(catalog, ids),
        )
        widths = np.array([root[pick] for root, pick in zip(passes, picks)])
        return (picks if rows is None else rows[picks]), div_feats, widths, pick_scores

    bounds = _score_bounds(stats, config, catalog, rel_scores, term_zz, zx2, beta)
    rows = None
    if bounds is not None:
        bound, floor, slack = bounds
        rows = np.flatnonzero(bound >= floor)
    clamps = stats.clamp_count
    while True:
        if rows is not None and 4 * rows.size >= cand.size:
            rows = None
        picks, div_feats, widths, pick_scores = run_passes(rows)
        if rows is None:
            break
        lowest = pick_scores.min() - slack  # a NaN pick score fails both tests
        if lowest >= floor or lowest > bound[bound < floor].max():
            break
        stats.clamp_count = clamps
        wider = cand.size - 4 * rows.size
        floor = np.partition(bound, wider)[wider]  # the 4 |rows|-th largest bound
        rows = np.flatnonzero(bound >= floor)
    return SlateSelection(
        slate=Slate(tuple(cand[picks].tolist())),
        relevance_features=Z[picks],
        diversity_features=div_feats,
        widths=widths,
    )


def update(
    stats: HybridStatistics, selection: SlateSelection, rewards: np.ndarray
) -> None:
    """Absorb one round of feedback: A += zeta^T zeta, b += zeta^T w, refresh A^{-1}.

    zeta's rows are the features `select_slate` logged in `selection`, float64
    (k, d) and (k, m) arrays.  An empty slate is a no-op.
    """
    slate = selection.slate
    Z, X = selection.relevance_features, selection.diversity_features
    w = np.asarray(rewards, dtype=np.float64).ravel()

    if len(slate) == 0 and w.size == 0:
        return
    if not (len(slate) == w.size == Z.shape[0] == X.shape[0]):
        raise DimensionMismatchError(
            f"slate has {len(slate)} items but got {w.size} rewards, "
            f"{Z.shape[0]} relevance rows, {X.shape[0]} diversity rows"
        )
    _check_feature_dims(Z, X, stats)
    if not all(0.0 <= r <= 1.0 for r in w.tolist()):  # NaN fails
        raise InvalidFeedbackError(f"rewards must lie in [0, 1], got {w}")

    zeta = np.concatenate([Z, X], axis=1)
    stats.A += zeta.T @ zeta
    stats.b += zeta.T @ w
    stats.inv_A = _pd_inverse(stats.A, "A")


def theoretical_alpha(params: TheoryParams) -> float:
    """Confidence radius sqrt((d+m)log(1 + nK/((d+m)lam)) + 2log(1/delta)) + sqrt(lam)*S.

    S is `ETA_NORM_BOUND`.
    """
    dm = params.d + params.m
    log_term = dm * math.log1p(params.n * params.k / (dm * params.lam))
    log_term += 2.0 * math.log(1.0 / params.delta)
    return math.sqrt(log_term) + math.sqrt(params.lam) * ETA_NORM_BOUND


def _width_sum_inner(params: TheoryParams) -> float:
    """n(d+m) log(1 + nK/((d+m)lam)) / (lam log(1 + 1/lam)): the squared width sum per slot."""
    dm = params.d + params.m
    return (
        params.n
        * dm
        * math.log1p(params.n * params.k / (dm * params.lam))
        / (params.lam * math.log1p(1.0 / params.lam))
    )


def lemma1_width_budget(params: TheoryParams) -> float:
    """Upper bound on the summed selection widths over the whole horizon."""
    if params.n == 0:
        return 0.0
    return params.k * math.sqrt(_width_sum_inner(params))


def regret_upper_bound(params: TheoryParams, alpha: float) -> float:
    """High-probability cumulative regret bound; requires alpha at the theory level."""
    threshold = theoretical_alpha(params)
    if alpha < threshold - 1e-9:
        raise PreconditionError(
            f"alpha={alpha} is below the theoretical radius {threshold}"
        )
    if params.n == 0:
        return 0.0
    main = (2.0 * alpha * params.k / GAMMA) * math.sqrt(_width_sum_inner(params))
    return main + params.n * params.k * params.delta


def read_only(selection: SlateSelection) -> SlateSelection:
    """`selection`, its arrays made read-only so that any number of callers can share it."""
    for array in (
        selection.relevance_features, selection.diversity_features, selection.widths
    ):
        array.flags.writeable = False
    return selection


class LmdhPolicy:
    """Policy wrapper: greedy UCB selection plus the joint ridge update.

    With a `memo`, a selection made while b is zero is looked up under the
    bytes of A^{-1}, b and the candidates; one that is not there yet is
    computed by `select_slate` and stored with the width clamps it counted,
    which a later hit adds to its own `stats.clamp_count`.  The memo serves
    one config and catalog.
    """

    name = "lmdh"

    def __init__(
        self, config: LmdhConfig, catalog: ItemCatalog, memo: dict | None = None
    ):
        _check_config(config, catalog)
        self.config = config
        self.catalog = catalog
        self.stats = HybridStatistics(config.d, config.m, config.lam)
        self._memo = None if memo is None else claim_memo(memo, catalog, config)

    def select(self, candidates) -> SlateSelection:
        stats = self.stats
        if self._memo is None or stats.b.any():
            return select_slate(stats, self.config, self.catalog, candidates)
        cand = self.catalog.candidate_ids(candidates, self.config.k)
        key = stats.inv_A.tobytes() + stats.b.tobytes() + cand.tobytes()
        entry = self._memo.get(key)
        if entry is None:
            clamps = stats.clamp_count
            selection = read_only(select_slate(stats, self.config, self.catalog, cand))
            entry = self._memo[key] = (selection, stats.clamp_count - clamps)
        else:
            stats.clamp_count += entry[1]
        return entry[0]

    def observe(self, selection: SlateSelection, rewards: np.ndarray) -> None:
        update(self.stats, selection, rewards)
