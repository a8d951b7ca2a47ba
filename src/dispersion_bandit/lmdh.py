"""Hybrid linear-UCB learner over joint relevance + diversity marginal features.

The learner regresses rewards w on zeta = [z; x]: the item's relevance
vector z and its diversity marginal x against the partial slate.  There is
one shared theta and one shared beta and no per-arm parameters, so the
statistics are the plain joint ridge sums A = lam*I + sum zeta zeta^T and
b = sum w zeta, with the inverse Cholesky factor W = L^{-1} (A = L L^T)
cached: [theta_hat; beta_hat] = W^T (W b) and the width is
v = zeta^T A^{-1} zeta = |W zeta|^2, a sum of squares that cannot be
negative.  Hybrid LinUCB's Schur-complement split (Li et al. 2010,
Algorithm 2) exists to keep per-arm blocks apart, so it buys nothing here;
sums that are only ever added to do not drift from the joint ridge solution.
Within one selection only x changes between passes, so the width's z-only
terms are computed once per selection (`_z_terms`).

At m = 1, the only m a command runs, the greedy passes keep x in a 1-D
accumulator, as MMR's do, and score only the items whose score bound can
still reach a pick; they run once more over every candidate when an item
left out might have won, so the slate is unchanged bit for bit
(`_score_bounds`).

Every fresh learner starts from A = lam*I, and a selection reads nothing of
the statistics but W and b.  The learners of one config on one catalog
share a memo, `catalog.selections[config]`: each selection they make while
b is zero is stored under the exact bytes of W, b and the candidates, and a
learner that meets the same bytes takes it.  In a replay world every test
user starts with every item open, so users select alike until their first
hit, and the memo computes each of those selections once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .baselines import SlateSelection
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


class HybridStatistics:
    """Joint sums A = lam*I + sum zeta zeta^T and b = sum w zeta; W = L^{-1} cached.

    W is the inverse of A's lower Cholesky factor L, so A^{-1} = W^T W.  The
    widths read only W's blocks on and below the diagonal (`_z_terms` and
    `_raw_widths_batch`), so they are sums of squares whatever W holds.
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
        self.W = np.eye(d + m) / math.sqrt(lam)
        # widths are sums of squares and are never clipped; the count stays 0
        # because the benchmark harness still adds it up
        self.clamp_count = 0


def estimate_preferences(stats: HybridStatistics) -> tuple[np.ndarray, np.ndarray]:
    """Return (theta_hat, beta_hat) = W^T (W b) = A^{-1} b; all-zero on fresh statistics."""
    eta = stats.W.T @ (stats.W @ stats.b)
    return eta[: stats.d], eta[stats.d :]


def _check_dims(what: str, dims: tuple[int, int], expected: tuple[int, int]) -> None:
    """Raise unless `dims`, a (d, m) pair, equals `expected`; `what` names both sides."""
    if dims != expected:
        raise DimensionMismatchError(f"{what} dims differ: {dims} vs {expected}")


def _z_terms(Z: np.ndarray, stats: HybridStatistics) -> tuple[np.ndarray, np.ndarray]:
    """Width terms fixed within a round, from one product of Z with W's first d
    columns: row-wise |W_zz z|^2, and the (L, m) rows W_xz z."""
    d = stats.d
    zw = Z @ np.ascontiguousarray(stats.W[:, :d].T)
    return np.einsum("ij,ij->i", zw[:, :d], zw[:, :d]), zw[:, d:]


def _raw_widths_batch(
    term_zz: np.ndarray, term_xz: np.ndarray, X: np.ndarray, w_xx_t: np.ndarray
) -> np.ndarray:
    """Row-wise v = |W_zz z|^2 + |W_xz z + W_xx x|^2, before its square root.

    Given `_z_terms`' two terms and `w_xx_t` = W_xx^T, `W[d:, d:].T`, this
    costs O(L*m^2): the m entries of W_xz z + W_xx x are made in place,
    squared, and added to the z term one at a time.
    """
    r = np.dot(X, w_xx_t)  # np.dot: no matmul overhead
    r += term_xz
    r *= r
    v = term_zz + r[:, 0]
    for i in range(1, X.shape[1]):
        v += r[:, i]
    return v


def _score_bounds(stats, config, catalog, rel_scores, term_zz, term_xz, beta):
    """(U, floor, slack): U_i bounds item i's UCB score in every pass, within slack.

    Within one selection an item's diversity marginal x only grows, from 0
    to at most x_max = (k-1) * max h.  With m = 1 the width
    v(x) = |W_zz z|^2 + (c + w x)^2, with c = W_xz z and w = W_xx, is convex
    in x for every W, so it peaks at 0 or at x_max, and so does beta_hat * x:
    U_i = rel_i + max(beta_hat * x_max, 0) + alpha * sqrt(max(v_i(0), v_i(x_max))).
    `floor` is the k-th largest score of the first pass, where x = 0.
    Closed items have rel_i = U_i = -inf and count in no size of rel_i.  The
    sizes of |W_zz z|^2 and c are taken over every item, open or closed: a
    superset only raises them, which widens the slack, and plain maxima cost
    less than masked ones.

    The bound rests on the rounding of both sides, which share the floats
    |W_zz z|^2, c, w, beta_hat and x_max.  A pass's x sums at most k - 1
    distances, so it exceeds x_max by at most k ulps of it; either side then
    forms v in four rounded operations (w x, + c, the square, + |W_zz z|^2)
    and the score in four more.  So each v is within gamma = 2 (k + 12) eps
    of its exact value relative to v_size = max |W_zz z|^2 + (max |c| +
    |w| x_max)^2, and each score relative to the largest sizes of its terms;
    a square root stretches an absolute error e of v to at most sqrt(e).
    `slack` adds both sides' errors.

    The first pass's k best always survive.  None is returned when a term
    is not finite.  The passes over the survivors read their columns alone,
    which holds the slate's bits because a metric's entry has one value
    whatever ids it is read with.
    """
    open_ = rel_scores != -np.inf  # a NaN stays in: slack is NaN
    w = float(stats.W[-1, -1])
    c = term_xz[:, 0]
    x_max = (config.k - 1) * catalog.metrics[0].max_distance
    beta_x = float(beta[0]) * x_max
    gamma = 2 * (config.k + 12) * np.finfo(np.float64).eps
    v_size = float(term_zz.max() + (np.abs(c).max() + abs(w) * x_max) ** 2)
    score_size = float(np.abs(rel_scores).max(where=open_, initial=0.0)) + abs(beta_x)
    score_size += config.alpha * math.sqrt(v_size)
    slack = gamma * score_size + 2.0 * config.alpha * math.sqrt(gamma * v_size)
    if not math.isfinite(slack):  # then neither is some term of U
        return None

    first = c * c
    first += term_zz
    bound = c + w * x_max
    bound *= bound
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

    Candidates become the open mask (`ItemCatalog.open_mask`); closed items
    score -inf.  Z theta_hat and the z-only width terms are computed once per
    call, O(L*d*(d+m)); each pass recomputes only the terms of the diversity
    marginal x.  Ties take the smallest id.

    At m = 1 a pass scores x beta_hat + rel + alpha sqrt((x w + c)^2 +
    |W_zz z|^2), w = W_xx and c = W_xz z, over 1-D arrays: each product is
    one rounding, as in an (L, 1) `np.dot`.  The widths at the picks are the
    same function of the x that `greedy_fill` records.  With more than 16k
    candidates the passes score only those whose bound (`_score_bounds`)
    reaches the first pass's k-th best score, unless they are a quarter of
    the candidates or more, and run again over every candidate unless each
    pick's score beats the largest bound left out by the slack.  At m > 1
    each pass takes `_raw_widths_batch`'s (L, m) products over every
    candidate and keeps its widths for the picks'.
    """
    catalog_dims = (catalog.relevance_dim, catalog.diversity_dim)
    _check_dims("statistics and catalog", (stats.d, stats.m), catalog_dims)
    k, alpha = config.k, config.alpha
    mask = catalog.open_mask(candidates, k)
    n_open = np.count_nonzero(mask)

    theta, beta = estimate_preferences(stats)
    Z = catalog.relevance
    term_zz, term_xz = _z_terms(Z, stats)
    rel_scores = Z @ theta
    if n_open < mask.size:
        rel_scores[~mask] = -np.inf

    if stats.m > 1:
        w_xx_t, roots = stats.W[stats.d :, stats.d :].T, []

        def score(step: int, X: np.ndarray) -> np.ndarray:
            v = np.sqrt(_raw_widths_batch(term_zz, term_xz, X, w_xx_t))
            roots.append(v)
            return rel_scores + np.dot(X, beta) + alpha * v

        acc = np.zeros((mask.size, stats.m))
        picks, x, _ = greedy_fill(acc, k, score, metric_columns(catalog))
        widths = np.array([v[pick] for v, pick in zip(roots, picks)])
        return _shared_selection(catalog, picks, x, widths)

    w, b, metric = float(stats.W[-1, -1]), float(beta[0]), catalog.metrics[0]
    c_all = term_xz[:, 0]

    def root_width(x, c, zz):
        v = x * w
        v += c
        v *= v
        v += zz
        return np.sqrt(v, out=v)

    def score(step: int, x: np.ndarray) -> np.ndarray:
        v = root_width(x, c, tzz)
        v *= alpha
        scores = x * b
        scores += rel
        scores += v
        return scores

    def add(x: np.ndarray, pick: int) -> None:
        x += metric.column(pick if rows is None else int(rows[pick]), rows)

    # score and add read rows, rel, tzz and c as they stand at each call
    rows, rel, tzz, c = None, rel_scores, term_zz, c_all
    if n_open > 16 * k:
        bounds = _score_bounds(stats, config, catalog, rel, tzz, term_xz, beta)
        if bounds is not None:
            bound, floor, slack = bounds
            rows = np.flatnonzero(bound >= floor)
            if 4 * rows.size >= n_open:
                rows = None
            else:
                rel, tzz, c = rel[rows], tzz[rows], c[rows]
    picks, x, pick_scores = greedy_fill(np.zeros(rel.size), k, score, add)
    if rows is not None:
        lowest = pick_scores.min() - slack  # a NaN pick score fails both tests
        if lowest >= floor or lowest > bound[bound < floor].max():
            picks = rows[picks]
        else:
            rows, rel, tzz, c = None, rel_scores, term_zz, c_all
            picks, x, _ = greedy_fill(np.zeros(rel.size), k, score, add)
    widths = root_width(x, c_all[picks], term_zz[picks])
    return _shared_selection(catalog, picks, x[:, None], widths)


def _shared_selection(catalog, picks, x, widths) -> SlateSelection:
    """The picks' selection, with the `Slate` and read-only z and x blocks of
    `catalog.slate_records`: a metric's entry has one value whatever ids it
    is read with and x adds the same columns in the same order, so a stored
    record has the bits that this select made."""
    items = tuple(picks.tolist())
    record = catalog.slate_records.get(items)
    if record is None:
        z = catalog.relevance[picks]
        z.flags.writeable = x.flags.writeable = False
        record = catalog.slate_records[items] = Slate(items), z, x
    return SlateSelection(*record, widths)


def _inverse_factor(A: np.ndarray) -> np.ndarray:
    """W = L^{-1}, A = L L^T, for A or each (n, n) matrix of an (..., n, n) stack.

    It calls the LAPACK gufuncs that `np.linalg.cholesky` and `np.linalg.inv`
    call, so W has their bits, without their per-call Python checks.  A
    failed factorisation sets the invalid flag, which raises here.
    """
    n = A.shape[-1]
    try:
        with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
            L = _umath_linalg.cholesky_lo(A, signature="d->d")
            W = _umath_linalg.inv(L, signature="d->d")
    except FloatingPointError as exc:
        raise NumericalDegeneracyError(f"A is not positive definite ({n} x {n})") from exc
    if not np.isfinite(W).all():
        raise NumericalDegeneracyError(
            f"the inverse of A's Cholesky factor is not finite ({n} x {n})"
        )
    return W


def update(
    stats: HybridStatistics, selection: SlateSelection, rewards: np.ndarray
) -> None:
    """Absorb one round of feedback: A += zeta^T zeta, b += zeta^T w, refresh W.

    zeta's rows are the features `select_slate` logged in `selection`, float64
    (k, d) and (k, m) arrays.  An empty slate is a no-op.  W is the inverse
    of A's Cholesky factor, whose failure is the test that A is positive
    definite; `_inverse_factor` computes it.
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
    _check_dims(
        "features and statistics", (Z.shape[-1], X.shape[-1]), (stats.d, stats.m)
    )
    if not all(0.0 <= r <= 1.0 for r in w.tolist()):  # NaN fails
        raise InvalidFeedbackError(f"rewards must lie in [0, 1], got {w}")

    zeta = np.concatenate([Z, X], axis=1)
    stats.A += zeta.T @ zeta
    stats.b += zeta.T @ w
    stats.W = _inverse_factor(stats.A)


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
    return params.k * math.sqrt(_width_sum_inner(params))


def regret_upper_bound(params: TheoryParams, alpha: float) -> float:
    """High-probability cumulative regret bound; requires alpha at the theory level."""
    threshold = theoretical_alpha(params)
    if alpha < threshold - 1e-9:
        raise PreconditionError(
            f"alpha={alpha} is below the theoretical radius {threshold}"
        )
    main = (2.0 * alpha * params.k / GAMMA) * math.sqrt(_width_sum_inner(params))
    return main + params.n * params.k * params.delta


class LmdhPolicy:
    """Policy wrapper: greedy UCB selection plus the joint ridge update.

    A selection made while b is zero is looked up in the catalog's memo for
    this config under the bytes of W, b and the candidates; one that is not
    there yet is computed by `select_slate` and stored.
    """

    name = "lmdh"

    def __init__(self, config: LmdhConfig, catalog: ItemCatalog):
        catalog_dims = (catalog.relevance_dim, catalog.diversity_dim)
        _check_dims("config and catalog", (config.d, config.m), catalog_dims)
        self.config = config
        self.catalog = catalog
        self.stats = HybridStatistics(config.d, config.m, config.lam)
        self._memo = catalog.selections.setdefault(config, {})

    def select(self, candidates) -> SlateSelection:
        stats = self.stats
        if stats.b.any():
            return select_slate(stats, self.config, self.catalog, candidates)
        mask = self.catalog.open_mask(candidates, self.config.k)
        key = stats.W.tobytes() + stats.b.tobytes() + np.packbits(mask).tobytes()
        selection = self._memo.get(key)
        if selection is None:
            selection = select_slate(stats, self.config, self.catalog, mask)
            # read-only, so that any number of callers can share it
            selection.widths.flags.writeable = False
            self._memo[key] = selection
        return selection

    def observe(self, selection: SlateSelection, rewards: np.ndarray) -> None:
        update(self.stats, selection, rewards)
