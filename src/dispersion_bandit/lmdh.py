"""Hybrid linear-UCB learner over joint relevance + diversity marginal features.

The learner regresses rewards w on the stacked feature zeta = [z; x] where z
is the item's relevance vector and x its diversity marginal against the
partial slate.  Rather than carrying the full (d+m)-dimensional design matrix
Phi = lam*I + sum zeta zeta^T, the statistics keep blockwise sums

    M = lam*I_m + sum x x^T        B = sum z x^T        y = sum w x

together with the z-side blocks already reduced by the Schur complement:

    H = lam*I_d + sum z z^T - B M^{-1} B^T
    u = sum w z - B M^{-1} y

Under this invariant theta_hat = H^{-1} u and beta_hat = M^{-1}(y - B^T
theta_hat) recover exactly the joint ridge solution Phi^{-1} b, and the
four-term confidence width computed below equals zeta^T Phi^{-1} zeta by the
block-inverse identity.  The payoff is that per-round work inverts only a
d x d and an m x m matrix instead of a (d+m) x (d+m) one, and slate selection
touches no inverse inside the per-item loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baselines import SlateSelection
from .catalog import ItemCatalog, Slate
from .errors import (
    DimensionMismatchError,
    InvalidFeedbackError,
    NumericalDegeneracyError,
    PreconditionError,
)
from .greedy import greedy_fill, metric_columns


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
    eta_norm_bound: float = 1.0
    gamma: float = 0.25

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
        if self.eta_norm_bound < 0:
            raise ValueError("eta_norm_bound must be non-negative")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma}")


def _pd_inverse(mat: np.ndarray, label: str) -> np.ndarray:
    try:
        inv = np.linalg.inv(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalDegeneracyError(f"{label} is singular") from exc
    if not np.all(np.isfinite(inv)):
        raise NumericalDegeneracyError(f"inverse of {label} is not finite")
    return (inv + inv.T) / 2.0


class HybridStatistics:
    """Mutable sufficient statistics (H, B, M, u, y) with cached inverses."""

    def __init__(self, d: int, m: int, lam: float):
        if d < 1 or m < 1:
            raise ValueError(f"d and m must be >= 1, got d={d}, m={m}")
        if lam <= 0:
            raise ValueError(f"lam must be positive, got {lam}")
        self.d = d
        self.m = m
        self.lam = float(lam)
        self.H = lam * np.eye(d)
        self.B = np.zeros((d, m))
        self.M = lam * np.eye(m)
        self.u = np.zeros(d)
        self.y = np.zeros(m)
        self.inv_H = np.eye(d) / lam
        self.inv_M = np.eye(m) / lam
        self.observation_count = 0
        self.clamp_count = 0  # negative width values clipped to zero

    def refresh_inverses(self) -> None:
        self.inv_H = _pd_inverse(self.H, "H")
        self.inv_M = _pd_inverse(self.M, "M")

    def copy(self) -> "HybridStatistics":
        dup = HybridStatistics(self.d, self.m, self.lam)
        for name in ("H", "B", "M", "u", "y", "inv_H", "inv_M"):
            setattr(dup, name, getattr(self, name).copy())
        dup.observation_count = self.observation_count
        dup.clamp_count = self.clamp_count
        return dup


def estimate_preferences(stats: HybridStatistics) -> tuple[np.ndarray, np.ndarray]:
    """Return (theta_hat, beta_hat); all-zero on fresh statistics."""
    theta = stats.inv_H @ stats.u
    beta = stats.inv_M @ (stats.y - stats.B.T @ theta)
    return theta, beta


def _check_feature_dims(z: np.ndarray, x: np.ndarray, stats: HybridStatistics) -> None:
    if z.shape[-1] != stats.d or x.shape[-1] != stats.m:
        raise DimensionMismatchError(
            f"features have dims ({z.shape[-1]}, {x.shape[-1]}), "
            f"statistics expect ({stats.d}, {stats.m})"
        )


def _z_terms(Z: np.ndarray, stats: HybridStatistics) -> tuple[np.ndarray, np.ndarray]:
    """HZ = Z H^{-1} and the row-wise width term z.H^{-1}z, fixed within a round."""
    HZ = Z @ stats.inv_H
    return HZ, np.einsum("ij,ij->i", HZ, Z)


def _raw_widths_batch(
    HZ: np.ndarray, term_zz: np.ndarray, X: np.ndarray, stats: HybridStatistics
) -> np.ndarray:
    """Row-wise widths given HZ = Z H^{-1} and term_zz = rowwise z.H^{-1}z.

    np.dot forms the same products as `@` (a test compares the bits) without
    matmul's overhead on the thin (L, m) operands.
    """
    MX = np.dot(X, stats.inv_M)  # (L, m)
    BMX = np.dot(MX, stats.B.T)  # (L, d)
    term_zx = np.einsum("ij,ij->i", HZ, BMX)
    term_xx = np.einsum("ij,ij->i", MX, X)
    term_bb = np.einsum("ij,ij->i", np.dot(BMX, stats.inv_H), BMX)
    return term_zz - 2.0 * term_zx + term_xx + term_bb


def confidence_width(
    z: np.ndarray, x: np.ndarray, stats: HybridStatistics
) -> float:
    """Variance term v = zeta^T Phi^{-1} zeta: the learner's batch path on one row."""
    z = np.asarray(z, dtype=np.float64).reshape(1, -1)
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    _check_feature_dims(z, x, stats)
    HZ, term_zz = _z_terms(z, stats)
    return max(float(_raw_widths_batch(HZ, term_zz, x, stats)[0]), 0.0)


def _check_config(config: LmdhConfig, catalog: ItemCatalog) -> None:
    if config.d != catalog.relevance_dim or config.m != catalog.diversity_dim:
        raise DimensionMismatchError(
            f"config dims ({config.d}, {config.m}) do not match catalog "
            f"({catalog.relevance_dim}, {catalog.diversity_dim})"
        )


def select_slate(
    stats: HybridStatistics,
    config: LmdhConfig,
    catalog: ItemCatalog,
    candidates,
) -> SlateSelection:
    """Greedy UCB slate: k `greedy_fill` passes, each re-scoring against the prefix.

    Candidates are validated once by `ItemCatalog.candidate_ids`.  Relevance
    features are fixed per item, so Z H^{-1}, its width term and Z theta_hat
    are computed once per call, O(L*d^2); each pass then recomputes only the
    terms that involve the diversity marginal x, which changes as the slate
    grows, O(L*(d^2 + d*m + m^2)).  Negative widths of candidates not yet
    taken are counted in `stats.clamp_count` and clipped to zero.  Ties take
    the smallest item id.  Both inverses are read from cache.

    `greedy_fill` records the accumulator row and the score at each pick, but
    not the width, so the score closure keeps each pass's clipped widths in
    `passes` and the width at each pick is read from them afterwards.
    """
    _check_config(config, catalog)
    cand = catalog.candidate_ids(candidates, config.k)

    theta, beta = estimate_preferences(stats)
    Z = catalog.relevance[cand]  # (L, d)
    HZ, term_zz = _z_terms(Z, stats)
    rel_scores = Z @ theta
    passes: list[np.ndarray] = []  # clipped widths of every pass

    def score(step: int, X: np.ndarray, taken: np.ndarray) -> np.ndarray:
        v = _raw_widths_batch(HZ, term_zz, X, stats)
        stats.clamp_count += int(np.count_nonzero(v[~taken] < 0.0))
        v = np.maximum(v, 0.0)
        passes.append(v)
        return rel_scores + np.dot(X, beta) + config.alpha * np.sqrt(v)

    picks, div_feats, scores = greedy_fill(
        np.zeros((cand.size, catalog.diversity_dim)),
        config.k,
        score,
        metric_columns(catalog, cand),
    )
    return SlateSelection(
        slate=Slate(tuple(cand[picks]), capacity=config.k),
        relevance_features=Z[picks],
        diversity_features=div_feats,
        widths=np.sqrt([v[pick] for v, pick in zip(passes, picks)]),
        scores=scores,
    )


def update(
    stats: HybridStatistics,
    slate: Slate,
    rewards: np.ndarray,
    features: SlateSelection | tuple[np.ndarray, np.ndarray],
) -> None:
    """Absorb one round of feedback, preserving the Schur-complement invariant.

    Phase one strips the old correction so H and u briefly hold the plain
    sums; phase two adds the new observations to the x-side blocks and
    refreshes M^{-1}; phase three re-applies the correction with the updated
    blocks and refreshes H^{-1}.  An empty slate is a no-op.
    """
    if isinstance(features, SlateSelection):
        Z, X = features.relevance_features, features.diversity_features
    else:
        Z, X = features
    Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    w = np.asarray(rewards, dtype=np.float64).ravel()

    if len(slate) == 0 and w.size == 0:
        return
    if not (len(slate) == w.size == Z.shape[0] == X.shape[0]):
        raise DimensionMismatchError(
            f"slate has {len(slate)} items but got {w.size} rewards, "
            f"{Z.shape[0]} relevance rows, {X.shape[0]} diversity rows"
        )
    _check_feature_dims(Z, X, stats)
    if np.any(w < 0.0) or np.any(w > 1.0) or not np.all(np.isfinite(w)):
        raise InvalidFeedbackError(f"rewards must lie in [0, 1], got {w}")

    stats.H += stats.B @ stats.inv_M @ stats.B.T
    stats.u += stats.B @ (stats.inv_M @ stats.y)

    stats.M += X.T @ X
    stats.B += Z.T @ X
    stats.y += X.T @ w
    stats.M = (stats.M + stats.M.T) / 2.0
    stats.inv_M = _pd_inverse(stats.M, "M")

    stats.H += Z.T @ Z - stats.B @ stats.inv_M @ stats.B.T
    stats.u += Z.T @ w - stats.B @ (stats.inv_M @ stats.y)
    stats.H = (stats.H + stats.H.T) / 2.0
    stats.inv_H = _pd_inverse(stats.H, "H")

    stats.observation_count += w.size


def theoretical_alpha(params: TheoryParams) -> float:
    """Confidence radius sqrt((d+m)log(1 + nK/((d+m)lam)) + 2log(1/delta)) + sqrt(lam)*S."""
    dm = params.d + params.m
    log_term = dm * math.log1p(params.n * params.k / (dm * params.lam))
    log_term += 2.0 * math.log(1.0 / params.delta)
    return math.sqrt(log_term) + math.sqrt(params.lam) * params.eta_norm_bound


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
    main = (2.0 * alpha * params.k / params.gamma) * math.sqrt(_width_sum_inner(params))
    return main + params.n * params.k * params.delta


class LmdhPolicy:
    """Policy wrapper: greedy UCB selection plus the two-phase update."""

    name = "lmdh"

    def __init__(self, config: LmdhConfig, catalog: ItemCatalog):
        _check_config(config, catalog)
        self.config = config
        self.catalog = catalog
        self.stats = HybridStatistics(config.d, config.m, config.lam)

    def select(self, candidates, round_index: int) -> SlateSelection:
        return select_slate(self.stats, self.config, self.catalog, candidates)

    def observe(self, selection: SlateSelection, rewards: np.ndarray) -> None:
        update(self.stats, selection.slate, rewards, selection)
