"""Reference implementations the tests compare the program against.

`select_slate_oracle` is LMDH's greedy UCB selection as a plain per-pass
loop over every candidate: no shared pass kernel and no pruning.  Its widths
come from `widths_oracle`, written apart from the program's kernel but in
the order the kernel documents, so the two agree bit for bit.
`raw_widths_oracle` solves each width afresh against A instead.
`trained_stats` gives statistics trained on its whole slates, so the logged
diversity marginals are non-zero and every block of A^{-1} is dense.
`JointRidgeOracle` solves the full ridge system for every query, and
`UnsharedLmdhPolicy` is the learner with no memo.

MMR has two oracles: `mmr_oracle` restates the rule one python float at a
time, and `mmr_select_oracle` is the pass loop that `greedy_fill` replaced,
whose slates must match bit for bit.  `slate_features_oracle` is
`slate_features` as it stood before its lean kernel.
"""

import math

import numpy as np

from dispersion_bandit import lmdh
from dispersion_bandit.catalog import Slate
from dispersion_bandit.lmdh import (
    HybridStatistics,
    LmdhConfig,
    _z_terms,
    estimate_preferences,
    update,
)

from conftest import logged


def widths_oracle(term_zz, zx2, X, stats):
    """v = z.P_zz z, plus each cross term 2 z.P_zx[:, i] x_i, plus each
    quadratic term (x P_xx)_i x_i, added in that order; P = A^{-1}."""
    quad = np.dot(X, stats.inv_A[stats.d :, stats.d :]) * X
    cross = zx2 * X
    v = term_zz
    for i in range(X.shape[1]):
        v = v + cross[:, i]
    for i in range(X.shape[1]):
        v = v + quad[:, i]
    return v


def select_slate_oracle(
    stats, config, catalog, candidates, widths=widths_oracle, passes=None
):
    """(items, relevance features, diversity features, widths, UCB index at each pick).

    Every pass scores every candidate with `widths(term_zz, zx2, X, stats)`,
    counts the negative widths of the candidates not yet taken in
    `stats.clamp_count` and clips them, and takes the first maximum.  A
    `passes` list receives each pass's scores of every candidate, the taken
    ones as -inf.
    """
    cand = catalog.candidate_ids(candidates, config.k)
    theta, beta = estimate_preferences(stats)
    Z = catalog.relevance[cand]
    term_zz, zx2 = _z_terms(Z, stats)
    rel_scores = Z @ theta
    X = np.zeros((cand.size, catalog.diversity_dim))
    taken = np.zeros(cand.size, dtype=bool)
    chosen = []
    rel_feats = np.zeros((config.k, config.d))
    div_feats = np.zeros((config.k, config.m))
    roots = np.zeros(config.k)
    scores_taken = np.zeros(config.k)
    for step in range(config.k):
        v = widths(term_zz, zx2, X, stats)
        stats.clamp_count += int(np.count_nonzero(v[~taken] < 0.0))
        v = np.maximum(v, 0.0)
        scores = rel_scores + np.dot(X, beta) + config.alpha * np.sqrt(v)
        scores[taken] = -np.inf
        if passes is not None:
            passes.append(scores.copy())
        pick = int(np.argmax(scores))
        taken[pick] = True
        item = int(cand[pick])
        chosen.append(item)
        rel_feats[step] = Z[pick]
        div_feats[step] = X[pick]
        roots[step] = math.sqrt(v[pick])
        scores_taken[step] = scores[pick]
        if step + 1 < config.k:
            for i, metric in enumerate(catalog.metrics):
                X[:, i] += metric.column(item, cand)
    return tuple(chosen), rel_feats, div_feats, roots, scores_taken


def trained_stats(rng, catalog, k, rounds=4, lam=1.0):
    """Statistics after `rounds` oracle selections of k-item slates over the
    whole catalog, each with random 0/1 rewards."""
    d, m = catalog.relevance_dim, catalog.diversity_dim
    stats = HybridStatistics(d, m, lam=lam)
    config = LmdhConfig(lam=lam, alpha=1.0, d=d, m=m, k=k)
    for _ in range(rounds):
        chosen, z, x, _, _ = select_slate_oracle(
            stats, config, catalog, catalog.all_items()
        )
        w = rng.integers(0, 2, k).astype(float)
        update(stats, logged(z, x, Slate(chosen)), w)
    return stats


def raw_widths_oracle(Z, X, stats):
    """Per-pass widths zeta^T A^{-1} zeta, each row solved afresh against A."""
    zeta = np.hstack([Z, X])
    return np.einsum("ij,ji->i", zeta, np.linalg.solve(stats.A, zeta.T))


class JointRidgeOracle:
    """Plain (d+m)-dimensional ridge accumulator: Phi = lam*I + sum zeta zeta^T."""

    def __init__(self, d, m, lam):
        self.d, self.m = d, m
        self.phi = lam * np.eye(d + m)
        self.b = np.zeros(d + m)

    def add(self, z, x, w):
        zeta = np.concatenate([z, x])
        self.phi += np.outer(zeta, zeta)
        self.b += w * zeta

    def eta_hat(self):
        eta = np.linalg.solve(self.phi, self.b)
        return eta[: self.d], eta[self.d :]

    def width(self, z, x):
        zeta = np.concatenate([z, x])
        return float(zeta @ np.linalg.solve(self.phi, zeta))


class UnsharedLmdhPolicy:
    """LMDH without a memo: `select_slate` and `update` on statistics of its own.

    The reference that every policy sharing a memo must match bit for bit.
    """

    name = "lmdh"

    def __init__(self, config, catalog):
        self.config, self.catalog = config, catalog
        self.stats = lmdh.HybridStatistics(config.d, config.m, config.lam)

    def select(self, candidates):
        return lmdh.select_slate(self.stats, self.config, self.catalog, candidates)

    def observe(self, selection, rewards):
        lmdh.update(self.stats, selection, rewards)


def mmr_oracle(scorer, catalog, candidates, k, alpha):
    """Direct restatement of the MMR rule, one python float at a time."""
    norms = np.linalg.norm(catalog.relevance, axis=1)
    unit = catalog.relevance / np.where(norms == 0, 1.0, norms)[:, None]
    remaining = sorted(int(c) for c in candidates)
    picked = []
    for _ in range(k):
        best, best_score = None, None
        for a in remaining:
            score = alpha * float(scorer.quality[a])
            if picked:
                penalty = sum(float(unit[a] @ unit[j]) for j in picked)
                score -= (1.0 - alpha) / len(picked) * penalty
            if best_score is None or score > best_score + 1e-15:
                best, best_score = a, score
        picked.append(best)
        remaining.remove(best)
    return tuple(picked)


def mmr_select_oracle(scorer, catalog, candidates, k, mmr_alpha):
    """MMR's own pass loop, as it stood before `greedy_fill`."""
    cand = catalog.candidate_ids(candidates, k)
    quality = scorer.quality[cand]
    unit = scorer._unit[cand]
    sim_sum = np.zeros(cand.size)
    taken = np.zeros(cand.size, dtype=bool)
    chosen = []
    for step in range(k):
        scores = mmr_alpha * quality
        if step > 0:
            scores = scores - (1.0 - mmr_alpha) / step * sim_sum
        scores[taken] = -np.inf
        pick = int(np.argmax(scores))
        taken[pick] = True
        item = int(cand[pick])
        chosen.append(item)
        sim_sum += unit @ scorer._unit[item]
    return tuple(chosen)


def slate_features_oracle(slate, catalog):
    """Per-position (z, x), the ids range-checked through numpy and each x
    entry one column sum."""
    ids = np.asarray(slate.items, dtype=np.intp)
    catalog.check_ids(ids, "slate ids")
    x = np.zeros((ids.size, catalog.diversity_dim))
    for p in range(1, ids.size):
        for i, metric in enumerate(catalog.metrics):
            x[p, i] = metric.column(int(ids[p]), ids[:p]).sum()
    return catalog.relevance[ids], x
