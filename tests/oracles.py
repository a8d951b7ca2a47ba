"""Reference implementations the LMDH tests compare the program against.

`select_slate_oracle` is LMDH's greedy UCB selection as a plain per-pass
loop over every candidate: no shared pass kernel and no pruning.  Its widths
come from `widths_oracle`, written apart from the program's kernel but in
the order the kernel documents, so the two agree bit for bit.
`trained_stats` gives statistics trained on its whole slates, so the logged
diversity marginals are non-zero and every block of A^{-1} is dense.
"""

import math

import numpy as np

from dispersion_bandit.catalog import Slate
from dispersion_bandit.lmdh import (
    HybridStatistics,
    LmdhConfig,
    _z_terms,
    estimate_preferences,
    update,
)


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
        update(stats, Slate(chosen), rng.integers(0, 2, k).astype(float), (z, x))
    return stats
