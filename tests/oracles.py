"""Reference implementations the tests compare the program against.

`select_slate_oracle` is LMDH's greedy UCB selection as a plain per-pass
loop over the whole catalog, closed items at -inf: no shared pass kernel
and no pruning.  Its widths
come from `widths_oracle`, written apart from the program's kernel but in
the order the kernel documents, so the two agree bit for bit.
`raw_widths_oracle` solves each width afresh against A instead, and
`confidence_width` is the program's own kernel on one (z, x) row.
`trained_stats` gives statistics trained on its whole slates, so the logged
diversity marginals are non-zero and every block of W is dense.
`JointRidgeOracle` solves the full ridge system for every query, and
`UnsharedLmdhPolicy` is the learner with no memo; `UnsharedStaticPolicy`
is LogRank or MMR with none.

The whole-run reference (`ReferenceLearner`, `StaticReference`,
`reference_episode` and the two worlds) restates every rule of an episode
in plain form; `test_whole_run.py` runs it against the program.

MMR has two oracles: `mmr_oracle` restates the rule one python float at a
time, and `mmr_select_oracle` is the pass loop that `greedy_fill` replaced,
whose slates must match bit for bit.  `slate_features_oracle` is
`slate_features` as it stood before its lean kernel, and `utility_oracle`
adds the `gains_oracle` of its positions left to right, in the order the
program documents.
"""

import itertools
import math

import numpy as np

from dispersion_bandit import lmdh
from dispersion_bandit.baselines import SlateSelection
from dispersion_bandit.catalog import Slate
from dispersion_bandit.errors import InvalidItemError
from dispersion_bandit.lmdh import (
    HybridStatistics,
    LmdhConfig,
    _z_terms,
    estimate_preferences,
    update,
)

from conftest import logged


def w_xx_t(stats):
    """W_xx^T, the block of W that `_raw_widths_batch` takes."""
    return stats.W[stats.d :, stats.d :].T


def widths_oracle(term_zz, term_xz, X, stats):
    """v = |W_zz z|^2, plus the square of each entry i of W_xz z + W_xx x,
    added in order of i; the entries are x W_xx^T plus W_xz z."""
    r = np.dot(X, stats.W[stats.d :, stats.d :].T) + term_xz
    r = r * r
    v = term_zz
    for i in range(X.shape[1]):
        v = v + r[:, i]
    return v


def confidence_width(z, x, stats):
    """v = zeta^T A^{-1} zeta for one (z, x) pair: the learner's kernel on one row."""
    z = np.asarray(z, dtype=np.float64).reshape(1, -1)
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    return float(lmdh._raw_widths_batch(*lmdh._z_terms(z, stats), x, w_xx_t(stats))[0])


def select_slate_oracle(
    stats, config, catalog, candidates, widths=widths_oracle, passes=None
):
    """(items, relevance features, diversity features, widths, UCB index at each pick).

    Every pass scores every item of the catalog with `widths(term_zz,
    term_xz, X, stats)`, sets the closed and the taken ones to -inf and takes
    the first maximum.  A `passes` list receives each pass's scores.
    """
    unavailable = ~catalog.open_mask(candidates, config.k)  # closed or taken
    items = catalog.all_items()
    theta, beta = estimate_preferences(stats)
    Z = catalog.relevance
    term_zz, term_xz = _z_terms(Z, stats)
    rel_scores = Z @ theta
    X = np.zeros((items.size, catalog.diversity_dim))
    chosen = []
    rel_feats = np.zeros((config.k, config.d))
    div_feats = np.zeros((config.k, config.m))
    roots = np.zeros(config.k)
    scores_taken = np.zeros(config.k)
    for step in range(config.k):
        v = widths(term_zz, term_xz, X, stats)
        scores = rel_scores + np.dot(X, beta) + config.alpha * np.sqrt(v)
        scores[unavailable] = -np.inf
        if passes is not None:
            passes.append(scores.copy())
        pick = int(np.argmax(scores))
        unavailable[pick] = True
        chosen.append(pick)
        rel_feats[step] = Z[pick]
        div_feats[step] = X[pick]
        roots[step] = math.sqrt(v[pick])
        scores_taken[step] = scores[pick]
        if step + 1 < config.k:
            for i, metric in enumerate(catalog.metrics):
                X[:, i] += metric.column(pick, items)
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


class UnsharedStaticPolicy:
    """A static policy without a memo: `rule(candidates)` gives every slate afresh.

    The reference that LogRank and MMR sharing a memo must match.
    """

    def __init__(self, rule):
        self.rule = rule

    def select(self, candidates):
        return SlateSelection(self.rule(candidates))

    def observe(self, selection, rewards):
        pass


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
    """MMR's own pass loop, as it stood before `greedy_fill`, over the whole
    catalog with the closed items at -inf."""
    unavailable = ~catalog.open_mask(candidates, k)  # closed or taken
    sim_sum = np.zeros(catalog.item_count)
    chosen = []
    for step in range(k):
        scores = mmr_alpha * scorer.quality
        if step > 0:
            scores = scores - (1.0 - mmr_alpha) / step * sim_sum
        scores[unavailable] = -np.inf
        pick = int(np.argmax(scores))
        unavailable[pick] = True
        chosen.append(pick)
        sim_sum += scorer._unit @ scorer._unit[pick]
    return tuple(chosen)


def slate_features_oracle(slate, catalog):
    """Per-position (z, x), the ids range-checked through numpy and each x
    entry one column sum."""
    ids = np.asarray(slate.items, dtype=np.intp)
    bad = ids[(ids < 0) | (ids >= catalog.item_count)]
    if bad.size:
        raise InvalidItemError(
            f"slate ids outside ground set of size {catalog.item_count}: "
            f"{bad[:5].tolist()}"
        )
    x = np.zeros((ids.size, catalog.diversity_dim))
    for p in range(1, ids.size):
        for i, metric in enumerate(catalog.metrics):
            x[p, i] = metric.column(int(ids[p]), ids[:p]).sum()
    return catalog.relevance[ids], x



def gains_oracle(z, x, eta):
    """Each position's marginal gain as a python float: theta . z_p plus
    beta . x_p, each an `einsum` of one row alone."""
    return [
        float(np.einsum("j,j->", z_p, eta.theta)) + float(np.einsum("j,j->", x_p, eta.beta))
        for z_p, x_p in zip(z, x)
    ]


def utility_oracle(slate, eta, catalog):
    """F(A | eta) as the slate's `gains_oracle` added left to right."""
    total = 0.0
    for gain in gains_oracle(*slate_features_oracle(slate, catalog), eta):
        total += gain
    return total


def gain_sizes(z, x, eta):
    """The magnitudes each position's gain is made of: |theta|.|z_p| + |beta|.|x_p|."""
    return np.abs(z) @ np.abs(eta.theta) + np.abs(x) @ np.abs(eta.beta)

# ---------------------------------------------------------------------------
# the whole-run reference: every rule of an episode in plain form


class ReferenceLearner:
    """LMDH in plain form: a joint ridge over (A, b) that adds one outer
    product per logged row, and a per-pass loop over every candidate whose
    estimates and widths are solved against A with `np.linalg.solve`."""

    def __init__(self, config, catalog):
        self.config, self.catalog = config, catalog
        self.ridge = JointRidgeOracle(config.d, config.m, config.lam)

    def select(self, cand):
        """(items, relevance features, diversity features, widths)."""
        config = self.config
        theta, beta = self.ridge.eta_hat()
        Z = self.catalog.relevance[cand]
        X = np.zeros((cand.size, config.m))
        picks, div_feats, widths = [], np.zeros((config.k, config.m)), []
        for step in range(config.k):
            zeta = np.hstack([Z, X])
            v = np.einsum("ij,ji->i", zeta, np.linalg.solve(self.ridge.phi, zeta.T))
            scores = Z @ theta + X @ beta + config.alpha * np.sqrt(v)
            scores[picks] = -np.inf
            pick = int(np.argmax(scores))
            picks.append(pick)
            div_feats[step] = X[pick]
            widths.append(math.sqrt(v[pick]))
            for i, metric in enumerate(self.catalog.metrics):
                X[:, i] += metric.column(int(cand[pick]), cand)
        return tuple(cand[picks].tolist()), Z[picks], div_feats, np.array(widths)

    def observe(self, picked, rewards):
        _, Z, X, _ = picked
        for row, w in enumerate(rewards):
            self.ridge.add(Z[row], X[row], w)


class StaticReference:
    """A static policy in plain form: `rule(cand)` gives the slate, and it never learns."""

    def __init__(self, rule):
        self.rule = rule

    def select(self, cand):
        return (self.rule(cand),)

    def observe(self, picked, rewards):
        pass


def reference_quality(u_bar, catalog):
    """The population scorer's quality sigmoid(u_bar . z_a), one item at a time."""
    return np.array(
        [1.0 / (1.0 + math.exp(-float(z @ u_bar))) for z in catalog.relevance]
    )


def logrank_reference(quality, cand, k):
    return tuple(sorted(cand.tolist(), key=lambda a: (-quality[a], a))[:k])


def epsilon_greedy_reference(quality, cand, k, epsilon, rng):
    """Per slot: with probability epsilon a uniform draw among the items not
    yet picked, in id order; otherwise the best of them, ties to the smallest id."""
    remaining = cand.tolist()
    chosen = []
    for _ in range(k):
        if rng.random() < epsilon:
            pick = remaining[int(rng.integers(len(remaining)))]
        else:
            pick = max(remaining, key=lambda a: (quality[a], -a))
        remaining.remove(pick)
        chosen.append(pick)
    return tuple(chosen)


def pairwise_distances(catalog):
    """h_i(a, b) for every pair, as python floats: one table per metric."""
    items = catalog.all_items()
    return [
        [metric.column(a, items).tolist() for a in items.tolist()]
        for metric in catalog.metrics
    ]


def marginal(items, pos, tables):
    """x at position `pos`: each metric's distances to the items before it, summed."""
    return [sum(table[items[pos]][b] for b in items[:pos]) for table in tables]


def utility_plain(items, eta, catalog, tables):
    """F(A | eta): summed relevance plus beta-weighted pairwise distances."""
    total = sum(float(catalog.relevance[a] @ eta.theta) for a in items)
    for weight, table in zip(eta.beta.tolist(), tables):
        for i, a in enumerate(items):
            for b in items[i + 1 :]:
                total += weight * table[a][b]
    return total


def optimum_plain(eta, catalog, tables, k):
    """max F over every k-subset of the catalog."""
    n = catalog.item_count
    return max(
        utility_plain(subset, eta, catalog, tables)
        for subset in itertools.combinations(range(n), k)
    )


def reference_episode(policy, world, rounds, k):
    """Up to `rounds` rounds of `policy` (`select`, `observe`) in `world`
    (`open`, `feedback`): (candidate count, rewards) + the selection."""
    log = []
    for _ in range(rounds):
        cand = world.open()
        if cand.size < k:
            break
        picked = policy.select(cand)
        rewards = world.feedback(picked[0])
        policy.observe(picked, rewards)
        log.append((cand.size, rewards) + picked)
    return log


class SimulatedReference:
    """The Bernoulli world in plain form: every item open every round, and
    position p's reward 1 when the next draw of the reward stream falls
    below clamp(theta*.z + beta*.x, 0, 1), with x summed pair by pair."""

    def __init__(self, instance, rewards_rng):
        self.instance = instance
        self.tables = pairwise_distances(instance.catalog)
        self.rng = rewards_rng
        self.utilities = []

    def open(self):
        return self.instance.catalog.all_items()

    def feedback(self, items):
        eta, catalog = self.instance.eta_star, self.instance.catalog
        means = []
        for pos, item in enumerate(items):
            raw = float(catalog.relevance[item] @ eta.theta)
            for weight, x in zip(eta.beta.tolist(), marginal(items, pos, self.tables)):
                raw += weight * x
            means.append(min(max(raw, 0.0), 1.0))
        draws = self.rng.random(len(items))
        self.utilities.append(utility_plain(items, eta, catalog, self.tables))
        return tuple(1.0 if draws[p] < means[p] else 0.0 for p in range(len(items)))


class ReplayReference:
    """The replay membership rule: reward 1 exactly when the item is one of
    the user's positives, and every item shown leaves the user's open set."""

    def __init__(self, n_items, positives):
        self.closed, self.positives = set(), positives
        self.n_items = n_items

    def open(self):
        return np.array(
            [a for a in range(self.n_items) if a not in self.closed], dtype=np.intp
        )

    def feedback(self, items):
        self.closed.update(items)
        return tuple(1.0 if item in self.positives else 0.0 for item in items)
