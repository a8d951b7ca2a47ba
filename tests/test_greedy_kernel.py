"""The one greedy pass loop, `greedy.greedy_fill`, against the loops it replaced.

`greedy_select`, `lmdh.select_slate` and `baselines.mmr_select` each wrote
the pass loop (score, mask the taken items, argmax, add a distance column)
themselves.  Those loops are the oracles, kept here and, for LMDH and MMR,
in `oracles.py`, and the selectors built on the kernel must match them bit for
bit: slates, gains, features and widths.  LMDH's UCB index at each pick,
which it no longer returns, is recomputed from its features and widths.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersion_bandit.baselines import StaticScorer, mmr_select
from dispersion_bandit.catalog import ItemCatalog, PreferenceVector
from dispersion_bandit.greedy import _pairwise_weights, greedy_select
from dispersion_bandit.lmdh import LmdhConfig, estimate_preferences, select_slate

from conftest import TableDistanceMetric
from oracles import mmr_select_oracle, select_slate_oracle, trained_stats

# ---------------------------------------------------------------------------
# oracles: the greedy and MMR pass loops as they stood before the kernel


def greedy_select_oracle(eta, catalog, candidates, k):
    catalog.check_eta(eta)
    unavailable = ~catalog.open_mask(candidates, k)  # closed or taken
    items = catalog.all_items()
    rel_scores = catalog.relevance @ eta.theta
    div_acc = np.zeros((items.size, catalog.diversity_dim))
    chosen, gains = [], []
    for _ in range(k):
        scores = rel_scores + div_acc @ eta.beta
        scores[unavailable] = -np.inf
        pick = int(np.argmax(scores))
        gains.append(float(scores[pick]))
        unavailable[pick] = True
        chosen.append(pick)
        for i, metric in enumerate(catalog.metrics):
            div_acc[:, i] += metric.column(pick, items)
    return tuple(chosen), tuple(gains)


def pairwise_weights_oracle(eta, catalog, cand):
    w = np.zeros((cand.size, cand.size))
    for beta_i, metric in zip(eta.beta, catalog.metrics):
        if beta_i == 0.0:
            continue
        for p, item in enumerate(cand):
            w[p] += beta_i * metric.column(int(item), cand)
    return w


# ---------------------------------------------------------------------------
# random instances, with exact ties when the values are drawn from a grid


def draw_values(rng, size, tied):
    if tied:
        return rng.choice(np.array([-1.0, 0.0, 0.5, 1.0]), size=size)
    return rng.uniform(-1.0, 1.0, size=size)


def draw_catalog(rng, n_items, d, m, tied):
    relevance = draw_values(rng, (n_items, d), tied)
    relevance[np.all(relevance == 0.0, axis=1), 0] = 1.0  # MMR needs no zero rows
    metrics = []
    for _ in range(m):
        raw = np.abs(draw_values(rng, (n_items, n_items), tied))
        upper = np.triu(raw, k=1)
        metrics.append(TableDistanceMetric(upper + upper.T))
    return ItemCatalog(relevance, tuple(metrics))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_kernel_selectors_match_the_old_loops_bit_for_bit(data):
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    m = data.draw(st.sampled_from([1, 2, 3]), label="m")
    d = data.draw(st.integers(1, 4), label="d")
    n_items = data.draw(st.integers(1, 12), label="n_items")
    tied = data.draw(st.booleans(), label="tied")
    catalog = draw_catalog(rng, n_items, d, m, tied)
    n_cand = data.draw(st.integers(1, n_items), label="n_cand")
    cand = np.sort(rng.choice(n_items, size=n_cand, replace=False)).astype(np.intp)
    k = data.draw(
        st.sampled_from([1, n_cand]) | st.integers(1, n_cand), label="k"
    )

    # greedy: negative theta and beta allowed
    eta = PreferenceVector(draw_values(rng, d, tied), draw_values(rng, m, tied))
    result = greedy_select(eta, catalog, cand, k)
    items, gains = greedy_select_oracle(eta, catalog, cand, k)
    assert result.slate.items == items
    assert np.array(result.gain_trace).tobytes() == np.array(gains).tobytes()
    assert (
        _pairwise_weights(eta, catalog, cand).tobytes()
        == pairwise_weights_oracle(eta, catalog, cand).tobytes()
    )

    # LMDH: statistics trained on whole-catalog slates, so W's x-z block
    # is dense
    rounds = data.draw(st.integers(0, 4), label="rounds")
    stats = trained_stats(rng, catalog, n_items, rounds)
    # a drawn b gives beta_hat and the X beta_hat term of the score a value
    # of either sign
    stats.b = draw_values(rng, d + m, tied)
    alpha = data.draw(st.sampled_from([0.0, 0.5, 1.0, 3.0]), label="alpha")
    config = LmdhConfig(lam=1.0, alpha=alpha, d=d, m=m, k=k)
    got = select_slate(stats, config, catalog, cand)
    want = select_slate_oracle(stats, config, catalog, cand)
    assert got.slate.items == want[0]
    assert got.relevance_features.tobytes() == want[1].tobytes()
    assert got.diversity_features.tobytes() == want[2].tobytes()
    assert got.widths.tobytes() == want[3].tobytes()
    # the UCB index at each pick, recomputed from the logged features and widths
    theta, beta = estimate_preferences(stats)
    index = got.relevance_features @ theta + got.diversity_features @ beta
    index += alpha * got.widths
    assert np.allclose(index, want[4], rtol=1e-12, atol=1e-12)

    # MMR: a zero population preference ties every quality
    u_bar = np.zeros(d) if tied else rng.normal(size=d)
    scorer = StaticScorer(u_bar, catalog)
    mmr_alpha = data.draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]), label="mmr_alpha")
    assert (
        mmr_select(scorer, cand, k, mmr_alpha).items
        == mmr_select_oracle(scorer, catalog, cand, k, mmr_alpha)
    )
