"""LMDH's pruned greedy passes against the per-pass oracle over every candidate.

`select_slate` scores only the candidates whose score bound can still reach
a pick, and reruns over more of them when an item left out might have won.
Its slate, features and widths must be the plain loop's bit for bit.  The
catalogs are large enough to prune, with exact and near ties, and the cases
cover negative beta_hat, alpha = 0, any stored factor W, m = 2, reruns,
and distances read on demand (`TABLE_THRESHOLD` 0) as well as from
memoised rows, both pruned.
"""

import copy
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersion_bandit import catalog as catalog_module
from dispersion_bandit import lmdh
from dispersion_bandit.catalog import ItemCatalog, cosine_metric
from dispersion_bandit.environments import ReplayEnvironment, ReplayUser, run_episode
from dispersion_bandit.lmdh import LmdhConfig, LmdhPolicy, select_slate

from oracles import select_slate_oracle, trained_stats


def draw_relevance(rng, n_items, d, tied):
    """Uniform rows, or rows on a coarse grid with a third of them copies of
    others nudged by one ulp in one coordinate: exact ties and near ties."""
    if not tied:
        return rng.uniform(-1.0, 1.0, size=(n_items, d))
    relevance = rng.choice(np.array([-1.0, -0.5, 0.5, 1.0]), size=(n_items, d))
    copies = rng.choice(n_items, size=n_items // 3, replace=False)
    relevance[copies] = relevance[rng.choice(n_items, size=copies.size)]
    column = rng.integers(0, d, size=copies.size)
    nudged = relevance[copies, column]
    away = np.where(rng.random(copies.size) < 0.5, -2.0, 2.0)
    relevance[copies, column] = np.nextafter(nudged, away)
    return relevance


def cosine_catalog(rng, n_items, d, m, k, tied=False, on_demand=False):
    """Slate-normalized cosine metrics over the relevance rows and, at m = 2,
    over a second embedding; read on demand instead of from memoised rows."""
    relevance = draw_relevance(rng, n_items, d, tied)
    vectors = [relevance] + [rng.normal(size=(n_items, 3)) for _ in range(m - 1)]
    threshold = 0 if on_demand else catalog_module.TABLE_THRESHOLD
    with mock.patch.object(catalog_module, "TABLE_THRESHOLD", threshold):
        metrics = tuple(cosine_metric(v, slate_capacity=max(k, 2)) for v in vectors)
    return ItemCatalog(relevance, metrics)


def pass_runs(monkeypatch) -> list:
    """Patch `lmdh.greedy_fill` to log the rows each run of passes scores,
    one list per `select_slate` call."""
    runs = []
    fill, select = lmdh.greedy_fill, lmdh.select_slate

    def logged_fill(acc, *args):
        runs[-1].append(acc.shape[0])
        return fill(acc, *args)

    def logged_select(*args):
        runs.append([])
        return select(*args)

    monkeypatch.setattr(lmdh, "greedy_fill", logged_fill)
    monkeypatch.setattr(lmdh, "select_slate", logged_select)
    return runs


def assert_same_selection(got, want):
    assert got.slate.items == want[0]
    assert got.relevance_features.tobytes() == want[1].tobytes()
    assert got.diversity_features.tobytes() == want[2].tobytes()
    assert got.widths.tobytes() == want[3].tobytes()


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_pruned_select_matches_the_per_pass_oracle_bit_for_bit(data):
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    n_items = data.draw(st.integers(200, 600), label="n_items")
    d = data.draw(st.integers(1, 5), label="d")
    m = data.draw(st.sampled_from([1, 1, 1, 2]), label="m")
    k = data.draw(st.integers(1, 12), label="k")
    tied = data.draw(st.booleans(), label="tied")
    on_demand = data.draw(st.booleans(), label="on_demand")
    catalog = cosine_catalog(rng, n_items, d, m, k, tied, on_demand)
    if data.draw(st.booleans(), label="whole_catalog"):
        cand = catalog.all_items()
    else:
        size = rng.integers(n_items // 2, n_items)
        cand = np.sort(rng.choice(n_items, size=size, replace=False))

    stats = trained_stats(rng, catalog, k, data.draw(st.integers(1, 6), label="rounds"))
    # b of either sign, of scales that spread the relevance scores out next
    # to the widths by varying amounts, so that few or many items survive
    scale = data.draw(st.sampled_from([1.0, 10.0, 30.0]), label="b_scale")
    stats.b = scale * rng.uniform(-1.0, 1.0, size=d + m)
    alpha = data.draw(st.sampled_from([0.0, 0.1, 0.3, 1.0, 3.0]), label="alpha")
    config = LmdhConfig(lam=1.0, alpha=alpha, d=d, m=m, k=k)

    got = select_slate(stats, config, catalog, cand)
    want = select_slate_oracle(stats, config, catalog, cand)
    assert_same_selection(got, want)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_the_bound_holds_for_every_score_of_every_pass(data):
    # besides uniform rows, two opposite clusters whose relevance favours one:
    # picks from the one leave the other's marginals near x_max
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    k = data.draw(st.integers(2, 8), label="k")
    # more than 16k candidates, so that a bound is computed
    n_items = data.draw(st.integers(16 * k + 1, 200), label="n_items")
    d = data.draw(st.integers(1, 4), label="d")
    catalog = cosine_catalog(rng, n_items, d, 1, k)
    direction = rng.normal(size=d)
    direction /= np.linalg.norm(direction)
    if data.draw(st.booleans(), label="clusters"):
        sides = np.where(rng.random(n_items) < 0.5, -1.0, 1.0)
        relevance = sides[:, None] * direction + 0.05 * rng.normal(size=(n_items, d))
        catalog = ItemCatalog(
            relevance, (cosine_metric(relevance, slate_capacity=k),)
        )
    stats = trained_stats(rng, catalog, k, data.draw(st.integers(0, 4), label="rounds"))
    if data.draw(st.booleans(), label="drawn_factor"):
        # any stored W, above its diagonal too: widths that shrink as x grows
        stats.W = rng.normal(size=(d + 1, d + 1))
    beta = data.draw(st.sampled_from([-1.0, 0.0, 1.0, 5.0]), label="beta")
    stats.b = np.linalg.solve(stats.W.T @ stats.W, np.append(3.0 * direction, beta))
    alpha = data.draw(st.sampled_from([0.0, 0.3, 1.0]), label="alpha")
    config = LmdhConfig(lam=1.0, alpha=alpha, d=d, m=1, k=k)

    Z = catalog.relevance
    term_zz, term_xz = lmdh._z_terms(Z, stats)
    theta, beta_hat = lmdh.estimate_preferences(stats)
    bound, floor, slack = lmdh._score_bounds(
        stats, config, catalog, Z @ theta, term_zz, term_xz, beta_hat
    )
    passes = []
    select_slate_oracle(stats, config, catalog, catalog.all_items(), passes=passes)
    for scores in passes:
        assert np.all(scores <= bound + slack)
    assert np.count_nonzero(passes[0] >= floor) >= k


@pytest.mark.parametrize("on_demand", [False, True], ids=["rows", "on-demand"])
def test_survivor_columns_have_the_bits_of_the_whole_column_and_are_pruned(
    monkeypatch, on_demand
):
    # memoised rows and columns read on demand alike give each survivor the
    # bits of the whole column, so a select over either prunes.  Vectors near
    # one direction keep each dot product's last bits in 1 - cos
    rng = np.random.default_rng(11)
    n_items, k = 2000, 10
    vectors = 1.0 + 0.1 * rng.normal(size=(n_items, 64))
    threshold = 0 if on_demand else catalog_module.TABLE_THRESHOLD
    with mock.patch.object(catalog_module, "TABLE_THRESHOLD", threshold):
        metric = cosine_metric(vectors, slate_capacity=k)
    catalog = ItemCatalog(vectors, (metric,))
    assert (metric._rows is None) is on_demand
    cand = np.sort(rng.choice(n_items, size=1800, replace=False))
    rows = np.sort(rng.choice(cand.size, size=75, replace=False))
    for item in cand[rows[:5]].tolist():
        cut = metric.column(item, cand[rows])
        assert cut.tobytes() == metric.column(item, cand)[rows].tobytes()

    stats = trained_stats(rng, catalog, k, rounds=3)
    stats.b = 10.0 * rng.uniform(-1.0, 1.0, size=65)
    config = LmdhConfig(lam=1.0, alpha=0.3, d=64, m=1, k=k)
    want = select_slate_oracle(copy.deepcopy(stats), config, catalog, cand)
    runs = pass_runs(monkeypatch)
    got = lmdh.select_slate(stats, config, catalog, cand)
    assert_same_selection(got, want)
    ((first, *_),) = runs
    assert first < cand.size


def test_picks_that_score_below_items_left_out_rerun_wider(monkeypatch):
    # alpha = 0 and beta_hat < 0 make the bound tight, and the picks after
    # the first score below the best items left out of the first survivors
    rng = np.random.default_rng(2)
    catalog = cosine_catalog(rng, 400, 4, 1, 6)
    stats = trained_stats(rng, catalog, 6, rounds=3)
    stats.b = stats.A @ np.append(rng.uniform(-1.0, 1.0, size=4), -0.5)
    assert lmdh.estimate_preferences(stats)[1][0] < 0.0
    config = LmdhConfig(lam=1.0, alpha=0.0, d=4, m=1, k=6)
    items = catalog.all_items()
    want = select_slate_oracle(copy.deepcopy(stats), config, catalog, items)
    runs = pass_runs(monkeypatch)
    got = lmdh.select_slate(stats, config, catalog, items)
    assert_same_selection(got, want)
    (sizes,) = runs
    assert len(sizes) >= 2 and sizes[0] * 4 <= sizes[1]


def test_an_item_left_out_one_ulp_below_the_last_pick_forces_a_rerun(monkeypatch):
    # fresh statistics, alpha = 0 and b = [e_1; 0]: every score and bound is
    # the item's first coordinate, so the picks are the k largest; the
    # (k+1)-th is one ulp below the k-th, within the slack of the last pick
    rng = np.random.default_rng(5)
    n_items, k = 400, 6
    relevance = rng.uniform(-1.0, 1.0, size=(n_items, 3))
    order = np.argsort(-relevance[:, 0])
    relevance[order[k], 0] = np.nextafter(relevance[order[k - 1], 0], -2.0)
    catalog = ItemCatalog(relevance, (cosine_metric(relevance, slate_capacity=k),))
    stats = lmdh.HybridStatistics(3, 1, lam=1.0)
    stats.b = np.array([1.0, 0.0, 0.0, 0.0])
    config = LmdhConfig(lam=1.0, alpha=0.0, d=3, m=1, k=k)
    items = catalog.all_items()
    want = select_slate_oracle(copy.deepcopy(stats), config, catalog, items)
    runs = pass_runs(monkeypatch)
    got = lmdh.select_slate(stats, config, catalog, items)
    assert_same_selection(got, want)
    assert sorted(got.slate.items) == sorted(order[:k].tolist())
    assert runs == [[k, 4 * k]]


def test_every_selection_of_a_shared_memo_replay_matches_the_oracle(monkeypatch):
    """Six users of one replay world share a memo; every selection, memo hits
    included, has the oracle's bytes, passes are pruned and some rerun."""
    rng = np.random.default_rng(0)
    n_items, k = 400, 5
    vectors = rng.normal(size=(n_items, 6))
    catalog = ItemCatalog(vectors, (cosine_metric(vectors, slate_capacity=k),))
    config = LmdhConfig(lam=10.0, alpha=0.5, d=6, m=1, k=k)
    runs = pass_runs(monkeypatch)
    checked = []

    class Checked(LmdhPolicy):
        def select(self, candidates):
            want = select_slate_oracle(
                copy.deepcopy(self.stats), config, catalog, candidates
            )
            got = super().select(candidates)
            assert_same_selection(got, want)
            checked.append(got)
            return got

    memo = {}
    for u in range(6):
        size = int(rng.integers(0, 40))
        positives = frozenset(rng.choice(n_items, size=size, replace=False).tolist())
        environment = ReplayEnvironment(catalog, ReplayUser(u, positives))
        run_episode(Checked(config, catalog, memo), environment, 12, k)
    assert len(checked) > len(runs)  # some selections were memo hits
    assert sum(sizes[0] * 4 < n_items for sizes in runs) > len(runs) // 2
    assert any(len(sizes) > 1 for sizes in runs)
