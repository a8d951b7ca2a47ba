"""Tests for the static comparison policies and the shared selection record."""

import numpy as np
import pytest

from dispersion_bandit.baselines import (
    EpsilonGreedyPolicy,
    LogRankPolicy,
    MmrPolicy,
    SlateSelection,
    StaticScorer,
    epsilon_greedy_select,
    logrank_select,
    mmr_select,
)
from dispersion_bandit.catalog import ItemCatalog, Slate, slate_features
from dispersion_bandit.errors import (
    DimensionMismatchError,
    InsufficientCandidatesError,
    UndefinedSimilarityError,
)
from dispersion_bandit.lmdh import LmdhConfig, LmdhPolicy
from dispersion_bandit.seeding import POLICY, rng_from_seed

from conftest import TableDistanceMetric, random_catalog
from oracles import mmr_oracle


def sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


def make_catalog(relevance, table=None):
    relevance = np.asarray(relevance, dtype=np.float64)
    n = relevance.shape[0]
    if table is None:
        table = np.ones((n, n)) - np.eye(n)
    return ItemCatalog(relevance, (TableDistanceMetric(table),))


def test_scorer_quality_matches_sigmoid():
    rng = np.random.default_rng(31)
    catalog = random_catalog(rng, n_items=6, d=3, m=1)
    u_bar = rng.normal(size=3)
    scorer = StaticScorer(u_bar, catalog)
    expected = sigmoid(catalog.relevance @ u_bar)
    assert np.allclose(scorer.quality, expected, atol=1e-12)
    assert np.all(scorer.quality > 0.0) and np.all(scorer.quality < 1.0)


def test_scorer_rejects_wrong_dimension():
    rng = np.random.default_rng(32)
    catalog = random_catalog(rng, n_items=4, d=3, m=1)
    with pytest.raises(DimensionMismatchError):
        StaticScorer(np.zeros(2), catalog)


def test_logrank_picks_top_quality():
    # u_bar = (1, 0): quality is sigmoid of the first coordinate, so ordering
    # follows that coordinate directly
    catalog = make_catalog([[0.1, 0.9], [0.8, 0.0], [0.5, 0.5], [0.9, 0.2]])
    scorer = StaticScorer(np.array([1.0, 0.0]), catalog)
    slate = logrank_select(scorer, catalog.all_items(), 3)
    assert slate.items == (3, 1, 2)


def test_logrank_tie_breaks_by_id():
    catalog = make_catalog([[0.5, 0.5]] * 5)
    scorer = StaticScorer(np.array([1.0, 1.0]), catalog)
    slate = logrank_select(scorer, [4, 2, 0, 3, 1], 3)
    assert slate.items == (0, 1, 2)


def test_logrank_insufficient_candidates():
    catalog = make_catalog([[0.5, 0.5]] * 3)
    scorer = StaticScorer(np.array([1.0, 0.0]), catalog)
    with pytest.raises(InsufficientCandidatesError):
        logrank_select(scorer, [0, 1], 3)


def test_mmr_matches_direct_oracle():
    rng = np.random.default_rng(33)
    for _ in range(25):
        catalog = random_catalog(rng, n_items=7, d=3, m=1)
        scorer = StaticScorer(rng.normal(size=3), catalog)
        alpha = float(rng.uniform(0.1, 0.95))
        slate = mmr_select(scorer, catalog.all_items(), 4, alpha)
        assert slate.items == mmr_oracle(scorer, catalog, catalog.all_items(), 4, alpha)


def test_mmr_first_pick_ignores_alpha():
    rng = np.random.default_rng(34)
    catalog = random_catalog(rng, n_items=6, d=3, m=1)
    scorer = StaticScorer(rng.normal(size=3), catalog)
    top = int(np.argmax(scorer.quality))
    for alpha in (0.1, 0.5, 0.9):
        slate = mmr_select(scorer, catalog.all_items(), 2, alpha)
        assert slate.items[0] == top


def test_mmr_with_alpha_one_equals_logrank():
    rng = np.random.default_rng(35)
    for _ in range(50):
        catalog = random_catalog(rng, n_items=8, d=3, m=1)
        scorer = StaticScorer(rng.normal(size=3), catalog)
        via_mmr = mmr_select(scorer, catalog.all_items(), 4, 1.0)
        via_rank = logrank_select(scorer, catalog.all_items(), 4)
        assert via_mmr.items == via_rank.items


def test_mmr_rejects_bad_alpha():
    rng = np.random.default_rng(36)
    catalog = random_catalog(rng, n_items=4, d=2, m=1)
    scorer = StaticScorer(np.zeros(2), catalog)
    with pytest.raises(ValueError):
        mmr_select(scorer, catalog.all_items(), 2, 1.5)


def test_mmr_on_a_zero_norm_relevance_row_raises():
    # the similarity penalty reads unit rows, as the cosine metric does, and
    # a zero row has no direction, even when it is not a candidate
    catalog = make_catalog([[1.0, 0.0], [0.0, 0.0], [0.5, 0.5]])
    scorer = StaticScorer(np.ones(2), catalog)
    with pytest.raises(UndefinedSimilarityError, match=r"items \[1\]"):
        mmr_select(scorer, [0, 2], 2, 0.5)


def test_epsilon_zero_equals_logrank():
    rng = np.random.default_rng(37)
    for trial in range(20):
        catalog = random_catalog(rng, n_items=8, d=3, m=1)
        scorer = StaticScorer(rng.normal(size=3), catalog)
        rng_trial = rng_from_seed(trial, POLICY)
        greedy = epsilon_greedy_select(
            scorer, catalog.all_items(), 4, epsilon=0.0, rng=rng_trial
        )
        assert greedy.items == logrank_select(scorer, catalog.all_items(), 4).items


def test_epsilon_greedy_is_deterministic_given_seed():
    rng = np.random.default_rng(38)
    catalog = random_catalog(rng, n_items=10, d=3, m=1)
    scorer = StaticScorer(rng.normal(size=3), catalog)
    a = epsilon_greedy_select(
        scorer, catalog.all_items(), 4, epsilon=0.7, rng=rng_from_seed(99, POLICY)
    )
    b = epsilon_greedy_select(
        scorer, catalog.all_items(), 4, epsilon=0.7, rng=rng_from_seed(99, POLICY)
    )
    assert a.items == b.items


def test_epsilon_one_inclusion_is_uniform():
    # with epsilon = 1 every slot explores, which samples a uniform K-subset;
    # each item's inclusion frequency must sit within 3 sigma of K/L
    rng = np.random.default_rng(39)
    catalog = random_catalog(rng, n_items=8, d=2, m=1)
    scorer = StaticScorer(rng.normal(size=2), catalog)
    trials, k, n_items = 10_000, 3, 8
    counts = np.zeros(n_items)
    coin = np.random.default_rng(40)
    for _ in range(trials):
        slate = epsilon_greedy_select(
            scorer, catalog.all_items(), k, epsilon=1.0, rng=coin
        )
        for item in slate.items:
            counts[item] += 1
    p = k / n_items
    sigma = np.sqrt(p * (1 - p) / trials)
    freq = counts / trials
    assert np.all(np.abs(freq - p) < 3 * sigma + 1e-12), freq


def test_epsilon_greedy_rejects_bad_epsilon():
    rng = np.random.default_rng(41)
    catalog = random_catalog(rng, n_items=4, d=2, m=1)
    scorer = StaticScorer(np.zeros(2), catalog)
    with pytest.raises(ValueError):
        epsilon_greedy_select(
            scorer, catalog.all_items(), 2, epsilon=-0.1, rng=rng_from_seed(0, POLICY)
        )


def test_slate_features_fills_prefix_marginals():
    table = np.array(
        [
            [0.0, 0.3, 0.7],
            [0.3, 0.0, 0.2],
            [0.7, 0.2, 0.0],
        ]
    )
    catalog = make_catalog([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]], table)
    z, x = slate_features(Slate((2, 0, 1)), catalog)
    assert np.array_equal(z[0], [0.5, 0.6])
    assert np.array_equal(z[1], [0.1, 0.2])
    assert x[0, 0] == 0.0
    assert x[1, 0] == pytest.approx(0.7)  # h(0, 2)
    assert x[2, 0] == pytest.approx(0.3 + 0.2)


def test_policies_satisfy_the_interface():
    rng = np.random.default_rng(42)
    catalog = random_catalog(rng, n_items=8, d=3, m=1)
    scorer = StaticScorer(rng.normal(size=3), catalog)
    policies = [
        LogRankPolicy(scorer, k=3),
        MmrPolicy(scorer, k=3, mmr_alpha=0.9),
        EpsilonGreedyPolicy(
            scorer, k=3, epsilon=0.05, rng=rng_from_seed(7, POLICY)
        ),
        LmdhPolicy(LmdhConfig(lam=1.0, alpha=1.0, d=3, m=1, k=3), catalog),
    ]
    assert [p.name for p in policies] == ["logrank", "mmr", "epsilon-greedy", "lmdh"]
    for policy in policies:
        selection = policy.select(catalog.all_items())
        assert isinstance(selection, SlateSelection)
        assert len(selection.slate) == 3
        assert len(set(selection.slate.items)) == 3
        if policy.name == "lmdh":
            assert selection.relevance_features.shape == (3, 3)
            assert selection.diversity_features.shape == (3, 1)
            assert selection.widths.shape == (3,)
        else:  # only the learner logs features
            assert selection.relevance_features is None
            assert selection.diversity_features is None
            assert selection.widths is None
        policy.observe(selection, np.zeros(3))  # must not raise


def test_static_policies_do_not_learn():
    rng = np.random.default_rng(43)
    catalog = random_catalog(rng, n_items=8, d=3, m=1)
    scorer = StaticScorer(rng.normal(size=3), catalog)
    policy = LogRankPolicy(scorer, k=3)
    first = policy.select(catalog.all_items())
    policy.observe(first, np.ones(3))
    second = policy.select(catalog.all_items())
    assert first.slate.items == second.slate.items


@pytest.mark.parametrize("name", ["logrank", "mmr"])
def test_static_policies_compute_each_candidate_set_once(name, monkeypatch):
    rng = np.random.default_rng(44)
    catalog = random_catalog(rng, n_items=10, d=3, m=1)
    scorer = StaticScorer(rng.normal(size=3), catalog)
    if name == "logrank":
        policy = LogRankPolicy(scorer, k=3)
        fresh = lambda cand: logrank_select(scorer, cand, 3)
    else:
        policy = MmrPolicy(scorer, k=3, mmr_alpha=0.7)
        fresh = lambda cand: mmr_select(scorer, cand, 3, 0.7)
    computed = []
    slate = policy._slate
    monkeypatch.setattr(policy, "_slate", lambda cand: computed.append(1) or slate(cand))

    first = policy.select(np.arange(8))
    # an equal set as a list, unsorted, or an array hits the same entry
    assert policy.select([7, 6, 5, 4, 3, 2, 1, 0]) is first
    assert policy.select(np.arange(8)) is first
    assert len(computed) == 1
    # different sets get their own entries
    other = policy.select(np.arange(2, 10))
    smaller = policy.select([0, 1, 2])
    assert len(computed) == 3 and len({id(first), id(other), id(smaller)}) == 3
    assert policy.select(range(2, 10)) is other
    assert len(computed) == 3
    for cand, selection in ((np.arange(8), first), (np.arange(2, 10), other),
                            (np.arange(3), smaller)):
        assert selection == SlateSelection(fresh(cand))  # the bare slate
    with pytest.raises(InsufficientCandidatesError):
        policy.select([0, 1])
