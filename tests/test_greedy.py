import itertools

import numpy as np
import pytest

from dispersion_bandit import cli, greedy
from dispersion_bandit.catalog import (
    ItemCatalog,
    PreferenceVector,
    Slate,
    utility,
)
from dispersion_bandit.environments import SimInstance
from dispersion_bandit.errors import (
    DegenerateInstanceError,
    InsufficientCandidatesError,
    TooLargeInstanceError,
)
from dispersion_bandit.greedy import (
    GreedyResult,
    exhaustive_optimum,
    greedy_select,
    ratio_to_optimum,
)

from conftest import TableDistanceMetric, random_catalog, random_eta, random_table


def hand_instance():
    # Items a=0, b=1, c=2 with R = (0.5, 0.4, 0.1),
    # h(a,b)=0, h(a,c)=1, h(b,c)=1.  Enumeration of the three pairs:
    # F(ab)=0.9, F(ac)=1.6, F(bc)=1.5.
    table = np.array(
        [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    )
    catalog = ItemCatalog(
        relevance=np.array([[0.5], [0.4], [0.1]]),
        metrics=(TableDistanceMetric(table),),
    )
    eta = PreferenceVector(theta=np.array([1.0]), beta=np.array([1.0]))
    return catalog, eta


def command_ratio(eta, catalog, candidates, k):
    """The approx-ratio rule: greedy's telescoped value over the optimum's."""
    greedy_value = greedy_select(eta, catalog, candidates, k).value
    _, optimal_value = exhaustive_optimum(eta, catalog, candidates, k)
    return ratio_to_optimum(greedy_value, optimal_value)


class TestGreedySelect:
    def test_hand_instance(self):
        catalog, eta = hand_instance()
        result = greedy_select(eta, catalog, (0, 1, 2), 2)
        assert result.slate.items == (0, 2)
        np.testing.assert_allclose(result.gain_trace, (0.5, 1.1))
        assert result.value == pytest.approx(1.6)

    def test_single_slot_maximizes_relevance(self, rng):
        catalog = random_catalog(rng, 8, d=3)
        eta = random_eta(rng, d=3)
        result = greedy_select(eta, catalog, range(8), 1)
        scores = catalog.relevance @ eta.theta
        assert result.slate.items[0] == int(np.argmax(scores))

    def test_zero_beta_reduces_to_top_k(self, rng):
        catalog = random_catalog(rng, 10, d=2)
        eta = PreferenceVector(theta=rng.uniform(-1, 1, 2), beta=np.zeros(1))
        result = greedy_select(eta, catalog, range(10), 3)
        scores = catalog.relevance @ eta.theta
        expected = list(np.argsort(-scores, kind="stable")[:3])
        assert list(result.slate.items) == expected

    def test_tie_break_smallest_id(self):
        # Two identical items: greedy must prefer the smaller id.
        catalog = ItemCatalog(
            relevance=np.array([[0.3], [0.5], [0.5]]),
            metrics=(TableDistanceMetric(np.zeros((3, 3))),),
        )
        eta = PreferenceVector(theta=np.array([1.0]), beta=np.array([1.0]))
        result = greedy_select(eta, catalog, (0, 1, 2), 2)
        assert result.slate.items == (1, 2)

    def test_gain_trace_prefixes_match_utility(self, rng):
        catalog = random_catalog(rng, 9, d=2, m=2)
        eta = random_eta(rng, d=2, m=2)
        result = greedy_select(eta, catalog, range(9), 4)
        for k in range(1, 5):
            prefix = result.slate.items[:k]
            assert sum(result.gain_trace[:k]) == pytest.approx(
                utility(prefix, eta, catalog), abs=1e-12
            )

    def test_value_is_a_left_fold(self):
        # builtin sum is compensated from Python 3.12 on and would give 1.0
        result = GreedyResult(Slate((0, 1, 2)), gain_trace=(1e16, 1.0, -1e16))
        assert result.value == 0.0

    def test_deterministic(self, rng):
        catalog = random_catalog(rng, 12, d=3)
        eta = random_eta(rng, d=3)
        first = greedy_select(eta, catalog, range(12), 5)
        second = greedy_select(eta, catalog, range(12), 5)
        assert first.slate.items == second.slate.items

    def test_insufficient_candidates(self, rng):
        catalog = random_catalog(rng, 4)
        with pytest.raises(InsufficientCandidatesError):
            greedy_select(random_eta(rng), catalog, (0, 1), 3)
        with pytest.raises(InsufficientCandidatesError):
            greedy_select(random_eta(rng), catalog, (0, 1), 0)


class TestExhaustiveOptimum:
    def test_hand_instance(self):
        catalog, eta = hand_instance()
        subset, value = exhaustive_optimum(eta, catalog, (0, 1, 2), 2)
        assert subset == (0, 2)
        assert value == pytest.approx(1.6)

    def test_zero_beta_matches_top_k(self, rng):
        catalog = random_catalog(rng, 9, d=2)
        eta = PreferenceVector(theta=rng.uniform(-1, 1, 2), beta=np.zeros(1))
        subset, _ = exhaustive_optimum(eta, catalog, range(9), 3)
        scores = catalog.relevance @ eta.theta
        expected = set(np.argsort(-scores, kind="stable")[:3].tolist())
        assert set(subset) == expected

    def test_study_scale_dominates_greedy(self, rng):
        catalog = random_catalog(rng, 20, d=10, m=1)
        eta = random_eta(rng, d=10, m=1, nonneg=True)
        subset, best = exhaustive_optimum(eta, catalog, range(20), 5)
        assert len(subset) == 5
        greedy_value = utility(
            greedy_select(eta, catalog, range(20), 5).slate, eta, catalog
        )
        assert best >= greedy_value - 1e-12

    def test_matches_direct_enumeration(self, rng):
        catalog = random_catalog(rng, 7, d=2, m=2)
        eta = random_eta(rng, d=2, m=2)
        subset, value = exhaustive_optimum(eta, catalog, range(7), 3)
        best = max(
            itertools.combinations(range(7), 3),
            key=lambda items: utility(items, eta, catalog),
        )
        assert value == pytest.approx(utility(best, eta, catalog), abs=1e-12)
        assert value == pytest.approx(utility(subset, eta, catalog), abs=1e-12)

    @pytest.mark.parametrize("nan_in", ["theta", "beta", "relevance"])
    def test_nan_values_raise_naming_k_and_the_candidates(self, nan_in):
        # every pair's value is NaN, and NaN is never above -inf
        arrays = {"theta": np.ones(1), "beta": np.ones(1), "relevance": np.ones((4, 1))}
        arrays[nan_in][...] = np.nan
        catalog = ItemCatalog(
            arrays["relevance"], (TableDistanceMetric(1.0 - np.eye(4)),)
        )
        eta = PreferenceVector(arrays["theta"], arrays["beta"])
        with pytest.raises(
            DegenerateInstanceError, match="no K = 2 subset of the 3 candidates"
        ):
            exhaustive_optimum(eta, catalog, (0, 1, 3), 2)

    def test_budget_guard(self, rng, monkeypatch):
        catalog = random_catalog(rng, 30, d=2)
        eta = random_eta(rng)
        with pytest.raises(TooLargeInstanceError):
            exhaustive_optimum(eta, catalog, range(30), 15)  # C(30, 15) > SUBSET_BUDGET
        monkeypatch.setattr(greedy, "SUBSET_BUDGET", 10_000)
        with pytest.raises(TooLargeInstanceError, match="exceeds budget 10000"):
            exhaustive_optimum(eta, catalog, range(30), 4)  # C(30, 4) = 27 405


class TestApproximationRatio:
    def test_hand_instance_exact(self):
        catalog, eta = hand_instance()
        assert command_ratio(eta, catalog, (0, 1, 2), 2) == pytest.approx(1.0)

    def test_modular_objective_is_exact(self, rng):
        for _ in range(10):
            catalog = random_catalog(rng, 8, d=2)
            eta = PreferenceVector(
                theta=rng.uniform(0.1, 1.0, 2), beta=np.zeros(1)
            )
            catalog = ItemCatalog(
                relevance=np.abs(catalog.relevance), metrics=catalog.metrics
            )
            ratio = command_ratio(eta, catalog, range(8), 3)
            assert ratio == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("optimum", [0.0, -2.0], ids=["zero", "negative"])
    @pytest.mark.parametrize("caller", ["library", "cli"])
    def test_non_positive_optimum_raises(self, monkeypatch, caller, optimum):
        # every pair of the three items is worth `optimum`, greedy's included
        catalog = ItemCatalog(
            relevance=np.full((3, 1), optimum / 2.0),
            metrics=(TableDistanceMetric(np.zeros((3, 3))),),
        )
        eta = PreferenceVector(theta=np.ones(1), beta=np.ones(1))
        if caller == "cli":
            instance = SimInstance(catalog, eta, seed=0)
            monkeypatch.setattr(cli, "study_instance", lambda *a, **kw: instance)
        with pytest.raises(
            DegenerateInstanceError,
            match=rf"optimal utility {optimum} is not positive \(greedy {optimum}\)",
        ):
            if caller == "library":
                command_ratio(eta, catalog, (0, 1, 2), 2)
            else:
                args = cli.build_parser().parse_args(
                    ["approx-ratio", "--seed", "0", "--out", "unused"]
                )
                cli._ratio_task(args, (2, 0))

    def test_guarantee_floor_on_random_instances(self):
        # >= 1000 random instances with L <= 12, K <= 4 under the guarantee's
        # preconditions: ratio must lie in [0.25, 1.0].
        rng = np.random.default_rng(7)
        for trial in range(1000):
            n = int(rng.integers(4, 13))
            k = int(rng.integers(1, 5))
            d = int(rng.integers(1, 4))
            relevance = rng.uniform(0.0, 1.0, size=(n, d))
            catalog = ItemCatalog(
                relevance=relevance,
                metrics=(TableDistanceMetric(random_table(rng, n)),),
            )
            eta = PreferenceVector(
                theta=rng.uniform(0.0, 1.0, d), beta=rng.uniform(0.0, 1.0, 1)
            )
            ratio = command_ratio(eta, catalog, range(n), k)
            assert 0.25 <= ratio <= 1.0 + 1e-12, f"trial {trial}: ratio {ratio}"
