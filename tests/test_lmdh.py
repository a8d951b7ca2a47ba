"""Tests for the hybrid statistics, driven by two oracles.

`JointRidgeOracle` (in `oracles.py`) solves the full (d+m)-dimensional ridge system afresh for
every query.  `SchurOracle` is the Schur-complement bookkeeping of hybrid
LinUCB (Li et al. 2010, Algorithm 2) that the plain joint sums replaced:
blockwise sums, an update that strips and re-applies the correction, and a
four-term width.  The learner must agree with both.
"""

import copy
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersion_bandit.catalog import (
    ItemCatalog,
    PreferenceVector,
    Slate,
)
from dispersion_bandit.environments import (
    ReplayEnvironment,
    ReplayUser,
    SimulatedEnvironment,
    run_episode,
    study_instance,
)
from dispersion_bandit.errors import (
    DimensionMismatchError,
    InsufficientCandidatesError,
    InvalidFeedbackError,
    NumericalDegeneracyError,
    PreconditionError,
)
from dispersion_bandit import lmdh
from dispersion_bandit.greedy import greedy_select
from dispersion_bandit.lmdh import (
    HybridStatistics,
    LmdhConfig,
    LmdhPolicy,
    TheoryParams,
    estimate_preferences,
    lemma1_width_budget,
    regret_upper_bound,
    select_slate,
    theoretical_alpha,
    update,
)

from conftest import (
    TableDistanceMetric,
    count_selects,
    log_fields,
    logged,
    random_catalog,
)
from oracles import (
    JointRidgeOracle,
    UnsharedLmdhPolicy,
    confidence_width,
    raw_widths_oracle,
    trained_stats,
    w_xx_t,
)


class SchurOracle:
    """Blockwise sums with the z side reduced by the Schur complement.

        M = lam*I + sum x x^T     B = sum z x^T     y = sum w x
        H = lam*I + sum z z^T - B M^{-1} B^T     u = sum w z - B M^{-1} y

    theta_hat = H^{-1} u and beta_hat = M^{-1}(y - B^T theta_hat).
    """

    def __init__(self, d, m, lam):
        self.H, self.B, self.M = lam * np.eye(d), np.zeros((d, m)), lam * np.eye(m)
        self.u, self.y = np.zeros(d), np.zeros(m)
        self.inv_H, self.inv_M = np.eye(d) / lam, np.eye(m) / lam

    def update(self, Z, X, w):
        # strip the old correction, add the x-side sums, re-apply the correction
        self.H += self.B @ self.inv_M @ self.B.T
        self.u += self.B @ (self.inv_M @ self.y)
        self.M += X.T @ X
        self.B += Z.T @ X
        self.y += X.T @ w
        self.M = (self.M + self.M.T) / 2.0
        self.inv_M = np.linalg.inv(self.M)
        self.H += Z.T @ Z - self.B @ self.inv_M @ self.B.T
        self.u += Z.T @ w - self.B @ (self.inv_M @ self.y)
        self.H = (self.H + self.H.T) / 2.0
        self.inv_H = np.linalg.inv(self.H)

    def eta_hat(self):
        theta = self.inv_H @ self.u
        return theta, self.inv_M @ (self.y - self.B.T @ theta)

    def width(self, z, x):
        """The four-term block form of zeta^T Phi^{-1} zeta."""
        hz = self.inv_H @ z
        mx = self.inv_M @ x
        bmx = self.B @ mx
        return float(z @ hz - 2.0 * hz @ bmx + x @ mx + bmx @ self.inv_H @ bmx)


def random_rounds(rng, n_rounds, k, d, m):
    """Deterministic observation log: (Z, X, w) per round, rewards in [0, 1]."""
    rounds = []
    for _ in range(n_rounds):
        Z = rng.uniform(0.0, 0.5, size=(k, d))
        X = rng.uniform(0.0, 0.5, size=(k, m))
        w = rng.uniform(0.0, 1.0, size=k)
        rounds.append((Z, X, w))
    return rounds


def feed(stats, rounds):
    for Z, X, w in rounds:
        update(stats, logged(Z, X), w)


def feed_oracle(oracle, rounds):
    for Z, X, w in rounds:
        for i in range(Z.shape[0]):
            oracle.add(Z[i], X[i], w[i])


def test_fresh_statistics_shapes_and_values():
    stats = HybridStatistics(d=4, m=2, lam=3.0)
    assert np.array_equal(stats.A, 3.0 * np.eye(6))
    assert np.array_equal(stats.b, np.zeros(6))
    assert np.allclose(stats.W.T @ stats.W @ stats.A, np.eye(6), atol=1e-12)


def test_fresh_estimates_are_zero():
    stats = HybridStatistics(d=5, m=3, lam=2.0)
    theta, beta = estimate_preferences(stats)
    assert np.array_equal(theta, np.zeros(5))
    assert np.array_equal(beta, np.zeros(3))


def test_single_observation_hand_case():
    # one item, z = e1, x = 0, reward 1, lam = 1:
    #   A gains zeta zeta^T -> diag(2, 1, ...), b = e1, the x rows untouched,
    #   so theta_hat = (0.5, 0, ...) and beta_hat = 0.
    d, m = 4, 2
    stats = HybridStatistics(d, m, lam=1.0)
    z = np.zeros(d)
    z[0] = 1.0
    x = np.zeros(m)
    update(stats, logged(z[None, :], x[None, :], Slate((7,))), np.array([1.0]))
    expected_A = np.eye(d + m)
    expected_A[0, 0] = 2.0
    assert np.array_equal(stats.A, expected_A)
    assert np.array_equal(stats.b, np.concatenate([z, x]))
    assert np.allclose(stats.W.T @ stats.W @ expected_A, np.eye(d + m), atol=1e-12)
    theta, beta = estimate_preferences(stats)
    assert np.allclose(theta, [0.5, 0.0, 0.0, 0.0], atol=1e-12)
    assert np.allclose(beta, np.zeros(m), atol=1e-12)


def test_estimates_match_monolithic_oracle():
    rng = np.random.default_rng(11)
    d, m = 6, 2
    stats = HybridStatistics(d, m, lam=1.5)
    oracle = JointRidgeOracle(d, m, lam=1.5)
    rounds = random_rounds(rng, 60, 3, d, m)
    feed(stats, rounds)
    feed_oracle(oracle, rounds)
    theta, beta = estimate_preferences(stats)
    theta_o, beta_o = oracle.eta_hat()
    assert np.allclose(theta, theta_o, atol=1e-8)
    assert np.allclose(beta, beta_o, atol=1e-8)


def test_width_matches_monolithic_oracle_after_updates():
    rng = np.random.default_rng(12)
    d, m = 5, 2
    stats = HybridStatistics(d, m, lam=1.0)
    oracle = JointRidgeOracle(d, m, lam=1.0)
    rounds = random_rounds(rng, 50, 4, d, m)
    feed(stats, rounds)
    feed_oracle(oracle, rounds)
    for _ in range(20):
        z = rng.uniform(-1.0, 1.0, size=d)
        x = rng.uniform(-1.0, 1.0, size=m)
        assert confidence_width(z, x, stats) == pytest.approx(
            oracle.width(z, x), abs=1e-8
        )


def test_estimates_and_widths_match_the_schur_oracle():
    rng = np.random.default_rng(24)
    for d, m in ((10, 1), (4, 3)):
        stats = HybridStatistics(d, m, lam=1.0)
        oracle = SchurOracle(d, m, lam=1.0)
        for Z, X, w in random_rounds(rng, 200, 5, d, m):
            feed(stats, [(Z, X, w)])
            oracle.update(Z, X, w)
        theta, beta = estimate_preferences(stats)
        theta_o, beta_o = oracle.eta_hat()
        assert np.max(np.abs(theta - theta_o)) <= 1e-12
        assert np.max(np.abs(beta - beta_o)) <= 1e-12
        for _ in range(20):
            z = rng.uniform(-1.0, 1.0, size=d)
            x = rng.uniform(-1.0, 2.0, size=m)
            assert abs(confidence_width(z, x, stats) - oracle.width(z, x)) <= 1e-12


def test_estimate_stays_on_the_joint_ridge_solution_over_20000_rounds():
    # The reference sums A and b alongside the learner, in the same order, and
    # solves once at the end.  The Schur bookkeeping (adding back and
    # subtracting the correction every round) left that solve by 8.9e-11
    # here; sums that are only ever added to stay within 1e-12 of it.
    instance = study_instance(0)
    lam = 1.0
    config = LmdhConfig(lam=lam, alpha=1.0, d=10, m=1, k=5)
    policy = LmdhPolicy(config, instance.catalog)
    env = SimulatedEnvironment(instance)
    candidates = instance.catalog.all_items()
    A, b = lam * np.eye(11), np.zeros(11)
    for _ in range(20_000):
        selection = policy.select(candidates)
        w = env.feedback(selection)
        policy.observe(selection, w)
        zeta = np.hstack([selection.relevance_features, selection.diversity_features])
        A += zeta.T @ zeta
        b += zeta.T @ w
    estimate = np.concatenate(estimate_preferences(policy.stats))
    assert np.max(np.abs(estimate - np.linalg.solve(A, b))) <= 1e-11


@pytest.mark.parametrize("corner", [-1.0, 0.0], ids=["indefinite", "singular"])
def test_non_positive_definite_A_raises_naming_it(corner):
    stats = HybridStatistics(d=2, m=1, lam=1.0)
    stats.A[0, 0] = corner
    with pytest.raises(NumericalDegeneracyError, match=r"^A is not positive definite"):
        update(stats, logged(np.zeros((1, 2)), np.zeros((1, 1))), np.array([0.0]))


def spd_stack(rng, n, count):
    """`count` seeded symmetric positive definite n x n matrices."""
    M = rng.normal(size=(count, n, n))
    return M @ M.transpose(0, 2, 1) + n * np.eye(n)


@pytest.mark.parametrize("n", [2, 11, 65])
def test_inverse_factor_has_the_bits_of_numpys_cholesky_and_inv(n):
    stack = spd_stack(np.random.default_rng(n), n, 3)
    want = np.stack([np.linalg.inv(np.linalg.cholesky(A)) for A in stack])
    for A, W in zip(stack, want):
        assert lmdh._inverse_factor(A).tobytes() == W.tobytes()
    assert lmdh._inverse_factor(stack).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [2, 11, 65])
def test_inverse_factor_of_a_non_positive_definite_A_names_its_shape(n):
    stack = spd_stack(np.random.default_rng(n), n, 3)
    stack[1, -1, -1] = -1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for A in (stack[1], stack):
            with pytest.raises(
                NumericalDegeneracyError,
                match=rf"^A is not positive definite \({n} x {n}\)$",
            ):
                lmdh._inverse_factor(A)


def test_width_fresh_unit_vector():
    stats = HybridStatistics(d=3, m=1, lam=1.0)
    z = np.array([1.0, 0.0, 0.0])
    x = np.zeros(1)
    assert confidence_width(z, x, stats) == pytest.approx(1.0, abs=1e-12)


def test_width_fresh_split_norms():
    # lam = 4 with |z|^2 = |x|^2 = 2 gives 2/4 + 2/4 = 1
    stats = HybridStatistics(d=2, m=2, lam=4.0)
    z = np.array([1.0, 1.0])
    x = np.array([1.0, 1.0])
    assert confidence_width(z, x, stats) == pytest.approx(1.0, abs=1e-12)


def test_width_is_nonnegative_and_shrinks():
    rng = np.random.default_rng(13)
    d, m = 4, 1
    stats = HybridStatistics(d, m, lam=1.0)
    probe_z = rng.uniform(0.0, 1.0, size=d)
    probe_x = rng.uniform(0.0, 1.0, size=m)
    previous = confidence_width(probe_z, probe_x, stats)
    for Z, X, w in random_rounds(rng, 30, 2, d, m):
        feed(stats, [(Z, X, w)])
        current = confidence_width(probe_z, probe_x, stats)
        assert current >= -1e-12
        assert current <= previous + 1e-10
        previous = current


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_width_shrinks_under_any_observations(data):
    # adding observations grows Phi, so zeta^T Phi^{-1} zeta cannot increase
    d = data.draw(st.integers(min_value=1, max_value=4), label="d")
    m = data.draw(st.integers(min_value=1, max_value=3), label="m")
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1), label="seed")
    n_rounds = data.draw(st.integers(min_value=1, max_value=5), label="rounds")
    rng = np.random.default_rng(seed)
    stats = HybridStatistics(d, m, lam=1.0)
    probe_z = rng.uniform(-1.0, 1.0, size=d)
    probe_x = rng.uniform(-1.0, 1.0, size=m)
    before = confidence_width(probe_z, probe_x, stats)
    feed(stats, random_rounds(rng, n_rounds, 2, d, m))
    after = confidence_width(probe_z, probe_x, stats)
    assert after <= before + 1e-10
    assert after >= 0.0


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_widths_are_non_negative_and_match_the_solved_widths(data):
    # trained statistics at every m a metric tuple can have; rows include
    # x = 0, large marginals and z near zero, where a width rounds nearest 0
    m = data.draw(st.sampled_from([1, 2, 3]), label="m")
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    catalog = random_catalog(rng, 12, d=4, m=m)
    k = data.draw(st.integers(min_value=1, max_value=4), label="k")
    stats = trained_stats(rng, catalog, k, data.draw(st.integers(0, 6), label="rounds"))
    scale = data.draw(st.sampled_from([1e-9, 1.0, 30.0]), label="scale")
    Z = scale * rng.uniform(-1.0, 1.0, size=(50, 4))
    X = scale * rng.uniform(0.0, 3.0, size=(50, m))
    X[rng.random(50) < 0.3] = 0.0
    got = lmdh._raw_widths_batch(*lmdh._z_terms(Z, stats), X, w_xx_t(stats))
    assert np.all(got >= 0.0)
    np.testing.assert_allclose(got, raw_widths_oracle(Z, X, stats), rtol=1e-12, atol=1e-12)


def test_update_keeps_blocks_positive_definite():
    rng = np.random.default_rng(14)
    d, m = 6, 3
    stats = HybridStatistics(d, m, lam=1.0)
    feed(stats, random_rounds(rng, 80, 3, d, m))
    assert np.min(np.linalg.eigvalsh(stats.A)) > 0.0
    assert np.linalg.norm(stats.W @ stats.A @ stats.W.T - np.eye(d + m)) <= 1e-8
    assert np.allclose(stats.A, stats.A.T)


def test_update_empty_slate_is_noop():
    stats = HybridStatistics(d=3, m=1, lam=1.0)
    before = copy.deepcopy(stats)
    update(stats, logged(np.zeros((0, 3)), np.zeros((0, 1))), np.zeros(0))
    for name in ("A", "b", "W"):
        assert np.array_equal(getattr(stats, name), getattr(before, name))


@pytest.mark.parametrize("bad", [-0.1, 1.1, np.nan, np.inf, -np.inf])
def test_update_rejects_out_of_range_rewards(bad):
    stats = HybridStatistics(d=2, m=1, lam=1.0)
    Z = np.ones((2, 2)) * 0.2
    X = np.zeros((2, 1))
    w = np.array([0.5, bad])
    with pytest.raises(InvalidFeedbackError) as caught:
        update(stats, logged(Z, X), w)
    assert str(caught.value) == f"rewards must lie in [0, 1], got {w}"
    assert np.array_equal(stats.A, np.eye(3))
    assert np.array_equal(stats.b, np.zeros(3))


def test_update_rejects_length_mismatch():
    stats = HybridStatistics(d=2, m=1, lam=1.0)
    Z = np.ones((2, 2)) * 0.2
    X = np.zeros((2, 1))
    with pytest.raises(DimensionMismatchError):
        update(stats, logged(Z, X), np.array([0.5]))
    with pytest.raises(DimensionMismatchError):
        update(stats, logged(Z, X, Slate((0,))), np.array([0.5]))


def test_update_rejects_wrong_feature_dims():
    stats = HybridStatistics(d=3, m=1, lam=1.0)
    with pytest.raises(DimensionMismatchError):
        update(stats, logged(np.zeros((1, 2)), np.zeros((1, 1))), np.array([0.5]))


def test_reward_model_consistency_monte_carlo():
    # Bernoulli rewards with mean theta*.z + beta*.x: the ridge estimate must
    # approach the true preference vector.
    rng = np.random.default_rng(15)
    d, m = 2, 1
    theta_star = np.array([0.3, 0.2])
    beta_star = np.array([0.1])
    stats = HybridStatistics(d, m, lam=1.0)
    for _ in range(6000):
        z = rng.uniform(0.0, 0.5, size=d)
        x = rng.uniform(0.0, 0.5, size=m)
        mean = float(theta_star @ z + beta_star @ x)
        w = float(rng.random() < mean)
        update(stats, logged(z[None, :], x[None, :]), np.array([w]))
    theta, beta = estimate_preferences(stats)
    err = np.linalg.norm(np.concatenate([theta - theta_star, beta - beta_star]))
    assert err < 0.1


def ucb_scores(stats, z, x, alpha):
    """The UCB index at each pick of select_slate on two items with relevance
    z, distance x: theta_hat.z + beta_hat.x + alpha * width, from the logged
    features and widths.

    The tie at the first pick takes item 0, whose index is taken at
    (z, 0); item 1's at the second pick is taken at (z, x).
    """
    table = np.array([[0.0, x], [x, 0.0]])
    catalog = ItemCatalog(np.vstack([z, z]), (TableDistanceMetric(table),))
    config = LmdhConfig(lam=1.0, alpha=alpha, d=z.size, m=1, k=2)
    selection = select_slate(stats, config, catalog, [0, 1])
    theta, beta = estimate_preferences(stats)
    return (
        selection.relevance_features @ theta
        + selection.diversity_features @ beta
        + alpha * selection.widths
    )


def test_ucb_score_fresh():
    stats = HybridStatistics(d=3, m=1, lam=1.0)
    z = np.array([1.0, 0.0, 0.0])
    assert ucb_scores(stats, z, 0.0, alpha=1.0)[0] == pytest.approx(1.0, abs=1e-12)
    assert ucb_scores(stats, z, 0.0, alpha=0.0)[0] == pytest.approx(0.0, abs=1e-12)
    assert ucb_scores(stats, z, 0.0, alpha=2.0)[0] == pytest.approx(2.0, abs=1e-12)


def test_ucb_score_is_monotone_in_alpha():
    rng = np.random.default_rng(16)
    stats = HybridStatistics(d=3, m=1, lam=1.0)
    feed(stats, random_rounds(rng, 10, 2, 3, 1))
    z = rng.uniform(0.0, 1.0, size=3)
    x = float(rng.uniform(0.0, 1.0))
    scores = [ucb_scores(stats, z, x, alpha=a) for a in (0.0, 0.5, 1.0, 2.0)]
    for pos in (0, 1):
        column = [s[pos] for s in scores]
        assert column == sorted(column)


def test_select_slate_fresh_orders_by_width():
    # with zero estimates the score is alpha * sqrt of the running width, so
    # a simulation of the width-greedy rule must reproduce the slate exactly
    rng = np.random.default_rng(17)
    catalog = random_catalog(rng, n_items=8, d=3, m=1)
    config = LmdhConfig(lam=2.0, alpha=1.0, d=3, m=1, k=4)
    stats = HybridStatistics(3, 1, lam=2.0)
    picked = select_slate(stats, config, catalog, catalog.all_items())
    # replay the rule by hand
    cand = list(range(8))
    div = {a: 0.0 for a in cand}
    expected = []
    for _ in range(4):
        best, best_score = None, -np.inf
        for a in cand:
            z = catalog.relevance[a]
            v = (z @ z + div[a] ** 2) / 2.0
            score = math.sqrt(v)
            if score > best_score + 1e-15:
                best, best_score = a, score
        expected.append(best)
        cand.remove(best)
        for a in cand:
            div[a] += catalog.metrics[0].column(best, np.array([a]))[0]
    assert list(picked.slate.items) == expected


def test_select_slate_tie_breaks_by_smallest_id():
    relevance = np.tile(np.array([0.4, 0.1]), (4, 1))
    table = np.ones((4, 4)) - np.eye(4)
    catalog = ItemCatalog(relevance, (TableDistanceMetric(table),))
    config = LmdhConfig(lam=1.0, alpha=0.7, d=2, m=1, k=2)
    stats = HybridStatistics(2, 1, lam=1.0)
    picked = select_slate(stats, config, catalog, [3, 1, 0, 2])
    assert picked.slate.items == (0, 1)


def test_select_slate_matches_greedy_when_trained_and_alpha_zero():
    # heavy noiseless training with a tiny ridge drives eta_hat to eta*, and
    # alpha = 0 reduces the UCB rule to plain greedy utility maximization
    rng = np.random.default_rng(18)
    catalog = random_catalog(rng, n_items=10, d=3, m=1)
    theta_star = rng.uniform(0.05, 0.2, size=3)
    beta_star = rng.uniform(0.05, 0.2, size=1)
    eta = PreferenceVector(theta_star, beta_star)

    stats = HybridStatistics(3, 1, lam=1e-6)
    for _ in range(40):
        Z = rng.uniform(0.0, 1.0, size=(5, 3))
        X = rng.uniform(0.0, 2.0, size=(5, 1))
        w = np.clip(Z @ theta_star + X @ beta_star, 0.0, 1.0)
        assert np.all(w < 1.0)
        update(stats, logged(Z, X), w)
    theta, beta = estimate_preferences(stats)
    assert np.allclose(theta, theta_star, atol=1e-4)
    assert np.allclose(beta, beta_star, atol=1e-4)

    config = LmdhConfig(lam=1e-6, alpha=0.0, d=3, m=1, k=4)
    picked = select_slate(stats, config, catalog, catalog.all_items())
    reference = greedy_select(eta, catalog, catalog.all_items(), 4)
    assert picked.slate.items == reference.slate.items


def test_select_slate_logs_features_and_widths():
    rng = np.random.default_rng(19)
    catalog = random_catalog(rng, n_items=6, d=2, m=1)
    config = LmdhConfig(lam=1.0, alpha=0.5, d=2, m=1, k=3)
    stats = HybridStatistics(2, 1, lam=1.0)
    picked = select_slate(stats, config, catalog, catalog.all_items())
    assert picked.relevance_features.shape == (3, 2)
    assert picked.diversity_features.shape == (3, 1)
    assert picked.widths is not None and picked.widths.shape == (3,)
    assert np.all(picked.widths >= 0.0)
    # position features must equal the marginals against the logged prefix
    for pos, item in enumerate(picked.slate.items):
        assert np.array_equal(picked.relevance_features[pos], catalog.relevance[item])
        prefix = np.array(picked.slate.items[:pos], dtype=np.intp)
        expected_x = sum(catalog.metrics[0].column(item, prefix).tolist())
        assert picked.diversity_features[pos, 0] == pytest.approx(
            expected_x, abs=1e-12
        )


def test_select_slate_does_not_touch_the_statistics():
    rng = np.random.default_rng(20)
    catalog = random_catalog(rng, n_items=6, d=2, m=1)
    config = LmdhConfig(lam=1.0, alpha=0.5, d=2, m=1, k=3)
    stats = HybridStatistics(2, 1, lam=1.0)
    feed(stats, random_rounds(rng, 5, 2, 2, 1))
    snap = {name: getattr(stats, name).copy() for name in ("A", "b", "W")}
    select_slate(stats, config, catalog, catalog.all_items())
    for name, arr in snap.items():
        assert np.array_equal(getattr(stats, name), arr)


def test_select_slate_insufficient_candidates():
    rng = np.random.default_rng(21)
    catalog = random_catalog(rng, n_items=4, d=2, m=1)
    config = LmdhConfig(lam=1.0, alpha=1.0, d=2, m=1, k=3)
    stats = HybridStatistics(2, 1, lam=1.0)
    with pytest.raises(InsufficientCandidatesError):
        select_slate(stats, config, catalog, [0, 1])


def test_select_slate_rejects_mismatched_config():
    rng = np.random.default_rng(22)
    catalog = random_catalog(rng, n_items=4, d=2, m=1)
    config = LmdhConfig(lam=1.0, alpha=1.0, d=3, m=1, k=2)
    stats = HybridStatistics(3, 1, lam=1.0)
    with pytest.raises(DimensionMismatchError):
        select_slate(stats, config, catalog, catalog.all_items())
    # the config agrees with the catalog, the statistics do not
    config = LmdhConfig(lam=1.0, alpha=1.0, d=2, m=1, k=2)
    for d, m in ((1, 1), (2, 2)):
        stats = HybridStatistics(d, m, lam=1.0)
        with pytest.raises(DimensionMismatchError) as excinfo:
            select_slate(stats, config, catalog, catalog.all_items())
        assert f"({d}, {m})" in str(excinfo.value)
        assert "(2, 1)" in str(excinfo.value)


def test_policy_learns_through_interface():
    rng = np.random.default_rng(23)
    catalog = random_catalog(rng, n_items=8, d=2, m=1)
    config = LmdhConfig(lam=1.0, alpha=0.8, d=2, m=1, k=3)
    policy = LmdhPolicy(config, catalog)
    gram = np.eye(3)  # lam * I plus every observed zeta zeta^T
    for _ in range(5):
        selection = policy.select(catalog.all_items())
        rewards = rng.uniform(0.0, 1.0, size=3)
        policy.observe(selection, rewards)
        zeta = np.hstack([selection.relevance_features, selection.diversity_features])
        gram += zeta.T @ zeta
    assert np.allclose(policy.stats.A, gram, rtol=0.0, atol=1e-12)
    theta, beta = estimate_preferences(policy.stats)
    assert not np.allclose(theta, 0.0)


def test_theoretical_alpha_reference_point():
    params = TheoryParams(n=1000, k=5, d=10, m=1, lam=1.0, delta=1.0 / 5000)
    value = theoretical_alpha(params)
    assert value == pytest.approx(10.1854, abs=1e-3)
    assert value == pytest.approx(10.19, abs=0.005)


def test_theoretical_alpha_vanishes_in_the_degenerate_limit(monkeypatch):
    monkeypatch.setattr(lmdh, "ETA_NORM_BOUND", 0.0)
    params = TheoryParams(n=0, k=5, d=10, m=1, lam=1.0, delta=1.0 - 1e-12)
    assert theoretical_alpha(params) == pytest.approx(0.0, abs=1e-5)


def test_theoretical_alpha_grows_with_horizon():
    values = [
        theoretical_alpha(TheoryParams(n=n, k=5, d=10, m=1, lam=1.0, delta=0.01))
        for n in (10, 100, 1000, 10000)
    ]
    assert values == sorted(values)
    assert values[0] < values[-1]


def test_regret_bound_zero_horizon():
    params = TheoryParams(n=0, k=5, d=10, m=1, lam=1.0, delta=0.5)
    alpha = theoretical_alpha(params)
    assert regret_upper_bound(params, alpha) == 0.0


def test_regret_bound_requires_theory_alpha():
    params = TheoryParams(n=100, k=5, d=10, m=1, lam=1.0, delta=0.01)
    with pytest.raises(PreconditionError):
        regret_upper_bound(params, 1.0)


def test_regret_bound_is_sublinear():
    # doubling the horizon twice scales the bound by < 2.5 once delta = 1/(nK)
    def bound(n):
        params = TheoryParams(n=n, k=5, d=10, m=1, lam=1.0, delta=1.0 / (n * 5))
        return regret_upper_bound(params, theoretical_alpha(params))

    for n in (10_000, 1_000_000):
        assert bound(4 * n) / bound(n) < 2.5


def test_width_budget_properties():
    base = TheoryParams(n=1000, k=5, d=10, m=1, lam=1.0, delta=0.01)
    assert lemma1_width_budget(
        TheoryParams(n=0, k=5, d=10, m=1, lam=1.0, delta=0.01)
    ) == 0.0
    more_rounds = TheoryParams(n=4000, k=5, d=10, m=1, lam=1.0, delta=0.01)
    bigger_slates = TheoryParams(n=1000, k=10, d=10, m=1, lam=1.0, delta=0.01)
    assert lemma1_width_budget(more_rounds) > lemma1_width_budget(base)
    assert lemma1_width_budget(bigger_slates) > lemma1_width_budget(base)
    assert lemma1_width_budget(base) == pytest.approx(1558.412, abs=0.01)


def test_config_validation():
    with pytest.raises(ValueError):
        LmdhConfig(lam=0.0, alpha=1.0, d=2, m=1, k=2)
    with pytest.raises(ValueError):
        LmdhConfig(lam=1.0, alpha=-0.5, d=2, m=1, k=2)
    with pytest.raises(ValueError):
        LmdhConfig(lam=1.0, alpha=1.0, d=0, m=1, k=2)
    with pytest.raises(ValueError):
        TheoryParams(n=10, k=5, d=10, m=1, lam=1.0, delta=1.5)
    with pytest.raises(ValueError):
        TheoryParams(n=-1, k=5, d=10, m=1, lam=1.0, delta=0.1)


# ---------------------------------------------------------------------------
# the shared selection memo


def stats_fields(stats: HybridStatistics) -> tuple:
    return tuple(a.tobytes() for a in (stats.A, stats.b, stats.W))


def key_b(key: bytes, config: LmdhConfig) -> np.ndarray:
    """The b that an LMDH memo key was made from: the bytes after W's."""
    dm = config.d + config.m
    return np.frombuffer(key[8 * dm * dm : 8 * dm * (dm + 1)])


class WithholdingEnvironment(ReplayEnvironment):
    """A replay world that also withholds `item` from round `t` on."""

    def __init__(self, catalog, user, t, item):
        super().__init__(catalog, user)
        self.t, self.item = t, item

    def candidates(self, t, k):
        mask = super().candidates(t, k)
        if t < self.t:
            return mask
        withheld = mask.copy()
        withheld[self.item] = False
        return withheld


def memo_world(rounds=8, k=3):
    """A catalog, a config and the users: a round-1 hit, a round-5 hit, no hit."""
    rng = np.random.default_rng(41)
    catalog = random_catalog(rng, n_items=40, d=3, m=1)
    config = LmdhConfig(lam=2.0, alpha=1.0, d=3, m=1, k=k)
    no_hit = run_episode(
        UnsharedLmdhPolicy(config, catalog),
        ReplayEnvironment(catalog, ReplayUser(0, frozenset())),
        rounds,
        k,
    )
    never_shown = set(range(40)) - {i for r in no_hit for i in r.items}
    users = [
        ReplayUser(1, frozenset({no_hit[0].items[2]})),
        ReplayUser(2, frozenset({no_hit[4].items[0], min(never_shown)})),
        ReplayUser(3, frozenset({min(never_shown)})),
    ]
    return catalog, config, users, rounds


def replay_users(config, catalog, environments, rounds, shared=False):
    """One policy per environment, all sharing the catalog's memo or all
    unshared; logs and stats."""
    runs = []
    for environment in environments:
        if shared:
            policy = LmdhPolicy(config, catalog)
        else:
            policy = UnsharedLmdhPolicy(config, catalog)
        log = run_episode(policy, environment, rounds, config.k)
        runs.append((log_fields(log), stats_fields(policy.stats)))
    return runs


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
def test_users_sharing_a_memo_match_a_fresh_policy_each(order, monkeypatch):
    catalog, config, users, rounds = memo_world()
    users = users[::order]
    fresh = replay_users(
        config, catalog, [ReplayEnvironment(catalog, u) for u in users], rounds
    )
    calls = count_selects(monkeypatch)
    shared = replay_users(
        config, catalog, [ReplayEnvironment(catalog, u) for u in users], rounds,
        shared=True,
    )
    assert shared == fresh
    first_hits = [
        next((t for t, r in enumerate(log, 1) if any(r[2])), None) for log, _ in fresh
    ]
    assert sorted(first_hits, key=str) == [1, 5, None]
    # the no-hit user's rounds once, then each hit user's rounds after its hit
    assert len(calls) == rounds + (rounds - 1) + (rounds - 5)
    # one entry per no-hit round, and none made after a hit
    entries = catalog.selections[config]
    assert len(entries) == rounds
    assert all(not key_b(key, config).any() for key in entries)


def test_memo_misses_on_other_candidates():
    catalog, config, users, rounds = memo_world()
    # the no-hit user's one positive is never on the shared slates
    (withheld,) = users[2].positives

    def environments(catalog):
        return [
            ReplayEnvironment(catalog, users[2]),  # fills the memo
            ReplayEnvironment(catalog, users[0]),
            WithholdingEnvironment(catalog, users[2], 3, withheld),
            ReplayEnvironment(catalog, users[1]),
        ]

    fresh = replay_users(config, catalog, environments(catalog), rounds)
    shared = replay_users(config, catalog, environments(catalog), rounds, shared=True)
    assert shared == fresh

    # on the memo of the no-hit user alone (a fresh world's, so it starts
    # empty), the withholding user takes stored selections for rounds 1 and
    # 2, then selects for itself at round 3
    catalog = memo_world()[0]
    replay_users(config, catalog, environments(catalog)[:1], rounds, shared=True)
    stored = dict(catalog.selections[config])
    policy = LmdhPolicy(config, catalog)
    environment = WithholdingEnvironment(catalog, users[2], 3, withheld)
    for t in (1, 2):
        cand = environment.candidates(t, config.k)
        stats = policy.stats
        entry = stored[stats.W.tobytes() + stats.b.tobytes() + np.packbits(cand).tobytes()]
        selection = policy.select(cand)
        assert selection is entry
        policy.observe(selection, environment.feedback(selection))
    stats = policy.stats
    unwithheld = ReplayEnvironment.candidates(environment, 3, config.k)
    assert stats.W.tobytes() + stats.b.tobytes() + np.packbits(unwithheld).tobytes() in stored
    selection = policy.select(environment.candidates(3, config.k))
    assert all(selection is not entry for entry in stored.values())


def test_an_entry_is_not_reused_for_a_factor_one_ulp_away(monkeypatch):
    catalog, config, _, _ = memo_world()
    calls = count_selects(monkeypatch)
    first = LmdhPolicy(config, catalog).select(catalog.all_items())
    nudged = LmdhPolicy(config, catalog)
    nudged.stats.W[0, 0] = np.nextafter(nudged.stats.W[0, 0], 1.0)
    reference = UnsharedLmdhPolicy(config, catalog)
    reference.stats.W[0, 0] = nudged.stats.W[0, 0]
    second = nudged.select(catalog.all_items())
    assert len(calls) == 2 and second is not first
    assert log_fields([second]) == log_fields([reference.select(catalog.all_items())])


def test_an_entry_is_not_reused_for_candidates_one_id_apart(monkeypatch):
    catalog, config, _, _ = memo_world()
    calls = count_selects(monkeypatch)
    first = LmdhPolicy(config, catalog).select(catalog.all_items())
    # drop an id the first slate did not take, so the slate could stay the same
    fewer = np.setdiff1d(catalog.all_items(), [max(set(range(40)) - set(first.slate.items))])
    second = LmdhPolicy(config, catalog).select(fewer)
    assert len(calls) == 2 and second is not first
    reference = UnsharedLmdhPolicy(config, catalog).select(fewer)
    assert log_fields([second]) == log_fields([reference])


def select_twice(policy, candidates, zeros, shown):
    first = policy.select(candidates)
    policy.select(candidates)
    policy.observe(first, zeros)
    return [stats_fields(policy.stats)]


def read_stats_mid_round(policy, candidates, zeros, shown):
    first = policy.select(candidates)
    policy.observe(first, zeros)
    second = policy.select(np.setdiff1d(candidates, first.slate.items))
    mid_round = stats_fields(policy.stats)
    policy.observe(second, zeros)
    return [mid_round, stats_fields(policy.stats)]


def observe_without_select(policy, candidates, zeros, shown):
    policy.observe(shown, zeros)
    return [stats_fields(policy.stats)]


@pytest.mark.parametrize(
    "drive", [select_twice, read_stats_mid_round, observe_without_select]
)
def test_a_memo_policy_matches_a_fresh_one_in_any_call_order(drive):
    catalog, config, users, _ = memo_world()
    candidates, zeros = catalog.all_items(), np.zeros(config.k)
    walker = LmdhPolicy(config, catalog)
    run_episode(walker, ReplayEnvironment(catalog, users[2]), 3, config.k)
    shown = next(iter(catalog.selections[config].values()))  # the round-1 selection
    fresh = drive(UnsharedLmdhPolicy(config, catalog), candidates, zeros, shown)
    assert drive(LmdhPolicy(config, catalog), candidates, zeros, shown) == fresh


def test_assigned_statistics_are_the_policys_own_and_the_memo_is_bound():
    catalog, config, _, _ = memo_world()
    policy = LmdhPolicy(config, catalog)
    own = HybridStatistics(3, 1, lam=2.0)
    policy.stats = own
    stored = policy.select(catalog.all_items())
    policy.observe(stored, np.ones(config.k))
    assert policy.stats is own and own.b.any()
    (key,) = catalog.selections[config]
    assert not key_b(key, config).any()
    # another config, and another catalog of the same values, each select
    # from the same bytes under their own memo; no entry crosses
    other = random_catalog(np.random.default_rng(41), n_items=40, d=3, m=1)
    assert other.relevance.tobytes() == catalog.relevance.tobytes()
    for other_config, world in (
        (dataclasses.replace(config, alpha=0.5), catalog), (config, other)
    ):
        selection = LmdhPolicy(other_config, world).select(world.all_items())
        assert selection is not stored
        assert world.selections[other_config] == {key: selection}
        reference = UnsharedLmdhPolicy(other_config, world).select(world.all_items())
        assert log_fields([selection]) == log_fields([reference])
    assert catalog.selections[config] == {key: stored}
    assert list(other.selections) == [config]


# ---------------------------------------------------------------------------
# the shared slate records


def new_world(n_items, m):
    """The simulated study's cosine world at m = 1, a random-table one at m = 2."""
    if m == 1:
        return study_instance(43, n_items=n_items, d=3, k=3).catalog
    return random_catalog(np.random.default_rng(43), n_items=n_items, d=3, m=m)


def two_users_one_slate(n_items, m, trained):
    """A world, and the selections of two users who show one ordered slate:
    the second has an item closed that the first's slate did not take,
    which changes no pass's argmax, so their selection memo keys differ."""
    rng = np.random.default_rng(43)
    catalog = new_world(n_items, m)
    config = LmdhConfig(lam=1.0, alpha=0.3, d=3, m=m, k=3)
    stats = HybridStatistics(3, m, lam=1.0)
    if trained:  # b is not zero, so the policies call `select_slate` directly
        stats = trained_stats(rng, catalog, config.k, rounds=3)
        stats.b = stats.A @ np.append(3.0 * rng.uniform(-1.0, 1.0, size=3), [-0.5] * m)
    policies = [LmdhPolicy(config, catalog) for _ in range(2)]
    for policy in policies:
        policy.stats = copy.deepcopy(stats)
    first = policies[0].select(catalog.all_items())
    closed = max(set(range(n_items)) - set(first.slate.items))
    second = policies[1].select(np.setdiff1d(catalog.all_items(), [closed]))
    return catalog, config, stats, first, second


@pytest.mark.parametrize(
    "n_items, m, trained",
    [(20, 1, False), (200, 1, True), (20, 2, False), (20, 2, True)],
    ids=["m1-L20", "m1-pruned", "m2-fresh", "m2-trained"],
)
def test_users_showing_one_slate_share_its_slate_and_feature_blocks(
    monkeypatch, n_items, m, trained
):
    rows_scored = []
    fill = lmdh.greedy_fill

    def logged_fill(acc, *args):
        rows_scored.append(acc.shape[0])
        return fill(acc, *args)

    monkeypatch.setattr(lmdh, "greedy_fill", logged_fill)
    catalog, config, stats, first, second = two_users_one_slate(n_items, m, trained)
    # each user selected for itself, in one run of passes over every item or,
    # with more than 16k candidates, over the bound's survivors alone
    assert len(rows_scored) == 2
    assert (max(rows_scored) < n_items // 4) is (n_items > 16 * config.k)
    assert second is not first and second.widths is not first.widths
    assert second.slate is first.slate
    assert second.relevance_features is first.relevance_features
    assert second.diversity_features is first.diversity_features
    assert list(catalog.slate_records) == [first.slate.items]
    for block in (first.relevance_features, first.diversity_features):
        assert not block.flags.writeable
    # a fresh select on a new catalog of the same values has the same bits
    fresh_world = new_world(n_items, m)
    fresh = select_slate(stats, config, fresh_world, fresh_world.all_items())
    assert log_fields([first]) == log_fields([second]) == log_fields([fresh])
