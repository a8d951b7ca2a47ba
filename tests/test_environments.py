"""Tests for the simulated and replay feedback worlds."""

import numpy as np
import pytest

from dispersion_bandit import environments
from dispersion_bandit.baselines import LogRankPolicy, SlateSelection, StaticScorer
from dispersion_bandit.catalog import (
    ItemCatalog,
    PreferenceVector,
    Slate,
    slate_features,
    utility,
)
from dispersion_bandit.environments import (
    ReplayEnvironment,
    ReplayUser,
    SimInstance,
    SimulatedEnvironment,
    study_instance,
    run_episode,
)
from dispersion_bandit.errors import (
    DimensionMismatchError,
    ExhaustedCandidatesError,
    InvalidFeedbackError,
    InvalidItemError,
    ProtocolViolationError,
)
from dispersion_bandit.greedy import greedy_select
from dispersion_bandit.lmdh import (
    HybridStatistics,
    LmdhConfig,
    LmdhPolicy,
    update,
)
from dispersion_bandit.seeding import REWARDS, rng_from_seed

from conftest import TableDistanceMetric, logged
from oracles import gains_oracle, slate_features_oracle, utility_oracle


def zero_eta_instance(seed=5, n_items=6, d=3):
    inst = study_instance(seed, n_items=n_items, d=d, k=3)
    eta = PreferenceVector(np.zeros(d), np.zeros(1))
    return SimInstance(inst.catalog, eta, seed=seed)


def test_study_instance_ranges_and_determinism():
    a = study_instance(123, n_items=20, d=10, k=5)
    b = study_instance(123, n_items=20, d=10, k=5)
    assert a.catalog.relevance.shape == (20, 10)
    assert np.all(a.catalog.relevance >= 0.0) and np.all(a.catalog.relevance <= 0.5)
    assert np.all(a.eta_star.theta >= 0.0) and np.all(a.eta_star.theta <= 0.2)
    assert np.all(a.eta_star.beta >= 0.0) and np.all(a.eta_star.beta <= 0.2)
    assert np.array_equal(a.catalog.relevance, b.catalog.relevance)
    assert np.array_equal(a.eta_star.theta, b.eta_star.theta)
    c = study_instance(124, n_items=20, d=10, k=5)
    assert not np.array_equal(a.catalog.relevance, c.catalog.relevance)


def test_sim_instance_validates_dimensions():
    inst = study_instance(7, n_items=5, d=4, k=2)
    with pytest.raises(DimensionMismatchError):
        SimInstance(inst.catalog, PreferenceVector(np.zeros(3), np.zeros(1)), seed=7)
    with pytest.raises(DimensionMismatchError):
        SimInstance(inst.catalog, PreferenceVector(np.zeros(4), np.zeros(2)), seed=7)


def slate_means(slate, instance):
    """(Bernoulli means, clamps) of a slate of `instance`'s catalog under its
    eta*: each position's `gains_oracle` gain clamped into [0, 1], and how
    many gains lay outside it."""
    gains = gains_oracle(*slate_features(slate, instance.catalog), instance.eta_star)
    return np.clip(gains, 0.0, 1.0), sum(g < 0.0 or g > 1.0 for g in gains)


def bernoulli_feedback(slate, env):
    return env.feedback(SlateSelection(slate))


def test_bernoulli_zero_eta_gives_zero_rewards():
    inst = zero_eta_instance()
    slate = Slate((0, 1, 2))
    rewards = bernoulli_feedback(slate, SimulatedEnvironment(inst))
    assert np.array_equal(rewards, np.zeros(3))


def test_bernoulli_saturated_mean_gives_one_rewards():
    # enormous positive weights push every position mean past 1, so after
    # clamping each reward is a certain click
    inst = study_instance(9, n_items=6, d=3, k=3)
    eta = PreferenceVector(np.full(3, 50.0), np.zeros(1))
    pumped = SimInstance(inst.catalog, eta, seed=9)
    slate = Slate((0, 1, 2))
    means, hits = slate_means(slate, pumped)
    assert np.array_equal(means, np.ones(3))
    assert hits == 3
    rewards = bernoulli_feedback(slate, SimulatedEnvironment(pumped))
    assert np.array_equal(rewards, np.ones(3))


def test_clamp_hits_and_rewards_match_a_hand_count():
    # gains 1.5, -0.25, 0.0, 1.0, NaN and 0.5 + 0.75: positions 0, 1 and 5
    # clamp; 0.0 and 1.0 lie in [0, 1], and NaN is neither below 0 nor above 1.
    # A mean of 0 (or NaN) never beats a draw in [0, 1), and a mean of 1 always
    # does, so every reward is known whatever the stream draws.
    relevance = np.array([[1.5], [-0.25], [0.0], [1.0], [np.nan], [0.5]])
    table = np.zeros((6, 6))
    table[0, 5] = table[5, 0] = 0.75
    catalog = ItemCatalog(relevance, (TableDistanceMetric(table),))
    eta = PreferenceVector(np.array([1.0]), np.array([1.0]))
    env = SimulatedEnvironment(SimInstance(catalog, eta, seed=0))
    for rounds in (1, 2):
        rewards = bernoulli_feedback(Slate((0, 1, 2, 3, 4, 5)), env)
        assert rewards.tolist() == [1.0, 0.0, 0.0, 1.0, 0.0, 1.0]
        assert env.clamp_hits == 3 * rounds


def test_bernoulli_click_rate_matches_mean():
    # Monte Carlo against the analytic clamped means, 3 sigma tolerance
    inst = study_instance(11, n_items=8, d=10, k=3)
    slate = Slate((0, 3, 5))
    means, _ = slate_means(slate, inst)
    draws = 100_000
    env = SimulatedEnvironment(inst)
    selection = SlateSelection(slate)
    total = np.zeros(3)
    for _ in range(draws):
        total += env.feedback(selection)
    freq = total / draws
    sigma = np.sqrt(means * (1.0 - means) / draws)
    assert np.all(np.abs(freq - means) <= 3.0 * sigma + 1e-9), (freq, means)


def test_position_means_depend_on_prefix():
    inst = study_instance(13, n_items=6, d=3, k=3)
    m1, _ = slate_means(Slate((0, 1)), inst)
    m2, _ = slate_means(Slate((1, 0)), inst)
    # first positions differ (different items), later positions fold in the
    # diversity marginal against the prefix
    assert m1[0] != m2[0]


def replay_feedback(env: ReplayEnvironment, items: tuple[int, ...]) -> np.ndarray:
    """`env`'s rewards for a slate of `items` (replay reads no features)."""
    return env.feedback(SlateSelection(Slate(items)))


def open_items(env: ReplayEnvironment) -> set[int]:
    """The items `env` still offers (a one-item request never runs out first)."""
    return set(np.flatnonzero(env.candidates(0, 1)).tolist())


def test_replay_feedback_membership():
    catalog = study_instance(20, n_items=10, d=3, k=3).catalog
    user = ReplayUser(user_id=1, positives=frozenset({3, 7}))
    env = ReplayEnvironment(catalog, user)
    rewards = replay_feedback(env, (7, 1, 3))
    assert np.array_equal(rewards, [1.0, 0.0, 1.0])
    assert open_items(env) == set(range(10)) - {1, 3, 7}


def test_replay_feedback_rejects_repeats():
    catalog = study_instance(20, n_items=10, d=3, k=3).catalog
    user = ReplayUser(user_id=2, positives=frozenset({0}))
    env = ReplayEnvironment(catalog, user)
    replay_feedback(env, (0, 1))
    replay_feedback(env, (9,))
    with pytest.raises(ProtocolViolationError) as exc:
        replay_feedback(env, (2, 9, 1))
    assert str(exc.value) == "user 2 was already shown items [1, 9]"
    assert open_items(env) == set(range(2, 9))  # a rejected slate closes nothing


@pytest.mark.parametrize("bad", [-1, 10])
def test_replay_feedback_rejects_ids_outside_the_catalog(bad):
    catalog = study_instance(20, n_items=10, d=3, k=2).catalog
    env = ReplayEnvironment(catalog, ReplayUser(user_id=4, positives=frozenset({9})))

    class OutOfRangePolicy:
        def select(self, candidates):
            return SlateSelection(Slate((0, bad)))

        def observe(self, selection, rewards):
            pass

    with pytest.raises(InvalidItemError) as exc:
        run_episode(OutOfRangePolicy(), env, 3, 2)
    assert str(exc.value) == (
        f"round 1: user 4 was shown items [{bad}] outside the catalog's 10 items"
    )
    assert open_items(env) == set(range(10))  # closes nothing, not even item 9


def test_replay_feedback_all_in_and_all_out():
    catalog = study_instance(20, n_items=10, d=3, k=3).catalog
    user = ReplayUser(user_id=3, positives=frozenset({0, 1, 2}))
    env = ReplayEnvironment(catalog, user)
    assert np.array_equal(replay_feedback(env, (0, 1, 2)), np.ones(3))
    assert np.array_equal(replay_feedback(env, (4, 5)), np.zeros(2))


def test_candidate_set_removes_shown_items():
    catalog = study_instance(20, n_items=10, d=3, k=3).catalog
    env = ReplayEnvironment(catalog, ReplayUser(user_id=0, positives=frozenset()))
    assert np.array_equal(np.flatnonzero(env.candidates(1, 3)), np.arange(10))
    replay_feedback(env, (1, 4, 7))
    remaining = env.candidates(2, 3)
    assert remaining.dtype == bool and remaining.shape == (10,)
    assert np.array_equal(np.flatnonzero(remaining), [0, 2, 3, 5, 6, 8, 9])
    replay_feedback(env, (0, 2, 3, 5, 6))
    with pytest.raises(ExhaustedCandidatesError, match="round 3: 2 candidates left, need 3"):
        env.candidates(3, 3)


def test_simulated_environment_counts_clamps():
    inst = study_instance(21, n_items=6, d=3, k=3)
    eta = PreferenceVector(np.full(3, 50.0), np.full(1, 50.0))
    pumped = SimInstance(inst.catalog, eta, seed=21)
    env = SimulatedEnvironment(pumped)
    selection = SlateSelection(Slate((0, 1, 2)))
    env.feedback(selection)
    assert env.clamp_hits == 3


def test_true_utility_is_utility_bit_for_bit():
    # three cases: the slate feedback just scored (its features are reused),
    # another slate, and no feedback at all
    inst = study_instance(23, n_items=9, d=4, k=4)
    eta = PreferenceVector(np.full(4, 0.6), np.full(1, 3.0))  # some means clamp
    pumped = SimInstance(inst.catalog, eta, seed=23)
    rng = np.random.default_rng(23)
    fresh = SimulatedEnvironment(pumped)
    env = SimulatedEnvironment(pumped)
    total_hits = 0
    for _ in range(30):
        shown, other = (
            Slate(tuple(rng.choice(9, size=4, replace=False).tolist()))
            for _ in range(2)
        )
        want = {s: utility(s, eta, inst.catalog) for s in (shown, other)}
        assert fresh.true_utility(shown.items).hex() == want[shown].hex()
        env.feedback(SlateSelection(shown))
        total_hits += slate_means(shown, pumped)[1]
        assert env.true_utility(shown.items).hex() == want[shown].hex()
        assert env.true_utility(other.items).hex() == want[other].hex()
        assert env.true_utility(shown.items).hex() == want[shown].hex()
    assert env.clamp_hits == total_hits > 0
    assert fresh.clamp_hits == 0


def test_feedback_scores_each_distinct_ordered_slate_once(monkeypatch):
    # a slate and its reverse are two keys with different gains; every repeat
    # is served from the world's truth of that slate, yet its rewards, clamps
    # and F(A) keep the bits of a fresh per-call computation
    inst = study_instance(29, n_items=9, d=4, k=4)
    eta = PreferenceVector(np.full(4, 0.6), np.full(1, 3.0))  # some means clamp
    pumped = SimInstance(inst.catalog, eta, seed=29, index=2)
    scored = []

    def counting(slate, catalog):
        scored.append(slate.items)
        return slate_features(slate, catalog)

    monkeypatch.setattr(environments, "slate_features", counting)
    slates = [Slate((0, 3, 5, 8)), Slate((8, 5, 3, 0)), Slate((1, 2, 4, 6))]
    gains = {
        s: gains_oracle(*slate_features_oracle(s, inst.catalog), eta) for s in slates
    }
    assert gains[slates[0]] != gains[slates[1]]
    env = SimulatedEnvironment(pumped)
    draws = rng_from_seed(29, REWARDS, 2)
    order = np.random.default_rng(29).integers(len(slates), size=60).tolist()
    hits = 0
    for slate in (slates[i] for i in order):
        means = [min(max(g, 0.0), 1.0) for g in gains[slate]]
        want = [1.0 if draw < mean else 0.0 for draw, mean in zip(draws.random(4), means)]
        hits += sum(g < 0.0 or g > 1.0 for g in gains[slate])
        assert env.feedback(SlateSelection(slate)).tolist() == want
        assert env.clamp_hits == hits
        want_value = utility_oracle(slate, eta, inst.catalog)
        assert env.true_utility(slate.items).hex() == want_value.hex()
    assert sorted(scored) == sorted(s.items for s in slates)
    assert hits > 0 and len(order) > 2 * len(slates)


def test_simulated_environment_presents_full_ground_set():
    inst = study_instance(22, n_items=7, d=3, k=3)
    env = SimulatedEnvironment(inst)
    for t in (1, 5, 100):
        assert np.array_equal(np.flatnonzero(env.candidates(t, 3)), np.arange(7))


def test_a_handed_out_mask_never_changes_and_refuses_writes():
    catalog = study_instance(20, n_items=10, d=3, k=3).catalog
    env = ReplayEnvironment(catalog, ReplayUser(user_id=0, positives=frozenset()))
    first = env.candidates(1, 3)
    held = first.copy()
    replay_feedback(env, (2, 5, 8))
    second = env.candidates(2, 3)
    replay_feedback(env, (0, 1, 3))
    assert np.array_equal(first, held) and first.all()
    assert np.flatnonzero(~second).tolist() == [2, 5, 8]
    sim = SimulatedEnvironment(study_instance(22, n_items=7, d=3, k=3))
    for mask in (first, second, sim.candidates(1, 3)):
        with pytest.raises(ValueError, match="read-only"):
            mask[0] = False


def test_run_episode_zero_rounds():
    inst = study_instance(24, n_items=6, d=3, k=2)
    env = SimulatedEnvironment(inst)
    scorer = StaticScorer(np.zeros(3), inst.catalog)
    log = run_episode(LogRankPolicy(scorer, k=2), env, 0, 2)
    assert len(log) == 0


def test_run_episode_is_deterministic():
    def one_run():
        inst = study_instance(25, n_items=8, d=3, k=3)
        env = SimulatedEnvironment(inst)
        policy = LmdhPolicy(LmdhConfig(lam=1.0, alpha=1.0, d=3, m=1, k=3), inst.catalog)
        return run_episode(policy, env, 12, 3)

    log_a, log_b = one_run(), one_run()
    assert len(log_a) == len(log_b) == 12
    for ra, rb in zip(log_a, log_b):
        assert ra.items == rb.items
        assert ra.rewards == rb.rewards
        assert np.array_equal(ra.widths, rb.widths)


def test_run_episode_logs_simulation_fields():
    inst = study_instance(26, n_items=8, d=3, k=3)
    env = SimulatedEnvironment(inst)
    policy = LmdhPolicy(LmdhConfig(lam=1.0, alpha=1.0, d=3, m=1, k=3), inst.catalog)
    log = run_episode(policy, env, 4, 3)
    for entry in log:
        assert entry.num_candidates == 8
        assert len(entry.items) == 3
        assert all(r in (0.0, 1.0) for r in entry.rewards)
        assert entry.widths is not None and entry.widths.shape == (3,)
        # the world keeps the F(A) of every slate it showed
        expected = utility(
            Slate(entry.items), inst.eta_star, inst.catalog
        )
        assert env.true_utility(entry.items) == pytest.approx(expected, abs=1e-12)
    assert len(log) == 4


def test_trial_rounds_hold_python_floats_and_ints():
    # CSVs are written with repr, and a numpy 2 scalar's repr is np.float64(...)
    inst = study_instance(31, n_items=8, d=3, k=3)
    policy = LmdhPolicy(LmdhConfig(lam=1.0, alpha=1.0, d=3, m=1, k=3), inst.catalog)
    env = SimulatedEnvironment(inst)
    log = run_episode(policy, env, 5, 3)
    for entry in log:
        assert entry.rewards and all(type(r) is float for r in entry.rewards)
        assert all(type(a) is int for a in entry.items)
        assert type(env.true_utility(entry.items)) is float


def test_run_episode_trained_lmdh_matches_greedy_oracle():
    # alpha = 0 with statistics already pinned to eta* must reproduce the
    # true-greedy slate (the learner has nothing left to explore)
    inst = study_instance(27, n_items=10, d=3, k=4)
    rng = np.random.default_rng(70)
    stats = HybridStatistics(3, 1, lam=1e-6)
    theta_star, beta_star = inst.eta_star.theta, inst.eta_star.beta
    for _ in range(400):
        Z = rng.uniform(0.0, 1.0, size=(5, 3))
        X = rng.uniform(0.0, 2.0, size=(5, 1))
        w = np.clip(Z @ theta_star + X @ beta_star, 0.0, 1.0)
        update(stats, logged(Z, X), w)
    policy = LmdhPolicy(LmdhConfig(lam=1e-6, alpha=0.0, d=3, m=1, k=4), inst.catalog)
    policy.stats = stats
    env = SimulatedEnvironment(inst)
    log = run_episode(policy, env, 3, 4)
    reference = greedy_select(inst.eta_star, inst.catalog, inst.catalog.all_items(), 4)
    for entry in log:
        assert entry.items == reference.slate.items


def test_replay_episode_consumes_and_terminates_gracefully():
    # L = 7, K = 2: rounds 1-3 fit, round 4 finds only 1 candidate and stops
    inst = study_instance(28, n_items=7, d=3, k=2)
    user = ReplayUser(user_id=5, positives=frozenset({2, 4}))
    env = ReplayEnvironment(inst.catalog, user)
    scorer = StaticScorer(np.ones(3), inst.catalog)
    policy = LogRankPolicy(scorer, k=2)
    log = run_episode(policy, env, 10, 2)
    assert len(log) == 3
    shown = [item for entry in log for item in entry.items]
    assert len(shown) == len(set(shown))  # never repeats an item
    assert open_items(env) == set(range(7)) - set(shown)
    sizes = [entry.num_candidates for entry in log]
    assert sizes == [7, 5, 3]
    # a static policy logs no features
    for entry in log:
        assert entry.relevance_features is entry.diversity_features is entry.widths is None


def test_replay_rewards_are_policy_independent():
    inst = study_instance(29, n_items=9, d=3, k=2)
    slates = [Slate((0, 4)), Slate((2, 7))]
    outcomes = []
    for _ in range(2):
        user = ReplayUser(user_id=1, positives=frozenset({4, 7}))
        env = ReplayEnvironment(inst.catalog, user)
        outcome = [tuple(replay_feedback(env, s.items)) for s in slates]
        outcomes.append(outcome)
    assert outcomes[0] == outcomes[1] == [(0.0, 1.0), (0.0, 1.0)]


def test_run_episode_annotates_errors_with_round():
    inst = study_instance(30, n_items=6, d=3, k=2)
    env = SimulatedEnvironment(inst)

    class FaultyPolicy:
        name = "faulty"
        calls = 0

        def select(self, candidates):
            scorer = StaticScorer(np.zeros(3), inst.catalog)
            self.calls += 1
            if self.calls == 3:
                raise InvalidFeedbackError("synthetic fault")
            return LogRankPolicy(scorer, k=2).select(candidates)

        def observe(self, selection, rewards):
            pass

    with pytest.raises(InvalidFeedbackError, match="round 3"):
        run_episode(FaultyPolicy(), env, 5, 2)

