"""Tests for metrics and regret, anchored on hand-computed examples."""

import numpy as np
import pytest

from dispersion_bandit import evaluation
from dispersion_bandit.catalog import ItemCatalog, unit_rows, utility
from dispersion_bandit.environments import (
    SimulatedEnvironment,
    TrialRound,
    study_instance,
    run_episode,
)
from dispersion_bandit.errors import (
    PreconditionError,
    UndefinedDiversityError,
    UndefinedSimilarityError,
)
from dispersion_bandit.evaluation import (
    MetricSeries,
    RegretSeries,
    average_regret,
    _ordered_mean,
    compute_metric_series,
    f_beta_at,
    scaled_regret,
    slate_diversity,
    write_metrics_csv,
    write_regret_csv,
)
from dispersion_bandit.greedy import GAMMA, exhaustive_optimum
from dispersion_bandit.lmdh import LmdhConfig, LmdhPolicy

from conftest import TableDistanceMetric


def fake_round(items, rewards=None, widths=None):
    k = len(items)
    return TrialRound(
        num_candidates=20,
        items=tuple(items),
        rewards=tuple(rewards) if rewards else tuple(0.0 for _ in items),
        relevance_features=np.zeros((k, 2)),
        diversity_features=np.zeros((k, 1)),
        widths=None if widths is None else np.asarray(widths, dtype=np.float64),
    )


def fake_log(round_items):
    return tuple(fake_round(items) for items in round_items)


# ---------------------------------------------------------------------------
# oracles: recall and diversity at one round, recomputed from round 1 (O(t^2)
# over a series); compute_metric_series keeps running sums instead


def recall_at(logs, positives, t: int) -> float:
    """Mean over alive users of sum_{l<=t} |A_l intersect I| / |I|."""
    contributions = []
    for log, pos in zip(logs, positives):
        if len(log) < t:
            continue  # user's episode ended before t
        hits = sum(
            1 for entry in log[:t] for item in entry.items if item in pos
        )
        contributions.append(hits / len(pos))
    if not contributions:
        raise PreconditionError(f"no user is alive at round {t}")
    return _ordered_mean(contributions)


def diversity_at(logs, catalog, t: int) -> float:
    """Per user: average slate diversity over rounds 1..t; then mean over users."""
    unit = unit_rows(catalog.relevance)
    contributions = []
    for log in logs:
        if len(log) < t:
            continue
        per_round = [slate_diversity(entry.items, unit) for entry in log[:t]]
        contributions.append(float(np.sort(np.asarray(per_round)).sum() / t))
    if not contributions:
        raise PreconditionError(f"no user is alive at round {t}")
    return _ordered_mean(contributions)


def test_recall_hand_example():
    # two users, |I| = 4 each, 1 and 2 hits by round 2 -> (0.25 + 0.5)/2
    logs = [
        fake_log([(1, 2), (3, 4)]),  # hits: item 1 only
        fake_log([(5, 6), (7, 8)]),  # hits: items 5 and 7
    ]
    positives = [{1, 10, 11, 12}, {5, 7, 13, 14}]
    assert recall_at(logs, positives, 2) == pytest.approx(0.375, abs=1e-12)


def test_recall_extremes():
    logs = [fake_log([(0, 1), (2, 3)])]
    assert recall_at(logs, [{0, 1, 2, 3}], 2) == pytest.approx(1.0)
    assert recall_at(logs, [{9}], 2) == 0.0


def test_a_user_without_positives_raises_naming_the_user():
    logs = [fake_log([(0, 1)]), fake_log([(1, 2)])]
    with pytest.raises(PreconditionError, match="^user 1 has no positive items"):
        compute_metric_series(logs, [{0}, set()], diversity_catalog())


def test_recall_is_nondecreasing():
    logs = [fake_log([(0, 1), (4, 5), (2, 6)])]
    positives = [{0, 2, 4}]
    values = [recall_at(logs, positives, t) for t in (1, 2, 3)]
    assert values == sorted(values)


def diversity_catalog():
    # three unit vectors with pairwise cosine distances 0.2, 0.4, 0.6
    v1 = np.array([1.0, 0.0, 0.0])
    v2 = np.array([0.8, 0.6, 0.0])
    y = (0.4 - 0.48) / 0.6
    v3 = np.array([0.6, y, np.sqrt(1.0 - 0.36 - y * y)])
    relevance = np.vstack([v1, v2, v3])
    table = np.zeros((3, 3))
    return ItemCatalog(relevance, (TableDistanceMetric(table),))


def test_slate_diversity_hand_example():
    unit = unit_rows(diversity_catalog().relevance)
    assert slate_diversity((0, 1, 2), unit) == pytest.approx(0.4, abs=1e-12)


def test_slate_diversity_extremes():
    orthogonal = unit_rows(np.eye(3))
    assert slate_diversity((0, 1, 2), orthogonal) == pytest.approx(1.0)
    identical = unit_rows(np.tile([0.5, 0.5], (3, 1)))
    assert slate_diversity((0, 1, 2), identical) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(UndefinedDiversityError):
        slate_diversity((0,), orthogonal)


def test_a_slate_of_parallel_vectors_has_no_negative_diversity():
    # u . u can round to 1 + 2^-52, which made the raw mean distance of a
    # slate of one direction -2.2e-16, and `f_beta_at` raised on it
    rng = np.random.default_rng(0)
    clamped = 0
    for _ in range(40):
        relevance = np.tile(rng.uniform(-1.0, 1.0, 10), (3, 1))
        unit = unit_rows(relevance)
        sims = unit @ unit.T
        raw = float(np.sum(1.0 - sims[np.triu_indices(3, k=1)]) * 2.0 / 6)
        assert slate_diversity((0, 1, 2), unit) == max(raw, 0.0)
        clamped += raw < 0.0
        catalog = ItemCatalog(relevance, (TableDistanceMetric(np.zeros((3, 3))),))
        series = compute_metric_series([fake_log([(0, 1, 2)])], [{0}], catalog)
        assert series.diversity[0] >= 0.0
    assert clamped > 0


def test_metric_series_rejects_zero_norm_rows():
    catalog = ItemCatalog(
        np.array([[0.0, 0.0], [1.0, 0.0]]),
        (TableDistanceMetric(np.zeros((2, 2))),),
    )
    with pytest.raises(UndefinedSimilarityError):
        compute_metric_series([fake_log([(0, 1)])], [{0}], catalog)


def test_diversity_at_averages_rounds_then_users():
    catalog = diversity_catalog()
    logs = [fake_log([(0, 1), (0, 2)])]  # distances 0.2 then 0.4
    assert diversity_at(logs, catalog, 1) == pytest.approx(0.2, abs=1e-12)
    assert diversity_at(logs, catalog, 2) == pytest.approx(0.3, abs=1e-12)


def test_f_beta_hand_values():
    assert f_beta_at(0.5, 1.0, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-12)
    for beta in (1.0, 2.0, 0.5):
        assert f_beta_at(0.4, 0.4, beta) == pytest.approx(0.4, abs=1e-12)
    assert f_beta_at(0.0, 0.7, 1.0) == 0.0
    assert f_beta_at(0.0, 0.0, 2.0) == 0.0
    with pytest.raises(ValueError):
        f_beta_at(0.5, 0.5, 0.0)


def test_metric_series_aggregation_and_alive_counts():
    catalog = diversity_catalog()
    logs = [
        fake_log([(0, 1), (0, 2), (1, 2)]),
        fake_log([(0, 2)]),  # terminates after one round
    ]
    positives = [{0, 1}, {2, 9}]
    series = compute_metric_series(logs, positives, catalog)
    assert series.rounds.tolist() == [1, 2, 3]
    assert series.n_users.tolist() == [2, 1, 1]
    # round 1: user0 recall 2/2=1.0? items (0,1) both in {0,1} -> 1.0;
    # user1 items (0,2): hit 2 -> 1/2
    assert series.recall[0] == pytest.approx((1.0 + 0.5) / 2)
    # diversity round 1: user0 d(0,1)=0.2, user1 d(0,2)=0.4
    assert series.diversity[0] == pytest.approx(0.3, abs=1e-12)
    # rounds 2+ only user0 is alive; the literal cumulative sum counts the
    # repeated hit on item 0 again (replay logs never repeat, so there the
    # value stays within [0, 1])
    assert series.recall[1] == pytest.approx(1.5)
    assert np.all(np.diff(series.recall) >= -1e-12)
    for beta, values in series.f_beta.items():
        for i in range(3):
            assert values[i] == pytest.approx(
                f_beta_at(series.recall[i], series.diversity[i], beta)
            )


def test_metric_series_is_order_independent():
    catalog = diversity_catalog()
    logs = [
        fake_log([(0, 1), (1, 2)]),
        fake_log([(0, 2), (0, 1)]),
        fake_log([(1, 2)]),
    ]
    positives = [{0}, {2}, {1, 2}]
    series_a = compute_metric_series(logs, positives, catalog)
    order = [2, 0, 1]
    series_b = compute_metric_series(
        [logs[i] for i in order], [positives[i] for i in order], catalog
    )
    assert np.array_equal(series_a.recall, series_b.recall)
    assert np.array_equal(series_a.diversity, series_b.diversity)
    assert np.array_equal(series_a.n_users, series_b.n_users)


def test_metric_series_matches_per_round_oracles():
    rng = np.random.default_rng(78)
    relevance = rng.uniform(-1.0, 1.0, size=(12, 3))
    catalog = ItemCatalog(relevance, (TableDistanceMetric(np.zeros((12, 12))),))
    logs, positives = [], []
    for _ in range(6):
        rounds = int(rng.integers(1, 6))
        shown = rng.permutation(12)[: 2 * rounds].reshape(rounds, 2)
        logs.append(fake_log([tuple(int(i) for i in pair) for pair in shown]))
        positives.append(set(rng.choice(12, size=rng.integers(1, 6), replace=False).tolist()))
    series = compute_metric_series(logs, positives, catalog)
    for t in series.rounds:
        assert series.recall[t - 1] == pytest.approx(recall_at(logs, positives, t), abs=1e-12)
        assert series.diversity[t - 1] == pytest.approx(
            diversity_at(logs, catalog, t), abs=1e-12
        )


def metric_series_loop(logs, positives, catalog, betas=(1.0, 2.0)):
    """compute_metric_series as it stood before slate diversities were shared:
    `slate_diversity` runs for every user and round."""
    horizon = max(len(log) for log in logs)
    rounds = np.arange(1, horizon + 1)
    recall, diversity = np.zeros(horizon), np.zeros(horizon)
    n_users = np.zeros(horizon, dtype=np.intp)
    unit = unit_rows(catalog.relevance)
    hit_fractions = [0.0 for _ in logs]
    diversity_sums = [0.0 for _ in logs]
    for t in rounds:
        rec_vals, div_vals = [], []
        for i, (log, pos) in enumerate(zip(logs, positives)):
            if len(log) < t:
                continue
            entry = log[t - 1]
            hit_fractions[i] += sum(1 for item in entry.items if item in pos) / len(pos)
            diversity_sums[i] += slate_diversity(entry.items, unit)
            rec_vals.append(hit_fractions[i])
            div_vals.append(diversity_sums[i] / t)
        n_users[t - 1] = len(rec_vals)
        recall[t - 1] = _ordered_mean(rec_vals)
        diversity[t - 1] = _ordered_mean(div_vals)
    f_beta = {
        float(b): np.array([f_beta_at(recall[i], diversity[i], b) for i in range(horizon)])
        for b in betas
    }
    return MetricSeries(rounds, recall, diversity, f_beta, n_users)


@pytest.mark.parametrize("seed", range(5))
def test_shared_slate_diversities_match_the_per_user_loop(seed):
    rng = np.random.default_rng(seed)
    relevance = rng.uniform(-1.0, 1.0, size=(15, 4))
    catalog = ItemCatalog(relevance, (TableDistanceMetric(np.zeros((15, 15))),))
    # users and rounds repeat slates from a small pool; slates of one size that
    # share items or a prefix tell a memo on the whole tuple from one on less
    pool = [(0, 1, 2), (0, 1, 3), (2, 1, 0), (3, 4), (5, 6), (7, 8, 9, 10, 11)]
    pool += [tuple(int(i) for i in rng.choice(15, size=rng.integers(2, 6), replace=False))
             for _ in range(3)]
    logs = [
        fake_log([pool[j] for j in rng.integers(0, len(pool), rng.integers(1, 8))])
        for _ in range(9)
    ]
    positives = [set(rng.choice(15, size=rng.integers(1, 5), replace=False).tolist())
                 for _ in logs]
    got = compute_metric_series(logs, positives, catalog)
    want = metric_series_loop(logs, positives, catalog)
    for name in ("rounds", "recall", "diversity", "n_users"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.f_beta.keys() == want.f_beta.keys()
    assert all(got.f_beta[b].tobytes() == want.f_beta[b].tobytes() for b in got.f_beta)


def regret_instance(seed=77):
    return study_instance(seed, n_items=8, d=3, k=3)


def test_scaled_regret_on_optimal_play():
    # a log that always plays A*: raw regret 0, scaled per-step -3 F(A*)
    inst = regret_instance()
    best_items, best_value = exhaustive_optimum(
        inst.eta_star, inst.catalog, tuple(range(8)), 3
    )
    rounds = 3 * (fake_round(best_items),)
    series = scaled_regret(rounds, SimulatedEnvironment(inst))
    assert np.allclose(series.raw, 0.0, atol=1e-12)
    expected_step = best_value - best_value / 0.25
    assert np.allclose(series.scaled, expected_step * np.arange(1, 4), atol=1e-10)
    assert expected_step == pytest.approx(-3.0 * best_value)


def test_scaled_regret_raw_is_nonnegative_and_cumulative():
    inst = regret_instance(seed=78)
    env = SimulatedEnvironment(inst)
    policy = LmdhPolicy(LmdhConfig(lam=1.0, alpha=1.0, d=3, m=1, k=3), inst.catalog)
    log = run_episode(policy, env, 15, 3)
    series = scaled_regret(log, env)
    diffs = np.diff(np.concatenate([[0.0], series.raw]))
    assert np.all(diffs >= -1e-10)
    assert series.width_sum[-1] > 0.0
    assert np.all(np.diff(series.width_sum) >= 0.0)


def test_scaled_regret_searches_once_and_reads_the_worlds_truth(monkeypatch):
    # one exhaustive search over the whole catalog at the log's K, and each
    # round's F(A_t) is the truth the world kept for the slate it showed
    inst = regret_instance(seed=80)
    env = SimulatedEnvironment(inst)
    policy = LmdhPolicy(LmdhConfig(lam=1.0, alpha=1.0, d=3, m=1, k=3), inst.catalog)
    log = run_episode(policy, env, 12, 3)
    searches = []

    def counting(eta, catalog, candidates, k):
        searches.append((list(candidates), k))
        return exhaustive_optimum(eta, catalog, candidates, k)

    monkeypatch.setattr(evaluation, "exhaustive_optimum", counting)
    series = scaled_regret(log, env)
    assert searches == [(list(range(8)), 3)]
    _, best = exhaustive_optimum(inst.eta_star, inst.catalog, range(8), 3)
    values = np.array([utility(entry.items, inst.eta_star, inst.catalog) for entry in log])
    assert series.raw.tobytes() == np.cumsum(best - values).tobytes()
    assert series.scaled.tobytes() == np.cumsum(best - values / GAMMA).tobytes()


def test_zero_round_regret_is_three_empty_series(monkeypatch):
    inst = regret_instance(seed=81)
    env = SimulatedEnvironment(inst)
    policy = LmdhPolicy(LmdhConfig(lam=1.0, alpha=1.0, d=3, m=1, k=3), inst.catalog)
    monkeypatch.setattr(evaluation, "exhaustive_optimum", None)  # no K, no search
    series = scaled_regret(run_episode(policy, env, 0, 3), env)
    for curve in (series.scaled, series.raw, series.width_sum):
        assert curve.shape == (0,) and curve.dtype == np.float64


def test_average_regret():
    a = RegretSeries(
        scaled=np.array([1.0, 2.0]),
        raw=np.array([0.5, 1.0]),
        width_sum=np.array([2.0, 4.0]),
    )
    b = RegretSeries(
        scaled=np.array([3.0, 4.0]),
        raw=np.array([1.5, 2.0]),
        width_sum=np.array([4.0, 8.0]),
    )
    mean = average_regret([a, b])
    assert np.array_equal(mean.scaled, [2.0, 3.0])
    assert np.array_equal(mean.raw, [1.0, 1.5])
    assert np.array_equal(mean.width_sum, [3.0, 6.0])
    with pytest.raises(ValueError):
        average_regret([])


def test_write_metrics_csv_schema(tmp_path):
    catalog = diversity_catalog()
    logs = [fake_log([(0, 1), (1, 2)])]
    series = compute_metric_series(logs, [{0, 2}], catalog)
    path = tmp_path / "metrics.csv"
    write_metrics_csv(series, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "round,metric,beta,value,n_users"
    # per round: recall, diversity, and one row per beta
    assert len(lines) == 1 + 2 * (2 + len(series.f_beta))
    recall_row = lines[1].split(",")
    assert recall_row[:3] == ["1", "recall", ""]
    assert float(recall_row[3]) == pytest.approx(series.recall[0])


def test_write_regret_csv_schema(tmp_path):
    series = RegretSeries(
        scaled=np.array([-1.0, -2.0]),
        raw=np.array([0.1, 0.2]),
        width_sum=np.array([3.0, 5.5]),
    )
    path = tmp_path / "regret.csv"
    write_regret_csv(series, path, bounds=None, budgets=np.array([10.0, 20.0]))
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "round,scaled_regret,raw_regret,bound,width_sum,width_budget"
    row = lines[1].split(",")
    assert row[0] == "1" and row[3] == "" and float(row[5]) == 10.0
