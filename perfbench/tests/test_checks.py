"""The output checks flag what they should and pass what they should."""

import numpy as np

import checks


def write(path, text):
    path.write_text(text)
    return path


def test_regret_check_flags_budget_overrun_and_non_finite(tmp_path):
    header = "round,scaled_regret,raw_regret,bound,width_sum,width_budget\n"
    good = write(tmp_path / "good.csv", header + "1,0.5,0.1,,2.0,3.0\n")
    bad = write(tmp_path / "bad.csv", header + "1,nan,0.1,,2.0,3.0\n2,0.5,0.1,,4.0,3.0\n")
    assert checks.check_regret(good) == []
    problems = checks.check_regret(bad)
    assert len(problems) == 2 and "non-finite" in problems[0] and "width_sum" in problems[1]


def test_metrics_check_flags_ranges_and_growing_alive_counts(tmp_path):
    header = "round,metric,beta,value,n_users\n"
    good = write(tmp_path / "good.csv", header + "1,recall,,0.5,3\n1,diversity,,1.5,3\n"
                 "2,recall,,0.7,2\n")
    bad = write(tmp_path / "bad.csv", header + "1,recall,,1.5,2\n1,diversity,,2.5,2\n"
                "2,recall,,0.7,3\n")
    assert checks.check_metrics(good) == []
    problems = checks.check_metrics(bad)
    assert len(problems) == 3 and "increase" in problems[-1]


def test_ratio_check_applies_the_floor_only_where_the_guarantee_holds(tmp_path):
    rows = "K,user,greedy_value,optimal_value,ratio\n2,0,1,1,1.0\n2,1,1,5,0.2\n2,2,1,5,0.2\n"
    path = write(tmp_path / "ratios.csv", rows)
    assert checks.check_ratios(path, [True, True, False]) == [1]
    assert checks.check_ratios(path, [True]) == [0, 1, 2]  # row count mismatch


def test_ridge_gap_is_small_for_the_learner_and_large_for_a_wrong_estimate():
    from dispersion_bandit.environments import (
        SimulatedEnvironment, run_episode, study_instance,
    )
    from dispersion_bandit.lmdh import LmdhConfig, LmdhPolicy, estimate_preferences

    instance = study_instance(3, n_items=20, d=10, k=5)
    policy = LmdhPolicy(LmdhConfig(lam=1.0, alpha=1.0, d=10, m=1, k=5), instance.catalog)
    log = run_episode(policy, SimulatedEnvironment(instance), 50, 5)
    estimate = np.concatenate(estimate_preferences(policy.stats))
    assert checks.ridge_gap(estimate, log, 1.0) <= checks.RIDGE_TOLERANCE
    assert checks.ridge_gap(estimate + 1e-3, log, 1.0) > checks.RIDGE_TOLERANCE
