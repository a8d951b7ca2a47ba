"""Whole runs of the program against every rule of an episode in plain form.

One simulated episode and one replay user run under each of the four
policies, in the program and in the reference of `oracles.py`: a plain
per-pass select whose estimates and widths are solved against A with
`np.linalg.solve`, a joint ridge that adds one outer product per logged
row, the plain quality, LogRank, MMR and epsilon-greedy rules, Bernoulli
feedback on the same reward stream and the replay membership rule.  Slates,
rewards and candidate counts must match exactly, and every float within
1e-12 relative to the sizes it is made of.

Besides, every select of the learner's run must have the bytes of the
per-pass oracle over every candidate, run on the program's own statistics,
which is what binds the program's arithmetic down to the last bit.
"""

import copy
from types import SimpleNamespace

import numpy as np
import pytest

from dispersion_bandit import cli, lmdh
from dispersion_bandit.baselines import StaticScorer
from dispersion_bandit.environments import (
    PREFERENCE_RANGE,
    SimulatedEnvironment,
    run_episode,
    study_instance,
)
from dispersion_bandit.greedy import GAMMA
from dispersion_bandit.ingest import split_users
from dispersion_bandit.lmdh import LmdhConfig
from dispersion_bandit.seeding import POLICY, REWARDS, rng_from_seed

from oracles import (
    ReferenceLearner,
    ReplayReference,
    SimulatedReference,
    StaticReference,
    epsilon_greedy_reference,
    logrank_reference,
    mmr_oracle,
    optimum_plain,
    reference_episode,
    reference_quality,
    select_slate_oracle,
)
from test_cli import random_tab_ratings

TOL = 1e-12
POLICIES = ("lmdh", "logrank", "mmr", "epsilon-greedy")
LAM, ALPHA, EPSILON, MMR_ALPHA = {"sim": 1.0, "replay": 50.0}, 1.0, 0.3, 0.8


def assert_close(got, want, size=None):
    """|got - want| <= TOL * size, entrywise; `size` defaults to |want|."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    size = np.abs(want) if size is None else np.asarray(size, dtype=float)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= TOL * size), np.max(np.abs(got - want) / size)


def checked_selects(monkeypatch) -> list:
    """Patch `lmdh.select_slate` to check every select it makes against the
    per-pass oracle on a copy of the same statistics, bit for bit."""
    checked = []
    select = lmdh.select_slate

    def checking(stats, config, catalog, candidates):
        want = select_slate_oracle(copy.deepcopy(stats), config, catalog, candidates)
        got = select(stats, config, catalog, candidates)
        assert got.slate.items == want[0]
        for array, expected in zip(
            (got.relevance_features, got.diversity_features, got.widths), want[1:4]
        ):
            assert array.tobytes() == expected.tobytes()
        checked.append(got)
        return got

    monkeypatch.setattr(lmdh, "select_slate", checking)
    return checked


def reference_policy(name, catalog, k, lam, quality, rng):
    if name == "lmdh":
        config = LmdhConfig(
            lam=lam, alpha=ALPHA, d=catalog.relevance_dim, m=catalog.diversity_dim, k=k
        )
        return ReferenceLearner(config, catalog)
    if name == "logrank":
        return StaticReference(lambda cand: logrank_reference(quality, cand, k))
    if name == "mmr":
        scorer = SimpleNamespace(quality=quality)
        return StaticReference(lambda cand: mmr_oracle(scorer, catalog, cand, k, MMR_ALPHA))
    return StaticReference(
        lambda cand: epsilon_greedy_reference(quality, cand, k, EPSILON, rng)
    )


def assert_same_run(log, want, learner):
    """The program's `run_episode` rounds against `reference_episode`'s."""
    assert len(log) == len(want)
    for got, (size, rewards, items, *features) in zip(log, want):
        assert (got.num_candidates, got.items, got.rewards) == (size, items, rewards)
        if not learner:
            assert got.relevance_features is got.diversity_features is got.widths is None
            continue
        z, x, widths = features
        assert got.relevance_features.tobytes() == z.tobytes()
        assert_close(got.diversity_features, x)
        assert_close(got.widths, widths)


SIM_SEED, SIM_ROUNDS, SIM_K = 6, 40, 5


@pytest.mark.parametrize("name", POLICIES)
def test_a_simulated_episode_follows_the_plain_rules(name, tmp_path, monkeypatch, capsys):
    instance = study_instance(SIM_SEED, 0, n_items=cli.SIM_ITEMS, d=cli.SIM_D, k=SIM_K)
    catalog = instance.catalog

    # the reference: u_bar is the policy stream's first draw, and
    # epsilon-greedy explores with the rest of that stream
    rng = rng_from_seed(SIM_SEED, POLICY, 0)
    u_bar = rng.uniform(*PREFERENCE_RANGE, cli.SIM_D)
    world = SimulatedReference(instance, rng_from_seed(SIM_SEED, REWARDS, 0))
    policy = reference_policy(
        name, catalog, SIM_K, LAM["sim"], reference_quality(u_bar, catalog), rng
    )
    want = reference_episode(policy, world, SIM_ROUNDS, SIM_K)

    # the program, composed as `simulate` composes it
    checked = checked_selects(monkeypatch)
    rng = rng_from_seed(SIM_SEED, POLICY, 0)
    scorer = StaticScorer(rng.uniform(*PREFERENCE_RANGE, cli.SIM_D), catalog)
    program = cli.make_policy(
        name, catalog, SIM_K, LAM["sim"], ALPHA, EPSILON, MMR_ALPHA, rng, scorer
    )
    log = run_episode(program, SimulatedEnvironment(instance), SIM_ROUNDS, SIM_K)
    assert_same_run(log, want, name == "lmdh")
    assert_close([r.true_utility for r in log], world.utilities)
    assert all(r.candidate_items == tuple(range(cli.SIM_ITEMS)) for r in log)
    assert len(checked) == (SIM_ROUNDS if name == "lmdh" else 0)
    if name == "lmdh":
        estimate = np.concatenate(lmdh.estimate_preferences(program.stats))
        reference = np.concatenate(policy.ridge.eta_hat())
        assert_close(estimate, reference, np.full(estimate.size, np.abs(reference).max()))

    # and the regret curves the command writes for the same run
    best = optimum_plain(instance.eta_star, catalog, world.tables, SIM_K)
    gaps = [(best - u / GAMMA, best - u, abs(best) + abs(u) / GAMMA) for u in world.utilities]
    widths = [float(sum(r[-1])) if name == "lmdh" else 0.0 for r in want]
    assert cli.main([
        "simulate", "--policy", name, "--runs", "1", "--rounds", str(SIM_ROUNDS),
        "--k", str(SIM_K), "--lambda", str(LAM["sim"]), "--alpha", str(ALPHA),
        "--epsilon", str(EPSILON), "--mmr-alpha", str(MMR_ALPHA),
        "--seed", str(SIM_SEED), "--workers", "1", "--out", str(tmp_path),
    ]) == 0
    capsys.readouterr()
    rows = [line.split(",") for line in (tmp_path / "regret.csv").read_text().splitlines()[1:]]
    assert [int(row[0]) for row in rows] == list(range(1, SIM_ROUNDS + 1))
    sizes = np.cumsum([g[2] for g in gaps])
    assert_close([float(row[1]) for row in rows], np.cumsum([g[0] for g in gaps]), sizes)
    assert_close([float(row[2]) for row in rows], np.cumsum([g[1] for g in gaps]), sizes)
    assert_close([float(row[4]) for row in rows], np.cumsum(widths), np.cumsum(widths) + 1.0)


REPLAY_SEED, REPLAY_ROUNDS, REPLAY_K = 4, 30, 10


def plain_u_bar(train, vectors):
    """Mean over training users of their mean positive-item vector."""
    return np.mean(
        [vectors[train.items[train.users == u]].mean(axis=0) for u in range(train.n_users)],
        axis=0,
    )


@pytest.mark.parametrize("name", POLICIES)
def test_a_replay_user_follows_the_plain_rules(name, tmp_path, monkeypatch):
    dataset = random_tab_ratings(tmp_path / "u.data")
    key = (dataset, "ml100k-tab", 3.0, None, REPLAY_SEED, None, "slate-normalized", REPLAY_K)
    table, test, catalog, _ = cli._replay_context(key)
    # the test user with the most positives, so that the learner sees hits
    user = max(range(test.n_users), key=lambda u: (test.items_of(u).size, -u))
    positives = frozenset(int(i) for i in test.items_of(user))
    assert len(positives) >= 5

    train, _ = split_users(table, REPLAY_SEED)
    quality = reference_quality(plain_u_bar(train, catalog.relevance), catalog)
    rng = rng_from_seed(REPLAY_SEED, POLICY, user)
    policy = reference_policy(name, catalog, REPLAY_K, LAM["replay"], quality, rng)
    world = ReplayReference(catalog.item_count, positives)
    want = reference_episode(policy, world, REPLAY_ROUNDS, REPLAY_K)
    assert any(1.0 in rewards for _, rewards, *_ in want)

    checked = checked_selects(monkeypatch)
    log = cli._replay_task((
        key, name, LAM["replay"], ALPHA, EPSILON, MMR_ALPHA, REPLAY_K, REPLAY_ROUNDS,
        REPLAY_SEED, user,
    ))
    assert_same_run(log, want, name == "lmdh")
    assert all(r.true_utility is None and r.candidate_items is None for r in log)
    assert len(checked) == (REPLAY_ROUNDS if name == "lmdh" else 0)
