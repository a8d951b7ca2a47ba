"""End-to-end checks of the command-line front end.

Most tests drive main() in-process for speed; one subprocess test proves the
module entry point works from a cold interpreter.
"""

import copy
import csv
import dataclasses
import gc
import hashlib
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from dispersion_bandit.baselines import (
    EpsilonGreedyPolicy,
    LogRankPolicy,
    MmrPolicy,
    StaticScorer,
    logrank_select,
    mmr_select,
)
from dispersion_bandit import cli, lmdh
from dispersion_bandit.cli import POLICIES, build_parser, main, make_policy
from dispersion_bandit.environments import (
    ReplayEnvironment,
    ReplayUser,
    run_episode,
    study_instance,
)
from dispersion_bandit.evaluation import compute_metric_series, write_metrics_csv
from dispersion_bandit.ingest import split_users
from dispersion_bandit.lmdh import LmdhConfig, LmdhPolicy
from dispersion_bandit.seeding import POLICY, rng_from_seed

from conftest import count_selects
from oracles import UnsharedLmdhPolicy, UnsharedStaticPolicy

ROOT = Path(__file__).resolve().parent.parent
RATINGS = str(ROOT / "data" / "sample" / "ratings.csv")
EMBEDDINGS = str(ROOT / "data" / "sample" / "embeddings.csv")


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_manifest(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text())


def csv_rows(path: Path) -> list[dict]:
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_parser_defaults():
    p = build_parser()
    sim = p.parse_args(["simulate", "--out", "x"])
    assert (sim.lam, sim.alpha, sim.k, sim.rounds, sim.runs) == (1.0, "1.0", 5, 1000, 20)
    assert sim.metric_mode == "slate-normalized"
    rep = p.parse_args(["replay", "--dataset", RATINGS, "--out", "x"])
    assert (rep.lam, rep.k, rep.rounds, rep.threshold) == (50.0, 10, 30, 3.0)
    assert (rep.epsilon, rep.mmr_alpha) == (0.05, 0.9)
    ratio = p.parse_args(["approx-ratio", "--out", "x"])
    assert ratio.metric_mode == "raw"
    assert ratio.runs == 100 and ratio.k is None


POLICY_CLASSES = {
    "lmdh": LmdhPolicy,
    "logrank": LogRankPolicy,
    "mmr": MmrPolicy,
    "epsilon-greedy": EpsilonGreedyPolicy,
}


@pytest.mark.parametrize("name", POLICIES)
def test_make_policy_builds_each_policy(name):
    assert set(POLICY_CLASSES) == set(POLICIES)
    catalog = study_instance(3, n_items=9, d=4, k=3).catalog
    rng = rng_from_seed(5, POLICY)
    u_bar = np.linspace(0.0, 0.2, 4)
    scorer = StaticScorer(u_bar, catalog)
    policy = make_policy(name, catalog, 3, 2.5, 0.7, 0.25, 0.6, rng, scorer)
    assert type(policy) is POLICY_CLASSES[name]
    assert policy.name == name
    if name == "lmdh":
        assert policy.catalog is catalog
        assert (policy.config.k, policy.config.lam, policy.config.alpha) == (3, 2.5, 0.7)
        assert (policy.config.d, policy.config.m) == (4, 1)
        return
    assert policy.k == 3 and policy.scorer is scorer
    quality = 1.0 / (1.0 + np.exp(-(catalog.relevance @ u_bar)))
    assert np.array_equal(policy.scorer.quality, quality)
    if name == "mmr":
        assert policy.mmr_alpha == 0.6
    if name == "epsilon-greedy":
        assert policy.epsilon == 0.25 and policy.rng is rng


@pytest.mark.parametrize("name", POLICIES)
def test_simulate_run_draws_u_bar_first_from_the_policy_stream(name, monkeypatch):
    built = []

    def recording_make_policy(*args):
        rng, scorer = args[-2:]
        built.append((copy.deepcopy(rng).random(3), scorer))
        return make_policy(*args)

    monkeypatch.setattr(cli, "make_policy", recording_make_policy)
    args = build_parser().parse_args(
        ["simulate", "--policy", name, "--k", "3", "--rounds", "2", "--seed", "17",
         "--out", "unused"]
    )
    cli._simulate_run(args, 1.0, 1)
    next_draws, scorer = built[0]
    # u_bar is the stream's first draw; the rng is handed over right after it
    fresh = rng_from_seed(17, POLICY, 1)
    u_bar = fresh.uniform(0.0, 0.2, cli.SIM_D)
    if name == "lmdh":
        assert "quality" not in vars(scorer)  # LMDH reads no scorer
    else:
        quality = StaticScorer(u_bar, scorer.catalog).quality
        assert scorer.quality.tobytes() == quality.tobytes()
    assert np.array_equal(next_draws, fresh.random(3))


def test_make_policy_rejects_unknown_names():
    catalog = study_instance(3, n_items=9, d=4, k=3).catalog
    with pytest.raises(SystemExit, match="'ucb-plain'"):
        make_policy("ucb-plain", catalog, 3, 1.0, 1.0, 0.05, 0.9,
                    rng_from_seed(0, POLICY), StaticScorer(np.ones(4), catalog))


def test_ingest_summary_line(capsys):
    code = main(["ingest", "--dataset", RATINGS, "--format", "generic"])
    assert code == 0
    line = capsys.readouterr().out.splitlines()[0]
    assert line == "19 users, 32 items, 76 interactions"


def test_ingest_writes_maps_and_manifest(tmp_path, capsys):
    out = tmp_path / "ing"
    assert main(["ingest", "--dataset", RATINGS, "--format", "generic-csv",
                 "--out", str(out)]) == 0
    users = (out / "users.map.csv").read_text().splitlines()
    items = (out / "items.map.csv").read_text().splitlines()
    assert users[0] == "dense,original" and users[1] == "0,1"
    assert items[0] == "dense,original" and items[1] == "0,101"
    manifest = read_manifest(out)
    assert manifest["command"] == "ingest"
    assert manifest["derived"]["n_users"] == 19
    assert manifest["derived"]["n_interactions"] == 76


def test_ingest_top_items_counts_its_drops_apart_from_the_threshold(tmp_path, capsys):
    plain, top = tmp_path / "plain", tmp_path / "top"
    common = ["ingest", "--dataset", RATINGS, "--format", "generic-csv", "--out"]
    assert main([*common, str(plain)]) == 0
    assert main([*common, str(top), "--top-items", "5"]) == 0
    p, t = read_manifest(plain)["derived"], read_manifest(top)["derived"]
    assert "dropped_by_top_items" not in p
    assert t["filtered_below_threshold"] == p["filtered_below_threshold"] == 98
    assert t["duplicates_collapsed"] == p["duplicates_collapsed"]
    assert t["n_interactions"] == 24
    assert t["dropped_by_top_items"] == p["n_interactions"] - t["n_interactions"] == 52
    # every data line lands in exactly one count
    data_lines = len(Path(RATINGS).read_text().splitlines()) - 1
    dropped = sum(
        t[key] for key in
        ("dropped_by_top_items", "filtered_below_threshold", "duplicates_collapsed")
    )
    assert t["n_interactions"] + dropped == data_lines


def test_ingest_format_alias_matches_canonical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["ingest", "--dataset", RATINGS, "--format", "generic", "--out", str(a)])
    main(["ingest", "--dataset", RATINGS, "--format", "generic-csv", "--out", str(b)])
    capsys.readouterr()
    assert sha(a / "users.map.csv") == sha(b / "users.map.csv")
    assert sha(a / "items.map.csv") == sha(b / "items.map.csv")


def test_ingest_wrong_format_exits_with_error(capsys):
    # the generic header cannot parse as tab-separated ml100k
    code = main(["ingest", "--dataset", RATINGS, "--format", "ml100k-tab"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_simulate_rerun_is_byte_identical(tmp_path, capsys):
    out = tmp_path / "sim"
    argv = ["simulate", "--runs", "2", "--rounds", "15", "--out", str(out),
            "--workers", "1"]
    assert main(argv) == 0
    first = (sha(out / "regret.csv"), sha(out / "manifest.json"))
    assert main(argv) == 0
    capsys.readouterr()
    assert (sha(out / "regret.csv"), sha(out / "manifest.json")) == first


def test_manifest_argv_reproduces_outputs(tmp_path, capsys):
    out = tmp_path / "sim"
    assert main(["simulate", "--runs", "2", "--rounds", "10", "--seed", "5",
                 "--out", str(out), "--workers", "1"]) == 0
    manifest = read_manifest(out)
    first = sha(out / "regret.csv")
    # the recorded argv alone must recreate the exact same artifacts
    assert main(manifest["argv"]) == 0
    capsys.readouterr()
    assert sha(out / "regret.csv") == first
    assert read_manifest(out) == manifest


# every flag of each command set to a value other than its default
NON_DEFAULT_FLAGS = {
    "simulate": [
        "--policy", "mmr", "--lambda", "2.0", "--alpha", "theory",
        "--epsilon", "0.1", "--mmr-alpha", "0.8", "--k", "3", "--rounds", "4",
        "--runs", "2", "--metric-mode", "raw", "--seed", "7",
    ],
    "approx-ratio": [
        "--k", "3", "--runs", "2", "--metric-mode", "slate-normalized", "--seed", "7",
    ],
    "replay": [
        "--dataset", RATINGS, "--format", "generic-csv", "--threshold", "2.5",
        "--top-items", "30", "--embeddings", EMBEDDINGS, "--policy",
        "epsilon-greedy", "--lambda", "20.0", "--alpha", "0.5", "--epsilon", "0.2",
        "--mmr-alpha", "0.7", "--k", "3", "--rounds", "2",
        "--metric-mode", "raw", "--seed", "7",
    ],
    "ingest": [
        "--dataset", RATINGS, "--format", "generic", "--threshold", "2.5",
        "--top-items", "30",
    ],
}


@pytest.mark.parametrize("command", sorted(NON_DEFAULT_FLAGS))
def test_manifest_options_are_the_parsed_command_line(tmp_path, capsys, command):
    parser = build_parser()
    (commands,) = [a.choices for a in parser._actions if a.dest == "command"]
    actions = [
        a for a in commands[command]._actions if a.dest not in ("help", "workers")
    ]
    workers = ["--workers", "1"] if command != "ingest" else []
    argv = [command, *NON_DEFAULT_FLAGS[command], "--out", str(tmp_path), *workers]
    given = vars(parser.parse_args(argv))
    assert all(given[a.dest] != a.default for a in actions)

    assert main(argv) == 0
    capsys.readouterr()
    manifest = read_manifest(tmp_path)
    assert set(manifest["options"]) == {a.option_strings[0][2:] for a in actions}
    reparsed = vars(parser.parse_args(manifest["argv"]))
    given.pop("workers", None)
    reparsed.pop("workers", None)
    assert reparsed == given


COUNT_FLAGS = [
    ("simulate", "--k"),
    ("simulate", "--runs"),
    ("simulate", "--rounds"),
    ("approx-ratio", "--k"),
    ("approx-ratio", "--runs"),
    ("replay", "--k"),
    ("replay", "--rounds"),
    ("replay", "--top-items"),
    ("ingest", "--top-items"),
    ("simulate", "--workers"),
    ("approx-ratio", "--workers"),
    ("replay", "--workers"),
]
REQUIRED = {
    "simulate": ["--rounds", "3", "--runs", "1"],
    "approx-ratio": ["--runs", "1"],
    "replay": ["--dataset", RATINGS, "--format", "generic", "--rounds", "2"],
    "ingest": ["--dataset", RATINGS, "--format", "generic"],
}


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("command, flag", COUNT_FLAGS)
def test_bad_count_flags_are_usage_errors(tmp_path, capsys, command, flag, value):
    out = tmp_path / "out"
    argv = [command, *REQUIRED[command], "--out", str(out), flag, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


BAD_FLOATS = {
    "--lambda": ("0", "-1"),
    "--alpha": ("nope", "-1"),
    "--epsilon": ("2", "-0.5"),
    "--mmr-alpha": ("-1", "1.5"),
}


FILE_FLAGS = ("--dataset", "--embeddings")
BAD_FLAGS = [
    (command, flag, value)
    for command in ("simulate", "replay")
    for flag, values in BAD_FLOATS.items()
    for value in (*values, "nan", "inf")
] + [
    (command, flag, value)
    for command in ("replay", "ingest")
    for flag, value in [
        *(("--threshold", v) for v in ("nan", "inf", "1e999", "x")),
        ("--dataset", "missing.dat"),
        ("--dataset", "."),  # a directory
    ]
] + [("replay", "--embeddings", "missing.csv")]


@pytest.mark.parametrize("command, flag, value", BAD_FLAGS)
def test_bad_float_flags_are_usage_errors(tmp_path, capsys, command, flag, value):
    """Bad float flags and input files that do not exist, for every command."""
    out = tmp_path / "out"
    argv = [command, *REQUIRED[command], "--out", str(out), flag, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    rule = "no such file" if flag in FILE_FLAGS else "must be"
    assert f"argument {flag}: {rule}" in err and repr(value) in err
    assert not out.exists()


def write_embeddings_without_item_101(path: Path) -> str:
    lines = Path(EMBEDDINGS).read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines if not line.startswith("101,")))
    return str(path)


@pytest.mark.parametrize("case", ["no-positive-rating", "bad-line", "missing-embedding"])
def test_replay_data_errors_leave_no_out(tmp_path, capsys, case):
    argv = ["replay", "--format", "generic", "--rounds", "2", "--workers", "1"]
    if case == "no-positive-rating":
        argv += ["--dataset", RATINGS, "--threshold", "5"]
        message = "no interactions with rating > 5.0"
    elif case == "bad-line":
        bad = tmp_path / "bad.csv"
        bad.write_text("user,item,rating\n1,2,5\n1,x,4\n")
        argv += ["--dataset", str(bad)]
        message = "line 3"
    else:
        argv += ["--dataset", RATINGS, "--embeddings",
                 write_embeddings_without_item_101(tmp_path / "emb.csv")]
        message = "lack embeddings"
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


SAMPLE_ITEMS = 32  # items in data/sample/ratings.csv


@pytest.mark.parametrize("command", ["simulate", "approx-ratio", "replay"])
def test_a_slate_larger_than_the_item_pool_is_a_usage_error(tmp_path, capsys, command):
    n_items = SAMPLE_ITEMS if command == "replay" else cli.SIM_ITEMS
    argv = [command, *REQUIRED[command], "--workers", "1", "--out"]
    out = tmp_path / "over"
    assert main([*argv, str(out), "--k", str(n_items + 1)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --k {n_items + 1} exceeds the catalog's {n_items} items\n"
    assert not out.exists()
    # a slate of the whole pool is allowed
    assert main([*argv, str(tmp_path / "whole"), "--k", str(n_items)]) == 0
    capsys.readouterr()


def test_one_process_commands_do_not_import_the_process_pool():
    code = (
        "import sys, dispersion_bandit.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
        "if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.stdout.strip() == "[]"


def test_map_tasks_runs_at_most_one_worker_per_task(monkeypatch):
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert cli._map_tasks(abs, [-3], None) == [3]
    assert cli._map_tasks(abs, [], None) == []
    assert cli._map_tasks(abs, [], 2) == []

    sizes = []

    class InlinePool:
        def __init__(self, max_workers, mp_context):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    assert cli._map_tasks(abs, [-1, 2, -3], 8) == [1, 2, 3]
    assert cli._map_tasks(abs, [-1, 2, -3], None) == [1, 2, 3]
    assert sizes == [3, 3]


@pytest.mark.parametrize("command", ["simulate", "approx-ratio", "replay"])
def test_slate_normalized_needs_two_slots(tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = [command, *REQUIRED[command], "--k", "1", "--metric-mode",
            "slate-normalized", "--out", str(out), "--workers", "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "slate-normalized needs --k >= 2" in capsys.readouterr().err
    assert not out.exists()


def test_replay_needs_two_slots_in_any_metric_mode(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["replay", *REQUIRED["replay"], "--k", "1", "--metric-mode", "raw",
            "--out", str(out), "--workers", "1"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "replay needs --k >= 2: Diversity is a mean" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "approx-ratio"])
def test_simulated_studies_run_one_slot_in_raw_mode(tmp_path, capsys, command):
    argv = [command, *REQUIRED[command], "--k", "1", "--metric-mode", "raw",
            "--out", str(tmp_path), "--workers", "1"]
    assert main(argv) == 0
    capsys.readouterr()


# Flags each policy reads besides --k, --metric-mode and --seed, which all read.
POLICY_FLAGS = {
    "lmdh": [["--lambda", "2"], ["--alpha", "0.5"]],
    "logrank": [],
    "mmr": [["--mmr-alpha", "0.5"]],
    "epsilon-greedy": [["--epsilon", "0.5"]],
}


def changed_outputs(tmp_path, argv, output, columns, changes):
    """The flag lists of `changes` whose run writes other `columns` than `argv`'s.

    Only columns the runs compute count: `simulate`'s bound and budget columns
    read the flags in the command itself.
    """
    def written(i, flags):
        out = tmp_path / str(i)
        assert main([*argv, *flags, "--out", str(out), "--workers", "1"]) == 0
        with open(out / output, newline="") as fh:
            return [[row[c] for c in columns] for row in csv.DictReader(fh)]

    default = written("default", [])
    return [flags for i, flags in enumerate(changes) if written(i, flags) != default]


@pytest.mark.parametrize("policy", POLICIES)
def test_every_flag_a_policy_reads_reaches_the_simulated_run(
    tmp_path, capsys, monkeypatch, policy
):
    monkeypatch.delenv("LMDB_SEED", raising=False)
    changes = [*POLICY_FLAGS[policy], ["--k", "3"], ["--metric-mode", "raw"],
               ["--seed", "1"]]
    argv = ["simulate", "--policy", policy, "--runs", "1", "--rounds", "20"]
    columns = ["scaled_regret", "raw_regret", "width_sum"]
    assert changed_outputs(tmp_path, argv, "regret.csv", columns, changes) == changes
    capsys.readouterr()


def test_every_flag_reaches_the_ratio_instances(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("LMDB_SEED", raising=False)
    changes = [["--k", "3"], ["--metric-mode", "slate-normalized"], ["--seed", "1"]]
    # at K = 2 slate-normalized distances equal raw ones
    argv = ["approx-ratio", "--runs", "2", "--k", "4"]
    columns = ["greedy_value", "optimal_value", "ratio"]
    assert changed_outputs(tmp_path, argv, "ratios.csv", columns, changes) == changes
    capsys.readouterr()


def test_worker_count_does_not_change_outputs(tmp_path, capsys):
    runs = [
        (["simulate", "--runs", "3", "--rounds", "10", *policy], "regret.csv")
        for policy in (
            [], ["--policy", "logrank"], ["--policy", "mmr"], ["--policy", "epsilon-greedy"]
        )
    ] + [
        (["replay", "--dataset", RATINGS, "--format", "generic", "--policy", name],
         "metrics.csv")
        for name in POLICIES
    ] + [
        # forked workers inherit the subset tables the one-process run cached
        (["approx-ratio", "--runs", "3"], "ratios.csv"),
    ]
    for i, (argv, output) in enumerate(runs):
        lone, pooled = tmp_path / f"{i}-w1", tmp_path / f"{i}-w2"
        assert main([*argv, "--out", str(lone), "--workers", "1"]) == 0
        # forked workers would inherit the world, selections included, that
        # the lone run just built; each process must compute its own
        cli._replay_context.cache_clear()
        assert main([*argv, "--out", str(pooled), "--workers", "2"]) == 0
        assert sha(lone / output) == sha(pooled / output), argv
    capsys.readouterr()


def test_simulate_theory_alpha_fills_bound_column(tmp_path, capsys):
    out = tmp_path / "theory"
    main(["simulate", "--alpha", "theory", "--runs", "1", "--rounds", "12",
          "--out", str(out), "--workers", "1"])
    capsys.readouterr()
    rows = csv_rows(out / "regret.csv")
    assert len(rows) == 12
    assert all(row["bound"] != "" for row in rows)
    budgets = [float(row["width_budget"]) for row in rows]
    assert all(b2 > b1 for b1, b2 in zip(budgets, budgets[1:]))
    manifest = read_manifest(out)
    assert manifest["options"]["alpha"] == "theory"
    assert manifest["derived"]["alpha_value"] > 1.0


def test_simulate_default_alpha_leaves_bound_empty(tmp_path, capsys):
    out = tmp_path / "plain"
    main(["simulate", "--runs", "1", "--rounds", "8", "--out", str(out),
          "--workers", "1"])
    capsys.readouterr()
    rows = csv_rows(out / "regret.csv")
    assert all(row["bound"] == "" for row in rows)
    assert all(row["width_budget"] != "" for row in rows)


def test_simulate_baseline_logs_zero_width(tmp_path, capsys):
    out = tmp_path / "base"
    main(["simulate", "--policy", "logrank", "--runs", "1", "--rounds", "8",
          "--out", str(out), "--workers", "1"])
    capsys.readouterr()
    rows = csv_rows(out / "regret.csv")
    assert all(float(row["width_sum"]) == 0.0 for row in rows)
    assert all(row["bound"] == "" and row["width_budget"] == "" for row in rows)


def test_approx_ratio_sweep_and_csv(tmp_path, capsys):
    out = tmp_path / "ratio"
    assert main(["approx-ratio", "--runs", "3", "--out", str(out),
                 "--workers", "1"]) == 0
    stdout = capsys.readouterr().out
    assert sum(1 for line in stdout.splitlines() if line.startswith("K=")) == 4
    rows = csv_rows(out / "ratios.csv")
    assert len(rows) == 12  # 4 slate sizes x 3 instances
    for row in rows:
        ratio = float(row["ratio"])
        assert 0.25 - 1e-9 <= ratio <= 1.0 + 1e-9
        assert float(row["greedy_value"]) <= float(row["optimal_value"]) + 1e-9
    assert read_manifest(out)["derived"]["ks"] == [2, 3, 4, 5]


def test_approx_ratio_single_k(tmp_path, capsys):
    out = tmp_path / "ratio3"
    main(["approx-ratio", "--k", "3", "--runs", "2", "--out", str(out),
          "--workers", "1"])
    capsys.readouterr()
    rows = csv_rows(out / "ratios.csv")
    assert [row["K"] for row in rows] == ["3", "3"]
    assert read_manifest(out)["derived"]["ks"] == [3]


def test_replay_metrics_schema_and_recall_monotone(tmp_path, capsys):
    out = tmp_path / "rep"
    assert main(["replay", "--dataset", RATINGS, "--format", "generic",
                 "--embeddings", EMBEDDINGS, "--k", "4", "--rounds", "4",
                 "--out", str(out), "--workers", "1"]) == 0
    capsys.readouterr()
    rows = csv_rows(out / "metrics.csv")
    recall = [float(r["value"]) for r in rows if r["metric"] == "recall"]
    assert len(recall) == 4
    assert all(b >= a - 1e-12 for a, b in zip(recall, recall[1:]))
    assert all(int(r["n_users"]) >= 1 for r in rows)
    betas = {r["beta"] for r in rows if r["metric"] == "f_beta"}
    assert betas == {"1.0", "2.0"}
    manifest = read_manifest(out)
    assert manifest["derived"]["n_test_users"] == 4
    assert manifest["derived"]["embedding_d"] == 10


def test_replay_randomized_policy_is_deterministic(tmp_path, capsys):
    out = tmp_path / "eps"
    argv = ["replay", "--dataset", RATINGS, "--format", "generic",
            "--embeddings", EMBEDDINGS, "--policy", "epsilon-greedy",
            "--k", "4", "--rounds", "3", "--out", str(out), "--workers", "1"]
    main(argv)
    first = sha(out / "metrics.csv")
    main(argv)
    capsys.readouterr()
    assert sha(out / "metrics.csv") == first


def test_replay_synthetic_embeddings_when_omitted(tmp_path, capsys):
    out = tmp_path / "syn"
    assert main(["replay", "--dataset", RATINGS, "--format", "generic",
                 "--k", "4", "--rounds", "2", "--out", str(out),
                 "--workers", "1"]) == 0
    capsys.readouterr()
    manifest = read_manifest(out)
    assert manifest["derived"]["embedding_d"] == 10


def per_user_mean_u_bar(train, vectors):
    """The population scorer as a `.mean` per training user (the pre-gather loop)."""
    user_means = np.vstack(
        [
            vectors[np.sort(train.items[train.users == u])].mean(axis=0)
            for u in range(train.n_users)
        ]
    )
    return user_means.mean(axis=0)


def random_tab_ratings(path: Path) -> str:
    rng = np.random.default_rng(300)
    users = np.repeat(np.arange(1, 301), rng.integers(1, 40, 300))
    items = rng.integers(1, 500, users.size)
    ratings = rng.integers(1, 6, users.size)
    lines = (f"{u}\t{i}\t{r}\t0\n" for u, i, r in zip(users, items, ratings))
    path.write_text("".join(lines))
    return str(path)


@pytest.mark.parametrize("top_items", [None, 20])
@pytest.mark.parametrize("source", ["sample", "sample-embeddings", "random-300"])
def test_u_bar_matches_per_user_mean_loop(tmp_path, source, top_items):
    if source == "random-300":
        dataset, fmt = random_tab_ratings(tmp_path / "u.data"), "ml100k-tab"
    else:
        dataset, fmt = RATINGS, "generic-csv"
    embeddings = EMBEDDINGS if source == "sample-embeddings" else None
    seed = 7
    key = (dataset, fmt, 3.0, top_items, seed, embeddings, "slate-normalized", 3)
    table, test, catalog, scorer = cli._replay_context(key)
    train, _ = split_users(table, seed)
    assert train.n_users + test.n_users == table.n_users
    u_bar = per_user_mean_u_bar(train, catalog.relevance)
    assert scorer.quality.tobytes() == StaticScorer(u_bar, catalog).quality.tobytes()


def fresh_policy_replay_task(task: tuple):
    """`_replay_task` without a shared memo: every selection made afresh."""
    (key, policy_name, lam, alpha_value, epsilon, mmr_alpha, k, rounds, seed, u) = task
    _, test, catalog, scorer = cli._replay_context(key)
    user = ReplayUser(user_id=u, positives=frozenset(int(i) for i in test.items_of(u)))
    policy = make_policy(
        policy_name, catalog, k, lam, alpha_value, epsilon, mmr_alpha,
        rng_from_seed(seed, POLICY, u), scorer,
    )
    if policy_name == "lmdh":
        policy = UnsharedLmdhPolicy(policy.config, catalog)
    elif policy_name == "logrank":
        policy = UnsharedStaticPolicy(lambda cand: logrank_select(scorer, cand, k))
    elif policy_name == "mmr":
        policy = UnsharedStaticPolicy(
            lambda cand: mmr_select(scorer, cand, k, mmr_alpha)
        )
    return run_episode(policy, ReplayEnvironment(catalog, user), rounds, k)


def log_bytes(log) -> bytes:
    parts = []
    for r in log:
        parts.append(repr((r.num_candidates, r.items, r.rewards, r.widths)).encode())
        parts += [b"None" if f is None else f.tobytes()
                  for f in (r.relevance_features, r.diversity_features)]
    return b"|".join(parts)


def logs_features(log) -> bool:
    """Whether any round of `log` holds features; only the learner logs them."""
    return any(r.relevance_features is not None or r.diversity_features is not None
               for r in log)


@pytest.mark.parametrize("name", ["logrank", "mmr"])
@pytest.mark.parametrize("source", ["sample", "random-300"])
def test_shared_static_policy_matches_a_fresh_policy_per_user(tmp_path, source, name):
    if source == "random-300":
        dataset, fmt = random_tab_ratings(tmp_path / "u.data"), "ml100k-tab"
    else:
        dataset, fmt = RATINGS, "generic-csv"
    seed, k, rounds = 4, 10, 30
    key = (dataset, fmt, 3.0, None, seed, None, "slate-normalized", k)
    _, test, catalog, scorer = cli._replay_context(key)
    tasks = [(key, name, 50.0, 1.0, 0.05, 0.8, k, rounds, seed, u)
             for u in range(test.n_users)]
    shared = [cli._replay_task(task) for task in tasks]
    fresh = [fresh_policy_replay_task(task) for task in tasks]
    assert [log_bytes(log) for log in shared] == [log_bytes(log) for log in fresh]
    assert not any(logs_features(log) for log in shared + fresh)
    # every user walked the same candidate sets: one memo entry per round
    memo = scorer.slates[(name, k, *((0.8,) if name == "mmr" else ()))]
    assert len(memo) == max(len(log) for log in shared)

    positives = [frozenset(int(i) for i in test.items_of(u)) for u in range(test.n_users)]
    for logs, path in ((shared, tmp_path / "shared.csv"), (fresh, tmp_path / "fresh.csv")):
        write_metrics_csv(compute_metric_series(logs, positives, catalog), path)
    assert (tmp_path / "shared.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()


class Marker:
    """An object put in a memo, whose weak reference shows when the memo is gone."""


def marked(memo: dict) -> weakref.ref:
    marker = memo["marker"] = Marker()
    return weakref.ref(marker)


def test_a_new_world_releases_the_previous_worlds_memo():
    # with the cyclic collector off, a world's memos and catalog are freed
    # by reference counting alone once another world replaces it
    world = (RATINGS, "generic-csv", 3.0, None, 7, None, "slate-normalized", 3)
    other_world = world[:4] + (8,) + world[5:]

    def task(key, name):
        return (key, name, 50.0, 1.0, 0.05, 0.9, 3, 2, 7, 0)

    gc.disable()
    try:
        cli._replay_context.cache_clear()  # a world built afresh, its memos empty
        cli._replay_task(task(world, "mmr"))
        _, _, catalog, scorer = cli._replay_context(world)
        (first,) = scorer.slates.values()
        assert scorer.slates[("mmr", 3, 0.9)] is first
        assert not catalog.selections and not catalog.slate_records
        cli._replay_task(task(world, "mmr"))  # the world's next user takes the same memo
        assert list(scorer.slates.values()) == [first]
        released, freed = marked(first), weakref.ref(catalog)
        del first, catalog, scorer

        cli._replay_context(other_world)
        assert released() is None and freed() is None

        # and so does building another world, whichever the policy
        for name in ("logrank", "lmdh"):
            cli._replay_context(other_world)
            cli._replay_task(task(other_world, name))
            _, _, catalog, scorer = cli._replay_context(other_world)
            (memo,) = [*catalog.selections.values(), *scorer.slates.values()]
            # LMDH's selections also share the world's slate records
            assert bool(catalog.slate_records) is (name == "lmdh")
            released, freed = marked(memo), weakref.ref(catalog)
            records = marked(catalog.slate_records)
            del memo, catalog, scorer
            cli._replay_context(world)
            assert released() is records() is freed() is None, name
    finally:
        gc.enable()


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
def test_lmdh_users_sharing_the_worlds_selections_match_a_fresh_policy_each(
    tmp_path, order, monkeypatch
):
    dataset = random_tab_ratings(tmp_path / "u.data")
    seed, k, rounds = 4, 10, 30
    key = (dataset, "ml100k-tab", 3.0, None, seed, None, "slate-normalized", k)
    test = cli._replay_context(key)[1]
    tasks = [(key, "lmdh", 50.0, 1.0, 0.05, 0.8, k, rounds, seed, u)
             for u in range(test.n_users)][::order]
    fresh = [log_bytes(fresh_policy_replay_task(task)) for task in tasks]
    calls = count_selects(monkeypatch)
    shared = [cli._replay_task(task) for task in tasks]
    assert [log_bytes(log) for log in shared] == fresh
    # some users took selections that others had made
    assert len(calls) < sum(len(log) for log in shared)


def world_metrics(key: tuple, setting: tuple, path: Path) -> bytes:
    """metrics.csv of one (policy, alpha, mmr_alpha) replayed over every test
    user of `key`'s world, one `_replay_task` each, as perfbench runs them."""
    name, alpha, mmr_alpha = setting
    seed, k = key[4], key[7]
    _, test, catalog, _ = cli._replay_context(key)
    users = range(test.n_users)
    logs = [cli._replay_task((key, name, 50.0, alpha, 0.05, mmr_alpha, k, 30, seed, u))
            for u in users]
    positives = [frozenset(int(i) for i in test.items_of(u)) for u in users]
    write_metrics_csv(compute_metric_series(logs, positives, catalog), path)
    return path.read_bytes()


def test_memos_of_many_settings_coexist_on_one_world(tmp_path):
    key = (RATINGS, "generic-csv", 3.0, None, 7, None, "slate-normalized", 10)
    settings = [(name, 1.0, 0.9) for name in POLICIES]
    settings += settings[::-1] + [("lmdh", 0.5, 0.9), ("mmr", 1.0, 0.5)]
    alone = {}
    for i, setting in enumerate(dict.fromkeys(settings)):
        cli._replay_context.cache_clear()  # a freshly built world
        alone[setting] = world_metrics(key, setting, tmp_path / f"alone-{i}.csv")

    cli._replay_context.cache_clear()
    _, _, catalog, scorer = cli._replay_context(key)
    for i, setting in enumerate(settings):
        shared = world_metrics(key, setting, tmp_path / f"shared-{i}.csv")
        assert shared == alone[setting], (i, setting)
    assert cli._replay_context(key)[2] is catalog  # one world throughout
    config = LmdhConfig(lam=50.0, alpha=1.0, d=catalog.relevance_dim, m=1, k=10)
    assert set(catalog.selections) == {config, dataclasses.replace(config, alpha=0.5)}
    assert set(scorer.slates) == {("logrank", 10), ("mmr", 10, 0.9), ("mmr", 10, 0.5)}
    assert all(catalog.selections.values()) and all(scorer.slates.values())


def test_only_epsilon_greedy_replays_build_a_policy_generator(tmp_path, monkeypatch):
    dataset = random_tab_ratings(tmp_path / "u.data")
    seed, k, rounds = 4, 10, 30
    key = (dataset, "ml100k-tab", 3.0, None, seed, None, "slate-normalized", k)
    test = cli._replay_context(key)[1]

    def tasks(name):
        return [(key, name, 50.0, 1.0, 0.3, 0.8, k, rounds, seed, u)
                for u in range(test.n_users)]

    # epsilon-greedy's logs are those of a policy built with its user's stream
    logs = [cli._replay_task(task) for task in tasks("epsilon-greedy")]
    assert [log_bytes(log) for log in logs] == [
        log_bytes(fresh_policy_replay_task(task)) for task in tasks("epsilon-greedy")
    ]
    assert not any(logs_features(log) for log in logs)

    generators = []
    build = cli.make_policy

    def recording(name, catalog, k, lam, alpha, epsilon, mmr_alpha, rng, *rest):
        generators.append((name, rng))
        return build(name, catalog, k, lam, alpha, epsilon, mmr_alpha, rng, *rest)

    monkeypatch.setattr(cli, "make_policy", recording)
    for name in POLICIES:
        for task in tasks(name)[:3]:
            cli._replay_task(task)
    assert len(generators) == 3 * len(POLICIES)
    for name, rng in generators:
        assert (rng is not None) == (name == "epsilon-greedy"), name


@pytest.mark.parametrize("name", POLICIES)
def test_only_lmdh_replays_fill_the_distance_row_memo(
    tmp_path, capsys, monkeypatch, name
):
    # the baselines log no features, and none of them reads a distance
    catalogs = []
    series = cli.compute_metric_series

    def recording(logs, positives, catalog):
        catalogs.append(catalog)
        return series(logs, positives, catalog)

    monkeypatch.setattr(cli, "compute_metric_series", recording)
    cli._replay_context.cache_clear()  # a world built afresh, its rows unread
    assert main(["replay", "--dataset", RATINGS, "--format", "generic",
                 "--seed", "7", "--policy", name, "--out", str(tmp_path),
                 "--workers", "1"]) == 0
    capsys.readouterr()
    (metric,) = catalogs[0].metrics
    assert metric._rows is not None  # the sample's catalog memoises its rows
    assert (len(metric._rows) > 0) == (name == "lmdh"), len(metric._rows)


@pytest.mark.parametrize("name", POLICIES)
def test_only_baseline_replays_compute_the_population_quality(
    tmp_path, capsys, monkeypatch, name
):
    # every replay world makes the population scorer, whose u_bar is built on
    # a baseline's first read of its quality; LMDH never reads it
    scorers, builds = [], []
    population_u_bar = cli._population_u_bar

    def recording_make_policy(*args):
        scorers.append(args[8])
        return make_policy(*args)

    def recording_u_bar(*args):
        builds.append(args)
        return population_u_bar(*args)

    monkeypatch.setattr(cli, "make_policy", recording_make_policy)
    monkeypatch.setattr(cli, "_population_u_bar", recording_u_bar)
    cli._replay_context.cache_clear()  # a world built afresh, its scorer unread
    assert main(["replay", "--dataset", RATINGS, "--format", "generic",
                 "--seed", "7", "--policy", name, "--out", str(tmp_path),
                 "--workers", "1"]) == 0
    capsys.readouterr()
    assert scorers
    for scorer in scorers:
        assert ("quality" in vars(scorer)) == (name != "lmdh")
    assert len(builds) == (name != "lmdh")


@pytest.mark.parametrize("name", ["logrank", "mmr", "epsilon-greedy"])
def test_baseline_replays_write_the_bytes_of_an_eager_population_scorer(
    tmp_path, capsys, monkeypatch, name
):
    # the lazy u_bar against one built with the world, before any selection
    def replay(out):
        cli._replay_context.cache_clear()
        assert main(["replay", "--dataset", RATINGS, "--format", "generic",
                     "--seed", "7", "--policy", name, "--out", str(out),
                     "--workers", "1"]) == 0
        capsys.readouterr()
        return (out / "metrics.csv").read_bytes()

    with monkeypatch.context() as patch:
        patch.setattr(
            cli, "StaticScorer", lambda u_bar, catalog: StaticScorer(u_bar(), catalog)
        )
        eager = replay(tmp_path / "eager")
    assert replay(tmp_path / "lazy") == eager


def test_seed_env_fallback_and_flag_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LMDB_SEED", "9")
    out = tmp_path / "env"
    main(["approx-ratio", "--k", "2", "--runs", "1", "--out", str(out),
          "--workers", "1"])
    assert read_manifest(out)["options"]["seed"] == 9
    out2 = tmp_path / "flag"
    main(["approx-ratio", "--k", "2", "--runs", "1", "--seed", "3",
          "--out", str(out2), "--workers", "1"])
    capsys.readouterr()
    assert read_manifest(out2)["options"]["seed"] == 3


@pytest.mark.parametrize("command", ["simulate", "approx-ratio", "replay"])
@pytest.mark.parametrize(
    "flag, env, rule",
    [
        ("-1", None, "argument --seed: must be a non-negative integer, got '-1'"),
        (None, "-1", "LMDB_SEED must be a non-negative integer, got '-1'"),
        (None, "abc", "LMDB_SEED must be a non-negative integer, got 'abc'"),
    ],
)
def test_bad_seeds_are_usage_errors(
    tmp_path, capsys, monkeypatch, command, flag, env, rule
):
    """A negative or non-integer seed exits 2 before --out exists."""
    if env is None:
        monkeypatch.delenv("LMDB_SEED", raising=False)
    else:
        monkeypatch.setenv("LMDB_SEED", env)
    out = tmp_path / "out"
    argv = [command, *REQUIRED[command], "--out", str(out)]
    if flag is not None:
        argv += ["--seed", flag]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert rule in capsys.readouterr().err
    assert not out.exists()


def test_invalid_alpha_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main(["simulate", "--alpha", "nope", "--runs", "1", "--rounds", "5",
              "--out", str(tmp_path / "x"), "--workers", "1"])


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "dispersion_bandit.cli", "ingest",
         "--dataset", RATINGS, "--format", "generic"],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.splitlines()[0] == "19 users, 32 items, 76 interactions"


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_failed_factorisation_names_the_user_the_round_and_a(
    tmp_path, capsys, monkeypatch, workers
):
    """Round 2's update of held-out user 1 (file id 8) cannot factorise A: the
    command exits 2 naming the user's id, the round and A's shape, from any
    worker."""
    state = {"user": None, "updates": 0}
    cholesky = lmdh._umath_linalg.cholesky_lo

    class Recording(cli.ReplayEnvironment):
        def __init__(self, catalog, user):
            super().__init__(catalog, user)
            state.update(user=user.user_id, updates=0)

    def failing(a, signature):
        state["updates"] += 1
        if state["user"] == 8 and state["updates"] == 2:
            a = -a  # negative definite: LAPACK's factorisation fails
        return cholesky(a, signature=signature)

    monkeypatch.setattr(cli, "ReplayEnvironment", Recording)
    monkeypatch.setattr(lmdh._umath_linalg, "cholesky_lo", failing)
    argv = ["replay", "--dataset", RATINGS, "--format", "generic", "--policy", "lmdh",
            "--k", "4", "--rounds", "3", "--workers", workers, "--out", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: user 8: round 2: A is not positive definite (11 x 11)\n"
    )


def test_a_failed_factorisation_names_the_simulated_run(tmp_path, capsys, monkeypatch):
    calls = []
    cholesky = lmdh._umath_linalg.cholesky_lo

    def failing(a, signature):
        calls.append(None)
        if len(calls) == 5:  # run 1's second round, after run 0's three
            a = -a
        return cholesky(a, signature=signature)

    monkeypatch.setattr(lmdh._umath_linalg, "cholesky_lo", failing)
    argv = ["simulate", "--runs", "2", "--rounds", "3", "--workers", "1",
            "--out", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: run 1: round 2: A is not positive definite (11 x 11)\n"
    )
