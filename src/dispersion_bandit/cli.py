"""Command-line front end: simulate, replay, approx-ratio, ingest.

Every command resolves its full configuration up front (seed fallback, alpha
resolution, defaults) and writes a ``manifest.json`` next to its outputs.  The
manifest stores the resolved argument vector, so re-running it reproduces the
outputs byte for byte — CSV floats are written with ``repr`` and nothing
depends on wall-clock time or worker count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from .baselines import EpsilonGreedyPolicy, LogRankPolicy, MmrPolicy, StaticScorer
from .catalog import METRIC_MODES, ItemCatalog, cosine_metric
from .environments import (
    PREFERENCE_RANGE,
    ReplayEnvironment,
    ReplayUser,
    SimulatedEnvironment,
    study_instance,
    run_episode,
)
from .errors import DispersionBanditError, InsufficientCandidatesError, prefix_message
from .evaluation import (
    average_regret,
    compute_metric_series,
    scaled_regret,
    write_metrics_csv,
    write_regret_csv,
)
from .greedy import exhaustive_optimum, greedy_select, ratio_to_optimum
from .ingest import (
    FORMAT_ALIASES,
    FORMATS,
    canonical_format,
    filter_top_items,
    load_embeddings,
    parse_ratings,
    split_users,
    synthetic_embeddings,
    write_maps,
)
from .lmdh import (
    LmdhConfig,
    LmdhPolicy,
    TheoryParams,
    lemma1_width_budget,
    regret_upper_bound,
    theoretical_alpha,
)
from .seeding import POLICY, rng_from_seed

# Simulated-study constants: 20 items with 10-d features, one dispersion term.
SIM_ITEMS = 20
SIM_D = 10
SIM_M = 1
DEFAULT_RATIO_KS = (2, 3, 4, 5)

POLICIES = ("lmdh", "logrank", "mmr", "epsilon-greedy")


def _sim_theory(n: int, k: int, d: int, m: int, lam: float, horizon: int) -> TheoryParams:
    # One confidence budget split across every pull of the horizon; floor the
    # product so delta stays inside (0, 1) even for one-pull toy horizons.
    delta = 1.0 / max(horizon * k, 2)
    return TheoryParams(n=n, k=k, d=d, m=m, lam=lam, delta=delta)


def resolve_alpha(spec: str, k: int, d: int, m: int, lam: float, horizon: int) -> float:
    """--alpha's value: the number, or the derived radius for "theory"."""
    if spec == "theory":
        return theoretical_alpha(_sim_theory(horizon, k, d, m, lam, horizon))
    return float(spec)


def positive_int(text: str) -> int:
    """argparse type for count flags: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def seed_int(text: str) -> int:
    """argparse type for --seed, and the rule for LMDB_SEED: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {text!r}"
        )
    return value


def _float_flag(rule: str, holds):
    """argparse type for a float flag: a finite number for which `holds` is true."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and holds(value)):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value

    return parse


positive_float = _float_flag("a finite number > 0", lambda v: v > 0)
unit_float = _float_flag("a finite number in [0, 1]", lambda v: 0 <= v <= 1)
_alpha_number = _float_flag('"theory" or a finite number >= 0', lambda v: v >= 0)
finite_float = _float_flag("a finite number", lambda v: True)


def existing_file(text: str) -> str:
    """argparse type for an input file flag: a path to a file, kept as given."""
    if not Path(text).is_file():
        raise argparse.ArgumentTypeError(f"no such file: {text!r}")
    return text


def alpha_spec(text: str) -> str:
    """argparse type for --alpha: "theory" or a finite number >= 0, kept as given."""
    if text != "theory":
        _alpha_number(text)
    return text


def manifest_options(args: argparse.Namespace) -> dict:
    """Every parsed flag but --workers (it never changes outputs), by its spelling."""
    return {
        ("lambda" if name == "lam" else name.replace("_", "-")): value
        for name, value in vars(args).items()
        if name not in ("command", "func", "workers")
    }


def _write_manifest(out_dir: Path, command: str, options: dict, derived: dict, outputs: list[str]) -> None:
    argv: list[str] = [command]
    for flag in sorted(options):
        value = options[flag]
        if value is None:
            continue
        argv.extend([f"--{flag}", str(value)])
    payload = {
        "command": command,
        "argv": argv,
        "options": options,
        "derived": derived,
        "outputs": outputs,
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    (out_dir / "manifest.json").write_text(text)


def _map_tasks(fn, tasks, workers: int | None) -> list:
    """Order-preserving map over `workers` processes (None: every core), at most
    one per task, forking a pool only when it can actually help."""
    if workers is None:
        workers = os.cpu_count() or 1
    workers = min(workers, len(tasks))
    if workers <= 1:
        return [fn(task) for task in tasks]
    # imported here so that commands run in one process never load them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        return list(pool.map(fn, tasks))


# ---------------------------------------------------------------------------
# simulate


def make_policy(
    name: str,
    catalog: ItemCatalog,
    k: int,
    lam: float,
    alpha: float,
    epsilon: float,
    mmr_alpha: float,
    rng: np.random.Generator | None,
    scorer: StaticScorer,
):
    """The one place a policy is built from the command-line settings.

    Baselines score with the population `scorer`; epsilon-greedy explores
    with `rng`.  LMDH uses neither.  LogRank and MMR share their slates in
    `scorer.slates`, LMDH its selections in `catalog.selections`.
    """
    if name == "lmdh":
        config = LmdhConfig(
            lam=lam, alpha=alpha, d=catalog.relevance_dim, m=catalog.diversity_dim, k=k
        )
        return LmdhPolicy(config, catalog)
    if name == "logrank":
        return LogRankPolicy(scorer, k)
    if name == "mmr":
        return MmrPolicy(scorer, k, mmr_alpha)
    if name == "epsilon-greedy":
        return EpsilonGreedyPolicy(scorer, k, epsilon, rng)
    raise SystemExit(f"unknown policy {name!r}")


def _check_k(k: int, n_items: int) -> None:
    """A slate larger than the item pool is a usage error, raised before --out exists."""
    if k > n_items:
        raise InsufficientCandidatesError(
            f"--k {k} exceeds the catalog's {n_items} items"
        )


def _simulate_run(args: argparse.Namespace, alpha_value: float, run: int):
    try:
        instance = study_instance(
            args.seed, run, n_items=SIM_ITEMS, d=SIM_D, k=args.k,
            metric_mode=args.metric_mode,
        )
        # The baselines' u_bar is drawn from the true preference's prior (a
        # stand-in for a scorer trained on other users) before epsilon-greedy
        # takes the same rng for its exploration.
        rng = rng_from_seed(args.seed, POLICY, run)
        u_bar = rng.uniform(*PREFERENCE_RANGE, SIM_D)
        policy = make_policy(
            args.policy, instance.catalog, args.k, args.lam, alpha_value, args.epsilon,
            args.mmr_alpha, rng, StaticScorer(u_bar, instance.catalog),
        )
        environment = SimulatedEnvironment(instance)
        log = run_episode(policy, environment, args.rounds, args.k)
        return scaled_regret(log, environment)
    except DispersionBanditError as exc:
        prefix_message(exc, f"run {run}")
        raise


def cmd_simulate(args: argparse.Namespace) -> int:
    _check_k(args.k, SIM_ITEMS)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    alpha_value = resolve_alpha(args.alpha, args.k, SIM_D, SIM_M, args.lam, args.rounds)
    one_run = partial(_simulate_run, args, alpha_value)
    series = average_regret(_map_tasks(one_run, range(args.runs), args.workers))

    bounds = budgets = None
    if args.policy == "lmdh":
        params = [
            _sim_theory(t, args.k, SIM_D, SIM_M, args.lam, args.rounds)
            for t in range(1, args.rounds + 1)
        ]
        budgets = np.array([lemma1_width_budget(p) for p in params])
        needed = theoretical_alpha(params[-1])
        if alpha_value >= needed - 1e-9:
            bounds = np.array([regret_upper_bound(p, alpha_value) for p in params])
    write_regret_csv(series, out / "regret.csv", bounds=bounds, budgets=budgets)

    derived = {
        "alpha_value": alpha_value,
        "delta": _sim_theory(
            args.rounds, args.k, SIM_D, SIM_M, args.lam, args.rounds
        ).delta,
        "sim_items": SIM_ITEMS,
        "sim_d": SIM_D,
        "sim_m": SIM_M,
    }
    _write_manifest(
        out, "simulate", manifest_options(args), derived, ["regret.csv"]
    )

    final = args.rounds - 1
    line = (
        f"{args.policy}: runs={args.runs} rounds={args.rounds} "
        f"raw_regret={series.raw[final]:.3f} scaled_regret={series.scaled[final]:.3f}"
    )
    if bounds is not None:
        line += f" bound={bounds[final]:.1f}"
    if args.policy == "lmdh":
        line += f" width_sum={series.width_sum[final]:.3f}"
    print(line)
    print(f"wrote {out / 'regret.csv'}")
    return 0


# ---------------------------------------------------------------------------
# approx-ratio


def _ratio_task(args: argparse.Namespace, task: tuple[int, int]):
    k, index = task
    instance = study_instance(
        args.seed, index, n_items=SIM_ITEMS, d=SIM_D, k=k, metric_mode=args.metric_mode
    )
    candidates = instance.catalog.all_items()
    result = greedy_select(instance.eta_star, instance.catalog, candidates, k)
    _, optimal_value = exhaustive_optimum(
        instance.eta_star, instance.catalog, candidates, k
    )
    return result.value, optimal_value, ratio_to_optimum(result.value, optimal_value)


def cmd_approx_ratio(args: argparse.Namespace) -> int:
    ks = [args.k] if args.k is not None else list(DEFAULT_RATIO_KS)
    _check_k(max(ks), SIM_ITEMS)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    tasks = [(k, i) for k in ks for i in range(args.runs)]
    results = list(
        zip(tasks, _map_tasks(partial(_ratio_task, args), tasks, args.workers))
    )

    path = out / "ratios.csv"
    with open(path, "w", newline="") as fh:
        fh.write("K,user,greedy_value,optimal_value,ratio\n")
        for (k, user), (greedy_value, optimal_value, ratio) in results:
            fh.write(
                f"{k},{user},{repr(float(greedy_value))},"
                f"{repr(float(optimal_value))},{repr(float(ratio))}\n"
            )

    derived = {
        "ks": ks,
        "sim_items": SIM_ITEMS,
        "sim_d": SIM_D,
    }
    _write_manifest(
        out, "approx-ratio", manifest_options(args), derived, ["ratios.csv"]
    )

    for k in ks:
        ratios = [ratio for (task_k, _), (_, _, ratio) in results if task_k == k]
        print(
            f"K={k}: mean ratio {np.mean(ratios):.4f} "
            f"min {np.min(ratios):.4f} over {args.runs} instances"
        )
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# replay


@lru_cache(maxsize=1)
def _replay_context(key: tuple):
    """Rebuild the replay world from primitives (cached once per process).

    Its users' policies share the memos of its catalog and scorer.
    """
    (dataset, fmt, threshold, top_items, seed, embeddings, metric_mode, k) = key
    table = parse_ratings(dataset, fmt, threshold)
    if top_items is not None:
        table = filter_top_items(table, top_items)
    train, test = split_users(table, seed)
    if embeddings is not None:
        vectors = load_embeddings(embeddings, table.item_ids)
    else:
        vectors = synthetic_embeddings(table.n_items, SIM_D, seed)
    metric = cosine_metric(vectors, mode=metric_mode, slate_capacity=k)
    catalog = ItemCatalog(vectors, (metric,))
    # built on a baseline's first read of `quality`; LMDH never reads it
    u_bar = partial(_population_u_bar, train, vectors)
    return table, test, catalog, StaticScorer(u_bar, catalog)


def _population_u_bar(train, vectors: np.ndarray) -> np.ndarray:
    """The population scorer's u_bar: the mean over training users of their
    mean positive-item vector (an average user's profile, as a trained
    ranker would supply).  bincount adds each user's rows in record order, as
    `mean` over the user's rows would, so a sum per dimension and a divide
    are its means."""
    users, n = train.users, train.n_users
    sums = np.column_stack(
        [
            np.bincount(users, weights=column[train.items], minlength=n)
            for column in np.ascontiguousarray(vectors.T)
        ]
    )
    return (sums / np.bincount(users, minlength=n)[:, None]).mean(axis=0)


def _replay_task(task: tuple):
    (key, policy_name, lam, alpha_value, epsilon, mmr_alpha, k, rounds, seed, u) = task
    _, test, catalog, scorer = _replay_context(key)
    # messages name the user by the file's id; streams and order use the index u
    user_id = int(test.user_ids[u])
    try:
        positives = frozenset(int(i) for i in test.items_of(u))
        user = ReplayUser(user_id=user_id, positives=positives)
        explores = policy_name == "epsilon-greedy"  # the one policy that draws
        rng = rng_from_seed(seed, POLICY, u) if explores else None
        policy = make_policy(
            policy_name, catalog, k, lam, alpha_value, epsilon, mmr_alpha, rng, scorer
        )
        environment = ReplayEnvironment(catalog, user)
        return run_episode(policy, environment, rounds, k)
    except DispersionBanditError as exc:
        prefix_message(exc, f"user {user_id}")
        raise


def cmd_replay(args: argparse.Namespace) -> int:
    fmt = canonical_format(args.format)
    key = (args.dataset, fmt, args.threshold, args.top_items, args.seed,
           args.embeddings, args.metric_mode, args.k)
    table, test, catalog, _ = _replay_context(key)
    _check_k(args.k, catalog.item_count)
    # created only once the ratings have parsed, so a bad file leaves no directory
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    alpha_value = resolve_alpha(
        args.alpha, args.k, catalog.relevance_dim, catalog.diversity_dim, args.lam,
        args.rounds,
    )
    tasks = [
        (key, args.policy, args.lam, alpha_value, args.epsilon, args.mmr_alpha, args.k,
         args.rounds, args.seed, u)
        for u in range(test.n_users)
    ]
    logs = _map_tasks(_replay_task, tasks, args.workers)
    positives = [
        frozenset(int(i) for i in test.items_of(u)) for u in range(test.n_users)
    ]
    series = compute_metric_series(logs, positives, catalog)
    write_metrics_csv(series, out / "metrics.csv")

    derived = {
        "alpha_value": alpha_value,
        "format_canonical": fmt,
        "n_users": table.n_users,
        "n_items": table.n_items,
        "n_interactions": table.n_interactions,
        "n_test_users": test.n_users,
        "embedding_d": catalog.relevance_dim,
    }
    _write_manifest(
        out, "replay", manifest_options(args), derived, ["metrics.csv"]
    )

    last = len(series.rounds) - 1
    print(
        f"{args.policy}: {test.n_users} test users, "
        f"{len(series.rounds)} rounds evaluated, "
        f"recall={series.recall[last]:.4f} diversity={series.diversity[last]:.4f}"
    )
    print(f"wrote {out / 'metrics.csv'}")
    return 0


# ---------------------------------------------------------------------------
# ingest


def cmd_ingest(args: argparse.Namespace) -> int:
    fmt = canonical_format(args.format)
    parsed = parse_ratings(args.dataset, fmt, args.threshold)
    table = parsed
    if args.top_items is not None:
        table = filter_top_items(parsed, args.top_items)
    print(
        f"{table.n_users} users, {table.n_items} items, "
        f"{table.n_interactions} interactions"
    )
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_maps(table, out / "users.map.csv", out / "items.map.csv")
        derived = {
            "format_canonical": fmt,
            "n_users": table.n_users,
            "n_items": table.n_items,
            "n_interactions": table.n_interactions,
            "filtered_below_threshold": parsed.filtered_count,
            "duplicates_collapsed": parsed.duplicate_count,
        }
        if args.top_items is not None:
            derived["dropped_by_top_items"] = (
                parsed.n_interactions - table.n_interactions
            )
        _write_manifest(
            out, "ingest", manifest_options(args), derived,
            ["users.map.csv", "items.map.csv"],
        )
        print(f"wrote {out / 'users.map.csv'} and {out / 'items.map.csv'}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_seed_workers(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed",
        type=seed_int,
        default=None,
        help="experiment seed, an integer >= 0 (default: LMDB_SEED, then 0)",
    )
    parser.add_argument(
        "--workers",
        type=positive_int,
        default=None,
        help="worker processes (default: all cores); never changes outputs",
    )


def _add_policy_flags(parser: argparse.ArgumentParser, lam: float) -> None:
    parser.add_argument("--policy", choices=POLICIES, default="lmdh")
    parser.add_argument(
        "--lambda",
        dest="lam",
        type=positive_float,
        default=lam,
        help=f"ridge regularizer (default {lam})",
    )
    parser.add_argument(
        "--alpha",
        type=alpha_spec,
        default="1.0",
        help='exploration width multiplier, or "theory" for the derived radius',
    )
    parser.add_argument("--epsilon", type=unit_float, default=0.05)
    parser.add_argument("--mmr-alpha", dest="mmr_alpha", type=unit_float, default=0.9)


def _add_dataset_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset", required=True, type=existing_file, help="ratings file to parse"
    )
    parser.add_argument(
        "--format",
        choices=sorted(set(FORMATS) | set(FORMAT_ALIASES)),
        default="ml100k-tab",
    )
    parser.add_argument(
        "--threshold",
        type=finite_float,
        default=3.0,
        help="keep interactions with rating strictly above this",
    )
    parser.add_argument(
        "--top-items",
        dest="top_items",
        type=positive_int,
        default=None,
        help="keep only the N most-rated items",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dispersion-bandit",
        description="Diversified slate bandits: simulation, offline replay, "
        "greedy-ratio studies, and dataset ingestion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="seeded Bernoulli simulation, regret curves")
    _add_policy_flags(sim, lam=1.0)
    sim.add_argument("--k", type=positive_int, default=5)
    sim.add_argument("--rounds", type=positive_int, default=1000)
    sim.add_argument("--runs", type=positive_int, default=20)
    sim.add_argument("--metric-mode", dest="metric_mode", choices=METRIC_MODES,
                     default="slate-normalized")
    sim.add_argument("--out", required=True)
    _add_seed_workers(sim)
    sim.set_defaults(func=cmd_simulate)

    ratio = sub.add_parser(
        "approx-ratio", help="greedy vs exhaustive utility on random instances"
    )
    ratio.add_argument("--k", type=positive_int, default=None, help="single slate "
                       "size (default: sweep 2, 3, 4, 5)")
    ratio.add_argument("--runs", type=positive_int, default=100,
                       help="instances per K")
    ratio.add_argument("--metric-mode", dest="metric_mode", choices=METRIC_MODES,
                       default="raw")
    ratio.add_argument("--out", required=True)
    _add_seed_workers(ratio)
    ratio.set_defaults(func=cmd_approx_ratio)

    rep = sub.add_parser("replay", help="offline replay over held-out users")
    _add_dataset_flags(rep)
    rep.add_argument(
        "--embeddings",
        type=existing_file,
        default=None,
        help="item embedding CSV (item,e0,...); synthetic when omitted",
    )
    _add_policy_flags(rep, lam=50.0)
    rep.add_argument("--k", type=positive_int, default=10)
    rep.add_argument("--rounds", type=positive_int, default=30)
    rep.add_argument("--metric-mode", dest="metric_mode", choices=METRIC_MODES,
                     default="slate-normalized")
    rep.add_argument("--out", required=True)
    _add_seed_workers(rep)
    rep.set_defaults(func=cmd_replay)

    ing = sub.add_parser("ingest", help="parse a ratings file, print its summary")
    _add_dataset_flags(ing)
    ing.add_argument("--out", default=None, help="directory for index maps")
    ing.set_defaults(func=cmd_ingest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "metric_mode", None) == "slate-normalized" and args.k == 1:
        parser.error(
            "--metric-mode slate-normalized needs --k >= 2: it divides by K * (K - 1)"
        )
    if args.command == "replay" and args.k == 1:
        parser.error("replay needs --k >= 2: Diversity is a mean over a slate's pairs")
    if "seed" in args and args.seed is None:
        # the flag's fallback obeys the flag's rule
        env = os.environ.get("LMDB_SEED", "0")
        try:
            args.seed = seed_int(env)
        except argparse.ArgumentTypeError as exc:
            parser.error(f"LMDB_SEED {exc}")
    try:
        return args.func(args)
    except DispersionBanditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
