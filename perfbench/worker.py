"""One iteration of a benchmark workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD --seed N --inputs DIR --out DIR \
        --result FILE [--trace]

The package is imported from ``src/`` next to this directory, never from an
installed copy.  ``sim-ratio`` runs the ``simulate`` and ``approx-ratio``
commands through ``cli.main`` at ``--workers 1`` with a tenth of their
default runs; ``replay-ml1m`` runs the
``replay`` command's own set-up and per-user tasks for a fixed prefix of
held-out users under all four policies.

Light hooks on ``run_episode``, ``greedy_select`` and
``exhaustive_optimum`` stamp the first slate request, time episodes, count
work and run the per-episode output check.  With ``--trace`` every layer in
``LAYERS`` is also wrapped in spans.  Check time is measured and reported so
the caller can take it out of the wall time.  The reference loop of
``calibration`` is sampled at the start, around set-up functions and
episodes when due, before the first slate and after the measured work; the
caller takes the sampling out of the times and scales them by the samples.
The result is one JSON file.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import calibration
import checks
import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Held-out users replayed under each policy.  With 12, a traced run spends
# about 55% of its wall time in episodes and 31% in the three baselines'
# episodes (set-up is the rest).  24 users would raise the baselines' share
# only to about 40% while halving the iterations that fit in one run.
ML1M_PREFIX_USERS = 12
# sim-ratio does a tenth of the commands' default runs (simulate: 20 runs;
# approx-ratio: 100 instances for each K in 2..5), every other option at its
# default.  Each run or instance is the same work at any count; short
# iterations give a run some twenty samples instead of four.
SIM_RUNS = 2
RATIO_RUNS_PER_K = 10
RATIO_INSTANCES = 4 * RATIO_RUNS_PER_K
SIM_ARGS = {
    "simulate": ["--runs", str(SIM_RUNS)],
    "approx-ratio": ["--runs", str(RATIO_RUNS_PER_K)],
}

# (layer name, module, function or Class.method) wrapped in trace mode.
LAYERS = (
    ("lmdh.select_slate", "lmdh", "select_slate"),
    ("lmdh.update", "lmdh", "update"),
    ("environments.run_episode", "environments", "run_episode"),
    ("environments.candidates", "environments", "SimulatedEnvironment.candidates"),
    ("environments.candidates", "environments", "ReplayEnvironment.candidates"),
    ("environments.feedback", "environments", "SimulatedEnvironment.feedback"),
    ("environments.feedback", "environments", "ReplayEnvironment.feedback"),
    ("environments.true_utility", "environments", "SimulatedEnvironment.true_utility"),
    ("baselines.logrank.select", "baselines", "LogRankPolicy.select"),
    ("baselines.mmr.select", "baselines", "MmrPolicy.select"),
    ("baselines.epsilon-greedy.select", "baselines", "EpsilonGreedyPolicy.select"),
    ("greedy.exhaustive_optimum", "greedy", "exhaustive_optimum"),
    ("greedy.greedy_select", "greedy", "greedy_select"),
    ("evaluation.scaled_regret", "evaluation", "scaled_regret"),
    ("evaluation.compute_metric_series", "evaluation", "compute_metric_series"),
    ("evaluation.write_csv", "evaluation", "write_regret_csv"),
    ("evaluation.write_csv", "evaluation", "write_metrics_csv"),
    ("ingest.parse_ratings", "ingest", "parse_ratings"),
    ("ingest.split_users", "ingest", "split_users"),
    ("ingest.items_of", "ingest", "InteractionTable.items_of"),
    ("ingest.synthetic_embeddings", "ingest", "synthetic_embeddings"),
    ("catalog.build", "catalog", "cosine_metric"),
)

# Set-up functions around which the reference loop is sampled when due, so
# that replay-ml1m's long set-up is calibrated through, not only at its ends.
SAMPLED = (
    ("ingest", "parse_ratings"),
    ("ingest", "split_users"),
    ("ingest", "InteractionTable.items_of"),
    ("ingest", "synthetic_embeddings"),
    ("catalog", "cosine_metric"),
)


def monotonic() -> float:
    """System-wide clock, comparable with the parent process's stamps."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Probe:
    """Always-on hooks: first-slate stamp, episode time, counts, checks."""

    def __init__(self, estimate_preferences, guarantee_preconditions, sampler):
        self.estimate_preferences = estimate_preferences
        self.guarantee_preconditions = guarantee_preconditions
        self.first_slate: float | None = None
        self.episode_s = 0.0
        self.check_s = 0.0
        self.rounds = 0
        self.episodes = 0
        self.failed: set[int] = set()
        self.problems: list[str] = []
        self.preconditions: list[bool] = []
        self.counts = Counter()
        self.sampler = sampler

    def stamp(self) -> None:
        if self.first_slate is None:
            self.sampler.sample()  # closes the set-up stretch
            self.first_slate = monotonic()

    def episode_hook(self, run_episode):
        def hooked(policy, environment, n, k):
            self.stamp()
            start = time.perf_counter()
            log = run_episode(policy, environment, n, k)
            checked = time.perf_counter()
            self.episode_s += checked - start
            self._after_episode(policy, environment, log, n, k)
            self.check_s += time.perf_counter() - checked
            self.sampler.sample_if_due()
            return log

        return hooked

    def _after_episode(self, policy, environment, log, n: int, k: int) -> None:
        index = self.episodes
        self.episodes += 1
        self.rounds += len(log)
        self.counts["episodes_short"] += len(log) < n
        self.counts["reward_clamps"] += getattr(environment, "clamp_hits", 0)
        candidates = [r.candidate_items for r in log if r.candidate_items is not None]
        self.counts["oracle_lookups"] += len(candidates)
        self.counts["oracle_misses"] += len(set(candidates))
        stats = getattr(policy, "stats", None)
        if stats is None or len(log) == 0:
            return
        self.counts["width_clamps"] += stats.clamp_count
        self.counts["items_scored"] += k * sum(r.num_candidates for r in log)
        theta, beta = self.estimate_preferences(stats)
        gap = checks.ridge_gap(
            np.concatenate([theta, beta]), log, policy.config.lam
        )
        if not gap <= checks.RIDGE_TOLERANCE:
            self.fail([index], f"episode {index}: ridge gap {gap:.3e}")

    def sampling_hook(self, fn):
        def hooked(*args, **kwargs):
            self.sampler.sample_if_due()
            result = fn(*args, **kwargs)
            self.sampler.sample_if_due()
            return result

        return hooked

    def greedy_hook(self, greedy_select):
        def hooked(eta, catalog, *args, **kwargs):
            self.stamp()
            result = greedy_select(eta, catalog, *args, **kwargs)
            start = time.perf_counter()
            self.preconditions.append(self.guarantee_preconditions(eta, catalog))
            self.check_s += time.perf_counter() - start
            return result

        return hooked

    def oracle_hook(self, exhaustive_optimum):
        def hooked(eta, catalog, candidates, k, *args, **kwargs):
            self.counts["subsets_scored"] += math.comb(len(set(candidates)), k)
            return exhaustive_optimum(eta, catalog, candidates, k, *args, **kwargs)

        return hooked

    def fail(self, units, message: str) -> None:
        self.failed.update(units)
        self.problems.append(message)


def run_cli(cli, argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1


def sim_ratio(args, out: Path):
    """``simulate`` and then ``approx-ratio`` with the options in SIM_ARGS."""
    from dispersion_bandit import cli

    common = ["--workers", "1", "--seed", str(args.seed), "--out"]
    sim_out, ratio_out = out / "simulate", out / "approx-ratio"
    code = run_cli(cli, ["simulate", *SIM_ARGS["simulate"], *common, str(sim_out)])
    if code == 0:
        code = run_cli(
            cli, ["approx-ratio", *SIM_ARGS["approx-ratio"], *common, str(ratio_out)]
        )
    units = SIM_RUNS + RATIO_INSTANCES
    return code, units, [
        (sim_out / "regret.csv", range(SIM_RUNS)),
        (ratio_out / "ratios.csv", range(SIM_RUNS, units)),
    ]


def replay_ml1m(args, out: Path):
    """The ``replay`` command's set-up and tasks for a prefix of test users.

    The options are the ``replay`` parser's own defaults; the world is built
    by the command's ``_replay_context`` and each episode is one of its
    ``_replay_task`` calls, exactly as ``cmd_replay`` makes them.
    """
    from dispersion_bandit import cli, evaluation

    options = cli.build_parser().parse_args(
        ["replay", "--dataset", str(args.inputs / "ratings.dat"),
         "--format", "ml1m-colons", "--seed", str(args.seed), "--out", str(out)]
    )
    key = (options.dataset, cli.canonical_format(options.format), options.threshold,
           options.top_items, options.seed, options.embeddings, options.metric_mode,
           options.k)
    _, test, items, _ = cli._replay_context(key)
    alpha_value = cli.resolve_alpha(
        options.alpha, options.k, items.relevance_dim, 1, options.lam, options.rounds
    )
    users = range(min(ML1M_PREFIX_USERS, test.n_users))
    positives = [frozenset(int(i) for i in test.items_of(u)) for u in users]
    outputs = []
    for p, name in enumerate(cli.POLICIES):
        logs = [
            cli._replay_task((key, name, options.lam, alpha_value, options.epsilon,
                              options.mmr_alpha, options.k, options.rounds,
                              options.seed, u))
            for u in users
        ]
        series = evaluation.compute_metric_series(logs, positives, items)
        path = out / f"metrics-{name}.csv"
        evaluation.write_metrics_csv(series, path)
        outputs.append((path, range(p * len(users), (p + 1) * len(users))))
    return 0, len(cli.POLICIES) * len(users), outputs


def check_outputs(probe: Probe, code: int, units: int, outputs) -> None:
    """File checks, run after the timed part; failures mark their units."""
    if code != 0:
        probe.fail(range(units), f"command exited with code {code}")
        return
    for path, unit_span in outputs:
        if path.name == "ratios.csv":
            bad = checks.check_ratios(path, probe.preconditions)
            if bad:
                units_bad = [unit_span[i] for i in bad if i < len(unit_span)]
                probe.fail(units_bad, f"{path.name}: {len(bad)} row(s) fail the ratio check")
            continue
        check = checks.check_regret if path.name == "regret.csv" else checks.check_metrics
        problems = check(path)
        if problems:
            probe.fail(unit_span, f"{path.name}: " + "; ".join(problems[:3]))


WORKLOADS = {
    "sim-ratio": sim_ratio,
    "replay-ml1m": replay_ml1m,
}


def output_digest(out: Path) -> str:
    """sha256 over the CSV outputs; manifest.json names --out, so it is left out."""
    digest = hashlib.sha256()
    for path in sorted(out.rglob("*.csv")):
        name = path.relative_to(out).as_posix()
        digest.update(name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def blas_threads() -> int | None:
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    symbols = (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def environment_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "workers": 1,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dispersion_bandit" / "__init__.py").is_file():
        print(f"no package source at {SRC}", file=sys.stderr)
        return 2
    sampler = calibration.Sampler(monotonic)
    sampler.sample()
    sys.path.insert(0, str(SRC))
    import dispersion_bandit
    from dispersion_bandit.catalog import guarantee_preconditions
    from dispersion_bandit.lmdh import estimate_preferences

    if Path(dispersion_bandit.__file__).resolve().parent != SRC / "dispersion_bandit":
        print("imported a package copy outside src/", file=sys.stderr)
        return 2
    missing, recorder = [], None
    if args.trace:
        recorder = spans.Recorder()
        for name, module, path in LAYERS:
            if not spans.replace(module, path, lambda fn, n=name: recorder.wrap(fn, n)):
                missing.append(f"{module}.{path}")
    probe = Probe(estimate_preferences, guarantee_preconditions, sampler)
    spans.replace("environments", "run_episode", probe.episode_hook)
    spans.replace("greedy", "greedy_select", probe.greedy_hook)
    spans.replace("greedy", "exhaustive_optimum", probe.oracle_hook)
    for module, path in SAMPLED:
        spans.replace(module, path, probe.sampling_hook)

    args.out.mkdir(parents=True, exist_ok=True)
    code, units, outputs = WORKLOADS[args.workload](args, args.out)
    done = monotonic()
    sampler.sample()
    check_outputs(probe, code, units, outputs)
    if probe.first_slate is None:
        probe.fail(range(units), "no slate was ever requested")

    result = {
        "workload": args.workload,
        "first_slate": probe.first_slate if probe.first_slate is not None else done,
        "done": done,
        "check_s": probe.check_s,
        "calibration": sampler.samples,
        "episode_s": probe.episode_s,
        "episodes": probe.episodes,
        "rounds": probe.rounds,
        "units": units,
        "failed_units": len(probe.failed),
        "problems": probe.problems[:10],
        "digest": output_digest(args.out),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "counts": dict(probe.counts),
        "environment": environment_record(),
        "missing_layers": missing,
        "layers": spans.layer_summary(recorder.spans) if recorder else {},
    }
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
