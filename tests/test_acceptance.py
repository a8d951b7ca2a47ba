"""Acceptance gate: nine numbered criteria, one report line each.

Each test prints an ``ACCEPTANCE n: PASS/FAIL/SKIP`` line straight to the
terminal (bypassing capture) so the verdicts are visible in any pytest run.
Criteria 1 and 8 need the raw MovieLens archives; when those files are absent
the tests skip and say where to put the data.  Everything else is
self-contained and deterministic.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import TableDistanceMetric, random_table
from dispersion_bandit.baselines import SlateSelection
from dispersion_bandit.catalog import (
    ItemCatalog,
    PreferenceVector,
    Slate,
    cosine_metric,
    guarantee_preconditions,
)
from dispersion_bandit.cli import (
    _replay_context,
    _replay_task,
    _simulate_run,
    build_parser,
    main,
)
from dispersion_bandit.environments import study_instance
from dispersion_bandit.evaluation import compute_metric_series
from dispersion_bandit.greedy import exhaustive_optimum, greedy_select
from dispersion_bandit.lmdh import (
    HybridStatistics,
    LmdhConfig,
    TheoryParams,
    estimate_preferences,
    lemma1_width_budget,
    select_slate,
    theoretical_alpha,
    update,
)
from dispersion_bandit.seeding import INSTANCE, rng_from_seed
from conftest import utility_by_hand
from oracles import confidence_width

ROOT = Path(__file__).resolve().parent.parent
SAMPLE_RATINGS = str(ROOT / "data" / "sample" / "ratings.csv")
SAMPLE_EMBEDDINGS = str(ROOT / "data" / "sample" / "embeddings.csv")

ML_FILES = {
    "ml-100k": ("u.data", "ml100k-tab", (942, 1447, 55375)),
    "ml-1m": ("ratings.dat", "ml1m-colons", (6038, 3533, 575281)),
}


def movielens_path(name: str) -> Path | None:
    """Look for the raw ratings file under MOVIELENS_DIR, then data/<name>/."""
    filename = ML_FILES[name][0]
    roots = []
    env = os.environ.get("MOVIELENS_DIR")
    if env:
        roots.append(Path(env))
    roots.append(ROOT / "data")
    for root in roots:
        for candidate in (root / name / filename, root / filename):
            if candidate.is_file():
                return candidate
    return None


def verdict(capsys, criterion: int, checks: list[tuple[bool, str]]) -> None:
    ok = all(passed for passed, _ in checks)
    detail = "; ".join(msg for _, msg in checks)
    with capsys.disabled():
        print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def skip_line(capsys, criterion: int, why: str) -> None:
    with capsys.disabled():
        print(f"\nACCEPTANCE {criterion}: SKIP — {why}")
    pytest.skip(why)


def quiet_main(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


def csv_rows(path: Path) -> list[dict]:
    with open(path) as fh:
        return list(csv.DictReader(fh))


def tree_hashes(out: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.is_file()
    }


# --------------------------------------------------------------------------
# 1. Table reproduction: exact ingest counts on the raw MovieLens archives.


def test_criterion_1_ingest_counts(capsys):
    present = {n: movielens_path(n) for n in ML_FILES if movielens_path(n)}
    if not present:
        skip_line(
            capsys,
            1,
            "MovieLens archives not found; place u.data under data/ml-100k/ "
            "and ratings.dat under data/ml-1m/ (or set MOVIELENS_DIR); "
            "parser itself is covered by tests/test_ingest.py fixtures",
        )
    checks = []
    for name, path in sorted(present.items()):
        _, fmt, (users, items, inter) = ML_FILES[name]
        assert main(["ingest", "--dataset", str(path), "--format", fmt]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        expected = f"{users} users, {items} items, {inter} interactions"
        checks.append((line == expected, f"{name}: {line!r} vs {expected!r}"))
    for name in ML_FILES:
        if name not in present:
            checks.append((True, f"{name} absent, not checked"))
    verdict(capsys, 1, checks)


# --------------------------------------------------------------------------
# 2. Approximation-ratio study: published means within ±0.01, floor 1/4.


def test_criterion_2_approximation_ratios(tmp_path, capsys):
    published = {2: 0.9995, 3: 0.9992, 4: 0.9989, 5: 0.9971}
    start = time.perf_counter()
    assert quiet_main(["approx-ratio", "--out", str(tmp_path)]) == 0
    elapsed = time.perf_counter() - start

    rows = csv_rows(tmp_path / "ratios.csv")
    ratios: dict[int, list[float]] = {}
    for row in rows:
        ratios.setdefault(int(row["K"]), []).append(float(row["ratio"]))
    options = json.loads((tmp_path / "manifest.json").read_text())["options"]
    instances = [
        study_instance(options["seed"], i, k=5, metric_mode="raw")
        for i in range(options["runs"])
    ]
    preconditions = all(
        guarantee_preconditions(inst.eta_star, inst.catalog) for inst in instances
    )

    checks = [(preconditions, "guarantee preconditions hold on all instances")]
    for k, target in published.items():
        mean = float(np.mean(ratios[k]))
        checks.append(
            (abs(mean - target) <= 0.01, f"K={k} mean {mean:.4f} vs {target}")
        )
    floor = min(min(v) for v in ratios.values())
    checks.append((floor >= 0.25 - 1e-12, f"min ratio {floor:.4f} >= 0.25"))
    checks.append((elapsed < 60.0, f"{elapsed:.1f}s < 60s"))
    verdict(capsys, 2, checks)


# --------------------------------------------------------------------------
# 3. Regret behavior at standard study settings, via the CLI at its defaults.


@pytest.fixture(scope="module")
def simulated_curves(tmp_path_factory):
    base = tmp_path_factory.mktemp("sim")

    def run(tag: str, policy: str, alpha: str | None):
        out = base / tag
        argv = ["simulate", "--policy", policy, "--out", str(out), "--workers", "1"]
        if alpha is not None:
            argv += ["--alpha", alpha]
        assert quiet_main(argv) == 0
        return csv_rows(out / "regret.csv")

    return {
        "lmdh": run("lmdh", "lmdh", None),
        "lmdh-theory": run("lmdh-theory", "lmdh", "theory"),
        "epsilon-greedy": run("eps", "epsilon-greedy", None),
        "logrank": run("logrank", "logrank", None),
    }


def test_criterion_3_regret_behavior(simulated_curves, capsys):
    def raw_at(rows, t):
        return float(rows[t - 1]["raw_regret"])

    lmdh = simulated_curves["lmdh"]
    ratio = raw_at(lmdh, 1000) / raw_at(lmdh, 500)
    eps = raw_at(simulated_curves["epsilon-greedy"], 1000)
    logrank = raw_at(simulated_curves["logrank"], 1000)
    theory = simulated_curves["lmdh-theory"]
    margins = [
        float(row["bound"]) - float(row["scaled_regret"]) for row in theory
    ]
    checks = [
        (ratio < 1.8, f"sublinear: regret(1000)/regret(500) = {ratio:.3f} < 1.8"),
        (
            raw_at(lmdh, 1000) < eps and raw_at(lmdh, 1000) < logrank,
            f"ordering: lmdh {raw_at(lmdh, 1000):.1f} < eps {eps:.1f}, "
            f"logrank {logrank:.1f}",
        ),
        (
            all(margin >= -1e-9 for margin in margins),
            f"scaled regret under bound at every round "
            f"(min margin {min(margins):.1f})",
        ),
    ]
    verdict(capsys, 3, checks)


# --------------------------------------------------------------------------
# 4. Block-monolith equivalence: width vs the raw-log joint ridge form.


def test_criterion_4_width_equals_joint_ridge(capsys):
    rng = rng_from_seed(777, INSTANCE)
    d, m, k, lam = 10, 1, 5, 1.0
    vectors = rng.uniform(-1.0, 1.0, size=(30, d))
    catalog = ItemCatalog(vectors, (cosine_metric(vectors, mode="raw"),))
    config = LmdhConfig(lam=lam, alpha=1.0, d=d, m=m, k=k)
    stats = HybridStatistics(d, m, lam)
    phi = lam * np.eye(d + m)

    for _ in range(200):
        selection = select_slate(stats, config, catalog, catalog.all_items())
        rewards = rng.random(k)
        update(stats, selection, rewards)
        for z_row, x_row in zip(
            selection.relevance_features, selection.diversity_features
        ):
            zeta = np.concatenate([z_row, x_row])
            phi += np.outer(zeta, zeta)

    worst = 0.0
    for _ in range(100):
        z = rng.uniform(-1.0, 1.0, d)
        x = rng.uniform(-1.0, 1.0, m)
        zeta = np.concatenate([z, x])
        expected = float(zeta @ np.linalg.solve(phi, zeta))
        worst = max(worst, abs(confidence_width(z, x, stats) - expected))
    verdict(
        capsys,
        4,
        [(worst <= 1e-8, f"max |learner - monolith| = {worst:.2e} <= 1e-8 "
          "over 100 probes after 200 select/update rounds")],
    )


# --------------------------------------------------------------------------
# 5. Width budget: cumulative width sum under the closed-form budget.


def test_criterion_5_width_budget(simulated_curves, capsys):
    k, d, m, lam, horizon = 5, 10, 1, 1.0, 1000
    delta = 1.0 / (horizon * k)
    budgets = np.array(
        [
            lemma1_width_budget(TheoryParams(n=t, k=k, d=d, m=m, lam=lam, delta=delta))
            for t in range(1, horizon + 1)
        ]
    )
    alpha = theoretical_alpha(
        TheoryParams(n=horizon, k=k, d=d, m=m, lam=lam, delta=delta)
    )

    # averaged curve from the CLI artifacts, then three individual runs
    mean_widths = np.array(
        [float(row["width_sum"]) for row in simulated_curves["lmdh-theory"]]
    )
    checks = [
        (
            bool(np.all(mean_widths <= budgets + 1e-9)),
            f"mean curve: {mean_widths[-1]:.1f} <= {budgets[-1]:.1f} at n=1000",
        )
    ]
    args = build_parser().parse_args(
        ["simulate", "--lambda", repr(lam), "--k", str(k), "--rounds", str(horizon),
         "--seed", "0", "--out", "unused"]
    )
    for run_index in range(3):
        series = _simulate_run(args, alpha, run_index)
        ok = bool(np.all(series.width_sum <= budgets + 1e-9))
        checks.append(
            (ok, f"run {run_index}: {series.width_sum[-1]:.1f} within budget")
        )
    verdict(capsys, 5, checks)


# --------------------------------------------------------------------------
# 6. Utility/marginal consistency on 1000 small random instances.


def test_criterion_6_telescoping_and_modular_exactness(capsys):
    rng = rng_from_seed(606, INSTANCE)
    worst_gap = 0.0
    worst_modular = 0.0
    for i in range(1000):
        n = int(rng.integers(4, 11))
        k = int(rng.integers(1, min(4, n) + 1))
        d = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        relevance = rng.uniform(-1.0, 1.0, size=(n, d))
        tables = [random_table(rng, n) for _ in range(m)]
        catalog = ItemCatalog(
            relevance, tuple(TableDistanceMetric(t) for t in tables)
        )
        modular_only = i % 2 == 0
        theta = rng.uniform(-1.0, 1.0, size=d)
        beta = np.zeros(m) if modular_only else rng.uniform(0.0, 1.0, size=m)
        eta = PreferenceVector(theta, beta)

        result = greedy_select(eta, catalog, catalog.all_items(), k)
        direct = utility_by_hand(result.slate.items, theta, beta, relevance, tables)
        worst_gap = max(worst_gap, abs(result.value - direct))
        if modular_only:
            _, best = exhaustive_optimum(eta, catalog, catalog.all_items(), k)
            worst_modular = max(worst_modular, abs(result.value - best))
    checks = [
        (worst_gap <= 1e-12, f"telescoping gap {worst_gap:.2e} <= 1e-12"),
        (
            worst_modular <= 1e-12,
            f"greedy = exhaustive for beta=0 (gap {worst_modular:.2e})",
        ),
    ]
    verdict(capsys, 6, checks)


# --------------------------------------------------------------------------
# 7. Estimator consistency: 10,000 Bernoulli observations, fixed eta*.


def test_criterion_7_estimator_consistency(capsys):
    # Binary feature draws keep every direction of the design well fed, so
    # the tolerance is reachable inside 10k observations; means eta . zeta
    # stay in [0, 0.53] by construction, hence valid Bernoulli rates.
    theta_star = 0.03 + 0.004 * np.arange(10)
    beta_star = np.array([0.05])
    eta_star = np.concatenate([theta_star, beta_star])
    k = 5
    checks = []
    for seed in (11, 12, 13):
        rng = rng_from_seed(seed, INSTANCE)
        stats = HybridStatistics(10, 1, 1.0)
        for _ in range(10_000 // k):
            zeta = (rng.random((k, 11)) < 0.5).astype(np.float64)
            rewards = (rng.random(k) < zeta @ eta_star).astype(np.float64)
            selection = SlateSelection(
                slate=Slate(tuple(range(k))),
                relevance_features=zeta[:, :10],
                diversity_features=zeta[:, 10:],
            )
            update(stats, selection, rewards)
        theta_hat, beta_hat = estimate_preferences(stats)
        err = float(
            np.linalg.norm(np.concatenate([theta_hat, beta_hat]) - eta_star)
        )
        checks.append((err < 0.05, f"seed {seed}: |eta_hat - eta*| = {err:.4f}"))
    verdict(capsys, 7, checks)


# --------------------------------------------------------------------------
# 8. Replay pipeline smoke: completion, monotone recall, MMR > LogRank diversity.


def _replay_study(dataset: str, embeddings: str | None, k: int, rounds: int):
    """Per-user logs and final diversity for lmdh, mmr and logrank."""
    key = (dataset, "generic-csv", 3.0, None, 0, embeddings, "slate-normalized", k)
    if dataset.endswith("u.data"):
        key = (dataset, "ml100k-tab", 3.0, None, 0, embeddings, "slate-normalized", k)
    _, test, catalog, _ = _replay_context(key)
    positives = [
        frozenset(int(i) for i in test.items_of(u)) for u in range(test.n_users)
    ]
    out = {}
    for policy, lam in (("lmdh", 50.0), ("mmr", 50.0), ("logrank", 50.0)):
        logs = [
            _replay_task((key, policy, lam, 1.0, 0.05, 0.9, k, rounds, 0, u))
            for u in range(test.n_users)
        ]
        series = compute_metric_series(logs, positives, catalog)
        out[policy] = (logs, positives, series)
    return out


def _recall_monotone(logs, positives) -> bool:
    for log, pos in zip(logs, positives):
        if not pos:
            continue
        running, previous = 0.0, -1.0
        for entry in log:
            running += sum(1 for item in entry.items if item in pos) / len(pos)
            if running < previous - 1e-12:
                return False
            previous = running
    return True


def test_criterion_8_replay_pipeline(capsys):
    results = _replay_study(SAMPLE_RATINGS, SAMPLE_EMBEDDINGS, k=4, rounds=4)
    checks = []
    lmdh_logs, lmdh_pos, _ = results["lmdh"]
    checks.append(
        (
            all(len(log) >= 1 for log in lmdh_logs),
            f"sample: all {len(lmdh_logs)} test users completed",
        )
    )
    checks.append(
        (
            _recall_monotone(lmdh_logs, lmdh_pos),
            "sample: per-user recall non-decreasing",
        )
    )
    mmr_div = float(results["mmr"][2].diversity[-1])
    log_div = float(results["logrank"][2].diversity[-1])
    checks.append(
        (mmr_div > log_div, f"sample: MMR diversity {mmr_div:.3f} > "
         f"LogRank {log_div:.3f}")
    )

    ml = movielens_path("ml-100k")
    if ml is None:
        ok = all(passed for passed, _ in checks)
        detail = "; ".join(msg for _, msg in checks)
        assert ok, f"criterion 8 sample properties: {detail}"
        skip_line(
            capsys,
            8,
            "ML-100K not found (see criterion 1); bundled-sample properties "
            f"hold: {detail}",
        )
    real = _replay_study(str(ml), None, k=10, rounds=30)
    real_logs, real_pos, _ = real["lmdh"]
    checks.append(
        (
            all(len(log) == 30 for log in real_logs),
            f"ml-100k: 30 rounds x K=10 for {len(real_logs)} users",
        )
    )
    checks.append(
        (_recall_monotone(real_logs, real_pos), "ml-100k: recall non-decreasing")
    )
    mmr30 = float(real["mmr"][2].diversity[29])
    log30 = float(real["logrank"][2].diversity[29])
    checks.append(
        (mmr30 > log30, f"ml-100k: MMR Diversity(30) {mmr30:.3f} > {log30:.3f}")
    )
    verdict(capsys, 8, checks)


# --------------------------------------------------------------------------
# 9. Determinism: every command re-run from its manifest, byte-identical.


def test_criterion_9_manifest_determinism(tmp_path, capsys):
    commands = {
        "simulate": ["simulate", "--runs", "2", "--rounds", "12", "--out",
                     str(tmp_path / "sim"), "--workers", "2"],
        "approx-ratio": ["approx-ratio", "--k", "3", "--runs", "4", "--out",
                         str(tmp_path / "ratio"), "--workers", "2"],
        "replay": ["replay", "--dataset", SAMPLE_RATINGS, "--format", "generic",
                   "--embeddings", SAMPLE_EMBEDDINGS, "--policy",
                   "epsilon-greedy", "--k", "4", "--rounds", "3", "--out",
                   str(tmp_path / "rep"), "--workers", "2"],
        "ingest": ["ingest", "--dataset", SAMPLE_RATINGS, "--format", "generic",
                   "--out", str(tmp_path / "ing")],
    }
    checks = []
    for name, argv in commands.items():
        out = Path(argv[argv.index("--out") + 1])
        assert quiet_main(argv) == 0
        before = tree_hashes(out)
        manifest_argv = json.loads((out / "manifest.json").read_text())["argv"]
        assert quiet_main(manifest_argv) == 0
        identical = tree_hashes(out) == before
        checks.append(
            (identical, f"{name}: {len(before)} files byte-identical on re-run")
        )
    verdict(capsys, 9, checks)
