"""Cumulative metrics (Recall, Diversity, F_beta) and the scaled regret.

Aggregation conventions:

* A user is "alive" at round t when their episode reached t; round-t
  averages divide by the alive count, so early candidate exhaustion shrinks
  the denominator instead of injecting zeros.
* A user with an empty positive set has no recall, and raises
  `PreconditionError`: a replay's held-out users all have a positive.
* Per-round contributions are sorted before summing, so every aggregate is
  invariant to permuting the user list, bit for bit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .catalog import ItemCatalog, unit_rows
from .environments import SimulatedEnvironment, TrialRound
from .errors import PreconditionError, UndefinedDiversityError
from .greedy import GAMMA, exhaustive_optimum
from .greedy import greedy_select  # noqa: F401  perfbench/tests/test_spans.py wraps it here

#: The F_beta weights `compute_metric_series` reports.
F_BETAS = (1.0, 2.0)


@dataclass(frozen=True)
class RegretSeries:
    """Cumulative regret curves for one episode (simulation only)."""

    scaled: np.ndarray  # sum_t F(A*) - F(A_t)/GAMMA   (can be negative)
    raw: np.ndarray  # sum_t F(A*) - F(A_t)
    width_sum: np.ndarray  # cumulative selection widths (zero for baselines)


@dataclass(frozen=True)
class MetricSeries:
    """Round-indexed replay metrics averaged over users."""

    rounds: np.ndarray
    recall: np.ndarray
    diversity: np.ndarray
    f_beta: dict[float, np.ndarray]
    n_users: np.ndarray  # alive count per round

    def __post_init__(self):
        lengths = {
            self.rounds.shape[0],
            self.recall.shape[0],
            self.diversity.shape[0],
            self.n_users.shape[0],
        } | {v.shape[0] for v in self.f_beta.values()}
        if len(lengths) != 1:
            raise ValueError("metric series lengths differ")


def _ordered_mean(values: list[float]) -> float:
    # sorting first makes the float sum independent of user ordering
    return float(np.sort(np.asarray(values, dtype=np.float64)).sum() / len(values))


@lru_cache(maxsize=None)
def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only `np.triu_indices(n, k=1)`, built once per slate size."""
    pairs = np.triu_indices(n, k=1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def slate_diversity(items, unit: np.ndarray) -> float:
    """Mean raw cosine distance over the slate's pairs: 2/(|A|(|A|-1)) * sum.

    `unit` holds the catalog's unit relevance rows (`unit_rows`).  A mean
    that rounds below 0, as for a slate of parallel vectors, is 0.0, as
    `CosineDistanceMetric` clips each distance.
    """
    if len(items) < 2:
        raise UndefinedDiversityError(
            f"diversity needs at least 2 items, got {len(items)}"
        )
    vecs = unit[list(items)]
    sims = vecs @ vecs.T
    n = len(items)
    upper = sims[_pair_indices(n)]
    return max(float(np.sum(1.0 - upper) * 2.0 / (n * (n - 1))), 0.0)


def f_beta_at(recall: float, diversity: float, beta: float) -> float:
    """(1+b^2)*R*D / (b^2*D + R); recall weighted beta times as important."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if recall < 0 or diversity < 0:
        raise ValueError("recall and diversity must be non-negative")
    denominator = beta * beta * diversity + recall
    if denominator == 0.0:
        return 0.0
    return (1.0 + beta * beta) * recall * diversity / denominator


def compute_metric_series(logs, positives, catalog: ItemCatalog) -> MetricSeries:
    """Recall/Diversity/F_beta at every round up to the longest episode.

    F_beta is reported for each beta of `F_BETAS`.  A user with no positive
    items raises `PreconditionError` naming the user's index.
    """
    if len(logs) != len(positives):
        raise ValueError(
            f"{len(logs)} logs but {len(positives)} positive sets"
        )
    if not logs:
        raise PreconditionError("no users")
    pos_sets = [frozenset(pos) for pos in positives]
    for user, pos in enumerate(pos_sets):
        if not pos:
            raise PreconditionError(
                f"user {user} has no positive items: recall is undefined"
            )
    horizon = max(len(log) for log in logs)
    rounds = np.arange(1, horizon + 1)
    recall = np.zeros(horizon)
    diversity = np.zeros(horizon)
    n_users = np.zeros(horizon, dtype=np.intp)
    unit = unit_rows(catalog.relevance)

    # running per-user state so the sweep is O(total rounds), not O(t^2)
    hit_fractions = [0.0 for _ in logs]
    diversity_sums = [0.0 for _ in logs]
    # users often see the same slate (static policies); each is scored once
    slate_diversities: dict[tuple[int, ...], float] = {}
    for t in rounds:
        rec_vals, div_vals = [], []
        for i, (log, pos) in enumerate(zip(logs, pos_sets)):
            if len(log) < t:
                continue
            entry = log[t - 1]
            hit_fractions[i] += sum(
                1 for item in entry.items if item in pos
            ) / len(pos)
            slate_div = slate_diversities.get(entry.items)
            if slate_div is None:
                slate_div = slate_diversity(entry.items, unit)
                slate_diversities[entry.items] = slate_div
            diversity_sums[i] += slate_div
            rec_vals.append(hit_fractions[i])
            div_vals.append(diversity_sums[i] / t)
        n_users[t - 1] = len(rec_vals)
        recall[t - 1] = _ordered_mean(rec_vals)
        diversity[t - 1] = _ordered_mean(div_vals)

    f_beta = {
        float(b): np.array(
            [f_beta_at(recall[i], diversity[i], b) for i in range(horizon)]
        )
        for b in F_BETAS
    }
    return MetricSeries(
        rounds=rounds,
        recall=recall,
        diversity=diversity,
        f_beta=f_beta,
        n_users=n_users,
    )


def scaled_regret(
    log: tuple[TrialRound, ...], environment: SimulatedEnvironment
) -> RegretSeries:
    """Cumulative F(A*) - F(A_t)/GAMMA and the unscaled companion series.

    The simulated world offers its whole catalog every round, so A* is one
    exhaustive search per run at the log's K.  Each round's F(A_t) is the
    world's truth of the slate it showed.
    """
    instance = environment.instance
    best = 0.0  # a zero-round log has no K, and three empty series
    if log:
        _, best = exhaustive_optimum(
            instance.eta_star, instance.catalog, instance.catalog.all_items(),
            len(log[0].items),
        )
    utility = np.array([environment.true_utility(entry.items) for entry in log])
    widths = np.array([0.0 if entry.widths is None else entry.widths.sum() for entry in log])
    # cumsum adds left to right, as the running sums of one episode do
    return RegretSeries(
        scaled=np.cumsum(best - utility / GAMMA),
        raw=np.cumsum(best - utility),
        width_sum=np.cumsum(widths),
    )


def average_regret(series: list[RegretSeries]) -> RegretSeries:
    """Pointwise mean over runs; all runs must share one horizon."""
    if not series:
        raise ValueError("no regret series to average")
    lengths = {s.scaled.shape[0] for s in series}
    if len(lengths) != 1:
        raise ValueError(f"regret series have differing lengths: {sorted(lengths)}")
    stack = lambda attr: np.mean([getattr(s, attr) for s in series], axis=0)
    return RegretSeries(
        scaled=stack("scaled"),
        raw=stack("raw"),
        width_sum=stack("width_sum"),
    )


def write_metrics_csv(series: MetricSeries, path) -> None:
    """Schema: round, metric, beta, value, n_users (beta empty off f_beta rows)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "metric", "beta", "value", "n_users"])
        for i, t in enumerate(series.rounds):
            n = int(series.n_users[i])
            writer.writerow([int(t), "recall", "", repr(float(series.recall[i])), n])
            writer.writerow(
                [int(t), "diversity", "", repr(float(series.diversity[i])), n]
            )
            for beta in sorted(series.f_beta):
                writer.writerow(
                    [
                        int(t),
                        "f_beta",
                        repr(beta),
                        repr(float(series.f_beta[beta][i])),
                        n,
                    ]
                )


def write_regret_csv(
    series: RegretSeries,
    path,
    bounds: np.ndarray | None = None,
    budgets: np.ndarray | None = None,
) -> None:
    """Schema: round, scaled_regret, raw_regret, bound, width_sum, width_budget."""
    n = series.scaled.shape[0]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["round", "scaled_regret", "raw_regret", "bound", "width_sum", "width_budget"]
        )
        for i in range(n):
            bound = "" if bounds is None else repr(float(bounds[i]))
            budget = "" if budgets is None else repr(float(budgets[i]))
            writer.writerow(
                [
                    i + 1,
                    repr(float(series.scaled[i])),
                    repr(float(series.raw[i])),
                    bound,
                    repr(float(series.width_sum[i])),
                    budget,
                ]
            )
