"""Slate bandits with modular relevance and dispersion diversity.

A slate's value adds per-item relevance to pairwise-distance diversity, both
weighted by user preferences; greedy selection carries a 1/4 approximation
guarantee, and a hybrid linear-UCB learner estimates the weights online.
"""

from .baselines import (
    EpsilonGreedyPolicy,
    LogRankPolicy,
    MmrPolicy,
    SlateSelection,
    StaticScorer,
)
from .catalog import (
    ItemCatalog,
    PreferenceVector,
    Slate,
    cosine_metric,
    guarantee_preconditions,
    utility,
)
from .environments import (
    ReplayEnvironment,
    ReplayUser,
    SimulatedEnvironment,
    study_instance,
    run_episode,
)
from .evaluation import (
    MetricSeries,
    RegretSeries,
    compute_metric_series,
    scaled_regret,
)
from .greedy import exhaustive_optimum, greedy_select
from .ingest import (
    load_embeddings,
    parse_ratings,
    split_users,
    synthetic_embeddings,
)
from .lmdh import (
    HybridStatistics,
    LmdhConfig,
    LmdhPolicy,
    TheoryParams,
    confidence_width,
    estimate_preferences,
    lemma1_width_budget,
    regret_upper_bound,
    select_slate,
    theoretical_alpha,
    update,
)

__version__ = "0.1.0"
