"""Distinct seeds give distinct experiments."""

import csv
import itertools

from dispersion_bandit.cli import main
from dispersion_bandit.seeding import (
    EMBEDDINGS,
    INSTANCE,
    POLICY,
    REWARDS,
    SPLIT,
    rng_from_seed,
)

PURPOSES = (INSTANCE, REWARDS, POLICY, SPLIT, EMBEDDINGS)


def test_distinct_keys_give_distinct_first_draws():
    # s and s XOR 977 once shared streams: 977 was the embedding draw's index
    seeds = [s for base in range(4) for s in (base, base ^ 977)]
    keys = list(itertools.product(seeds, PURPOSES, range(4)))
    draws = [rng_from_seed(*key).integers(2**63) for key in keys]
    assert len(set(draws)) == len(keys)
    assert draws == [rng_from_seed(*key).integers(2**63) for key in keys]


def test_nearby_seeds_simulate_distinct_runs(tmp_path, capsys):
    columns = []
    for seed in (0, 1, 2):
        out = tmp_path / f"seed-{seed}"
        assert main(["simulate", "--runs", "4", "--rounds", "30", "--seed", str(seed),
                     "--workers", "1", "--out", str(out)]) == 0
        with open(out / "regret.csv") as fh:
            columns.append([float(row["raw_regret"]) for row in csv.DictReader(fh)])
    capsys.readouterr()
    for a, b in itertools.combinations(columns, 2):
        assert max(abs(x - y) for x, y in zip(a, b)) > 1e-9
