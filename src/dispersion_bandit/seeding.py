"""Deterministic RNG construction.

All randomness in the package flows through counter-based Philox generators so
that experiments are bit-reproducible across platforms and worker counts.

Seed-derivation rule (documented contract):

* a per-user / per-run seed is ``experiment_seed XOR index``;
* independent streams under one seed are ``Philox(seed).jumped(stream)``:
  ``STREAM_INSTANCE = 0`` draws the simulated instance, ``STREAM_REWARDS = 1``
  the simulated Bernoulli rewards and ``STREAM_POLICY = 2`` the baselines'
  population preference and the epsilon-greedy exploration.
"""

from __future__ import annotations

import numpy as np

# Stream indices for sub-generators sharing one seed.
STREAM_INSTANCE = 0
STREAM_REWARDS = 1
STREAM_POLICY = 2


def derive_seed(experiment_seed: int, index: int) -> int:
    """Per-user / per-run seed: ``experiment_seed XOR index``."""
    return int(experiment_seed) ^ int(index)


def rng_from_seed(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator for `seed`, advanced to the given independent stream."""
    bits = np.random.Philox(int(seed))
    if stream:
        bits = bits.jumped(stream)
    return np.random.Generator(bits)
