"""Deterministic RNG construction: the package's one seed rule.

Every random stream is ``rng_from_seed(seed, purpose, index)``, a Philox
generator keyed by ``SeedSequence(seed, spawn_key=(purpose, index))``.  The
experiment seed names the experiment; the purpose names what the stream
draws, and the index which run, instance or user it draws for:

* ``INSTANCE``: simulated run or approx-ratio instance ``index``'s features
  and eta*;
* ``REWARDS``: simulated run ``index``'s Bernoulli rewards;
* ``POLICY``: the baselines' population preference of simulated run
  ``index``, then its epsilon-greedy exploration; in replay, epsilon-greedy
  user ``index``'s exploration;
* ``SPLIT``: replay's train/test shuffle of users;
* ``EMBEDDINGS``: replay's synthetic item vectors.

Distinct keys give independent streams, so distinct seeds give distinct
experiments.  CI checks that outputs are the same bytes at any worker count
and at one BLAS thread (so are 40 LMDH rounds at L = 20 000), and that three
commands' outputs are the same under numpy 1.24 as under the newest numpy.
"""

from __future__ import annotations

import numpy as np

INSTANCE, REWARDS, POLICY, SPLIT, EMBEDDINGS = range(5)


def rng_from_seed(seed: int, purpose: int, index: int = 0) -> np.random.Generator:
    """The Philox generator of stream (`purpose`, `index`) under `seed`."""
    key = np.random.SeedSequence(int(seed), spawn_key=(purpose, int(index)))
    return np.random.Generator(np.random.Philox(key))
