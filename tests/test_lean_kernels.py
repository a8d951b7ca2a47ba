"""The simulated round's lean kernels against the forms they replaced.

`lmdh._raw_widths_batch` adds its squared x terms one column at a time
where its oracle takes a row-wise `einsum`, and `greedy_fill` masked the
taken items with a boolean index; `slate_features` range-checked a `Slate`
through numpy.  The world's reward means took their dots with `@` per
position, and its F(A) added the relevance in one product and each metric's
marginals with `np.cumsum`; it now computes each position's marginal gain
once and adds the gains left to right.  Those forms are kept as oracles,
here and in `oracles.py`, whose plain select loop runs with the `einsum`
widths.  At m = 1, the only m any command runs, every row-wise dot is a
single product, so slates, features and widths must match bit for bit.  At
m > 1 the width sums its m products in another order: there the kernel must
agree with the `einsum` form to 1e-12 of the summed magnitudes, and the
other kernels, whose arithmetic did not change, bit for bit.  The gains and
F(A) must have the bits of `oracles.py`'s `gains_oracle` and
`utility_oracle`, and agree with the old per-position and `cumsum` forms,
which add in another order, to 1e-12 of the magnitudes summed; the clamps
and rewards, exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersion_bandit.baselines import SlateSelection
from dispersion_bandit.catalog import (
    PreferenceVector,
    Slate,
    marginal_gains,
    slate_features,
)
from dispersion_bandit.environments import SimInstance, SimulatedEnvironment
from dispersion_bandit.errors import InvalidItemError
from dispersion_bandit.lmdh import (
    HybridStatistics,
    LmdhConfig,
    _raw_widths_batch,
    _z_terms,
    select_slate,
    update,
)
from dispersion_bandit.seeding import REWARDS, rng_from_seed

from conftest import logged
from oracles import (
    gain_sizes,
    gains_oracle,
    select_slate_oracle,
    slate_features_oracle,
    utility_oracle,
)
from test_greedy_kernel import draw_catalog, draw_values

# ---------------------------------------------------------------------------
# oracles: the kernels as they stood before


def raw_widths_batch_oracle(term_zz, term_xz, X, stats):
    r = np.dot(X, stats.W[stats.d :, stats.d :].T) + term_xz
    return term_zz + np.einsum("ij,ij->i", r, r)


def position_means_oracle(z, x, eta):
    means = np.zeros(len(z))
    clamp_hits = 0
    for pos in range(len(z)):
        raw = float(eta.theta @ z[pos] + eta.beta @ x[pos])
        if raw < 0.0 or raw > 1.0:
            clamp_hits += 1
        means[pos] = min(max(raw, 0.0), 1.0)
    return means, clamp_hits


def features_utility_oracle(z, x, eta):
    if z.shape[0] == 0:
        return 0.0
    value = float(z.sum(axis=0) @ eta.theta)
    dispersion = np.cumsum(x, axis=0)[-1]
    for beta_i, v_i in zip(eta.beta, dispersion):
        value += float(beta_i) * float(v_i)
    return value


# ---------------------------------------------------------------------------


def random_stats(rng, d, m, rounds):
    """Statistics after `rounds` updates on random (z, x) rows: every block of W is dense."""
    stats = HybridStatistics(d, m, lam=1.0)
    for _ in range(rounds):
        zeta = rng.uniform(-1.0, 1.0, size=(3, d + m))
        w = rng.integers(0, 2, 3).astype(float)
        update(stats, logged(zeta[:, :d], zeta[:, d:]), w)
    return stats


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_lean_kernels_match_the_old_forms(data):
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    m = data.draw(st.sampled_from([1, 2, 3]), label="m")
    d = data.draw(st.integers(1, 4), label="d")
    n_items = data.draw(st.integers(1, 12), label="n_items")
    tied = data.draw(st.booleans(), label="tied")
    catalog = draw_catalog(rng, n_items, d, m, tied)
    if data.draw(st.booleans(), label="whole_catalog"):
        cand = catalog.all_items()
    else:
        n_cand = data.draw(st.integers(1, n_items), label="n_cand")
        cand = np.sort(rng.choice(n_items, size=n_cand, replace=False))
    k = data.draw(st.integers(1, cand.size), label="k")

    stats = random_stats(rng, d, m, data.draw(st.integers(0, 4), label="rounds"))
    stats.b = draw_values(rng, d + m, tied)
    alpha = data.draw(st.sampled_from([0.0, 0.5, 1.0, 3.0]), label="alpha")
    config = LmdhConfig(lam=1.0, alpha=alpha, d=d, m=m, k=k)

    # the width kernel on every candidate, against an arbitrary accumulator
    Z = catalog.relevance[cand]
    term_zz, term_xz = _z_terms(Z, stats)
    X = np.abs(draw_values(rng, (cand.size, m), tied))
    got_v = _raw_widths_batch(term_zz, term_xz, X, stats)
    want_v = raw_widths_batch_oracle(term_zz, term_xz, X, stats)
    if m == 1:
        assert got_v.tobytes() == want_v.tobytes()
    else:  # every term is a square, so the sum is its own magnitude
        assert np.all(np.abs(got_v - want_v) <= 1e-12 * want_v)

    # eta with negative and large weights, so position means clamp both ways
    eta = PreferenceVector(3.0 * draw_values(rng, d, tied), draw_values(rng, m, tied))
    if m == 1:
        got = select_slate(stats, config, catalog, cand)
        want = select_slate_oracle(
            stats, config, catalog, cand, widths=raw_widths_batch_oracle
        )
        assert got.slate.items == want[0]
        assert got.relevance_features.tobytes() == want[1].tobytes()
        assert got.diversity_features.tobytes() == want[2].tobytes()
        assert got.widths.tobytes() == want[3].tobytes()
        slate = got.slate
    else:
        slate = Slate(tuple(rng.permutation(cand)[:k].tolist()))

    z, x = slate_features(slate, catalog)
    want_z, want_x = slate_features_oracle(slate, catalog)
    assert z.tobytes() == want_z.tobytes() and x.tobytes() == want_x.tobytes()
    # one feedback: its gains, clamps, rewards and F(A)
    env = SimulatedEnvironment(SimInstance(catalog, eta, seed))
    rewards = env.feedback(SlateSelection(slate))
    gains = marginal_gains(z, x, eta)
    assert gains.tobytes() == np.array(gains_oracle(z, x, eta)).tobytes()
    sizes = gain_sizes(z, x, eta)
    want_means, want_hits = position_means_oracle(z, x, eta)
    assert np.all(np.abs(np.clip(gains, 0.0, 1.0) - want_means) <= 1e-12 * sizes)
    draws = rng_from_seed(seed, REWARDS).random(len(slate))
    assert rewards.tolist() == [float(u < mean) for u, mean in zip(draws, want_means)]
    assert env.clamp_hits == want_hits
    value = env.true_utility(slate)
    want_value = utility_oracle(slate, eta, catalog)
    assert math.copysign(1.0, value) == math.copysign(1.0, want_value)
    assert value == want_value
    assert abs(value - features_utility_oracle(z, x, eta)) <= 1e-12 * sizes.sum()


@pytest.mark.parametrize("items", [(0, -1), (2, 5), (-3, 0, 9)])
def test_slate_features_rejects_a_slate_outside_the_catalog_as_before(items):
    catalog = draw_catalog(np.random.default_rng(0), 5, 2, 1, tied=False)
    with pytest.raises(InvalidItemError) as got:
        slate_features(Slate(items), catalog)
    with pytest.raises(InvalidItemError) as want:
        slate_features_oracle(Slate(items), catalog)
    assert str(got.value) == str(want.value)
