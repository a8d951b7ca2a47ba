"""`exhaustive_optimum` over the cached subset table, against the enumeration it replaced.

The oracle below is the per-call `fromiter` enumeration that stood before the
table: it must agree with the new code on the subset and on every bit of the
value, however the oracle and the scorer split the enumeration into blocks,
and with tied optima on either side of a block boundary.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersion_bandit import cli, greedy
from dispersion_bandit.catalog import ItemCatalog, PreferenceVector
from dispersion_bandit.greedy import _pairwise_weights, _subset_table, exhaustive_optimum

from conftest import TableDistanceMetric


def exhaustive_optimum_oracle(eta, catalog, candidates, k, chunk):
    """The exhaustive oracle as it stood: a fresh `fromiter` block per chunk."""
    catalog.check_eta(eta)
    cand = np.flatnonzero(catalog.open_mask(candidates, k))
    per_item = catalog.relevance[cand] @ eta.theta
    w = _pairwise_weights(eta, catalog, cand)
    pair_pos = list(itertools.combinations(range(k), 2))

    best_value = -np.inf
    best_subset = None
    combos = itertools.combinations(range(cand.size), k)
    while True:
        block = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(combos, chunk)),
            dtype=np.intp,
        ).reshape(-1, k)
        if block.size == 0:
            break
        values = per_item[block].sum(axis=1)
        for p, q in pair_pos:
            values += w[block[:, p], block[:, q]]
        pick = int(np.argmax(values))
        if values[pick] > best_value:
            best_value = float(values[pick])
            best_subset = tuple(int(cand[i]) for i in block[pick])
        if block.shape[0] < chunk:
            break
    return best_subset, best_value


def grid_catalog(rng, n, d, m, tied):
    """Random catalog; `tied` draws from a small grid, so optima tie exactly."""
    def draw(size):
        if tied:
            return rng.choice(np.array([0.0, 0.25, 0.5, 1.0]), size=size)
        return rng.uniform(0.0, 1.0, size=size)

    metrics = []
    for _ in range(m):
        upper = np.triu(draw((n, n)), k=1)
        metrics.append(TableDistanceMetric(upper + upper.T))
    eta = PreferenceVector(draw(d) - (0.0 if tied else 0.5), draw(m))
    return ItemCatalog(draw((n, d)), tuple(metrics)), eta


@pytest.fixture
def fresh_tables():
    _subset_table.cache_clear()
    yield
    _subset_table.cache_clear()


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_matches_the_fromiter_enumeration_bit_for_bit(data):
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    n = data.draw(st.integers(1, 14), label="n")
    k = data.draw(st.integers(1, n), label="k")
    tied = data.draw(st.booleans(), label="tied")
    chunk = data.draw(st.sampled_from([1, 2, 3, 7, 64, 262_144]), label="oracle_chunk")
    rows = data.draw(st.sampled_from([1, 2, 5, greedy._SCORE_ROWS]), label="score_rows")
    rng = np.random.default_rng(seed)
    catalog, eta = grid_catalog(rng, n, 2, data.draw(st.integers(1, 2), label="m"), tied)
    cand = np.sort(rng.choice(n, size=data.draw(st.integers(k, n)), replace=False))

    want_subset, want_value = exhaustive_optimum_oracle(eta, catalog, cand, k, chunk)
    original = greedy._SCORE_ROWS
    greedy._SCORE_ROWS = rows
    try:
        got_subset, got_value = exhaustive_optimum(eta, catalog, cand, k)
    finally:
        greedy._SCORE_ROWS = original
    assert got_subset == want_subset
    assert got_value.hex() == want_value.hex()


@pytest.mark.parametrize("chunk", [5, 4, 6])
def test_a_tie_across_a_block_boundary_keeps_the_earlier_subset(monkeypatch, chunk):
    # Only pairs (0, 5) and (1, 2) reach the top value.  With n=6, k=2 the
    # lexicographic order is (0,1)..(0,5), (1,2), ...: at chunk 5 the two
    # straddle the first boundary, at 4 and 6 they share a block or not.
    table = np.full((6, 6), 0.5)
    np.fill_diagonal(table, 0.0)
    table[0, 5] = table[5, 0] = table[1, 2] = table[2, 1] = 1.0
    catalog = ItemCatalog(np.ones((6, 1)), (TableDistanceMetric(table),))
    eta = PreferenceVector(np.zeros(1), np.ones(1))
    monkeypatch.setattr(greedy, "_SCORE_ROWS", chunk)
    assert exhaustive_optimum(eta, catalog, range(6), 2) == ((0, 5), 1.0)
    assert exhaustive_optimum_oracle(eta, catalog, range(6), 2, chunk) == ((0, 5), 1.0)


@pytest.mark.parametrize("n, dtype", [(256, np.uint8), (257, np.uint16)])
def test_matches_the_oracle_at_the_index_dtype_boundaries(fresh_tables, n, dtype):
    # the last two items are planted as the optimum, so index n - 1 must
    # survive the narrow table: 255 is uint8's largest, 256 needs uint16
    rng = np.random.default_rng(n)
    catalog, _ = grid_catalog(rng, n, 2, 1, tied=False)
    relevance = catalog.relevance.copy()
    relevance[-2:] += 10.0
    catalog = ItemCatalog(relevance, catalog.metrics)
    eta = PreferenceVector(np.ones(2), np.ones(1))

    got_subset, got_value = exhaustive_optimum(eta, catalog, range(n), 2)
    want_subset, want_value = exhaustive_optimum_oracle(eta, catalog, range(n), 2, 4_096)
    assert _subset_table(n, 2).dtype == dtype
    assert got_subset == want_subset == (n - 2, n - 1)
    assert got_value.hex() == want_value.hex()


@pytest.mark.parametrize("rows", [greedy._SCORE_ROWS, 1_000])
@pytest.mark.parametrize("tied", [False, True])
def test_matches_the_oracle_at_the_widest_command_table(monkeypatch, rows, tied):
    # C(20, 10) = 184 756 subsets, the largest enumeration any command makes
    catalog, eta = grid_catalog(np.random.default_rng(10), 20, 2, 1, tied)
    want_subset, want_value = exhaustive_optimum_oracle(eta, catalog, range(20), 10, 4_096)
    monkeypatch.setattr(greedy, "_SCORE_ROWS", rows)
    got_subset, got_value = exhaustive_optimum(eta, catalog, range(20), 10)
    assert got_subset == want_subset
    assert got_value.hex() == want_value.hex()


def test_the_widest_command_table_holds_one_byte_per_index(fresh_tables):
    assert _subset_table(20, 10).nbytes == math.comb(20, 10) * 10


def test_the_subset_table_is_lexicographic_and_read_only(fresh_tables):
    table = _subset_table(6, 3)
    assert table.dtype == np.uint8
    assert table.tolist() == [list(c) for c in itertools.combinations(range(6), 3)]
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 5
    assert _subset_table(6, 3) is table


def test_each_enumeration_is_one_cached_table(fresh_tables):
    rng = np.random.default_rng(3)
    catalog, eta = grid_catalog(rng, 9, 2, 1, tied=False)
    exhaustive_optimum(eta, catalog, range(9), 3)
    exhaustive_optimum(eta, catalog, range(9), 3)
    info = _subset_table.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)

    exhaustive_optimum(eta, catalog, range(9), 4)
    assert _subset_table.cache_info().currsize == 2
    assert _subset_table.cache_info().maxsize <= 4


def test_every_command_instance_fits_the_subset_budget():
    # `simulate` and `approx-ratio` build SIM_ITEMS-item instances with any K
    # up to SIM_ITEMS, and `exhaustive_optimum` holds every subset in one table
    for k in range(1, cli.SIM_ITEMS + 1):
        assert math.comb(cli.SIM_ITEMS, k) <= greedy.SUBSET_BUDGET, k
