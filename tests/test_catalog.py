import itertools
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersion_bandit import catalog as catalog_module
from dispersion_bandit.catalog import (
    CosineDistanceMetric,
    ItemCatalog,
    PreferenceVector,
    Slate,
    cosine_metric,
    guarantee_preconditions,
    slate_features,
    utility,
)
from dispersion_bandit.environments import study_instance
from dispersion_bandit.errors import (
    DimensionMismatchError,
    DuplicateItemError,
    InvalidItemError,
    UndefinedSimilarityError,
)

from conftest import (
    TableDistanceMetric,
    random_catalog,
    random_eta,
    random_table,
    utility_by_hand,
)
from oracles import gain_sizes, gains_oracle, utility_oracle


def on_demand_metric(vectors, **kwargs) -> CosineDistanceMetric:
    """A cosine metric that evaluates its columns on demand, without a table."""
    with mock.patch.object(catalog_module, "TABLE_THRESHOLD", 0):
        return CosineDistanceMetric(vectors, **kwargs)


def distance_matrix(metric) -> np.ndarray:
    """Every distance of `metric`, one column per item."""
    ids = np.arange(len(metric))
    return np.vstack([metric.column(i, ids) for i in ids])


class TestSlate:
    def test_rejects_duplicates(self):
        with pytest.raises(DuplicateItemError):
            Slate((1, 2, 1))

    @pytest.mark.parametrize("items", [(4, 4), [0, 3, 0], (np.int64(2), 2)])
    def test_a_repeat_raises_whatever_the_id_types(self, items):
        with pytest.raises(DuplicateItemError):
            Slate(items)

    @pytest.mark.parametrize("items", [(True,), (0, True), [2, True]])
    def test_a_bool_id_raises_naming_it(self, items):
        with pytest.raises(InvalidItemError, match=r"\[True\]"):
            Slate(items)

    @pytest.mark.parametrize("items", [(1.0,), (0, 1.0), (np.float64(1.0), 2)])
    def test_a_float_id_raises_even_when_whole(self, items):
        with pytest.raises(InvalidItemError, match=r"\[1\.0\]"):
            Slate(items)

    def test_numpy_and_list_ids_are_stored_as_a_tuple_of_int(self):
        for items in [(np.int64(3), 1), np.array([3, 1]), [3, np.intp(1)]]:
            slate = Slate(items)
            assert slate.items == (3, 1)
            assert type(slate.items) is tuple
            assert [type(i) for i in slate.items] == [int, int]

    def test_membership_and_len(self):
        slate = Slate((3, 0))
        assert len(slate) == 2
        assert 3 in slate and 1 not in slate


# ---------------------------------------------------------------------------
# oracles: the per-item marginals `slate_features` replaced, and the pair loop
# `utility` ran before it read `slate_features`, which adds each metric's
# distances apart from the relevance


def check_item(item, catalog):
    """`item` as an int, or InvalidItemError when it is outside 0..L-1."""
    item = int(item)
    if not 0 <= item < catalog.item_count:
        raise InvalidItemError(
            f"item {item} outside ground set of size {catalog.item_count}"
        )
    return item


def relevance_marginal(item, slate, catalog):
    """Relevance gain of appending `item` to the id tuple `slate`: its row."""
    item = check_item(item, catalog)
    if item in slate:
        raise DuplicateItemError(f"item {item} already in slate")
    return catalog.relevance[item].copy()


def diversity_marginal(item, slate, catalog):
    """Diversity gain of appending `item`: sum_{j in A} h_i(item, j) per metric."""
    item = check_item(item, catalog)
    if item in slate:
        raise DuplicateItemError(f"item {item} already in slate")
    gain = np.zeros(catalog.diversity_dim)
    if slate:
        ids = np.asarray(slate, dtype=np.intp)
        for i, metric in enumerate(catalog.metrics):
            gain[i] = metric.column(item, ids).sum()
    return gain


def pair_loop_utility(slate, eta, catalog):
    """F(A | eta) summed pair by pair per metric: the bit-level oracle."""
    catalog.check_eta(eta)
    items = slate.items if isinstance(slate, Slate) else tuple(int(a) for a in slate)
    if len(set(items)) != len(items):
        raise DuplicateItemError(f"slate contains duplicates: {items}")
    if not items:
        return 0.0
    ids = np.asarray([check_item(a, catalog) for a in items], dtype=np.intp)
    value = float(catalog.relevance[ids].sum(axis=0) @ eta.theta)
    for beta_i, metric in zip(eta.beta, catalog.metrics):
        pair_sum = 0.0
        for k in range(1, len(ids)):
            pair_sum += float(metric.column(int(ids[k]), ids[:k]).sum())
        value += float(beta_i) * pair_sum
    return value


class TestRelevanceMarginal:
    def test_independent_of_slate(self):
        catalog = ItemCatalog(
            relevance=np.array([[0.2, 0.3], [0.5, 0.1], [0.0, 0.0]]),
            metrics=(TableDistanceMetric(np.zeros((3, 3))),),
        )
        empty = relevance_marginal(0, (), catalog)
        nonempty = relevance_marginal(0, (1, 2), catalog)
        np.testing.assert_array_equal(empty, [0.2, 0.3])
        np.testing.assert_array_equal(empty, nonempty)

    def test_zero_vector_item(self):
        catalog = ItemCatalog(
            relevance=np.zeros((2, 3)),
            metrics=(TableDistanceMetric(np.zeros((2, 2))),),
        )
        np.testing.assert_array_equal(relevance_marginal(1, (), catalog), np.zeros(3))

    def test_all_pairs_match_lookup(self, rng):
        catalog = random_catalog(rng, 3, d=4)
        for a in range(3):
            others = [b for b in range(3) if b != a]
            for size in range(len(others) + 1):
                for slate in itertools.permutations(others, size):
                    np.testing.assert_array_equal(
                        relevance_marginal(a, slate, catalog), catalog.relevance[a]
                    )

    def test_errors(self, rng):
        catalog = random_catalog(rng, 3)
        with pytest.raises(InvalidItemError):
            relevance_marginal(7, (), catalog)
        with pytest.raises(DuplicateItemError):
            relevance_marginal(1, (1, 2), catalog)


class TestDiversityMarginal:
    def test_empty_slate_is_zero(self, rng):
        catalog = random_catalog(rng, 4, m=3)
        np.testing.assert_array_equal(diversity_marginal(2, (), catalog), np.zeros(3))

    def test_two_item_sum(self):
        table = np.array(
            [[0.0, 0.4, 0.6], [0.4, 0.0, 0.9], [0.6, 0.9, 0.0]]
        )
        catalog = ItemCatalog(
            relevance=np.ones((3, 1)), metrics=(TableDistanceMetric(table),)
        )
        np.testing.assert_allclose(diversity_marginal(0, (1, 2), catalog), [1.0])

    def test_matches_dispersion_difference(self, rng):
        # Oracle: V(A + a) - V(A) with V summed directly over unordered pairs.
        n = 5
        table = random_table(rng, n)
        catalog = ItemCatalog(
            relevance=np.ones((n, 1)), metrics=(TableDistanceMetric(table),)
        )

        def dispersion(items):
            return sum(
                table[i][j] for i, j in itertools.combinations(sorted(items), 2)
            )

        for a in range(n):
            others = [b for b in range(n) if b != a]
            for size in range(4):
                for slate in itertools.combinations(others, size):
                    expected = dispersion(list(slate) + [a]) - dispersion(slate)
                    got = diversity_marginal(a, slate, catalog)[0]
                    assert got == pytest.approx(expected, abs=1e-12)


def marginal_gain(eta, item, slate, catalog):
    """eta . [relevance_marginal; diversity_marginal] of appending `item`."""
    return float(
        eta.theta @ relevance_marginal(item, slate, catalog)
        + eta.beta @ diversity_marginal(item, slate, catalog)
    )


class TestJointMarginal:
    def test_empty_slate(self):
        catalog = ItemCatalog(
            relevance=np.array([[0.5]]),
            metrics=(TableDistanceMetric(np.zeros((1, 1))),),
        )
        np.testing.assert_array_equal(relevance_marginal(0, (), catalog), [0.5])
        np.testing.assert_array_equal(diversity_marginal(0, (), catalog), [0.0])

    def test_matches_utility_difference(self, rng):
        catalog = random_catalog(rng, 5, d=2, m=2)
        eta = random_eta(rng, d=2, m=2)
        for a in range(5):
            others = [b for b in range(5) if b != a]
            for size in range(4):
                for slate in itertools.combinations(others, size):
                    grown = tuple(slate) + (a,)
                    diff = utility(grown, eta, catalog) - utility(slate, eta, catalog)
                    got = marginal_gain(eta, a, slate, catalog)
                    assert got == pytest.approx(diff, abs=1e-12)


class TestSlateFeatures:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_bit_equal_to_the_marginal_oracles(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        m = data.draw(st.sampled_from([1, 2]), label="m")
        k = data.draw(st.integers(1, 6), label="k")
        on_demand = data.draw(st.booleans(), label="on_demand")
        rng = np.random.default_rng(seed)
        n = int(rng.integers(k, 12))
        build = on_demand_metric if on_demand else CosineDistanceMetric
        metrics = tuple(build(rng.uniform(-1.0, 1.0, size=(n, 3))) for _ in range(m))
        catalog = ItemCatalog(rng.uniform(-1.0, 1.0, size=(n, 4)), metrics)
        items = tuple(int(a) for a in rng.choice(n, size=k, replace=False))
        z, x = slate_features(Slate(items), catalog)
        for p, item in enumerate(items):
            prefix = items[:p]
            want_z = relevance_marginal(item, prefix, catalog)
            want_x = diversity_marginal(item, prefix, catalog)
            assert z[p].tobytes() == want_z.tobytes()
            assert x[p].tobytes() == want_x.tobytes()

    def test_empty_slate(self, rng):
        catalog = random_catalog(rng, 4, d=3, m=2)
        z, x = slate_features(Slate(()), catalog)
        assert z.shape == (0, 3) and x.shape == (0, 2)

    def test_out_of_range_ids_raise_naming_them(self, rng):
        catalog = random_catalog(rng, 4)
        with pytest.raises(InvalidItemError, match=r"\[7\]"):
            slate_features(Slate((0, 7, 1)), catalog)
        with pytest.raises(InvalidItemError, match=r"\[-1\]"):
            slate_features(Slate((-1,)), catalog)
        with pytest.raises(InvalidItemError, match=rf"\[{2**63}\]"):
            slate_features(Slate((1, 2**63)), catalog)  # beyond int64


def assert_utility_is_the_left_sum(slate, eta, catalog):
    """`utility` has `utility_oracle`'s bits, and is within 1e-12 of the sizes
    it sums of the pair loop, which adds the same terms in another order."""
    items = slate.items if isinstance(slate, Slate) else slate
    value = utility(slate, eta, catalog)
    want = utility_oracle(Slate(items), eta, catalog)
    assert np.float64(value).tobytes() == np.float64(want).tobytes()
    size = gain_sizes(*slate_features(Slate(items), catalog), eta).sum()
    assert abs(value - pair_loop_utility(slate, eta, catalog)) <= 1e-12 * size


class TestUtility:
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_bit_equal_to_the_left_sum_and_near_the_pair_loop(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        m = data.draw(st.integers(1, 3), label="m")
        k = data.draw(st.integers(0, 10), label="k")
        on_demand = data.draw(st.booleans(), label="on_demand")
        as_slate = data.draw(st.booleans(), label="as_slate")
        rng = np.random.default_rng(seed)
        n = int(rng.integers(max(k, 1), 16))
        build = on_demand_metric if on_demand else CosineDistanceMetric
        metrics = tuple(
            build(rng.uniform(-1.0, 1.0, size=(n, 3)), scale=float(rng.uniform(0.1, 2.0)))
            for _ in range(m)
        )
        catalog = ItemCatalog(rng.uniform(-1.0, 1.0, size=(n, 4)), metrics)
        eta = random_eta(rng, d=4, m=m)
        items = tuple(int(a) for a in rng.choice(n, size=k, replace=False))
        assert_utility_is_the_left_sum(Slate(items) if as_slate else items, eta, catalog)

    def test_bit_equal_to_the_left_sum_and_near_the_pair_loop_on_study_instances(self):
        for seed in range(20):
            instance = study_instance(seed, k=5)
            rng = np.random.default_rng(seed)
            for k in range(11):
                items = tuple(rng.choice(20, size=k, replace=False).tolist())
                assert_utility_is_the_left_sum(items, instance.eta_star, instance.catalog)

    @pytest.mark.parametrize("k", [0, 1, 9, 12, 20])
    def test_a_left_sum_at_every_slate_size(self, k):
        """From 9 terms numpy's `sum` adds pairwise, which rounds otherwise
        than a left sum for some seed; `utility` keeps the left sum's bits."""
        pairwise_differs = False
        for seed in range(20):
            instance = study_instance(seed, n_items=20, k=5)
            args = (instance.eta_star, instance.catalog)
            items = tuple(np.random.default_rng(seed).permutation(20)[:k].tolist())
            assert_utility_is_the_left_sum(items, *args)
            gains = gains_oracle(*slate_features(Slate(items), instance.catalog), args[0])
            pairwise_differs |= float(np.sum(gains)) != utility(items, *args)
        assert pairwise_differs or k < 9

    @pytest.mark.parametrize(
        "items, eta_dims, error",
        [
            ((0, 2, 0), (2, 1), DuplicateItemError),
            ((5, 5), (2, 1), DuplicateItemError),
            ((0, 7), (2, 1), InvalidItemError),
            ((-1,), (2, 1), InvalidItemError),
            ((0, 1), (3, 1), DimensionMismatchError),
            ((0, 0), (2, 2), DimensionMismatchError),
        ],
    )
    def test_errors_match_the_pair_loop(self, rng, items, eta_dims, error):
        catalog = random_catalog(rng, 4, d=2, m=1)
        d, m = eta_dims
        eta = PreferenceVector(theta=np.ones(d), beta=np.ones(m))
        for fn in (utility, pair_loop_utility):
            for slate in (items, list(items)):
                with pytest.raises(error):
                    fn(slate, eta, catalog)

    def test_out_of_range_ids_raise_naming_them(self, rng):
        catalog = random_catalog(rng, 4)
        with pytest.raises(InvalidItemError, match=r"slate ids .*: \[7, 9\]"):
            utility((0, 7, 1, 9), random_eta(rng), catalog)
        with pytest.raises(InvalidItemError, match=rf"\[{2**64}\]"):
            utility((1, 2**64), random_eta(rng), catalog)  # beyond int64

    def test_empty_slate(self, rng):
        catalog = random_catalog(rng, 3)
        assert utility((), random_eta(rng), catalog) == 0.0

    def test_hand_instance(self):
        table = np.array([[0.0, 0.5], [0.5, 0.0]])
        catalog = ItemCatalog(
            relevance=np.array([[0.2], [0.3]]), metrics=(TableDistanceMetric(table),)
        )
        eta = PreferenceVector(theta=np.array([1.0]), beta=np.array([1.0]))
        assert utility((0, 1), eta, catalog) == pytest.approx(1.0)

    def test_telescoping_every_permutation(self, rng):
        catalog = random_catalog(rng, 6, d=3, m=2)
        eta = random_eta(rng, d=3, m=2)
        items = (0, 2, 3, 5)
        reference = utility(items, eta, catalog)
        for perm in itertools.permutations(items):
            total = 0.0
            for k, a in enumerate(perm):
                total += marginal_gain(eta, a, perm[:k], catalog)
            assert total == pytest.approx(reference, abs=1e-12)

    def test_matches_hand_oracle(self, rng):
        n, d, m = 6, 3, 2
        relevance = rng.uniform(-1, 1, size=(n, d))
        tables = [random_table(rng, n) for _ in range(m)]
        catalog = ItemCatalog(
            relevance=relevance,
            metrics=tuple(TableDistanceMetric(t) for t in tables),
        )
        eta = random_eta(rng, d=d, m=m)
        for items in [(0,), (1, 4), (0, 2, 5), (3, 1, 0, 5)]:
            expected = utility_by_hand(items, eta.theta, eta.beta, relevance, tables)
            assert utility(items, eta, catalog) == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self, rng):
        catalog = random_catalog(rng, 3, d=2, m=1)
        bad = PreferenceVector(theta=np.ones(5), beta=np.ones(1))
        with pytest.raises(DimensionMismatchError):
            utility((0, 1), bad, catalog)

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_modularity_over_disjoint_sets(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        catalog = random_catalog(rng, 8, d=2, m=1)
        eta = PreferenceVector(
            theta=rng.uniform(-1, 1, size=2), beta=np.zeros(1)
        )
        ids = list(range(8))
        split = data.draw(st.integers(0, 8))
        picked = data.draw(st.permutations(ids))
        a_part, b_part = tuple(picked[:split]), tuple(picked[split:])
        lhs = utility(a_part + b_part, eta, catalog)
        rhs = utility(a_part, eta, catalog) + utility(b_part, eta, catalog)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_monotone_when_preconditions_hold(self, rng):
        for _ in range(20):
            catalog = random_catalog(rng, 7, d=2, m=1)
            eta = random_eta(rng, d=2, m=1, nonneg=True)
            if not guarantee_preconditions(eta, catalog):
                # force non-negative weighted relevance
                catalog = ItemCatalog(
                    relevance=np.abs(catalog.relevance), metrics=catalog.metrics
                )
            order = rng.permutation(7)
            values = [
                utility(tuple(order[:size]), eta, catalog) for size in range(8)
            ]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def cosine_distance(z_i, z_j):
    return CosineDistanceMetric(np.vstack([z_i, z_j])).column(0, np.array([1]))[0]


class TestCosineDistance:
    def test_identical_vectors(self):
        v = np.array([0.3, 0.4])
        assert cosine_distance(v, v) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_distance(np.array([1.0, 0.0]), np.array([0.0, 2.0])) == 1.0

    def test_opposite(self):
        v = np.array([0.5, -1.0])
        assert cosine_distance(v, -v) == pytest.approx(2.0)

    def test_zero_norm_raises(self):
        with pytest.raises(UndefinedSimilarityError):
            cosine_distance(np.zeros(3), np.ones(3))


class TestCosineMetricModes:
    def test_table_and_on_demand_agree(self, rng):
        vectors = rng.uniform(0.1, 1.0, size=(12, 4))
        memoised = CosineDistanceMetric(vectors, scale=0.1)
        on_demand = on_demand_metric(vectors, scale=0.1)
        assert memoised._rows is not None and on_demand._rows is None
        assert distance_matrix(on_demand).tobytes() == distance_matrix(memoised).tobytes()

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_on_demand_columns_have_the_memoised_rows_bits(self, data):
        # an entry's bits depend on neither the ids it is read with nor its
        # position among them, whatever the parity of d
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        n = data.draw(st.integers(1, 300), label="n")
        d = data.draw(st.sampled_from([1, 2, 3, 4, 7, 10, 33, 64]), label="d")
        vectors = rng.normal(size=(n, d))
        scale = data.draw(st.sampled_from([1.0, 0.1]), label="scale")
        memoised = CosineDistanceMetric(vectors, scale=scale)
        on_demand = on_demand_metric(vectors, scale=scale)
        for item in rng.integers(0, n, size=5).tolist():
            others = rng.permutation(n)[: rng.integers(0, n + 1)]
            want = memoised.column(item, others)
            assert on_demand.column(item, others).tobytes() == want.tobytes()

    def test_slate_normalized_scale(self, rng):
        vectors = rng.uniform(0.1, 1.0, size=(6, 3))
        raw = cosine_metric(vectors, mode="raw")
        norm = cosine_metric(vectors, mode="slate-normalized", slate_capacity=5)
        np.testing.assert_allclose(distance_matrix(norm), distance_matrix(raw) / 10.0)

    def test_metric_axioms(self, rng):
        vectors = rng.uniform(-1.0, 1.0, size=(10, 5))
        table = distance_matrix(cosine_metric(vectors, mode="raw"))
        assert np.all(np.diagonal(table) == 0.0)
        assert np.all(table >= 0.0)
        assert np.array_equal(table, table.T)

    def test_zero_vector_rejected(self):
        vectors = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(UndefinedSimilarityError):
            cosine_metric(vectors, mode="raw")

    def test_unknown_mode(self, rng):
        with pytest.raises(ValueError):
            cosine_metric(rng.uniform(size=(3, 2)), mode="euclid")


def four_step_table(vectors, scale):
    """The whole table through full-size temporaries, as one matrix product."""
    unit = vectors / np.linalg.norm(vectors, axis=1)[:, None]
    table = scale * (1.0 - unit @ unit.T)
    table = np.triu(table, k=1)
    table = table + table.T
    return np.clip(table, 0.0, None)


def pair_reference_row(vectors, scale, item):
    """Row `item` built entry by entry, one fixed-order product per pair: the
    bit-level oracle of the memoised rows."""
    unit = vectors / np.linalg.norm(vectors, axis=1)[:, None]
    row = np.array([scale * (1.0 - np.einsum("k,k->", u, unit[item])) for u in unit])
    row = np.clip(row, 0.0, None)
    row[item] = 0.0
    return row


def vectors_with_ties(rng, n, d=5):
    """Random vectors with duplicate rows (u.u can exceed 1, so their distance
    is clipped) and a pair of anti-parallel rows (distance 2)."""
    vectors = rng.uniform(-1.0, 1.0, size=(n, d))
    vectors[n // 2 :] = vectors[: n - n // 2]
    if n >= 2:
        vectors[-1] = -3.0 * vectors[0]
    return vectors


class TestDistanceRows:
    @pytest.mark.parametrize("n", [1, 2, 9, 257])
    @pytest.mark.parametrize("scale", [1.0, 2.0 / 90.0])
    def test_rows_bit_equal_to_the_pair_reference(self, rng, n, scale):
        vectors = vectors_with_ties(rng, n)
        metric = CosineDistanceMetric(vectors, scale=scale)
        ids = np.arange(n)
        for item in sorted({*range(0, n, 16), n - 1}):
            want = pair_reference_row(vectors, scale, item)
            assert metric.column(item, ids).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 600])
    @pytest.mark.parametrize("scale", [1.0, 2.0 / 90.0])
    @pytest.mark.parametrize("d", [5, 10])
    def test_symmetric_bit_for_bit(self, rng, n, scale, d):
        vectors = vectors_with_ties(rng, n, d)
        unit = vectors / np.linalg.norm(vectors, axis=1)[:, None]
        if n >= 100:
            assert (unit @ unit.T > 1.0).any()
        table = distance_matrix(CosineDistanceMetric(vectors, scale=scale))
        assert np.array_equal(table.view(np.uint64), table.T.view(np.uint64))
        assert np.all(np.diagonal(table) == 0.0) and np.all(table >= 0.0)
        if n >= 2:
            assert table[0, -1] == pytest.approx(2.0 * scale, rel=1e-12)

    def test_fill_order_does_not_change_the_rows(self, rng):
        n = 300
        vectors = vectors_with_ties(rng, n, d=10)
        forward = CosineDistanceMetric(vectors, scale=0.1)
        shuffled = CosineDistanceMetric(vectors, scale=0.1)
        ids = np.arange(n)
        for item in range(n):
            forward.column(item, ids)
        for item in rng.permutation(n):
            shuffled.column(int(item), ids[: item % 7])
        assert sorted(forward._rows) == sorted(shuffled._rows) == list(range(n))
        for item in range(n):
            assert forward._rows[item].tobytes() == shuffled._rows[item].tobytes()

    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 600])
    @pytest.mark.parametrize("scale", [1.0, 2.0 / 90.0])
    def test_agrees_with_the_four_step_oracle(self, rng, n, scale):
        vectors = vectors_with_ties(rng, n)
        metric = CosineDistanceMetric(vectors, scale=scale)
        np.testing.assert_allclose(
            distance_matrix(metric), four_step_table(vectors, scale), rtol=0, atol=1e-12
        )

    def test_threads_sharing_a_metric_read_the_same_bits(self, rng):
        n, threads = 400, 8
        vectors = vectors_with_ties(rng, n, d=10)
        shared = CosineDistanceMetric(vectors, scale=0.1)
        want = distance_matrix(CosineDistanceMetric(vectors, scale=0.1))
        orders = [rng.permutation(n) for _ in range(threads)]
        ids = np.arange(n)

        def read(order):
            return [shared.column(int(item), ids).tobytes() == want[item].tobytes()
                    for item in order]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = [f.result(timeout=60) for f in
                           [pool.submit(read, order) for order in orders]]
        finally:
            sys.setswitchinterval(interval)
        assert all(all(r) for r in results)
        assert sorted(shared._rows) == list(range(n))

    def test_rows_are_filled_on_first_use(self, rng):
        metric = CosineDistanceMetric(rng.uniform(-1.0, 1.0, size=(12, 4)))
        assert metric._rows == {}
        metric.column(3, np.array([0, 1, 2]))
        assert list(metric._rows) == [3]
        metric.column(3, np.array([5]))
        metric.column(7, np.array([], dtype=np.intp))
        assert list(metric._rows) == [3, 7]

    @pytest.mark.parametrize("others", [[], [0], [4, 1, 4, 0], list(range(9))])
    def test_columns_equal_the_copied_pair_gather(self, rng, others):
        vectors = rng.uniform(-1.0, 1.0, size=(9, 3))
        table = random_table(rng, 9)
        cosine_rows = np.vstack([pair_reference_row(vectors, 0.5, i) for i in range(9)])
        for metric, reference in (
            (CosineDistanceMetric(vectors, scale=0.5), cosine_rows),
            (TableDistanceMetric(table), table),
        ):
            ids = np.asarray(others, dtype=np.intp)
            for item in range(9):
                col = metric.column(item, others)
                want = reference[item, ids].copy()
                assert col.dtype == np.float64 and col.tobytes() == want.tobytes()
                assert col.flags.writeable
                col[...] = -1.0  # a copy: the next read is unchanged
                assert metric.column(item, others).tobytes() == want.tobytes()

    def test_whole_catalog_columns_are_read_in_place_with_the_gathers_bits(self, rng):
        n, d = 5000, 64
        assert n > catalog_module.TABLE_THRESHOLD  # columns on demand
        metric = CosineDistanceMetric(rng.normal(size=(n, d)))
        ids = np.arange(n)
        for item in (0, 1, 2500, n - 1):
            tracemalloc.start()
            try:
                in_place = metric.column(item)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < n * d * 8 / 4  # no gathered copy of the unit rows
            assert not in_place.flags.writeable
            # the same ids given explicitly take the gather
            gathered = metric.column(item, np.append(ids, item))
            assert in_place.tobytes() == gathered[:n].tobytes()
            assert in_place[item] == 0.0
        # as many ids as the catalog, one repeated
        repeated = ids.copy()
        repeated[1] = 0
        want = metric.column(3)[repeated]
        assert metric.column(3, repeated).tobytes() == want.tobytes()

    def test_memory_grows_with_the_rows_read(self, rng):
        n, reads = 1500, 20
        vectors = rng.uniform(-1.0, 1.0, size=(n, 10))
        ids = np.arange(n)
        row_bytes = n * 8
        tracemalloc.start()
        try:
            metric = CosineDistanceMetric(vectors)
            built, _ = tracemalloc.get_traced_memory()
            for item in range(reads):
                metric.column(item, ids)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert built <= 2 * vectors.nbytes  # the unit rows, no table
        assert reads * row_bytes <= held - built <= reads * row_bytes + 16 * 1024
        assert peak <= built + (reads + 2) * row_bytes + 16 * 1024
        assert peak < n * n * 8 / 20


class TestTableMetricValidation:
    def test_asymmetric_rejected(self):
        bad = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError):
            TableDistanceMetric(bad)

    def test_negative_rejected(self):
        bad = np.array([[0.0, -0.1], [-0.1, 0.0]])
        with pytest.raises(ValueError):
            TableDistanceMetric(bad)

    def test_nonzero_diagonal_rejected(self):
        bad = np.array([[0.1, 0.2], [0.2, 0.0]])
        with pytest.raises(ValueError):
            TableDistanceMetric(bad)


class TestGuaranteePreconditions:
    def test_negative_beta_fails(self, rng):
        catalog = random_catalog(rng, 4)
        eta = PreferenceVector(theta=np.ones(2), beta=np.array([-0.1]))
        assert not guarantee_preconditions(eta, catalog)

    def test_nonneg_instance_passes(self, rng):
        catalog = ItemCatalog(
            relevance=rng.uniform(0, 1, size=(4, 2)),
            metrics=(TableDistanceMetric(random_table(rng, 4)),),
        )
        eta = random_eta(rng, nonneg=True)
        assert guarantee_preconditions(eta, catalog)

    def test_negative_weighted_relevance_fails(self, rng):
        catalog = ItemCatalog(
            relevance=np.array([[1.0, 0.0], [-2.0, 0.0]]),
            metrics=(TableDistanceMetric(np.zeros((2, 2))),),
        )
        eta = PreferenceVector(theta=np.array([1.0, 0.0]), beta=np.zeros(1))
        assert not guarantee_preconditions(eta, catalog)
