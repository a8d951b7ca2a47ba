"""The one candidate format: `ItemCatalog.open_mask` and its callers.

Every selector takes its candidates through `open_mask`, so the form in
which candidates arrive (open mask, sorted array, list, shuffled list with
duplicates) must not change a single output bit.  The rewritten loops are checked
against the list-based versions they replaced, kept here as oracles.
"""

import copy
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersion_bandit.baselines import (
    LogRankPolicy,
    StaticScorer,
    epsilon_greedy_select,
    logrank_select,
    mmr_select,
)
from dispersion_bandit.catalog import (
    Slate,
    distinct_sorted,
    slate_features,
    utility,
)
from dispersion_bandit.environments import ReplayEnvironment, ReplayUser, run_episode
from dispersion_bandit.errors import (
    ExhaustedCandidatesError,
    InsufficientCandidatesError,
    InvalidItemError,
)
from dispersion_bandit.greedy import greedy_select
from dispersion_bandit.lmdh import (
    HybridStatistics,
    LmdhConfig,
    _raw_widths_batch,
    _z_terms,
    select_slate,
)
from dispersion_bandit.seeding import POLICY, rng_from_seed

from conftest import random_catalog, random_eta
from oracles import raw_widths_oracle, trained_stats, w_xx_t


# ---------------------------------------------------------------------------
# oracles: the list-based code the array path replaced


def epsilon_greedy_oracle(scorer, candidates, k, epsilon, rng):
    """epsilon-greedy over a Python list of remaining positions."""
    cand = np.unique(np.asarray(list(candidates), dtype=np.intp))
    quality = scorer.quality[cand].copy()
    remaining = list(range(cand.size))
    chosen = []
    for _ in range(k):
        if rng.random() < epsilon:
            pick = remaining[int(rng.integers(len(remaining)))]
        else:
            scores = quality[remaining]
            pick = remaining[int(np.argmax(scores))]
        remaining.remove(pick)
        chosen.append(int(cand[pick]))
    return tuple(chosen)


def candidate_set_oracle(t, ground, consumed, k):
    """Set difference that re-sorts and re-uniques both sides."""
    ground = np.unique(np.asarray(list(ground), dtype=np.intp))
    if consumed:
        remaining = np.setdiff1d(ground, np.asarray(sorted(consumed), dtype=np.intp))
    else:
        remaining = ground
    if remaining.size < k:
        raise ExhaustedCandidatesError(f"round {t}")
    return remaining


def logrank_oracle(scorer, candidates, k):
    """LogRank by a full stable argsort of every candidate's quality."""
    cand = np.flatnonzero(scorer.catalog.open_mask(candidates, k))
    order = np.argsort(-scorer.quality[cand], kind="stable")
    return tuple(int(cand[i]) for i in order[:k])


# ---------------------------------------------------------------------------
# open_mask


def test_a_mask_is_returned_as_is():
    catalog = random_catalog(np.random.default_rng(1), 10)
    mask = np.isin(np.arange(10), [0, 3, 4, 9])
    assert catalog.open_mask(mask, 2) is mask


@pytest.mark.parametrize(
    "candidates",
    [
        [3, 1, 2, 1],
        (4, 0, 7),
        range(2, 9, 3),
        np.array([5, 2, 8, 0], dtype=np.intp),
        np.array([1, 1, 6, 6, 2], dtype=np.intp),
        np.array([9, 0, 4], dtype=np.int32),
        np.array([[2, 1], [1, 5]], dtype=np.intp),
    ],
    ids=["list", "tuple", "range", "unsorted", "duplicates", "int32", "2d"],
)
def test_other_inputs_equal_np_unique(candidates):
    catalog = random_catalog(np.random.default_rng(2), 10)
    got = catalog.open_mask(candidates, 1)
    expected = np.unique(np.asarray(candidates))
    assert got.dtype == bool and got.shape == (10,)
    assert np.array_equal(np.flatnonzero(got), expected)
    assert got is not candidates


@settings(max_examples=200, deadline=None)
@given(
    ids=st.one_of(
        st.lists(st.integers(-5, 5), max_size=30),  # short spans: many repeats
        st.lists(st.integers(-(2**40), 2**40), max_size=30),  # wide, sparse spans
    ),
    dtype=st.sampled_from([np.int64, np.intp, np.int32]),
)
def test_distinct_sorted_equals_np_unique(ids, dtype):
    values = np.array(ids, dtype=np.int64)
    if dtype is np.int32:
        values = values.clip(-(2**31), 2**31 - 1)
    values = values.astype(dtype)
    got = distinct_sorted(values)
    expected = np.unique(values)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


@pytest.mark.parametrize(
    "candidates, bad",
    [
        ([-1, 0, 1], r"\[-1\]"),
        ([0, 1, 10], r"\[10\]"),
        (np.array([-3, 2, 12]), r"\[-3, 12\]"),
        # beyond int64: named as given, not wrapped by a cast
        (np.array([2**64 - 1, 2], dtype=np.uint64), rf"\[{2**64 - 1}\]"),
        ([2**64 - 1, 2], rf"\[{2**64 - 1}\]"),
        ((1, 2**63), rf"\[{2**63}\]"),
    ],
)
def test_out_of_range_ids_raise_invalid_item(candidates, bad):
    catalog = random_catalog(np.random.default_rng(3), 10)
    with pytest.raises(InvalidItemError, match=bad):
        catalog.open_mask(candidates, 2)


def test_too_few_candidates_or_bad_k_raise_insufficient():
    catalog = random_catalog(np.random.default_rng(4), 10)
    with pytest.raises(InsufficientCandidatesError):
        catalog.open_mask([0, 1, 1], 3)
    with pytest.raises(InsufficientCandidatesError):
        catalog.open_mask(np.arange(5), 0)
    with pytest.raises(InsufficientCandidatesError):
        catalog.open_mask([], 1)
    with pytest.raises(InsufficientCandidatesError, match="only 2 candidates"):
        catalog.open_mask(np.isin(np.arange(10), [3, 7]), 3)


NON_INTEGER_IDS = [
    ([0.5, 1.7, 2.2, 3.9, 4.1, 5.5], r"\[0\.5, 1\.7, 2\.2, 3\.9, 4\.1\]"),
    (np.array([0.5, 1.7, 2.2, 3.9, 4.1, 5.5]), r"\[0\.5, 1\.7, 2\.2, 3\.9, 4\.1\]"),
    (np.array([0.0, 1.0, 2.0, 3.0]), r"\[0\.0, 1\.0, 2\.0, 3\.0\]"),
    ([True, False, 1, 2, 3, 4], r"\[True, False\]"),
    (np.array([True, False, True]), r"\[True, False, True\]"),
    ([0, 1, float("nan"), 3], r"\[nan\]"),
    (np.array([0.0, np.nan, 3.0]), r"\[0\.0, nan, 3\.0\]"),
    ((0, np.float64(2.0), 3), r"\[2\.0\]"),
]


@pytest.mark.parametrize(
    "ids, bad",
    NON_INTEGER_IDS,
    ids=["float-list", "float-array", "whole-floats", "bool-list", "bool-array",
         "nan-list", "nan-array", "numpy-float"],
)
def test_non_integer_ids_are_rejected_not_truncated(ids, bad):
    catalog = random_catalog(np.random.default_rng(8), 10)
    eta = random_eta(np.random.default_rng(9))
    message = r"ids must be integers, got " + bad
    with pytest.raises(InvalidItemError, match=message):
        catalog.open_mask(ids, 2)
    for select in _selectors(catalog, 2).values():
        with pytest.raises(InvalidItemError, match=message):
            select(ids)
    with pytest.raises(InvalidItemError, match=message):
        Slate(tuple(ids))
    with pytest.raises(InvalidItemError, match=message):
        utility(tuple(ids), eta, catalog)


def test_integer_ids_of_any_integer_type_are_accepted():
    catalog = random_catalog(np.random.default_rng(10), 10)
    ids = [np.int32(4), 1, np.uint8(7)]
    assert np.flatnonzero(catalog.open_mask(ids, 1)).tolist() == [1, 4, 7]
    slate = Slate(tuple(ids))
    assert slate.items == (4, 1, 7)
    assert all(type(a) is int for a in slate.items)
    z, _ = slate_features(slate, catalog)
    assert z.tobytes() == catalog.relevance[[4, 1, 7]].tobytes()


# ---------------------------------------------------------------------------
# every selector goes through open_mask


def _selectors(catalog, k, stats=None):
    """The five selectors as functions of the candidates alone."""
    rng = np.random.default_rng(5)
    if stats is None:
        stats = HybridStatistics(catalog.relevance_dim, catalog.diversity_dim, 1.0)
    config = LmdhConfig(
        lam=1.0, alpha=1.0, d=catalog.relevance_dim, m=catalog.diversity_dim, k=k
    )
    scorer = StaticScorer(rng.normal(size=catalog.relevance_dim), catalog)
    eta = random_eta(rng, d=catalog.relevance_dim, m=catalog.diversity_dim)
    return {
        "lmdh": lambda c: select_slate(copy.deepcopy(stats), config, catalog, c),
        "greedy": lambda c: greedy_select(eta, catalog, c, k),
        "logrank": lambda c: logrank_select(scorer, c, k),
        "mmr": lambda c: mmr_select(scorer, c, k),
        "epsilon-greedy": lambda c: epsilon_greedy_select(
            scorer, c, k, 0.5, rng_from_seed(0, POLICY)
        ),
    }


@pytest.mark.parametrize(
    "name", ["lmdh", "greedy", "logrank", "mmr", "epsilon-greedy"]
)
def test_selectors_reject_out_of_range_ids(name):
    catalog = random_catalog(np.random.default_rng(6), 4)
    select = _selectors(catalog, 2)[name]
    with pytest.raises(InvalidItemError, match=r"\[-1\]"):
        select([-1, 0, 1])
    with pytest.raises(InvalidItemError, match=r"\[4\]"):
        select(np.array([0, 1, 4], dtype=np.intp))


def _outputs(name, result, catalog):
    """Every array and id a selector returns, as comparable tuples."""
    if name == "lmdh":
        return (
            result.slate.items,
            result.relevance_features.tobytes(),
            result.diversity_features.tobytes(),
            result.widths.tobytes(),
        )
    if name == "greedy":
        return result.slate.items, np.array(result.gain_trace).tobytes()
    z, x = slate_features(result, catalog)
    return result.items, z.tobytes(), x.tobytes()


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_candidate_form_does_not_change_any_output_bit(data):
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    rng = np.random.default_rng(seed)
    n_items = data.draw(st.integers(6, 30), label="n_items")
    m = data.draw(st.integers(1, 2), label="m")
    k = data.draw(st.integers(1, 5), label="k")
    catalog = random_catalog(rng, n_items, d=3, m=m)
    chosen = np.sort(rng.choice(n_items, size=rng.integers(k, n_items + 1), replace=False))
    as_array = chosen.astype(np.intp)
    as_list = [int(i) for i in chosen]
    shuffled = as_list + as_list[: rng.integers(0, len(as_list) + 1)]
    rng.shuffle(shuffled)
    as_mask = np.zeros(n_items, dtype=bool)
    as_mask[chosen] = True
    stats = trained_stats(rng, catalog, k)
    for name in ("lmdh", "greedy", "logrank", "mmr", "epsilon-greedy"):
        results = []
        for form in (as_array, as_list, shuffled, as_mask):
            # fresh selectors per form: equal learner state and rng stream
            select = _selectors(catalog, k, stats)[name]
            results.append(_outputs(name, select(form), catalog))
        assert results[0] == results[1] == results[2] == results[3], name


# ---------------------------------------------------------------------------
# the rewritten loops against their oracles


@pytest.mark.parametrize("epsilon", [0.0, 0.05, 0.5, 1.0])
def test_epsilon_greedy_matches_list_oracle(epsilon):
    rng = np.random.default_rng(7)
    catalog = random_catalog(rng, 40, d=3)
    scorer = StaticScorer(rng.normal(size=3), catalog)
    for trial in range(60):
        consumed = set(rng.choice(40, size=rng.integers(0, 35), replace=False).tolist())
        cand = candidate_set_oracle(trial, catalog.all_items(), consumed, 1)
        k = int(rng.integers(1, min(5, cand.size) + 1))
        fast_rng = np.random.default_rng(trial)
        slow_rng = np.random.default_rng(trial)
        fast = epsilon_greedy_select(scorer, cand, k, epsilon, fast_rng)
        slow = epsilon_greedy_oracle(scorer, cand, k, epsilon, slow_rng)
        assert fast.items == slow
        assert fast_rng.random() == slow_rng.random()  # same draws consumed


def show(env, items) -> None:
    """Close `items` in a replay world: one accepted slate of them, if any."""
    if len(items):
        env.feedback(SimpleNamespace(slate=Slate(tuple(int(i) for i in items))))


def test_candidate_set_matches_set_difference_oracle():
    """The replay mask against the set difference, round by round to exhaustion."""
    rng = np.random.default_rng(8)
    for trial in range(200):
        n = int(rng.integers(1, 60))
        catalog = random_catalog(rng, n)
        consumed = set(rng.choice(n, size=rng.integers(0, n + 1), replace=False).tolist())
        env = ReplayEnvironment(catalog, ReplayUser(trial, positives=frozenset()))
        show(env, consumed)  # the episode starts with these items closed
        k = int(rng.integers(1, 6))
        for t in range(1, n + 2):
            outcomes = []
            for call in (
                lambda: env.candidates(t, k),
                lambda: candidate_set_oracle(t, range(n), consumed, k),
            ):
                try:
                    outcomes.append(call())
                except ExhaustedCandidatesError as exc:
                    outcomes.append(str(exc))
            fast, slow = outcomes
            if isinstance(slow, str):
                assert fast == f"round {t}: {n - len(consumed)} candidates left, need {k}"
                break
            assert fast.dtype == bool and slow.dtype == np.intp
            assert np.array_equal(np.flatnonzero(fast), slow)
            shown = rng.choice(np.flatnonzero(fast), size=k, replace=False)
            show(env, shown)
            consumed.update(int(i) for i in shown)
        else:
            raise AssertionError("candidates never ran out")


class OracleCheckedReplay(ReplayEnvironment):
    """Replay world that checks every candidate set against the oracle.

    The oracle's record of shown items is a set kept apart from the mask.
    """

    def __init__(self, catalog, user):
        super().__init__(catalog, user)
        self.item_count = catalog.item_count
        self.rounds = []
        self.shown = set()

    def feedback(self, selection):
        rewards = super().feedback(selection)
        self.shown.update(selection.slate.items)
        return rewards

    def candidates(self, t, k):
        ground = range(self.item_count)
        try:
            expected = candidate_set_oracle(t, ground, self.shown, k)
        except ExhaustedCandidatesError:
            expected = None
        try:
            got = super().candidates(t, k)
        except ExhaustedCandidatesError:
            assert expected is None, f"round {t}: exhausted early"
            self.rounds.append(t)
            raise
        assert expected is not None, f"round {t}: not exhausted"
        assert np.array_equal(np.flatnonzero(got), expected)
        self.rounds.append(t)
        return got


@pytest.mark.parametrize("consumed", [set(), {0, 5, 12, 13}])
def test_replay_candidates_match_oracle_every_round(consumed):
    rng = np.random.default_rng(10)
    catalog = random_catalog(rng, 23, d=3)
    scorer = StaticScorer(rng.normal(size=3), catalog)
    user = ReplayUser(0, positives=frozenset({1, 2, 3}))
    env = OracleCheckedReplay(catalog, user)
    show(env, sorted(consumed))  # closed before the episode starts
    log = run_episode(LogRankPolicy(scorer, 4), env, 10, 4)
    # 23 - |consumed| items at 4 per round: exhaustion ends the episode
    full_rounds = (23 - len(consumed)) // 4
    assert len(log) == full_rounds
    assert env.rounds == list(range(1, full_rounds + 2))
    # the mask closed exactly the consumed and the shown items
    still_open = np.flatnonzero(ReplayEnvironment.candidates(env, full_rounds + 2, 1))
    assert set(range(23)) - set(still_open.tolist()) == set(consumed) | {
        i for r in log for i in r.items
    }


# qualities drawn from a few levels, so ties are common, plus +-inf and NaN
_QUALITY = st.one_of(
    st.integers(0, 4).map(lambda q: q / 4),
    st.sampled_from([np.inf, -np.inf, np.nan, -0.0]),
)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_logrank_top_k_matches_full_argsort(data):
    n_items = data.draw(st.integers(1, 29), label="n_items")
    quality = np.array(data.draw(st.lists(_QUALITY, min_size=n_items, max_size=n_items)))
    catalog = random_catalog(np.random.default_rng(n_items), n_items)
    scorer = SimpleNamespace(catalog=catalog, quality=quality)
    cand = data.draw(
        st.lists(st.integers(0, n_items - 1), min_size=1, unique=True), label="cand"
    )
    k = data.draw(st.integers(1, len(cand)), label="k")
    assert logrank_select(scorer, cand, k).items == logrank_oracle(scorer, cand, k)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_hoisted_width_terms_match_per_pass_oracle(m):
    rng = np.random.default_rng(9 + m)
    catalog = random_catalog(rng, 25, d=4, m=m)
    stats = trained_stats(rng, catalog, 3, rounds=6)
    for rows in (1, 25, 4000):  # up to replay-sized candidate sets
        Z = rng.uniform(-1.0, 1.0, size=(rows, 4))
        X = rng.uniform(0.0, 2.0, size=(rows, m))
        X[rng.random(rows) < 0.3] = 0.0
        got = _raw_widths_batch(*_z_terms(Z, stats), X, w_xx_t(stats))
        want = raw_widths_oracle(Z, X, stats)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
