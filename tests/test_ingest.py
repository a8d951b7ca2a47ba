"""Tests for rating parsing, user splits, and embedding normalization.

Fixture files are written byte-for-byte in each format so the field
separators themselves are under test.
"""

import numpy as np
import pytest

from dispersion_bandit.errors import EmptyDatasetError, ParseError
from dispersion_bandit.ingest import (
    EmbeddingTable,
    SplitSpec,
    canonical_format,
    filter_top_items,
    load_embeddings,
    normalize_embeddings,
    parse_ratings,
    split_users,
    subtable,
    synthetic_embeddings,
    write_maps,
)


def write(path, text):
    path.write_text(text)
    return path


def test_canonical_format_aliases():
    assert canonical_format("ml100k") == "ml100k-tab"
    assert canonical_format("ml1m-colons") == "ml1m-colons"
    with pytest.raises(ValueError):
        canonical_format("tsv")


def test_parse_ml100k_tab(tmp_path):
    path = write(
        tmp_path / "u.data",
        "1\t10\t4\t881250949\n"
        "1\t20\t3\t881250950\n"
        "2\t10\t5\t881250951\n"
        "3\t30\t2\t881250952\n",
    )
    table = parse_ratings(path, "ml100k-tab", positive_threshold=3)
    assert table.n_users == 2
    assert table.n_items == 1
    assert table.n_interactions == 2
    assert table.raw_lines == 4
    assert table.filtered_count == 2
    assert table.duplicate_count == 0
    assert table.n_interactions + table.filtered_count + table.duplicate_count == 4
    assert table.user_ids.tolist() == [1, 2]
    assert table.item_ids.tolist() == [10]
    assert table.timestamps is not None


def test_parse_threshold_is_strict(tmp_path):
    path = write(tmp_path / "u.data", "1\t1\t2\t0\n2\t1\t3\t0\n3\t1\t4\t0\n")
    table = parse_ratings(path, "ml100k-tab", positive_threshold=3)
    assert table.n_interactions == 1
    assert table.ratings.tolist() == [4.0]


def test_parse_ml1m_colons(tmp_path):
    path = write(
        tmp_path / "ratings.dat",
        "1::1193::5::978300760\n1::661::3::978302109\n2::1193::4::978300761\n",
    )
    table = parse_ratings(path, "ml1m-colons", positive_threshold=3)
    assert table.n_interactions == 2
    assert table.item_ids.tolist() == [1193]
    assert table.user_ids.tolist() == [1, 2]


def test_parse_generic_csv(tmp_path):
    path = write(
        tmp_path / "ratings.csv",
        "user,item,rating,ts\n7,3,4.5,100\n7,9,1.0,101\n8,3,5.0,102\n",
    )
    table = parse_ratings(path, "generic-csv", positive_threshold=3)
    assert table.n_interactions == 2
    assert table.raw_lines == 3
    assert table.filtered_count == 1


def test_parse_generic_csv_without_timestamps(tmp_path):
    path = write(tmp_path / "r.csv", "user,item,rating\n1,2,4\n2,2,5\n")
    table = parse_ratings(path, "generic-csv")
    assert table.timestamps is None
    assert table.n_interactions == 2


def test_parse_generic_rejects_bad_header(tmp_path):
    path = write(tmp_path / "r.csv", "uid,iid,score\n1,2,4\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_ratings(path, "generic-csv")


def test_parse_reports_line_numbers(tmp_path):
    path = write(tmp_path / "u.data", "1\t1\t4\t0\n1\t2\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_ratings(path, "ml100k-tab")
    path = write(tmp_path / "u2.data", "1\t1\t4\t0\nx\t2\t5\t0\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_ratings(path, "ml100k-tab")


def test_parse_empty_result_raises(tmp_path):
    path = write(tmp_path / "u.data", "1\t1\t2\t0\n2\t2\t1\t0\n")
    with pytest.raises(EmptyDatasetError):
        parse_ratings(path, "ml100k-tab", positive_threshold=3)


def test_dedup_keeps_highest_rating(tmp_path):
    path = write(
        tmp_path / "u.data",
        "1\t1\t4\t10\n1\t1\t5\t11\n1\t1\t3.5\t12\n2\t1\t4\t13\n",
    )
    table = parse_ratings(path, "ml100k-tab", positive_threshold=3)
    assert table.n_interactions == 2
    assert table.duplicate_count == 2
    first = table.ratings[table.users == 0]
    assert first.tolist() == [5.0]
    assert table.n_interactions + table.filtered_count + table.duplicate_count == 4


def test_dense_reindex_orders_by_original_id(tmp_path):
    path = write(
        tmp_path / "u.data",
        "9\t50\t5\t0\n2\t7\t5\t0\n5\t50\t4\t0\n",
    )
    table = parse_ratings(path, "ml100k-tab")
    assert table.user_ids.tolist() == [2, 5, 9]
    assert table.item_ids.tolist() == [7, 50]
    # record order is sorted by (user, item) original ids
    assert table.users.tolist() == [0, 1, 2]
    assert table.items.tolist() == [0, 1, 1]


def test_split_users_partition_and_determinism(tmp_path):
    lines = "".join(f"{u}\t{u % 3}\t5\t0\n" for u in range(10))
    table = parse_ratings(write(tmp_path / "u.data", lines), "ml100k-tab")
    train, test = split_users(table, SplitSpec(seed=42))
    assert train.n_users == 8
    assert test.n_users == 2
    train_set = set(train.user_ids.tolist())
    test_set = set(test.user_ids.tolist())
    assert train_set.isdisjoint(test_set)
    assert train_set | test_set == set(table.user_ids.tolist())
    assert train.n_interactions + test.n_interactions == table.n_interactions
    # splits keep the parent item index space
    assert np.array_equal(train.item_ids, table.item_ids)

    train2, test2 = split_users(table, SplitSpec(seed=42))
    assert np.array_equal(train.user_ids, train2.user_ids)
    other_train, _ = split_users(table, SplitSpec(seed=43))
    others = [
        np.array_equal(other_train.user_ids, train.user_ids)
        for _ in range(1)
    ]
    # a different seed is allowed to coincide, but across a few seeds the
    # split must move at least once
    moved = any(
        not np.array_equal(
            split_users(table, SplitSpec(seed=s))[0].user_ids, train.user_ids
        )
        for s in (43, 44, 45)
    )
    assert moved


def test_split_spec_validation():
    with pytest.raises(ValueError):
        SplitSpec(seed=1, train_fraction=1.0)
    with pytest.raises(ValueError):
        SplitSpec(seed=1, train_fraction=0.0)


def test_subtable_reindexes_users(tmp_path):
    lines = "3\t1\t5\t0\n5\t1\t5\t0\n5\t2\t4\t0\n8\t2\t5\t0\n"
    table = parse_ratings(write(tmp_path / "u.data", lines), "ml100k-tab")
    sub = subtable(table, [1, 2])  # dense ids of original users 5 and 8
    assert sub.user_ids.tolist() == [5, 8]
    assert sub.n_interactions == 3
    assert sub.items_of(0).tolist() == [0, 1]


def test_items_of_matches_a_full_scan(tmp_path):
    rng = np.random.default_rng(17)
    lines = "".join(
        f"{u}\t{i}\t{r}\t0\n"
        for u, i, r in zip(
            rng.integers(1, 60, 900), rng.integers(1, 80, 900), rng.integers(1, 6, 900)
        )
    )
    table = parse_ratings(write(tmp_path / "u.data", lines), "ml100k-tab")
    train, test = split_users(table, SplitSpec(seed=5))
    top = filter_top_items(table, 20)
    for t in (table, train, test, top):
        for u in range(t.n_users):
            got = t.items_of(u)
            assert np.array_equal(got, np.sort(t.items[t.users == u]))
            got[:] = -1  # a copy: the cached index is untouched
            assert np.array_equal(t.items_of(u), np.sort(t.items[t.users == u]))
        assert t.items_of(t.n_users).size == 0


def test_load_embeddings_minmax_endpoints(tmp_path):
    path = write(
        tmp_path / "emb.csv", "item,e0\n1,0\n2,5\n3,10\n"
    )
    emb = load_embeddings(path, expected_d=1)
    assert emb.vectors[:, 0].tolist() == [-1.0, 0.0, 1.0]
    assert emb.item_ids.tolist() == [1, 2, 3]


def test_load_embeddings_constant_dimension(tmp_path):
    path = write(
        tmp_path / "emb.csv", "item,e0,e1\n1,2.0,0\n2,2.0,5\n3,2.0,10\n"
    )
    emb = load_embeddings(path, expected_d=2)
    assert np.array_equal(emb.vectors[:, 0], np.zeros(3))
    assert emb.vectors[:, 1].tolist() == [-1.0, 0.0, 1.0]


def test_load_embeddings_round_trip(tmp_path):
    rng = np.random.default_rng(91)
    raw = rng.normal(size=(6, 3)) * 4.0
    lines = ["item,e0,e1,e2"]
    for i in range(6):
        lines.append(",".join([str(i)] + [repr(float(v)) for v in raw[i]]))
    path = write(tmp_path / "emb.csv", "\n".join(lines) + "\n")
    emb = load_embeddings(path, expected_d=3)
    assert np.all(emb.vectors >= -1.0) and np.all(emb.vectors <= 1.0)
    recovered = emb.denormalize(emb.vectors)
    assert np.allclose(recovered, raw, atol=1e-9)


def test_normalize_is_idempotent():
    rng = np.random.default_rng(92)
    raw = rng.uniform(-3.0, 7.0, size=(10, 4))
    normalized, _, _ = normalize_embeddings(raw)
    again, _, _ = normalize_embeddings(normalized)
    assert np.allclose(again, normalized, atol=1e-12)


def test_load_embeddings_errors(tmp_path):
    with pytest.raises(ParseError, match="header"):
        load_embeddings(write(tmp_path / "a.csv", "id,e0\n1,0\n"), 1)
    with pytest.raises(ParseError, match="duplicate"):
        load_embeddings(write(tmp_path / "b.csv", "item,e0\n1,0\n1,2\n"), 1)
    with pytest.raises(ParseError, match="line 2"):
        load_embeddings(write(tmp_path / "c.csv", "item,e0\n1,0,9\n"), 1)
    with pytest.raises(ParseError, match="lack embeddings"):
        load_embeddings(
            write(tmp_path / "d.csv", "item,e0\n1,0\n2,1\n"),
            1,
            expected_items=[1, 2, 3],
        )
    with pytest.raises(EmptyDatasetError):
        load_embeddings(write(tmp_path / "e.csv", ""), 1)


def test_embedding_lookup(tmp_path):
    path = write(tmp_path / "emb.csv", "item,e0\n10,0\n20,5\n30,10\n")
    emb = load_embeddings(path, expected_d=1)
    assert emb.vector(20)[0] == 0.0
    with pytest.raises(KeyError):
        emb.vector(25)
    matrix = emb.matrix_for([30, 10])
    assert matrix[:, 0].tolist() == [1.0, -1.0]


def test_synthetic_embeddings_range_and_determinism():
    a = synthetic_embeddings(50, 10, 0.0, 0.5, seed=7)
    b = synthetic_embeddings(50, 10, 0.0, 0.5, seed=7)
    assert np.array_equal(a.vectors, b.vectors)
    assert np.all(a.vectors >= 0.0) and np.all(a.vectors <= 0.5)
    assert a.item_ids.tolist() == list(range(50))
    c = synthetic_embeddings(50, 10, 0.0, 0.5, seed=8)
    assert not np.array_equal(a.vectors, c.vectors)


def test_synthetic_embeddings_mean_matches_midpoint():
    emb = synthetic_embeddings(100_000, 2, 0.0, 0.5, seed=9)
    # Var of U[0, 0.5] is 1/48; sigma of the mean over n draws
    sigma = np.sqrt(1.0 / 48.0 / 100_000)
    assert np.all(np.abs(emb.vectors.mean(axis=0) - 0.25) < 3.0 * sigma)


def test_filter_top_items(tmp_path):
    lines = (
        "1\t10\t5\t0\n2\t10\t5\t0\n3\t10\t5\t0\n"
        "1\t20\t5\t0\n2\t20\t5\t0\n"
        "4\t30\t5\t0\n"
    )
    table = parse_ratings(write(tmp_path / "u.data", lines), "ml100k-tab")
    top = filter_top_items(table, 2)
    assert top.item_ids.tolist() == [10, 20]
    assert top.n_interactions == 5
    assert 4 not in top.user_ids.tolist()  # user 4 only liked the dropped item
    # tie between items 20 (2 hits) and 30 (1 hit) not an issue here; check
    # tie-break separately: items 20 and 30 both with two interactions
    lines2 = "1\t30\t5\t0\n2\t30\t5\t0\n1\t20\t5\t0\n2\t20\t5\t0\n3\t10\t5\t0\n"
    table2 = parse_ratings(write(tmp_path / "u2.data", lines2), "ml100k-tab")
    top2 = filter_top_items(table2, 1)
    assert top2.item_ids.tolist() == [20]  # smaller original id wins the tie


def test_write_maps(tmp_path):
    path = write(tmp_path / "u.data", "9\t50\t5\t0\n2\t7\t5\t0\n")
    table = parse_ratings(path, "ml100k-tab")
    write_maps(table, tmp_path / "users.map.csv", tmp_path / "items.map.csv")
    users = (tmp_path / "users.map.csv").read_text().strip().split("\n")
    items = (tmp_path / "items.map.csv").read_text().strip().split("\n")
    assert users == ["dense,original", "0,2", "1,9"]
    assert items == ["dense,original", "0,7", "1,50"]
