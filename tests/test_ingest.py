"""Tests for rating parsing, user splits, and embedding normalization.

Fixture files are written byte-for-byte in each format so the field
separators themselves are under test.
"""

import csv
import dataclasses
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dispersion_bandit import ingest
from dispersion_bandit.errors import EmptyDatasetError, ParseError
from dispersion_bandit.ingest import (
    InteractionTable,
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
    assert table.filtered_count == 2
    assert table.duplicate_count == 0
    lines = len(path.read_text().splitlines())
    assert table.n_interactions + table.filtered_count + table.duplicate_count == lines
    assert table.user_ids.tolist() == [1, 2]
    assert table.item_ids.tolist() == [10]


def test_parse_threshold_is_strict(tmp_path):
    path = write(tmp_path / "u.data", "1\t1\t2\t0\n2\t1\t3\t0\n3\t1\t4\t0\n")
    table = parse_ratings(path, "ml100k-tab", positive_threshold=3)
    assert table.n_interactions == 1
    assert table.user_ids.tolist() == [3]  # the one line rated 4


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
    assert table.filtered_count == 1
    data_lines = len(path.read_text().splitlines()) - 1  # after the header
    assert table.n_interactions + table.filtered_count + table.duplicate_count == data_lines


def test_parse_generic_csv_without_timestamps(tmp_path):
    path = write(tmp_path / "r.csv", "user,item,rating\n1,2,4\n2,2,5\n")
    table = parse_ratings(path, "generic-csv")
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


def test_dedup_collapses_a_repeated_pair(tmp_path):
    path = write(
        tmp_path / "u.data",
        "1\t1\t4\t10\n1\t1\t5\t11\n1\t1\t3.5\t12\n2\t1\t4\t13\n",
    )
    table = parse_ratings(path, "ml100k-tab", positive_threshold=3)
    assert table.n_interactions == 2
    assert table.duplicate_count == 2
    assert table.items_of(0).tolist() == [0]
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
    train, test = split_users(table, 42)
    assert train.n_users == 8
    assert test.n_users == 2
    train_set = set(train.user_ids.tolist())
    test_set = set(test.user_ids.tolist())
    assert train_set.isdisjoint(test_set)
    assert train_set | test_set == set(table.user_ids.tolist())
    assert train.n_interactions + test.n_interactions == table.n_interactions
    # splits keep the parent item index space
    assert np.array_equal(train.item_ids, table.item_ids)

    train2, test2 = split_users(table, 42)
    assert np.array_equal(train.user_ids, train2.user_ids)
    other_train, _ = split_users(table, 43)
    others = [
        np.array_equal(other_train.user_ids, train.user_ids)
        for _ in range(1)
    ]
    # a different seed is allowed to coincide, but across a few seeds the
    # split must move at least once
    moved = any(
        not np.array_equal(
            split_users(table, s)[0].user_ids, train.user_ids
        )
        for s in (43, 44, 45)
    )
    assert moved


def test_split_users_cut_follows_train_fraction(tmp_path, monkeypatch):
    lines = "".join(f"{u}\t{u % 3}\t5\t0\n" for u in range(10))
    table = parse_ratings(write(tmp_path / "u.data", lines), "ml100k-tab")
    monkeypatch.setattr(ingest, "TRAIN_FRACTION", 0.55)
    train, test = split_users(table, 42)
    assert (train.n_users, test.n_users) == (5, 5)  # floor(0.55 * 10)


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
    train, test = split_users(table, 5)
    top = filter_top_items(table, 20)
    for t in (table, train, test, top):
        # (user, item) order, each pair once
        order = np.lexsort((t.items, t.users))
        assert np.array_equal(order, np.arange(t.n_interactions))
        assert len(set(zip(t.users.tolist(), t.items.tolist()))) == t.n_interactions
        for u in range(t.n_users):
            got = t.items_of(u)
            assert np.array_equal(got, np.sort(t.items[t.users == u]))
            got[:] = -1  # a copy: the table is untouched
            assert np.array_equal(t.items_of(u), np.sort(t.items[t.users == u]))
        assert t.items_of(t.n_users).size == 0


@pytest.mark.parametrize(
    "users, items, record",
    [
        ([0, 0, 1], [1, 0, 0], r"record 1 \(user 0, item 0\) follows \(user 0, item 1\)"),
        ([0, 1, 0], [0, 0, 1], r"record 2 \(user 0, item 1\) follows \(user 1, item 0\)"),
        ([0, 1, 1], [0, 2, 2], r"record 2 \(user 1, item 2\) follows \(user 1, item 2\)"),
    ],
    ids=["items", "users", "repeated-pair"],
)
def test_out_of_order_table_raises(tmp_path, users, items, record):
    table = parse_ratings(write(tmp_path / "u.data", "1\t1\t5\t0\n"), "ml100k-tab")
    fields = dict(vars(table), users=np.array(users), items=np.array(items))
    with pytest.raises(ValueError, match=record):
        InteractionTable(**fields)


@pytest.mark.parametrize("dense", [[0, 4], [-1], [2, 7, -3]])
def test_subtable_rejects_dense_ids_out_of_range(tmp_path, dense):
    lines = "".join(f"{u}\t1\t5\t0\n" for u in range(4))
    table = parse_ratings(write(tmp_path / "u.data", lines), "ml100k-tab")
    bad = [u for u in dense if not 0 <= u < 4]
    with pytest.raises(ValueError, match=re.escape(f"outside 0..3: {bad}")):
        subtable(table, dense)


def test_load_embeddings_minmax_endpoints(tmp_path):
    path = write(
        tmp_path / "emb.csv", "item,e0\n1,0\n2,5\n3,10\n"
    )
    vectors = load_embeddings(path, [1, 2, 3])
    assert vectors[:, 0].tolist() == [-1.0, 0.0, 1.0]


def test_load_embeddings_constant_dimension(tmp_path):
    path = write(
        tmp_path / "emb.csv", "item,e0,e1\n1,2.0,0\n2,2.0,5\n3,2.0,10\n"
    )
    vectors = load_embeddings(path, [1, 2, 3])
    assert np.array_equal(vectors[:, 0], np.zeros(3))
    assert vectors[:, 1].tolist() == [-1.0, 0.0, 1.0]


def test_load_embeddings_round_trip(tmp_path):
    rng = np.random.default_rng(91)
    raw = rng.normal(size=(6, 3)) * 4.0
    lines = ["item,e0,e1,e2"]
    for i in range(6):
        lines.append(",".join([str(i)] + [repr(float(v)) for v in raw[i]]))
    path = write(tmp_path / "emb.csv", "\n".join(lines) + "\n")
    vectors = load_embeddings(path, range(6))
    assert np.all(vectors >= -1.0) and np.all(vectors <= 1.0)
    mins, maxs = raw.min(axis=0), raw.max(axis=0)
    recovered = (vectors + 1.0) / 2.0 * (maxs - mins) + mins
    assert np.allclose(recovered, raw, atol=1e-9)


def test_load_embeddings_normalizes_over_every_row_in_the_file(tmp_path):
    # item 99 has no rating; its e0 widens that dimension's range to [0, 30]
    ratings = write(
        tmp_path / "ratings.csv",
        "user,item,rating\n1,1,5\n1,2,4\n2,3,5\n2,1,1\n",
    )
    table = parse_ratings(ratings, "generic-csv")
    assert table.item_ids.tolist() == [1, 2, 3]
    path = write(
        tmp_path / "emb.csv", "item,e0,e1\n99,30,2\n3,10,3\n1,0,1\n2,5,2\n"
    )
    vectors = load_embeddings(path, table.item_ids)
    assert vectors[:, 0] == pytest.approx([-1.0, -2.0 / 3.0, -1.0 / 3.0], abs=1e-15)
    assert vectors[:, 1].tolist() == [-1.0, 0.0, 1.0]
    # the same rows as normalizing the whole file and then picking the items
    whole = normalize_embeddings(np.array([[30, 2], [10, 3], [0, 1], [5, 2]], float))
    assert vectors.tobytes() == whole[[2, 3, 1]].tobytes()


def test_normalize_is_idempotent():
    rng = np.random.default_rng(92)
    raw = rng.uniform(-3.0, 7.0, size=(10, 4))
    normalized = normalize_embeddings(raw)
    again = normalize_embeddings(normalized)
    assert np.allclose(again, normalized, atol=1e-12)


@pytest.mark.parametrize("header", ["id,e0", "item", "item,e1", "item,e0,e2"])
def test_load_embeddings_rejects_bad_headers_on_line_1(tmp_path, header):
    path = write(tmp_path / "emb.csv", f"{header}\n1,0\n")
    with pytest.raises(ParseError, match="^line 1: header must be item,e0"):
        load_embeddings(path, [1])


def test_load_embeddings_errors(tmp_path):
    with pytest.raises(ParseError, match="line 3: duplicate"):
        load_embeddings(write(tmp_path / "b.csv", "item,e0\n1,0\n1,2\n"), [1])
    with pytest.raises(ParseError, match="line 2: expected 2 fields, got 3"):
        load_embeddings(write(tmp_path / "c.csv", "item,e0\n1,0,9\n"), [1])
    with pytest.raises(ParseError, match="line 2: bad embedding row"):
        load_embeddings(write(tmp_path / "f.csv", "item,e0\n1,x\n"), [1])
    with pytest.raises(ParseError, match="lack embeddings"):
        load_embeddings(write(tmp_path / "d.csv", "item,e0\n1,0\n2,1\n"), [1, 2, 3])
    with pytest.raises(EmptyDatasetError, match="is empty"):
        load_embeddings(write(tmp_path / "e.csv", ""), [1])
    with pytest.raises(EmptyDatasetError, match="no embedding rows"):
        load_embeddings(write(tmp_path / "g.csv", "item,e0\n"), [1])


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
def test_load_embeddings_rejects_non_finite_values_naming_the_line(tmp_path, value):
    path = write(tmp_path / "emb.csv", f"item,e0,e1\n1,0,1\n2,{value},0\n3,1,{value}\n")
    with pytest.raises(ParseError, match="^line 3: non-finite embedding value"):
        load_embeddings(path, [1])


def test_embedding_lookup(tmp_path):
    path = write(tmp_path / "emb.csv", "item,e0\n10,0\n20,5\n30,10\n")
    assert load_embeddings(path, [20]).tolist() == [[0.0]]
    with pytest.raises(ParseError, match=r"lack embeddings, first few: \[25\]"):
        load_embeddings(path, [25])
    assert load_embeddings(path, [30, 10])[:, 0].tolist() == [1.0, -1.0]


def test_synthetic_embeddings_range_and_determinism():
    a = synthetic_embeddings(50, 10, seed=7)
    b = synthetic_embeddings(50, 10, seed=7)
    assert a.shape == (50, 10)
    assert np.array_equal(a, b)
    assert np.all(a >= -1.0) and np.all(a <= 1.0)
    c = synthetic_embeddings(50, 10, seed=8)
    assert not np.array_equal(a, c)


def test_synthetic_embeddings_mean_matches_midpoint():
    vectors = synthetic_embeddings(100_000, 2, seed=9)
    # Var of U[-1, 1] is 1/3; sigma of the mean over n draws
    sigma = np.sqrt(1.0 / 3.0 / 100_000)
    assert np.all(np.abs(vectors.mean(axis=0)) < 3.0 * sigma)


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


# --- the two readers of parse_ratings -------------------------------------


@pytest.mark.parametrize(
    "name, fmt, text",
    [
        ("u.data", "ml100k-tab", "1\t1\t4\t0\n99999999999999999999\t2\t5\t4\n"),
        ("u.data", "ml100k-tab", "1\t1\t4\t0\n1\t9223372036854775808\t5\t4\n"),
        ("u.data", "ml100k-tab", "1\t1\t4\t0\n-9223372036854775809\t2\t5\t4\n"),
        ("u.data", "ml100k-tab", "1\t1\t4\t0\n1\t2\t1\t99999999999999999999\n"),
        ("ratings.dat", "ml1m-colons", "1::1::4::0\n99999999999999999999::2::5::4\n"),
        ("r.csv", "generic-csv", "user,item,rating\n99999999999999999999,2,5\n"),
    ],
)
def test_ids_beyond_int64_raise_a_parse_error_naming_the_line(tmp_path, name, fmt, text):
    path = write(tmp_path / name, text)
    with pytest.raises(ParseError, match="line 2: .*int64") as info:
        parse_ratings(path, fmt)
    assert info.value.line_number == 2


@pytest.mark.parametrize("sep", ["\t", "::"])
@pytest.mark.parametrize("stamp", ["1.5", "x", "9223372036854775808"])
def test_a_bad_timestamp_raises_a_parse_error_naming_its_line(tmp_path, sep, stamp):
    # timestamps are not kept, so this check is all that is left of them; the
    # same files are inputs of the differential test below
    fmt = "ml100k-tab" if sep == "\t" else "ml1m-colons"
    text = f"1{sep}2{sep}5{sep}3\n1{sep}3{sep}5{sep}{stamp}\n"
    with pytest.raises(ParseError) as info:
        parse_ratings(write(tmp_path / "ratings", text), fmt)
    assert info.value.line_number == 2


def test_int64_extremes_are_kept(tmp_path):
    path = write(
        tmp_path / "u.data",
        "9223372036854775807\t1\t5\t0\n-9223372036854775808\t1\t5\t0\n",
    )
    table = parse_ratings(path, "ml100k-tab")
    assert table.user_ids.tolist() == [-(2**63), 2**63 - 1]


@pytest.mark.parametrize(
    "name, fmt, text",
    [
        ("u.data", "ml100k-tab", "1\t10\t4\t7\n2\t10\t5\t8\n1\t10\t4.5\t9\n\n"),
        ("ratings.dat", "ml1m-colons", "1::10::4::7\n2::10::5::8\n1::10::4.5::9"),
        (  # ML-1M's shape: 4-digit ids, 10-digit timestamps, no final newline
            "ratings.dat",
            "ml1m-colons",
            "6040::3952::4::978300760\n6041::3952::5::1046454590\n6040::3952::4.5::978302109",
        ),
    ],
)
def test_plain_numeric_files_take_the_columnar_reader(tmp_path, monkeypatch, name, fmt, text):
    path = write(tmp_path / name, text)

    def no_line_reader(*args):
        raise AssertionError("line reader used on a plain numeric file")

    monkeypatch.setattr(ingest, "_read_lines", no_line_reader)
    table = parse_ratings(path, fmt)
    assert table.users.tolist() == [0, 1]
    assert table.items.tolist() == [0, 0]
    assert table.duplicate_count == 1


@pytest.mark.parametrize(
    "text",
    [
        "1::2::5::3\n1:2::5::3\n",  # a lone colon: ParseError on line 2
        "1::2::5::3::4:5\n",  # a lone colon in a field past the timestamp
        "1::2::5::3:::4\n",
        "1::2::5::3::::4\n",  # a run of four, which loadtxt used to reject
    ],
)
def test_colon_runs_other_than_pairs_skip_loadtxt(tmp_path, monkeypatch, text):
    path = write(tmp_path / "ratings.dat", text)
    expected = parse_outcome(dict_parse_ratings, path, "ml1m-colons", 3.0)

    def no_loadtxt(*args, **kwargs):
        raise AssertionError("loadtxt reached with a colon run other than a pair")

    monkeypatch.setattr(np, "loadtxt", no_loadtxt)
    got = parse_outcome(parse_ratings, path, "ml1m-colons", 3.0)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert_same_table(got, expected)


def colon_runs_are_pairs_oracle(raw: bytes) -> bool:
    return all(len(run) == 2 for run in re.findall(rb":+", raw))


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=40).map(lambda b: bytes(b"01:\n"[v % 4] for v in b)))
@example(b"")
@example(b"::1::2")  # a run at offset 0
@example(b"1::2:")  # a lone trailing colon
@example(b"1::2::")
@example(b"1::::2")
def test_colon_check_matches_the_run_oracle_across_block_edges(raw):
    # blocks of 1, 2, 3 and 7 bytes put runs across every kind of block edge
    for block in (1, 2, 3, 7, ingest._COLON_BLOCK):
        with mock.patch.object(ingest, "_COLON_BLOCK", block):
            assert ingest._colon_runs_are_pairs(raw) == colon_runs_are_pairs_oracle(raw)


def _oracle_split_line(line, sep, line_number):
    parts = line.rstrip("\n").rstrip("\r").split(sep)
    if len(parts) < 3:
        raise ParseError(
            f"expected at least 3 {sep!r}-separated fields, got {len(parts)}",
            line_number=line_number,
        )
    return parts


def _oracle_parse_record(parts, line_number):
    try:
        user = int(parts[0])
        item = int(parts[1])
        rating = float(parts[2])
    except ValueError as exc:
        raise ParseError("bad record", line_number=line_number) from exc
    if len(parts) > 3 and parts[3] != "":
        try:
            ts = int(parts[3])
        except ValueError as exc:
            raise ParseError("bad timestamp", line_number=line_number) from exc
        if not -(2**63) <= ts < 2**63:
            raise ParseError("timestamp outside int64", line_number=line_number)
    return user, item, rating


def dict_parse_ratings(path, format, positive_threshold=3.0):
    """The per-line, set-deduplicating parser: the oracle for both readers."""
    tag = canonical_format(format)
    records = []
    filtered = 0

    with open(path, newline="") as fh:
        if tag == "generic-csv":
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise EmptyDatasetError(f"{path} is empty") from None
            if [h.strip().lower() for h in header[:3]] != ["user", "item", "rating"]:
                raise ParseError("bad header", line_number=1)
            for line_number, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) < 3:
                    raise ParseError("too few fields", line_number=line_number)
                user, item, rating = _oracle_parse_record(row, line_number)
                if rating > positive_threshold:
                    records.append((user, item))
                else:
                    filtered += 1
        else:
            sep = "\t" if tag == "ml100k-tab" else "::"
            for line_number, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                parts = _oracle_split_line(line, sep, line_number)
                user, item, rating = _oracle_parse_record(parts, line_number)
                if rating > positive_threshold:
                    records.append((user, item))
                else:
                    filtered += 1

    if not records:
        raise EmptyDatasetError("no interactions")

    keys = sorted(set(records))
    users_orig = np.array([k[0] for k in keys], dtype=np.int64)
    items_orig = np.array([k[1] for k in keys], dtype=np.int64)
    user_ids = np.unique(users_orig)
    item_ids = np.unique(items_orig)
    return InteractionTable(
        users=np.searchsorted(user_ids, users_orig),
        items=np.searchsorted(item_ids, items_orig),
        user_ids=user_ids,
        item_ids=item_ids,
        filtered_count=filtered,
        duplicate_count=len(records) - len(keys),
    )


def assert_same_table(got, expected):
    for field in dataclasses.fields(InteractionTable):
        a, b = getattr(got, field.name), getattr(expected, field.name)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray), field.name
            assert a.dtype == b.dtype and a.shape == b.shape, field.name
            assert a.tobytes() == b.tobytes(), field.name
        else:
            assert a == b, field.name


def parse_outcome(parse, path, fmt, threshold):
    """The table, or the exception type and line number it raised."""
    try:
        return parse(path, fmt, threshold)
    except ParseError as exc:
        return ("ParseError", exc.line_number)
    except EmptyDatasetError:
        return ("EmptyDatasetError", None)


# ids stay inside int64 so the oracle, which has no range check, cannot overflow
_ID = st.builds(
    lambda zeros, value: "0" * zeros + str(value),
    st.integers(0, 3),
    st.one_of(st.integers(1, 4), st.integers(0, 2**63 - 1)),
)
_RATING = st.one_of(
    st.sampled_from(["1", "3", "4", "5", "4.5", "5.0", "4.", ".5", "3.0000000000000001"]),
    st.from_regex(r"\A[0-9]{1,20}(\.[0-9]{0,20})?\Z"),
)
_JUNK = st.text(alphabet="0123456789.:\t +-e\r,", max_size=4)


@st.composite
def ratings_files(draw):
    fmt = draw(st.sampled_from(["ml100k-tab", "ml1m-colons", "generic-csv"]))
    sep = {"ml100k-tab": "\t", "ml1m-colons": "::", "generic-csv": ","}[fmt]
    clean = draw(st.booleans())  # clean tab and :: files exercise the columnar reader
    lines = ["user,item,rating,ts"] if fmt == "generic-csv" else []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", "::"])))
            continue
        fields = [draw(_ID), draw(_ID), draw(_RATING), draw(_ID), draw(_ID)]
        fields = fields[: draw(st.sampled_from([4, 4, 3, 5]))]
        if not clean:
            for i in range(len(fields)):
                if draw(st.integers(0, 3)) == 0:
                    fields[i] = draw(_JUNK)
        line_sep = sep if clean else draw(st.sampled_from([sep, sep, ":", "\t", " ", ","]))
        lines.append(line_sep.join(fields))
    newline = "\n" if clean else draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(lines)
    if draw(st.booleans()):
        text += newline
    return fmt, text


@settings(max_examples=400, deadline=None)
@given(ratings_files(), st.sampled_from([3.0, 0.0, 4.5, -1.0]))
@example(("ml1m-colons", "1:2:3:4:5:6:7\n"), 3.0)  # odd colons: misaligned fields
@example(("ml1m-colons", "1::::2::5::3\n"), 3.0)
@example(("ml1m-colons", "1::2::5::\n1::3::4::7\n"), 3.0)  # an empty timestamp
@example(("ml100k-tab", "1\t2\t5\t3\n\t\n1\t2\t5\t4"), 3.0)  # a tab-only line
@example(("ml100k-tab", "1\t2\t5\t3\t\t9\n1\t2\t5\t1\n"), 3.0)  # a repeated pair
@example(("ml100k-tab", "1.0\t2\t5\t3\n"), 3.0)
@example(  # repeats of a pair far apart, either side of other users' records
    ("ml1m-colons", "7::2::5::1\n" + "".join(f"{u}::{u}::4::9\n" for u in range(60))
     + "7::2::5::2\n7::2::4::3\n"),
    3.0,
)
@example(("ml100k-tab", "9223372036854775807\t0\t5\t1\n0\t9223372036854775807\t5\t2\n"), 3.0)
@example(  # int64 extremes on the line reader, which takes signs
    ("ml100k-tab", "-9223372036854775808\t9223372036854775807\t5\t-9223372036854775808\n"
     "9223372036854775807\t-9223372036854775808\t5\t9223372036854775807\n"),
    3.0,
)
@example(("ml100k-tab", "\n\n"), 3.0)
# a timestamp is checked though not kept: each of these is bad on line 2 alone
@example(("ml100k-tab", "1\t2\t5\t3\n1\t3\t5\t1.5\n"), 3.0)
@example(("ml100k-tab", "1\t2\t5\t3\n1\t3\t5\tx\n"), 3.0)
@example(("ml100k-tab", "1\t2\t5\t3\n1\t3\t5\t9223372036854775808\n"), 3.0)
@example(("ml1m-colons", "1::2::5::3\n1::3::5::1.5\n"), 3.0)
@example(("ml1m-colons", "1::2::5::3\n1::3::5::x\n"), 3.0)
@example(("ml1m-colons", "1::2::5::3\n1::3::5::9223372036854775808\n"), 3.0)
def test_both_readers_match_the_dict_oracle(tmp_path_factory, case, threshold):
    fmt, text = case
    path = tmp_path_factory.mktemp("fuzz") / "ratings"
    path.write_bytes(text.encode())
    got = parse_outcome(parse_ratings, path, fmt, threshold)
    expected = parse_outcome(dict_parse_ratings, path, fmt, threshold)
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert_same_table(got, expected)


def three_sort_table_from_columns(columns, positive_threshold, source):
    """`_table_from_columns` before its dedup took one sort: `np.unique` for the
    dense ids, then a two-key lexsort of every positive row."""
    raw_lines = len(columns.users)
    positive = columns.ratings > positive_threshold
    if not positive.any():
        raise EmptyDatasetError(f"no interactions with rating > {positive_threshold}")
    users, items, ratings = (c[positive] for c in columns)
    user_ids, ui = np.unique(users, return_inverse=True)
    item_ids, ii = np.unique(items, return_inverse=True)
    pair = ui * len(item_ids) + ii
    order = np.lexsort((-ratings, pair))
    pair = pair[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = pair[1:] != pair[:-1]
    best = order[first]
    return InteractionTable(
        users=ui[best], items=ii[best], user_ids=user_ids, item_ids=item_ids,
        filtered_count=raw_lines - len(users), duplicate_count=len(users) - len(best),
    )


@st.composite
def id_column(draw, n):
    """n ids over a compact span (a few times n), a sparse one, or a compact
    span with one far outlier, anywhere within +-2**62."""
    base = draw(st.sampled_from([0, 1, 40, -(2**62), 2**62 - 200]))
    span = draw(st.integers(1, 4 * n))
    kind = draw(st.sampled_from(["compact", "sparse", "outlier"]))
    if kind == "sparse":
        ids = draw(st.lists(st.integers(-(2**62), 2**62), min_size=n, max_size=n))
    else:
        ids = [base + v for v in draw(st.lists(st.integers(0, span - 1), min_size=n, max_size=n))]
        if kind == "outlier":
            ids[draw(st.integers(0, n - 1))] = draw(st.sampled_from([-(2**62), 2**62]))
    return np.array(ids, dtype=np.int64)


@st.composite
def parsed_columns(draw):
    n = draw(st.integers(1, 40))
    # few rating values, so each threshold keeps some rows and drops others
    ratings = draw(st.lists(st.sampled_from([1.0, 3.5, 4.0, 5.0]), min_size=n, max_size=n))
    return ingest._Columns(draw(id_column(n)), draw(id_column(n)), np.array(ratings))


def table_outcome(build, columns, threshold):
    try:
        return build(columns, threshold, "ratings")
    except EmptyDatasetError:
        return "EmptyDatasetError"


@settings(max_examples=400, deadline=None)
@given(parsed_columns(), st.sampled_from([3.0, 0.0, 4.5]))
@example(ingest._Columns(*(np.array([v]) for v in (5, 9, 5.0))), 3.0)  # one row
@example(  # one pair three times: one record, two duplicates
    ingest._Columns(
        np.array([2**62] * 3), np.array([-(2**62)] * 3), np.array([4.0, 5.0, 5.0])
    ),
    3.0,
)
def test_table_from_columns_matches_the_three_sort_build(columns, threshold):
    got = table_outcome(ingest._table_from_columns, columns, threshold)
    expected = table_outcome(three_sort_table_from_columns, columns, threshold)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert_same_table(got, expected)


@settings(max_examples=200, deadline=None)
@given(parsed_columns(), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_every_held_out_user_has_a_positive(columns, top_items, seed):
    # replay's recall divides by each held-out user's positives, and
    # `compute_metric_series` raises on an empty set
    table = table_outcome(ingest._table_from_columns, columns, 3.0)
    assume(not isinstance(table, str))
    for source in (table, filter_top_items(table, top_items)):
        if source.n_users < 2:
            continue
        _, test = split_users(source, seed)
        assert all(test.items_of(u).size > 0 for u in range(test.n_users))
