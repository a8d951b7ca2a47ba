"""Rating-file parsing, user splitting, and item-embedding handling.

Parsing keeps only strictly-positive feedback (rating > threshold), then
collapses repeated (user, item) pairs to one record, then re-indexes users and
items densely in ascending original-id order.  A table holds only which pairs
are positive: ratings serve the threshold alone, and timestamps are checked
but not kept.  A parsed table counts every record it dropped, so
`kept + filtered + duplicates` equals the number of data lines read.  Every
table holds its records in (user, item) order.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .catalog import distinct_sorted
from .errors import EmptyDatasetError, ParseError
from .seeding import EMBEDDINGS, SPLIT, rng_from_seed

FORMATS = ("ml100k-tab", "ml1m-colons", "generic-csv")

# CLI-friendly aliases for the canonical format tags
FORMAT_ALIASES = {
    "ml100k": "ml100k-tab",
    "ml1m": "ml1m-colons",
    "generic": "generic-csv",
}

#: Share of the shuffled users that `split_users` puts in the training split.
TRAIN_FRACTION = 0.8
#: `synthetic_embeddings`' uniform draw range, the [-1, 1] that
#: `normalize_embeddings` maps a file's coordinates onto.
SYNTHETIC_RANGE = (-1.0, 1.0)


def canonical_format(name: str) -> str:
    tag = FORMAT_ALIASES.get(name, name)
    if tag not in FORMATS:
        raise ValueError(f"unknown ratings format {name!r}; expected one of {FORMATS}")
    return tag


@dataclass(frozen=True)
class InteractionTable:
    """The positive (user, item) pairs of a ratings file, densely re-indexed.

    Records are in (user, item) order, each pair once: every constructor
    produces that order, `__post_init__` checks it, and `items_of` relies
    on it.  `filtered_count` counts the lines at or below the rating
    threshold and `duplicate_count` the repeats of a kept pair.
    """

    users: np.ndarray  # dense user index per record
    items: np.ndarray  # dense item index per record
    user_ids: np.ndarray  # dense -> original user id (ascending)
    item_ids: np.ndarray  # dense -> original item id (ascending)
    filtered_count: int
    duplicate_count: int

    def __post_init__(self):
        u, i = self.users, self.items
        behind = (u[1:] < u[:-1]) | ((u[1:] == u[:-1]) & (i[1:] <= i[:-1]))
        if behind.any():
            r = int(np.argmax(behind)) + 1
            raise ValueError(
                f"records must be in (user, item) order, each pair once: record {r} "
                f"(user {u[r]}, item {i[r]}) follows (user {u[r - 1]}, item {i[r - 1]})"
            )

    @property
    def n_users(self) -> int:
        return int(self.user_ids.shape[0])

    @property
    def n_items(self) -> int:
        return int(self.item_ids.shape[0])

    @property
    def n_interactions(self) -> int:
        return int(self.users.shape[0])

    def items_of(self, dense_user: int) -> np.ndarray:
        """Sorted item ids of one user (a fresh array)."""
        lo, hi = np.searchsorted(self.users, (dense_user, dense_user + 1))
        return self.items[lo:hi].copy()


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _split_line(line: str, sep: str, line_number: int) -> list[str]:
    parts = line.rstrip("\n").rstrip("\r").split(sep)
    if len(parts) < 3:
        raise ParseError(
            f"expected at least 3 {sep!r}-separated fields, got {len(parts)}",
            line_number=line_number,
        )
    return parts


def _parse_record(parts: list[str], line_number: int) -> tuple[int, int, float]:
    """One line's (user, item, rating); a timestamp is checked, not returned."""
    try:
        user = int(parts[0])
        item = int(parts[1])
        rating = float(parts[2])
    except ValueError as exc:
        raise ParseError(
            f"could not parse user/item/rating from {parts[:3]!r}",
            line_number=line_number,
        ) from exc
    ts: int | None = None
    if len(parts) > 3 and parts[3] != "":
        try:
            ts = int(parts[3])
        except ValueError as exc:
            raise ParseError(
                f"bad timestamp {parts[3]!r}", line_number=line_number
            ) from exc
    if not (
        _INT64_MIN <= user <= _INT64_MAX
        and _INT64_MIN <= item <= _INT64_MAX
        and (ts is None or _INT64_MIN <= ts <= _INT64_MAX)
    ):
        raise ParseError(
            f"id or timestamp outside the int64 range in {parts[:4]!r}",
            line_number=line_number,
        )
    return user, item, rating


class _Columns(NamedTuple):
    """One entry per data line, in file order."""

    users: np.ndarray  # int64 original ids
    items: np.ndarray  # int64 original ids
    ratings: np.ndarray  # float64, or int64 from `_read_columnar`


_SEPARATORS = {"ml100k-tab": "\t", "ml1m-colons": "::"}
_COLUMNAR_FIELDS = {"\t": (0, 1, 2, 3), "::": (0, 2, 4, 6)}


#: Bytes per block of `_colon_runs_are_pairs`' pass; each block reads two more.
_COLON_BLOCK = 1 << 20


def _colon_runs_are_pairs(raw: bytes) -> bool:
    """Whether every run of `:` in `raw` is exactly two long."""
    # blocks overlap by two bytes, so a run of three or more that starts in a
    # block is seen whole.  With none, runs are one or two long, and the
    # colons number twice the adjacent pairs exactly when none is one long.
    data = np.frombuffer(raw, dtype=np.uint8)
    colons = pairs = 0
    for start in range(0, data.size, _COLON_BLOCK):
        colon = data[start : start + _COLON_BLOCK + 2] == ord(":")
        pair = colon[:-1] & colon[1:]
        if (pair[:-1] & pair[1:]).any():
            return False
        colons += np.count_nonzero(colon[:_COLON_BLOCK])
        pairs += np.count_nonzero(pair[:_COLON_BLOCK])
    return colons == 2 * pairs


def _read_columnar(path, sep: str) -> _Columns | None:
    """Columns from one `np.loadtxt` call, or None to use the line reader.

    Only a file made of unsigned decimals, `\\n` and the separator is tried,
    and for `::` only one whose every run of colons is two long, so that
    splitting on `:` puts the fields at the even positions.  Ratings are
    int64 in a file with no `.`, else float64.  The file's bytes are freed
    before `loadtxt` reads it again.  On such a file `loadtxt` either yields
    the values the line reader would or raises `ValueError`.
    A file with no data is left to the line reader (`loadtxt` warns on it).
    """
    raw = Path(path).read_bytes()
    if not raw or raw.isspace() or raw.translate(None, b"0123456789.\n" + sep[:1].encode()):
        return None
    if sep == "::" and not _colon_runs_are_pairs(raw):
        return None
    rating = "f8" if b"." in raw else "i8"  # ints parse faster
    dtype = [("user", "i8"), ("item", "i8"), ("rating", rating), ("ts", "i8")]
    del raw
    try:
        with warnings.catch_warnings():
            # numpy < 2 reads "1.0" into an int column with only this warning
            warnings.simplefilter("error", DeprecationWarning)
            data = np.loadtxt(
                path,
                delimiter=sep[0],
                dtype=dtype,
                usecols=_COLUMNAR_FIELDS[sep],
                comments=None,
                ndmin=1,
            )
    except (ValueError, DeprecationWarning):
        return None
    # "ts" is read, so a timestamp loadtxt cannot parse as int64 sends the
    # file to the line reader, which names its line
    return _Columns(data["user"], data["item"], data["rating"])


def _csv_rows(fh, path):
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyDatasetError(f"{path} is empty") from None
    expected = ["user", "item", "rating"]
    if [h.strip().lower() for h in header[:3]] != expected:
        raise ParseError(
            f"header must start with user,item,rating — got {header!r}",
            line_number=1,
        )
    for line_number, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) < 3:
            raise ParseError(
                f"expected at least 3 fields, got {len(row)}",
                line_number=line_number,
            )
        yield line_number, row


def _separated_rows(fh, sep: str):
    for line_number, line in enumerate(fh, start=1):
        if line.strip():
            yield line_number, _split_line(line, sep, line_number)


def _read_lines(path, tag: str) -> _Columns:
    """Columns from parsing line by line; raises ParseError naming a bad line."""
    users: list[int] = []
    items: list[int] = []
    ratings: list[float] = []
    with open(path, newline="") as fh:
        if tag == "generic-csv":
            rows = _csv_rows(fh, path)
        else:
            rows = _separated_rows(fh, _SEPARATORS[tag])
        for line_number, parts in rows:
            user, item, rating = _parse_record(parts, line_number)
            users.append(user)
            items.append(item)
            ratings.append(rating)
    return _Columns(
        np.array(users, dtype=np.int64),
        np.array(items, dtype=np.int64),
        np.array(ratings, dtype=np.float64),
    )


def _dense_ids(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct ids and each entry's index among them (`np.unique`'s pair).

    Ids spanning at most a few times their count are ranked through a boolean
    table over the span, without sorting; wider spans, such as sparse 64-bit
    ids, go through `np.unique`.
    """
    lo = ids.min()
    span = int(ids.max()) - int(lo) + 1  # Python ints: cannot overflow
    if span > 4 * ids.size:
        return np.unique(ids, return_inverse=True)
    offset = ids - lo
    present = np.zeros(span, dtype=bool)
    present[offset] = True
    rank = np.cumsum(present, dtype=np.intp) - 1
    return np.flatnonzero(present) + lo, rank[offset]


def _table_from_columns(
    columns: _Columns, positive_threshold: float, source: str
) -> InteractionTable:
    """Threshold, deduplicate and densely re-index parsed columns."""
    # compared in float64 whatever the ratings' dtype
    positive = np.flatnonzero(columns.ratings > float(positive_threshold))
    n_positive = positive.size
    if not n_positive:
        raise EmptyDatasetError(
            f"no interactions with rating > {positive_threshold} in {source}"
        )

    user_ids, ui = _dense_ids(columns.users.take(positive))
    item_ids, ii = _dense_ids(columns.items.take(positive))
    # one code per (user, item) in (user, item) order; code < rows**2, so it
    # cannot overflow.  Repeats of a pair are alike, so one record is kept.
    n_items = len(item_ids)
    pairs = distinct_sorted(ui * n_items + ii)
    users, items = np.divmod(pairs, n_items)

    return InteractionTable(
        users=users,
        items=items,
        user_ids=user_ids,
        item_ids=item_ids,
        filtered_count=len(columns.ratings) - n_positive,
        duplicate_count=n_positive - pairs.size,
    )


def parse_ratings(path, format: str, positive_threshold: float = 3.0) -> InteractionTable:
    """Read a ratings file, keep ratings strictly above the threshold.

    A repeated (user, item) pair collapses to one record.  Two readers
    produce the columns, and the table built from them is the same in every
    field and bit whichever reader ran:

    * columnar: a tab or `::` file whose bytes are only unsigned decimals,
      `\\n` and the separator (for `::`, with every run of colons exactly two
      long) is read whole by one `np.loadtxt` call (int64 ratings if the
      file holds no `.`); the bytes read for that check are freed before it;
    * line by line: every generic CSV, every other tab or `::` file (CRLF,
      signs, spaces, 3-field or mixed-field lines) and any file `loadtxt`
      rejects.

    Only the line reader raises on bad input: a `ParseError` naming the
    first bad line, ids or timestamps outside the int64 range included.
    No line above the threshold raises `EmptyDatasetError`.
    """
    tag = canonical_format(format)
    columns = None if tag == "generic-csv" else _read_columnar(path, _SEPARATORS[tag])
    if columns is None:
        columns = _read_lines(path, tag)
    return _table_from_columns(columns, positive_threshold, str(path))


def subtable(table: InteractionTable, dense_users) -> InteractionTable:
    """Records of the given users, with users re-indexed within the subset.

    The item index space is left untouched — items keep their parent dense
    ids even if a split holds no record for them — so embedding matrices and
    catalogs built on the parent remain valid for both splits.  Dense user ids
    outside 0..n_users-1 raise ValueError.
    """
    dense_users = np.asarray(dense_users, dtype=np.intp)
    outside = dense_users[(dense_users < 0) | (dense_users >= table.n_users)]
    if outside.size:
        raise ValueError(
            f"dense user ids outside 0..{table.n_users - 1}: {outside[:5].tolist()}"
        )
    chosen = np.zeros(table.n_users, dtype=bool)
    chosen[dense_users] = True
    mask = chosen[table.users]
    users = table.users[mask]
    # records stay in user order, so each kept user is one run
    starts = np.ones(users.size, dtype=bool)
    starts[1:] = users[1:] != users[:-1]
    return InteractionTable(
        users=np.cumsum(starts, dtype=np.intp) - 1,
        items=table.items[mask],
        user_ids=table.user_ids[users[starts]],
        item_ids=table.item_ids,
        filtered_count=0,
        duplicate_count=0,
    )


def split_users(
    table: InteractionTable, seed: int
) -> tuple[InteractionTable, InteractionTable]:
    """Seeded shuffle of users; first floor(TRAIN_FRACTION * U) train, rest test."""
    if table.n_users < 2:
        raise EmptyDatasetError("need at least 2 users to split")
    order = rng_from_seed(seed, SPLIT).permutation(table.n_users)
    cut = int(table.n_users * TRAIN_FRACTION)
    return subtable(table, order[:cut]), subtable(table, order[cut:])


def filter_top_items(table: InteractionTable, n: int) -> InteractionTable:
    """Keep the n most-interacted items (ties to the smaller original id).

    Users and items are re-indexed densely again; users whose records all
    land on dropped items disappear from the result.  The counts of records
    dropped at parse time carry over; the records dropped here are the
    difference in `n_interactions`.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    counts = np.bincount(table.items, minlength=table.n_items)
    # sort by (-count, original id): stable argsort on the negated counts
    order = np.argsort(-counts, kind="stable")
    kept_dense = np.sort(order[: min(n, table.n_items)])
    mask = np.isin(table.items, kept_dense)
    if not np.any(mask):
        raise EmptyDatasetError("top-items filter removed every record")

    user_ids, users = _dense_ids(table.user_ids[table.users[mask]])
    item_ids, items = _dense_ids(table.item_ids[table.items[mask]])
    return InteractionTable(
        users=users,
        items=items,
        user_ids=user_ids,
        item_ids=item_ids,
        filtered_count=table.filtered_count,
        duplicate_count=table.duplicate_count,
    )


def normalize_embeddings(raw: np.ndarray) -> np.ndarray:
    """Min-max map each dimension onto [-1, 1]; constant dimensions go to 0."""
    mins = raw.min(axis=0)
    maxs = raw.max(axis=0)
    span = maxs - mins
    safe = np.where(span == 0.0, 1.0, span)
    normalized = 2.0 * (raw - mins) / safe - 1.0
    normalized[:, span == 0.0] = 0.0
    return normalized


def _embedding_dim(header: list[str]) -> int:
    """The d of an `item,e0,...,e{d-1}` header, d >= 1; else ParseError on line 1."""
    fields = [h.strip() for h in header]
    d = len(fields) - 1
    if d < 1 or fields != ["item"] + [f"e{i}" for i in range(d)]:
        raise ParseError(
            f"header must be item,e0,...,e{{d-1}} with d >= 1 — got {header!r}",
            line_number=1,
        )
    return d


def load_embeddings(path, item_ids) -> np.ndarray:
    """Rows for `item_ids` (original ids, in that order) from an embedding CSV.

    The file has header `item,e0,...,e{d-1}`, which sets d, and one row per
    original item id.  Each dimension is min-max rescaled onto [-1, 1] over
    every row in the file, including items that `item_ids` leaves out.  A bad
    header, field count or value, a value that is nan or infinite, a repeated
    id, an id of `item_ids` that the file lacks and a file without rows raise
    ParseError or EmptyDatasetError.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDatasetError(f"{path} is empty") from None
        d = _embedding_dim(header)
        index: dict[int, int] = {}  # original id -> row in file order
        rows: list[np.ndarray] = []
        for line_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 1:
                raise ParseError(
                    f"expected {d + 1} fields, got {len(row)}",
                    line_number=line_number,
                )
            try:
                item = int(row[0])
                values = np.array([float(v) for v in row[1:]], dtype=np.float64)
            except ValueError as exc:
                raise ParseError(
                    f"bad embedding row {row!r}", line_number=line_number
                ) from exc
            if not np.isfinite(values).all():
                raise ParseError(
                    f"non-finite embedding value in {row!r}", line_number=line_number
                )
            if item in index:
                raise ParseError(
                    f"duplicate embedding for item {item}", line_number=line_number
                )
            index[item] = len(rows)
            rows.append(values)

    if not rows:
        raise EmptyDatasetError(f"no embedding rows in {path}")
    missing = sorted(set(int(i) for i in item_ids) - set(index))
    if missing:
        raise ParseError(
            f"{len(missing)} item(s) lack embeddings, first few: {missing[:5]}"
        )
    normalized = normalize_embeddings(np.vstack(rows))
    return normalized[[index[int(i)] for i in item_ids]]


def synthetic_embeddings(n_items: int, d: int, seed: int) -> np.ndarray:
    """I.i.d. uniform vectors on `SYNTHETIC_RANGE` for items 0..n_items-1, per seed.

    The draws are used as they are: they already lie in the range a file's
    coordinates are rescaled onto.
    """
    if n_items < 1 or d < 1:
        raise ValueError("n_items and d must be >= 1")
    return rng_from_seed(seed, EMBEDDINGS).uniform(*SYNTHETIC_RANGE, size=(n_items, d))


def write_maps(table: InteractionTable, users_path, items_path) -> None:
    """Emit the dense->original re-indexing maps as two-column CSVs."""
    for path, ids in ((users_path, table.user_ids), (items_path, table.item_ids)):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["dense", "original"])
            for dense, original in enumerate(ids):
                writer.writerow([dense, int(original)])
