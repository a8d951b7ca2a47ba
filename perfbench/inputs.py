"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and writes the same bytes for the
same seed.  Nothing here imports the package under test: the program only
ever sees the files these functions write.

``write_ml1m_like`` writes a ``user::item::rating::timestamp`` file shaped
like MovieLens-1M: 6 040 users, 3 952 items, 1 000 209 lines, at least 20
ratings per user, long-tailed item popularity and the ML-1M rating mix.
Every item gets at least one rating above the positive threshold (3), so the
parsed catalog size L is exact.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ML1M_USERS = 6040
ML1M_ITEMS = 3952
ML1M_LINES = 1_000_209
ML1M_MIN_PER_USER = 20
# Share of ratings 1..5 in MovieLens-1M.
ML1M_RATING_SHARES = (0.056, 0.108, 0.261, 0.349, 0.226)
ML1M_TIME_RANGE = (956_703_932, 1_046_454_590)

_CHUNK_USERS = 256


@dataclass(frozen=True)
class InputFile:
    """A generated file with the facts a comparison needs to match."""

    path: Path
    lines: int
    sha256: str

    def record(self) -> dict:
        return {"file": self.path.name, "lines": self.lines, "sha256": self.sha256}


def describe(path: Path) -> InputFile:
    data = Path(path).read_bytes()
    return InputFile(Path(path), data.count(b"\n"), hashlib.sha256(data).hexdigest())


def _rng(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(purpose,)))


def _user_counts(rng, n_users: int, n_items: int, total: int, minimum: int) -> np.ndarray:
    """Long-tailed per-user activity with a floor, summing exactly to `total`."""
    raw = rng.lognormal(mean=0.0, sigma=1.1, size=n_users)
    extra = raw / raw.sum() * (total - minimum * n_users)
    counts = minimum + np.floor(extra).astype(np.int64)
    counts = np.minimum(counts, n_items)
    while counts.sum() < total:
        room = np.flatnonzero(counts < n_items)
        short = min(int(total - counts.sum()), room.size)
        counts[rng.choice(room, size=short, replace=False)] += 1
    return counts


def _sample_items(rng, counts: np.ndarray, weights: np.ndarray, forced: np.ndarray):
    """Distinct items per user by weighted Gumbel top-k; forced pairs always in.

    `forced[j]` is the user that must rate item j.  Returns per-record
    (user index, item index, forced flag) in user order.
    """
    n_users, n_items = counts.size, weights.size
    log_w = np.log(weights)
    users, items, flags = [], [], []
    for lo in range(0, n_users, _CHUNK_USERS):
        hi = min(lo + _CHUNK_USERS, n_users)
        keys = log_w + rng.gumbel(size=(hi - lo, n_items))
        in_chunk = np.flatnonzero((forced >= lo) & (forced < hi))
        keys[forced[in_chunk] - lo, in_chunk] = np.inf
        order = np.argsort(-keys, axis=1, kind="stable")
        for row in range(hi - lo):
            picked = order[row, : counts[lo + row]]
            users.append(np.full(picked.size, lo + row, dtype=np.int64))
            items.append(picked)
            flags.append(np.isinf(keys[row, picked]))
    return np.concatenate(users), np.concatenate(items), np.concatenate(flags)


def _ratings(rng, size: int, forced: np.ndarray) -> np.ndarray:
    ratings = rng.choice(np.arange(1, 6), size=size, p=ML1M_RATING_SHARES)
    # forced records guarantee a positive (> 3) rating for their item
    ratings[forced] = rng.integers(4, 6, size=int(forced.sum()))
    return ratings


def _forced_users(rng, n_items: int, counts: np.ndarray) -> np.ndarray:
    """One designated rater per item, never more per user than they rate."""
    slots = np.repeat(np.arange(counts.size), np.minimum(counts, 5))
    return rng.choice(slots, size=n_items, replace=False)


def _write_lines(path: Path, fmt: str, columns) -> InputFile:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(map(fmt.format, *(c.tolist() for c in columns))) + "\n")
    return describe(path)


def write_ml1m_like(out_dir: Path, seed: int) -> InputFile:
    """The ML-1M-shaped ``::`` ratings file; ids start at 1 as in ML-1M."""
    rng = _rng(seed, 1)
    counts = _user_counts(
        rng, ML1M_USERS, ML1M_ITEMS, ML1M_LINES, ML1M_MIN_PER_USER
    )
    popularity = 1.0 / np.arange(1, ML1M_ITEMS + 1) ** 0.9
    weights = rng.permutation(popularity) + 1e-3
    forced = _forced_users(rng, ML1M_ITEMS, counts)
    users, items, flags = _sample_items(rng, counts, weights, forced)
    ratings = _ratings(rng, users.size, flags)
    stamps = rng.integers(*ML1M_TIME_RANGE, size=users.size)
    return _write_lines(
        Path(out_dir) / "ratings.dat",
        "{}::{}::{}::{}",
        (users + 1, items + 1, ratings, stamps),
    )

