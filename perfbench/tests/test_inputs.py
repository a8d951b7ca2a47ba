"""Generator determinism and the shape of the generated inputs."""

import numpy as np
import pytest

import inputs


def read_ml1m(path):
    data = np.array(path.read_bytes().replace(b"::", b" ").split(), dtype=np.int64)
    return data.reshape(-1, 4).T


@pytest.fixture(scope="module")
def ml1m(tmp_path_factory):
    return inputs.write_ml1m_like(tmp_path_factory.mktemp("seed0"), 0)


def test_ml1m_is_deterministic_per_seed(ml1m, tmp_path):
    again = inputs.write_ml1m_like(tmp_path / "again", 0)
    other = inputs.write_ml1m_like(tmp_path / "other", 1)
    assert again.path.read_bytes() == ml1m.path.read_bytes()
    assert other.sha256 != ml1m.sha256


def test_ml1m_shape(ml1m):
    users, items, ratings, stamps = read_ml1m(ml1m.path)
    assert ml1m.lines == users.size == inputs.ML1M_LINES
    assert np.array_equal(np.unique(users), np.arange(1, inputs.ML1M_USERS + 1))
    assert np.bincount(users)[1:].min() >= inputs.ML1M_MIN_PER_USER
    assert set(np.unique(ratings)) == {1, 2, 3, 4, 5}
    pairs = users * (inputs.ML1M_ITEMS + 1) + items
    assert np.unique(pairs).size == users.size  # no duplicate (user, item)
    positive_items = np.unique(items[ratings > 3])
    assert np.array_equal(positive_items, np.arange(1, inputs.ML1M_ITEMS + 1))
    lo, hi = inputs.ML1M_TIME_RANGE
    assert lo <= stamps.min() and stamps.max() < hi
    # ML-1M keeps about 57% of its ratings above 3
    assert 0.5 < np.mean(ratings > 3) < 0.65

