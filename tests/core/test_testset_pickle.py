"""A ``Testset`` pickles its default features column as ``None``.

The default ``features = np.arange(len(labels))`` is re-derived on load,
so snapshots stop carrying it; any other column — another dtype, other
values — round-trips byte for byte, and pickles that do carry the
column (written before the elision) still load.
"""

import pickle

import numpy as np
import pytest

from repro.core.testset import Testset

SIZE = 4096


def labels():
    return np.random.default_rng(0).integers(0, 2, size=SIZE)


def roundtrip(testset):
    return pickle.loads(pickle.dumps(testset, protocol=pickle.HIGHEST_PROTOCOL))


def test_default_features_are_not_written():
    default = Testset(labels=labels(), name="gen")
    explicit = Testset(labels=labels(), features=np.arange(SIZE) + 1, name="gen")
    data = pickle.dumps(default, protocol=pickle.HIGHEST_PROTOCOL)
    column = np.arange(SIZE).nbytes
    assert len(pickle.dumps(explicit, protocol=pickle.HIGHEST_PROTOCOL)) - len(data) > 0.9 * column
    assert len(data) < default.labels.nbytes + 0.1 * column
    restored = pickle.loads(data)
    assert restored.features.dtype == np.arange(SIZE).dtype
    assert np.array_equal(restored.features, np.arange(SIZE))
    assert restored.labels.tobytes() == default.labels.tobytes()
    assert restored.name == default.name
    # Pickling does not touch the live object.
    assert default.features is not None


@pytest.mark.parametrize(
    "features",
    [
        np.arange(SIZE, dtype=np.int32),
        np.arange(SIZE, dtype=np.int64)[::-1].copy(),
        np.arange(SIZE, dtype=np.float64),
        np.random.default_rng(1).normal(size=(SIZE, 3)),
    ],
    ids=["int32-arange", "reversed", "float-arange", "matrix"],
)
def test_custom_features_roundtrip_exactly(features):
    testset = Testset(labels=labels(), features=features)
    restored = roundtrip(testset)
    assert restored.features.dtype == features.dtype
    assert restored.features.shape == features.shape
    assert restored.features.tobytes() == features.tobytes()


def test_a_pickle_that_carries_features_loads(monkeypatch):
    testset = Testset(labels=labels(), name="old")
    # Without __getstate__ the class pickles its whole __dict__, column
    # included, as builds before the elision did.
    monkeypatch.delattr(Testset, "__getstate__")
    legacy = pickle.dumps(testset, protocol=pickle.HIGHEST_PROTOCOL)
    monkeypatch.undo()
    assert len(legacy) > testset.labels.nbytes + np.arange(SIZE).nbytes
    restored = pickle.loads(legacy)
    assert restored.features.tobytes() == np.arange(SIZE).tobytes()
    assert restored.labels.tobytes() == testset.labels.tobytes()
    assert restored.name == "old"


def test_empty_testset_roundtrips():
    restored = roundtrip(Testset(labels=np.array([], dtype=np.int64)))
    assert len(restored) == 0 and restored.features.shape == (0,)
