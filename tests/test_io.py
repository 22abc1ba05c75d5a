"""Artifact writers and the checksummed disk cache."""

import numpy as np
import pytest

from seqevl.io import CacheCorruption, DiskCache, write_csv, write_json
from seqevl.mesh import graded_mesh, uniform_density


def test_write_csv_rfc4180(tmp_path):
    path = tmp_path / "out" / "table.csv"
    write_csv(path, ["a", "b"], [[1, 2.5], ["x,y", "plain"]])
    raw = path.read_bytes()
    assert raw == b'a,b\r\n1,2.5\r\n"x,y",plain\r\n'


def test_write_csv_byte_identical_reruns(tmp_path):
    rows = [[i, i * 0.1] for i in range(50)]
    write_csv(tmp_path / "one.csv", ["i", "v"], rows)
    write_csv(tmp_path / "two.csv", ["i", "v"], rows)
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()


def test_write_json_sorted_and_numpy_safe(tmp_path):
    path = tmp_path / "payload.json"
    write_json(path, {"b": np.float64(1.5), "a": np.bool_(True),
                      "c": np.arange(3), "d": np.int64(7)})
    text = path.read_text()
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    import json

    back = json.loads(text)
    assert back == {"a": True, "b": 1.5, "c": [0, 1, 2], "d": 7}


def test_write_json_rejects_unknown_types(tmp_path):
    with pytest.raises(TypeError):
        write_json(tmp_path / "bad.json", {"x": object()})


# -------------------------------------------------------------------- cache

def test_cache_trajectory_round_trip(tmp_path):
    cache = DiskCache(tmp_path / "cache")
    mesh = graded_mesh(64)
    f0 = uniform_density(mesh)
    alphas = np.full(5, 0.1)
    values = np.random.default_rng(3).random((6, 64))
    assert cache.load_trajectory(alphas, f0) is None
    cache.store_trajectory(alphas, f0, values)
    back = cache.load_trajectory(alphas, f0)
    np.testing.assert_array_equal(back, values)
    # key includes the alpha sequence
    assert cache.load_trajectory(np.full(5, 0.12), f0) is None


def test_cache_detects_checksum_mismatch(tmp_path):
    cache = DiskCache(tmp_path / "cache")
    mesh = graded_mesh(32)
    f0 = uniform_density(mesh)
    alphas = np.full(3, 0.1)
    cache.store_trajectory(alphas, f0, np.ones((4, 32)))
    (entry,) = list((tmp_path / "cache").glob("*.npz"))
    # rewrite the entry with a stale digest: same arrays, tampered checksum
    with np.load(entry) as data:
        arrays = {name: data[name] for name in data.files}
    arrays["__checksum__"] = arrays["__checksum__"].copy()
    arrays["__checksum__"][0] ^= 0xFF
    np.savez_compressed(entry, **arrays)
    with pytest.raises(CacheCorruption):
        cache.load_trajectory(alphas, f0)


def test_cache_detects_slab_damage(tmp_path):
    cache = DiskCache(tmp_path / "cache")
    mesh = graded_mesh(32)
    f0 = uniform_density(mesh)
    alphas = np.full(3, 0.1)
    cache.store_trajectory(alphas, f0, np.ones((4, 32)))
    (entry,) = list((tmp_path / "cache").glob("*.npz"))
    raw = bytearray(entry.read_bytes())
    mid = len(raw) // 2
    raw[mid:mid + 300] = bytes(300)  # stomp the payload
    entry.write_bytes(bytes(raw))
    with pytest.raises(CacheCorruption):
        cache.load_trajectory(alphas, f0)


def test_cache_clear(tmp_path):
    cache = DiskCache(tmp_path / "cache")
    mesh = graded_mesh(32)
    f0 = uniform_density(mesh)
    cache.store_trajectory(np.full(2, 0.1), f0, np.ones((3, 32)))
    assert list((tmp_path / "cache").glob("*.npz"))
    cache.clear()
    assert not list((tmp_path / "cache").glob("*.npz"))
    assert cache.load_trajectory(np.full(2, 0.1), f0) is None
