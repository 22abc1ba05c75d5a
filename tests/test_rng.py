"""`seqevl._rng.uniforms` draws, double for double, what numpy's own
Philox generator draws under the same key, at every cut of the stream."""

import numpy as np
import pytest

from seqevl import _rng
from seqevl._rng import philox_key, uniforms
from seqevl.maps import ParameterSchedule
from reference import philox_draw

# numpy scalars warn on uint64 overflow; the kernel must raise none
pytestmark = pytest.mark.filterwarnings("error")

CUTS = [(0, 0), (0, 1), (0, 3), (0, 5), (1, 5), (2, 3), (3, 1), (5, 0), (6, 7), (13, 101)]


@pytest.mark.parametrize("key", [0, 1, 2**64 - 1, 2**64, 2**128 - 1, philox_key(3, "x0", "pn")],
                         ids=["0", "1", "2^64-1", "2^64", "2^128-1", "digest"])
def test_uniforms_equal_numpy_philox_at_every_cut(key, monkeypatch):
    whole = np.random.Generator(np.random.Philox(key=key)).random(120)
    monkeypatch.setattr(_rng, "philox_key", lambda seed, *labels: key)
    for start, count in CUTS:
        got = uniforms(0, (), start, count)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, whole[start:start + count], err_msg=str((start, count)))


def test_consecutive_chunks_equal_one_library_draw():
    size = 16384
    whole = philox_draw(5, ("x0", "pn"), 3 * size)
    parts = [uniforms(5, ("x0", "pn"), lo, size) for lo in range(0, 3 * size, size)]
    np.testing.assert_array_equal(np.concatenate(parts), whole)


def test_iid_schedule_draws_the_library_stream():
    s = ParameterSchedule(mode="iid", lo=0.01, hi=0.14, seed=7)
    expected = 0.01 + (0.14 - 0.01) * philox_draw(7, ("schedule", "iid-alphas"), 600)
    np.testing.assert_array_equal(s.alphas(600), expected)
