"""Artifact writers."""

import numpy as np
import pytest

from seqevl.io import write_csv, write_json


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
