"""Artifact writers."""

import numpy as np
import pytest

from seqevl import io
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


def test_write_json_sorted(tmp_path):
    path = tmp_path / "payload.json"
    write_json(path, {"b": 1.5, "a": True, "c": [0, 1, 2], "d": 7})
    text = path.read_text()
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    import json

    back = json.loads(text)
    assert back == {"a": True, "b": 1.5, "c": [0, 1, 2], "d": 7}


@pytest.mark.parametrize("value", [np.bool_(True), np.int64(7), np.arange(3)],
                         ids=["bool_", "int64", "ndarray"])
def test_write_json_refuses_numpy_values(value, tmp_path):
    # a run hands write_json plain Python values only; a numpy bool, integer
    # or array is a bug upstream, so it is refused rather than converted
    with pytest.raises(TypeError):
        write_json(tmp_path / "numpy.json", {"x": value})


def test_write_json_rejects_unknown_types(tmp_path):
    with pytest.raises(TypeError):
        write_json(tmp_path / "bad.json", {"x": object()})


def _refused_move(src, dst):
    raise OSError("disk full")


def _rows_then_fault():
    yield [1]
    raise ValueError("a row cannot be computed")


@pytest.mark.parametrize("write,args,fault", [
    (write_csv, (["a"], _rows_then_fault()), None),
    (write_csv, (["a"], [[1]]), _refused_move),
    (write_json, ({"x": object()},), None),
    (write_json, ({"x": 1},), _refused_move),
], ids=["csv-row", "csv-move", "json-render", "json-move"])
def test_failed_write_leaves_no_file(write, args, fault, tmp_path, monkeypatch):
    # a payload that cannot be rendered, or a move that fails after the
    # temporary was written: neither <name> nor <name>.tmp may remain
    if fault is not None:
        monkeypatch.setattr(io.os, "replace", fault)
    path = tmp_path / "out" / "artifact"
    with pytest.raises((OSError, TypeError, ValueError)):
        write(path, *args)
    assert not path.exists() and not path.with_name("artifact.tmp").exists()
