"""CSV/JSON artifact writers and a checksummed on-disk cache.

CSV output follows RFC 4180 (CRLF rows, minimal quoting) and JSON output is
key-sorted, so identical runs produce byte-identical files.  Cached arrays
carry a SHA-256 digest; a digest mismatch on load raises CacheCorruption
rather than silently reusing damaged data.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .mesh import Density


def write_csv(path, header, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(list(header))
        for row in rows:
            writer.writerow(list(row))
    os.replace(tmp, path)


def _json_default(value):
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def write_json(path, payload) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    os.replace(tmp, path)


class CacheCorruption(RuntimeError):
    """A cached artifact failed its checksum."""


def _digest(arrays: dict) -> bytes:
    h = hashlib.sha256()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.digest()


@dataclass(frozen=True)
class DiskCache:
    """Content-addressed npz store for density ladders.

    Keys hash every input that determines the ladder (parameter sequence,
    mesh fingerprint, initial density values), so a stale entry can only be
    returned if the inputs are themselves identical.
    """

    root: Path

    def __post_init__(self):
        object.__setattr__(self, "root", Path(self.root))
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, *parts: bytes) -> Path:
        h = hashlib.sha256()
        for p in parts:
            h.update(len(p).to_bytes(8, "little"))
            h.update(p)
        return self.root / (h.hexdigest() + ".npz")

    def _store(self, path: Path, arrays: dict) -> None:
        payload = dict(arrays)
        payload["__checksum__"] = np.frombuffer(_digest(arrays), dtype=np.uint8)
        tmp = path.with_name(path.name + ".tmp.npz")  # savez appends .npz otherwise
        np.savez(tmp, **payload)
        os.replace(tmp, path)

    def _load(self, path: Path) -> dict | None:
        if not path.exists():
            return None
        try:
            with np.load(path) as data:
                arrays = {name: data[name] for name in data.files}
        except Exception as exc:  # zip or .npy damage surfaces as varied types
            raise CacheCorruption(f"unreadable cache entry {path}: {exc}") from exc
        stored = arrays.pop("__checksum__", None)
        if stored is None or bytes(stored.tobytes()) != _digest(arrays):
            raise CacheCorruption(f"checksum mismatch in {path}")
        return arrays

    # trajectory entries: the full density ladder of a push_density call

    def _trajectory_path(self, alphas: np.ndarray, f0: Density) -> Path:
        return self._path(b"trajectory",
                          np.asarray(alphas, dtype=float).tobytes(),
                          f0.mesh.fingerprint(),
                          np.asarray(f0.values, dtype=float).tobytes())

    def load_trajectory(self, alphas, f0: Density):
        arrays = self._load(self._trajectory_path(alphas, f0))
        return None if arrays is None else arrays["values"]

    def store_trajectory(self, alphas, f0: Density, values) -> None:
        self._store(self._trajectory_path(alphas, f0),
                    {"values": np.asarray(values, dtype=float)})

    def clear(self) -> None:
        for entry in self.root.glob("*.npz"):
            entry.unlink()
