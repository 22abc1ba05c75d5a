"""CSV/JSON artifact writers.

CSV output follows RFC 4180 (CRLF rows, minimal quoting) and JSON output is
key-sorted, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import os
from pathlib import Path


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


def write_json(path, payload) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


class DiskCache:
    """Two no-op hooks, kept only as the names `perfbench/tracing.py` spans
    (`io.cache_load` and `io.cache_store`); no run keeps anything on disk.
    A benchmark change that drops those spans deletes this class."""

    def load_trajectory(self, alphas, f0):
        return None

    def store_trajectory(self, alphas, f0, values):
        return None
