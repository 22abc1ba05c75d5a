"""Artifact writers: CSV tables, JSON summaries and a run's config text.

CSV output follows RFC 4180 (CRLF rows, minimal quoting) and JSON output is
key-sorted, so identical runs produce byte-identical files.  Each artifact
is rendered in full, then written through `write_text`.
"""

from __future__ import annotations

import csv
import io
import json
import os
from pathlib import Path


def write_text(path, text: str) -> None:
    """Write text to `<name>.tmp` and move it over path, making the parent
    directories; a failed write leaves neither file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, header, rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    write_text(path, buf.getvalue())


def write_json(path, payload) -> None:
    write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


class DiskCache:
    """Two no-op hooks, kept only as the names `perfbench/tracing.py` spans
    (`io.cache_load` and `io.cache_store`); no run keeps anything on disk.
    A benchmark change that drops those spans deletes this class."""

    def load_trajectory(self, alphas, f0):
        return None

    def store_trajectory(self, alphas, f0, values):
        return None
