"""Self-describing CSV and JSON report emission shared by the CLI.

This is the one place where a run's numbers become text: the run bodies
hand over Python and numpy values as they are.  Every artifact embeds the
resolved run configuration and a format-version field.  CSV files start
with comment lines: a timestamp (the only nondeterministic byte in a
report) and the configuration echo; reruns with the same configuration and
seed produce byte-identical bodies.  Reports are encoded to text first and
written only as a complete set, so a run never leaves part of its artifacts
behind.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import NonFiniteReport

FORMAT_VERSION = "4"


def _config_echo(config: Mapping) -> str:
    return json.dumps(dict(config), sort_keys=True)


def _csv_text(name: str, columns: Sequence[str], rows: Iterable[Sequence], config: Mapping) -> str:
    """Encode a CSV report: timestamp comment, config echo, header, rows.

    Every float, a Python or a numpy one, is written as repr(float(v)), so
    the body is bit-faithful and reproducible.  An infinite or NaN value
    raises NonFiniteReport.
    """
    body = []
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (float, np.floating)):
                v = float(v)
                if not math.isfinite(v):
                    raise NonFiniteReport(f"{name}: non-finite value {v!r} in row {row!r}")
                v = repr(v)
            cells.append(v)
        body.append(cells)
    buf = io.StringIO()
    buf.write(f"# generated: {datetime.now(timezone.utc).isoformat()}\n")
    buf.write(f"# format_version: {FORMAT_VERSION}\n")
    buf.write(f"# config: {_config_echo(config)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(body)
    return buf.getvalue()


def _json_text(name: str, payload: Mapping, config: Mapping) -> str:
    """Encode a JSON report wrapping the payload with config and version.

    The document is strict JSON: an infinite or NaN value raises
    NonFiniteReport.
    """
    doc = {
        "format_version": FORMAT_VERSION,
        "config": dict(config),
        "result": _jsonable(payload),
    }
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NonFiniteReport(f"{name}: {exc}") from exc


def write_reports(out: Path | str, artifacts: Mapping[str, object], config: Mapping) -> None:
    """Write a run's reports into the directory out, all of them or none.

    artifacts maps each file name to its content: (columns, rows) for a
    name ending in .csv, a JSON payload otherwise.  Every report is encoded
    before the first file is opened, so one that fails to encode (a
    non-finite value) leaves no file behind.
    """
    texts = {
        name: _csv_text(name, *content, config) if name.endswith(".csv")
        else _json_text(name, content, config)
        for name, content in artifacts.items()
    }
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        with open(out / name, "w", newline="") as fh:
            fh.write(text)


def _jsonable(obj):
    """Recursively convert dataclass-ish values into plain JSON types."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, Mapping):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj
