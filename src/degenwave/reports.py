"""Self-describing CSV and JSON report emission shared by the CLI.

Every artifact embeds the resolved run configuration and a format-version
field.  CSV files start with comment lines: a timestamp (the only
nondeterministic byte in a report) and the configuration echo; reruns with
the same configuration and seed produce byte-identical bodies.
"""

from __future__ import annotations

import csv
import json
import math
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import NonFiniteReport

FORMAT_VERSION = "2"


def _config_echo(config: Mapping) -> str:
    return json.dumps(dict(config), sort_keys=True)


def write_csv(
    path: Path | str,
    columns: Sequence[str],
    rows: Iterable[Sequence],
    config: Mapping,
) -> Path:
    """Write a CSV report: timestamp comment, config echo, header, rows.

    Floats are serialized with repr so the body is bit-faithful and
    reproducible.  Every row is checked before the file is opened, so an
    infinite or NaN value raises NonFiniteReport and leaves no file behind.
    """
    path = Path(path)
    body = []
    for row in rows:
        for v in row:
            if isinstance(v, float) and not math.isfinite(v):
                raise NonFiniteReport(f"{path.name}: non-finite value {v!r} in row {row!r}")
        body.append([repr(v) if isinstance(v, float) else v for v in row])
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(f"# generated: {datetime.now(timezone.utc).isoformat()}\n")
        fh.write(f"# format_version: {FORMAT_VERSION}\n")
        fh.write(f"# config: {_config_echo(config)}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(body)
    return path


def write_json(path: Path | str, payload: Mapping, config: Mapping) -> Path:
    """Write a JSON report wrapping the payload with config and version.

    The document is encoded as strict JSON before the file is opened, so an
    infinite value raises NonFiniteReport and leaves no file behind.
    """
    path = Path(path)
    doc = {
        "format_version": FORMAT_VERSION,
        "config": dict(config),
        "result": _jsonable(payload),
    }
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteReport(f"{path.name}: {exc}") from exc
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")
    return path


def _jsonable(obj):
    """Recursively convert dataclass-ish values into plain JSON types."""
    import dataclasses

    import numpy as np

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
    if isinstance(obj, float) and obj != obj:  # NaN
        return None
    return obj
