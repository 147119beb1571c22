"""The acceptance ledger: each criterion's measured values and gates as strict JSON.

`pytest tests/test_acceptance.py --acceptance-ledger PATH` writes one
object: per criterion (keyed "01" to "11") its measured values by name and
its gate bounds, and under "timing_s" the wall times, the one field that
differs between two runs of one tree.  Floats are written by repr, so a
value reads back bit for bit; a non-finite float, which strict JSON cannot
hold, is written as the string of its repr ("nan", "inf", "-inf").

Compare two ledgers, say of a parent and a change:

    python tests/ledger.py PARENT.json CHANGE.json

prints every value that differs, with its relative difference, and each
value that is bitwise equal counts as equal; timing is left out.  The exit
code is 0 when the ledgers agree bit for bit, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

#: the one field that differs between two runs of one tree
TIMING = "timing_s"


def _plain(value):
    """value as JSON-ready Python data: numpy scalars and arrays become
    floats, ints and lists, and a non-finite float its repr."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_plain(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    value = float(value)
    return value if math.isfinite(value) else repr(value)


class AcceptanceLedger:
    """Values and gates of the acceptance criteria, filled as they run."""

    def __init__(self):
        self.criteria = {}
        self.timing = {}

    def record(self, num: int, values: dict, gates: dict, timing: dict | None = None) -> None:
        key = f"{num:02d}"
        self.criteria[key] = {"values": _plain(values), "gates": _plain(gates)}
        if timing is not None:
            self.timing[key] = _plain(timing)

    def write(self, path) -> None:
        book = {"criteria": self.criteria, TIMING: self.timing}
        with open(path, "w") as f:
            json.dump(book, f, allow_nan=False, indent=1, sort_keys=True)
            f.write("\n")


def differences(parent, change, where: str = "") -> list[str]:
    """Lines naming each value of two ledgers (loaded JSON) that is not bitwise equal."""
    if isinstance(parent, dict) and isinstance(change, dict):
        out = []
        for key in sorted(set(parent) | set(change)):
            if where == "" and key == TIMING:
                continue
            name = f"{where}.{key}" if where else key
            if key not in parent or key not in change:
                out.append(f"{name}: only in {'change' if key in change else 'parent'}")
            else:
                out.extend(differences(parent[key], change[key], name))
        return out
    if isinstance(parent, list) and isinstance(change, list):
        if len(parent) != len(change):
            return [f"{where}: {len(parent)} entries against {len(change)}"]
        out = []
        for i, (p, c) in enumerate(zip(parent, change)):
            out.extend(differences(p, c, f"{where}[{i}]"))
        return out
    if type(parent) is type(change) and parent == change:
        return []
    if isinstance(parent, float) and isinstance(change, float):
        rel = abs(change - parent) / max(abs(parent), abs(change))
        return [f"{where}: {parent!r} -> {change!r} (relative {rel:.2e})"]
    return [f"{where}: {parent!r} -> {change!r}"]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tests/ledger.py PARENT.json CHANGE.json", file=sys.stderr)
        return 2
    with open(args[0]) as f:
        parent = json.load(f)
    with open(args[1]) as f:
        change = json.load(f)
    lines = differences(parent, change)
    for line in lines:
        print(line)
    print("ledgers agree bit for bit" if not lines else f"{len(lines)} values differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
