"""The acceptance ledger: each criterion's measured values and gates as strict JSON.

`pytest tests/test_acceptance.py --acceptance-ledger PATH` writes one
object: under "criteria", per criterion (keyed "01" to "11") its measured
values by name and its gate bounds; under "carleman", every
`ComponentIntegrals` field on the default grid of the canonical weight at
each (lam, s) of CARLEMAN_POINTS; under "bases", the sha256 of the bytes
of `rho`, `R` and `flux` of the radial basis at each (alpha, N, k_max) of
BASIS_CASES (grading 2); under "demos", the stdout lines of each demo;
and under "timing_s" the wall times, the one field that differs
between two runs of one tree.  Floats are written by repr, so a
value reads back bit for bit; a non-finite float, which strict JSON cannot
hold, is written as the string of its repr ("nan", "inf", "-inf").

Compare two ledgers, say of a parent and a change:

    python tests/ledger.py PARENT.json CHANGE.json

prints every value that differs, with its relative difference, and each
value that is bitwise equal counts as equal; timing is left out.  The last
line sums the differences up: how many numbers differ and the largest of
their relative differences, and apart from them how many text values
(demo stdout lines, basis hashes, non-finite floats), keys, list lengths
or kinds of value, so a diff at roundoff reads as one at a glance.  The
exit code is 0 when the ledgers agree bit for bit, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

#: the one field that differs between two runs of one tree
TIMING = "timing_s"

#: (lam, s) at which the ledger holds the Carleman component integrals:
#: both sides of the admitted range, up to the offset 655 at (2, 6)
CARLEMAN_POINTS = ((0.5, 2.0), (1.0, 3.0), (1.0, 8.0), (2.0, 6.0), (0.5, 8.0))

#: (alpha, N, k_max) of the radial bases the ledger hashes, the cases at
#: which the solver is pinned bitwise to scipy's LAPACK capsules: one split
#: over several bisection chunks, one single chunk, one near alpha = 1
BASIS_CASES = ((0.3, 8192, 256), (0.5, 2048, 64), (0.99, 1024, 33))

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(demo: Path, cwd) -> subprocess.CompletedProcess:
    """One demo in a fresh interpreter that imports this tree's package."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(demo)], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )


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
    """Values and gates of the acceptance criteria, filled as they run, and
    the Carleman component integrals, basis hashes and demo outputs beside
    them."""

    def __init__(self):
        self.criteria = {}
        self.carleman = {}
        self.bases = {}
        self.demos = {}
        self.timing = {}

    def record(self, num: int, values: dict, gates: dict, timing: dict | None = None) -> None:
        key = f"{num:02d}"
        self.criteria[key] = {"values": _plain(values), "gates": _plain(gates)}
        if timing is not None:
            self.timing[key] = _plain(timing)

    def record_carleman(self, integrals) -> None:
        """Every field of one ComponentIntegrals, keyed by its lam and s."""
        key = f"lam {integrals.lam!r} s {integrals.s!r}"
        self.carleman[key] = _plain(dataclasses.asdict(integrals))

    def record_basis(self, alpha: float, N: int, k_max: int, basis) -> None:
        """The sha256 of the bytes of a basis's rho, R and flux, keyed by its case."""
        self.bases[f"alpha {alpha!r} N {N} k_max {k_max}"] = {
            name: hashlib.sha256(getattr(basis, name).tobytes()).hexdigest()
            for name in ("rho", "R", "flux")
        }

    def record_demo(self, name: str, stdout: str) -> None:
        self.demos[name] = stdout.splitlines()

    def write(self, path) -> None:
        book = {
            "criteria": self.criteria, "carleman": self.carleman, "bases": self.bases,
            "demos": self.demos, TIMING: self.timing,
        }
        with open(path, "w") as f:
            json.dump(book, f, allow_nan=False, indent=1, sort_keys=True)
            f.write("\n")


def differences(parent, change, where: str = "") -> list[tuple[str, float | None]]:
    """A line naming each value of two ledgers (loaded JSON) that is not bitwise
    equal, with the relative difference of two numbers and None for the rest."""
    if isinstance(parent, dict) and isinstance(change, dict):
        out = []
        for key in sorted(set(parent) | set(change)):
            if where == "" and key == TIMING:
                continue
            name = f"{where}.{key}" if where else key
            if key not in parent or key not in change:
                out.append((f"{name}: only in {'change' if key in change else 'parent'}", None))
            else:
                out.extend(differences(parent[key], change[key], name))
        return out
    if isinstance(parent, list) and isinstance(change, list):
        if len(parent) != len(change):
            return [(f"{where}: {len(parent)} entries against {len(change)}", None)]
        out = []
        for i, (p, c) in enumerate(zip(parent, change)):
            out.extend(differences(p, c, f"{where}[{i}]"))
        return out
    if type(parent) is type(change) and parent == change:
        return []
    if type(parent) is type(change) and type(parent) in (int, float):
        rel = abs(change - parent) / max(abs(parent), abs(change))
        return [(f"{where}: {parent!r} -> {change!r} (relative {rel:.2e})", rel)]
    return [(f"{where}: {parent!r} -> {change!r}", None)]


def summary(found: list[tuple[str, float | None]]) -> str:
    """One line on the differences `differences` found."""
    if not found:
        return "ledgers agree bit for bit"
    gaps = [rel for _, rel in found if rel is not None]
    largest = f", largest relative difference {max(gaps):.2e}" if gaps else ""
    return (
        f"{len(found)} values differ: {len(gaps)} numbers{largest}; "
        f"{len(found) - len(gaps)} text values, keys, lengths or kinds"
    )


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tests/ledger.py PARENT.json CHANGE.json", file=sys.stderr)
        return 2
    with open(args[0]) as f:
        parent = json.load(f)
    with open(args[1]) as f:
        change = json.load(f)
    found = differences(parent, change)
    for line, _ in found:
        print(line)
    print(summary(found))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
