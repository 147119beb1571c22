"""Self-tests of the benchmark: python3 -m pytest perfbench

Each checker must reject a deliberately wrong value, the benchmark must
use only public names of degenwave, BENCHMARK.json must list the metrics
the benchmark prints, and a directory without the program's sources must
make the benchmark fail without a result.
"""

from __future__ import annotations

import ast
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_eigenvalue_off_by_one_percent_rejected():
    ks = (1, 2, 8, 64, 256)
    rho = np.zeros(256)
    for k in ks:
        rho[k - 1] = checks.bessel_eigenvalue_ref(0.5, k)
    checks.eigenvalues(0.5, 8192, 2.0, rho, ks)
    wrong = rho.copy()
    wrong[0] *= 1.01
    with pytest.raises(checks.CheckFailed):
        checks.eigenvalues(0.5, 8192, 2.0, wrong, ks)


def test_bessel_reference_is_the_classical_zero():
    # alpha = 0 gives nu = 1/2, j_{1/2,k} = k pi and rho_k = (k pi)^2
    assert checks.bessel_eigenvalue_ref(0.0, 3) == pytest.approx((3 * math.pi) ** 2, rel=1e-14)


def test_order_one_and_a_half_rejected():
    checks.residual_order([1.0, 0.25, 0.0625])
    with pytest.raises(checks.CheckFailed):
        checks.residual_order([1.0, 2.0**-1.5, 2.0**-3.0])
    with pytest.raises(checks.CheckFailed):
        checks.residual_order([1.0, 0.25, 0.5])


@pytest.mark.parametrize("token", ["Infinity", "-Infinity", "NaN"])
def test_json_with_nonfinite_constant_rejected(tmp_path, token):
    good = tmp_path / "good.json"
    good.write_text('{"format_version": "1", "x": 1.5}')
    assert checks.strict_json(good)["x"] == 1.5
    bad = tmp_path / "bad.json"
    bad.write_text('{"format_version": "1", "x": %s}' % token)
    with pytest.raises(checks.CheckFailed):
        checks.strict_json(bad)


def test_csv_with_nonfinite_cell_rejected(tmp_path):
    f = tmp_path / "a.csv"
    f.write_text("# comment\nk,rho\n1,2.5\n2,inf\n")
    with pytest.raises(checks.CheckFailed):
        checks.strict_csv(f)


def test_critical_constant_above_exact_rejected():
    exact = checks.critical_exact(0.01, "mixed")
    checks.critical_constant(0.01, "mixed", 8192, exact * (1 - 1e-8))
    with pytest.raises(checks.CheckFailed):
        checks.critical_constant(0.01, "mixed", 8192, exact * (1 + 1e-6))
    with pytest.raises(checks.CheckFailed):
        checks.critical_constant(0.01, "mixed", 8192, exact * 0.995)


def test_horizon_gate_and_slopes_rejected():
    with pytest.raises(checks.CheckFailed):
        checks.horizon_gate([(0.01, 0.004, True, False)])
    with pytest.raises(checks.CheckFailed):
        checks.blowup_slope(1.9)
    with pytest.raises(checks.CheckFailed):
        checks.obstruction(1.8, 2.0)
    with pytest.raises(checks.CheckFailed):
        checks.hidden_trace([1.0, 2.0], [1.0, 2.2], 0.1)
    with pytest.raises(checks.CheckFailed):
        checks.subcritical_constants(0.5, [10.0, 12.0, 11.0])


def test_trace_quadrature_against_closed_form():
    # one mode a cos(w t) + (b/w) sin(w t) with unit flux, n_max = k_max = 1
    a, b, w, T = 0.7, -0.4, 37.3, 44.0
    state = SimpleNamespace(
        basis=SimpleNamespace(flux=np.array([1.0])), n_max=1, k_max=1,
        a=np.array([[a]]), b=np.array([[b]]), omega=np.array([[w]]),
    )
    c, s = a, b / w
    exact = 0.5 * (
        c * c * (T / 2 + math.sin(2 * w * T) / (4 * w))
        + s * s * (T / 2 - math.sin(2 * w * T) / (4 * w))
        + c * s * (1 - math.cos(2 * w * T)) / (2 * w)
    )
    got = checks.full_trace_quadrature(state, T)
    assert abs(got - exact) <= 1e-12 * exact
    with pytest.raises(checks.CheckFailed):
        checks.full_trace(exact * (1 + 1e-6), got)


def test_nonfinite_components_named():
    ok = SimpleNamespace(lhs_gradient=1.0, lhs_zero_order=1.0, rhs_trace=1.0,
                         rhs_interior=1.0, rhs_commutator=1.0, chat=1.0)
    assert checks.nonfinite_components(ok) is None
    bad = SimpleNamespace(**{**vars(ok), "lhs_gradient": math.inf, "rhs_commutator": math.nan})
    assert checks.nonfinite_components(bad) == "lhs_gradient, rhs_commutator"


def private_uses(source: str) -> list[str]:
    """Uses of `_`-prefixed (non-dunder) names of degenwave in a source file."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    tree = ast.parse(source)
    aliases, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "degenwave":
                    found += [a.name] if any(map(private, parts)) else []
                    aliases.add(a.asname or parts[0])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "degenwave":
            parts = node.module.split(".")
            found += [node.module] if any(map(private, parts)) else []
            for a in node.names:
                found += [f"{node.module}.{a.name}"] if private(a.name) else []
                aliases.add(a.asname or a.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and private(node.attr):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in aliases:
                found.append(ast.unparse(node))
    return found


def test_guard_catches_private_names():
    assert private_uses("from degenwave.waves import _trace_closed_form") != []
    assert private_uses("import degenwave as dw\ndw.waves._auto_samples(1, 2, 3)") != []
    assert private_uses("from degenwave import hardy\nhardy._best_constant(m)") != []
    assert private_uses("import degenwave._private") != []
    assert private_uses("import degenwave as dw\ndw.solve_radial_basis(0.5)\ndw.__file__") == []


def test_benchmark_uses_only_public_names():
    for path in sorted(HERE.glob("*.py")):
        assert private_uses(path.read_text()) == [], path.name


def test_benchmark_json_lists_the_printed_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == ["spectral", "observe", "carleman", "cli"]
    assert [m["name"] for m in doc["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mb"]
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    listed = {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]}
    printed = {name: (unit, better) for name, (unit, better, _) in tracing.PER_LAYER.items()}
    printed[tracing.OVERHEAD] = ("s", "lower")
    assert listed == printed


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode != 0
    assert res.stdout.strip() == ""


def test_random_datum_rejects_wrong_frequencies_and_redraws():
    rho = np.array([2.0, 5.0])
    omega_sq = (np.arange(1, 3)[:, None] * math.pi) ** 2 + rho[None, :]
    a = np.array([[0.3, -0.1], [0.2, 0.05]])
    state = SimpleNamespace(a=a, b=a.copy(), omega_sq=omega_sq)
    leading = SimpleNamespace(a=a[:1, :1], b=a[:1, :1])
    checks.random_datum(state, 2, rho, leading=leading)
    with pytest.raises(checks.CheckFailed):
        checks.random_datum(SimpleNamespace(**{**vars(state), "omega_sq": omega_sq * 1.001}), 2, rho)
    with pytest.raises(checks.CheckFailed):
        checks.random_datum(state, 2, rho, leading=SimpleNamespace(a=-a[:1, :1], b=a[:1, :1]))
