"""The package namespace re-exports every public module name and error class."""

import ast
import dataclasses
import functools
import importlib
import inspect
import math
import os
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import degenwave
from degenwave import errors
from oracles import assert_same

SRC = Path(__file__).resolve().parent.parent / "src"

MODULES = [
    importlib.import_module(f"degenwave.{info.name}")
    for info in pkgutil.iter_modules(degenwave.__path__)
]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_module_all_is_reexported(module):
    missing = [n for n in module.__all__ if getattr(degenwave, n, None) is not getattr(module, n)]
    assert not missing


def test_error_classes_are_reexported():
    classes = [
        cls for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.DegenWaveError) and cls.__module__ == errors.__name__
    ]
    assert errors.DegenWaveError in classes
    assert [c.__name__ for c in classes if getattr(degenwave, c.__name__, None) is not c] == []


def test_every_reexport_resolves():
    public = [n for n in vars(degenwave) if not n.startswith("_")]
    for name in public:
        obj = getattr(degenwave, name)
        if inspect.ismodule(obj):
            continue
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name


#: public functions with no caller outside the test suite, each with the reason it stays
NO_CALLER_NEEDED = {
    "duhamel_forcing": "the only route to the forced equation phi_tt - Div(A grad phi) = f",
}


def names_read(node):
    """Every bare name and attribute name under an AST node."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def test_public_functions_have_callers_outside_tests():
    """A caller is another function of the package, a demo, the benchmark's
    workloads or the acceptance suite; dataclasses and error classes are exempt."""
    repo = SRC.parent
    used = set()
    for path in (SRC / "degenwave").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                used |= names_read(node) - {node.name}
    for path in [*(repo / "demos").glob("*.py"), repo / "perfbench" / "workloads.py",
                 repo / "tests" / "test_acceptance.py"]:
        used |= names_read(ast.parse(path.read_text()))
    public = {n for n, obj in vars(degenwave).items()
              if not n.startswith("_") and inspect.isfunction(obj)}
    assert sorted(public - used - set(NO_CALLER_NEEDED)) == []
    assert set(NO_CALLER_NEEDED) <= public - used


def test_private_functions_are_read_in_the_package():
    """Every module-level private function is read somewhere in the package
    outside its own body, so that a deletion cannot leave a helper behind."""
    defined, used = [], set()
    for path in sorted((SRC / "degenwave").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            names = names_read(node)
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                defined.append((path.stem, node.name))
                names -= {node.name}
            used |= names
    assert defined
    assert [f"{module}.{name}" for module, name in defined if name not in used] == []


#: module-level private names that only other modules of the package read,
#: each with the reason it lives where it does
READ_ONLY_ELSEWHERE = {
    "params._real": "an input gate, which every module calls",
    "params._whole": "an input gate, which every module calls",
    "waves._ensemble_ratios": "the ensemble's numeric core beside its trace Gramian; "
    "observability gates its size and seed and records its ratios",
}


def private_definitions(tree):
    """(name, defining node) of each module-level private function and constant."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_private_names_are_read_in_their_module():
    """A module-level private function or constant is read in the module that
    defines it, outside its own definition, so that each helper lives beside
    its reader."""
    unread, defined = [], set()
    for path in sorted((SRC / "degenwave").glob("*.py")):
        tree = ast.parse(path.read_text())
        for name, definition in private_definitions(tree):
            defined.add(f"{path.stem}.{name}")
            read = set().union(*(names_read(node) for node in tree.body if node is not definition))
            if name not in read:
                unread.append(f"{path.stem}.{name}")
    assert sorted(set(unread) - set(READ_ONLY_ELSEWHERE)) == []
    assert set(READ_ONLY_ELSEWHERE) <= defined


def test_public_names_are_the_modules_all_and_error_classes():
    """The package exports exactly the names its modules list in __all__ and
    the error classes, so that an import added to a module cannot leak in."""
    listed = {n for m in MODULES for n in getattr(m, "__all__", ())}
    classes = {
        n for n, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, errors.DegenWaveError)
    }
    public = {
        n for n, obj in vars(degenwave).items()
        if not n.startswith("_")
        and not (inspect.ismodule(obj) and obj.__name__.startswith("degenwave."))
    }
    assert public == listed | classes


def run_python(code, cwd=None):
    """Standard output of a fresh interpreter that runs code and exits 0."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=cwd
    )
    assert res.returncode == 0, res.stderr
    return res.stdout


def modules_after(code, *packages):
    """Names of the modules of the given top-level packages that a fresh
    interpreter holds after running code."""
    listing = f"[m for m in sys.modules if m.split('.')[0] in {packages}]"
    return ast.literal_eval(run_python(f"{code}\nimport sys\nprint({listing})").splitlines()[-1])


# No command loads any scipy module: the eigensolver binds LAPACK from the
# OpenBLAS that numpy links, and the Bessel modes evaluate J_nu themselves.
# scipy is a test oracle only.
@pytest.mark.parametrize("module", ["degenwave", "degenwave.cli"])
def test_import_loads_no_scipy(module):
    assert modules_after(f"import {module}", "scipy") == []


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["--help"], 0),
        (["validate-params", "--delta0", "0.01", "--beta", "0.005", "--t-horizon", "50"], 0),
        (["spectrum", "--n", "many"], 2),
        (["carleman-check", "--n-theta", "63", "--n-r", "16", "--n-t", "33"], 0),
    ],
    ids=["help", "validate-params", "config-error", "carleman-check"],
)
def test_cli_without_solve_loads_no_scipy(argv, exit_code, tmp_path):
    argv = [*argv, "--out", str(tmp_path)]
    code = (
        "from degenwave.cli import main\n"
        f"try:\n    code = main({argv!r})\nexcept SystemExit as exc:\n    code = exc.code\n"
        f"assert code == {exit_code}, code"
    )
    assert modules_after(code, "scipy") == []


def test_import_loads_no_thread_pool_or_logging():
    # concurrent.futures brings in logging, about 4 ms of every CLI run
    assert modules_after("import degenwave", "concurrent", "logging") == []


def test_eigensolve_loads_no_scipy():
    code = "from degenwave import solve_radial_basis\nsolve_radial_basis(0.5, N=64, k_max=4)"
    assert modules_after(code, "scipy") == []


SOLVING_ARGVS = pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--n", "256"],
        ["hardy", "--n", "512"],
        ["observability", "--mode", "ratio", "--n-max", "8", "--k-max", "8"],
        ["simulate", "--n", "256", "--n-max", "4", "--k-max", "4", "--samples", "50"],
        ["hardy", "--critical", "--n", "512", "--scan", "1e-1,1e-2"],
    ],
    ids=["spectrum", "hardy", "observability-ratio", "simulate", "hardy-critical"],
)


@SOLVING_ARGVS
def test_solving_cli_loads_no_scipy_linalg(argv, tmp_path):
    """Together with the runs above, every subcommand: none loads any scipy module."""
    code = f"from degenwave.cli import main\nassert main({[*argv, '--out', str(tmp_path)]!r}) == 0"
    assert modules_after(code, "scipy") == []


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc/self/maps")
@SOLVING_ARGVS
def test_solving_cli_maps_one_openblas(argv, tmp_path):
    """numpy and the solver share one OpenBLAS, so one BLAS thread pool."""
    code = (
        f"from degenwave.cli import main\nassert main({[*argv, '--out', str(tmp_path)]!r}) == 0\n"
        "import os\nwith open('/proc/self/maps') as maps:\n"
        "    paths = {line.split()[-1] for line in maps if len(line.split()) >= 6}\n"
        "print(sorted(p for p in paths if 'openblas' in os.path.basename(p).lower()))"
    )
    assert len(ast.literal_eval(run_python(code).splitlines()[-1])) == 1


#: a meta path finder that makes every scipy module unimportable
NO_SCIPY = (
    "import sys\n"
    "class NoScipy:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name.split('.')[0] == 'scipy':\n"
    "            raise ModuleNotFoundError(f'no scipy here: {name}', name=name)\n"
    "sys.meta_path.insert(0, NoScipy())\n"
    "try:\n    import scipy\nexcept ModuleNotFoundError:\n    pass\n"
    "else:\n    raise AssertionError('scipy imported')\n"
)


@pytest.mark.parametrize(
    "argv",
    [["spectrum", "--n", "256"], ["hardy", "--critical", "--n", "512", "--scan", "1e-1,1e-2"]],
    ids=["spectrum", "hardy-critical"],
)
def test_solving_cli_runs_without_scipy(argv, tmp_path):
    """The same reports with scipy unimportable as with it installed."""
    reports = []
    for prelude in (NO_SCIPY, ""):
        cwd = tmp_path / str(len(reports))
        cwd.mkdir()
        run_python(
            f"{prelude}from degenwave.cli import main\nassert main({[*argv, '--out', 'out']!r}) == 0",
            cwd=cwd,
        )
        files = sorted((cwd / "out").iterdir())
        assert files
        reports.append({
            f.name: [l for l in f.read_text().splitlines() if not l.startswith("# generated:")]
            for f in files
        })
    assert reports[0] == reports[1]


def test_solve_without_ilp64_openblas_is_import_error():
    """A numpy whose build record names another BLAS still imports the
    package; its first solve names what the solver needs."""
    code = (
        "import copy\nimport numpy\n"
        "record = copy.deepcopy(numpy.show_config(mode='dicts'))\n"
        "for part in ('blas', 'lapack'):\n"
        "    record['Build Dependencies'][part].update(name='mkl', version='2024.2')\n"
        "    record['Build Dependencies'][part].pop('openblas configuration', None)\n"
        "numpy.show_config = lambda mode='stdout': record\n"
        "import degenwave\n"
        "try:\n    degenwave.solve_radial_basis(0.5, N=64, k_max=4)\n"
        "except ImportError as exc:\n    print(exc)\n"
        "else:\n    raise AssertionError('solved without scipy-openblas')\n"
    )
    message = run_python(code).strip()
    assert "ILP64 scipy-openblas" in message and "numpy wheel" in message


def test_scipy_linalg_imports_after_a_solve():
    """A solve loads no scipy module; the package imported afterwards works,
    and the solver still does beside it."""
    code = (
        "import sys\nfrom degenwave import solve_radial_basis\n"
        "solve_radial_basis(0.5, N=64, k_max=4)\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "import scipy.linalg\nassert scipy.linalg.solveh_banded is not None\n"
        "solve_radial_basis(0.5, N=64, k_max=4)"
    )
    assert "scipy.linalg" in modules_after(code, "scipy")


def test_runtime_dependencies_name_no_scipy():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((SRC.parent / "pyproject.toml").read_text())["project"]
    assert not [d for d in project["dependencies"] if "scipy" in d.lower()]
    assert any(d.startswith("scipy") for d in project["optional-dependencies"]["test"])


def test_basis_bits_do_not_depend_on_scipy_linalg():
    """A basis solved after `import scipy.linalg` (whose own OpenBLAS is then
    loaded beside numpy's) is bitwise the one solved without the package."""
    solve = (
        "import hashlib\nfrom degenwave import solve_radial_basis\n"
        "b = solve_radial_basis(0.5, N=2048, g=2.0, k_max=100)\n"
        "print(hashlib.sha256(b.rho.tobytes() + b.R.tobytes() + b.flux.tobytes()).hexdigest())"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    digests = []
    for code in (solve, f"import scipy.linalg\n{solve}"):
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        digests.append(res.stdout.strip())
    assert digests[0] == digests[1]


def test_bessel_mode_loads_no_scipy():
    assert modules_after("from degenwave import bessel_mode\nbessel_mode(0.5, 1, 2)", "scipy") == []


def benchmark_calls():
    """(name, positional count, keywords, line) of every dw.<name>(...) call in
    the benchmark's workloads, read from the source without importing it."""
    path = SRC.parent / "perfbench" / "workloads.py"
    calls = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "dw"
        ):
            # a starred or ** argument has no count to bind; none is used today
            assert not any(isinstance(a, ast.Starred) for a in node.args), node.lineno
            assert all(k.arg is not None for k in node.keywords), node.lineno
            keywords = [k.arg for k in node.keywords]
            calls.append((node.func.attr, len(node.args), keywords, node.lineno))
    return calls


def test_benchmark_calls_bind_to_public_signatures():
    calls = benchmark_calls()
    assert len(calls) >= 20
    for name, n_args, keywords, line in calls:
        obj = getattr(degenwave, name, None)
        assert callable(obj), f"workloads.py:{line}: dw.{name} is not public"
        try:
            inspect.signature(obj).bind(*[None] * n_args, **dict.fromkeys(keywords))
        except TypeError as exc:
            pytest.fail(f"workloads.py:{line}: dw.{name}: {exc}")


def benchmark_cli_argvs():
    """The argv of every command in the benchmark's Cli.commands(), read from
    the source without importing it."""
    path = SRC.parent / "perfbench" / "workloads.py"
    tree = ast.parse(path.read_text())
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Cli")
    fn = next(n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "commands")
    lists = {a.targets[0].id: a.value.elts for a in fn.body if isinstance(a, ast.Assign)}
    table = next(n for n in fn.body if isinstance(n, ast.Return)).value

    def words(elts):
        for e in elts:
            if isinstance(e, ast.Starred):
                yield from words(lists[e.value.id])
            elif isinstance(e, ast.Constant):
                yield e.value
            else:  # a computed word: str(self.seed)
                yield "1"

    return [list(words(row.elts[1].elts)) for row in table.elts]


def test_benchmark_cli_commands_resolve():
    from degenwave import cli

    argvs = benchmark_cli_argvs()
    assert len(argvs) >= 10
    for argv in argvs:
        try:
            args = cli._build_parser().parse_args([*argv, "--out", "unused"])
        except SystemExit:
            pytest.fail(f"benchmark argv does not parse: {argv}")
        cfg = cli._resolve_config(args.command, args)
        _, keys = cli._RUNS[args.command, cli._mode(args.command, cfg)]
        assert set(cfg) == set(cli._COMMON) | set(keys)


def benchmark_residual_shapes():
    """The shapes the benchmark's carleman workload passes to conjugation_residual,
    from Carleman.BASE and LEVELS, read from the source without importing it."""
    path = SRC.parent / "perfbench" / "workloads.py"
    tree = ast.parse(path.read_text())
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Carleman")
    consts = {
        a.targets[0].id: ast.literal_eval(a.value) for a in cls.body if isinstance(a, ast.Assign)
    }
    return [tuple(c * 2**lvl for c in consts["BASE"]) for lvl in range(consts["LEVELS"])]


def test_benchmark_residual_grids_pass_the_grid_checks():
    """A grid check that rejected a benchmark grid would count as a failed operation."""
    from degenwave import carleman, cli

    shapes = benchmark_residual_shapes()
    assert len(shapes) == 3
    params = degenwave.validate_carleman_params(
        0.5, degenwave.DomainSpec(0.03), beta=0.0149, T=40.0, lam=0.5, s=2.0
    )
    for shape in shapes:
        carleman._residual_axes(params, shape, 0.1, params.T)
    argvs = [argv for argv in benchmark_cli_argvs() if argv[0] == "carleman-check"]
    assert argvs
    for argv in argvs:
        args = cli._build_parser().parse_args([*argv, "--out", "unused"])
        cfg = cli._resolve_config(args.command, args)
        params = degenwave.validate_carleman_params(
            cfg["alpha"], degenwave.DomainSpec(cfg["delta0"]), beta=cfg["beta"],
            T=cfg["t_horizon"], lam=cfg["lam"], s=cfg["s"],
        )
        shape = (cfg["n_theta"], cfg["n_r"], cfg["n_t"])
        carleman._residual_axes(params, shape, cfg["r_min"], params.T)


def benchmark_spectral_width():
    """Spectral.K, the k_max of the benchmark's wide bases, read from the
    source without importing it."""
    path = SRC.parent / "perfbench" / "workloads.py"
    tree = ast.parse(path.read_text())
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Spectral")
    for node in cls.body:
        if isinstance(node, ast.Assign):
            target = node.targets[0]
            names = [e.id for e in target.elts] if isinstance(target, ast.Tuple) else [target.id]
            if "K" in names:
                values = ast.literal_eval(node.value)
                return values[names.index("K")] if len(names) > 1 else values
    raise AssertionError("workloads.py: Spectral.K not found")


def test_benchmark_bases_span_bisection_chunks():
    """The spectral workload's wide bases keep exercising the split solver."""
    from degenwave import radial

    chunks = -(-benchmark_spectral_width() // radial._BISECT_CHUNK)
    assert chunks >= 2


# ---------------------------------------------------------------------------
# The public-input sweep: every count, time and real-number argument of every
# re-exported callable, fed values outside its contract
# ---------------------------------------------------------------------------


@functools.cache
def sweep_inputs():
    """Small valid inputs shared by the rows: a basis of N 64 and k 8, its
    pencil and rows, a 2 x 2 state, the canonical Carleman parameters and
    one Bessel mode."""
    basis = degenwave.solve_radial_basis(0.5, N=64, g=2.0, k_max=8)
    params = degenwave.validate_carleman_params(
        0.5, degenwave.DomainSpec(0.03), beta=0.0149, T=40.0, lam=0.5, s=2.0
    )
    return {
        "basis": basis,
        "state": degenwave.random_state(basis, 2, 2, 1),
        "params": params,
        "solution": degenwave.SmoothModalSolution(0.5, (degenwave.bessel_mode(0.5, 1, 1),)),
        "mats": basis.mats,
        "R": basis.R,
        "mesh": degenwave.build_graded_mesh(64, 3.0),
        "domain": degenwave.DomainSpec(0.01),
    }


def row(args=(), **baseline):
    """A row of SWEEP: the baseline keyword arguments, each a value or the
    name of a sweep_inputs() entry given as {"input": name}, and the swept
    arguments: a name, or (name, index) for one entry of a list or tuple."""
    return baseline, args


def shared(name):
    return {"input": name}


#: count, time and real-number arguments of every callable the package
#: re-exports; records of computed values list none
SWEEP = {
    # carleman
    "ComponentIntegrals": row(),
    "ConjugationReport": row(),
    "SmoothMode": row(("alpha", "n", "k", "a", "b"), alpha=0.5, n=1, k=1, a=1.0, b=0.3),
    "SmoothModalSolution": row(("alpha",), alpha=0.5, modes=(degenwave.bessel_mode(0.5, 1, 1),)),
    "bessel_mode": row(("alpha", "n", "k", "a", "b"), alpha=0.5, n=1, k=1, a=1.0, b=0.3),
    "build_weight_field": row(
        ("theta", "r", "t"), params=shared("params"), theta=np.linspace(0.1, 0.9, 3),
        r=np.linspace(0.2, 1.0, 3), t=np.linspace(0.0, 40.0, 3),
    ),
    "carleman_component_integrals": row(
        ("n_theta", "n_r", "n_t"),
        solution=shared("solution"), params=shared("params"), n_theta=8, n_r=8, n_t=40,
    ),
    "carleman_constant_scan": row(
        (("s_values", 0), "n_theta", "n_r", "n_t"),
        solution=shared("solution"), params=shared("params"), s_values=[2.0],
        n_theta=8, n_r=8, n_t=40,
    ),
    "conjugation_order_study": row(
        (("base_shape", 0), ("base_shape", 1), ("base_shape", 2), "levels", "r_min"),
        solution=shared("solution"), params=shared("params"), base_shape=(63, 8, 33),
        levels=2, r_min=0.1,
    ),
    "conjugation_residual": row(
        (("shape", 0), ("shape", 1), ("shape", 2), "r_min"),
        solution=shared("solution"), params=shared("params"), shape=(63, 8, 33), r_min=0.1,
    ),
    # hardy
    "BlowupFit": row(),
    "HardyReport": row(),
    "best_subcritical_constant": row(("alpha",), alpha=0.5, mesh=shared("mesh")),
    "blowup_rate_fit": row(
        (("deltas", 0), ("deltas", 3), "N"), deltas=[1e-1, 1e-2, 1e-3, 1e-4], N=64
    ),
    "critical_truncated_constant": row(("delta", "N"), delta=0.01, N=64),
    "exact_critical_constant": row(("delta",), delta=0.01),
    "subcritical_bound": row(("alpha",), alpha=0.5),
    # observability
    "EnsembleStats": row(),
    "ObservabilityRecord": row(),
    "ObstructionScan": row(),
    "default_beta": row(("delta0",), delta0=0.01),
    "default_horizon": row(("delta0",), delta0=0.01),
    "hidden_trace_stability": row(
        ("seed", "size", ("truncation", 0), ("truncation", 1), "T"),
        basis=shared("basis"), seed=7, size=2, truncation=(2, 2), T=44.0,
    ),
    "high_mode_obstruction_scan": row(
        (("n_values", 0), ("n_values", 3), "T"),
        n_values=[1, 2, 4, 8], T=44.0, domain=shared("domain"), basis=shared("basis"),
    ),
    "observability_ratio": row(("T",), state=shared("state"), domain=shared("domain"), T=44.0),
    # params; a CarlemanParams record checks every given field and derives
    # the rest from them
    "CarlemanParams": row(
        ("alpha", "delta0", "beta", "T", "lam", "s"),
        alpha=0.5, delta0=0.03, beta=0.0149, T=40.0, lam=0.5, s=2.0,
    ),
    "CutoffSpec": row(
        (("rise", 0), ("rise", 1), ("fall", 0), ("fall", 1)), rise=(0.1, 0.2), fall=(0.8, 0.9)
    ),
    "DegeneracyParams": row(("alpha",), alpha=0.5),
    "DomainSpec": row(("delta0",), delta0=0.01),
    "beta_upper_bound": row(("alpha", "delta0"), alpha=0.5, delta0=0.01),
    "eval_cutoff": row(("x",), spec=degenwave.theta_cutoff(0.01), x=0.025),
    "observation_time_threshold": row(("delta0", "beta"), delta0=0.01, beta=0.005),
    "theta_cutoff": row(("delta0",), delta0=0.01),
    "theta_strips": row(("delta0",), delta0=0.01),
    "time_cutoff": row(("epsilon", "T"), epsilon=0.7, T=40.0),
    "validate_carleman_params": row(
        ("alpha", "beta", "T", "lam", "s"),
        alpha=0.5, domain=degenwave.DomainSpec(0.03), beta=0.0149, T=40.0, lam=0.5, s=2.0,
    ),
    # radial; a pencil assembles its matrices and a basis derives its pairs
    # from the inputs they are given
    "RadialBasis": row(("R",), mats=shared("mats"), R=shared("R")),
    "RadialMesh": row(("nodes",), nodes=np.linspace(0.0, 1.0, 5)),
    "WeightedMatrices": row(
        ("p", "q"), mesh=shared("mesh"), p=0.5, q=0.0, bc="dirichlet-dirichlet"
    ),
    "assemble_weighted_system": row(
        ("p", "q"), mesh=shared("mesh"), p=0.5, q=0.0, bc="dirichlet-dirichlet"
    ),
    "bessel_radial_mode": row(("alpha", "k"), alpha=0.5, k=1),
    "build_graded_mesh": row(("N", "g"), N=64, g=2.0),
    "build_log_mesh": row(("N", "delta"), N=64, delta=0.01),
    "build_uniform_mesh": row(("N", "a", "b"), N=64, a=0.0, b=1.0),
    "elliptic_identity_residual": row(
        ("mu_n",), basis=shared("basis"), mu_n=2.0, coeffs=[1.0, 0.5]
    ),
    "refine_smallest_eigenpair": row(mats=shared("mats")),
    "solve_eigenpairs": row(("k_max",), mats=shared("mats"), k_max=4),
    "solve_radial_basis": row(("alpha", "N", "g", "k_max"), alpha=0.5, N=64, g=2.0, k_max=4),
    # waves
    "EnergyReport": row(),
    "ModalCoefficients": row(
        ("a", "b"), basis=shared("basis"), a=np.ones((2, 2)), b=np.ones((2, 2))
    ),
    "TraceReport": row(),
    "data_norms": row(state=shared("state")),
    "duhamel_forcing": row(
        ("dt", "t"), state=shared("state"), f_hat=np.ones((2, 2, 11)), dt=0.1, t=0.5
    ),
    "energy": row(state=shared("state")),
    "energy_series": row(("times",), state=shared("state"), times=np.linspace(0.0, 1.0, 5)),
    "evolve": row(("t",), state=shared("state"), t=1.0),
    "full_trace_norm_closed": row(("T",), state=shared("state"), T=44.0),
    "modal_state": row(
        ("n_max", "k_max"), basis=shared("basis"), n_max=2, k_max=2, amplitudes={(1, 1): 1.0}
    ),
    "observation_norms": row(("T", "delta0"), state=shared("state"), T=44.0, delta0=0.01),
    "project_initial_data": row(
        ("n_max", "k_max"), phi0={(1, 1): 1.0}, phi1=None, basis=shared("basis"), n_max=2, k_max=2
    ),
    "random_state": row(
        ("n_max", "k_max", "seed", "member"), basis=shared("basis"), n_max=2, k_max=2, seed=1,
        member=3,
    ),
}

#: values outside the contract of some argument, or at its edge
SWEEP_VALUES = [
    4.5, math.nan, math.inf, -math.inf, -1, 0, True, "3", np.array([0.5, 2.0]), np.array(0.5)
]

#: the swept arguments that take an array of numbers; every other swept
#: argument refuses both arrays of SWEEP_VALUES, a number argument because
#: it takes no array, ModalCoefficients a and b, RadialMesh nodes and
#: RadialBasis R because they take another shape
ARRAY_ARGUMENTS = {
    ("build_weight_field", "theta"), ("build_weight_field", "r"), ("build_weight_field", "t"),
    ("eval_cutoff", "x"), ("energy_series", "times"),
}


def public_callables():
    """Names of the re-exported callables other than error classes."""
    return sorted(
        n for n, obj in vars(degenwave).items()
        if not n.startswith("_") and callable(obj) and not inspect.ismodule(obj)
        and not (inspect.isclass(obj) and issubclass(obj, BaseException))
    )


def test_sweep_table_rows_every_public_callable():
    assert sorted(SWEEP) == public_callables()
    for name, (baseline, args) in SWEEP.items():
        params = inspect.signature(getattr(degenwave, name)).parameters
        takes_grid = any(p.kind is p.VAR_KEYWORD for p in params.values())
        for arg in args:
            key = arg if isinstance(arg, str) else arg[0]
            assert key in baseline, (name, key)
            assert key in params or takes_grid, (name, key)


def sweep_call(name, arg=None, value=None):
    """Call a row's callable on its baseline, with one swept argument set to value."""
    baseline, _ = SWEEP[name]
    inputs = sweep_inputs()
    kwargs = {
        k: inputs[v["input"]] if isinstance(v, dict) and "input" in v else v
        for k, v in baseline.items()
    }
    if isinstance(arg, str):
        kwargs[arg] = value
    elif arg is not None:
        key, index = arg
        entries = list(kwargs[key])
        entries[index] = value
        kwargs[key] = type(kwargs[key])(entries)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return getattr(degenwave, name)(**kwargs)


def non_finite(out, path="out"):
    """Paths of the non-finite numbers in a call's output: floats, arrays,
    and the fields of dataclasses, tuples, lists and mappings."""
    if isinstance(out, (bool, int, str, type(None))) or callable(out):
        return []
    if isinstance(out, (float, np.floating, np.ndarray)):
        return [] if np.all(np.isfinite(out)) else [path]
    if isinstance(out, degenwave.WeightedMatrices):
        # a constrained node's entries may diverge (r^q at r = 0); the
        # pencil is its dof window
        out = {k: getattr(out, k) for k in ("p", "q", "kd_dof", "ke_dof", "md_dof", "me_dof")}
    elif dataclasses.is_dataclass(out):
        out = {f.name: getattr(out, f.name) for f in dataclasses.fields(out)}
    if isinstance(out, dict):
        return [p for k, v in out.items() for p in non_finite(v, f"{path}.{k}")]
    if isinstance(out, (tuple, list)):
        return [p for i, v in enumerate(out) for p in non_finite(v, f"{path}[{i}]")]
    raise AssertionError(f"{path}: no finiteness rule for {type(out).__name__}")


@pytest.mark.parametrize("name", sorted(n for n, (baseline, _) in SWEEP.items() if baseline))
def test_sweep_baselines_are_valid(name):
    """Each row's baseline is a valid call, so that a refusal in the sweep is
    the swept value's doing."""
    assert non_finite(sweep_call(name)) == []


SWEPT = [(name, arg) for name, (_, args) in SWEEP.items() for arg in args]


@pytest.mark.parametrize("name, arg", SWEPT, ids=[f"{n}-{a}" for n, a in SWEPT])
@settings(max_examples=4 * len(SWEEP_VALUES), deadline=None, database=None)
@given(value=st.sampled_from(SWEEP_VALUES))
def test_public_input_sweep(name, arg, value):
    """A value outside an argument's contract is refused with a package error,
    or the call returns finite output; never a bare TypeError, ValueError or
    warning, and never a nan or an infinity in the output."""
    try:
        out = sweep_call(name, arg, value)
    except errors.DegenWaveError:
        return
    assert non_finite(out) == [], f"{name}({arg}={value!r})"


@pytest.mark.parametrize("name, arg", SWEPT, ids=[f"{n}-{a}" for n, a in SWEPT])
def test_number_arguments_refuse_arrays(name, arg):
    """An argument that means one number refuses a numpy array, a 0-d one
    included, with the error class its site raises for text; an argument
    in ARRAY_ARGUMENTS takes a 1-D array and returns finite output."""
    arrays = [v for v in SWEEP_VALUES if isinstance(v, np.ndarray)]
    if (name, arg) in ARRAY_ARGUMENTS:
        for value in (v for v in arrays if v.ndim == 1):
            assert non_finite(sweep_call(name, arg, value)) == []
        return
    with pytest.raises(errors.DegenWaveError) as text:
        sweep_call(name, arg, "3")
    for value in arrays:
        with pytest.raises(errors.DegenWaveError) as info:
            sweep_call(name, arg, value)
        assert type(info.value) is type(text.value), f"{name}({arg}={value!r})"


def test_array_arguments_are_swept():
    assert ARRAY_ARGUMENTS <= set(SWEPT)


# Number arguments that once took an array and returned a result built from
# it: evolve moved each radial column of a 2 x 2 state to its own time, and
# a weight record or a mode held an array s, a or b; and a modal solution,
# which compared an array alpha with its modes' alpha in a bare ValueError
ARRAY_AS_NUMBER = [
    ("evolve", "t", errors.GridMismatch),
    ("CarlemanParams", "s", errors.NonPositiveInput),
    ("validate_carleman_params", "s", errors.NonPositiveInput),
    ("SmoothMode", "a", errors.ParameterOutOfRange),
    ("SmoothMode", "b", errors.ParameterOutOfRange),
    ("bessel_mode", "a", errors.ParameterOutOfRange),
    ("bessel_mode", "b", errors.ParameterOutOfRange),
    ("default_beta", "delta0", errors.NonPositiveInput),
    ("SmoothModalSolution", "alpha", errors.ParameterOutOfRange),
]


@pytest.mark.parametrize(
    "name, arg, error", ARRAY_AS_NUMBER, ids=[f"{n}-{a}" for n, a, _ in ARRAY_AS_NUMBER]
)
def test_array_for_a_number_is_refused(name, arg, error):
    with pytest.raises(error, match=f"{arg} must be a real number"):
        sweep_call(name, arg, np.array([0.5, 2.0]))


# ---------------------------------------------------------------------------
# The sequence sweep: every public parameter annotated tuple[...] or
# Sequence[...], fed values that are not a sequence of its entries
# ---------------------------------------------------------------------------

#: per (callable, parameter) annotated as a tuple or a sequence, the number
#: of entries it must hold, or None where it takes any positive number; the
#: baseline of each is its SWEEP row's
SEQUENCE_ARGUMENTS = {
    ("CutoffSpec", "fall"): 2,
    ("CutoffSpec", "rise"): 2,
    ("SmoothModalSolution", "modes"): None,
    ("blowup_rate_fit", "deltas"): None,
    ("carleman_constant_scan", "s_values"): None,
    ("conjugation_order_study", "base_shape"): 3,
    ("conjugation_residual", "shape"): 3,
    ("elliptic_identity_residual", "coeffs"): None,
    ("hidden_trace_stability", "truncation"): 2,
    ("high_mode_obstruction_scan", "n_values"): None,
}


def sequence_parameters():
    """(callable, parameter) of each parameter of a public callable whose
    annotation, a string under `from __future__ import annotations`, is a
    tuple[...] or a Sequence[...]; records of computed values take none
    from callers."""
    return {
        (name, p.name)
        for name in public_callables() if name not in COMPUTED_RECORDS
        for p in inspect.signature(getattr(degenwave, name)).parameters.values()
        if isinstance(p.annotation, str) and p.annotation.startswith(("tuple[", "Sequence["))
    }


def test_every_sequence_parameter_has_a_row():
    assert sorted(SEQUENCE_ARGUMENTS) == sorted(sequence_parameters())
    for name, arg in SEQUENCE_ARGUMENTS:
        assert len(SWEEP[name][0][arg]) >= 1, (name, arg)


def not_sequences(baseline, size):
    """A number, a string and a nested list of the baseline's entries, and
    where the size is fixed one entry too few and one too many."""
    entries = list(baseline)
    values = [4.5, "abc", [[e] for e in entries]]
    if size is not None:
        values += [entries[:-1], [*entries, entries[-1]]]
    return values


@pytest.mark.parametrize(
    "name, arg", sorted(SEQUENCE_ARGUMENTS), ids=[f"{n}-{a}" for n, a in sorted(SEQUENCE_ARGUMENTS)]
)
def test_sequence_arguments_refuse_what_is_not_a_sequence_of_entries(name, arg):
    """A number, text, nested entries or a wrong count is refused with a
    package error: never run on some of its entries, and never a bare
    TypeError, ValueError or AttributeError."""
    accepted = []
    for value in not_sequences(SWEEP[name][0][arg], SEQUENCE_ARGUMENTS[name, arg]):
        try:
            sweep_call(name, arg, value)
        except errors.DegenWaveError:
            continue
        except Exception as exc:  # a bare error, reported with its value
            accepted.append(f"{value!r}: {type(exc).__name__}")
        else:
            accepted.append(f"{value!r}: ran")
    assert accepted == []


# ---------------------------------------------------------------------------
# The two input gates of params are the only argument checks
# ---------------------------------------------------------------------------


def is_inf(node):
    """math.inf, np.inf or numpy.inf, negated or not."""
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return (
        isinstance(node, ast.Attribute) and node.attr == "inf"
        and isinstance(node.value, ast.Name) and node.value.id in {"math", "np", "numpy"}
    )


def is_raw_array(node, arguments):
    """np.array or np.asarray of a list or tuple of the function's own arguments."""
    return (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in {"array", "asarray"} and node.args
        and isinstance(node.args[0], (ast.List, ast.Tuple))
        and all(isinstance(e, ast.Name) and e.id in arguments for e in node.args[0].elts)
    )


def converts_argument(node, arguments):
    """np.array or np.asarray of one of the arguments, or of a call of one."""
    if not (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in {"array", "asarray"}
        and isinstance(node.func.value, ast.Name) and node.func.value.id in {"np", "numpy"}
        and node.args
    ):
        return False
    value = node.args[0]
    if isinstance(value, ast.Call):
        value = value.func
    return isinstance(value, ast.Name) and value.id in arguments


def exported_names(tree):
    """The names listed in a module's __all__."""
    return {
        elt.value for node in tree.body if isinstance(node, ast.Assign)
        for t in node.targets if isinstance(t, ast.Name) and t.id == "__all__"
        for elt in node.value.elts
    }


def hand_rolled_checks(source):
    """(line, kind) of each argument check written outside the params gates:
    a comparison with inf, an integrality test, a comparison of an array of
    raw arguments, or a re-exported function's own conversion of an argument
    to an array (which takes numeric text as numbers and dies with numpy's
    bare ValueError on other text or a ragged list)."""
    tree = ast.parse(source)
    found = []
    exported = exported_names(tree)
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and fn.name in exported:
            a = fn.args
            arguments = {x.arg for x in [*a.posonlyargs, *a.args, *a.kwonlyargs]}
            found += [
                (node.lineno, "converts an argument to an array")
                for node in ast.walk(fn) if converts_argument(node, arguments)
            ]
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
            continue
        a = fn.args
        arguments = {x.arg for x in [*a.posonlyargs, *a.args, *a.kwonlyargs]}
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        raw = {
            t.id for node in body for sub in ast.walk(node)
            if isinstance(sub, ast.Assign) and is_raw_array(sub.value, arguments)
            for t in sub.targets if isinstance(t, ast.Name)
        }
        for node in (sub for stmt in body for sub in ast.walk(stmt)):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if any(is_inf(o) for o in operands):
                    found.append((node.lineno, "compares with inf"))
                if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops) and any(
                    isinstance(o, ast.Call) and isinstance(o.func, ast.Name) and o.func.id == "int"
                    for o in operands
                ):
                    found.append((node.lineno, "int(x) != x"))
                if any(
                    is_raw_array(o, arguments) or (isinstance(o, ast.Name) and o.id in raw)
                    for o in operands
                ):
                    found.append((node.lineno, "compares an array of raw arguments"))
            elif (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "is_integer"
            ):
                found.append((node.lineno, ".is_integer()"))
    return sorted(set(found))


@pytest.mark.parametrize(
    "source",
    [
        "def f(T):\n    if not 0.0 < T < math.inf:\n        raise E()\n",
        "def f(s_values):\n    bad = [s for s in s_values if not 0.0 < s < np.inf]\n",
        "def f(N):\n    if N < 2 or int(N) != N:\n        raise E()\n",
        "def f(n):\n    return float(n).is_integer()\n",
        "def f(beta, T):\n    raw = np.array([beta, T])\n    if not np.all(raw > 0.0):\n"
        "        raise E()\n",
        "def f(beta, T):\n    return np.all(np.asarray((beta, T)) > 0)\n",
        "__all__ = ['f']\ndef f(times):\n    return np.asarray(times, dtype=float)\n",
        "__all__ = ['f']\ndef f(field):\n    return np.array(field(0.5), dtype=float)\n",
    ],
    ids=[
        "inf-compare", "np-inf-compare", "int-compare", "is-integer", "raw-array", "raw-asarray",
        "exported-asarray", "exported-array-of-call",
    ],
)
def test_hand_rolled_check_detector_flags(source):
    assert hand_rolled_checks(source)


def test_hand_rolled_check_detector_passes_computed_checks():
    source = (
        "def f(mats, flux, x):\n"
        "    if not np.all(np.isfinite(flux)):\n        raise E()\n"
        "    scale = math.exp(x) if x < 700.0 else math.inf\n"
        "    return np.all(np.array([mats.p, mats.q]) > 0)\n"
        "def g(times):\n    return np.asarray(times, dtype=float)\n"
        "__all__ = ['h']\n"
        "def h(modes):\n    return np.array([m.flux for m in modes])\n"
    )
    assert hand_rolled_checks(source) == []


def test_argument_checks_live_in_params():
    """Only params tests an argument's finiteness, integrality or sign by hand,
    or converts a public function's argument to an array; every other module
    calls its gates, _whole, _real and _reals."""
    found = {
        path.name: hand_rolled_checks(path.read_text())
        for path in sorted((SRC / "degenwave").glob("*.py"))
        if path.name != "params.py"
    }
    assert {name: checks for name, checks in found.items() if checks} == {}


# ---------------------------------------------------------------------------
# Every public record keeps the inputs it is given and derives the rest, or
# holds computed values
# ---------------------------------------------------------------------------

#: records of computed values, which the package's functions fill in
COMPUTED_RECORDS = {
    "BlowupFit", "ComponentIntegrals", "ConjugationReport", "EnergyReport", "EnsembleStats",
    "HardyReport", "ObservabilityRecord", "ObstructionScan", "TraceReport",
}


@functools.cache
def input_records():
    """Per input record, a valid record and changes of its given fields to
    other valid values; fields that can only move together share a change."""
    inputs = sweep_inputs()
    basis, mats = inputs["basis"], inputs["mats"]
    mode = degenwave.bessel_mode
    return {
        "CarlemanParams": (inputs["params"], [
            {"alpha": 0.3}, {"delta0": 0.031}, {"beta": 0.01}, {"T": 50.0}, {"lam": 1.0},
            {"s": 3.0},
        ]),
        "CutoffSpec": (
            degenwave.theta_cutoff(0.01), [{"rise": (0.01, 0.05)}, {"fall": (0.9, 0.99)}]
        ),
        "DegeneracyParams": (degenwave.DegeneracyParams(0.5), [{"alpha": 0.3}]),
        "DomainSpec": (inputs["domain"], [{"delta0": 0.02}]),
        "ModalCoefficients": (inputs["state"], [
            {"basis": degenwave.solve_radial_basis(0.3, N=64, g=2.0, k_max=8)},
            {"a": np.full((2, 2), 0.5)}, {"b": np.full((2, 2), -0.5)},
        ]),
        "RadialBasis": (basis, [
            {"mats": degenwave.assemble_weighted_system(basis.mesh, 0.9, 0.0, mats.bc)},
            {"R": basis.R[:2].copy()},
        ]),
        "RadialMesh": (inputs["mesh"], [{"nodes": np.linspace(0.0, 1.0, 5)}]),
        "SmoothMode": (
            mode(0.5, 1, 1, b=0.3), [{"alpha": 0.3}, {"n": 2}, {"k": 2}, {"a": 0.5}, {"b": 0.1}]
        ),
        "SmoothModalSolution": (inputs["solution"], [
            {"modes": (mode(0.5, 2, 1), mode(0.5, 1, 2))},
            {"alpha": 0.3, "modes": (mode(0.3, 1, 1),)},
        ]),
        "WeightedMatrices": (mats, [
            {"mesh": degenwave.build_graded_mesh(32, 2.0)}, {"p": 0.9}, {"q": 1.0},
            {"bc": "dirichlet-left-only"},
        ]),
    }


INPUT_RECORDS = [
    "CarlemanParams", "CutoffSpec", "DegeneracyParams", "DomainSpec", "ModalCoefficients",
    "RadialBasis", "RadialMesh", "SmoothModalSolution", "SmoothMode", "WeightedMatrices",
]


def test_public_records_are_inputs_or_values():
    records = {
        n for n, obj in vars(degenwave).items()
        if not n.startswith("_") and inspect.isclass(obj) and dataclasses.is_dataclass(obj)
    }
    assert COMPUTED_RECORDS.isdisjoint(INPUT_RECORDS)
    assert records == COMPUTED_RECORDS | set(INPUT_RECORDS)
    assert sorted(input_records()) == INPUT_RECORDS


@pytest.mark.parametrize("name", INPUT_RECORDS)
def test_replaced_input_record_is_made_afresh(name):
    """Every field an input record takes is an input, and a record made by
    dataclasses.replace is the record made from its inputs: a field stored
    from its inputs instead of derived would keep another record's value."""
    record, changes = input_records()[name]
    cls = getattr(degenwave, name)
    inputs = set().union(*changes)
    assert type(record) is cls
    assert {f.name for f in dataclasses.fields(cls) if f.init} == inputs
    for change in changes:
        fresh = cls(**{**{k: getattr(record, k) for k in inputs}, **change})
        assert_same(dataclasses.replace(record, **change), fresh, f"{name}{sorted(change)}")
