"""The package namespace re-exports every public module name and error class."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import degenwave
from degenwave import errors

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
