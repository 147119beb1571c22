import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from degenwave.carleman import SmoothModalSolution, bessel_mode, carleman_component_integrals
from degenwave.params import DomainSpec, validate_carleman_params
from degenwave.radial import solve_radial_basis
from ledger import BASIS_CASES, CARLEMAN_POINTS, DEMOS, AcceptanceLedger, run_demo


def pytest_addoption(parser):
    parser.addoption(
        "--acceptance-ledger",
        metavar="PATH",
        default=None,
        help="write each acceptance criterion's measured values and gates, the Carleman "
        "component integrals, the radial basis hashes and the demos' stdout to PATH as JSON",
    )


@pytest.fixture(scope="session")
def ledger(request, bessel_solution):
    """The acceptance ledger, written at the end of the session when a path
    is given, with the Carleman component integrals at CARLEMAN_POINTS, the
    hashes of the bases at BASIS_CASES and the stdout of every demo."""
    book = AcceptanceLedger()
    yield book
    path = request.config.getoption("--acceptance-ledger")
    if path:
        for lam, s in CARLEMAN_POINTS:
            params = validate_carleman_params(
                0.5, DomainSpec(0.03), beta=0.0149, T=40.0, lam=lam, s=s
            )
            book.record_carleman(carleman_component_integrals(bessel_solution, params))
        for alpha, N, k_max in BASIS_CASES:
            basis = solve_radial_basis(alpha, N=N, g=2.0, k_max=k_max)
            book.record_basis(alpha, N, k_max, basis)
        with tempfile.TemporaryDirectory() as cwd:
            for demo in DEMOS:
                res = run_demo(demo, cwd)
                assert res.returncode == 0, res.stderr
                book.record_demo(demo.stem, res.stdout)
        book.write(path)


@pytest.fixture(scope="session")
def basis05():
    """Default eigenbasis: alpha = 0.5, 2048 cells, grading 2, 16 pairs."""
    return solve_radial_basis(0.5, N=2048, g=2.0, k_max=16)


@pytest.fixture(scope="session")
def basis05_k64():
    """Wide eigenbasis for ensemble experiments."""
    return solve_radial_basis(0.5, N=2048, g=2.0, k_max=64)


@pytest.fixture(scope="session")
def domain001():
    return DomainSpec(0.01)


@pytest.fixture(scope="session")
def carleman_params():
    """Canonical residual-test parameters: epsilon capped at T/16."""
    return validate_carleman_params(
        0.5, DomainSpec(0.03), beta=0.0149, T=40.0, lam=0.5, s=2.0
    )


@pytest.fixture(scope="session")
def bessel_solution():
    """One exact mode with mixed position/velocity content."""
    return SmoothModalSolution(0.5, (bessel_mode(0.5, 1, 1, a=1.0, b=0.3),))
