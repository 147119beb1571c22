"""Degenerate radial Sturm-Liouville eigenproblems by weighted P1 finite elements.

Discretizes -d/dr(r^p dR/dr) = rho * r^q * R on an interval with Dirichlet
conditions imposed strongly at either end.  Element integrals of power
weights are evaluated in closed form, so the only discretization errors are
interpolation and mass lumping.  The generalized pencil is lumped to a
symmetric tridiagonal standard problem T and its smallest eigenpairs, one
`RadialBasis` of stacked arrays for any pencil, are computed in three
LAPACK/BLAS stages: Sturm-sequence bisection for the eigenvalues (dstebz,
one call per fixed chunk of 64 indices), inverse iteration once per
eigenvalue (dstein), and a single Cholesky QR orthonormalization of the
whole block in the lumped inner product.  The last two write into the dof
columns of the basis array itself, so a solve holds one array of the
basis's size, not two.  Inverse iteration runs per
eigenvalue because dstein re-orthogonalizes against every neighbour within
1e-3 ||T||_1, and the near-origin diagonal of graded meshes inflates ||T||
so far that the whole low spectrum would count as one cluster.

The bisection chunks, and then the dstein calls, are dealt round-robin to
one thread per CPU the process may use.  Every LAPACK and BLAS routine here
is the Fortran symbol of the OpenBLAS that numpy itself links (the ILP64
scipy-openblas of numpy's wheels), bound with ctypes, which releases the
GIL for the call; so one BLAS and one thread pool serve numpy and the
solver alike, and no scipy module is loaded.  The chunks follow from the
request alone and each call writes its own slots, so the basis is bitwise
the same for any number of threads, and a request of at most 64 pairs is a
single bisection call.

The weighted stiffness integral r^alpha |R'|^2 and the weighted masses with
exponents alpha, alpha - 2, 1, -1 are exactly the bilinear forms behind the
separated structure of the degenerate wave operator and behind the
Hardy-Poincare quotients; closed-form Bessel eigenfunctions are provided as
an independent cross-check route.  They need J_{nu-1}, J_nu and J_{nu+1}
for one order 0 < nu < 1/2 only, which this module evaluates itself (the
ascending series, Miller's backward recurrence and Hankel's expansion),
so the closed forms load no scipy module.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._threads import deal
from .errors import (
    ConvergenceFailure,
    DivergentWeight,
    InvalidMeshSpec,
    ParameterOutOfRange,
)
from .params import DegeneracyParams, _real, _reals, _whole

__all__ = [
    "RadialMesh",
    "WeightedMatrices",
    "RadialBasis",
    "build_graded_mesh",
    "build_log_mesh",
    "build_uniform_mesh",
    "assemble_weighted_system",
    "solve_eigenpairs",
    "refine_smallest_eigenpair",
    "solve_radial_basis",
    "elliptic_identity_residual",
    "bessel_radial_mode",
]


@dataclass(frozen=True)
class RadialMesh:
    """Strictly increasing node vector of a 1D piecewise-linear mesh."""

    nodes: np.ndarray
    grading: float = 1.0

    def __post_init__(self) -> None:
        nodes = _reals(self.nodes, "mesh nodes", InvalidMeshSpec)
        if nodes.ndim != 1 or nodes.size < 3:
            raise InvalidMeshSpec("mesh needs at least 2 cells")
        if np.any(np.diff(nodes) <= 0.0):
            raise InvalidMeshSpec("mesh nodes must be strictly increasing")
        nodes.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)

    @property
    def n_cells(self) -> int:
        return self.nodes.size - 1


def build_graded_mesh(N: int, g: float) -> RadialMesh:
    """Mesh on [0, 1] with nodes (j/N)^g; g = 1 is uniform, g > 1 crowds r = 0."""
    N = _whole(N, "cell count N", InvalidMeshSpec, minimum=2)
    _real(g, "grading exponent g", InvalidMeshSpec, least=1)
    return RadialMesh((np.arange(N + 1) / N) ** g, grading=float(g))


def build_log_mesh(N: int, delta: float) -> RadialMesh:
    """Geometric mesh on [delta, 1], uniform in ln r (for truncated problems)."""
    N = _whole(N, "cell count N", InvalidMeshSpec, minimum=2)
    _real(delta, "delta", InvalidMeshSpec, above=0, below=1)
    return RadialMesh(np.exp(np.linspace(math.log(delta), 0.0, N + 1)))


def build_uniform_mesh(N: int, a: float = 0.0, b: float = 1.0) -> RadialMesh:
    """Uniform mesh with N cells on [a, b]."""
    N = _whole(N, "cell count N", InvalidMeshSpec, minimum=2)
    _real(b, "b", InvalidMeshSpec, above=_real(a, "a", InvalidMeshSpec))
    return RadialMesh(np.linspace(a, b, N + 1))


def power_integral(a: np.ndarray, b: np.ndarray, m: float) -> np.ndarray:
    """Exact integral of r^m over [a, b]; +inf where it diverges at a = 0."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(divide="ignore"):
        if m == -1.0:
            out = np.log(b) - np.where(a > 0.0, np.log(a), -np.inf)
        else:
            e = m + 1.0
            pa = np.where(a > 0.0, a**e, np.where(e > 0.0, 0.0, np.inf))
            out = (b**e - pa) / e
    return out


_LEFT_DIRICHLET = {"dirichlet-dirichlet", "dirichlet-left-only"}
_RIGHT_DIRICHLET = {"dirichlet-dirichlet", "dirichlet-right-only"}
_BC_KINDS = _LEFT_DIRICHLET | _RIGHT_DIRICHLET


@dataclass(frozen=True)
class WeightedMatrices:
    """Assembled tridiagonal stiffness/mass pair for one weighted pencil.

    Full-mesh symmetric tridiagonals are kept (diagonal kd/md, off-diagonal
    ke/me) together with the constrained dof window [i0, i1); `lumped` holds
    the row sums of the full mass rows restricted to that window, i.e. the
    discrete mass inner product used by the eigensolver.
    """

    mesh: RadialMesh
    p: float
    q: float
    bc: str
    kd: np.ndarray
    ke: np.ndarray
    md: np.ndarray
    me: np.ndarray
    i0: int
    i1: int

    @property
    def n_dof(self) -> int:
        return self.i1 - self.i0

    @property
    def kd_dof(self) -> np.ndarray:
        return self.kd[self.i0 : self.i1]

    @property
    def ke_dof(self) -> np.ndarray:
        return self.ke[self.i0 : self.i1 - 1]

    @property
    def md_dof(self) -> np.ndarray:
        return self.md[self.i0 : self.i1]

    @property
    def me_dof(self) -> np.ndarray:
        return self.me[self.i0 : self.i1 - 1]

    @property
    def lumped(self) -> np.ndarray:
        row = self.md.copy()
        row[:-1] += self.me
        row[1:] += self.me
        return row[self.i0 : self.i1]

    def stiffness_action(self, x: np.ndarray) -> np.ndarray:
        return _tridiag_matvec(self.kd_dof, self.ke_dof, x)

    def mass_action(self, x: np.ndarray) -> np.ndarray:
        return _tridiag_matvec(self.md_dof, self.me_dof, x)

    def stiffness_product(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(x @ self.stiffness_action(y))

    def mass_product(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(x @ self.mass_action(y))


def _tridiag_matvec(d: np.ndarray, e: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Symmetric tridiagonal product along the last axis (each row of a block)."""
    y = d * x
    y[..., :-1] += e * x[..., 1:]
    y[..., 1:] += e * x[..., :-1]
    return y


def assemble_weighted_system(
    mesh: RadialMesh, p: float, q: float, bc: str
) -> WeightedMatrices:
    """Assemble K_ij = int r^p phi_i' phi_j' and M_ij = int r^q phi_i phi_j.

    All element integrals are closed-form power integrals; no quadrature.
    On meshes touching r = 0 the weights must keep every assembled entry
    finite: p > -1 always, and q > -2 with a left Dirichlet condition
    (q >= 0 without one, since the unconstrained corner basis function does
    not vanish at the degenerate point).
    """
    if bc not in _BC_KINDS:
        raise ParameterOutOfRange(f"unknown boundary condition kind: {bc!r}")
    _real(p, "stiffness exponent p")
    _real(q, "mass exponent q")
    nodes = mesh.nodes
    touches_zero = nodes[0] == 0.0
    if touches_zero:
        if p <= -1.0:
            raise DivergentWeight(f"stiffness weight r^{p} is not integrable at 0")
        if bc in _LEFT_DIRICHLET:
            if q <= -2.0:
                raise DivergentWeight(
                    f"mass weight r^{q} diverges on the first cell even with "
                    "a left Dirichlet condition"
                )
        elif q < 0.0:
            raise DivergentWeight(
                f"mass weight r^{q} needs a left Dirichlet condition on "
                "meshes touching r = 0"
            )

    a, b = nodes[:-1], nodes[1:]
    h = b - a
    ip = power_integral(a, b, p)
    iq = power_integral(a, b, q)
    iq1 = power_integral(a, b, q + 1.0)
    iq2 = power_integral(a, b, q + 2.0)

    # a cell so short that h^2 underflows gives inf or nan entries here,
    # which the finite check below turns into DivergentWeight
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # local stiffness is (int r^p / h^2) * [[1, -1], [-1, 1]]
        k_cell = ip / h**2
        # local mass from the monomial expansion of the hat-function products
        m_ll = (b**2 * iq - 2.0 * b * iq1 + iq2) / h**2
        m_lr = (-iq2 + (a + b) * iq1 - a * b * iq) / h**2
        m_rr = (iq2 - 2.0 * a * iq1 + a**2 * iq) / h**2
        if touches_zero:
            # a = 0 terms multiply divergent integrals by zero: their true value
            # is zero, not nan, because the vanishing basis function tames r^q
            m_lr[0] = (-iq2[0] + b[0] * iq1[0]) / h[0] ** 2
            m_rr[0] = iq2[0] / h[0] ** 2

    n = nodes.size
    kd = np.zeros(n)
    kd[:-1] += k_cell
    kd[1:] += k_cell
    md = np.zeros(n)
    md[:-1] += m_ll
    md[1:] += m_rr

    i0 = 1 if bc in _LEFT_DIRICHLET else 0
    i1 = n - 1 if bc in _RIGHT_DIRICHLET else n
    mats = WeightedMatrices(
        mesh=mesh, p=p, q=q, bc=bc, kd=kd, ke=-k_cell, md=md, me=m_lr, i0=i0, i1=i1
    )
    if not np.all(np.isfinite(mats.kd_dof)) or not np.all(np.isfinite(mats.lumped)):
        raise DivergentWeight("assembled dof entries are not all finite")
    return mats


@dataclass(frozen=True)
class RadialBasis:
    """The smallest lumped eigenpairs of one weighted pencil K x = rho M x.

    `solve_eigenpairs` returns this one type for any assembled pencil: the
    Dirichlet basis of -d/dr(r^alpha d/dr) on (0, 1) behind the wave
    simulator, and the Hardy pencils alike.  Row j of R is the j-th
    eigenvector on the full node set (zero where constrained), normalized
    to unit lumped mass with its first nonzero entry positive; flux[j] is
    its variationally recovered derivative at the right endpoint, negative
    for the ground mode under this orientation.  gram is the consistent
    Gram matrix of all its eigenfunctions, formed once, on first use, by one
    mass product of the dof block of R and one matmul; the observation forms
    of a truncation to k_max pairs read its leading k_max x k_max block.
    """

    mats: WeightedMatrices
    rho: np.ndarray  # (k_max,)
    R: np.ndarray  # (k_max, n_nodes) nodal values
    flux: np.ndarray  # (k_max,) boundary derivatives at the right endpoint

    @property
    def alpha(self) -> float:
        """Stiffness exponent p of the pencil (the degeneracy alpha of a wave basis)."""
        return self.mats.p

    @property
    def mesh(self) -> RadialMesh:
        return self.mats.mesh

    @property
    def k_max(self) -> int:
        return self.rho.size

    @functools.cached_property
    def gram(self) -> np.ndarray:
        """Exact pairwise integrals int R_j R_k dr (consistent mass products),
        read-only."""
        dof = self.R[:, self.mats.i0 : self.mats.i1]
        gram = dof @ self.mats.mass_action(dof).T
        gram.flags.writeable = False
        return gram


# Eigenvalues per Sturm bisection call.  The chunks follow from k_max alone,
# so the basis is the same however many threads share the calls.
_BISECT_CHUNK = 64
_REFINE_TOL = 1e-10
_REFINE_MAX_ITER = 400


# (pointer arguments, character arguments) of each routine the solver calls
_ROUTINES = {
    "dstebz": (18, 2),
    "dstein": (13, 0),
    "dsyrk": (10, 2),
    "dpotrf": (5, 1),
    "dtrsm": (11, 4),
    "dpttrf": (4, 0),
    "dpttrs": (7, 0),
}


@functools.cache
def _lapack(name: str) -> Callable[..., None]:
    """The LAPACK or BLAS routine `name` of numpy's own OpenBLAS.

    numpy's wheels link scipy-openblas built with 64-bit integers
    (USE64BITINT), which exports each routine as the Fortran symbol
    scipy_<name>_64_; numpy's build record names both.  dlsym on numpy's
    core extension searches the libraries that extension depends on, so no
    library file is named here.  Fortran passes every argument by
    reference, as a void pointer: ctypes byref() of c_int64 or c_double for
    scalars, bytes for characters, ndarray.ctypes for arrays (of np.int64
    where LAPACK takes an integer).  Each character argument also has a
    hidden length, passed by value after all the others (1 for each here).
    A ctypes call into a CDLL releases the GIL while the routine runs, so
    threads that share a routine run at once.

    Raises:
        ImportError: numpy does not link an ILP64 scipy-openblas that
            exports the routine (a numpy built against MKL or a system
            BLAS, say).
    """
    import ctypes

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    routine = None
    if all(
        deps.get(part, {}).get("name") == "scipy-openblas"
        and "USE64BITINT" in deps[part].get("openblas configuration", "")
        for part in ("blas", "lapack")
    ):
        try:
            routine = ctypes.CDLL(np._core._multiarray_umath.__file__)[f"scipy_{name}_64_"]
        except AttributeError:
            pass
    if routine is None:
        raise ImportError(
            f"the radial eigensolver calls LAPACK {name} through numpy's bundled ILP64 "
            "scipy-openblas, and this numpy has none: install a numpy wheel from PyPI"
        )
    pointers, characters = _ROUTINES[name]
    routine.argtypes = [ctypes.c_void_p] * pointers + [ctypes.c_size_t] * characters
    routine.restype = None
    return routine


def solve_eigenpairs(mats: WeightedMatrices, k_max: int) -> RadialBasis:
    """Smallest k_max eigenpairs of K x = rho M x with M lumped to diagonal.

    The lumped pencil is transformed to the standard symmetric tridiagonal
    problem T = D^{-1/2} K D^{-1/2}.  Sturm bisection (LAPACK dstebz)
    locates the eigenvalues in fixed chunks of _BISECT_CHUNK indices, one
    dstebz call per chunk; inverse iteration (dstein) is then called once
    per eigenvalue.  A single dstein call re-orthogonalizes each vector
    against every earlier one whose eigenvalue lies within 1e-3 ||T||_1, and
    the near-origin diagonal of graded meshes makes ||T|| many orders larger
    than the low spectrum, so the whole request would form one cluster and
    cost O(n k^2) vector operations.  The vectors are instead orthonormalized
    once, by Cholesky QR in the lumped inner product (L L^T = Z Z^T,
    Z <- L^{-1} Z, the same Q as Gram-Schmidt in exact arithmetic), scaled
    back by D^{-1/2} and oriented to start positive.  All of it runs in
    place: dstein writes each vector into its dof slots of the result R, and
    the Gram product and the triangular solve read and write that strided
    block with the row length of R as leading dimension, so no second
    (k_max, n) array is made.  The eigenvalue reported is the Rayleigh
    quotient of the computed vector.

    The chunks, and then the dstein calls, are dealt round-robin to one
    thread per CPU the process may use.  Every routine is the Fortran symbol
    of numpy's own ILP64 OpenBLAS (`_lapack`): 64-bit integers, a hidden
    length after the arguments for each character, and a ctypes call that
    releases the GIL, so the threads run at once.
    Each call writes its own slots of the result, and the chunks depend on
    k_max alone, so the basis is bitwise the same for any thread count; a
    request of at most _BISECT_CHUNK pairs is a single bisection call.

    Extreme grading caution: bisection resolves eigenvalues to an absolute
    tolerance tied to the norm of the transformed matrix, whose first
    diagonal entries grow like N^{g(1+p)} near r = 0.  Once that norm
    exceeds about 1/eps times the target eigenvalue (g >= 3 at N ~ 10^4)
    the low end of the spectrum drowns in roundoff; use
    `refine_smallest_eigenpair` on the consistent pencil in that regime.

    Raises:
        ParameterOutOfRange: k_max not an integer in [1, n_dof].
        ConvergenceFailure: dstebz or dstein reports a failure, dstebz finds
            a count other than its chunk's, or the vectors are numerically
            dependent.
    """
    import ctypes

    n = mats.n_dof
    k_max = _whole(k_max, "k_max", minimum=1)
    if k_max > n:
        raise ParameterOutOfRange(f"k_max must not exceed the {n} dofs, got {k_max}")
    d_lump = mats.lumped
    if np.any(d_lump <= 0.0):
        raise DivergentWeight("lumped mass must be positive on all dofs")
    sqrt_d = np.sqrt(d_lump)
    diag = mats.kd_dof / d_lump
    off = np.zeros(max(n - 1, 1))  # LAPACK may touch one entry even at n = 1
    off[: n - 1] = mats.ke_dof / (sqrt_d[:-1] * sqrt_d[1:])

    byref = ctypes.byref
    c_n, c_one = ctypes.c_int64(n), ctypes.c_int64(1)
    # dstebz(RANGE='I') ignores VL and VU; ABSTOL 0 selects eps * ||T||_1
    c_vl, c_vu, c_tol = ctypes.c_double(0.0), ctypes.c_double(1.0), ctypes.c_double(0.0)
    w = np.empty(k_max)  # eigenvalues of T, ascending
    blocks = np.empty(k_max, dtype=np.int64)  # their diagonal blocks of T
    isplit = np.empty(n, dtype=np.int64)  # the blocks' ends, the same for every chunk
    n_chunks = -(-k_max // _BISECT_CHUNK)
    stebz = _lapack("dstebz")

    def bisect(first: int, step: int) -> None:
        """Chunks first, first + step, ... into their slices of w and blocks."""
        vals, block = np.empty(n), np.empty(n, dtype=np.int64)
        split = np.empty(n, dtype=np.int64)
        work, iwork = np.empty(4 * n), np.empty(3 * n, dtype=np.int64)
        il, iu, m, nsplit, info = (ctypes.c_int64() for _ in range(5))
        for chunk in range(first, n_chunks, step):
            lo = chunk * _BISECT_CHUNK
            hi = min(lo + _BISECT_CHUNK, k_max)
            il.value, iu.value = lo + 1, hi
            stebz(
                b"I", b"B", byref(c_n), byref(c_vl), byref(c_vu), byref(il), byref(iu),
                byref(c_tol), diag.ctypes, off.ctypes, byref(m), byref(nsplit),
                vals.ctypes, block.ctypes, split.ctypes, work.ctypes, iwork.ctypes, byref(info),
                1, 1,
            )
            if info.value != 0 or m.value != hi - lo:
                raise ConvergenceFailure(
                    f"bisection (dstebz) returned info {info.value}, "
                    f"{m.value} of the {hi - lo} values {lo + 1}..{hi}"
                )
            order = np.argsort(vals[: m.value], kind="stable")
            w[lo:hi] = vals[order]
            blocks[lo:hi] = block[order]
            if chunk == 0:
                isplit[:] = split

    deal(n_chunks, bisect)

    # rows of R's dof block x are eigenvectors of T, in ascending eigenvalue order
    R = np.zeros((k_max, mats.mesh.nodes.size))
    x = R[:, mats.i0 : mats.i1]
    stein = _lapack("dstein")

    def invert(first: int, step: int) -> None:
        """Eigenvalues first, first + step, ... into their rows of x."""
        work, iwork = np.empty(5 * n), np.empty(n, dtype=np.int64)
        ifail, info = ctypes.c_int64(), ctypes.c_int64()
        for row in range(first, k_max, step):
            stein(
                byref(c_n), diag.ctypes, off.ctypes, byref(c_one), w[row:].ctypes,
                blocks[row:].ctypes, isplit.ctypes, x[row].ctypes, byref(c_n),
                work.ctypes, iwork.ctypes, byref(ifail), byref(info),
            )
            if info.value != 0:
                raise ConvergenceFailure(
                    f"inverse iteration (dstein) returned info {info.value} at {row}"
                )

    deal(k_max, invert)

    # Cholesky QR: the lumped inner product of D^{-1/2} v is v . v.
    # x^T is the F-ordered (n, k) array A with leading dimension one row of
    # R; the lower triangle of the F-ordered gram receives A^T A (dsyrk,
    # beta 0), is factored in place to L (dpotrf), and x^T <- x^T L^{-T} is
    # solved in place (dtrsm), so x <- L^{-1} x
    c_k, c_unit, c_zero = ctypes.c_int64(k_max), ctypes.c_double(1.0), ctypes.c_double(0.0)
    c_ld = ctypes.c_int64(R.shape[1])
    gram = np.zeros((k_max, k_max), order="F")
    _lapack("dsyrk")(
        b"L", b"T", byref(c_k), byref(c_n), byref(c_unit), x.ctypes, byref(c_ld),
        byref(c_zero), gram.ctypes, byref(c_k), 1, 1,
    )
    info = ctypes.c_int64()
    _lapack("dpotrf")(b"L", byref(c_k), gram.ctypes, byref(c_k), byref(info), 1)
    if info.value != 0:
        raise ConvergenceFailure(
            f"eigenvectors are numerically dependent (dpotrf info {info.value})"
        )
    _lapack("dtrsm")(
        b"R", b"L", b"T", b"N", byref(c_n), byref(c_k), byref(c_unit), gram.ctypes,
        byref(c_k), x.ctypes, byref(c_ld), 1, 1, 1, 1,
    )

    # bisection locates eigenvalues only to ~eps * ||T||, which the huge
    # near-origin diagonal entries can make coarse; the Rayleigh quotient
    # of the computed eigenvector is second-order accurate in its residual
    # and restores near-machine eigenvalues (x is unit-norm in lumped mass).
    # Row by row, scaled by D^{-1/2} and flipped whole to start positive,
    # each row stays in cache and needs no (k, n) temporary
    rho = np.empty(k_max)
    for j, xj in enumerate(x):
        xj /= sqrt_d
        if xj[np.argmax(xj != 0.0)] < 0.0:
            R[j] *= -1.0
        rho[j] = mats.stiffness_product(xj, xj)
    return RadialBasis(mats=mats, rho=rho, R=R, flux=_variational_flux(mats, R, rho))




def refine_smallest_eigenpair(mats: WeightedMatrices) -> tuple[float, np.ndarray]:
    """Smallest eigenpair of the consistent pencil K x = rho M x.

    Inverse iteration from the ones vector with the exact (unlumped) mass,
    normalized in M, with the Rayleigh quotient as the eigenvalue estimate.
    Removes the lumping perturbation of `solve_eigenpairs` and stays robust
    under strong mesh grading, where the lumped similarity transform
    exhausts the dynamic range of floating point and Sturm bisection loses
    the low end of the spectrum.  Stops on relative stagnation of the
    quotient (below 1e-10), or once its decrements stop shrinking (roundoff
    floor of the quotient, well below any discretization error).

    The stiffness is factored once, K = L D L^T (LAPACK dpttrf), and each
    step solves with that factor (dpttrs): the same two calls as LAPACK's
    one-shot tridiagonal solver dptsv, so each step gives the same bits.

    Raises:
        ConvergenceFailure: the stiffness is not positive definite (dpttrf),
            or no stop within 400 steps.
    """
    import ctypes

    byref = ctypes.byref
    n = mats.n_dof
    c_n, c_one, info = ctypes.c_int64(n), ctypes.c_int64(1), ctypes.c_int64()
    d, e = mats.kd_dof.copy(), mats.ke_dof.copy()  # overwritten by the factor
    _lapack("dpttrf")(byref(c_n), d.ctypes, e.ctypes, byref(info))
    if info.value != 0:
        raise ConvergenceFailure(
            f"stiffness is not positive definite (dpttrf info {info.value})"
        )
    solve = _lapack("dpttrs")
    x = np.ones(n)
    rho_old = np.inf
    change_old = np.inf
    stalls = 0
    for it in range(_REFINE_MAX_ITER):
        y = mats.mass_action(x)  # a fresh array, solved in place
        solve(byref(c_n), byref(c_one), d.ctypes, e.ctypes, y.ctypes, byref(c_n), byref(info))
        nrm = math.sqrt(y @ mats.mass_action(y))
        if nrm == 0.0:
            raise ConvergenceFailure("inverse iteration collapsed to zero")
        x = y / nrm
        rho = float(x @ mats.stiffness_action(x))
        change = abs(rho - rho_old)
        if change <= _REFINE_TOL * abs(rho):
            return rho, x
        if it >= 3 and change >= change_old:
            stalls += 1
            if stalls >= 3:
                return rho, x
        else:
            stalls = 0
        rho_old, change_old = rho, change
    raise ConvergenceFailure(
        f"consistent inverse iteration did not converge in {_REFINE_MAX_ITER} steps"
    )


def _variational_flux(mats: WeightedMatrices, R: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Boundary derivatives at the right endpoint by variational recovery.

    Tests the eigen-equation of each row of R (full nodal vectors) against
    the boundary hat function: the residual of the last full row equals
    r^p R' there.

    Raises:
        DivergentWeight: a recovered value is not finite, as when the
            boundary weight r^p underflows to zero.
    """
    kd, ke, md, me = mats.kd, mats.ke, mats.md, mats.me
    k_row = ke[-1] * R[:, -2] + kd[-1] * R[:, -1]
    m_row = me[-1] * R[:, -2] + md[-1] * R[:, -1]
    weight = mats.mesh.nodes[-1] ** mats.p
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        flux = (k_row - rho * m_row) / weight
    if not np.all(np.isfinite(flux)):
        raise DivergentWeight(
            f"boundary flux is not finite: the weight r^{mats.p} at the right "
            f"endpoint is {weight}"
        )
    return flux


def solve_radial_basis(
    alpha: float, N: int = 2048, g: float = 2.0, k_max: int = 16
) -> RadialBasis:
    """Assemble and solve the weighted eigenbasis on a graded mesh; 0 < alpha < 1."""
    DegeneracyParams(alpha)
    mesh = build_graded_mesh(N, g)
    mats = assemble_weighted_system(mesh, p=alpha, q=0.0, bc="dirichlet-dirichlet")
    return solve_eigenpairs(mats, k_max)


# ---------------------------------------------------------------------------
# Stationary identity of the separated elliptic operator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EllipticIdentityReport:
    """Both sides of ||g||^2 = mu^2 ||u||^2 + ||Lu||^2 + 2 mu int r^alpha |u'|^2."""

    lhs: float
    rhs: float
    mu: float
    relative_residual: float


def elliptic_identity_residual(
    basis: RadialBasis, mu_n: float, coeffs: Sequence[float]
) -> EllipticIdentityReport:
    """Discrete residual of the separated-mode elliptic energy identity.

    For u a combination of computed eigenpairs and g = mu*u - d/dr(r^a u'),
    the stiffness action per mode is rho_k R_k in the solver (lumped) inner
    product; evaluating every norm with the exact consistent mass instead
    makes the two sides differ only by the lumping perturbation, which is
    what this residual measures.

    Raises:
        ParameterOutOfRange: mu_n not a finite real number, coefficients
            that are not finite real numbers, or more coefficients than
            computed eigenpairs.
    """
    _real(mu_n, "mu")
    c = _reals(coeffs, "coefficients")
    if c.size > basis.k_max:
        raise ParameterOutOfRange("more coefficients than computed eigenpairs")
    i0, i1 = basis.mats.i0, basis.mats.i1
    u = (c[:, None] * basis.R[: c.size, i0:i1]).sum(axis=0)
    lu = (c[:, None] * basis.rho[: c.size, None] * basis.R[: c.size, i0:i1]).sum(axis=0)
    g = mu_n * u + lu

    m = basis.mats.mass_product
    lhs = m(g, g)
    rhs = mu_n**2 * m(u, u) + m(lu, lu) + 2.0 * mu_n * basis.mats.stiffness_product(u, u)
    scale = max(lhs, rhs, np.finfo(float).tiny)
    return EllipticIdentityReport(
        lhs=lhs, rhs=rhs, mu=mu_n, relative_residual=abs(lhs - rhs) / scale
    )


# ---------------------------------------------------------------------------
# Closed-form Bessel eigenfunctions (independent cross-check route)
# ---------------------------------------------------------------------------

# J_{nu-1}, J_nu and J_{nu+1} for 0 < nu < 1/2 by three methods, switched at
# two fixed arguments (Gil, Segura and Temme, *Numerical Methods for Special
# Functions*, SIAM 2007, ch. 4): the ascending series below _MILLER_MIN,
# Miller's backward recurrence up to _HANKEL_MIN, Hankel's expansion above.
# The recurrence starts at the order x + 25 x^(1/3) + 40 of its largest
# argument for every argument, so a value does not depend on the other
# arguments of the call, and its seed grows by at most 1e237 down to order
# nu (at x = 2).  The cancellation in its normalization grows with x, and
# Hankel's truncation error at _HANKEL_TERMS terms is below 1e-18 from
# x = 25 on.  Against mpmath the three orders are within 2e-15 of
# max(|J|, min(1, sqrt(2/(pi x)))) over (0, 410].
_MILLER_MIN = 2.0
_HANKEL_MIN = 25.0
_MILLER_TOP = int(_HANKEL_MIN + 25.0 * _HANKEL_MIN ** (1.0 / 3.0) + 40.0)
_MILLER_SEED = 1e-100
_SERIES_TERMS = 16
_HANKEL_TERMS = 30


def _bessel_series(nu: float, x):
    """(J_{nu-1}, J_nu, J_{nu+1})(x) by the ascending series, 0 <= x <= 2.

    J_mu(x) = (x/2)^mu sum_k (-x^2/4)^k / (k! Gamma(mu + k + 1)); at x = 0
    the order nu - 1 < 0 gives +inf.  Every order enters as nu + integer,
    never as the rounded nu - 1: its rounding error of up to ulp(1)/2 would
    move 1/Gamma(nu) by that over nu relative, and (x/2)^(nu-1) by that
    times |ln(x/2)|.
    """
    half = 0.5 * x
    q = -half * half
    with np.errstate(divide="ignore", invalid="ignore"):
        lead = half**nu
        powers = np.where(half > 0.0, lead / half, np.inf), lead, lead * half
    out = []
    for shift, power in zip((-1, 0, 1), powers):
        term = total = 1.0 / math.gamma(nu + (shift + 1))
        for k in range(1, _SERIES_TERMS):
            term = term * q / (k * (nu + (shift + k)))
            total = total + term
        out.append(power * total)
    return tuple(out)


def _bessel_miller(nu: float, x):
    """(J_{nu-1}, J_nu, J_{nu+1})(x) by Miller's backward recurrence, 2 <= x <= 25.

    f_{m-1} = 2 (nu + m)/x f_m - f_{m+1} runs down from f = 0, seed at the
    start order to m = -1, and the Neumann series
    (x/2)^nu / Gamma(nu) = sum_k (nu + 2k) (nu)_k / k! J_{nu+2k}(x)
    fixes the scale.
    """
    top = _MILLER_TOP
    coef = [1.0]  # (nu)_k / k!
    for k in range(1, top // 2 + 1):
        coef.append(coef[-1] * (nu + (k - 1)) / k)
    h = 2.0 / x
    f_up, f, norm = 0.0, _MILLER_SEED, 0.0
    for m in range(top, 0, -1):  # f ~ J_{nu+m}, f_up ~ J_{nu+m+1}
        if m % 2 == 0:
            norm = norm + (nu + m) * coef[m // 2] * f
        f, f_up = (nu + m) * h * f - f_up, f
    scale = (0.5 * x) ** nu / (math.gamma(nu) * (norm + nu * f))
    return (nu * h * f - f_up) * scale, f * scale, f_up * scale


def _bessel_hankel(nu: float, x):
    """(J_{nu-1}, J_nu, J_{nu+1})(x) by Hankel's expansion, x >= 25.

    J_mu(x) = sqrt(2/(pi x)) (P_mu cos chi_mu - Q_mu sin chi_mu) with
    chi_mu = x - (mu/2 + 1/4) pi.  The phase is formed by angle addition
    from cos x and sin x, because the rounding of x - (nu/2 + 1/4) pi alone
    is ulp(x); chi_{nu -+ 1} = chi_nu +- pi/2.
    """
    phi = (0.5 * nu + 0.25) * math.pi
    cos_x, sin_x = np.cos(x), np.sin(x)
    c = cos_x * math.cos(phi) + sin_x * math.sin(phi)  # cos chi_nu
    s = sin_x * math.cos(phi) - cos_x * math.sin(phi)  # sin chi_nu
    inv8x = 0.125 / x
    env = np.sqrt(2.0 / (math.pi * x))
    out = []
    for mu, cos_chi, sin_chi in ((nu - 1.0, -s, c), (nu, c, s), (nu + 1.0, s, -c)):
        # P = a_0 - a_2/x^2 + a_4/x^4 - ..., Q = a_1/x - a_3/x^3 + ...
        w = 4.0 * mu * mu
        term, p, q = 1.0, 1.0, 0.0
        for k in range(1, _HANKEL_TERMS):
            term = term * ((w - (2 * k - 1) ** 2) / k) * inv8x
            if k % 2:
                q = q + term if k % 4 == 1 else q - term
            else:
                p = p + term if k % 4 == 0 else p - term
        out.append(env * (p * cos_chi - q * sin_chi))
    return tuple(out)


def _bessel_triple(nu: float, x):
    """(J_{nu-1}(x), J_nu(x), J_{nu+1}(x)) for 0 < nu < 1/2 and x >= 0.

    The orders behind the closed-form radial modes.  An array x gives an
    array stacked on a new first axis, a scalar x a tuple of three numpy
    floats (the bisection evaluates one point at a time, and scalar
    arithmetic is an order faster than 1-element arrays).  Arguments that
    are negative or nan give nan.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x[()]
        if not x >= 0.0:
            return (np.float64(np.nan),) * 3
        if x < _MILLER_MIN:
            return _bessel_series(nu, x)
        return _bessel_miller(nu, x) if x < _HANKEL_MIN else _bessel_hankel(nu, x)
    out = np.full((3,) + x.shape, np.nan)
    parts = (
        (_bessel_series, (x >= 0.0) & (x < _MILLER_MIN)),
        (_bessel_miller, (x >= _MILLER_MIN) & (x < _HANKEL_MIN)),
        (_bessel_hankel, x >= _HANKEL_MIN),
    )
    for method, sel in parts:
        if sel.any():
            out[:, sel] = method(nu, x[sel])
    return out


def _bessel_root(nu: float, k: int) -> float:
    """k-th positive zero of J_nu for 0 < nu < 1/2, by bisection to the ulp.

    Zeros grow with the order, and J_{-1/2} and J_{1/2} vanish at
    (k - 1/2) pi and k pi, so the k-th zero lies between the two (Watson,
    *A Treatise on the Theory of Bessel Functions*, 15.6).  J_nu comes from
    `_bessel_triple`, so no scipy module is loaded.
    """
    def jv(z: float) -> float:
        return _bessel_triple(nu, z)[1]

    lo, hi = (k - 0.5) * math.pi, k * math.pi
    f_lo = jv(lo)
    # halve the bracket until no float lies strictly between its endpoints
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        f_mid = jv(mid)
        if f_mid == 0.0:
            return float(mid)
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return float(lo if abs(f_lo) <= abs(jv(hi)) else hi)


def bessel_radial_mode(
    alpha: float, k: int
) -> tuple[float, Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray], float]:
    """Closed-form k-th eigenpair of -d/dr(r^alpha d/dr) on (0, 1), Dirichlet ends.

    Returns (rho, R, dR, R'(1)) with rho = ((2-alpha)/2)^2 j^2, j the k-th
    zero of J_nu, nu = (1-alpha)/(2-alpha), and R(r) up-normalized to unit
    L2 mass on (0, 1), positive near r = 0 (M. Gueye, SICON 52, 2014):
    R(r) = C r^{(1-alpha)/2} J_nu(j r^{(2-alpha)/2}) with
    C^2 = (2-alpha)/J_{nu+1}(j)^2 and |R'(1)| = (2-alpha)^{3/2} j / 2.
    As r^{(1-alpha)/2} = (r^{(2-alpha)/2})^nu and (z^nu J_nu)' = z^nu J_{nu-1},
    R'(r) = C j (2-alpha)/2 r^{1/2-alpha} J_{nu-1}(j r^{(2-alpha)/2}); it
    grows like r^{-alpha} near the axis, and dR is +inf at r = 0.  The
    Bessel functions come from `_bessel_triple`, so no scipy module loads.

    Raises:
        ParameterOutOfRange: alpha outside (0, 1), where nu leaves (0, 1/2),
            or k not an integer or below 1.
    """
    DegeneracyParams(alpha)
    k = _whole(k, "radial index k", minimum=1)
    nu = (1.0 - alpha) / (2.0 - alpha)
    j = _bessel_root(nu, k)
    rho = ((2.0 - alpha) / 2.0 * j) ** 2
    tail = float(_bessel_triple(nu, j)[2])
    c = math.sqrt(2.0 - alpha) / abs(tail)
    half = 0.5 * (1.0 - alpha)
    pow_arg = 0.5 * (2.0 - alpha)

    def R(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return c * r**half * _bessel_triple(nu, j * r**pow_arg)[1]

    def dR(r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        j_down = _bessel_triple(nu, j * r**pow_arg)[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (c * j * pow_arg) * r ** (0.5 - alpha) * j_down
        return np.where(r == 0.0, np.inf, out)

    flux = -0.5 * (2.0 - alpha) ** 1.5 * j * math.copysign(1.0, tail)
    return rho, R, dR, flux
