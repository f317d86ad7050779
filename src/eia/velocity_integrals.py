"""Thermal averaging over the Maxwell-Boltzmann velocity distribution.

Two ways to average.  ``pole_average`` is the closed form of a single-pole
thermal average, one Faddeeva value w(z) (Fried & Conte, *The Plasma
Dispersion Function*, 1961), and ``_strong_collision`` closes a bare average
G into the strong-collision kernel K = iG/(1 - i gamma_vcc G); every program
path that needs a one-pole kernel takes these two.  Gauss-Hermite
quadrature (probabilists' weight) handles the general integrands: products
of the per-velocity complex frequencies over the probe-sector determinant,
averaged against one or two standard-normal velocity components.  A
node-doubling self-check guards against under-resolved poles, which matters
once the Doppler scale exceeds the pressure-broadened linewidth.  Every
Gauss-Hermite average of the package walks the mesh that ``velocity_mesh``
builds in broadcastable product form.  ``g_integral`` averages the eight
named kernels ``G1_SPEC`` .. ``G_PUMP`` node by node; the solvers of
``spectrum_solver`` read theirs from one moment kernel, ``_PoleMoments``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest
from typing import NamedTuple

import numpy as np
from scipy.special import roots_hermitenorm, wofz

from .core_model import FieldConfig, ModelParams, toc_determinant, xi_set

__all__ = [
    "QuadratureGrid",
    "NonConvergenceError",
    "make_grid",
    "velocity_mesh",
    "g_integral",
    "pole_average",
    "one_photon_response",
    "G1_SPEC",
    "G2_SPEC",
    "G3_SPEC",
    "G4_SPEC",
    "G5_SPEC",
    "G_1P",
    "G_3P",
    "G_PUMP",
]

MAX_NODES = 10_000


class NonConvergenceError(RuntimeError):
    """Doubling the quadrature changed the result by more than the tolerance."""


@dataclass(frozen=True)
class QuadratureGrid:
    """Gauss-Hermite nodes/weights for the two velocity projections.

    Weights are normalized so each axis integrates the unit Gaussian to 1;
    nodes are symmetric about zero.  Grids are immutable; evaluators are pure.
    """

    nodes_par: np.ndarray
    weights_par: np.ndarray
    nodes_res: np.ndarray
    weights_res: np.ndarray

    @property
    def n_par(self) -> int:
        return self.nodes_par.size

    @property
    def n_res(self) -> int:
        return self.nodes_res.size


@lru_cache(maxsize=64)
def _gh_axis(n: int):
    # node computation is expensive, and every checked solve asks _doubled
    # for the 2n axis of the grid it was given, so memoize on the count; the
    # cached arrays are shared between callers and therefore frozen
    x, w = roots_hermitenorm(n)
    w = w / np.sqrt(2.0 * np.pi)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def make_grid(n_par: int = 80, n_res: int = 40) -> QuadratureGrid:
    """Build the velocity quadrature; counts above 10^4 per axis are rejected."""
    for name, n in (("n_par", n_par), ("n_res", n_res)):
        if n % 1:  # also NaN and inf
            raise ValueError(f"{name} must be an integer, got {n}")
        if n < 1:
            raise ValueError(f"{name} must be >= 1, got {n}")
        if n > MAX_NODES:
            raise ValueError(f"{name} must be <= {MAX_NODES}, got {n}")
    return QuadratureGrid(*_gh_axis(n_par), *_gh_axis(n_res))


def _spans_residual_axis(fields: FieldConfig) -> bool:
    """Whether the velocity mesh takes every residual node (transverse, dq_vth != 0);
    otherwise it holds one, whatever the grid's n_res."""
    return fields.dq_vth != 0.0 and fields.dq_direction == "transverse"


def _doubled(grid: QuadratureGrid, need_res: bool) -> QuadratureGrid:
    # internal comparison grid for the convergence check; exempt from the
    # caller-facing node cap
    res = _gh_axis(2 * grid.n_res) if need_res else (grid.nodes_res, grid.weights_res)
    return QuadratureGrid(*_gh_axis(2 * grid.n_par), *res)


def _require_tolerance(what, name, rtol):
    """Reject a doubling tolerance that is not > 0 (inf is allowed), naming it
    as the caller's parameter ``name``: the check's comparison is False for
    NaN, which would pass any change.  Callers check before their first solve."""
    if not rtol > 0:
        raise ValueError(f"{what}: {name} must be > 0, got {rtol}")


def _doubling_check(what, solve_on, fields, grid, response, rtol):
    """Solve again on the node-doubled grid and compare the two responses.

    ``solve_on(grid)`` returns ``(response, extra)``, with response a complex
    scalar or array.  Returns the doubled grid's result and the report note;
    a relative change that is not <= rtol, NaN included, raises
    NonConvergenceError, whose message starts with ``what``.  rtol has
    passed ``_require_tolerance``.
    """
    spans = _spans_residual_axis(fields)
    fine = solve_on(_doubled(grid, spans))
    scale = max(np.abs(fine[0]).max(initial=0.0), np.finfo(float).tiny)
    rel = np.abs(fine[0] - response).max(initial=0.0) / scale
    if not rel <= rtol:
        raise NonConvergenceError(
            f"{what} not converged: doubling {grid.n_par}x{grid.n_res if spans else 1} nodes "
            f"moved the result by {rel:.3e} (> rtol {rtol:.1e})"
        )
    return fine, f"doubling check rel change {rel:.2e}"


def velocity_mesh(fields: FieldConfig, grid: QuadratureGrid):
    """The (v_par, v_res, w) velocity mesh of the geometry, in broadcastable product form.

    Every Gauss-Hermite average of the package walks this form: v_par is the
    grid's (n_par,) axis and w is (r, n_par).  On a transverse mesh with
    dq_vth != 0 (``_spans_residual_axis``) r = n_res and v_res is
    (n_res, 1).  Otherwise r = 1: v_res is v_par on a collinear mesh, and at
    dq_vth = 0 the one zero node (1,), whatever the grid's n_res, so that
    factors which follow v_res only are one value per detuning.  The long
    v_par axis goes last to keep numpy's inner loops long.  The moment kernel
    puts detunings between the two, as (1, m, 1), and works on (r, m, n_par)
    arrays.  w may be a read-only view of the grid's weights.
    """
    if _spans_residual_axis(fields):
        return (grid.nodes_par, grid.nodes_res[:, None],
                np.outer(grid.weights_res, grid.weights_par))
    return (grid.nodes_par, grid.nodes_par if fields.dq_vth else np.zeros(1),
            grid.weights_par[None, :])


def _coef(x):
    return x.coef if isinstance(x, _Poly) else (x,)


class _Poly:
    """A polynomial in v_par, coefficients lowest degree first.

    The coefficients are numbers or arrays that broadcast over the rows of
    the product mesh.  It has the arithmetic that ``xi_set`` and
    ``toc_determinant`` use, so passing ``_V`` for v_par gives xi1..xi5 and
    xi_d on each row as polynomials from their one definition.  Zero
    coefficients are kept, so degrees follow the formulas' structure alone.
    """

    __array_ufunc__ = None  # ndarray and numpy scalar operands defer to the methods below

    def __init__(self, *coef):
        self.coef = coef

    def __add__(self, other):
        return _Poly(*(a + b for a, b in zip_longest(self.coef, _coef(other), fillvalue=0.0)))

    __radd__ = __add__

    def __sub__(self, other):
        return _Poly(*(a - b for a, b in zip_longest(self.coef, _coef(other), fillvalue=0.0)))

    def __rsub__(self, other):
        return _Poly(*(b - a for a, b in zip_longest(self.coef, _coef(other), fillvalue=0.0)))

    def __mul__(self, other):
        other = _coef(other)
        out = [0.0] * (len(self.coef) + len(other) - 1)
        for i, a in enumerate(self.coef):
            for j, b in enumerate(other):
                out[i + j] = out[i + j] + a * b
        return _Poly(*out)

    __rmul__ = __mul__


_V = _Poly(0.0, 1.0)

# Detunings x velocity nodes per chunk of the moment kernel (a 2 MB buffer).  Median
# in-process pass times on 2 vCPUs with the matrix-product xi_d build, 3 rounds,
# 30k/60k/120k/240k: exact_fig2's checked solve 11.4-13.2/10.5-15.1/10.1-13.1/10.4-10.7
# ms, dicke_scan's three rungs 87-91/71-76/71-92/76-91 ms; at 120k, 8 and 32 rows gave
# 10.5-14.8 and 9.9-11.9 ms, 70-91 and 71-85 ms.  None is better throughout.  At most 16
# detunings, and never one alone: on OpenBLAS 0.3.31 (Haswell kernels,
# OPENBLAS_NUM_THREADS=2) a complex matmul with more rows (from ~7e4 multiply-adds) or
# with one row (a gemv, from ~9e3) ran on two threads, for twice the CPU time and no
# wall-time gain.
_CHUNK_ELEMENTS = 120_000
_CHUNK_ROWS = 16
# Float columns (two per node) of one real product in the xi_d build.  At
# OPENBLAS_NUM_THREADS=2 the (15x6)@(6x12000) product of exact_fig2's doubled grid runs
# on two threads: a median 0.07 ms, but 8.0 ms at p90 in two of four runs of 1000
# calls.  No product of at most 6000 columns stalled, and in blocks of 6000 the checked
# exact_fig2 solve took 9.4-10.8 ms against 10.6-13.2 ms in one product (medians of
# 400-600 solves, 7 rounds each, 2 vCPUs).
_XI_D_COLUMNS = 6000


class _PoleMoments:
    """The moment kernel of both velocity-resolved routes.

    On a row of the product mesh (one detuning, one residual node) every xi
    is linear in v_par, so xi_d is a polynomial in v_par: degree 2, or 4 on
    a collinear mesh with dq_vth != 0, where v_res is v_par too.  ``xi``
    holds xi1..xi5 as ``_Poly`` rows, and xi_d their ``toc_determinant``,
    with coefficient arrays (r, m, 1) for r rows and m detunings.  The
    powers v^k of the nodes are formed once, in one real table, which also
    gives the moment table its w v^j.  Per chunk of detunings the kernel
    builds xi_d on the mesh as a real matrix product of the chunk's
    coefficients and that table (one product, or one per block of
    ``_XI_D_COLUMNS`` columns on a long mesh), takes one reciprocal per node
    and contracts it, in one complex matrix product, with the detuning-free
    table [w v^j, w v^j/xi5], j = 0..degree, for the moments
    M_j = sum_v w v^j/xi_d and N_j = sum_v w v^j/(xi5 xi_d) of each row.
    ``average`` then reads any average whose numerator is a polynomial in
    the xi's of degree <= ``degree`` as a coefficient-moment sum.

    (v_par, v_res, w) is ``velocity_mesh``'s product form: w is (r, n),
    v_par the (n,) nodes shared by every row, or one set per row, (r, n),
    and v_res is v_par itself (collinear, dq_vth != 0) or one value per
    row.  ``pump`` is the bare average <1/xi5>.
    """

    def __init__(self, params, fields, detunings, v_par, v_res, w):
        r, n = w.shape
        m = detunings.size
        rows = _V if v_res is v_par else np.reshape(v_res, (r, 1, 1))
        self.xi = xi_set(params, fields, _V, rows, deltap=detunings[None, :, None])
        xi_d = toc_determinant(self.xi, params, fields).coef
        # the highest numerator either route averages: xi1 or xi3 times xi2 xi4
        self.degree = len(_coef(self.xi.xi1 * self.xi.xi2 * self.xi.xi4)) - 1

        # [Re c_k | Im c_k] of xi_d per row and detuning, and the powers of v_par
        # interleaved so that (coefficients @ powers) is xi_d's complex values
        # as float pairs: rows 0..p-1 hold v^k in the real columns, rows
        # p..2p-1 the same in the imaginary ones
        p = len(xi_d)
        self._coef = np.empty((r, m, 2 * p))
        for k, c in enumerate(xi_d):
            self._coef[..., k:k + 1] = np.real(c)
            self._coef[..., p + k:p + k + 1] = np.imag(c)
        v = np.atleast_2d(v_par)
        self._powers = np.zeros((v.shape[0], 2 * p, 2 * n))
        powers = self._powers[:, :p, ::2]
        powers[:, 0] = 1.0
        for k in range(1, p):
            np.multiply(powers[:, k - 1], v, out=powers[:, k])
        self._powers[:, p:, 1::2] = powers

        # xi5 carries no detuning, so any deltap gives the same table
        inv_xi5 = 1.0 / xi_set(params, fields, v_par, v_res, 0.0).xi5
        q = self.degree + 1
        table = np.empty((r, n, 2 * q), dtype=complex)
        table[..., :q] = w[..., None] * powers[:, :q].transpose(0, 2, 1)
        np.multiply(table[..., :q], inv_xi5[..., None], out=table[..., q:])
        self.pump = table[..., q].sum()

        chunks = max(1, -(-m // max(2, min(_CHUNK_ELEMENTS // w.size, _CHUNK_ROWS))))
        cuts = [m * k // chunks for k in range(chunks + 1)]  # sizes differ by at most 1
        buf = np.empty(r * -(-m // chunks) * n, dtype=complex)
        self._mom = np.empty((r, m, 2 * q), dtype=complex)
        for a, b in zip(cuts, cuts[1:]):
            # each chunk a contiguous (r, b - a, n) array, so its float view is the product's
            x = self.xi_d_on_mesh(a, b, buf[:r * (b - a) * n].reshape(r, b - a, n))
            np.reciprocal(x, out=x)
            if b - a == 1:  # one detuning in all: a matmul would be a gemv
                np.einsum("rmn,rnk->rmk", x, table, out=self._mom[:, a:b])
            else:
                np.matmul(x, table, out=self._mom[:, a:b])

    def xi_d_on_mesh(self, a, b, out):
        """xi_d at the mesh nodes of detunings a..b-1 into out, a C-contiguous
        complex (r, b - a, n) array: each row's coefficients [Re c_k | Im c_k]
        times the interleaved powers of v_par, one real matrix product per
        block of at most ``_XI_D_COLUMNS`` float columns."""
        coef, cols = self._coef[:, a:b], out.view(float)
        for c in range(0, cols.shape[-1], _XI_D_COLUMNS):
            block = slice(c, c + _XI_D_COLUMNS)
            np.matmul(coef, self._powers[..., block], out=cols[..., block])
        return out

    def average(self, p, over_xi5=False):
        """Per detuning, the average of p/xi_d, or of p/(xi5 xi_d), for p a
        polynomial in the xi's (or a number) of degree <= ``degree``."""
        first = self.degree + 1 if over_xi5 else 0
        mom = self._mom
        return sum(c * mom[..., first + j:first + j + 1]
                   for j, c in enumerate(_coef(p))).sum(axis=(0, 2))


class _Kernel(NamedTuple):
    """Which xi factors sit over which: 1..5 name xi1..xi5, 'd' the determinant xi_d.

    The eight named kernels below write out what ``g_integral`` averages by
    Gauss-Hermite (GH), the reference of criteria 2-4 and the oracle tests.
    The factored solver reads ``G1_SPEC``..``G5_SPEC`` through the moment
    kernel ``_PoleMoments``, multiplying each numerator from its last
    factor (xi2 (xi3 xi4) for G1); the exact route's averages are its own,
    and the Ramsey kernels are closed forms.
    """

    numerator: tuple
    denominator: tuple


# the named kernels of the approximate probe response
G1_SPEC = _Kernel((2, 3, 4), ("d",))
G2_SPEC = _Kernel((3, 4), ("d",))
G3_SPEC = _Kernel((2, 4), (5, "d"))
G4_SPEC = _Kernel((1, 3, 4), ("d",))
G5_SPEC = _Kernel((3,), ("d",))
# bare one-photon kernels (probe, three-photon, pump dipole)
G_1P = _Kernel((), (2,))
G_3P = _Kernel((), (4,))
G_PUMP = _Kernel((), (5,))
_KERNELS = (G1_SPEC, G2_SPEC, G3_SPEC, G4_SPEC, G5_SPEC, G_1P, G_3P, G_PUMP)


def _factor(key, xi, params, fields):
    if key == "d":
        return toc_determinant(xi, params, fields)
    return getattr(xi, f"xi{key}")


def _eval_on_grid(spec, params, fields, grid, deltap):
    v_par, v_res, w = velocity_mesh(fields, grid)
    xi = xi_set(params, fields, v_par, v_res, deltap)
    val = w.astype(complex)
    for k in spec.numerator:
        val = val * _factor(k, xi, params, fields)
    for k in spec.denominator:
        val = val / _factor(k, xi, params, fields)
    return val.sum()


def g_integral(spec: _Kernel, params: ModelParams, fields: FieldConfig,
               grid: QuadratureGrid, deltap: float, rtol: float | None = 1e-7) -> complex:
    """Thermal velocity average of prod(xi_num)/prod(xi_den) at probe detuning deltap.

    This is the Gauss-Hermite (GH) reference of criteria 2-4 and the oracle
    tests, which hold the fused solver averages and the closed forms
    (``pole_average``) against it; of the program paths only the k-space
    filter still averages through it.  With ``rtol`` set (default 1e-7) the
    integral is re-evaluated on a grid with doubled node counts; a relative
    change above rtol raises NonConvergenceError, otherwise the finer value
    is returned; an rtol that is NaN or not > 0 raises ValueError before any
    evaluation.  ``rtol=None`` skips the check and uses the grid as given.
    spec must be one of the eight named kernels (``G1_SPEC`` .. ``G_PUMP``).
    """
    if not any(spec is k for k in _KERNELS):
        raise ValueError(f"spec must be one of the eight named kernels, got {spec!r}")
    if rtol is None:
        return _eval_on_grid(spec, params, fields, grid, deltap)
    _require_tolerance("quadrature", "rtol", rtol)
    coarse = _eval_on_grid(spec, params, fields, grid, deltap)
    (fine, _), _ = _doubling_check(
        "quadrature", lambda g: (_eval_on_grid(spec, params, fields, g, deltap), None),
        fields, grid, coarse, rtol)
    return fine


def pole_average(x: float, q: float, gamma_pos: float) -> complex:
    """Closed form of int F(v)/(x - q v + i gamma_pos) dv for a unit Gaussian F.

    With z = (x + i gamma_pos)/(sqrt(2) |q|) this is -i sqrt(pi/2)/|q| w(z),
    one value of the Faddeeva function w (``scipy.special.wofz``, accurate
    well beyond 1e-10 on the upper half plane).  gamma_pos must be > 0,
    which keeps z there.  The result depends on q only through |q| (F is
    even).  For |q| below 1e-9 |x + i gamma_pos| it is the motionless pole
    1/(x + i gamma_pos): the Doppler correction, relative q^2/(x + i
    gamma_pos)^2, is then below double precision, and z could overflow.
    For a multi-axis velocity combination sum_j c_j v_j over independent unit
    Gaussians, pass q = ||c||_2.
    """
    if not gamma_pos > 0:
        raise ValueError(f"gamma_pos must be > 0, got {gamma_pos}")
    q = abs(q)
    pole = x + 1j * gamma_pos
    if q < 1e-9 * abs(pole):
        return 1.0 / pole
    z = pole / (np.sqrt(2.0) * q)
    # a Python complex: callers' complex division then rounds as it always
    # has (numpy's rounds differently in the last bit)
    return -1j * np.sqrt(np.pi / 2.0) / q * complex(wofz(z))


def _strong_collision(g, gamma_vcc: float):
    """Strong-collision closure K = iG/(1 - i gamma_vcc G) of a bare thermal average G."""
    return 1j * g / (1.0 - 1j * gamma_vcc * g)


_ONE_PHOTON_SPECS = {2: G_1P, 4: G_3P, 5: G_PUMP}


def one_photon_response(params: ModelParams, fields: FieldConfig, grid: QuadratureGrid,
                        deltap: float, denominator: int = 2,
                        rtol: float | None = 1e-7) -> complex:
    """Strong-collision one-photon kernel K = iG/(1 - i gamma_vcc G), by Gauss-Hermite.

    G is the bare thermal average of 1/xi_denominator at probe detuning
    deltap; denominator 2 gives the probe kernel (G_1P), 4 the three-photon
    variant (G_3P), 5 the pump-dipole absorption kernel (G_PUMP).  In the
    motionless limit the gamma_vcc contributions cancel algebraically and
    K -> i/(deltap + i*gamma_tilde) for the probe case.  No program path
    calls this: it is the Gauss-Hermite (GH) reference of criteria 2-4 and
    the oracle tests, which hold against it the closed-form kernels of
    ramsey_diffusion.ramsey_coefficients (one ``pole_average`` each) and the
    exact solve with the pumps off.
    """
    if denominator not in _ONE_PHOTON_SPECS:
        raise ValueError(f"denominator must be one of {sorted(_ONE_PHOTON_SPECS)}, got {denominator}")
    g = g_integral(_ONE_PHOTON_SPECS[denominator], params, fields, grid, deltap, rtol=rtol)
    return _strong_collision(g, params.gamma_vcc)
