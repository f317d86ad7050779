"""Probe absorption spectra for the driven four-level system.

Three routes to the probe response R_{e1g2}/(n0 Vp), per unit atom density
n0 and probe amplitude Vp (n0 cancels, so no parameter holds it):

* ``solve_exact`` averages each velocity node's 4x4 coherence inverse as
  adj(M)/xi_d, a table of 17 thermal averages of xi-products over xi_d, and
  closes the strong-collision velocity-changing terms self-consistently on
  the four velocity-integrated densities.
* ``solve_approximate`` evaluates the factored response built from the five
  named thermal averages G1..G5, including its three-way split into one-photon
  background, pump-broadened pedestal, and the sharp collision-induced peak.
* ``at_rest_spectrum`` is the motionless, collisionless closed form of the
  response.

The first two share one solve routine on the broadcastable product mesh that
``velocity_integrals.velocity_mesh`` builds, and read every average from one
moment kernel, ``velocity_integrals._PoleMoments``: on each row of the mesh
(one detuning, one residual node) xi_d is a polynomial in v_par, and each
average a coefficient-moment sum of M_j = <v^j/xi_d> and N_j = <v^j/(xi5 xi_d)>.
A vanishing xi_d shows as a non-finite result; IllConditionedError names the
first such detuning.  On a grid symmetric about 0, with zero pump detunings
and a real v1 conj(v2), the routine solves only the detunings >= 0 and
reflects them.

All detunings are in units of the spontaneous rate; response values are
R_{e1g2}/(n0 Vp) and absorption is its imaginary part.  ``solve_exact`` warns
when the density system's condition estimate exceeds 1e8 and raises
IllConditionedError beyond 1e12.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .core_model import FieldConfig, ModelParams, toc_determinant, xi_set
from .velocity_integrals import (
    G1_SPEC,
    G2_SPEC,
    G3_SPEC,
    G4_SPEC,
    G5_SPEC,
    QuadratureGrid,
    _doubled,
    _doubling_check,
    _PoleMoments,
    _require_tolerance,
    _spans_residual_axis,
    _strong_collision,
    velocity_mesh,
)

__all__ = [
    "Components",
    "Spectrum",
    "SolveReport",
    "IllConditionedError",
    "default_detuning_grid",
    "solve_exact",
    "solve_approximate",
    "at_rest_spectrum",
]


class IllConditionedError(RuntimeError):
    """The density self-consistency system is numerically unreliable."""


class Components(NamedTuple):
    background: np.ndarray
    pedestal: np.ndarray
    sharp_peak: np.ndarray


@dataclass(frozen=True)
class Spectrum:
    """Probe response sampled on a detuning grid.

    response is R_{e1g2}/(n0 Vp), per unit density and probe amplitude;
    absorption is Im(response), computed on access.  When the three-way
    decomposition is available its parts must sum back to the response
    (checked to 1e-10 relative).  ``from_response`` coerces array-likes.
    """

    detunings: np.ndarray
    response: np.ndarray
    components: Optional[Components] = None

    def __post_init__(self):
        d = np.asarray(self.detunings, dtype=float)
        r = np.asarray(self.response)
        if d.ndim != 1 or r.shape != d.shape:
            raise ValueError("detunings must be 1-D and response the same shape")
        if d.size >= 2 and not np.all(np.diff(d) > 0):
            raise ValueError("detunings must be strictly increasing")
        if self.components is not None:
            total = self.components.background + self.components.pedestal + self.components.sharp_peak
            scale = np.abs(r).max(initial=0.0)
            if scale > 0 and np.abs(total - r).max() > 1e-10 * scale:
                raise ValueError("component decomposition does not sum to the response")

    @property
    def absorption(self) -> np.ndarray:
        return np.imag(self.response)

    @classmethod
    def from_response(cls, detunings, response, components=None) -> "Spectrum":
        return cls(np.asarray(detunings, dtype=float), np.asarray(response), components)


@dataclass(frozen=True)
class SolveReport:
    """What one solve did.

    n_detunings counts the detunings the solver evaluated: on a grid that
    ``solve_exact`` and ``solve_approximate`` fill in by reflection it is the
    half with detuning >= 0, not the length of the returned grid, and for a
    ``scan_delta_q`` rung it is the sum over the rung's solver calls, about
    290 of the 1300 detunings >= 0.  notes holds the doubling-check change
    when the check ran, and a scan rung's fallback to all detunings >= 0.
    n_par and n_res are the node counts of the velocity mesh behind the
    returned spectrum: the node-doubled grid's when the check ran, the given
    grid's otherwise.  n_res is 1 at dq_vth = 0 and on a collinear mesh,
    whatever the grid holds.
    """

    method: str
    n_par: int
    n_res: int
    n_detunings: int
    max_condition: float
    converged: Optional[bool] = None
    notes: str = ""

    def __post_init__(self):
        if not np.isfinite(self.max_condition):
            raise ValueError("condition estimate must be finite")


def default_detuning_grid(params: ModelParams, span: float = 2.0, n: int = 2001,
                          refine: bool = True) -> np.ndarray:
    """Symmetric detuning grid: uniform base plus log-dense center refinement.

    The refinement covers |deltap| < 10*(gamma_g + gamma_vcc) so the
    subnatural peak is resolved even when the base spacing is coarser than
    its width.
    """
    if not 0 < span < np.inf or n < 2:
        raise ValueError(f"span must be finite and > 0 and n >= 2, got span={span}, n={n}")
    inner = None
    w = 10.0 * (params.gamma_g + params.gamma_vcc)
    if refine and w > 0:
        inner = np.geomspace(max(w * 1e-6, 1e-12), min(w, span), 121)
    return _mirrored_grid(span, (n + 1) // 2, inner)


def _mirrored_grid(span, n_uniform, log_points=None):
    """linspace(0, span, n_uniform) merged with log_points, sorted and mirrored about 0."""
    pos = np.linspace(0.0, span, n_uniform)
    if log_points is not None:
        pos = np.concatenate([pos, log_points])
    pos = np.unique(pos)
    return np.concatenate([-pos[:0:-1], pos])


def _name_bad_detuning(what, detunings, ok):
    """Raise IllConditionedError naming the first detuning whose ``ok`` is false."""
    if not ok.all():
        raise IllConditionedError(f"{what} at detuning {float(detunings[np.argmin(ok)])!r}")


def _mirror_symmetric(fields: FieldConfig, detunings: np.ndarray) -> bool:
    """Whether response(-delta) = -conj(response(delta)) fills in the grid.

    With delta1 = delta2 = 0 and a real v1 conj(v2), negating the detuning
    and the velocity maps each xi to -conj(xi) and xi_d to conj(xi_d); the
    Gauss-Hermite nodes are symmetric, so the identity holds for the response
    and for each component.  The grid must be symmetric about 0.
    """
    return bool(fields.delta1 == fields.delta2 == 0
                and (fields.v1 * np.conj(fields.v2)).imag == 0
                and np.array_equal(detunings, -detunings[::-1]))


def _solve(route, method, what, params, fields, grid, detuning_grid,
           check_convergence, conv_rtol):
    """Run ``route`` on the grid's product mesh, and on the node-doubled one
    with check_convergence; each run gives (response, extra).  Returns
    (detunings, the runs in order, report with max_condition 0).  When
    ``_mirror_symmetric`` holds the route sees only the detunings >= 0, and
    the response and Components in extra are reflected for the rest."""
    if check_convergence:
        _require_tolerance(what, "conv_rtol", conv_rtol)
    detunings = np.asarray(detuning_grid, dtype=float)
    mirror = _mirror_symmetric(fields, detunings)
    solved = detunings[detunings.size // 2:] if mirror else detunings
    odd = detunings.size % 2  # an odd symmetric grid holds 0 once: do not mirror it

    def mirrored(x):
        return np.concatenate([-np.conj(x[odd:][::-1]), x]) if mirror else x

    def solve_on(g):
        # a vanishing xi_d shows in the per-detuning results the routes check
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            response, extra = route(params, fields, solved, *velocity_mesh(fields, g))
        if isinstance(extra, Components):
            extra = Components(*map(mirrored, extra))
        return mirrored(response), extra

    runs, notes, converged, used = [solve_on(grid)], "", None, grid
    spans = _spans_residual_axis(fields)
    if check_convergence:
        fine, notes = _doubling_check(what, solve_on, fields, grid, runs[0][0], conv_rtol)
        runs.append(fine)
        converged, used = True, _doubled(grid, spans)
    report = SolveReport(method=method, n_par=used.n_par, n_res=used.n_res if spans else 1,
                         n_detunings=solved.size, max_condition=0.0,
                         converged=converged, notes=notes)
    return detunings, runs, report


def _exact_response_on_mesh(params, fields, detunings, v_par, v_res, w):
    gvcc = params.gamma_vcc
    v1, v2, vp = fields.v1, fields.v2, fields.vp
    cv1, cv2 = np.conj(v1), np.conj(v2)
    toc = 1j * params.b * params.branching_A

    kernel = _PoleMoments(params, fields, detunings, v_par, v_res, w)
    avg = kernel.average
    # xi5 carries no probe-detuning dependence; close the pump dipole once
    r5 = -1j * cv2 * _strong_collision(kernel.pump, gvcc)
    c3 = -vp * (1j * gvcc * r5 + cv2)

    # Per node the system M x = r reads
    #   xi1 x0 + conj(v1) x1 - toc x2 - v2 x3 = r0
    #   v1 x0 + xi2 x1 = r1
    #   -conj(v2) x1 + xi3 x2 + v1 x3 = r2
    #   -conj(v2) x0 + xi4 x3 = r3
    # det M = xi_d, and adj(M) entries sum products m of distinct xi's with constant
    # coefficients: the node sums of M^-1 = adj(M)/xi_d take 13 averages a_m = <m/xi_d>,
    # and the probe source (0, -vp, c3/xi5, 0) four more, b_m = c3 <m/(xi5 xi_d)>.
    x1, x2, x3, x4 = kernel.xi.xi1, kernel.xi.xi2, kernel.xi.xi3, kernel.xi.xi4
    x24 = x2 * x4
    a0, a2, a4, a24, a3, a23, a34, a234, a12, a14, a124, a123, a134 = (
        avg(m) for m in (1.0, x2, x4, x24, x3, x2 * x3, x3 * x4, x24 * x3,
                         x1 * x2, x1 * x4, x1 * x24, x1 * x2 * x3, x1 * x3 * x4))
    b2, b4, b24, b124 = (c3 * avg(m, over_xi5=True) for m in (x2, x4, x24, x1 * x24))
    e1 = toc * v1 * a0 - v2 * a3
    e2, e3 = (cv1 * v1 - cv2 * v2) * a0, cv2 * toc * a0 - cv1 * a3
    Aw = np.stack([a234, cv2 * toc * a4 - cv1 * a34, toc * a24, v2 * a23 - toc * v1 * a2,
                   -v1 * a34, cv2 * e1 + a134, -toc * v1 * a4, v1 * e1,
                   -cv2 * v1 * (a2 + a4), cv2 * (e2 + a14),
                   a124 - cv1 * v1 * a4 - cv2 * v2 * a2, v1 * (e2 - a12),
                   cv2 * a23, cv2 * e3, cv2 * toc * a2, a123 + v1 * e3], axis=1).reshape(-1, 4, 4)
    bw = np.stack([toc * b24, -toc * v1 * b4, b124 - cv1 * v1 * b4 - cv2 * v2 * b2,
                   cv2 * toc * b2], axis=1) - vp * Aw[:, :, 1]
    dens = np.eye(4) - 1j * gvcc * Aw
    _name_bad_detuning("exact solve: non-finite density system", detunings,
                       np.isfinite(dens).all(axis=(1, 2)) & np.isfinite(bw).all(axis=1))
    R = np.linalg.solve(dens, bw[..., None])[..., 0]
    return R[:, 1] / vp, np.linalg.cond(dens)


# Condition estimates of the exact route's 4x4 density system: warn above, raise above.
_COND_WARN = 1e8
_COND_ERROR = 1e12


def solve_exact(params: ModelParams, fields: FieldConfig, grid: QuadratureGrid,
                detuning_grid, check_convergence: bool = True,
                conv_rtol: float = 1e-6):
    """Velocity-resolved solve of the four probe-sector coherence equations.

    Per detuning: the pump dipole is closed first (it decouples).  Each
    velocity node's 4x4 system M has det M = xi_d (``toc_determinant``), and
    the entries of adj(M) = xi_d M^-1 sum products of distinct xi's with
    constant coefficients: the node sums of M^-1 and of the probe-source
    solution are 17 thermal averages over xi_d, and over xi5 xi_d.  Each is a
    coefficient-moment sum from the moment kernel (``_PoleMoments``), which
    takes one reciprocal of xi_d per node.  They close on the four
    velocity-integrated densities.  Returns (Spectrum, SolveReport).  With
    check_convergence the whole spectrum is recomputed on a node-doubled grid
    and the finer result is kept; disagreement beyond conv_rtol raises
    NonConvergenceError, and a conv_rtol that is NaN or not > 0 raises
    ValueError before any solve.  A density system that is not finite, as a
    vanishing xi_d makes it, raises IllConditionedError naming the first such
    detuning.  With delta1 = delta2 = 0, a real v1 conj(v2) and a grid
    symmetric about 0, only the detunings >= 0 are solved, on each mesh, and
    the rest follow from response(-delta) = -conj(response(delta)):
    n_detunings counts the solved half, and IllConditionedError names a
    detuning >= 0.  The largest condition estimate of the density systems is
    reported as max_condition; above 1e8 it warns, above 1e12 it raises
    IllConditionedError.  vp = 0 raises ValueError before any solve: the
    response is per unit probe amplitude.
    """
    if fields.vp == 0:
        raise ValueError("vp must be != 0: the exact response is per unit probe amplitude")
    detunings, runs, report = _solve(
        _exact_response_on_mesh, "exact", "exact solve", params, fields, grid,
        detuning_grid, check_convergence, conv_rtol)
    max_cond = float(np.max([conds for _, conds in runs], initial=1.0))
    if max_cond > _COND_ERROR:
        raise IllConditionedError(
            f"density system condition estimate {max_cond:.3e} exceeds {_COND_ERROR:.1e}")
    if max_cond > _COND_WARN:
        warnings.warn(f"density system condition estimate {max_cond:.3e} exceeds "
                      f"{_COND_WARN:.1e}; results may lose accuracy", stacklevel=2)
    return (Spectrum.from_response(detunings, runs[-1][0]),
            replace(report, max_condition=max_cond))


def _approx_terms_on_mesh(params, fields, detunings, v_par, v_res, w):
    gvcc = params.gamma_vcc
    toc = 1j * params.b * params.branching_A * fields.v1 * np.conj(fields.v2)
    kernel = _PoleMoments(params, fields, detunings, v_par, v_res, w)
    g = []
    for spec in (G1_SPEC, G2_SPEC, G3_SPEC, G4_SPEC, G5_SPEC):
        # each numerator multiplied from its last factor, xi2 (xi3 xi4) for G1;
        # another order rounds apart
        *rest, num = (getattr(kernel.xi, f"xi{k}") for k in spec.numerator)
        for x in reversed(rest):
            num = x * num
        g.append(kernel.average(num, over_xi5=5 in spec.denominator))
    _name_bad_detuning("factored solve: non-finite velocity average (xi_d vanishes "
                       "at a node)", detunings, np.isfinite(g).all(axis=0))
    g1, g2, g3, g4, g5 = g
    bg = -g4
    ped = abs(fields.v2) ** 2 * g5
    sharp = toc * 1j * g2 * g3 * gvcc / (1.0 - 1j * g1 * gvcc)
    return bg + ped + sharp, Components(bg, ped, sharp)


def solve_approximate(params: ModelParams, fields: FieldConfig, grid: QuadratureGrid,
                      detuning_grid, check_convergence: bool = True,
                      conv_rtol: float = 1e-6):
    """Factored response from the five named thermal averages, with components.

    The averages G1..G5 (``G1_SPEC``..``G5_SPEC``) are coefficient-moment
    sums from the moment kernel (``_PoleMoments``) on the product velocity
    mesh, which takes one reciprocal of xi_d per node.  The response splits into the
    one-photon background -G4, the pump-broadened pedestal |v2|^2 G5 and the
    collision-fed sharp peak toc i G2 G3 gamma_vcc / (1 - i G1 gamma_vcc),
    with toc = i b A v1 conj(v2).

    Valid for gamma_vcc below the homogeneous width gamma_pcc + 1/2; a
    warning (not an error) is emitted outside that regime.  Returns
    (Spectrum with components, SolveReport).  With check_convergence the
    spectrum is recomputed on a node-doubled grid and the finer result is
    kept; disagreement beyond conv_rtol raises NonConvergenceError.  An
    average that is not finite, because xi_d vanishes at a node, raises
    IllConditionedError naming the first such detuning.  A mirror-symmetric
    grid is halved as in ``solve_exact``, and each component reflected too.
    """
    if params.gamma_vcc >= params.gamma_pcc + 0.5:
        warnings.warn(
            "gamma_vcc is not small against gamma_pcc + 1/2; the factored "
            "response is outside its validity regime", stacklevel=2)

    detunings, runs, report = _solve(
        _approx_terms_on_mesh, "approximate", "factored solve", params, fields, grid,
        detuning_grid, check_convergence, conv_rtol)
    return Spectrum.from_response(detunings, *runs[-1]), report


def at_rest_spectrum(params: ModelParams, fields: FieldConfig, detuning_grid) -> Spectrum:
    """Motionless, collisionless closed form of the probe response.

    Velocity-changing collisions are switched off (their rate is meaningless
    without motion) and every velocity-dependent shift vanishes, leaving a
    rational function of the detuning.  The collision-fed sharp term carries
    an explicit gamma_vcc factor and drops out; what survives is the
    pedestal plus a background that also holds the b-switched two-pump
    interference term (zero at line center for delta1 = 0, broad off it).
    A determinant xi_d that vanishes, or underflows to a subnormal, raises
    IllConditionedError naming the first such detuning.
    """
    params0 = replace(params, gamma_vcc=0.0)
    detunings = np.asarray(detuning_grid, dtype=float)
    xi = xi_set(params0, fields, 0.0, 0.0, deltap=detunings)
    xd = toc_determinant(xi, params0, fields)
    _name_bad_detuning("at-rest spectrum: xi_d vanishes or underflows", detunings,
                       np.abs(xd) >= np.finfo(float).tiny)
    toc = 1j * params0.b * params0.branching_A * fields.v1 * np.conj(fields.v2)
    bg = (-xi.xi1 * xi.xi3 * xi.xi4 + toc * (xi.xi4 - xi.xi5) / xi.xi5) / xd
    ped = abs(fields.v2) ** 2 * xi.xi3 / xd
    zero = np.zeros_like(bg)
    return Spectrum.from_response(detunings, bg + ped, Components(bg, ped, zero))
