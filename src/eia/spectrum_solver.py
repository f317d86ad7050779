"""Probe absorption spectra for the driven four-level system.

Three routes to R_{e1g2}/(n0 Vp):

* ``solve_exact`` eliminates the per-velocity 4x4 coherence system down to one
  scalar pivot per node, xi_d / (xi2 xi3 xi4), and closes the strong-collision
  velocity-changing terms self-consistently on the four velocity-integrated
  densities.
* ``solve_approximate`` evaluates the factored response built from the five
  named thermal averages G1..G5, including its three-way split into one-photon
  background, pump-broadened pedestal, and the sharp collision-induced peak.
* ``at_rest_spectrum`` is the motionless, collisionless closed form of the
  response.

The first two share one solve routine, which walks chunks of detunings on the
product velocity mesh of ``velocity_integrals``.  A vanishing xi_d shows as a
non-finite result; IllConditionedError names the first such detuning.

All detunings are in units of the spontaneous rate; response values are
R_{e1g2}/(n0 Vp) and absorption is its imaginary part.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .core_model import FieldConfig, ModelParams, toc_determinant, xi_set
from .velocity_integrals import (
    QuadratureGrid,
    _doubling_check,
    _mesh_sum,
    _product_mesh,
    _strong_collision,
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

    response is R_{e1g2}/(n0 Vp); absorption = Im(response).  When the
    three-way decomposition is available its parts must sum back to the
    response (checked to 1e-10 relative).
    """

    detunings: np.ndarray
    response: np.ndarray
    absorption: np.ndarray
    components: Optional[Components] = None

    def __post_init__(self):
        d = np.asarray(self.detunings, dtype=float)
        r = np.asarray(self.response)
        if d.ndim != 1 or r.shape != d.shape:
            raise ValueError("detunings must be 1-D and response the same shape")
        if d.size >= 2 and not np.all(np.diff(d) > 0):
            raise ValueError("detunings must be strictly increasing")
        if not np.allclose(self.absorption, np.imag(r), rtol=0, atol=1e-12 * max(1.0, np.abs(r).max(initial=0.0))):
            raise ValueError("absorption must equal Im(response)")
        if self.components is not None:
            total = self.components.background + self.components.pedestal + self.components.sharp_peak
            scale = np.abs(r).max(initial=0.0)
            if scale > 0 and np.abs(total - r).max() > 1e-10 * scale:
                raise ValueError("component decomposition does not sum to the response")

    @classmethod
    def from_response(cls, detunings, response, components=None) -> "Spectrum":
        response = np.asarray(response)
        return cls(np.asarray(detunings, dtype=float), response,
                   np.imag(response), components)


@dataclass(frozen=True)
class SolveReport:
    """What one solve did.

    n_detunings counts the detunings the solver evaluated: for a spectrum
    filled in by reflection (``_solve_mirrored``) that is the half with
    detuning >= 0, not the length of the returned grid, and for a
    ``scan_delta_q`` rung it is the sum over the rung's solver calls, about
    290 of the 1300 detunings >= 0.  notes holds the doubling-check change
    when the check ran, and a scan rung's fallback to all detunings >= 0.
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
    if span <= 0 or n < 2:
        raise ValueError("span must be > 0 and n >= 2")
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


# Mesh elements (detunings x velocity nodes) per chunk: each full-size
# temporary stays near 0.5 MB, and larger chunks measured slower on both routes.
_CHUNK_ELEMENTS = 30_000


def _mesh_chunks(params, fields, detunings, v_par, v_res, w):
    """The detuning loop of both routes: yields (slice, XiSet) per chunk, with
    the chunk's detunings as (m, 1, 1) against ``_product_mesh``'s mesh."""
    # Allocation order, measured on exact_fig2 (glibc, 2 vCPUs): a callback loop
    # that frees each chunk first ran 1.7x slower, and xi_d built here, while
    # the caller holds the last XiSet, 2-8% slower: fresh pages fault in.
    size = max(1, _CHUNK_ELEMENTS // w.size)
    for a in range(0, detunings.size, size):
        xi = xi_set(params, fields, v_par, v_res, deltap=detunings[a:a + size, None, None])
        yield slice(a, a + size), xi


def _name_bad_detuning(what, detunings, ok):
    """Raise IllConditionedError naming the first detuning whose ``ok`` is false."""
    if not ok.all():
        raise IllConditionedError(f"{what} at detuning {float(detunings[np.argmin(ok)])!r}")


def _solve(route, method, what, params, fields, grid, detuning_grid,
           check_convergence, conv_rtol):
    """Run ``route`` on the grid's product mesh, and on the node-doubled one
    with check_convergence; each run gives (response, extra).  Returns
    (detunings, the runs in order, report with max_condition 0)."""
    detunings = np.asarray(detuning_grid, dtype=float)

    def solve_on(g):
        # a vanishing xi_d shows in the per-detuning results the routes check
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return route(params, fields, detunings, *_product_mesh(fields, g))

    runs, notes, converged = [solve_on(grid)], "", None
    if check_convergence:
        fine, notes = _doubling_check(what, solve_on, fields, grid, runs[0][0], conv_rtol)
        runs.append(fine)
        converged = True
    report = SolveReport(method=method, n_par=grid.n_par, n_res=grid.n_res,
                         n_detunings=detunings.size, max_condition=0.0,
                         converged=converged, notes=notes)
    return detunings, runs, report


def _exact_response_on_mesh(params, fields, detunings, v_par, v_res, w):
    gvcc = params.gamma_vcc
    v1, v2, vp = fields.v1, fields.v2, fields.vp
    cv1, cv2 = np.conj(v1), np.conj(v2)
    toc = 1j * params.b * params.branching_A * params.gamma_sp

    # xi5 carries no probe-detuning dependence; close the pump dipole once
    xi0 = xi_set(params, fields, v_par, v_res)
    r5 = -1j * cv2 * params.n0 * _strong_collision(np.sum(w / xi0.xi5), gvcc)
    src3_row = -vp * (1j * gvcc * r5 + cv2 * params.n0) / xi0.xi5
    w_src = (w * src3_row).ravel()
    w_nodes = w.ravel()

    response = np.empty(detunings.size, dtype=complex)
    conds = np.empty(detunings.size, dtype=float)
    eye = np.eye(4, dtype=complex)
    for chunk, xi in _mesh_chunks(params, fields, detunings, v_par, v_res, w):
        xd = toc_determinant(xi, params, fields)
        m = xd.shape[0]
        # Per node the system M x = r reads
        #   xi1 x0 + conj(v1) x1 - toc x2 - v2 x3 = r0
        #   v1 x0 + xi2 x1 = r1
        #   -conj(v2) x1 + xi3 x2 + v1 x3 = r2
        #   -conj(v2) x0 + xi4 x3 = r3
        # Rows 1-3 give x1, x3 and x2 from x0; row 0 then leaves
        #   s x0 = r0 + p1 r1 + p2 r2 + p3 r3,  s = xi_d / (xi2 xi3 xi4).
        # xi2..xi4 have imaginary parts >= gamma_sp/2, so only xi_d can vanish.
        i2, i3, i4 = 1.0 / xi.xi2, 1.0 / xi.xi3, 1.0 / xi.xi4
        # one-axis inverses made full-size: broadcast complex products run ~1.5x slower
        i2, i3 = (np.ascontiguousarray(np.broadcast_to(i, xd.shape)) for i in (i2, i3))
        inv_s = 1.0 / (xd * i2 * i3 * i4)
        p = (1.0, (toc * cv2 * i3 - cv1) * i2, toc * i3, (v2 - toc * v1 * i3) * i4)

        # column j of M^-1 is the solution for r = e_j
        Aw = np.empty((m, 4, 4), dtype=complex)
        for j, r in enumerate(eye):
            x0 = p[j] * inv_s
            x1 = (r[1] - v1 * x0) * i2
            x3 = (r[3] + cv2 * x0) * i4
            x2 = (r[2] + cv2 * x1 - v1 * x3) * i3
            X = [x.reshape(m, -1) for x in (x0, x1, x2, x3)]
            for i, x in enumerate(X):
                Aw[:, i, j] = x @ w_nodes
            if j == 2:
                # the probe source (0, -vp n0, src3_row, 0) combines columns 1 and 2
                bw = np.stack([x @ w_src for x in X], axis=1)
        bw -= vp * params.n0 * Aw[:, :, 1]
        dens = eye[None, :, :] - 1j * gvcc * Aw
        _name_bad_detuning("exact solve: non-finite density system", detunings[chunk],
                           np.isfinite(dens).all(axis=(1, 2)) & np.isfinite(bw).all(axis=1))
        R = np.linalg.solve(dens, bw[..., None])[..., 0]
        conds[chunk] = np.linalg.cond(dens)
        response[chunk] = R[:, 1] / (params.n0 * vp)
    return response, conds


def solve_exact(params: ModelParams, fields: FieldConfig, grid: QuadratureGrid,
                detuning_grid, check_convergence: bool = True,
                conv_rtol: float = 1e-6, cond_warn: float = 1e8,
                cond_error: float = 1e12):
    """Velocity-resolved solve of the four probe-sector coherence equations.

    Per detuning: the pump dipole is closed first (it decouples).  Each
    velocity node's 4x4 system is eliminated by hand: its last three rows
    express three coherences through the first, whose coefficient is the
    scalar pivot xi_d / (xi2 xi3 xi4), with xi_d the ``toc_determinant``.
    This gives the node's inverse and its probe-source solution in closed
    form.  Each inverse entry spans the whole (m, r, n_par) product mesh, and
    one matrix-vector product with the flattened weights gives its node sum.
    These sums yield a final 4x4 system for the velocity-integrated
    densities.  Returns (Spectrum, SolveReport).  With check_convergence the
    whole spectrum is recomputed on a node-doubled grid and the finer result
    is kept; disagreement beyond conv_rtol raises NonConvergenceError.  A
    density system that is not finite, as a vanishing pivot makes it, raises
    IllConditionedError naming the first such detuning.
    """
    detunings, runs, report = _solve(
        _exact_response_on_mesh, "exact", "exact solve", params, fields, grid,
        detuning_grid, check_convergence, conv_rtol)
    max_cond = float(np.max([conds for _, conds in runs], initial=1.0))
    if max_cond > cond_error:
        raise IllConditionedError(
            f"density system condition estimate {max_cond:.3e} exceeds {cond_error:.1e}")
    if max_cond > cond_warn:
        warnings.warn(f"density system condition estimate {max_cond:.3e} exceeds "
                      f"{cond_warn:.1e}; results may lose accuracy", stacklevel=2)
    return (Spectrum.from_response(detunings, runs[-1][0]),
            replace(report, max_condition=max_cond))


def _approx_terms_on_mesh(params, fields, detunings, v_par, v_res, w):
    # On the product mesh xi1 and xi3 follow v_res only, xi2 v_par only and
    # xi5 no detuning, so only xi4 and xi_d are full (m, r, n_par) arrays.
    # With inv = w / xi_d, the one complex division per node, T = xi4 inv and
    # S = xi3 T:
    #   G1 = <xi2 xi3 xi4/d>     = sum xi2 S
    #   G2 = <xi3 xi4/d>         = sum S
    #   G3 = <xi2 xi4/(xi5 d)>   = sum xi2 T / xi5
    #   G4 = <xi1 xi3 xi4/d>     = sum xi1 S
    #   G5 = <xi3/d>             = sum xi3 inv
    gvcc = params.gamma_vcc
    toc = 1j * params.b * params.branching_A * params.gamma_sp * fields.v1 * np.conj(fields.v2)
    inv_xi5 = 1.0 / xi_set(params, fields, v_par, v_res).xi5

    g = np.empty((5, detunings.size), dtype=complex)
    for chunk, xi in _mesh_chunks(params, fields, detunings, v_par, v_res, w):
        inv = w / toc_determinant(xi, params, fields)
        t = xi.xi4 * inv
        s = xi.xi3 * t
        g[0, chunk] = _mesh_sum(xi.xi2, s)
        g[1, chunk] = s.sum(axis=(1, 2))
        g[2, chunk] = _mesh_sum(xi.xi2, t * inv_xi5)
        g[3, chunk] = _mesh_sum(xi.xi1, s)
        g[4, chunk] = _mesh_sum(xi.xi3, inv)
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

    The averages G1..G5 (``G1_SPEC``..``G5_SPEC``) are taken on the product
    velocity mesh with one complex division per node.  The response splits into the
    one-photon background -G4, the pump-broadened pedestal |v2|^2 G5 and the
    collision-fed sharp peak toc i G2 G3 gamma_vcc / (1 - i G1 gamma_vcc),
    with toc = i b A gamma_sp v1 conj(v2).

    Valid for gamma_vcc below the homogeneous width Gamma_pcc + Gamma/2; a
    warning (not an error) is emitted outside that regime.  Returns
    (Spectrum with components, SolveReport).  With check_convergence the
    spectrum is recomputed on a node-doubled grid and the finer result is
    kept; disagreement beyond conv_rtol raises NonConvergenceError.  An
    average that is not finite, because xi_d vanishes at a node, raises
    IllConditionedError naming the first such detuning.
    """
    if params.gamma_vcc >= params.gamma_pcc + 0.5 * params.gamma_sp:
        warnings.warn(
            "gamma_vcc is not small against gamma_pcc + gamma_sp/2; the factored "
            "response is outside its validity regime", stacklevel=2)

    detunings, runs, report = _solve(
        _approx_terms_on_mesh, "approximate", "factored solve", params, fields, grid,
        detuning_grid, check_convergence, conv_rtol)
    return Spectrum.from_response(detunings, *runs[-1]), report


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


def _solve_mirrored(solver, params: ModelParams, fields: FieldConfig,
                    grid: QuadratureGrid, detuning_grid, **kwargs):
    """``solver`` (``solve_exact`` or ``solve_approximate``) on a grid
    symmetric about 0, evaluating only the detunings >= 0 when it may.

    The negative half is filled in from response(-delta) =
    -conj(response(delta)) when ``_mirror_symmetric`` holds; otherwise this
    is the plain solver call.  The report's n_detunings counts the detunings
    solved.
    """
    d = np.asarray(detuning_grid, dtype=float)
    if not _mirror_symmetric(fields, d):
        return solver(params, fields, grid, detuning_grid, **kwargs)
    spectrum, report = solver(params, fields, grid, d[d.size // 2:], **kwargs)
    odd = d.size % 2  # an odd grid holds 0 once: do not mirror it

    def mirrored(x):
        return np.concatenate([-np.conj(x[odd:][::-1]), x])

    components = spectrum.components
    if components is not None:
        components = Components(*map(mirrored, components))
    return Spectrum.from_response(d, mirrored(spectrum.response), components), report


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
    toc = 1j * params0.b * params0.branching_A * params0.gamma_sp \
        * fields.v1 * np.conj(fields.v2)
    bg = (-xi.xi1 * xi.xi3 * xi.xi4 + toc * (xi.xi4 - xi.xi5) / xi.xi5) / xd
    ped = abs(fields.v2) ** 2 * xi.xi3 / xd
    zero = np.zeros_like(bg)
    return Spectrum.from_response(detunings, bg + ped, Components(bg, ped, zero))
