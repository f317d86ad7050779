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

All detunings are in units of the spontaneous rate; response values are
R_{e1g2}/(n0 Vp) and absorption is its imaginary part.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .core_model import FieldConfig, ModelParams, toc_determinant, xi_set
from .velocity_integrals import (
    QuadratureGrid,
    _doubling_check,
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


def _chunks(total: int, nodes: int):
    size = max(1, _CHUNK_ELEMENTS // max(nodes, 1))
    for start in range(0, total, size):
        yield start, min(start + size, total)


def _exact_response_on_mesh(params, fields, detunings, v_par, v_res, w):
    n = v_par.size
    m = detunings.size
    gvcc = params.gamma_vcc
    v1, v2, vp = fields.v1, fields.v2, fields.vp
    cv1, cv2 = np.conj(v1), np.conj(v2)
    toc = 1j * params.b * params.branching_A * params.gamma_sp

    # xi5 carries no probe-detuning dependence; close the pump dipole once
    xi0 = xi_set(params, fields, v_par, v_res)
    gp = np.sum(w / xi0.xi5)
    r5 = cv2 * params.n0 * gp / (1.0 - 1j * gvcc * gp)
    src3_row = -vp * (1j * gvcc * r5 + cv2 * params.n0) / xi0.xi5
    w_src = w * src3_row

    response = np.empty(m, dtype=complex)
    conds = np.empty(m, dtype=float)
    eye = np.eye(4, dtype=complex)
    for a, bnd in _chunks(m, n):
        dp = detunings[a:bnd]
        # detunings (m, 1) against velocity nodes (n,) -> (m, n) factors
        xi = xi_set(params, fields, v_par, v_res, deltap=dp[:, None])
        # Per node the system M x = r reads
        #   xi1 x0 + conj(v1) x1 - toc x2 - v2 x3 = r0
        #   v1 x0 + xi2 x1 = r1
        #   -conj(v2) x1 + xi3 x2 + v1 x3 = r2
        #   -conj(v2) x0 + xi4 x3 = r3
        # Rows 1-3 give x1, x3 and x2 from x0; row 0 then leaves
        #   s x0 = r0 + p1 r1 + p2 r2 + p3 r3,  s = xi_d / (xi2 xi3 xi4).
        # xi2..xi4 have imaginary parts >= gamma_sp/2, so only xi_d can vanish.
        xd = toc_determinant(xi, params, fields)
        zero = (xd == 0).any(axis=1)
        if zero.any():
            raise IllConditionedError(
                f"exact solve: zero pivot xi_d at a velocity node, at detuning "
                f"{float(dp[zero.argmax()])!r}")
        i2, i3, i4 = 1.0 / xi.xi2, 1.0 / xi.xi3, 1.0 / xi.xi4
        inv_s = 1.0 / (xd * i2 * i3 * i4)
        p = (1.0, (toc * cv2 * i3 - cv1) * i2, toc * i3, (v2 - toc * v1 * i3) * i4)

        # column j of M^-1 is the solution for r = e_j
        Aw = np.empty((dp.size, 4, 4), dtype=complex)
        for j, r in enumerate(eye):
            x0 = p[j] * inv_s
            x1 = (r[1] - v1 * x0) * i2
            x3 = (r[3] + cv2 * x0) * i4
            x2 = (r[2] + cv2 * x1 - v1 * x3) * i3
            X = (x0, x1, x2, x3)
            for i, x in enumerate(X):
                Aw[:, i, j] = x @ w
            if j == 2:
                # the probe source (0, -vp n0, src3_row, 0) combines columns 1 and 2
                bw = np.stack([x @ w_src for x in X], axis=1)
        bw -= vp * params.n0 * Aw[:, :, 1]
        dens = eye[None, :, :] - 1j * gvcc * Aw
        bad = ~(np.isfinite(dens).all(axis=(1, 2)) & np.isfinite(bw).all(axis=1))
        if bad.any():
            raise IllConditionedError(
                f"exact solve: non-finite density system at detuning "
                f"{float(dp[bad.argmax()])!r}")
        R = np.linalg.solve(dens, bw[..., None])[..., 0]
        conds[a:bnd] = np.linalg.cond(dens)
        response[a:bnd] = R[:, 1] / (params.n0 * vp)
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
    form.  Their node-weighted sums yield a final 4x4 system for the
    velocity-integrated densities.  Returns (Spectrum, SolveReport).  With
    check_convergence the whole spectrum is recomputed on a node-doubled grid
    and the finer result is kept; disagreement beyond conv_rtol raises
    NonConvergenceError.  A vanishing pivot, or a density system that is not
    finite, raises IllConditionedError naming the first such detuning.
    """
    detunings = np.asarray(detuning_grid, dtype=float)

    def solve_on(g):
        return _exact_response_on_mesh(params, fields, detunings, *velocity_mesh(fields, g))

    response, conds = solve_on(grid)
    notes = ""
    converged = None
    if check_convergence:
        (response, conds2), notes = _doubling_check("exact solve", solve_on, fields,
                                                    grid, response, conv_rtol)
        conds = np.maximum(conds, conds2)
        converged = True

    max_cond = float(conds.max(initial=1.0))
    if max_cond > cond_error:
        raise IllConditionedError(
            f"density system condition estimate {max_cond:.3e} exceeds {cond_error:.1e}")
    if max_cond > cond_warn:
        import warnings
        warnings.warn(f"density system condition estimate {max_cond:.3e} exceeds "
                      f"{cond_warn:.1e}; results may lose accuracy", stacklevel=2)

    report = SolveReport(method="exact", n_par=grid.n_par, n_res=grid.n_res,
                         n_detunings=detunings.size, max_condition=max_cond,
                         converged=converged, notes=notes)
    return Spectrum.from_response(detunings, response), report


def _product_mesh(fields, grid):
    """``velocity_mesh`` in broadcastable product form, v_par on the last axis.

    On a transverse mesh (r = n_res nodes per v_par) v_par becomes (n_par,),
    v_res (n_res, 1) and w (n_res, n_par); otherwise (r = 1) v_par and v_res
    are (n_par,) and w is (1, n_par).  The transverse mesh is C-ordered by
    repeat/tile, so every r-th v_par and the first r v_res are the axes.  The
    long v_par axis goes last to keep numpy's inner loops long.
    """
    v_par, v_res, w = velocity_mesh(fields, grid)
    r = v_par.size // grid.n_par
    return (v_par[::r], v_res[:r, None] if r > 1 else v_res,
            np.ascontiguousarray(w.reshape(grid.n_par, r).T))


def _mesh_sum(f, x):
    """Sum of f * x over the two mesh axes, per detuning.

    x is reduced first along the axes where f is constant, so the product
    with f is taken on the small, reduced array.
    """
    along = tuple(ax for ax in (1, 2) if f.shape[ax] == 1)
    return (f * x.sum(axis=along, keepdims=True)).sum(axis=(1, 2))


def _approx_terms_on_mesh(params, fields, detunings, v_par, v_res, w):
    # Detunings sit on a leading axis against the product mesh of
    # _product_mesh.  xi1 and xi3 then follow v_res only, xi2 v_par only and
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
    # a vanishing xi_d turns its detuning's sums into inf/nan; they are
    # checked below, once, instead of every node
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for a, bnd in _chunks(detunings.size, w.size):
            xi = xi_set(params, fields, v_par, v_res, deltap=detunings[a:bnd, None, None])
            inv = w / toc_determinant(xi, params, fields)
            t = xi.xi4 * inv
            s = xi.xi3 * t
            g[0, a:bnd] = _mesh_sum(xi.xi2, s)
            g[1, a:bnd] = s.sum(axis=(1, 2))
            g[2, a:bnd] = _mesh_sum(xi.xi2, t * inv_xi5)
            g[3, a:bnd] = _mesh_sum(xi.xi1, s)
            g[4, a:bnd] = _mesh_sum(xi.xi3, inv)
    bad = ~np.isfinite(g).all(axis=0)
    if bad.any():
        raise IllConditionedError(
            f"factored solve: non-finite velocity average (xi_d vanishes at a node) "
            f"at detuning {float(detunings[bad.argmax()])!r}")
    g1, g2, g3, g4, g5 = g
    bg = -g4
    ped = abs(fields.v2) ** 2 * g5
    sharp = toc * 1j * g2 * g3 * gvcc / (1.0 - 1j * g1 * gvcc)
    return bg + ped + sharp, Components(bg, ped, sharp)


def solve_approximate(params: ModelParams, fields: FieldConfig, grid: QuadratureGrid,
                      detuning_grid, check_convergence: bool = True,
                      conv_rtol: float = 1e-6):
    """Factored response from the five named thermal averages, with components.

    The averages G1..G5 (``G1_SPEC``..``G5_SPEC``) are taken on the velocity
    mesh in its broadcastable product form, a chunk of detunings at a time,
    with one complex division per node.  The response splits into the
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
        import warnings
        warnings.warn(
            "gamma_vcc is not small against gamma_pcc + gamma_sp/2; the factored "
            "response is outside its validity regime", stacklevel=2)

    detunings = np.asarray(detuning_grid, dtype=float)

    def solve_on(g):
        return _approx_terms_on_mesh(params, fields, detunings, *_product_mesh(fields, g))

    response, parts = solve_on(grid)
    notes = ""
    converged = None
    if check_convergence:
        (response, parts), notes = _doubling_check("factored solve", solve_on, fields,
                                                   grid, response, conv_rtol)
        converged = True

    spectrum = Spectrum.from_response(detunings, response, parts)
    report = SolveReport(method="approximate", n_par=grid.n_par, n_res=grid.n_res,
                         n_detunings=detunings.size, max_condition=0.0,
                         converged=converged, notes=notes)
    return spectrum, report


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
    bad = ~(np.abs(xd) >= np.finfo(float).tiny)
    if bad.any():
        raise IllConditionedError(
            f"at-rest spectrum: xi_d vanishes or underflows at detuning "
            f"{float(detunings[bad.argmax()])!r}")
    toc = 1j * params0.b * params0.branching_A * params0.gamma_sp \
        * fields.v1 * np.conj(fields.v2)
    bg = (-xi.xi1 * xi.xi3 * xi.xi4 + toc * (xi.xi4 - xi.xi5) / xi.xi5) / xd
    ped = abs(fields.v2) ** 2 * xi.xi3 / xd
    zero = np.zeros_like(bg)
    return Spectrum.from_response(detunings, bg + ped, Components(bg, ped, zero))
