"""Diffusive atomic coherences under a stepwise beam: narrowing by flight-and-return.

All optical fields (both pumps and the probe) illuminate a sheet |x| <= a;
atoms carry ground- and excited-state coherences out of the beam, diffuse
with D = v_th^2/gamma_vcc, and re-enter with preserved phase.  The coupled
steady-state equations for the velocity-integrated coherences R_g1g2 and
R_e1e2 are

  interior:  D R_g'' - D a1^2 R_g + (bA Gamma/g_vcc)(D R_e'' + g_vcc R_e) = beta1
             D R_e'' - D a2^2 R_e + beta2 R_g = -beta3
  exterior:  same with a1 -> a3 and all field sources (beta1, beta2, beta3) absent

and the piecewise solution is cosh modes inside, decaying exponentials
outside, matched continuously in value and slope at |x| = a.  Units: rates
and Rabi amplitudes stay in spontaneous-rate units (so Gamma above is 1);
lengths are meters, so D is m^2 per unit of scaled time and the alphas and
k's are 1/m.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

from .core_model import FieldConfig, ModelParams
from .spatial_filter import DEFAULT_QP_PHYSICAL
from .spectrum_solver import Spectrum
from .velocity_integrals import _strong_collision, pole_average

__all__ = [
    "K_BOLTZMANN",
    "ATOMIC_MASS_UNIT",
    "MASS_RB85",
    "RamseyConfig",
    "RamseyCoefficients",
    "RamseySolution",
    "DiffusionResidualReport",
    "CancellationError",
    "SingularMatchingError",
    "ramsey_coefficients",
    "solve_continuity",
    "build_solution",
    "uniform_response",
    "ramsey_spectrum",
    "diffusion_operator_check",
]

K_BOLTZMANN = 1.380649e-23        # J/K
ATOMIC_MASS_UNIT = 1.66053906660e-27  # kg
MASS_RB85 = 84.911789732 * ATOMIC_MASS_UNIT


class CancellationError(RuntimeError):
    """The dispersion discriminant lost all significant digits."""


class SingularMatchingError(RuntimeError):
    """The continuity system is rank-deficient."""


@dataclass(frozen=True)
class RamseyConfig:
    """Stepwise-sheet geometry plus the SI bridge for lengths.

    The model parameters stay in spontaneous-rate units; half_width_a,
    temperature, mass, the probe wave number qp_physical (1/m, the same
    setting as the beam filter's) and the spontaneous rate gamma_sp_si
    (rad/s, the one place the rate unit has a value) fix the meter and
    second scales.  kernel_qp_vth, the one-photon kernels' Doppler scale,
    is fields.qp_vth, or where that is 0 (the constructor default) the
    bridged qp_physical v_th / gamma_sp_si; diffusion_d takes v_th from the
    SI bridge either way.  The kernels are closed-form thermal averages (see
    ramsey_coefficients), so the configuration holds no quadrature
    settings.  The sheet's functions take the detuning as an argument;
    only diffusion_operator_check reads fields.deltap.  vp = 0 is refused:
    the response is per unit probe amplitude.
    """

    params: ModelParams
    fields: FieldConfig
    half_width_a: float
    temperature: float = 300.0
    qp_physical: float = DEFAULT_QP_PHYSICAL
    mass: float = MASS_RB85
    gamma_sp_si: float = 2.0 * np.pi * 6e6

    def __post_init__(self):
        if not 0 < self.half_width_a < np.inf:
            raise ValueError(f"half_width_a must be finite and > 0 (meters), "
                             f"got {self.half_width_a}")
        if self.fields.dq_vth != 0:
            raise ValueError("stepwise-sheet solution requires dq_vth = 0")
        if self.fields.delta1 != 0 or self.fields.delta2 != 0:
            raise ValueError("stepwise-sheet solution requires delta1 = delta2 = 0")
        if not self.params.gamma_vcc > 0:
            raise ValueError("diffusion requires gamma_vcc > 0")
        if self.fields.vp == 0:
            raise ValueError("vp must be != 0: the sheet's response is per unit "
                             "probe amplitude")
        for name, val in (("temperature", self.temperature), ("qp_physical", self.qp_physical),
                          ("mass", self.mass), ("gamma_sp_si", self.gamma_sp_si)):
            if not 0 < val < np.inf:
                raise ValueError(f"{name} must be finite and > 0, got {val}")

    @property
    def v_th_si(self) -> float:
        return float(np.sqrt(K_BOLTZMANN * self.temperature / self.mass))

    @property
    def qp_vth_bridge(self) -> float:
        # Doppler scale of the probe in spontaneous-rate units
        return self.qp_physical * self.v_th_si / self.gamma_sp_si

    @property
    def diffusion_d(self) -> float:
        # m^2 per unit of scaled time (time measured in 1/Gamma, Gamma =
        # gamma_sp_si in rad/s), so the SI coefficient v_th^2/gamma_vcc_si
        # picks up one more 1/gamma_sp_si
        return (self.v_th_si / self.gamma_sp_si) ** 2 / self.params.gamma_vcc

    @property
    def diffusion_length(self) -> float:
        if self.params.gamma_g > 0:
            return float(np.sqrt(self.diffusion_d / self.params.gamma_g))
        return np.inf

    @property
    def kernel_qp_vth(self) -> float:
        return self.fields.qp_vth if self.fields.qp_vth > 0 else self.qp_vth_bridge


def _decay_root(z: complex) -> complex:
    """Square root with Re > 0; pure-imaginary ties resolved toward Im > 0."""
    r = np.sqrt(complex(z))
    if r.real < 0 or (r.real == 0 and r.imag < 0):
        r = -r
    return r


@dataclass(frozen=True)
class RamseyCoefficients:
    alpha1_sq: complex
    alpha2_sq: complex
    alpha3_sq: complex
    beta1: complex
    beta2: complex
    beta3: complex
    k1: complex
    k2: complex
    alpha2: complex
    alpha3: complex
    g0: complex
    e0: complex
    modes: Tuple[Tuple[complex, complex], Tuple[complex, complex]]
    t_factor: complex
    k_1p: complex
    k_pump: complex


def _mode_vector(d_hat, alpha2_sq, beta2, k_sq):
    gv = d_hat * (alpha2_sq - k_sq)
    ev = beta2
    ref = abs(d_hat) * (abs(alpha2_sq) + abs(k_sq)) + abs(beta2)
    nm = max(abs(gv), abs(ev))
    if ref == 0 or nm < 1e-14 * ref:
        # k coincides with the pure excited-decay mode and the cross coupling
        # vanishes: the mode lives in the excited component alone
        return (0.0 + 0.0j, 1.0 + 0.0j)
    return (gv / nm, ev / nm)


def ramsey_coefficients(cfg: RamseyConfig, deltap: float) -> RamseyCoefficients:
    """Kernels, decay constants, sources, and coupled-mode wave numbers at one detuning.

    deltap is the probe detuning; cfg sets every rate and the kernels'
    Doppler scale, kernel_qp_vth, and its fields.deltap is not read.  The
    three strong-collision one-photon kernels K = iG/(1 - i gamma_vcc G) are
    taken in closed form: with dq = delta1 = delta2 = 0 each bare average G
    has one pole linear in velocity, of width gamma_tilde + gamma_vcc, so it
    is one pole_average.  xi4 has the pole of xi2 mirrored in v, so the
    three-photon kernel equals k_1p; xi5 carries no detuning, so k_pump is
    the same closure at zero detuning.  The two interior wave numbers come
    from the quadratic in k^2 produced by inserting exp(kx) into the coupled
    system; the discriminant is guarded against catastrophic cancellation.
    """
    p = cfg.params
    f = cfg.fields
    dp = float(deltap)
    d_hat = cfg.diffusion_d
    gvcc = p.gamma_vcc
    gam = p.gamma_g
    ba = p.b * p.branching_A
    v1, v2, vp = f.v1, f.v2, f.vp

    if gam == 0 and dp == 0:
        # alpha3^2 = (gamma_g - i deltap)/D vanishes: the exterior ground
        # coherence would not decay away from the sheet
        raise ValueError("the sheet's exterior ground coherence does not decay at "
                         "gamma_g = 0 and deltap = 0; set gamma_g > 0 or leave "
                         "deltap = 0 off the detuning grid")
    q = cfg.kernel_qp_vth
    width = p.gamma_tilde + gvcc
    k_1p = _strong_collision(pole_average(dp, q, width), gvcc)
    k_pump = _strong_collision(pole_average(0.0, q, width), gvcc)

    alpha3_sq = (-1j * dp + gam) / d_hat
    alpha2_sq = alpha3_sq + 1.0 / d_hat
    alpha1_sq = (-1j * dp + gam
                 + k_1p * abs(v1) ** 2 + k_1p * abs(v2) ** 2) / d_hat
    beta1 = np.conj(v1) * vp * k_1p
    beta2 = v1 * np.conj(v2) * (2.0 * k_1p)
    beta3 = np.conj(v2) * vp * (k_1p + k_pump)

    ap2 = alpha1_sq + alpha2_sq
    am2 = alpha2_sq - alpha1_sq
    bb2 = ba * beta2
    t1 = (d_hat * gvcc * am2) ** 2
    t2 = bb2 * (2.0 * d_hat * gvcc * ap2 + bb2 + 4.0 * gvcc**2)
    disc = t1 + t2
    mag = abs(t1) + abs(t2)
    if mag > 0 and abs(disc) < 1e-13 * mag:
        raise CancellationError(
            f"dispersion discriminant {disc:.3e} is below the significance floor "
            f"of its terms ({mag:.3e})")
    root = np.sqrt(disc)
    k1_sq = (d_hat * gvcc * ap2 + bb2 - root) / (2.0 * d_hat * gvcc)
    k2_sq = (d_hat * gvcc * ap2 + bb2 + root) / (2.0 * d_hat * gvcc)
    k1 = _decay_root(k1_sq)
    k2 = _decay_root(k2_sq)
    alpha2 = _decay_root(alpha2_sq)
    alpha3 = _decay_root(alpha3_sq)

    det0 = d_hat**2 * alpha1_sq * alpha2_sq - ba * beta2
    scale0 = abs(d_hat**2 * alpha1_sq * alpha2_sq) + abs(ba * beta2)
    if scale0 > 0 and abs(det0) < 1e-13 * scale0:
        raise CancellationError("uniform-drive system is numerically singular")
    g0 = (ba * beta3 - d_hat * alpha2_sq * beta1) / det0
    e0 = (d_hat * alpha1_sq * beta3 - beta2 * beta1) / det0

    modes = (_mode_vector(d_hat, alpha2_sq, beta2, k1_sq),
             _mode_vector(d_hat, alpha2_sq, beta2, k2_sq))
    # exterior ground coherence fed by the excited tail through the decay branching
    t_factor = ba * (gvcc + d_hat * alpha2_sq) / (d_hat * gvcc * (alpha3_sq - alpha2_sq))

    return RamseyCoefficients(
        alpha1_sq=complex(alpha1_sq), alpha2_sq=complex(alpha2_sq),
        alpha3_sq=complex(alpha3_sq), beta1=complex(beta1), beta2=complex(beta2),
        beta3=complex(beta3), k1=complex(k1), k2=complex(k2),
        alpha2=complex(alpha2), alpha3=complex(alpha3),
        g0=complex(g0), e0=complex(e0), modes=modes, t_factor=complex(t_factor),
        k_1p=complex(k_1p), k_pump=complex(k_pump))


def solve_continuity(cfg: RamseyConfig, co: RamseyCoefficients):
    """Match interior cosh modes to exterior exponentials at |x| = a.

    Unknowns: C1, C2 scale the interior modes (cosh(k_i x)/cosh(k_i a)
    basis); C3 scales the exterior excited exponential exp(-alpha2(|x|-a))
    whose branching feed-through t_factor*C3 enters the ground coherence;
    C4 scales the free exterior ground exponential exp(-alpha3(|x|-a)).
    Returns (c_vector, relative_residuals).
    """
    a = cfg.half_width_a
    (gv1, ev1), (gv2, ev2) = co.modes
    th1 = np.tanh(co.k1 * a)
    th2 = np.tanh(co.k2 * a)

    mat = np.array([
        [gv1, gv2, -co.t_factor, -1.0],
        [ev1, ev2, -1.0, 0.0],
        [gv1 * co.k1 * th1, gv2 * co.k2 * th2, co.alpha2 * co.t_factor, co.alpha3],
        [ev1 * co.k1 * th1, ev2 * co.k2 * th2, co.alpha2, 0.0],
    ], dtype=complex)
    rhs = np.array([-co.g0, -co.e0, 0.0, 0.0], dtype=complex)

    cond = np.linalg.cond(mat)
    if not np.isfinite(cond) or cond > 1e13:
        raise SingularMatchingError(
            f"continuity matrix condition {cond:.3e}; modes too close to degenerate")
    c = np.linalg.solve(mat, rhs)
    resid = mat @ c - rhs
    scale = np.abs(mat) @ np.abs(c) + np.abs(rhs)
    rel = np.abs(resid) / np.maximum(scale, np.finfo(float).tiny)
    return c, rel


@dataclass(frozen=True)
class RamseySolution:
    """Piecewise coherence fields at one probe detuning.

    Interior (|x| <= a): R = const + C1*mode1*phi1(x) + C2*mode2*phi2(x) with
    phi_i(x) = cosh(k_i x)/cosh(k_i a).  Exterior: decaying exponentials in
    |x| - a.  The coherences are per unit atom density.  response is the
    beam-averaged probe coherence over Vp, per unit density and probe
    amplitude as in ``spectrum_solver``; p_delta its imaginary part.  cfg
    is the configuration solved, after a rebuild the perturbed one.
    """

    cfg: RamseyConfig
    coefficients: RamseyCoefficients
    c1: complex
    c2: complex
    c3: complex
    c4: complex
    continuity_residuals: np.ndarray
    response: complex

    def __post_init__(self):
        co = self.coefficients
        for name, z in (("k1", co.k1), ("k2", co.k2)):
            if z.real < 0:
                raise ValueError(f"{name} must have Re >= 0, got {z}")
        for name, z in (("alpha2", co.alpha2), ("alpha3", co.alpha3)):
            if not z.real > 0:
                raise ValueError(f"exterior decay {name} must have Re > 0, got {z}")
        if np.max(self.continuity_residuals) > 1e-8:
            raise RuntimeError(
                f"continuity residuals {self.continuity_residuals} exceed 1e-8")

    @property
    def p_delta(self) -> float:
        return float(np.imag(self.response))

    def _phi(self, k: complex, x: np.ndarray) -> np.ndarray:
        # cosh(kx)/cosh(ka) evaluated without overflow for |x| <= a, Re k >= 0
        a = self.cfg.half_width_a
        num = np.exp(k * (x - a)) + np.exp(-k * (x + a))
        return num / (1.0 + np.exp(-2.0 * k * a))

    def _piecewise(self, x, interior_fn, exterior_fn) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros(x.shape, dtype=complex)
        s = np.abs(x)
        inside = s <= self.cfg.half_width_a
        if np.any(inside):
            out[inside] = interior_fn(x[inside])
        if np.any(~inside):
            out[~inside] = exterior_fn(s[~inside] - self.cfg.half_width_a)
        return out

    def rg(self, x) -> np.ndarray:
        """Ground-state coherence R_g1g2(x)."""
        co = self.coefficients
        (gv1, _), (gv2, _) = co.modes

        def inner(xi):
            return (co.g0 + self.c1 * gv1 * self._phi(co.k1, xi)
                    + self.c2 * gv2 * self._phi(co.k2, xi))

        def outer(s):
            return (co.t_factor * self.c3 * np.exp(-co.alpha2 * s)
                    + self.c4 * np.exp(-co.alpha3 * s))

        return self._piecewise(x, inner, outer)

    def re_excited(self, x) -> np.ndarray:
        """Excited-state coherence R_e1e2(x)."""
        co = self.coefficients
        (_, ev1), (_, ev2) = co.modes

        def inner(xi):
            return (co.e0 + self.c1 * ev1 * self._phi(co.k1, xi)
                    + self.c2 * ev2 * self._phi(co.k2, xi))

        def outer(s):
            return self.c3 * np.exp(-co.alpha2 * s)

        return self._piecewise(x, inner, outer)

    def probe_coherence(self, x) -> np.ndarray:
        """Probe-transition coherence; zero outside the sheet (no probe there)."""
        co = self.coefficients
        f = self.cfg.fields

        def inner(xi):
            return 1j * co.k_1p * (f.v1 * self.rg(xi) + f.vp)

        def outer(s):
            return np.zeros(s.shape, dtype=complex)

        return self._piecewise(x, inner, outer)


def build_solution(cfg: RamseyConfig, deltap: float) -> RamseySolution:
    """Coefficients, continuity solve, and beam-averaged response at detuning deltap."""
    fields = cfg.fields
    co = ramsey_coefficients(cfg, deltap)

    trigger = None
    if abs(co.k1 - co.k2) < 1e-8 * (abs(co.k1) + abs(co.k2)):
        trigger = "degenerate diffusion modes"
    else:
        try:
            c, resid = solve_continuity(cfg, co)
        except SingularMatchingError:
            trigger = "continuity matrix singular"
    if trigger is not None:
        warnings.warn(f"{trigger}; perturbing gamma_vcc by 1e-9 relative", stacklevel=2)
        cfg = replace(cfg, params=replace(cfg.params,
                                          gamma_vcc=cfg.params.gamma_vcc * (1 + 1e-9)))
        co = ramsey_coefficients(cfg, deltap)
        c, resid = solve_continuity(cfg, co)

    a = cfg.half_width_a
    (gv1, _), (gv2, _) = co.modes
    # beam average of cosh(kx)/cosh(ka) over [-a, a] is tanh(ka)/(ka)
    mp1 = np.tanh(co.k1 * a) / (co.k1 * a) if co.k1 != 0 else 1.0
    mp2 = np.tanh(co.k2 * a) / (co.k2 * a) if co.k2 != 0 else 1.0
    rbar_g = co.g0 + c[0] * gv1 * mp1 + c[1] * gv2 * mp2
    response = 1j * co.k_1p * (fields.v1 * rbar_g + fields.vp) / fields.vp

    return RamseySolution(
        cfg=cfg, coefficients=co, c1=complex(c[0]), c2=complex(c[1]),
        c3=complex(c[2]), c4=complex(c[3]), continuity_residuals=resid,
        response=complex(response))


def uniform_response(cfg: RamseyConfig, deltap: float) -> complex:
    """Plane-illumination limit: gradient-free solution of the coupled system."""
    fields = cfg.fields
    co = ramsey_coefficients(cfg, deltap)
    return complex(1j * co.k_1p * (fields.v1 * co.g0 + fields.vp) / fields.vp)


def ramsey_spectrum(cfg: RamseyConfig, detuning_grid) -> Spectrum:
    """Beam-averaged absorption spectrum of the stepwise sheet."""
    detunings = np.asarray(detuning_grid, dtype=float)
    response = np.array([build_solution(cfg, dp).response for dp in detunings])
    return Spectrum.from_response(detunings, response)


@dataclass(frozen=True)
class DiffusionResidualReport:
    max_residual: float
    residual_ground: float
    residual_excited: float


def diffusion_operator_check(cfg: RamseyConfig, rg_fn=None) -> DiffusionResidualReport:
    """Finite-difference residual of the coupled diffusion equations.

    The solution checked is ``build_solution(cfg, cfg.fields.deltap)``:
    this is the one reader of the configured detuning.  The solution's cfg,
    the one it was solved at, gives the rates and a.  rg_fn, if given,
    replaces its ground coherence (a test can pass a wrong profile).  Second derivatives are taken with a three-point stencil at
    spacings h and h/2 and Richardson-extrapolated, so the stencil's own
    O(h^2) error cancels and the reported residual reflects the solution, not
    the stencil.  h = min(0.01/k_max, 0.05 a), with k_max the largest decay
    constant.  33 points inside the sheet and up to 66 outside are checked;
    points adjacent to |x| = a are excluded (one-sided kinks are matched, not
    smooth).  Residuals are relative to the largest single term of each
    equation; an all-zero configuration reports zero.
    """
    solution = build_solution(cfg, cfg.fields.deltap)
    co = solution.coefficients
    rg = rg_fn if rg_fn is not None else solution.rg
    re = solution.re_excited

    p = solution.cfg.params
    a = solution.cfg.half_width_a
    d_hat = solution.cfg.diffusion_d
    ba = p.b * p.branching_A
    gvcc = p.gamma_vcc

    kmax = max(abs(co.k1), abs(co.k2), abs(co.alpha2), abs(co.alpha3), 1e-10)
    # small enough for the stencil, large enough that float rounding in the
    # second difference stays below the 1e-6 target; on very thin sheets
    # (a << the rounding-limited spacing) the 0.05 a cap lets rounding dominate
    h = min(0.01 / kmax, 0.05 * a)

    x_in = np.linspace(-0.85 * a, 0.85 * a, 33)
    s2 = np.linspace(0.1, 2.0, 33) / co.alpha2.real
    s3 = np.linspace(0.1, 2.0, 33) / co.alpha3.real
    x_out = a + np.unique(np.concatenate([s2, s3]))
    x_out = x_out[x_out - h > a]

    def d2(f, x, hh):
        return (f(x + hh) - 2.0 * f(x) + f(x - hh)) / hh**2

    def residuals(x, hh, interior: bool):
        rg_x, re_x = rg(x), re(x)
        rg_dd, re_dd = d2(rg, x, hh), d2(re, x, hh)
        a1sq = co.alpha1_sq if interior else co.alpha3_sq
        r_g = (d_hat * rg_dd - d_hat * a1sq * rg_x
               + (ba / gvcc) * (d_hat * re_dd + gvcc * re_x))
        r_e = d_hat * re_dd - d_hat * co.alpha2_sq * re_x
        if interior:
            r_g = r_g - co.beta1
            r_e = r_e + co.beta2 * rg_x + co.beta3
        terms_g = [np.abs(d_hat * rg_dd), np.abs(d_hat * a1sq * rg_x),
                   np.abs((ba / gvcc) * d_hat * re_dd), np.abs(ba * re_x),
                   np.full(x.shape, abs(co.beta1) if interior else 0.0)]
        terms_e = [np.abs(d_hat * re_dd), np.abs(d_hat * co.alpha2_sq * re_x),
                   np.full(x.shape, abs(co.beta3) if interior else 0.0)]
        if interior:
            terms_e.append(np.abs(co.beta2 * rg_x))
        return r_g, r_e, max(t.max(initial=0.0) for t in terms_g), \
            max(t.max(initial=0.0) for t in terms_e)

    max_g = max_e = 0.0
    scale_g = scale_e = 0.0
    for x, interior in ((x_in, True), (x_out, False)):
        if x.size == 0:
            continue
        rg1, re1, sg1, se1 = residuals(x, h, interior)
        rg2, re2, sg2, se2 = residuals(x, h / 2.0, interior)
        rich_g = (4.0 * rg2 - rg1) / 3.0
        rich_e = (4.0 * re2 - re1) / 3.0
        max_g = max(max_g, np.abs(rich_g).max())
        max_e = max(max_e, np.abs(rich_e).max())
        scale_g = max(scale_g, sg1, sg2)
        scale_e = max(scale_e, se1, se2)

    rel_g = max_g / scale_g if scale_g > 0 else 0.0
    rel_e = max_e / scale_e if scale_e > 0 else 0.0
    return DiffusionResidualReport(
        max_residual=float(max(rel_g, rel_e)), residual_ground=float(rel_g),
        residual_excited=float(rel_e))
