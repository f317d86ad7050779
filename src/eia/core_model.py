"""Four-level N-system parameters and the per-velocity complex-frequency algebra.

Conventions used across the package:

* every rate and detuning is dimensionless, in units of the spontaneous
  emission rate Gamma.  Gamma is the unit, not a parameter: it enters the
  formulas as the literal 1 (the 1/2 of ``gamma_tilde``, the 1 of xi3's
  width, the coherence-transfer coefficient i b A v1 conj(v2));
* velocities are in units of the thermal speed v_th, and the only coupling
  between the frequency and velocity scales is the pair of Doppler parameters
  ``qp_vth`` (probe wavevector times v_th) and ``dq_vth`` (pump-probe
  wavevector mismatch times v_th);
* Rabi frequencies may be complex; relative pump phase enters the dynamics
  only through v1*conj(v2);
* every probe response is linear, per unit atom density and per unit probe
  amplitude, R_{e1g2}/(n0 Vp): the density n0 cancels from it, so no
  parameter carries it.
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "FieldConfig",
    "XiSet",
    "xi_set",
    "toc_determinant",
]


def _require_finite(obj, names) -> None:
    for name in names:
        value = getattr(obj, name)
        if not cmath.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class ModelParams:
    """Atomic and collisional rates plus the coherence-transfer switch.

    gamma_pcc   pressure broadening from phase-changing collisions
    gamma_vcc   velocity-thermalization rate (strong-collision model)
    gamma_g     decoherence of the ground (and bare excited) coherence
    b           transfer-of-coherence switch, exactly 0 or 1
    branching_A branching amplitude A in (0, 1); A**2 is the branching ratio

    Every rate is in units of the spontaneous rate Gamma, which is therefore
    1 and no field; responses are per unit atom density (module docstring),
    so no field holds that either.
    """

    gamma_pcc: float = 0.0
    gamma_vcc: float = 0.0
    gamma_g: float = 0.0
    b: int = 1
    branching_A: float = 0.816

    def __post_init__(self):
        _require_finite(self, ("gamma_pcc", "gamma_vcc", "gamma_g", "branching_A"))
        for name in ("gamma_pcc", "gamma_vcc", "gamma_g"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.b not in (0, 1):
            raise ValueError(f"b must be exactly 0 or 1, got {self.b}")
        if not 0.0 < self.branching_A < 1.0:
            raise ValueError(
                f"branching_A must lie in (0, 1), got {self.branching_A}"
            )

    @property
    def gamma_tilde(self) -> float:
        # optical transverse decay: 1/2 + gamma_pcc + gamma_g
        return 0.5 + self.gamma_pcc + self.gamma_g


_DQ_DIRECTIONS = ("transverse", "collinear")


@dataclass(frozen=True)
class FieldConfig:
    """Driving fields and beam geometry.

    v1, v2      pump Rabi frequencies (complex allowed)
    vp          probe Rabi frequency; must stay well below the pumps for the
                first-order-in-probe treatment to hold (warned, not enforced)
    delta1, delta2, deltap   one-photon detunings
    qp_vth      one-photon Doppler scale q_p * v_th
    dq_vth      residual Doppler scale |dq| * v_th, dq = q_p - q_pump
    dq_direction  'transverse' (angular mismatch, dq perpendicular to q_p) or
                'collinear' (frequency mismatch, dq parallel to q_p)
    """

    v1: complex = 0.0816
    v2: complex = 0.1
    vp: complex = 0.001
    delta1: float = 0.0
    delta2: float = 0.0
    deltap: float = 0.0
    qp_vth: float = 0.0
    dq_vth: float = 0.0
    dq_direction: str = "transverse"

    def __post_init__(self):
        _require_finite(self, ("v1", "v2", "vp", "delta1", "delta2", "deltap",
                               "qp_vth", "dq_vth"))
        if self.qp_vth < 0 or self.dq_vth < 0:
            raise ValueError("qp_vth and dq_vth must be >= 0")
        if self.dq_direction not in _DQ_DIRECTIONS:
            raise ValueError(
                f"dq_direction must be one of {_DQ_DIRECTIONS}, got {self.dq_direction!r}"
            )
        vmin = min(abs(self.v1), abs(self.v2))
        # weak-probe validity; meaningless at pump-off, so only warn when pumps are on
        if vmin > 0 and abs(self.vp) > 0.1 * vmin:
            warnings.warn(
                f"|vp| = {abs(self.vp):.3g} exceeds 0.1*min(|v1|,|v2|) = {0.1 * vmin:.3g}; "
                "first-order-in-probe treatment may be inaccurate",
                stacklevel=2,
            )


@dataclass(frozen=True)
class XiSet:
    """The five complex frequencies at one velocity (or an array of them)."""

    xi1: complex
    xi2: complex
    xi3: complex
    xi4: complex
    xi5: complex


def xi_set(params: ModelParams, fields: FieldConfig, v_par, v_res, deltap=None) -> XiSet:
    """Evaluate xi1..xi5 at velocity components (v_par, v_res).

    v_par is the projection on q_p, v_res the projection on dq; in the
    collinear geometry the caller passes the same variable for both.  Inputs
    broadcast, so scalar and array velocities (and an optional detuning array
    via ``deltap``) are all fine.

    xi1 = (dp - d1) - dq.v + i(gamma_g + gamma_vcc)
    xi2 = dp - qp.v + i(gamma_tilde + gamma_vcc)
    xi3 = (dp - d2) - dq.v + i(1 + gamma_g + gamma_vcc)
    xi4 = (dp - d1 - d2) - (qp - q1 - q2).v + i(gamma_tilde + gamma_vcc)
    xi5 = -d2 + q2.v + i(gamma_tilde + gamma_vcc)

    with both pumps sharing one wavevector q = q_p - dq, so that
    (qp - q1 - q2).v = -qp.v + 2 dq.v and q2.v = qp.v - dq.v.  The slow pair
    xi1, xi3 carries only the residual shift dq.v; the sum xi2 + xi4 carries
    -2 dq.v (the one-photon shifts cancel).

    Each xi sums its detuning and damping constants, and apart its velocity
    terms, before adding the two: no solver broadcasts with it now, but it
    keeps the rounding of ``at_rest_spectrum`` and of the Gauss-Hermite
    reference (``velocity_integrals.g_integral``) bit-identical.  v_par
    (and v_res) may also be the moment kernel's polynomial in v_par
    (``velocity_integrals._Poly``): each xi then comes out as its polynomial
    on each row of the product mesh, from these same formulas.
    """
    dp = fields.deltap if deltap is None else deltap
    gvcc = params.gamma_vcc
    gt = params.gamma_tilde

    qp_v = fields.qp_vth * v_par
    dq_v = fields.dq_vth * v_res

    xi1 = ((dp - fields.delta1) + 1j * (params.gamma_g + gvcc)) - dq_v
    xi2 = (dp + 1j * (gt + gvcc)) - qp_v
    xi3 = ((dp - fields.delta2) + 1j * (1.0 + params.gamma_g + gvcc)) - dq_v
    xi4 = ((dp - fields.delta1 - fields.delta2) + 1j * (gt + gvcc)) + (qp_v - 2.0 * dq_v)
    xi5 = (-fields.delta2 + 1j * (gt + gvcc)) + (qp_v - dq_v)
    return XiSet(xi1=xi1, xi2=xi2, xi3=xi3, xi4=xi4, xi5=xi5)


def toc_determinant(xi: XiSet, params: ModelParams, fields: FieldConfig):
    """Determinant of the probe-sector system, including the coherence-transfer term.

    xi_d = xi1 xi2 xi3 xi4 - xi3 (xi2 |v2|^2 + xi4 |v1|^2)
           + i b A v1 conj(v2) (xi2 + xi4)

    The first two terms carry power broadening; the last one the spontaneous
    transfer of excited-state coherence to the ground state (switch b).  For
    real pump fields this is the familiar polynomial in the five xi's; complex
    pumps enter through |v|^2 and v1*conj(v2) only.

    It is evaluated as
        xi4 (xi2 (xi1 xi3) - (|v1|^2 xi3 - toc)) + xi2 (toc - |v2|^2 xi3)
    with toc = i b A v1 conj(v2).  That order of products no longer
    serves a broadcast over the product mesh; it stays because it keeps the
    rounding of ``at_rest_spectrum`` and of the Gauss-Hermite reference
    (``velocity_integrals.g_integral``) bit-identical.  Given xi's that are
    polynomials in v_par (see ``xi_set``), it returns xi_d's polynomial:
    degree 2, or 4 where xi1 and xi3 carry v_par too (collinear,
    dq_vth != 0).
    """
    v1sq = abs(fields.v1) ** 2
    v2sq = abs(fields.v2) ** 2
    toc = 1j * params.b * params.branching_A * fields.v1 * np.conj(fields.v2)
    return (xi.xi4 * (xi.xi2 * (xi.xi1 * xi.xi3) - (v1sq * xi.xi3 - toc))
            + xi.xi2 * (toc - v2sq * xi.xi3))
