"""Parameter containers and the per-velocity complex-frequency algebra."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eia.core_model import ModelParams, FieldConfig, XiSet, xi_set, toc_determinant


def test_gamma_tilde_composition():
    p = ModelParams(gamma_pcc=5.0, gamma_vcc=0.025, gamma_g=0.001)
    assert p.gamma_tilde == pytest.approx(0.5 + 5.0 + 0.001)


@pytest.mark.parametrize("kwargs", [
    {"gamma_pcc": -0.1},
    {"gamma_vcc": -1e-9},
    {"gamma_g": -0.5},
    {"b": 2},
    {"b": -1},
    {"branching_A": 0.0},
    {"branching_A": 1.0},
    {"branching_A": 1.5},
])
def test_model_params_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        ModelParams(**kwargs)


@pytest.mark.parametrize("name", ["gamma_pcc", "gamma_vcc", "gamma_g", "branching_A"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_model_params_rejects_non_finite_values(name, bad):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ModelParams(**{name: bad})


@pytest.mark.parametrize("name, bad", [
    *((n, b) for n in ("v1", "v2", "vp", "delta1", "delta2", "qp_vth", "dq_vth")
      for b in (float("nan"), float("inf"))),
    ("v1", complex(0.1, float("nan"))),
    ("v2", complex(-float("inf"), 0.1)),
])
def test_field_config_rejects_non_finite_values(name, bad):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        FieldConfig(**{name: bad})


def test_field_config_rejects_bad_geometry():
    with pytest.raises(ValueError):
        FieldConfig(qp_vth=-1.0)
    with pytest.raises(ValueError):
        FieldConfig(dq_vth=-0.1)
    with pytest.raises(ValueError):
        FieldConfig(dq_direction="diagonal")


def test_strong_probe_warns_but_pump_off_does_not():
    with pytest.warns(UserWarning, match="first-order-in-probe"):
        FieldConfig(v1=0.1, v2=0.1, vp=0.05)
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        FieldConfig(v1=0.0, v2=0.0, vp=0.01)  # probe-only configs are fine


class TestXiSet:
    P = ModelParams(gamma_pcc=5.0, gamma_vcc=0.025, gamma_g=0.001)
    F = FieldConfig(v1=0.0816, v2=0.1, vp=0.001, qp_vth=36.5, dq_vth=0.0,
                    dq_direction="collinear")

    def test_imaginary_parts_are_the_decay_rates(self):
        # at any velocity: Im xi1 = gamma_g + gamma_vcc, Im xi2/4/5 = gamma_tilde
        # + gamma_vcc, Im xi3 = 1 + gamma_g + gamma_vcc
        xi = xi_set(self.P, self.F, 0.37, -1.2, 0.0)
        assert np.imag(xi.xi1) == pytest.approx(0.026)
        assert np.imag(xi.xi2) == pytest.approx(5.526)
        assert np.imag(xi.xi3) == pytest.approx(1.026)
        assert np.imag(xi.xi4) == pytest.approx(5.526)
        assert np.imag(xi.xi5) == pytest.approx(5.526)

    def test_probe_doppler_shift_enters_xi2(self):
        xi = xi_set(self.P, self.F, 1.0, 1.0, 0.0)
        assert np.real(xi.xi2) == pytest.approx(-36.5)
        xi0 = xi_set(self.P, self.F, 0.0, 0.0, deltap=0.2)
        assert np.real(xi0.xi2) == pytest.approx(0.2)

    def test_matched_wavevectors_leave_slow_pair_velocity_free(self):
        # dq = 0: the Raman coherences see no Doppler shift at all
        fast = xi_set(self.P, self.F, 2.0, -3.0, 0.0)
        rest = xi_set(self.P, self.F, 0.0, 0.0, 0.0)
        assert fast.xi1 == rest.xi1
        assert fast.xi3 == rest.xi3

    def test_detuning_broadcasts_against_velocity(self):
        dp = np.linspace(-1, 1, 5)
        v = np.zeros(5)
        xi = xi_set(self.P, self.F, v, v, deltap=dp)
        assert np.asarray(xi.xi2).shape == (5,)
        one = xi_set(self.P, self.F, 0.0, 0.0, deltap=dp[3])
        assert xi.xi2[3] == one.xi2

    def test_frozen_oracle_value(self):
        # determinant pinned against a 50-digit arbitrary-precision evaluation
        # of the same polynomial (independent arithmetic path)
        f = FieldConfig(v1=0.0816, v2=0.1, vp=0.001, qp_vth=36.5,
                        dq_vth=0.0, dq_direction="collinear")
        det = toc_determinant(xi_set(self.P, f, 0.0, 0.0, deltap=0.05), self.P, f)
        assert det == pytest.approx(GOLDEN_XID, rel=1e-13)


# 50-digit mpmath evaluation, frozen (see test_frozen_oracle_value)
GOLDEN_XID = 0.7299440652825601 - 1.624248803456j


rates = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
velocities = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
detunings = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(gpcc=rates, gvcc=rates, gg=rates, d1=detunings, d2=detunings,
       dp=detunings, vpar=velocities, vres=velocities)
def test_toc_combination_is_one_photon_doppler_free(gpcc, gvcc, gg, d1, d2,
                                                    dp, vpar, vres):
    """xi2 + xi4 must not depend on the velocity projection along q_p."""
    p = ModelParams(gamma_pcc=gpcc, gamma_vcc=gvcc, gamma_g=gg)
    f = FieldConfig(delta1=d1, delta2=d2, qp_vth=36.5, dq_vth=0.3)
    moving = xi_set(p, f, vpar, vres, dp)
    rest = xi_set(p, f, 0.0, vres, dp)
    assert complex(moving.xi2 + moving.xi4) == pytest.approx(
        complex(rest.xi2 + rest.xi4), abs=1e-10)
    # and the residual shift it does carry is -2 dq.v_res
    shifted = xi_set(p, f, vpar, 0.0, dp)
    assert complex(moving.xi2 + moving.xi4) - complex(shifted.xi2 + shifted.xi4) \
        == pytest.approx(-2.0 * f.dq_vth * vres, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(gpcc=rates, gvcc=rates, gg=rates, d1=detunings, d2=detunings,
       dp=detunings, vpar=velocities, vres=velocities)
def test_reflection_antisymmetry(gpcc, gvcc, gg, d1, d2, dp, vpar, vres):
    """Negating every detuning and velocity maps each xi to -conj(xi)."""
    p = ModelParams(gamma_pcc=gpcc, gamma_vcc=gvcc, gamma_g=gg)
    f = FieldConfig(delta1=d1, delta2=d2, qp_vth=12.0, dq_vth=0.7)
    fm = FieldConfig(delta1=-d1, delta2=-d2, qp_vth=12.0, dq_vth=0.7)
    a = xi_set(p, f, vpar, vres, dp)
    b = xi_set(p, fm, -vpar, -vres, -dp)
    for name in ("xi1", "xi2", "xi3", "xi4", "xi5"):
        assert complex(getattr(b, name)) == pytest.approx(
            -np.conj(complex(getattr(a, name))), abs=1e-10)


@pytest.mark.filterwarnings("ignore:.*first-order-in-probe")
@settings(max_examples=60, deadline=None)
@given(v1r=st.floats(-0.3, 0.3), v1i=st.floats(-0.3, 0.3),
       v2r=st.floats(-0.3, 0.3), v2i=st.floats(-0.3, 0.3),
       b=st.integers(0, 1), dp=detunings, vpar=velocities)
def test_determinant_polynomial_identity(v1r, v1i, v2r, v2i, b, dp, vpar):
    # independent spelling of the same polynomial, kept deliberately naive
    p = ModelParams(gamma_pcc=1.3, gamma_vcc=0.4, gamma_g=0.02, b=b)
    f = FieldConfig(v1=complex(v1r, v1i), v2=complex(v2r, v2i), vp=1e-6,
                    qp_vth=7.0, dq_vth=0.1)
    xi = xi_set(p, f, vpar, 0.5, dp)
    x1, x2, x3, x4 = xi.xi1, xi.xi2, xi.xi3, xi.xi4
    toc = 1j * b * p.branching_A * f.v1 * np.conj(f.v2)
    expected = (x1 * x2 * x3 * x4
                - x3 * x2 * abs(f.v2) ** 2 - x3 * x4 * abs(f.v1) ** 2
                + toc * x2 + toc * x4)
    got = toc_determinant(xi, p, f)
    assert complex(got) == pytest.approx(complex(expected), rel=1e-12, abs=1e-12)


def test_pump_off_determinant_factorizes():
    # no pumps: the system is diagonal and xi_d is the plain product
    p = ModelParams(gamma_pcc=2.0, gamma_vcc=0.1)
    f = FieldConfig(v1=0.0, v2=0.0, vp=0.001, qp_vth=5.0)
    xi = xi_set(p, f, 0.2, 0.0, 0.3)
    det = toc_determinant(xi, p, f)
    assert complex(det) == pytest.approx(
        complex(xi.xi1 * xi.xi2 * xi.xi3 * xi.xi4), rel=1e-14)


def test_determinant_broadcasts_over_velocity_arrays():
    p = ModelParams(gamma_pcc=5.0, gamma_vcc=0.025, gamma_g=0.001)
    f = FieldConfig(qp_vth=36.5, dq_vth=0.2)
    v = np.linspace(-2, 2, 7)
    det = toc_determinant(xi_set(p, f, v, v, 0.0), p, f)
    assert det.shape == (7,)
    one = toc_determinant(xi_set(p, f, v[2], v[2], 0.0), p, f)
    assert det[2] == pytest.approx(one)


# the shapes the solvers pass: detunings as (m, 1, 1) against velocity_mesh's product mesh
detuning_columns = st.lists(detunings, min_size=1, max_size=4).map(
    lambda d: np.array(d)[:, None, None])
velocity_axes = st.lists(velocities, min_size=1, max_size=6).map(np.array)
geometries = st.sampled_from(["transverse", "collinear"])


def product_mesh_velocities(geometry, v_par, v_res):
    """(v_par, v_res) as velocity_mesh pairs them: v_res is v_par on a collinear mesh."""
    return v_par, (v_par if geometry == "collinear" else v_res[:, None])


@settings(max_examples=80, deadline=None)
@given(gpcc=rates, gvcc=rates, gg=rates, d1=detunings, d2=detunings, dp=detuning_columns,
       v_par=velocity_axes, v_res=velocity_axes, qp=st.floats(0.0, 40.0),
       dq=st.just(0.0) | st.floats(0.0, 2.0), geometry=geometries)
def test_exact_table_identities(gpcc, gvcc, gg, d1, d2, dp, v_par, v_res, qp, dq, geometry):
    """xi2 + xi4 - 2 xi1 and xi4 - xi5 - xi1 are constants at every velocity
    and detuning: the two pump wavevectors are one, q = q_p - dq."""
    p = ModelParams(gamma_pcc=gpcc, gamma_vcc=gvcc, gamma_g=gg)
    f = FieldConfig(delta1=d1, delta2=d2, qp_vth=qp, dq_vth=dq, dq_direction=geometry)
    v_par, v_res = product_mesh_velocities(geometry, v_par, v_res)
    xi = xi_set(p, f, v_par, v_res, deltap=dp)
    # magnitude of the operands xi_set adds; each identity is good to a few ulps of it
    scale = (np.abs(dp) + abs(d1) + abs(d2) + qp * np.abs(v_par) + 2.0 * dq * np.abs(v_res)
             + 1.0 + p.gamma_tilde + gvcc)
    tol = 4.0 * np.finfo(float).eps * scale
    s = xi.xi2 + xi.xi4 - 2.0 * xi.xi1
    u = xi.xi4 - xi.xi5 - xi.xi1
    assert np.all(np.abs(s - ((d1 - d2) + 1j * (1.0 + 2.0 * gpcc))) <= tol)
    assert np.all(np.abs(u - (-1j * (gg + gvcc))) <= tol)


def docstring_xi(p, f, v_par, v_res, dp):
    """xi1..xi5 as xi_set's docstring writes them, evaluated left to right."""
    qp_v, dq_v = f.qp_vth * v_par, f.dq_vth * v_res
    gt, gvcc = p.gamma_tilde, p.gamma_vcc
    return ((dp - f.delta1) - dq_v + 1j * (p.gamma_g + gvcc),
            dp - qp_v + 1j * (gt + gvcc),
            (dp - f.delta2) - dq_v + 1j * (1.0 + p.gamma_g + gvcc),
            (dp - f.delta1 - f.delta2) + qp_v - 2.0 * dq_v + 1j * (gt + gvcc),
            -f.delta2 + qp_v - dq_v + 1j * (gt + gvcc))


@settings(max_examples=80, deadline=None)
@given(gpcc=rates, gvcc=rates, gg=rates, d1=detunings, d2=detunings, dp=detuning_columns,
       v_par=velocity_axes, v_res=velocity_axes, qp=st.floats(0.0, 40.0),
       dq=st.just(0.0) | st.floats(1e-3, 2.0), geometry=geometries)
def test_xi_set_rounds_as_its_docstring(gpcc, gvcc, gg, d1, d2, dp, v_par, v_res, qp, dq,
                                        geometry):
    """xi_set adds its constants first.  At dq_vth = 0 that rounds bit for bit
    as the docstring formulas read, on the product mesh and at one scalar
    detuning (the pump-dipole call); otherwise within 2 ulps of the operands."""
    p = ModelParams(gamma_pcc=gpcc, gamma_vcc=gvcc, gamma_g=gg)
    f = FieldConfig(delta1=d1, delta2=d2, qp_vth=qp, dq_vth=dq, dq_direction=geometry)
    if dq == 0.0:
        v_res = np.zeros(1)  # velocity_mesh's one residual node
    v_par, v_res = product_mesh_velocities(geometry, v_par, v_res)
    for deltap in (dp, float(dp[0, 0, 0])):
        got = xi_set(p, f, v_par, v_res, deltap=deltap)
        want = docstring_xi(p, f, v_par, v_res, deltap)
        for name, w in zip(("xi1", "xi2", "xi3", "xi4", "xi5"), want):
            g = np.asarray(getattr(got, name))
            w = np.asarray(w)
            assert g.shape == w.shape
            if dq == 0.0:
                assert g.tobytes() == w.tobytes(), name
            else:
                scale = (np.abs(deltap) + abs(d1) + abs(d2) + qp * np.abs(v_par)
                         + 2.0 * dq * np.abs(v_res) + 1.0 + p.gamma_tilde + gvcc)
                assert np.all(np.abs(g - w) <= 2.0 * np.spacing(scale)), name
