"""Thermal velocity averages: quadrature path vs closed-form oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import flat_velocity_mesh
from eia.core_model import ModelParams, FieldConfig, toc_determinant, xi_set
from eia.velocity_integrals import (
    MAX_NODES,
    NonConvergenceError,
    _Kernel,
    _doubling_runs,
    _spans_residual_axis,
    make_grid,
    velocity_mesh,
    g_integral,
    pole_average,
    one_photon_response,
    G1_SPEC, G2_SPEC, G3_SPEC, G4_SPEC, G5_SPEC, G_1P, G_3P, G_PUMP,
)


# frozen 50-digit arbitrary-precision values of w(z); the scipy-backed closed
# form must sit on them to well beyond its 1e-10 contract
FADDEEVA_GOLDENS = {
    1j: 0.427583576155807 + 0j,
    0.5 + 1.0j: 0.3912340214521361 + 0.127202410884648j,
    3.0 + 0.1j: 0.007942680998769991 + 0.20074234309867736j,
    -2.0 + 0.5j: 0.10335882374136666 - 0.28478588475009375j,
}


def test_pole_average_matches_frozen_faddeeva_values():
    # with q = 1/sqrt(2), x = Re z and gamma_pos = Im z the average is
    # -i sqrt(pi) w(z)
    for z, ref in FADDEEVA_GOLDENS.items():
        got = pole_average(z.real, 1.0 / np.sqrt(2.0), z.imag)
        assert got == pytest.approx(-1j * np.sqrt(np.pi) * ref, rel=1e-12, abs=1e-15)


class TestPoleAverage:
    def test_motionless_limit(self):
        assert pole_average(0.3, 0.0, 2.5) == pytest.approx(1.0 / (0.3 + 2.5j))
        # z = (x + i gamma)/(sqrt(2) q) overflows for a subnormal q
        assert pole_average(0.3, 5e-324, 2.5) == 1.0 / (0.3 + 2.5j)
        # the Doppler correction is relative q^2/(x + i gamma)^2 on either side
        # of the switch to the motionless pole
        for q in (2e-9, 1e-6):
            assert pole_average(0.3, q, 2.5) == pytest.approx(1.0 / (0.3 + 2.5j),
                                                              rel=2 * q**2 / 2.5**2 + 1e-15)

    def test_sign_of_q_is_irrelevant(self):
        assert pole_average(1.0, 3.0, 0.5) == pole_average(1.0, -3.0, 0.5)

    @pytest.mark.parametrize("x, q, name", [(np.nan, 1.0, "x"), (np.inf, 1.0, "x"),
                                            (0.0, np.inf, "q"), (0.0, np.nan, "q")])
    def test_refuses_a_value_that_is_not_finite(self, x, q, name):
        # NaN gave nan+nanj and q = inf a silent 0j
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            pole_average(x, q, 1.0)

    def test_requires_positive_width(self):
        with pytest.raises(ValueError):
            pole_average(0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="gamma_pos"):
            pole_average(1.0, 1.0, -0.1)  # a pole on the lower half plane

    def test_imaginary_part_is_negative(self):
        # Im 1/(x - qv + i gamma) < 0 pointwise, so the average inherits it
        for x in (-2.0, 0.0, 0.7, 5.0):
            for q in (0.1, 1.0, 30.0):
                assert pole_average(x, q, 0.8).imag < 0

    def test_wide_doppler_limit_is_gaussian(self):
        # q >> gamma, x: -Im -> sqrt(pi/2)/q * exp(-x^2/(2 q^2)) (Doppler core)
        q = 200.0
        val = pole_average(0.0, q, 1e-3)
        assert -val.imag == pytest.approx(np.sqrt(np.pi / 2.0) / q, rel=1e-5)


class TestMakeGrid:
    def test_weights_are_normalized_and_nodes_symmetric(self):
        g = make_grid(81, 40)
        assert g.weights_par.sum() == pytest.approx(1.0, abs=1e-13)
        assert g.weights_res.sum() == pytest.approx(1.0, abs=1e-13)
        assert np.allclose(np.sort(g.nodes_par + g.nodes_par[::-1]), 0.0, atol=1e-12)

    def test_bounds(self):
        with pytest.raises(ValueError):
            make_grid(0, 10)
        with pytest.raises(ValueError):
            make_grid(10, 0)
        with pytest.raises(ValueError):
            make_grid(MAX_NODES + 1, 10)
        make_grid(MAX_NODES, 1)  # cap itself is allowed

    @pytest.mark.parametrize("n_par, n_res, name", [
        (2.5, 1, "n_par"), (4, 0.5, "n_res"), (np.nan, 1, "n_par"), (4, np.inf, "n_res"),
    ])
    def test_non_integral_count_names_the_axis(self, n_par, n_res, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            make_grid(n_par, n_res)

    def test_cached_axes_are_read_only(self):
        g = make_grid(64, 64)
        with pytest.raises(ValueError):
            g.nodes_par[0] = 0.0


class TestVelocityMesh:
    P = ModelParams(gamma_pcc=5.0, gamma_vcc=0.025, gamma_g=0.001)

    def test_matched_wavevectors_collapse_residual_axis(self):
        f = FieldConfig(qp_vth=36.5, dq_vth=0.0)
        g = make_grid(50, 40)
        v_par, v_res, w = velocity_mesh(f, g)
        assert v_par.shape == (50,)
        assert np.all(v_res == 0.0)

    @pytest.mark.parametrize("geometry", ["transverse", "collinear"])
    @pytest.mark.parametrize("n_res", [1, 4])
    def test_product_mesh_keeps_one_residual_node_when_dq_vanishes(self, geometry, n_res):
        # xi1 and xi3 then stay (m, 1, 1) against the detunings
        f = FieldConfig(qp_vth=36.5, dq_vth=0.0, dq_direction=geometry)
        v_par, v_res, w = velocity_mesh(f, make_grid(50, n_res))
        assert v_par.shape == (50,) and w.shape == (1, 50)
        assert v_res.shape == (1,) and v_res[0] == 0.0

    def test_collinear_reuses_parallel_axis(self):
        f = FieldConfig(qp_vth=36.5, dq_vth=0.1, dq_direction="collinear")
        g = make_grid(50, 40)
        v_par, v_res, w = velocity_mesh(f, g)
        assert v_par is v_res
        assert w.shape == (1, 50)

    def test_transverse_takes_product_grid(self):
        f = FieldConfig(qp_vth=36.5, dq_vth=0.1, dq_direction="transverse")
        g = make_grid(6, 4)
        v_par, v_res, w = velocity_mesh(f, g)
        assert v_par.shape == (6,) and v_res.shape == (4, 1) and w.shape == (4, 6)
        assert w.sum() == pytest.approx(1.0, abs=1e-13)


@settings(max_examples=60, deadline=None)
@given(geometry=st.sampled_from(["transverse", "collinear"]),
       dq=st.one_of(st.just(0.0), st.floats(0.0, 2.0, exclude_min=True)),
       n_par=st.integers(1, 40), n_res=st.integers(1, 12))
def test_product_mesh_holds_the_flat_mesh(geometry, dq, n_par, n_res):
    """velocity_mesh's arrays, broadcast against each other and raveled, are
    the nodes and weights of the flat mesh, node for node."""
    f = FieldConfig(qp_vth=3.0, dq_vth=dq, dq_direction=geometry)
    grid = make_grid(n_par, n_res)
    v_par, v_res, w = velocity_mesh(f, grid)
    r = n_res if _spans_residual_axis(f) else 1
    assert w.shape == (r, n_par)
    assert w.sum() == pytest.approx(1.0, abs=1e-13)
    got = np.stack([a.ravel() for a in np.broadcast_arrays(v_par, v_res, w)])
    want = np.stack(flat_velocity_mesh(f, grid))
    assert got.shape == want.shape
    assert np.array_equal(got[:, np.lexsort(got)], want[:, np.lexsort(want)])


def test_g_integral_rejects_a_kernel_it_does_not_name():
    p, f, grid = ModelParams(), FieldConfig(), make_grid(10, 1)
    for spec in (_Kernel((1,), ()), _Kernel((7,), ("d",)), _Kernel((), ("x",))):
        with pytest.raises(ValueError, match="named kernels"):
            g_integral(spec, p, f, grid, 0.0, rtol=None)


class TestGIntegral:
    P = ModelParams(gamma_pcc=2.0, gamma_vcc=0.0, gamma_g=0.0)

    def test_dual_route_against_faddeeva(self):
        """Quadrature and the w(z) closed form are fully independent paths."""
        f = FieldConfig(v1=0.0816, v2=0.1, vp=0.001, qp_vth=5.0,
                        dq_vth=0.0, dq_direction="collinear")
        grid = make_grid(800, 1)
        gamma_eff = self.P.gamma_tilde + self.P.gamma_vcc
        got = g_integral(G_1P, self.P, f, grid, 0.7, rtol=None)
        ref = pole_average(0.7, f.qp_vth, gamma_eff)
        assert got == pytest.approx(ref, rel=1e-10)
        # the three-photon and pump denominators shift the pole position only
        got3 = g_integral(G_3P, self.P, f, grid, 0.7, rtol=None)
        assert got3 == pytest.approx(pole_average(0.7, f.qp_vth, gamma_eff),
                                     rel=1e-10)
        f2 = FieldConfig(delta2=0.4, qp_vth=5.0)
        gotp = g_integral(G_PUMP, self.P, f2, make_grid(800, 1), 0.0, rtol=None)
        assert gotp == pytest.approx(pole_average(-0.4, 5.0, gamma_eff), rel=1e-10)

    def test_node_doubling_catches_underresolved_doppler(self):
        # narrow pole far under the Doppler width: 80 nodes are nowhere near
        p = ModelParams(gamma_pcc=5.0, gamma_vcc=0.025, gamma_g=0.001)
        f = FieldConfig(qp_vth=36.5, dq_vth=0.0)
        with pytest.raises(NonConvergenceError, match="doubling"):
            g_integral(G_1P, p, f, make_grid(80, 1), 0.0)

    def test_node_doubling_fails_a_change_that_is_nan(self):
        # NaN > rtol is false: a NaN change passed as converged
        f = FieldConfig(qp_vth=36.5, dq_vth=0.0)

        def solve_on(g):  # finite on the given grid, NaN on the doubled one
            return np.array([1.0 if g.n_par == 10 else np.nan]), None
        with pytest.raises(NonConvergenceError, match="^probe not converged.* nan "):
            _doubling_runs("probe", "rtol", solve_on, f, make_grid(10, 1), 1e-6)

    def test_doubling_runs_return_the_change_as_a_float(self):
        f = FieldConfig(qp_vth=36.5, dq_vth=0.0)
        grid = make_grid(10, 4)
        calls = []

        def solve_on(g):
            calls.append(g.n_par)
            return np.array([1.0, 2.0 if g.n_par == 10 else 2.5]), g.n_par
        runs, used, change = _doubling_runs("probe", "rtol", solve_on, f, grid, 0.5)
        assert calls == [10, 20] and [extra for _, extra in runs] == [10, 20]
        assert (used.n_par, used.n_res) == (20, 4)  # no live residual axis
        assert type(change) is float and change == 0.5 / 2.5
        runs, used, change = _doubling_runs("probe", "rtol", solve_on, f, grid, None)
        assert calls == [10, 20, 10] and used is grid and change is None
        with pytest.raises(ValueError, match="^probe: rtol must be > 0, got 0.0"):
            _doubling_runs("probe", "rtol", solve_on, f, grid, 0.0)
        assert calls == [10, 20, 10]

    def test_rtol_none_skips_the_check(self):
        p = ModelParams(gamma_pcc=5.0, gamma_vcc=0.025, gamma_g=0.001)
        f = FieldConfig(qp_vth=36.5, dq_vth=0.0)
        val = g_integral(G_1P, p, f, make_grid(80, 1), 0.0, rtol=None)
        assert np.isfinite(val)

    @pytest.mark.parametrize("geometry, dq", [("transverse", 0.02), ("collinear", 0.02),
                                              ("transverse", 0.0)])
    def test_checked_value_is_the_doubled_grid_value(self, geometry, dq):
        # with rtol set the result is the doubled grid's own value, bit for
        # bit; only a live transverse residual axis doubles its nodes too
        p = ModelParams(gamma_pcc=1.0, gamma_vcc=0.1, gamma_g=0.001)
        f = FieldConfig(v1=0.0816, v2=0.1, vp=0.001, qp_vth=2.0,
                        dq_vth=dq, dq_direction=geometry)
        n_res_fine = 12 if (dq > 0 and geometry == "transverse") else 6
        for spec in (G1_SPEC, G3_SPEC, G_1P):
            checked = g_integral(spec, p, f, make_grid(60, 6), 0.15, rtol=1e-2)
            assert checked == g_integral(spec, p, f, make_grid(120, n_res_fine), 0.15,
                                         rtol=None)

    def test_residual_axis_count_is_inert_when_dq_vanishes(self):
        p = ModelParams(gamma_pcc=5.0, gamma_vcc=0.025, gamma_g=0.001)
        f = FieldConfig(v1=0.0816, v2=0.1, vp=0.001, qp_vth=36.5, dq_vth=0.0)
        a = g_integral(G1_SPEC, p, f, make_grid(300, 1), 0.0, rtol=None)
        b = g_integral(G1_SPEC, p, f, make_grid(300, 48), 0.0, rtol=None)
        assert a == b

    def test_reflection_parity_of_every_kernel(self):
        """Zero pump detunings: G(-dp) = (-1)^m conj(G(dp)) by v -> -v symmetry.

        Each bare xi factor flips to -conj(xi) under the reflection while the
        determinant maps to +conj (its terms all hold an even xi count), so m
        counts the non-determinant factors of the kernel.
        """
        p = ModelParams(gamma_pcc=1.0, gamma_vcc=0.1, gamma_g=0.001)
        f = FieldConfig(v1=0.0816, v2=0.1, vp=0.001, qp_vth=8.0,
                        dq_vth=0.2, dq_direction="transverse")
        grid = make_grid(150, 60)
        for spec in (G1_SPEC, G2_SPEC, G3_SPEC, G4_SPEC, G5_SPEC, G_1P):
            m = len(spec.numerator) + sum(1 for k in spec.denominator if k != "d")
            a = g_integral(spec, p, f, grid, 0.15, rtol=None)
            b = g_integral(spec, p, f, grid, -0.15, rtol=None)
            assert b == pytest.approx((-1.0) ** m * np.conj(a), rel=1e-12), spec


class TestOnePhotonResponse:
    def test_motionless_limit_drops_vcc(self):
        # K -> i/(deltap + i gamma_tilde): the vcc in the pole and the vcc in
        # the resummation cancel exactly
        p = ModelParams(gamma_pcc=2.0, gamma_vcc=0.8, gamma_g=0.01)
        f = FieldConfig(qp_vth=1e-9)
        k = one_photon_response(p, f, make_grid(40, 1), 0.4)
        assert k == pytest.approx(1j / (0.4 + 1j * p.gamma_tilde), rel=1e-8)

    def test_real_positive_on_resonance(self):
        p = ModelParams(gamma_pcc=5.0, gamma_vcc=0.025, gamma_g=0.001)
        f = FieldConfig(qp_vth=36.5)
        k = one_photon_response(p, f, make_grid(5000, 1), 0.0)
        assert k.real > 0
        assert abs(k.imag) < 1e-12 * k.real

    @pytest.mark.parametrize("denominator, spec", [(2, G_1P), (4, G_3P), (5, G_PUMP)])
    def test_each_denominator_resums_its_named_kernel(self, denominator, spec):
        # detuned so that the three one-photon averages all differ
        p = ModelParams(gamma_pcc=2.0, gamma_vcc=0.3, gamma_g=0.01)
        f = FieldConfig(delta1=0.1, delta2=-0.2, qp_vth=3.0)
        grid = make_grid(200, 1)
        g = g_integral(spec, p, f, grid, 0.4, rtol=None)
        k = one_photon_response(p, f, grid, 0.4, denominator=denominator, rtol=None)
        assert k == pytest.approx(1j * g / (1.0 - 1j * p.gamma_vcc * g), rel=1e-14)

    def test_denominator_selector_is_validated(self):
        p = ModelParams()
        f = FieldConfig()
        with pytest.raises(ValueError, match="denominator"):
            one_photon_response(p, f, make_grid(10, 1), 0.0, denominator=3)


@pytest.mark.parametrize("spec", [G1_SPEC, G2_SPEC, G3_SPEC, G4_SPEC, G5_SPEC, G_1P])
def test_g_integral_matches_the_flat_mesh_sum(spec):
    """g_integral sums on the product mesh; the reference sums the same
    integrand node by node on the flat mesh of the same grid."""
    p = ModelParams(gamma_pcc=0.4, gamma_vcc=0.2, gamma_g=0.003)
    f = FieldConfig(v1=0.1 + 0.05j, v2=0.2 - 0.1j, delta1=0.05, delta2=-0.1,
                    qp_vth=3.0, dq_vth=0.7, dq_direction="transverse")
    grid = make_grid(30, 8)
    v_par, v_res, w = flat_velocity_mesh(f, grid)
    xi = xi_set(p, f, v_par, v_res, 0.3)
    factor = {k: getattr(xi, f"xi{k}") for k in range(1, 6)}
    factor["d"] = toc_determinant(xi, p, f)
    val = w.astype(complex)
    for k in spec.numerator:
        val = val * factor[k]
    for k in spec.denominator:
        val = val / factor[k]
    want = val.sum()
    assert g_integral(spec, p, f, grid, 0.3, rtol=None) == pytest.approx(want, rel=1e-13)
