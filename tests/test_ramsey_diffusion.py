"""Stepwise-sheet diffusion solution: matching, goldens, and limits."""

from dataclasses import replace

import numpy as np
import pytest

from eia import ramsey_diffusion
from eia.core_model import ModelParams, FieldConfig
from eia.ramsey_diffusion import (
    SingularMatchingError,
    RamseyConfig,
    build_solution,
    diffusion_operator_check,
    ramsey_coefficients,
    ramsey_spectrum,
    uniform_response,
)
from eia.spectrum_solver import solve_exact
from eia.velocity_integrals import make_grid, one_photon_response, pole_average

P = ModelParams(gamma_pcc=5.0, gamma_vcc=0.025, gamma_g=0.001)
F = FieldConfig(v1=0.0816, v2=0.1, vp=0.001, qp_vth=36.5, dq_vth=0.0,
                dq_direction="collinear")


def config(a=5e-3, **kw):
    return RamseyConfig(params=P, fields=F, half_width_a=a, **kw)


@pytest.fixture(scope="module")
def sol5mm():
    return build_solution(config(), deltap=0.0)


class TestConfig:
    def test_si_bridge_values(self):
        cfg = config()
        assert cfg.v_th_si == pytest.approx(171.39325335162027, rel=1e-12)
        assert cfg.qp_vth_bridge == pytest.approx(36.622490032397494, rel=1e-12)
        assert cfg.diffusion_d == pytest.approx(8.267709317038288e-10, rel=1e-12)

    def test_diffusion_length_scales(self):
        cfg = config()
        assert cfg.diffusion_length == pytest.approx(
            np.sqrt(cfg.diffusion_d / P.gamma_g), rel=1e-12)
        free = RamseyConfig(params=replace(P, gamma_g=0.0), fields=F,
                            half_width_a=5e-3)
        assert free.diffusion_length == np.inf

    def test_validation(self):
        with pytest.raises(ValueError, match="half_width_a"):
            config(a=0.0)
        with pytest.raises(ValueError, match="gamma_vcc > 0"):
            RamseyConfig(params=replace(P, gamma_vcc=0.0), fields=F,
                         half_width_a=5e-3)
        with pytest.raises(ValueError, match="dq_vth = 0"):
            RamseyConfig(params=P, fields=replace(F, dq_vth=0.1),
                         half_width_a=5e-3)
        with pytest.raises(ValueError, match="delta1"):
            RamseyConfig(params=P, fields=replace(F, delta1=0.5),
                         half_width_a=5e-3)
        with pytest.raises(ValueError, match="temperature"):
            config(temperature=-10.0)
        # the response is per unit probe amplitude: at vp = 0 it was 0/0
        with pytest.raises(ValueError, match="^vp must be != 0"):
            RamseyConfig(params=P, fields=replace(F, vp=0.0), half_width_a=5e-3)

    @pytest.mark.parametrize("field", ["half_width_a", "temperature", "qp_physical",
                                       "mass", "gamma_sp_si"])
    def test_rejects_infinite_si_input(self, field):
        # past this check an infinite input fails with another field's name, a
        # ZeroDivisionError or a NaN response, or silently gives the motionless kernel
        kw = {"half_width_a": 5e-3, field: float("inf")}
        with pytest.raises(ValueError, match=f"{field} must be finite and > 0"):
            RamseyConfig(params=P, fields=F, **kw)

    def test_zero_qp_uses_the_bridge(self):
        cfg = RamseyConfig(params=P, fields=replace(F, qp_vth=0.0),
                           half_width_a=5e-3)
        assert cfg.kernel_qp_vth == pytest.approx(cfg.qp_vth_bridge)
        assert config().kernel_qp_vth == 36.5


class TestGoldenSolution:
    """Values frozen from a full-precision run of this configuration."""

    def test_mode_wavenumbers(self, sol5mm):
        co = sol5mm.coefficients
        assert co.k1.real == pytest.approx(1145.2924028456594, rel=1e-9)
        assert co.k2.real == pytest.approx(35084.88012487438, rel=1e-9)
        assert abs(co.k1.imag) < 1e-9 * co.k1.real
        assert abs(co.k2.imag) < 1e-12 * co.k2.real

    def test_exterior_decay_constants(self, sol5mm):
        co = sol5mm.coefficients
        assert co.alpha2.real == pytest.approx(34795.60878047372, rel=1e-9)
        assert co.alpha3.real == pytest.approx(1099.7840085845226, rel=1e-9)

    def test_uniform_drive_levels(self, sol5mm):
        co = sol5mm.coefficients
        assert co.g0 == pytest.approx(0.0022584198946171323, rel=1e-9)
        assert co.e0 == pytest.approx(7.235109344986962e-06, rel=1e-9)

    def test_matching_amplitudes(self, sol5mm):
        assert sol5mm.c1 == pytest.approx(-0.001205035847978671, rel=1e-8)
        assert sol5mm.c2 == pytest.approx(-0.00011029673350428779, rel=1e-8)
        assert sol5mm.c3 == pytest.approx(3.340450857634715e-06, rel=1e-8)
        assert sol5mm.c4 == pytest.approx(0.0012755479363517693, rel=1e-8)

    def test_response(self, sol5mm):
        assert sol5mm.response.imag == pytest.approx(0.03568825788992606, rel=1e-9)
        assert abs(sol5mm.response.real) < 1e-12
        assert sol5mm.p_delta == pytest.approx(sol5mm.response.imag)

    def test_uniform_limit_value(self):
        u = uniform_response(config(), 0.0)
        assert u.imag == pytest.approx(0.03621172227165973, rel=1e-9)


class TestClosedFormKernels:
    """The closed-form kernels, and the sources built from them, against the
    Gauss-Hermite one_photon_response K_n (n the denominator)."""

    @pytest.mark.parametrize("params", [
        P, ModelParams(gamma_pcc=3.0, gamma_vcc=0.5, gamma_g=0.01)])
    @pytest.mark.parametrize("qp_vth", [36.5, 0.0])  # 0.0 takes the SI bridge
    def test_kernels_match_quadrature(self, params, qp_vth):
        cfg = RamseyConfig(params=params, fields=replace(F, qp_vth=qp_vth),
                           half_width_a=5e-3)
        grid = make_grid(8000, 1)
        f = cfg.fields
        for dp in (0.0, 0.003, -2.0, 7.5):
            co = ramsey_coefficients(cfg, dp)
            fields = replace(f, deltap=dp, qp_vth=cfg.kernel_qp_vth)
            k2, k4, k5 = (one_photon_response(params, fields, grid, denominator=n)
                          for n in (2, 4, 5))
            for name, got, ref in (("k_1p", co.k_1p, k2), ("k_1p", co.k_1p, k4),
                                   ("k_pump", co.k_pump, k5),
                                   ("beta1", co.beta1, np.conj(f.v1) * f.vp * k2),
                                   ("beta2", co.beta2, 2.0 * f.v1 * np.conj(f.v2) * k2),
                                   ("beta3", co.beta3, np.conj(f.v2) * f.vp * (k2 + k5))):
                assert got == pytest.approx(ref, rel=1e-9), (dp, name)


class TestSolutionStructure:
    def test_continuity_residuals_are_tiny(self, sol5mm):
        assert np.max(sol5mm.continuity_residuals) < 1e-10

    def test_profiles_are_even(self, sol5mm):
        x = np.linspace(-2e-2, 2e-2, 401)
        np.testing.assert_array_equal(sol5mm.rg(x), sol5mm.rg(-x))
        np.testing.assert_array_equal(sol5mm.re_excited(x), sol5mm.re_excited(-x))

    def test_exterior_decays_to_zero(self, sol5mm):
        a = 5e-3
        vals = np.abs(sol5mm.rg(np.array([1.5 * a, 3.0 * a, 6.0 * a])))
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-12 * abs(sol5mm.rg(np.array([0.0]))[0])

    def test_response_is_the_sheet_average(self, sol5mm):
        # independent route: trapezoid average of the coherence profile
        a = 5e-3
        x = np.linspace(-a, a, 4001)
        avg = np.trapezoid(sol5mm.probe_coherence(x), x) / (2 * a)
        assert avg / F.vp == pytest.approx(sol5mm.response, rel=1e-6)

    def test_probe_strength_drops_out(self, sol5mm):
        cfg = RamseyConfig(params=P, fields=replace(F, vp=0.003),
                           half_width_a=5e-3)
        assert build_solution(cfg, 0.0).response == pytest.approx(
            sol5mm.response, rel=1e-12)

    def test_reflection_antisymmetry(self):
        cfg = config()
        plus = build_solution(cfg, deltap=0.003).response
        minus = build_solution(cfg, deltap=-0.003).response
        assert minus == pytest.approx(-np.conj(plus), rel=1e-10)


class TestLimits:
    def test_wide_beam_approaches_uniform_drive(self):
        u = uniform_response(config(), 0.0)
        gap5 = abs(build_solution(config(5e-3), 0.0).response - u)
        gap50 = abs(build_solution(config(5e-2), 0.0).response - u)
        assert gap5 / abs(u) < 0.02
        assert gap50 < 0.15 * gap5

    # The plane-sheet absorption against the exact route's at line center, as
    # Im(uniform) / Im(exact) - 1, measured on 6000 nodes doubled to 12000:
    # -2.779%, -1.308%, -2.515% and -0.230%.  Each must stay within 0.5
    # percentage points of its measurement.  At (1, 0.1) the exact route
    # converges slowly along q_p (doubling moves it by 2.5e-3; 10000 nodes
    # read -2.496%), so its doubling tolerance is 5e-3.
    @pytest.mark.parametrize("gpcc, gvcc, measured", [
        (5.0, 0.025, -0.02779), (10.0, 0.025, -0.01308), (1.0, 0.1, -0.02515),
        (5.0, 0.25, -0.00230)])
    def test_plane_sheet_tracks_the_exact_route_at_line_center(self, gpcc, gvcc, measured):
        # gamma_g > 0: the sheet refuses gamma_g = 0 at deltap = 0
        p = ModelParams(gamma_pcc=gpcc, gamma_vcc=gvcc, gamma_g=0.001)
        cfg = RamseyConfig(params=p, fields=FieldConfig(dq_vth=0.0, dq_direction="collinear"),
                           half_width_a=5e-3)
        fields = replace(cfg.fields, deltap=0.0, qp_vth=cfg.kernel_qp_vth)
        exact, _ = solve_exact(p, fields, make_grid(6000, 1), [0.0],
                               conv_rtol=5e-3)
        gap = uniform_response(cfg, 0.0).imag / exact.absorption[0] - 1.0
        assert abs(gap - measured) <= 0.005

    # The same gap at deltap = +-gamma_hom/2 and +-gamma_hom, with gamma_hom =
    # gamma_g + Re(K)|v2|^2 and K = i<1/xi2> at deltap = 0 (the filter's
    # homogeneous width), measured on 6000 nodes doubled to 12000 (doubling
    # moved the exact route by 1.7e-10 and 1.4e-13): -2.967% and -3.220% at
    # (5, 0.025), -1.386% and -1.493% at (10, 0.025), the same at either sign.
    # Each must stay within 0.5 percentage points of its measurement.
    @pytest.mark.parametrize("gpcc, gvcc, measured", [
        (5.0, 0.025, {0.5: -0.02967, 1.0: -0.03220}),
        (10.0, 0.025, {0.5: -0.01386, 1.0: -0.01493})])
    def test_plane_sheet_tracks_the_exact_route_within_the_homogeneous_width(
            self, gpcc, gvcc, measured):
        p = ModelParams(gamma_pcc=gpcc, gamma_vcc=gvcc, gamma_g=0.001)
        cfg = RamseyConfig(params=p, fields=FieldConfig(dq_vth=0.0, dq_direction="collinear"),
                           half_width_a=5e-3)
        fields = replace(cfg.fields, deltap=0.0, qp_vth=cfg.kernel_qp_vth)
        k = 1j * pole_average(0.0, fields.qp_vth, p.gamma_tilde + gvcc)
        gamma_hom = p.gamma_g + (k * abs(fields.v2) ** 2).real
        factors = np.array([-1.0, -0.5, 0.5, 1.0])
        exact, _ = solve_exact(p, fields, make_grid(6000, 1), factors * gamma_hom)
        for factor, dp, absorption in zip(factors, factors * gamma_hom, exact.absorption):
            gap = uniform_response(cfg, dp).imag / absorption - 1.0
            assert abs(gap - measured[abs(factor)]) <= 0.005, factor

    def test_narrow_beam_responds_less(self):
        wide = build_solution(config(5e-3), 0.0).response.imag
        narrow = build_solution(config(2.5e-5), 0.0).response.imag
        assert 0 < narrow < wide


class TestPerturbedRebuild:
    """Degenerate modes and a singular matching both rebuild the solution
    once at gamma_vcc (1 + 1e-9), with a warning that names the trigger."""

    def perturbed_response(self):
        cfg = config()
        cfg = replace(cfg, params=replace(P, gamma_vcc=P.gamma_vcc * (1 + 1e-9)))
        return build_solution(cfg, deltap=0.0).response

    def test_singular_matching(self, monkeypatch):
        real = ramsey_diffusion.solve_continuity
        calls = []

        def singular_once(cfg, co):
            calls.append(co)
            if len(calls) == 1:
                raise SingularMatchingError("forced")
            return real(cfg, co)

        monkeypatch.setattr(ramsey_diffusion, "solve_continuity", singular_once)
        with pytest.warns(UserWarning, match="^continuity matrix singular; perturbing"):
            sol = build_solution(config(), deltap=0.0)
        monkeypatch.undo()
        assert len(calls) == 2
        assert sol.cfg.params.gamma_vcc == P.gamma_vcc * (1 + 1e-9)
        assert sol.response == self.perturbed_response()

    def test_degenerate_modes(self, monkeypatch):
        real = ramsey_diffusion.ramsey_coefficients
        calls = []

        def degenerate_once(cfg, deltap=None):
            co = real(cfg, deltap=deltap)
            calls.append(cfg)
            return replace(co, k2=co.k1) if len(calls) == 1 else co

        monkeypatch.setattr(ramsey_diffusion, "ramsey_coefficients", degenerate_once)
        with pytest.warns(UserWarning, match="^degenerate diffusion modes; perturbing"):
            sol = build_solution(config(), deltap=0.0)
        monkeypatch.undo()
        assert len(calls) == 2
        assert sol.cfg.params.gamma_vcc == P.gamma_vcc * (1 + 1e-9)
        assert sol.response == self.perturbed_response()


class TestOperatorResidual:
    def test_solution_satisfies_the_coupled_equations(self):
        rep = diffusion_operator_check(config())
        assert rep.max_residual < 1e-8
        assert rep.residual_ground <= rep.max_residual
        assert rep.residual_excited <= rep.max_residual

    def test_wrong_profile_is_flagged(self, sol5mm):
        # doubling the curvature scale must blow the residual up by orders
        co = sol5mm.coefficients
        bad_rg = lambda x: sol5mm.rg(np.asarray(x) * 2.0)
        rep = diffusion_operator_check(config(), rg_fn=bad_rg)
        assert rep.max_residual > 1e-3


class TestSpectrum:
    def test_spectrum_shape_and_peak(self):
        cfg = config()
        d = np.array([-0.01, -0.003, -0.001, 0.0, 0.001, 0.003, 0.01])
        sp = ramsey_spectrum(cfg, d)
        assert sp.absorption.shape == (7,)
        assert np.argmax(sp.absorption) == 3
        assert np.all(sp.absorption > 0)

    def test_no_ground_decay_at_line_center_names_the_inputs(self):
        # alpha3^2 = (gamma_g - i deltap)/D is 0 there: no exterior decay
        cfg = RamseyConfig(params=replace(P, gamma_g=0.0), fields=F, half_width_a=5e-3)
        for call in (lambda: ramsey_coefficients(cfg, deltap=0.0),
                     lambda: ramsey_spectrum(cfg, [-0.001, 0.0, 0.001])):
            with pytest.raises(ValueError, match="gamma_g = 0 and deltap = 0"):
                call()

    def test_no_ground_decay_off_line_center_still_runs(self):
        cfg = RamseyConfig(params=replace(P, gamma_g=0.0), fields=F, half_width_a=5e-3)
        d = np.linspace(-0.004, 0.004, 4)  # an even count leaves 0 out
        sp = ramsey_spectrum(cfg, d)
        assert np.all(np.isfinite(sp.response)) and np.all(sp.absorption > 0)
        assert sp.absorption[1] == pytest.approx(sp.absorption[2], rel=1e-9)
