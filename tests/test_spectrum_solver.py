"""Exact vs factored vs closed-form probe response routes."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eia.core_model import ModelParams, FieldConfig, xi_set, toc_determinant
from eia.velocity_integrals import (
    G1_SPEC, G2_SPEC, G3_SPEC, G4_SPEC, G5_SPEC,
    NonConvergenceError, g_integral, make_grid, one_photon_response,
)
from eia.spectrum_solver import (
    _CHUNK_ELEMENTS,
    _exact_response_on_mesh,
    Components,
    Spectrum,
    SolveReport,
    IllConditionedError,
    default_detuning_grid,
    solve_exact,
    solve_approximate,
    at_rest_spectrum,
)

A = 0.816


def motionless_params(**over):
    kw = dict(gamma_pcc=0.0, gamma_vcc=1e-9, gamma_g=0.0)
    kw.update(over)
    return ModelParams(**kw)


def motionless_fields(**over):
    kw = dict(v1=0.0816, v2=0.1, vp=0.001, qp_vth=1e-6, dq_vth=0.0,
              dq_direction="collinear")
    kw.update(over)
    return FieldConfig(**kw)


class TestSpectrumContainer:
    def test_rejects_unordered_detunings(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Spectrum.from_response([0.0, -1.0, 1.0], np.zeros(3, complex))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Spectrum.from_response([0.0, 1.0], np.zeros(3, complex))

    def test_rejects_absorption_inconsistent_with_response(self):
        r = np.array([1.0 + 2.0j])
        with pytest.raises(ValueError, match="Im"):
            Spectrum(np.array([0.0]), r, np.array([5.0]))

    def test_rejects_components_that_do_not_sum(self):
        d = np.array([0.0, 1.0])
        r = np.ones(2, complex)
        bad = Components(r, r, r)  # sums to 3, not 1
        with pytest.raises(ValueError, match="decomposition"):
            Spectrum.from_response(d, r, bad)

    def test_report_requires_finite_condition(self):
        with pytest.raises(ValueError):
            SolveReport("exact", 10, 1, 5, np.inf)


class TestDetuningGrid:
    def test_symmetric_and_contains_zero(self):
        p = ModelParams(gamma_vcc=0.025, gamma_g=0.001)
        d = default_detuning_grid(p)
        assert np.all(np.diff(d) > 0)
        assert 0.0 in d
        assert np.allclose(d + d[::-1], 0.0, atol=1e-15)

    def test_refinement_resolves_the_narrow_scale(self):
        p = ModelParams(gamma_vcc=0.025, gamma_g=0.001)
        d = default_detuning_grid(p, n=21)
        w = 10 * (p.gamma_g + p.gamma_vcc)
        inside = d[(d > 0) & (d < w)]
        assert inside.size > 20  # far more than the 1 point the base grid has

    def test_validation(self):
        with pytest.raises(ValueError):
            default_detuning_grid(ModelParams(), span=0.0)
        with pytest.raises(ValueError):
            default_detuning_grid(ModelParams(), n=1)


def lapack_response_on_mesh(params, fields, detunings, v_par, v_res, w):
    """Reference: assemble every node's 4x4 system plus the probe source and
    solve the whole stack with batched LAPACK."""
    gvcc, n0 = params.gamma_vcc, params.n0
    v1, v2, vp = fields.v1, fields.v2, fields.vp
    toc = 1j * params.b * params.branching_A * params.gamma_sp
    xi0 = xi_set(params, fields, v_par, v_res)
    gp = np.sum(w / xi0.xi5)
    r5 = np.conj(v2) * n0 * gp / (1.0 - 1j * gvcc * gp)
    src3 = -vp * (1j * gvcc * r5 + np.conj(v2) * n0) / xi0.xi5

    xi = xi_set(params, fields, v_par[None, :], v_res[None, :],
                deltap=detunings[:, None])
    M = np.zeros(xi.xi1.shape + (4, 4), dtype=complex)
    M[..., 0, 0] = xi.xi1
    M[..., 0, 1] = np.conj(v1)
    M[..., 0, 2] = -toc
    M[..., 0, 3] = -v2
    M[..., 1, 0] = v1
    M[..., 1, 1] = xi.xi2
    M[..., 2, 1] = -np.conj(v2)
    M[..., 2, 2] = xi.xi3
    M[..., 2, 3] = v1
    M[..., 3, 0] = -np.conj(v2)
    M[..., 3, 3] = xi.xi4
    B = np.zeros(xi.xi1.shape + (4, 5), dtype=complex)
    B[..., :4, :4] = np.eye(4)
    B[..., 1, 4] = -vp * n0
    B[..., 2, 4] = src3
    X = np.linalg.solve(M, B)
    Aw = np.einsum("k,mkij->mij", w, X[..., :4])
    bw = np.einsum("k,mki->mi", w, X[..., 4])
    dens = np.eye(4) - 1j * gvcc * Aw
    R = np.linalg.solve(dens, bw[..., None])[..., 0]
    return R[:, 1] / (n0 * vp), np.linalg.cond(dens)


class TestExactElimination:
    @pytest.mark.parametrize("n, geometry, b, gvcc, v1, v2", [
        (40, "collinear", 1, 0.3, 0.08 + 0.05j, 0.1 - 0.02j),
        (40, "transverse", 1, 0.3, 0.6j, 0.4 + 0.3j),
        (40, "transverse", 0, 0.05, 0.5 - 0.2j, -0.3j),
        (40, "collinear", 0, 0.0, 0.2 + 0.1j, 0.3),
        (40, "transverse", 1, 0.0, 0.3, 0.2 + 0.2j),
        # several detuning chunks, the last one partial
        (2500, "transverse", 1, 0.1, 0.1 + 0.1j, 0.2 - 0.1j),
    ])
    def test_matches_batched_lapack_on_random_meshes(self, n, geometry, b, gvcc, v1, v2):
        rng = np.random.default_rng(n + 7 * b + int(100 * gvcc))
        p = ModelParams(gamma_pcc=0.4, gamma_vcc=gvcc, gamma_g=0.003, b=b)
        f = FieldConfig(v1=v1, v2=v2, vp=1e-4, delta1=0.05, delta2=-0.1,
                        qp_vth=3.0, dq_vth=0.7, dq_direction=geometry)
        v_par = rng.normal(size=n)
        v_res = v_par if geometry == "collinear" else rng.normal(size=n)
        w = rng.uniform(0.1, 1.0, n)
        w /= w.sum()
        dgrid = np.sort(rng.uniform(-3.0, 3.0, 31))
        got, got_cond = _exact_response_on_mesh(p, f, dgrid, v_par, v_res, w)
        want, want_cond = lapack_response_on_mesh(p, f, dgrid, v_par, v_res, w)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert np.abs(got_cond - want_cond).max() <= 1e-12 * want_cond.max()

    @pytest.mark.parametrize("gamma_g", [0.0, 1e-320])
    def test_vanishing_pivot_names_the_detuning(self, gamma_g):
        # v1 = v2 = 0 and no ground decay: xi1 = 0 at line center, so xi_d = 0
        # (exactly, or by underflow of the subnormal rate)
        p = ModelParams(gamma_pcc=1.0, gamma_vcc=0.0, gamma_g=gamma_g)
        f = FieldConfig(v1=0.0, v2=0.0, vp=0.001, qp_vth=2.0, dq_vth=0.0,
                        dq_direction="collinear")
        with pytest.raises(IllConditionedError, match="at detuning 0.0$"), \
                np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            solve_exact(p, f, make_grid(20, 1), np.array([-0.5, 0.0, 0.5]),
                        check_convergence=False)


class TestExactSolver:
    def test_matches_hand_elimination_of_the_motionless_system(self):
        """Independent route: eliminate the 4 coherences by hand at v = 0.

        response = [xi3 (|v2|^2 - xi1 xi4) + i b A v1 conj(v2) (xi4 - xi5)/xi5] / xi_d
        The residual 1e-6 floor is the tiny qp_vth and gamma_vcc kept to stay
        on the solver's generic path.
        """
        p = motionless_params(gamma_pcc=0.7, gamma_g=0.002)
        f = motionless_fields(delta1=0.1, delta2=-0.05)
        dgrid = np.linspace(-2, 2, 41)
        sp, rep = solve_exact(p, f, make_grid(60, 1), dgrid, check_convergence=False)
        xi = xi_set(p, f, 0.0, 0.0, deltap=dgrid)
        xd = toc_determinant(xi, p, f)
        toc = 1j * p.b * p.branching_A * p.gamma_sp * f.v1 * np.conj(f.v2)
        closed = (xi.xi3 * (abs(f.v2) ** 2 - xi.xi1 * xi.xi4)
                  + toc * (xi.xi4 - xi.xi5) / xi.xi5) / xd
        assert np.abs(sp.response - closed).max() < 1e-6 * np.abs(closed).max()
        assert rep.method == "exact"

    def test_pump_off_equals_strong_collision_kernel(self):
        # both routes on the same nodes: agreement is algebraic, not approximate
        for gvcc in (0.0, 0.1, 10.0):
            p = ModelParams(gamma_pcc=5.0, gamma_vcc=gvcc, gamma_g=0.001)
            f = FieldConfig(v1=0.0, v2=0.0, vp=0.001, qp_vth=36.5, dq_vth=0.0,
                            dq_direction="collinear")
            grid = make_grid(200, 1)
            dgrid = np.linspace(-2, 2, 21)
            sp, _ = solve_exact(p, f, grid, dgrid, check_convergence=False)
            from dataclasses import replace
            want = np.array([1j * one_photon_response(p, replace(f, deltap=dp),
                                                      grid, rtol=None)
                             for dp in dgrid])
            assert np.abs(sp.response - want).max() < 1e-12 * np.abs(want).max()

    def test_doubling_gate_flags_underresolved_grid(self, fig2_params, fig2_fields):
        dgrid = np.array([-0.01, 0.0, 0.01])
        with pytest.raises(NonConvergenceError, match="exact solve"):
            solve_exact(fig2_params, fig2_fields, make_grid(80, 1), dgrid)

    def test_condition_guards(self):
        p = motionless_params()
        f = motionless_fields()
        dgrid = np.array([0.0])
        with pytest.raises(IllConditionedError):
            solve_exact(p, f, make_grid(40, 1), dgrid, check_convergence=False,
                        cond_error=1.0)
        with pytest.warns(UserWarning, match="condition"):
            solve_exact(p, f, make_grid(40, 1), dgrid, check_convergence=False,
                        cond_warn=1e-3)

    def test_normalized_response_is_independent_of_probe_strength(self, fig2_params,
                                                                  fig2_fields):
        from dataclasses import replace
        grid = make_grid(300, 1)
        dgrid = np.array([-0.5, 0.0, 0.5])
        a, _ = solve_exact(fig2_params, fig2_fields, grid, dgrid,
                           check_convergence=False)
        b, _ = solve_exact(fig2_params, replace(fig2_fields, vp=0.003), grid, dgrid,
                           check_convergence=False)
        assert np.abs(a.response - b.response).max() < 1e-12 * np.abs(a.response).max()


class TestFactoredSolver:
    def test_components_sum_and_are_returned(self, fig2_params, fig2_fields):
        dgrid = np.linspace(-1, 1, 11)
        sp, rep = solve_approximate(fig2_params, fig2_fields, make_grid(400, 1),
                                    dgrid, check_convergence=False)
        assert sp.components is not None
        total = (sp.components.background + sp.components.pedestal
                 + sp.components.sharp_peak)
        assert np.abs(total - sp.response).max() <= 1e-10 * np.abs(sp.response).max()
        assert rep.method == "approximate"

    def test_coherence_transfer_switch_controls_the_peak(self, fig2_params,
                                                         fig2_fields):
        from dataclasses import replace
        grid = make_grid(600, 1)
        dgrid = np.array([0.0])
        on, _ = solve_approximate(fig2_params, fig2_fields, grid, dgrid,
                                  check_convergence=False)
        off, _ = solve_approximate(replace(fig2_params, b=0), fig2_fields, grid,
                                   dgrid, check_convergence=False)
        assert np.abs(off.components.sharp_peak[0]) == 0.0
        assert on.absorption[0] > off.absorption[0]

    def test_sharp_term_vanishes_without_velocity_collisions(self, fig2_fields):
        p = ModelParams(gamma_pcc=5.0, gamma_vcc=1e-12, gamma_g=0.001)
        sp, _ = solve_approximate(p, fig2_fields, make_grid(600, 1),
                                  np.array([0.0]), check_convergence=False)
        assert np.abs(sp.components.sharp_peak[0]) < 1e-9 * sp.absorption[0]

    def test_vcc_dominated_regime_warns(self, fig2_fields):
        p = ModelParams(gamma_pcc=0.0, gamma_vcc=2.0, gamma_g=0.001)
        with pytest.warns(UserWarning, match="validity"):
            solve_approximate(p, fig2_fields, make_grid(100, 1), np.array([0.0]),
                              check_convergence=False)

    def test_probe_strength_never_enters(self, fig2_params, fig2_fields):
        from dataclasses import replace
        grid = make_grid(200, 1)
        dgrid = np.array([0.0, 0.1])
        a, _ = solve_approximate(fig2_params, fig2_fields, grid, dgrid,
                                 check_convergence=False)
        b, _ = solve_approximate(fig2_params, replace(fig2_fields, vp=0.002),
                                 grid, dgrid, check_convergence=False)
        assert np.array_equal(a.response, b.response)

    def test_reflection_symmetry_of_absorption(self, fig2_params, fig2_fields):
        dgrid = np.linspace(-0.8, 0.8, 33)
        sp, _ = solve_approximate(fig2_params, fig2_fields, make_grid(500, 1),
                                  dgrid, check_convergence=False)
        assert np.abs(sp.absorption - sp.absorption[::-1]).max() \
            < 1e-10 * sp.absorption.max()

    @pytest.mark.parametrize("n_par, n_res, geometry, dq, b, v1, v2", [
        (30, 8, "transverse", 0.7, 1, 0.08 + 0.05j, 0.1 - 0.02j),
        (30, 8, "transverse", 0.7, 0, 0.5 - 0.2j, -0.3j),
        (300, 1, "collinear", 0.7, 1, 0.6j, 0.4 + 0.3j),
        (300, 1, "transverse", 0.0, 1, 0.2 + 0.1j, 0.3),
    ])
    def test_matches_the_named_kernel_averages(self, n_par, n_res, geometry, dq, b, v1, v2):
        """Oracle: the components assembled from g_integral(G1_SPEC..G5_SPEC)
        one detuning at a time, over enough detunings for several chunks."""
        p = ModelParams(gamma_pcc=0.4, gamma_vcc=0.2, gamma_g=0.003, b=b)
        f = FieldConfig(v1=v1, v2=v2, vp=1e-4, delta1=0.05, delta2=-0.1,
                        qp_vth=3.0, dq_vth=dq, dq_direction=geometry)
        grid = make_grid(n_par, n_res)
        nodes = n_par * (n_res if geometry == "transverse" and dq > 0 else 1)
        dgrid = np.linspace(-3.0, 3.0, 2 * (_CHUNK_ELEMENTS // nodes) + 5)
        sp, _ = solve_approximate(p, f, grid, dgrid, check_convergence=False)

        toc = 1j * b * p.branching_A * p.gamma_sp * v1 * np.conj(v2)
        g = np.array([[g_integral(spec, p, replace(f, deltap=dp), grid, rtol=None)
                       for dp in dgrid]
                      for spec in (G1_SPEC, G2_SPEC, G3_SPEC, G4_SPEC, G5_SPEC)])
        want = Components(
            background=-g[3],
            pedestal=abs(v2) ** 2 * g[4],
            sharp_peak=toc * 1j * g[1] * g[2] * p.gamma_vcc / (1.0 - 1j * g[0] * p.gamma_vcc))
        for got_part, want_part in zip(sp.components, want):
            assert np.abs(got_part - want_part).max() <= 1e-12 * np.abs(want_part).max()

    def test_doubling_check_report_and_gate(self):
        # the note is parsed by tools that read reports; keep its wording
        p = ModelParams(gamma_pcc=1.0, gamma_vcc=0.1, gamma_g=0.05)
        f = FieldConfig(v1=0.1, v2=0.1, vp=1e-4, qp_vth=1.0, dq_vth=0.2)
        grid, dgrid = make_grid(20, 4), np.linspace(-1, 1, 5)
        _, rep = solve_approximate(p, f, grid, dgrid, conv_rtol=1e-2)
        assert rep.converged is True
        assert rep.notes.startswith("doubling check rel change ")
        assert 1e-3 < float(rep.notes.rsplit(" ", 1)[1]) <= 1e-2
        with pytest.raises(NonConvergenceError, match="^factored solve not converged"):
            solve_approximate(p, f, grid, dgrid, conv_rtol=1e-3)

    @pytest.mark.parametrize("gamma_g", [0.0, 1e-320])
    def test_vanishing_determinant_names_the_detuning(self, gamma_g):
        # no pumps and no ground decay: xi1 = 0 at line center, so xi_d = 0
        # (exactly, or as a subnormal whose weighted inverse overflows)
        p = ModelParams(gamma_pcc=1.0, gamma_vcc=0.0, gamma_g=gamma_g)
        f = FieldConfig(v1=0.0, v2=0.0, dq_vth=0.0)
        with pytest.raises(IllConditionedError, match="at detuning 0.0$"), \
                warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            solve_approximate(p, f, make_grid(20, 1), np.array([-0.5, 0.0, 0.5]),
                              check_convergence=False)


positive_detunings = st.lists(st.floats(min_value=1e-3, max_value=3.0), min_size=1,
                              max_size=8, unique=True)


@settings(max_examples=40, deadline=None)
@given(gpcc=st.floats(0.05, 5.0), gvcc=st.floats(0.0, 0.5), gg=st.floats(1e-3, 0.1),
       qp=st.floats(0.0, 40.0), dq=st.floats(0.0, 2.0),
       geometry=st.sampled_from(["transverse", "collinear"]), b=st.integers(0, 1),
       v1=st.floats(-0.5, 0.5), v2=st.floats(-0.5, 0.5), pos=positive_detunings)
def test_factored_reflection_symmetry(gpcc, gvcc, gg, qp, dq, geometry, b, v1, v2, pos):
    """response(-delta) = -conj(response(delta)) for real pumps and
    delta1 = delta2 = 0: negating the detuning and every velocity maps each
    xi to -conj(xi), and the Gauss-Hermite nodes are symmetric."""
    p = ModelParams(gamma_pcc=gpcc, gamma_vcc=gvcc, gamma_g=gg, b=b)
    f = FieldConfig(v1=v1, v2=v2, vp=0.0, qp_vth=qp, dq_vth=dq, dq_direction=geometry)
    pos = np.sort(pos)
    dgrid = np.concatenate([-pos[::-1], [0.0], pos])
    sp, _ = solve_approximate(p, f, make_grid(40, 8), dgrid, check_convergence=False)
    r = sp.response
    assert np.abs(r[::-1] + np.conj(r)).max() <= 1e-10 * np.abs(r).max()


class TestAtRest:
    def test_on_resonance_enhancement_factor(self):
        # peak response 2i/(1 - A^2) against the bare one-photon 2i: the
        # closed feedback of the two pumps, nothing else, sets the peak
        p = motionless_params(gamma_vcc=0.0)
        f = motionless_fields(v1=A * 0.1)
        sp = at_rest_spectrum(p, f, np.array([0.0]))
        assert complex(sp.response[0]) == pytest.approx(2j / (1 - A**2), rel=1e-12)

    def test_collision_fed_component_is_identically_zero(self):
        p = ModelParams(gamma_pcc=1.0, gamma_vcc=0.3, gamma_g=0.01)
        f = motionless_fields()
        sp = at_rest_spectrum(p, f, np.linspace(-3, 3, 101))
        assert np.all(sp.components.sharp_peak == 0.0)
        total = sp.components.background + sp.components.pedestal
        assert np.array_equal(total, sp.response)

    def test_absorption_even_in_detuning(self):
        p = motionless_params(gamma_vcc=0.0)
        f = motionless_fields()
        d = np.linspace(-3, 3, 201)
        sp = at_rest_spectrum(p, f, d)
        assert np.abs(sp.absorption - sp.absorption[::-1]).max() \
            < 1e-12 * sp.absorption.max()

    def test_absorption_positive(self):
        p = motionless_params(gamma_vcc=0.0)
        sp = at_rest_spectrum(p, motionless_fields(), np.linspace(-3, 3, 301))
        assert np.all(sp.absorption > 0)

    @pytest.mark.parametrize("gamma_g", [0.0, 1e-320])
    def test_vanishing_determinant_names_the_detuning(self, gamma_g):
        # xi_d = 0 at line center, or a subnormal that has lost its digits
        p = ModelParams(gamma_pcc=1.0, gamma_vcc=0.0, gamma_g=gamma_g)
        f = FieldConfig(v1=0.0, v2=0.0, dq_vth=0.0)
        with pytest.raises(IllConditionedError, match="at detuning 0.0$"), \
                warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            at_rest_spectrum(p, f, np.array([-0.5, 0.0, 0.5]))
