"""Exact vs factored vs closed-form probe response routes."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import flat_velocity_mesh
from eia.core_model import ModelParams, FieldConfig, xi_set, toc_determinant
from eia.velocity_integrals import (
    G1_SPEC, G2_SPEC, G3_SPEC, G4_SPEC, G5_SPEC,
    NonConvergenceError, _CHUNK_ELEMENTS, _PoleMoments, _doubled, _strong_collision,
    g_integral, make_grid, one_photon_response, pole_average, velocity_mesh,
)
from eia import spectrum_solver, velocity_integrals
from eia.cli_runner import _ramsey_detuning_grid, parse_config
from eia.lineshape_analysis import _scan_detuning_grid, dicke_fwhm_model
from eia.spatial_filter import filter_params_from_model
from eia.spectrum_solver import (
    _approx_terms_on_mesh,
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


# The three symmetric detuning grids as each builder once spelled them out;
# the shared builder must reproduce them bit for bit (criteria 6 and 7 run on
# the scan grid, and the fig7 data files carry the Ramsey grid).
def spelled_out_default_grid(params, span, n, refine):
    pos = np.linspace(0.0, span, (n + 1) // 2)
    if refine:
        w = 10.0 * (params.gamma_g + params.gamma_vcc)
        if w > 0:
            inner = np.geomspace(max(w * 1e-6, 1e-12), min(w, span), 121)
            pos = np.concatenate([pos, inner])
    pos = np.unique(pos)
    return np.concatenate([-pos[:0:-1], pos])


def spelled_out_scan_grid(params, dq):
    w_est = dicke_fwhm_model(params.gamma_vcc, dq) if (dq > 0 and params.gamma_vcc > 0) else 0.0
    span = max(2.0, 6.0 * w_est, 12.0 * (params.gamma_vcc + params.gamma_g))
    pos = np.unique(np.concatenate([
        np.linspace(0.0, span, 1001),
        np.geomspace(span * 1e-6, span, 301),
    ]))
    return np.concatenate([-pos[:0:-1], pos])


def spelled_out_ramsey_grid(span, n):
    pos = np.unique(np.concatenate([
        np.linspace(0.0, span, (n + 1) // 2),
        np.geomspace(span * 1e-4, span, 81),
    ]))
    return np.concatenate([-pos[:0:-1], pos])


class TestMirroredGrids:
    RATES = [(0.025, 0.001), (0.1, 0.001), (0.0, 0.0), (0.0, 0.3), (1.5, 0.01)]

    @pytest.mark.parametrize("gvcc, gg", RATES)
    @pytest.mark.parametrize("span, n", [(2.0, 2001), (2.0, 1201), (0.1, 21), (3.0, 2)])
    @pytest.mark.parametrize("refine", [True, False])
    def test_default_grid(self, gvcc, gg, span, n, refine):
        p = ModelParams(gamma_vcc=gvcc, gamma_g=gg)
        got = default_detuning_grid(p, span=span, n=n, refine=refine)
        assert np.array_equal(got, spelled_out_default_grid(p, span, n, refine))

    @pytest.mark.parametrize("gvcc, gg", RATES)
    @pytest.mark.parametrize("dq", [0.0, 0.002, 0.02, 0.5, 5.0])
    def test_scan_grid(self, gvcc, gg, dq):
        p = ModelParams(gamma_pcc=1.0, gamma_vcc=gvcc, gamma_g=gg)
        assert np.array_equal(_scan_detuning_grid(p, dq), spelled_out_scan_grid(p, dq))

    @pytest.mark.parametrize("span, n", [(0.02, 301), (0.02, 300), (1.0, 2), (5e-4, 41)])
    def test_ramsey_grid(self, span, n):
        cfg = parse_config("ramsey", {"ramsey_span": span, "ramsey_n": n})
        assert np.array_equal(_ramsey_detuning_grid(cfg), spelled_out_ramsey_grid(span, n))


def lapack_response_on_mesh(params, fields, detunings, v_par, v_res, w):
    """Reference: assemble every node's 4x4 system plus the probe source and
    solve the whole stack with batched LAPACK."""
    gvcc, n0 = params.gamma_vcc, 1.0
    v1, v2, vp = fields.v1, fields.v2, fields.vp
    toc = 1j * params.b * params.branching_A
    xi0 = xi_set(params, fields, v_par, v_res, 0.0)
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
        # the route takes the product form: one row, or one row per node
        mesh = ((v_par, v_par, w[None, :]) if geometry == "collinear"
                else (v_par[:, None], v_res[:, None], w[:, None]))
        got, got_cond = _exact_response_on_mesh(p, f, dgrid, *mesh)
        want, want_cond = lapack_response_on_mesh(p, f, dgrid, v_par, v_res, w)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        assert np.abs(got_cond - want_cond).max() <= 1e-12 * want_cond.max()

    @pytest.mark.parametrize("n_par, n_res, geometry, dq", [
        (30, 8, "transverse", 0.7),
        (200, 4, "collinear", 0.7),
        (200, 4, "transverse", 0.0),
        (200, 4, "collinear", 0.0),
    ])
    def test_product_mesh_matches_lapack_on_the_flat_mesh(self, n_par, n_res,
                                                          geometry, dq):
        """solve_exact walks the product mesh, the reference the flat
        mesh of the same grid, over two full detuning chunks and a
        partial one: a mis-sliced axis or a dropped chunk shows here."""
        p = ModelParams(gamma_pcc=0.4, gamma_vcc=0.2, gamma_g=0.003)
        f = FieldConfig(v1=0.1 + 0.05j, v2=0.2 - 0.1j, vp=1e-4, delta1=0.05,
                        delta2=-0.1, qp_vth=3.0, dq_vth=dq, dq_direction=geometry)
        grid = make_grid(n_par, n_res)
        v_par, v_res, w = flat_velocity_mesh(f, grid)
        dgrid = np.linspace(-3.0, 3.0, 2 * (_CHUNK_ELEMENTS // w.size) + 5)
        sp, rep = solve_exact(p, f, grid, dgrid, check_convergence=False)
        got, got_cond = _exact_response_on_mesh(p, f, dgrid, *velocity_mesh(f, grid))
        want, want_cond = lapack_response_on_mesh(p, f, dgrid, v_par, v_res, w)
        assert np.array_equal(sp.response, got) and rep.max_condition == got_cond.max()
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


@settings(max_examples=60, deadline=None)
@given(amp=st.tuples(st.floats(1e-2, 10.0), st.floats(1e-2, 10.0)),
       phase=st.tuples(st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi)),
       b=st.integers(0, 1), geometry=st.sampled_from(["transverse", "collinear"]),
       dq=st.one_of(st.just(0.0), st.floats(0.01, 3.0)), gpcc=st.floats(0.0, 5.0),
       gvcc=st.floats(0.0, 1.0), gg=st.floats(1e-3, 0.1), delta1=st.floats(-1.0, 1.0),
       delta2=st.floats(-1.0, 1.0), qp=st.floats(0.0, 20.0), n_par=st.integers(8, 40),
       n_res=st.integers(1, 5),
       where=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=9, unique=True))
def test_exact_route_matches_lapack_at_strong_pumps(amp, phase, b, geometry, dq, gpcc,
                                                    gvcc, gg, delta1, delta2, qp,
                                                    n_par, n_res, where):
    """The exact route sums the adjugate of each node's system over xi_d term
    by term; a cancellation between those terms would show first against
    per-node LAPACK solves when the pumps dwarf the linewidths.  Detunings
    span the Autler-Townes splitting, about the larger |v|."""
    p = ModelParams(gamma_pcc=gpcc, gamma_vcc=gvcc, gamma_g=gg, b=b)
    v1, v2 = (a * np.exp(1j * ph) for a, ph in zip(amp, phase))
    f = FieldConfig(v1=v1, v2=v2, vp=1e-4, delta1=delta1, delta2=delta2, qp_vth=qp,
                    dq_vth=dq, dq_direction=geometry)
    grid = make_grid(n_par, n_res)
    dgrid = np.sort(where) * max(1.0, *amp)
    got, got_cond = _exact_response_on_mesh(p, f, dgrid, *velocity_mesh(f, grid))
    want, want_cond = lapack_response_on_mesh(p, f, dgrid, *flat_velocity_mesh(f, grid))
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert np.abs(got_cond - want_cond).max() <= 1e-12 * want_cond.max()


nonzero_detunings = st.floats(-1.0, 1.0).filter(lambda d: d != 0.0)
kernel_cases = dict(
    gpcc=st.floats(0.0, 5.0), gvcc=st.floats(0.0, 1.0), gg=st.floats(1e-3, 0.1),
    b=st.integers(0, 1),
    pumps=st.tuples(*[st.complex_numbers(min_magnitude=1e-2, max_magnitude=3.0)] * 2),
    delta1=nonzero_detunings, delta2=nonzero_detunings, qp=st.floats(1e-3, 40.0),
    dq=st.just(0.0) | st.floats(1e-3, 2.5),
    geometry=st.sampled_from(["transverse", "collinear"]),
    n_par=st.integers(8, 41), n_res=st.integers(1, 6),
    where=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=7, unique=True))


def kernel_case(gpcc, gvcc, gg, b, pumps, delta1, delta2, qp, dq, geometry, where):
    p = ModelParams(gamma_pcc=gpcc, gamma_vcc=gvcc, gamma_g=gg, b=b)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)   # pumps weak against vp
        f = FieldConfig(v1=pumps[0], v2=pumps[1], vp=1e-3, delta1=delta1, delta2=delta2,
                        qp_vth=qp, dq_vth=dq, dq_direction=geometry)
    return p, f, np.sort(where) * max(1.0, *map(abs, pumps))


@settings(max_examples=60, deadline=None)
@given(**kernel_cases)
def test_moment_kernel_routes_match_the_per_node_oracles(gpcc, gvcc, gg, b, pumps, delta1,
                                                         delta2, qp, dq, geometry, n_par,
                                                         n_res, where):
    """Both routes read their averages from one polynomial-moment kernel; each
    must match its per-node oracle to 1e-12 of the largest value, in the three
    geometries (transverse, collinear, dq = 0) and on odd n_par, which puts a
    node at v = 0, and even n_par: the exact route against per-node LAPACK
    solves, the factored one against g_integral of G1_SPEC..G5_SPEC."""
    p, f, dgrid = kernel_case(gpcc, gvcc, gg, b, pumps, delta1, delta2, qp, dq, geometry,
                              where)
    grid = make_grid(n_par, n_res)
    got, got_cond = _exact_response_on_mesh(p, f, dgrid, *velocity_mesh(f, grid))
    want, want_cond = lapack_response_on_mesh(p, f, dgrid, *flat_velocity_mesh(f, grid))
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert np.abs(got_cond - want_cond).max() <= 1e-12 * want_cond.max()

    _, parts = _approx_terms_on_mesh(p, f, dgrid, *velocity_mesh(f, grid))
    g = np.array([[g_integral(spec, p, f, grid, dp, rtol=None) for dp in dgrid]
                  for spec in (G1_SPEC, G2_SPEC, G3_SPEC, G4_SPEC, G5_SPEC)])
    toc = 1j * b * p.branching_A * f.v1 * np.conj(f.v2)
    want = (-g[3], abs(f.v2) ** 2 * g[4],
            toc * 1j * g[1] * g[2] * gvcc / (1.0 - 1j * g[0] * gvcc))
    for got_part, want_part in zip(parts, want):
        assert np.abs(got_part - want_part).max() <= 1e-12 * np.abs(want_part).max(
            initial=np.finfo(float).tiny)


@settings(max_examples=60, deadline=None)
@given(**kernel_cases)
def test_moment_kernel_builds_xi_d_on_the_mesh(gpcc, gvcc, gg, b, pumps, delta1, delta2,
                                               qp, dq, geometry, n_par, n_res, where):
    """The kernel's xi_d, from its per-row polynomial in v_par, is
    toc_determinant(xi_set(...)) at every mesh node to rounding: within a few
    ulps of the size of the terms the determinant sums."""
    p, f, dgrid = kernel_case(gpcc, gvcc, gg, b, pumps, delta1, delta2, qp, dq, geometry,
                              where)
    v_par, v_res, w = velocity_mesh(f, make_grid(n_par, n_res))
    kernel = _PoleMoments(p, f, dgrid, v_par, v_res, w)
    out = np.empty((w.shape[0], dgrid.size, w.shape[1]), dtype=complex)
    got = kernel.xi_d_on_mesh(0, dgrid.size, out).transpose(1, 0, 2)
    xi = xi_set(p, f, v_par, v_res, deltap=dgrid[:, None, None])
    want = toc_determinant(xi, p, f)
    assert got.shape == np.broadcast(want, w).shape
    # each xi's constant and velocity parts in magnitude, then the determinant's terms
    rest = xi_set(p, f, 0.0, v_res if geometry == "transverse" else 0.0,
                  deltap=dgrid[:, None, None])
    s1, s2, s3, s4 = (np.abs(getattr(rest, k)) + np.abs(getattr(xi, k) - getattr(rest, k))
                      for k in ("xi1", "xi2", "xi3", "xi4"))
    toc = abs(p.b * p.branching_A * f.v1 * f.v2)
    terms = s1 * s2 * s3 * s4 + s3 * (abs(f.v1) ** 2 * s4 + abs(f.v2) ** 2 * s2) \
        + toc * (s2 + s4)
    assert np.all(np.abs(got - want) <= 32 * np.finfo(float).eps * terms)


class TestXiDLayouts:
    """The moment kernel builds xi_d with one real matrix product per chunk,
    written through a float view of the chunk's buffer; each layout that
    product meets is held to toc_determinant(xi_set(...)) within 32 ulps of
    the terms it sums, as in test_moment_kernel_builds_xi_d_on_the_mesh."""

    P = ModelParams(gamma_pcc=0.4, gamma_vcc=0.2, gamma_g=0.003)

    @staticmethod
    def fields(geometry):
        return FieldConfig(v1=0.1 + 0.05j, v2=0.2 - 0.1j, vp=1e-4, delta1=0.05,
                           delta2=-0.1, qp_vth=3.0, dq_vth=0.7, dq_direction=geometry)

    @staticmethod
    def assert_xi_d(got, p, f, dgrid, v_par, v_res):
        """got (m, ...) against xi_d on the nodes (v_par, v_res), broadcast after the detuning axis."""
        d = dgrid.reshape((-1,) + (1,) * (got.ndim - 1))
        xi = xi_set(p, f, v_par, v_res, deltap=d)
        rest = xi_set(p, f, 0.0, v_res if f.dq_direction == "transverse" else 0.0, deltap=d)
        s1, s2, s3, s4 = (np.abs(getattr(rest, k)) + np.abs(getattr(xi, k) - getattr(rest, k))
                          for k in ("xi1", "xi2", "xi3", "xi4"))
        toc = abs(p.b * p.branching_A * f.v1 * f.v2)
        terms = s1 * s2 * s3 * s4 + s3 * (abs(f.v1) ** 2 * s4 + abs(f.v2) ** 2 * s2) \
            + toc * (s2 + s4)
        want = toc_determinant(xi, p, f)
        assert got.shape == np.broadcast(want, terms).shape
        assert np.all(np.abs(got - want) <= 32 * np.finfo(float).eps * terms)

    @staticmethod
    def built(monkeypatch, *args):
        """The kernel of args, and the xi_d its constructor built, as (r, m, n)."""
        chunks, build = [], _PoleMoments.xi_d_on_mesh

        def spy(self, a, b, out):
            got = build(self, a, b, out)
            assert got is out and out.flags.c_contiguous
            chunks.append((a, b, got.copy()))
            return got
        with monkeypatch.context() as m:
            m.setattr(_PoleMoments, "xi_d_on_mesh", spy)
            kernel = _PoleMoments(*args)
        assert [a for a, _, _ in chunks] == [0] + [b for _, b, _ in chunks[:-1]]
        return kernel, chunks

    def test_rows_with_chunks_shorter_than_the_buffer(self, monkeypatch):
        p, f = self.P, self.fields("transverse")
        v_par, v_res, w = velocity_mesh(f, make_grid(30, 8))
        dgrid = np.linspace(-3.0, 3.0, 2 * (_CHUNK_ELEMENTS // w.size) + 5)
        _, chunks = self.built(monkeypatch, p, f, dgrid, v_par, v_res, w)
        sizes = [b - a for a, b, _ in chunks]
        assert w.shape[0] > 1 and len(sizes) > 2 and min(sizes) < max(sizes)
        got = np.concatenate([x for _, _, x in chunks], axis=1)
        self.assert_xi_d(got.transpose(1, 0, 2), p, f, dgrid, v_par, v_res)

    @pytest.mark.parametrize("geometry", ["transverse", "collinear"])
    def test_chunks_of_one_detuning(self, geometry, monkeypatch):
        p, f = self.P, self.fields(geometry)
        v_par, v_res, w = velocity_mesh(f, make_grid(40, 6))
        dgrid = np.linspace(-3.0, 3.0, 7)
        one, chunks = self.built(monkeypatch, p, f, dgrid[3:4], v_par, v_res, w)
        assert [(a, b) for a, b, _ in chunks] == [(0, 1)]
        self.assert_xi_d(chunks[0][2].transpose(1, 0, 2), p, f, dgrid[3:4], v_par, v_res)
        kernel = _PoleMoments(p, f, dgrid, v_par, v_res, w)
        out = np.empty((w.shape[0], 1, w.shape[1]), dtype=complex)
        got = np.concatenate([kernel.xi_d_on_mesh(k, k + 1, out).copy()
                              for k in range(dgrid.size)], axis=1)
        self.assert_xi_d(got.transpose(1, 0, 2), p, f, dgrid, v_par, v_res)
        # the lone detuning's moments, by einsum, against the chunked matmul's
        assert np.abs(one.average(1.0) - kernel.average(1.0)[3]) \
            <= 1e-14 * abs(kernel.average(1.0)[3])

    @pytest.mark.parametrize("geometry", ["transverse", "collinear"])
    def test_v_par_per_row_matches_shared_v_par(self, geometry, monkeypatch):
        """The flat mesh of test_matches_batched_lapack_on_random_meshes, as
        r = n rows of one node each, against the same nodes under one shared
        v_par: the diagonal of the transverse product mesh, or the one row
        of the collinear one."""
        p, f = self.P, self.fields(geometry)
        rng = np.random.default_rng(34)
        n = 50
        v_par = rng.normal(size=n)
        v_res = v_par if geometry == "collinear" else rng.normal(size=n)
        w = rng.uniform(0.1, 1.0, n)
        w /= w.sum()
        dgrid = np.sort(rng.uniform(-3.0, 3.0, 31))
        col = v_par[:, None]
        per_row, chunks = self.built(monkeypatch, p, f, dgrid, col,
                                     col if geometry == "collinear" else v_res[:, None],
                                     w[:, None])
        got = np.concatenate([x for _, _, x in chunks], axis=1)[:, :, 0].T
        self.assert_xi_d(got, p, f, dgrid, v_par, v_res)
        if geometry == "collinear":
            shared, chunks = self.built(monkeypatch, p, f, dgrid, v_par, v_par, w[None, :])
            on_nodes = np.concatenate([x for _, _, x in chunks], axis=1)[0]
        else:
            shared, chunks = self.built(monkeypatch, p, f, dgrid, v_par, v_res[:, None],
                                        np.full((n, n), 1.0 / n**2))
            on_nodes = np.concatenate([x for _, _, x in chunks], axis=1)[
                np.arange(n), :, np.arange(n)].T
        self.assert_xi_d(on_nodes, p, f, dgrid, v_par, v_res)
        if geometry == "collinear":  # the same mesh: the moments agree too
            for over_xi5 in (False, True):
                a, b = (k.average(1.0, over_xi5) for k in (per_row, shared))
                assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()
            assert abs(per_row.pump - shared.pump) <= 1e-14 * abs(shared.pump)


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
        toc = 1j * p.b * p.branching_A * f.v1 * np.conj(f.v2)
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
            want = np.array([1j * one_photon_response(p, f, grid, dp, rtol=None)
                             for dp in dgrid])
            assert np.abs(sp.response - want).max() < 1e-12 * np.abs(want).max()

    def test_zero_probe_amplitude_is_refused(self, fig2_params, fig2_fields):
        # the response is per unit probe amplitude: at vp = 0 every detuning
        # was 0/0, and the NaN spectrum passed the doubling check
        from dataclasses import replace
        with pytest.raises(ValueError, match="^vp must be != 0"):
            solve_exact(fig2_params, replace(fig2_fields, vp=0.0), make_grid(300, 1), [0.0])

    def test_doubling_gate_flags_underresolved_grid(self, fig2_params, fig2_fields):
        dgrid = np.array([-0.01, 0.0, 0.01])
        with pytest.raises(NonConvergenceError, match="exact solve"):
            solve_exact(fig2_params, fig2_fields, make_grid(80, 1), dgrid)

    def test_condition_guards(self, monkeypatch):
        p = motionless_params()
        f = motionless_fields()
        dgrid = np.array([0.0])
        with monkeypatch.context() as m:
            m.setattr(spectrum_solver, "_COND_ERROR", 1.0)
            with pytest.raises(IllConditionedError):
                solve_exact(p, f, make_grid(40, 1), dgrid, check_convergence=False)
        monkeypatch.setattr(spectrum_solver, "_COND_WARN", 1e-3)
        with pytest.warns(UserWarning, match="condition"):
            solve_exact(p, f, make_grid(40, 1), dgrid, check_convergence=False)

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


@settings(max_examples=40, deadline=None)
@given(gpcc=st.floats(0.0, 5.0), gvcc=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
       gg=st.floats(1e-3, 0.1), frac=st.floats(0.0, 1.0),
       pos=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=4))
def test_pump_off_exact_response_is_the_closed_form_kernel(gpcc, gvcc, gg, frac, pos):
    """Pumps off, matched wave vectors: the exact route reduces to i K, with
    K the strong-collision closure of one pole_average.  qp_vth at most the
    pole's width keeps 200 Gauss-Hermite nodes converged to 1e-9."""
    p = ModelParams(gamma_pcc=gpcc, gamma_vcc=gvcc, gamma_g=gg)
    width = p.gamma_tilde + gvcc
    f = FieldConfig(v1=0.0, v2=0.0, vp=1e-3, qp_vth=frac * width, dq_vth=0.0,
                    dq_direction="collinear")
    dgrid = np.unique(np.concatenate([-np.array(pos), pos]))
    sp, rep = solve_exact(p, f, make_grid(200, 1), dgrid, conv_rtol=1e-9)
    assert rep.converged
    want = np.array([1j * _strong_collision(pole_average(dp, f.qp_vth, width), gvcc)
                     for dp in dgrid])
    assert np.all(np.abs(sp.response - want) <= 1e-10 * np.abs(want))


@settings(max_examples=30, deadline=None)
@given(gpcc=st.floats(0.05, 5.0), gvcc=st.floats(0.0, 0.5), gg=st.floats(1e-3, 0.1),
       qp=st.floats(0.0, 40.0), dq=st.floats(0.0, 2.0),
       geometry=st.sampled_from(["transverse", "collinear"]), b=st.integers(0, 1),
       v1=st.floats(-0.5, 0.5), v2=st.floats(-0.5, 0.5),
       scale=st.floats(0.1, 10.0), phase=st.floats(-np.pi, np.pi))
def test_exact_response_does_not_depend_on_the_probe(gpcc, gvcc, gg, qp, dq, geometry,
                                                     b, v1, v2, scale, phase):
    """The response is normalized by n0 Vp and linear in Vp, so rescaling
    Vp by any complex factor leaves it unchanged."""
    p = ModelParams(gamma_pcc=gpcc, gamma_vcc=gvcc, gamma_g=gg, b=b)
    dgrid = np.array([-1.0, -0.1, 0.0, 0.03, 0.7])
    grid = make_grid(40, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # weak pumps against vp
        f = FieldConfig(v1=v1, v2=v2, vp=1e-3, qp_vth=qp, dq_vth=dq,
                        dq_direction=geometry)
        a, _ = solve_exact(p, f, grid, dgrid, check_convergence=False)
        c, _ = solve_exact(p, replace(f, vp=1e-3 * scale * np.exp(1j * phase)), grid,
                           dgrid, check_convergence=False)
    assert np.abs(a.response - c.response).max() <= 1e-12 * np.abs(a.response).max()


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

        toc = 1j * b * p.branching_A * v1 * np.conj(v2)
        g = np.array([[g_integral(spec, p, f, grid, dp, rtol=None) for dp in dgrid]
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


@pytest.mark.parametrize("solve", [solve_exact, solve_approximate])
@pytest.mark.parametrize("geometry, dq, n_res", [
    ("transverse", 0.0, 1), ("collinear", 0.0, 1), ("collinear", 0.2, 1),
    ("transverse", 0.2, 48)])
def test_report_and_gate_give_the_residual_nodes_used(solve, geometry, dq, n_res):
    # dq = 0 and collinear meshes hold one residual node, whatever the grid's n_res
    p = ModelParams(gamma_pcc=1.0, gamma_vcc=0.1, gamma_g=0.05)
    f = FieldConfig(v1=0.1, v2=0.1, vp=1e-4, qp_vth=1.0, dq_vth=dq, dq_direction=geometry)
    grid, dgrid = make_grid(20, 48), np.linspace(-1, 1, 5)
    _, rep = solve(p, f, grid, dgrid, check_convergence=False)
    assert (rep.n_par, rep.n_res) == (20, n_res)
    with pytest.raises(NonConvergenceError, match=f"doubling 20x{n_res} nodes"):
        solve(p, f, grid, dgrid, conv_rtol=1e-300)


@pytest.mark.parametrize("solve", [solve_exact, solve_approximate])
@pytest.mark.parametrize("geometry, dq, n_res", [
    ("transverse", 0.0, 1), ("collinear", 0.0, 1), ("collinear", 0.2, 1),
    ("transverse", 0.2, 96)])
def test_checked_report_gives_the_doubled_nodes_behind_the_data(solve, geometry, dq, n_res):
    # with the check on, the returned spectrum is the node-doubled grid's
    p = ModelParams(gamma_pcc=1.0, gamma_vcc=0.1, gamma_g=0.05)
    f = FieldConfig(v1=0.1, v2=0.1, vp=1e-4, qp_vth=1.0, dq_vth=dq, dq_direction=geometry)
    dgrid = np.linspace(-1, 1, 5)
    sp, rep = solve(p, f, make_grid(20, 48), dgrid, conv_rtol=np.inf)
    assert rep.converged and (rep.n_par, rep.n_res) == (40, n_res)
    fine, _ = solve(p, f, make_grid(40, n_res), dgrid, check_convergence=False)
    assert np.array_equal(sp.response, fine.response)


# each entry point with a doubling check, and the detuning grid's span; a NaN
# tolerance would pass any change, because rel > NaN is False.  Each message
# names the parameter the call used.
BAD_TOLERANCE_CALLS = {
    "solve_exact": (lambda p, f, g: solve_exact(p, f, g, [-0.01, 0.0, 0.01], conv_rtol=np.nan),
                    "^exact solve: conv_rtol must be > 0, got nan"),
    "solve_approximate": (lambda p, f, g: solve_approximate(p, f, g, [-0.01, 0.0, 0.01],
                                                            conv_rtol=-1e-6),
                          "^factored solve: conv_rtol must be > 0, got -1e-06"),
    "g_integral": (lambda p, f, g: g_integral(G1_SPEC, p, f, g, 0.0, rtol=np.nan),
                   "^quadrature: rtol must be > 0, got nan"),
    "filter_params_from_model": (lambda p, f, g: filter_params_from_model(p, f, g, rtol=np.nan),
                                 "^quadrature: rtol must be > 0, got nan"),
    "span_nan": (lambda p, f, g: default_detuning_grid(p, span=np.nan),
                 "^span must be finite and > 0 .* got span=nan"),
    "span_inf": (lambda p, f, g: default_detuning_grid(p, span=np.inf),
                 "^span must be finite and > 0 .* got span=inf"),
}


@pytest.mark.parametrize("entry", sorted(BAD_TOLERANCE_CALLS))
def test_a_tolerance_that_passes_nothing_is_rejected(entry, fig2_params, fig2_fields,
                                                     monkeypatch):
    # rejected before any solve: no velocity mesh is built
    meshes = []

    def counting_mesh(fields, grid):
        meshes.append(grid.n_par)
        return velocity_mesh(fields, grid)
    monkeypatch.setattr(spectrum_solver, "velocity_mesh", counting_mesh)
    monkeypatch.setattr(velocity_integrals, "velocity_mesh", counting_mesh)
    call, match = BAD_TOLERANCE_CALLS[entry]
    with pytest.raises(ValueError, match=match):
        call(fig2_params, fig2_fields, make_grid(80, 1))
    assert meshes == []


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


def assert_same_spectrum(got, want, rtol=1e-12):
    """got matches want on the same grid: response and each component to rtol
    of that array's largest magnitude."""
    assert np.array_equal(got.detunings, want.detunings)
    pairs = [(got.response, want.response)]
    assert (got.components is None) == (want.components is None)
    if want.components is not None:
        pairs += list(zip(got.components, want.components))
    for g, w in pairs:
        assert np.abs(g - w).max() <= rtol * np.abs(w).max()


ROUTES = {"exact": solve_exact, "approx": solve_approximate}
MESH_ROUTES = {"exact": _exact_response_on_mesh, "approx": _approx_terms_on_mesh}


def symmetric_grid(n, span=2.0):
    """n detunings on [-span, span], exactly symmetric about 0 (np.linspace
    is not); odd n holds 0."""
    pos = np.linspace(0.0, span, n // 2 + 1)[1 - n % 2:]
    return np.concatenate([-pos[n % 2:][::-1], pos])


def unmirrored(route, params, fields, grid, d):
    """The route's own evaluation of every detuning of d on the grid's product
    mesh, with no reflection: the reference for the solvers' mirrored path."""
    d = np.asarray(d, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        response, extra = MESH_ROUTES[route](params, fields, d, *velocity_mesh(fields, grid))
    return Spectrum.from_response(d, response, extra if route == "approx" else None)


class TestMirroredSolve:
    """On a grid symmetric about 0 the solvers solve detunings >= 0 and
    reflect them; they must match the route's evaluation of the whole grid."""

    P = ModelParams(gamma_pcc=0.4, gamma_vcc=0.1, gamma_g=0.003)

    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("n_det", [31, 32])
    @pytest.mark.parametrize("n_par, n_res, geometry, dq, v1, v2, vp", [
        (80, 1, "collinear", 0.0, 0.0816, 0.1, 0.001),
        (80, 1, "collinear", 0.3, 0.0816, 0.1, 0.001),
        (40, 7, "transverse", 0.02, 0.0816, 0.1, 0.001),
        (40, 8, "transverse", 0.02, 0.0816, 0.1, 0.001),
        # a common pump phase keeps v1 conj(v2) exactly real
        (40, 8, "transverse", 0.3, 0.06 * (1 + 1j), 0.07 * (1 + 1j), 2e-3 - 1e-3j),
    ])
    def test_matches_the_full_grid(self, route, n_det, n_par, n_res, geometry, dq,
                                   v1, v2, vp):
        f = FieldConfig(v1=v1, v2=v2, vp=vp, qp_vth=3.0, dq_vth=dq, dq_direction=geometry)
        grid, d = make_grid(n_par, n_res), symmetric_grid(n_det)
        got, rep = ROUTES[route](self.P, f, grid, d, check_convergence=False)
        want = unmirrored(route, self.P, f, grid, d)
        assert_same_spectrum(got, want)
        assert rep.n_detunings == (n_det + 1) // 2

    def test_doubling_check_solves_the_same_half(self, fig2_params, fig2_fields):
        d = symmetric_grid(21, 1.0)
        got, rep = solve_approximate(fig2_params, fig2_fields, make_grid(300, 1), d,
                                     conv_rtol=1.0)
        coarse = unmirrored("approx", fig2_params, fig2_fields, make_grid(300, 1), d)
        want = unmirrored("approx", fig2_params, fig2_fields,
                          _doubled(make_grid(300, 1), False), d)
        assert_same_spectrum(got, want)
        assert rep.converged is True and rep.n_detunings == 11
        change = np.abs(want.response - coarse.response).max() / np.abs(want.response).max()
        assert rep.notes == f"doubling check rel change {change:.2e}"

    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("change, d", [
        ({"delta1": 0.05}, symmetric_grid(9, 1.0)),
        ({"delta2": -0.05}, symmetric_grid(9, 1.0)),
        ({"v1": 0.0816j}, symmetric_grid(9, 1.0)),
        ({}, np.array([-1.0, -0.5, 0.0, 0.4, 1.0])),
    ], ids=["delta1", "delta2", "complex_v1_conj_v2", "asymmetric_grid"])
    def test_falls_back_to_the_plain_call(self, route, change, d, fig2_params):
        f = FieldConfig(**{**dict(v1=0.0816, v2=0.1, vp=0.001, qp_vth=3.0), **change})
        grid = make_grid(60, 1)
        got, got_rep = ROUTES[route](fig2_params, f, grid, d, check_convergence=False)
        want = unmirrored(route, fig2_params, f, grid, d)
        assert got.detunings.tobytes() == want.detunings.tobytes()
        assert got.response.tobytes() == want.response.tobytes()
        if want.components is not None:
            for g, w in zip(got.components, want.components):
                assert g.tobytes() == w.tobytes()
        assert got_rep.n_detunings == d.size
        assert got_rep.converged is None and got_rep.notes == ""


class TestSolversMirrorThemselves:
    """A direct solver call on a mirror-symmetric grid hands the route only
    the detunings >= 0, on the grid and on the doubled grid of the check."""

    @pytest.fixture
    def spy(self, monkeypatch):
        seen = []

        def wrap(mesh_route):
            def spying(params, fields, detunings, v_par, v_res, w):
                seen.append((np.array(detunings), w.size))
                return mesh_route(params, fields, detunings, v_par, v_res, w)
            return spying

        for name in ("_exact_response_on_mesh", "_approx_terms_on_mesh"):
            monkeypatch.setattr(spectrum_solver, name, wrap(getattr(spectrum_solver, name)))
        return seen

    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("n_det", [21, 22])
    @pytest.mark.parametrize("check", [False, True])
    def test_route_sees_only_detunings_at_or_above_zero(self, route, n_det, check, spy,
                                                         fig2_params, fig2_fields):
        d, grid = symmetric_grid(n_det, 1.0), make_grid(300, 1)
        sp, rep = ROUTES[route](fig2_params, fig2_fields, grid, d,
                                check_convergence=check, conv_rtol=1.0)
        assert sp.detunings.tobytes() == d.tobytes()
        assert rep.n_detunings == (d.size + 1) // 2
        assert [n for _, n in spy] == [300, 600][:1 + check]
        for seen, _ in spy:
            assert seen.tobytes() == d[d.size // 2:].tobytes() and np.all(seen >= 0)

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_a_grid_failing_the_mirror_conditions_is_solved_whole(self, route, spy,
                                                                  fig2_params, fig2_fields):
        d = symmetric_grid(21, 1.0)
        f = replace(fig2_fields, delta1=0.05)
        _, rep = ROUTES[route](fig2_params, f, make_grid(300, 1), d, check_convergence=False)
        assert rep.n_detunings == d.size
        assert [seen.tobytes() for seen, _ in spy] == [d.tobytes()]


@settings(max_examples=30, deadline=None)
@given(route=st.sampled_from(sorted(ROUTES)), gpcc=st.floats(0.05, 5.0),
       gvcc=st.floats(0.0, 0.5), gg=st.floats(1e-3, 0.1), qp=st.floats(0.0, 40.0),
       dq=st.floats(0.0, 2.0), geometry=st.sampled_from(["transverse", "collinear"]),
       b=st.integers(0, 1), v1=st.floats(-0.5, 0.5), v2=st.floats(-0.5, 0.5),
       pos=positive_detunings, center=st.booleans())
def test_mirrored_solve_matches_the_full_grid(route, gpcc, gvcc, gg, qp, dq, geometry,
                                              b, v1, v2, pos, center):
    """The reflected half equals the route's own full-grid evaluation, on
    grids with and without the line center."""
    p = ModelParams(gamma_pcc=gpcc, gamma_vcc=gvcc, gamma_g=gg, b=b)
    pos = np.sort(pos)
    dgrid = np.concatenate([-pos[::-1], [0.0] * center, pos])
    grid = make_grid(40, 8)
    with warnings.catch_warnings():
        # weak pumps against vp, and the factored route's regime note
        warnings.simplefilter("ignore", UserWarning)
        f = FieldConfig(v1=v1, v2=v2, vp=1e-3, qp_vth=qp, dq_vth=dq, dq_direction=geometry)
        got, rep = ROUTES[route](p, f, grid, dgrid, check_convergence=False)
        want = unmirrored(route, p, f, grid, dgrid)
    assert_same_spectrum(got, want)
    assert rep.n_detunings == pos.size + center


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
