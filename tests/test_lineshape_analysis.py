"""Width extraction, Lorentzian fitting, and the narrowing-law model."""

import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eia.core_model import ModelParams, FieldConfig
from eia.velocity_integrals import make_grid
from eia.spectrum_solver import Components, SolveReport, Spectrum, solve_approximate
from eia import lineshape_analysis
from eia.lineshape_analysis import (
    LineMetrics,
    PEDESTAL_CONVENTION,
    _half_crossings,
    _scan_detuning_grid,
    extract_fwhm,
    dicke_fwhm_model,
    fit_lorentzian,
    scan_delta_q,
)


def synth(detunings, sharp, background=None, pedestal=None):
    """Spectrum whose absorption components are given real arrays."""
    d = np.asarray(detunings, dtype=float)
    z = np.zeros_like(d)
    bg = z if background is None else np.asarray(background, dtype=float)
    ped = z if pedestal is None else np.asarray(pedestal, dtype=float)
    comps = Components(1j * bg, 1j * ped, 1j * np.asarray(sharp, dtype=float))
    resp = comps.background + comps.pedestal + comps.sharp_peak
    return Spectrum.from_response(d, resp, comps)


def lorentz(x, c, w, amp, off=0.0):
    return off + amp * w**2 / ((x - c) ** 2 + w**2)


class TestExtractFwhm:
    def test_lorentzian_width_recovered(self):
        x = np.linspace(-2, 2, 4001)
        m = extract_fwhm(synth(x, lorentz(x, 0.0, 0.05, 1.0)))
        assert m.fwhm == pytest.approx(0.1, rel=1e-3)
        assert m.peak_position == pytest.approx(0.0, abs=1e-3)
        assert m.peak_value == pytest.approx(1.0, rel=1e-4)

    def test_gaussian_width_recovered(self):
        sigma = 0.3
        x = np.linspace(-3, 3, 6001)
        m = extract_fwhm(synth(x, np.exp(-x**2 / (2 * sigma**2))))
        assert m.fwhm == pytest.approx(2.0 * np.sqrt(2.0 * np.log(2.0)) * sigma,
                                       rel=1e-3)

    def test_feature_selection(self):
        # wide grid keeps the pedestal wings near zero so the wing-mean
        # baseline does not bias its width
        x = np.linspace(-8, 8, 8001)
        sharp = lorentz(x, 0.0, 0.02, 0.5)
        ped = lorentz(x, 0.0, 0.4, 0.3)
        bg = np.full_like(x, 2.0)
        sp = synth(x, sharp, background=bg, pedestal=ped)
        assert extract_fwhm(sp, "sharp_peak_component").fwhm == pytest.approx(0.04, rel=1e-3)
        assert extract_fwhm(sp, "pedestal_component").fwhm == pytest.approx(0.8, rel=1e-2)
        # total minus background leaves the two-peak structure; its half max
        # sits on the narrow feature
        tm = extract_fwhm(sp, "total_minus_background")
        assert tm.fwhm < 0.2

    def test_unknown_feature_rejected(self):
        x = np.linspace(-1, 1, 101)
        sp = synth(x, lorentz(x, 0.0, 0.1, 1.0))
        with pytest.raises(ValueError, match="feature"):
            extract_fwhm(sp, "sideband")

    def test_requires_components(self):
        x = np.linspace(-1, 1, 101)
        sp = Spectrum.from_response(x, 1j * lorentz(x, 0.0, 0.1, 1.0))
        with pytest.raises(ValueError, match="components"):
            extract_fwhm(sp)

    def test_narrow_grid_raises(self):
        # left edge sits above the half-maximum level: no crossing to report
        x = np.linspace(-0.05, 3, 500)
        sp = synth(x, lorentz(x, 0.0, 0.5, 1.0))
        with pytest.raises(RuntimeError, match="not crossed"):
            extract_fwhm(sp)

    def test_metrics_validation(self):
        with pytest.raises(ValueError):
            LineMetrics(fwhm=0.0, peak_value=1.0, peak_position=0.0, baseline=0.0)


class TestHalfCrossings:
    """Crossings on piecewise-linear spectra, whose interpolant crossings are known."""

    # tent 1 - |x|/2 over a zero baseline: half level 0.5 at x = -1 and x = 1
    @pytest.mark.parametrize("x, left, right", [
        ([-2.0, -1.5, -0.75, 0.0, 0.5, 1.25, 2.0], -1.0, 1.0),
        # crossing on the last segment before the right grid edge
        ([-2.0, -1.5, -0.75, 0.0, 0.5, 1.25], -1.0, 1.0),
        # a sample on the level is its own crossing
        ([-1.5, -1.0, -0.25, 0.0, 0.375, 1.75], -1.0, 1.0),
    ])
    def test_tent_crossings(self, x, left, right):
        x = np.array(x)
        y = 1.0 - 0.5 * np.abs(x)
        got_left, got_right, idx, peak = _half_crossings(x, y, 0.0)
        assert (got_left, got_right, idx, peak) == (left, right, 3, 1.0)

    def test_irregular_asymmetric_line(self, rng):
        # slopes 1/4 and -3 from a peak 2 above a baseline 0.5: the
        # interpolant crosses 1.5 at -4 and at 1/3, whatever the sampling;
        # samples on a 1/1024 lattice keep every y exact
        x = np.concatenate([rng.choice(np.arange(-8192, 0), 40, replace=False),
                            [0], rng.choice(np.arange(1, 615), 30, replace=False)])
        x = np.sort(x) / 1024.0
        y = 0.5 + np.where(x < 0, 2.0 + 0.25 * x, 2.0 - 3.0 * x)
        left, right, idx, peak = _half_crossings(x, y, 0.5)
        assert x[idx] == 0.0 and peak == 2.5
        assert left == pytest.approx(-4.0, rel=0, abs=1e-15)
        assert right == pytest.approx(1.0 / 3.0, rel=0, abs=1e-15)


class TestFitLorentzian:
    def test_exact_data_recovered_to_rounding(self):
        x = np.linspace(-1.5, 1.5, 801)
        sp = synth(x, lorentz(x, 0.07, 0.12, 2.5, off=0.4))
        m = fit_lorentzian(sp)
        f = m.fit_params
        assert f.center == pytest.approx(0.07, abs=1e-8)
        assert f.hwhm == pytest.approx(0.12, rel=1e-8)
        assert f.amplitude == pytest.approx(2.5, rel=1e-8)
        assert f.offset == pytest.approx(0.4, abs=1e-8)
        assert f.residual_norm < 1e-10
        assert m.fwhm == pytest.approx(0.24, rel=1e-8)

    def test_contamination_shows_in_residual(self):
        x = np.linspace(-1.5, 1.5, 801)
        clean = lorentz(x, 0.0, 0.1, 1.0)
        bumped = clean + lorentz(x, 0.5, 0.05, 0.2)
        assert fit_lorentzian(synth(x, bumped)).fit_params.residual_norm \
            > 100 * fit_lorentzian(synth(x, clean)).fit_params.residual_norm

    def test_flat_input_rejected(self):
        x = np.linspace(-1, 1, 51)
        sp = Spectrum.from_response(x, np.full(51, 0.3j))
        with pytest.raises(ValueError, match="flat"):
            fit_lorentzian(sp)

    def test_dip_rejected(self):
        x = np.linspace(-1, 1, 201)
        dip = 1.0 - 0.9 * np.exp(-x**2 / (2 * 0.05**2))
        with pytest.raises(ValueError, match="peak"):
            fit_lorentzian(Spectrum.from_response(x, 1j * dip))

    @settings(max_examples=25, deadline=None)
    @given(c=st.floats(-0.4, 0.4), w=st.floats(0.02, 0.4),
           amp=st.floats(0.1, 10.0), off=st.floats(0.0, 5.0))
    def test_random_lorentzians_recovered(self, c, w, amp, off):
        x = np.linspace(-2, 2, 1201)
        m = fit_lorentzian(synth(x, lorentz(x, c, w, amp, off)))
        assert m.fit_params.hwhm == pytest.approx(w, rel=1e-6)
        assert m.fit_params.center == pytest.approx(c, abs=1e-6 * max(w, abs(c)))


class TestDickeModel:
    def test_quadratic_regime(self):
        # x = a*v/gvcc = 1e-3: model equals 2 v^2/gvcc to well under 0.1%
        gvcc = 0.1
        a = np.sqrt(2.0 / np.log(2.0))
        v = 1e-3 * gvcc / a
        assert dicke_fwhm_model(gvcc, v) == pytest.approx(2 * v**2 / gvcc, rel=1e-3)

    def test_linear_regime(self):
        gvcc = 0.1
        a = np.sqrt(2.0 / np.log(2.0))
        v = 100.0 * gvcc / a  # x = 100
        # (4/a) v = 2.355 v: the full residual-Doppler width, minus the O(1/x)
        # leftover of the -1 in H
        assert dicke_fwhm_model(gvcc, v) == pytest.approx(4.0 * v / a, rel=2e-2)

    def test_monotone_in_mismatch(self):
        v = np.linspace(0.0, 1.0, 200)
        w = dicke_fwhm_model(0.1, v)
        assert w[0] == 0.0
        assert np.all(np.diff(w) > 0)

    def test_scalar_and_array_agree(self):
        w = dicke_fwhm_model(0.2, np.array([0.0, 0.1, 0.5]))
        assert w[1] == dicke_fwhm_model(0.2, 0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            dicke_fwhm_model(0.0, 0.1)
        with pytest.raises(ValueError):
            dicke_fwhm_model(0.1, -0.1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gamma_vcc, v_th_dq, name", [
        (np.inf, 0.01, "gamma_vcc"),
        (0.1, float("nan"), "v_th_dq"),
        (0.1, float("inf"), "v_th_dq"),
        (0.1, np.array([0.0, np.nan, 0.02]), "v_th_dq"),
    ])
    def test_rejects_non_finite_input(self, gamma_vcc, v_th_dq, name):
        with pytest.raises(ValueError, match=name):
            dicke_fwhm_model(gamma_vcc, v_th_dq)


class TestScan:
    P = ModelParams(gamma_pcc=1.0, gamma_vcc=0.1, gamma_g=0.001)
    F = FieldConfig(v1=0.0816, v2=0.1, vp=0.001, qp_vth=36.5, dq_vth=0.0,
                    dq_direction="collinear")

    def test_ladder_validation(self):
        g = make_grid(10, 1)
        with pytest.raises(ValueError):
            scan_delta_q(self.P, self.F, g, [])
        with pytest.raises(ValueError):
            scan_delta_q(self.P, self.F, g, [-0.1, 0.2])
        with pytest.raises(ValueError):
            scan_delta_q(self.P, self.F, g, [0.2, 0.1])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rung_rejected_before_any_solve(self, bad, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return solve_approximate(*args, **kwargs)

        monkeypatch.setattr(lineshape_analysis, "solve_approximate", counting)
        with pytest.raises(ValueError, match="dq_ladder entries must be finite"):
            scan_delta_q(self.P, self.F, make_grid(10, 1), [0.0, bad])
        assert calls == []

    def test_rows_carry_the_ladder_and_positive_metrics(self):
        rows = scan_delta_q(self.P, self.F, make_grid(300, 1), [0.0, 0.01])
        assert [r.dq_vth for r in rows] == [0.0, 0.01]
        for r in rows:
            assert r.fwhm > 0
            assert r.peak_absorption > 0
            assert r.pedestal_fwhm > 0

    @pytest.mark.parametrize("geometry, n_res", [("collinear", 1), ("transverse", 8)])
    def test_rows_match_full_grid_solves(self, geometry, n_res, monkeypatch):
        """Each rung solves part of its detunings >= 0; its row equals the
        row of the solver's own full-grid spectrum."""
        f, grid = replace(self.F, dq_direction=geometry), make_grid(300, n_res)
        solved = _count_solved(monkeypatch)
        rows = scan_delta_q(self.P, f, grid, [0.0, 0.01])
        monkeypatch.undo()
        for row in rows:
            d = _scan_detuning_grid(self.P, row.dq_vth)
            sp, _ = solve_approximate(self.P, replace(f, dq_vth=row.dq_vth), grid, d,
                                      check_convergence=False)
            sharp = extract_fwhm(sp, feature="sharp_peak_component")
            ped = extract_fwhm(sp, feature="pedestal_component")
            assert row.fwhm == pytest.approx(sharp.fwhm, rel=1e-12)
            assert row.peak_absorption == pytest.approx(sharp.peak_value - sharp.baseline,
                                                        rel=1e-12)
            assert row.pedestal_fwhm == pytest.approx(ped.fwhm, rel=1e-12)
            assert row.report.method == "approximate"
            assert row.report.n_detunings == sum(solved[row.dq_vth])

    def test_rows_match_the_bisected_crossings(self, monkeypatch):
        """On the dicke_scan ladder (600x16 transverse nodes) the closed-form
        crossings agree with bisection of the same interpolant to 1e-6, the
        tolerance the bisection ran to; heights do not use the crossings."""
        closed_form, seen = lineshape_analysis._half_crossings, []

        def both(x, y, baseline):
            got = closed_form(x, y, baseline)
            seen.append((got, _bisected_half_crossings(x, y, baseline)))
            return got

        monkeypatch.setattr(lineshape_analysis, "_half_crossings", both)
        ladder = [i / 500.0 for i in range(11)]
        rows = scan_delta_q(self.P, replace(self.F, dq_direction="transverse"),
                            make_grid(600, 16), ladder)
        # per rung: the sharp component, then the pedestal
        assert len(seen) == 2 * len(ladder)
        for (new_l, new_r, new_idx, new_peak), (old_l, old_r, old_idx, old_peak) in seen:
            assert (new_idx, new_peak) == (old_idx, old_peak)
            assert abs((new_r - new_l) - (old_r - old_l)) <= 1e-6
        widths = [r - l for (l, r, _, _), _ in seen]
        assert widths == [w for row in rows for w in (row.fwhm, row.pedestal_fwhm)]

    def test_convention_constant_is_stable(self):
        # CLI metadata depends on this exact string
        assert PEDESTAL_CONVENTION == "fwhm_of_pedestal_component"


def _count_solved(monkeypatch):
    """Record how many detunings each solve_approximate call of a scan gets,
    keyed by the rung's dq_vth."""
    solved = {}

    def counting(params, fields, grid, detuning_grid, **kwargs):
        solved.setdefault(fields.dq_vth, []).append(len(detuning_grid))
        return solve_approximate(params, fields, grid, detuning_grid, **kwargs)

    monkeypatch.setattr(lineshape_analysis, "solve_approximate", counting)
    return solved


def _full_grid_metrics(params, fields, grid, check_convergence=False):
    """The rung's sharp and pedestal metrics from one solve of its whole grid."""
    d = _scan_detuning_grid(params, fields.dq_vth)
    sp, report = solve_approximate(params, fields, grid, d, check_convergence=check_convergence)
    return (extract_fwhm(sp, feature="sharp_peak_component"),
            extract_fwhm(sp, feature="pedestal_component"), report)


def _assert_row_matches(row, params, fields, grid, check_convergence=False):
    sharp, ped, report = _full_grid_metrics(params, replace(fields, dq_vth=row.dq_vth),
                                            grid, check_convergence)
    assert row.fwhm == pytest.approx(sharp.fwhm, rel=1e-12, abs=0)
    assert row.peak_absorption == pytest.approx(sharp.peak_value - sharp.baseline,
                                                rel=1e-12, abs=0)
    assert row.pedestal_fwhm == pytest.approx(ped.fwhm, rel=1e-12, abs=0)
    return sharp, ped, report


class TestScanRung:
    """Each rung solves a coarse subset of its detunings >= 0 plus the two
    half-level brackets, and its row is the whole grid's row."""

    P = TestScan.P
    F = replace(TestScan.F, dq_direction="transverse")
    DICKE_LADDER = [i / 500.0 for i in range(11)]

    def test_two_solves_per_rung_on_the_dicke_ladder(self, monkeypatch):
        solved = _count_solved(monkeypatch)
        rows = scan_delta_q(self.P, self.F, make_grid(600, 16), self.DICKE_LADDER)
        for row in rows:
            assert len(solved[row.dq_vth]) == 2
            assert row.report.n_detunings == sum(solved[row.dq_vth]) <= 300
            assert row.report.notes == ""

    @pytest.mark.slow
    def test_dicke_ladder_rows_match_the_full_grid(self):
        grid = make_grid(600, 16)
        for row in scan_delta_q(self.P, self.F, grid, self.DICKE_LADDER):
            sharp, _, _ = _assert_row_matches(row, self.P, self.F, grid)
            assert row.peak_absorption == sharp.peak_value - sharp.baseline

    @pytest.mark.slow
    def test_criterion_6_ladder_rows_match_the_full_grid(self):
        a = np.sqrt(2.0 / np.log(2.0))
        ladder = [x * self.P.gamma_vcc / a for x in (0.5, 1.0, 2.0, 3.5, 5.0)]
        grid = make_grid(600, 8)
        for row in scan_delta_q(self.P, self.F, grid, ladder):
            _assert_row_matches(row, self.P, self.F, grid)

    def test_collinear_rows_match_the_full_grid(self):
        f, grid = replace(self.F, dq_direction="collinear"), make_grid(300, 1)
        for row in scan_delta_q(self.P, f, grid, [0.0, 0.01, 0.05]):
            _assert_row_matches(row, self.P, f, grid)

    def test_doubling_check_rows_match_the_full_grid(self, monkeypatch):
        # a small Doppler scale, so that 40 nodes pass the check at rtol 1e-6
        f, grid = replace(self.F, qp_vth=1.0, dq_direction="collinear"), make_grid(40, 1)
        calls = {}

        def recording(*args, **kwargs):
            out = solve_approximate(*args, **kwargs)
            calls.setdefault(args[1].dq_vth, []).append(out[1])
            return out

        monkeypatch.setattr(lineshape_analysis, "solve_approximate", recording)
        rows = scan_delta_q(self.P, f, grid, [0.0, 0.01], check_convergence=True)
        monkeypatch.undo()
        change = re.compile(r"doubling check rel change ([0-9.e+-]+)")
        for row in rows:
            _, _, report = _assert_row_matches(row, self.P, f, grid, check_convergence=True)
            reports = calls[row.dq_vth]
            assert len(reports) == 2 and row.report.converged is True
            assert row.report.n_detunings == sum(r.n_detunings for r in reports)
            # the largest change of the rung's calls, in the solver's format
            assert float(change.fullmatch(row.report.notes).group(1)) == \
                max(float(change.fullmatch(r.notes).group(1)) for r in reports) <= 1e-6
            assert change.fullmatch(report.notes)

    def test_falls_back_when_the_mirror_conditions_fail(self, monkeypatch):
        grid = make_grid(60, 2)
        for f in (replace(self.F, delta1=0.01), replace(self.F, v1=0.0816j)):
            solved = _count_solved(monkeypatch)
            row, = scan_delta_q(self.P, f, grid, [0.01])
            monkeypatch.undo()
            _assert_row_matches(row, self.P, f, grid)
            assert solved[0.01] == [_scan_detuning_grid(self.P, 0.01).size]
            assert row.report.n_detunings == solved[0.01][0]
            assert row.report.notes == "fallback: mirror conditions fail"

    def test_falls_back_on_an_off_center_maximum(self, monkeypatch):
        # at these rates a coarse sample reaches the line-center value
        p = ModelParams(gamma_pcc=0.24, gamma_vcc=0.0016, gamma_g=0.005)
        grid = make_grid(51, 2)
        solved = _count_solved(monkeypatch)
        row, = scan_delta_q(p, self.F, grid, [0.155])
        monkeypatch.undo()
        _assert_row_matches(row, p, self.F, grid)
        # the coarse call, then the whole grid, whose half >= 0 the solver solves
        d = _scan_detuning_grid(p, 0.155)
        assert len(solved[0.155]) == 2 and solved[0.155][1] == d.size
        assert row.report.n_detunings == solved[0.155][0] + (d.size + 1) // 2
        assert row.report.notes == \
            "fallback: an off-center sample reaches the line-center value"

    def test_line_wider_than_the_grid_raises(self, monkeypatch):
        """A sharp line far wider than the grid still crosses its half level
        between coarse samples, as the outer 5% average to the baseline, but
        those wing samples slope: the rung and extract_fwhm on the whole grid
        raise the same "detuning grid too narrow".  Synthetic even components
        stand in for the solver."""

        def synthetic(params, fields, grid, detuning_grid, **kwargs):
            x = np.asarray(detuning_grid, dtype=float)
            sharp, ped = 1j / (1.0 + (x / 50.0) ** 2), 1j / (1.0 + (x / 0.3) ** 2)
            parts = Components(np.zeros_like(sharp), ped, sharp)
            return (Spectrum.from_response(x, sharp + ped, parts),
                    SolveReport("approximate", grid.n_par, grid.n_res, x.size, 0.0))

        monkeypatch.setattr(lineshape_analysis, "solve_approximate", synthetic)
        with pytest.raises(RuntimeError, match="detuning grid too narrow$") as rung:
            scan_delta_q(self.P, self.F, make_grid(10, 1), [0.01])
        want, _ = synthetic(None, None, make_grid(10, 1), _scan_detuning_grid(self.P, 0.01))
        with pytest.raises(RuntimeError) as full:
            extract_fwhm(want, feature="sharp_peak_component")
        assert str(full.value) == str(rung.value)
        # the pedestal, FWHM 0.6 on the +-2 grid, is measured (its wings, at 2% of
        # the peak, lift the baseline and shorten the width by 2.5%)
        assert extract_fwhm(want, feature="pedestal_component").fwhm == \
            pytest.approx(0.6, rel=0.03)


@settings(max_examples=40, deadline=None)
@given(gamma_pcc=st.floats(0.1, 10.0), gamma_vcc=st.floats(1e-3, 0.3),
       gamma_g=st.floats(1e-4, 1e-2), dq=st.one_of(st.just(0.0), st.floats(1e-3, 0.3)),
       geometry=st.sampled_from(["collinear", "transverse"]),
       n_par=st.integers(20, 80), n_res=st.integers(1, 4))
def test_rung_row_is_the_full_grid_row(gamma_pcc, gamma_vcc, gamma_g, dq, geometry,
                                       n_par, n_res):
    """Over random rates and mismatches: the rung's row is the full-grid row
    to rel 1e-12, or both raise the same error."""
    p = ModelParams(gamma_pcc=gamma_pcc, gamma_vcc=gamma_vcc, gamma_g=gamma_g)
    f = replace(TestScan.F, dq_direction=geometry, dq_vth=dq)
    grid = make_grid(n_par, n_res)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # gamma_vcc may leave the factored regime
        try:
            row, = scan_delta_q(p, f, grid, [dq])
        except (RuntimeError, ValueError) as exc:
            with pytest.raises(type(exc)) as full:
                _full_grid_metrics(p, f, grid)
            assert str(full.value) == str(exc)
            return
        _assert_row_matches(row, p, f, grid)


def _bisected_half_crossings(x, y, baseline, tol=1e-6):
    """Reference crossings: bisection of the linear interpolant down to tol."""
    idx = int(np.argmax(y))
    peak = float(y[idx])
    level = baseline + 0.5 * (peak - baseline)

    def bisect(j):
        lo, hi = float(x[j]), float(x[j + 1])
        flo = np.interp(lo, x, y) - level
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            fm = np.interp(mid, x, y) - level
            if (flo <= 0) == (fm <= 0):
                lo, flo = mid, fm
            else:
                hi = mid
        return 0.5 * (lo + hi)

    left = next(bisect(j) for j in range(idx - 1, -1, -1)
                if (y[j] - level) * (y[j + 1] - level) <= 0 and y[j] <= level)
    right = next(bisect(j) for j in range(idx, y.size - 1)
                 if (y[j] - level) * (y[j + 1] - level) <= 0 and y[j + 1] <= level)
    return left, right, idx, peak
