"""Scenario runner: config resolution, file outputs, determinism."""

import csv
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from eia.cli_runner import PRESETS, SCENARIOS, expand_target, main, parse_config
from eia import lineshape_analysis
from eia.spatial_filter import load_profile
from eia.spectrum_solver import solve_approximate


pytestmark = pytest.mark.usefixtures("no_stray_children")


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in r] for r in rows[1:]]


def read_manifest(base):
    with open(str(base) + ".manifest.json") as fh:
        return json.load(fh)


class TestParseConfig:
    def test_defaults_resolve_every_key(self):
        cfg = parse_config("at_rest")
        assert cfg.out == "at_rest"
        assert cfg.values["qp_vth"] == 36.5
        assert cfg.values["gamma_pcc"] == 0.0
        assert cfg.values["deltap_hom_factor"] == 0.0

    def test_later_source_wins(self):
        cfg = parse_config("at_rest", {"gamma_pcc": 1.0}, {"gamma_pcc": 2.5})
        assert cfg.values["gamma_pcc"] == 2.5

    @pytest.mark.parametrize("key", ["gamma_zz", "n0", "gamma_sp", "wavelength"])
    def test_unknown_key(self, key):
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config("at_rest", {key: 1.0})

    def test_range_check(self):
        with pytest.raises(ValueError, match="outside allowed range"):
            parse_config("at_rest", {"gamma_pcc": -1.0})

    def test_bool_coercion(self):
        assert parse_config("at_rest", {"refine": "false"}).values["refine"] is False
        assert parse_config("at_rest", {"refine": "YES"}).values["refine"] is True
        with pytest.raises(ValueError, match="cannot read"):
            parse_config("at_rest", {"refine": "maybe"})

    def test_int_coercion(self):
        assert parse_config("at_rest", {"n_par": 2000.0}).values["n_par"] == 2000
        with pytest.raises(ValueError, match="cannot read"):
            parse_config("at_rest", {"n_par": 1500.5})

    def test_list_from_json_string(self):
        cfg = parse_config("fwhm_scan", {"dq_ladder": "[0, 0.1]"})
        assert cfg.values["dq_ladder"] == [0.0, 0.1]

    def test_null_is_refused(self):
        # no key has a null mode: the filter runs at deltap + factor * gamma_hom
        for raw in (None, "none", "NULL"):
            with pytest.raises(ValueError, match="'deltap_hom_factor': cannot read"):
                parse_config("filter_curve", {"deltap_hom_factor": raw})
        cfg = parse_config("filter_curve", {"deltap_hom_factor": 1.5})
        assert cfg.values["deltap_hom_factor"] == 1.5

    @pytest.mark.parametrize("key, raw", [("gamma_pcc", True), ("n_par", True),
                                          ("dq_ladder", [True, 2]), ("dq_ladder", "[0, false]"),
                                          ("profile_in", False)])
    def test_bool_is_not_a_number(self, key, raw):
        # a JSON true read as 1 gave gamma_pcc = 1.0 and a one-node grid
        with pytest.raises(ValueError, match=f"config key {key!r}: cannot read"):
            parse_config("at_rest", {key: raw})

    def test_scan_ladder_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            parse_config("fwhm_scan", {"dq_ladder": [0.2, 0.1]})
        with pytest.raises(ValueError, match="ascending"):
            parse_config("fwhm_scan", {"dq_ladder": []})

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            parse_config("sideband_scan")


class TestExpandTarget:
    def test_plain_scenario_is_one_run(self):
        runs = expand_target("at_rest", {}, {}, "", "csv")
        assert len(runs) == 1 and runs[0].out == "at_rest"

    def test_fig2_preset(self):
        runs = expand_target("fig2", {}, {}, "", "csv")
        assert [r.scenario for r in runs] == ["spectrum_exact", "spectrum_approx"]
        assert [r.out for r in runs] == ["fig2_exact", "fig2_approx"]
        for r in runs:
            assert r.values["gamma_pcc"] == 5.0
            assert r.values["gamma_vcc"] == 0.025
            assert r.values["n_par"] == 3000

    def test_fig6_preset(self):
        runs = expand_target("fig6", {}, {}, "", "csv")
        assert len(runs) == 5
        assert {r.scenario for r in runs} == {"filter_curve"}
        assert sorted(r.values["deltap_hom_factor"] for r in runs) == [-2, -1, 0, 1, 2]
        assert all(r.values["gamma_pcc"] == 10.0 for r in runs)

    def test_overrides_beat_preset(self):
        runs = expand_target("fig2", {}, {"n_par": 100}, "custom", "csv")
        assert all(r.values["n_par"] == 100 for r in runs)
        assert runs[0].out == "custom_exact"

    def test_unknown_target(self):
        with pytest.raises(ValueError, match="unknown scenario or preset"):
            expand_target("fig99", {}, {}, "", "csv")

    def test_every_preset_expands_cleanly(self):
        for name in PRESETS:
            for run in expand_target(name, {}, {}, "", "csv"):
                assert run.scenario in SCENARIOS


AT_REST_ARGS = ["--set", "gamma_pcc=0", "--set", "gamma_g=0",
                "--set", "detuning_n=101", "--set", "refine=false"]


class TestMainRuns:
    def test_at_rest_csv(self, tmp_path, capsys):
        out = tmp_path / "ar"
        assert main(["at_rest", *AT_REST_ARGS, "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed == [str(out) + ".csv", str(out) + ".manifest.json"]
        header, rows = read_csv(str(out) + ".csv")
        assert header == ["deltap", "re_response", "im_response"]
        assert len(rows) == 101
        d = np.array([r[0] for r in rows])
        np.testing.assert_allclose(d, -d[::-1], atol=1e-15)
        man = read_manifest(out)
        assert man["scenario"] == "at_rest"
        assert man["report"]["n_detunings"] == 101

    def test_at_rest_json_components(self, tmp_path):
        out = tmp_path / "ar"
        assert main(["at_rest", *AT_REST_ARGS, "--format", "json",
                     "--out", str(out)]) == 0
        doc = json.loads(Path(str(out) + ".json").read_text())
        assert set(doc) == {"deltap", "re_response", "im_response", "components"}
        sharp = doc["components"]["sharp_peak"]
        assert max(abs(v) for v in sharp["im"]) == 0.0

    def test_runs_are_deterministic(self, tmp_path):
        outs = [tmp_path / "a" / "r", tmp_path / "b" / "r"]
        for out in outs:
            out.parent.mkdir()
            assert main(["at_rest", *AT_REST_ARGS, "--out", str(out)]) == 0
        a, b = (Path(str(o) + ".csv").read_bytes() for o in outs)
        assert a == b
        ma, mb = (read_manifest(o) for o in outs)
        for m in (ma, mb):
            m.pop("wall_time_s")
            m.pop("out_files")
            m["resolved"].pop("out")
        assert ma == mb

    def test_config_file_merges_under_flags(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "gamma_pcc": 5.0, "gamma_vcc": 0.025, "gamma_g": 0.001,
            "detuning_n": 41, "refine": False, "n_par": 200,
            "check_convergence": False}))
        out = tmp_path / "sp"
        rc = main(["spectrum_approx", "--config", str(cfg_path),
                   "--set", "gamma_vcc=0.1", "--out", str(out)])
        assert rc == 0
        resolved = read_manifest(out)["resolved"]
        assert resolved["gamma_vcc"] == 0.1   # flag beats file
        assert resolved["gamma_pcc"] == 5.0   # file beats default

    def test_fwhm_scan_outputs(self, tmp_path):
        out = tmp_path / "scan"
        rc = main(["fwhm_scan", "--set", "gamma_pcc=1", "--set", "gamma_vcc=0.1",
                   "--set", "gamma_g=0.001", "--set", "dq_ladder=[0, 0.01]",
                   "--set", "n_par=300", "--set", "n_res=1",
                   "--set", "check_convergence=false", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(str(out) + ".csv")
        assert header == ["dq_vth", "fwhm", "peak_abs"]
        assert [r[0] for r in rows] == [0.0, 0.01]
        assert all(r[1] > 0 and r[2] > 0 for r in rows)
        report = read_manifest(out)["report"]
        assert report["pedestal_convention"] == "fwhm_of_pedestal_component"
        assert len(report["pedestal_fwhm"]) == 2

    def test_filter_curve_outputs(self, tmp_path):
        out = tmp_path / "flt"
        rc = main(["filter_curve", "--set", "gamma_pcc=10", "--set", "gamma_vcc=0.025",
                   "--set", "gamma_g=0.001", "--set", "n_par=500", "--set", "n_k=17",
                   "--set", "check_convergence=false", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(str(out) + ".csv")
        assert header == ["k_over_qp", "re_l", "im_l", "abs_l"]
        assert len(rows) == 17
        assert rows[0][1] > rows[-1][1]  # rolls off with k
        report = read_manifest(out)["report"]
        assert report["eta"] == pytest.approx(0.816)
        assert report["diffusion_D"] == pytest.approx(53290.0)

    def test_beam_filter_zero_slice_is_identity(self, tmp_path):
        out = tmp_path / "beam"
        rc = main(["beam_filter", "--set", "gamma_pcc=5", "--set", "gamma_vcc=0.025",
                   "--set", "gamma_g=0.001", "--set", "n_par=400",
                   "--set", "slice_length=0", "--set", "check_convergence=false",
                   "--out", str(out)])
        assert rc == 0
        report = read_manifest(out)["report"]
        assert report["power_out"] == pytest.approx(report["power_in"], rel=1e-12)
        prof = load_profile(str(out) + ".profile.txt", fmt="text")
        assert prof.samples.shape == (128, 128)

    def test_beam_filter_binary_output_is_named_bin(self, tmp_path):
        out = tmp_path / "beam"
        rc = main(["beam_filter", "--set", "gamma_pcc=5", "--set", "gamma_vcc=0.025",
                   "--set", "gamma_g=0.001", "--set", "n_par=400",
                   "--set", "profile_format=binary", "--set", "check_convergence=false",
                   "--out", str(out)])
        assert rc == 0
        path = str(out) + ".profile.bin"
        assert read_manifest(out)["out_files"] == [path]
        assert not Path(str(out) + ".profile.txt").exists()
        prof = load_profile(path, fmt="binary")
        assert prof.samples.shape == (128, 128)
        assert prof.power() == pytest.approx(read_manifest(out)["report"]["power_out"],
                                             rel=1e-12)

    def test_ramsey_outputs(self, tmp_path):
        out = tmp_path / "rms"
        rc = main(["ramsey", "--set", "gamma_pcc=5", "--set", "gamma_vcc=0.025",
                   "--set", "gamma_g=0.001", "--set", "half_width_a=0.005",
                   "--set", "ramsey_n=3", "--set", "ramsey_span=0.004",
                   "--set", "n_par=400", "--set", "check_convergence=false",
                   "--out", str(out)])
        assert rc == 0
        report = read_manifest(out)["report"]
        assert report["qp_vth_bridge"] == pytest.approx(36.622490032397494, rel=1e-9)
        assert report["diffusion_d"] == pytest.approx(8.267709317038288e-10, rel=1e-9)
        assert report["v_th_si"] == pytest.approx(171.39325335162027, rel=1e-9)
        header, rows = read_csv(str(out) + ".csv")
        assert header == ["deltap", "re_response", "im_response"]
        mid = [r[2] for r in rows if r[0] == 0.0]
        assert mid and all(r[2] <= mid[0] + 1e-12 for r in rows)


    def test_spectrum_approx_matches_a_direct_solve(self, tmp_path):
        # the runner solves the detunings >= 0 of its symmetric grid and
        # reflects them
        sets = {"gamma_pcc": 5.0, "gamma_vcc": 0.025, "gamma_g": 0.001, "n_par": 200,
                "detuning_n": 41, "check_convergence": False}
        out = tmp_path / "sp"
        rc = main(["spectrum_approx", "--format", "json", "--out", str(out),
                   *[a for k, v in sets.items() for a in ("--set", f"{k}={v}")]])
        assert rc == 0
        doc = json.loads(Path(str(out) + ".json").read_text())
        cfg = parse_config("spectrum_approx", sets)
        d = cfg.detuning_grid()
        want, _ = solve_approximate(cfg.model_params(), cfg.field_config(), cfg.quad_grid(),
                                    d, check_convergence=False)
        assert doc["deltap"] == d.tolist()
        got = [(np.array(doc["re_response"]) + 1j * np.array(doc["im_response"]),
                want.response)]
        for name, part in zip(("background", "pedestal", "sharp_peak"), want.components):
            c = doc["components"][name]
            got.append((np.array(c["re"]) + 1j * np.array(c["im"]), part))
        for g, w in got:
            assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max()
        assert read_manifest(out)["report"]["n_detunings"] == (d.size + 1) // 2

    def test_fwhm_scan_manifest_reports_each_rung(self, tmp_path, monkeypatch):
        solved = {}

        def counting(params, fields, grid, detuning_grid, **kwargs):
            solved[fields.dq_vth] = solved.get(fields.dq_vth, 0) + len(detuning_grid)
            return solve_approximate(params, fields, grid, detuning_grid, **kwargs)

        monkeypatch.setattr(lineshape_analysis, "solve_approximate", counting)
        out = tmp_path / "scan"
        rc = main(["fwhm_scan", "--set", "gamma_pcc=1", "--set", "gamma_vcc=0.1",
                   "--set", "gamma_g=0.001", "--set", "dq_ladder=[0, 0.01, 0.02]",
                   "--set", "n_par=300", "--set", "n_res=1",
                   "--set", "check_convergence=false", "--out", str(out)])
        assert rc == 0
        report = read_manifest(out)["report"]
        assert [r["n_detunings"] for r in report["reports"]] == \
            [solved[dq] for dq in (0.0, 0.01, 0.02)]
        assert all(r["method"] == "approximate" and r["n_par"] == 300
                   for r in report["reports"])

    @pytest.mark.parametrize("check", [True, False])
    def test_manifest_carries_the_doubling_change_as_a_number(self, tmp_path, check):
        # a small Doppler scale, so that 40 nodes pass the check
        sets = {"gamma_pcc": 1.0, "gamma_vcc": 0.1, "gamma_g": 0.001, "qp_vth": 1.0,
                "n_par": 40, "detuning_n": 21, "check_convergence": check}
        out = tmp_path / "sp"
        rc = main(["spectrum_approx", "--out", str(out),
                   *[a for k, v in sets.items() for a in ("--set", f"{k}={v}")]])
        assert rc == 0
        report = read_manifest(out)["report"]
        cfg = parse_config("spectrum_approx", sets)
        _, want = solve_approximate(cfg.model_params(), cfg.field_config(), cfg.quad_grid(),
                                    cfg.detuning_grid(), check_convergence=check)
        assert report["doubling_change"] == want.doubling_change
        if check:
            assert type(report["doubling_change"]) is float
        else:
            assert report["doubling_change"] is None
        assert report["fallback"] == "" and "notes" not in report and "converged" not in report

    def test_fwhm_scan_manifest_names_a_rung_fallback(self, tmp_path):
        out = tmp_path / "scan"
        rc = main(["fwhm_scan", "--set", "gamma_pcc=1", "--set", "gamma_vcc=0.1",
                   "--set", "gamma_g=0.001", "--set", "dq_ladder=[0, 0.01]",
                   "--set", "delta1=0.01", "--set", "n_par=60", "--set", "n_res=1",
                   "--set", "check_convergence=false", "--out", str(out)])
        assert rc == 0
        reports = read_manifest(out)["report"]["reports"]
        assert [r["fallback"] for r in reports] == ["mirror conditions fail"] * 2
        assert [r["doubling_change"] for r in reports] == [None, None]

    FILTER_SETS = ["--set", "gamma_pcc=10", "--set", "gamma_vcc=0.025",
                   "--set", "gamma_g=0.001", "--set", "n_par=500", "--set", "n_k=17",
                   "--set", "check_convergence=false"]

    def test_filter_curve_at_a_multiple_of_the_homogeneous_width(self, tmp_path):
        out = tmp_path / "flt"
        assert main(["filter_curve", *self.FILTER_SETS, "--set", "deltap_hom_factor=1",
                     "--out", str(out)]) == 0
        manifest = read_manifest(out)
        report = manifest["report"]
        # gamma_hom = gamma_g + Re(power_broadening), both read back from the manifest
        assert report["deltap"] == (manifest["resolved"]["gamma_g"]
                                    + report["power_broadening"][0])

    def test_filter_curve_json_holds_the_csv_numbers(self, tmp_path):
        for fmt in ("csv", "json"):
            assert main(["filter_curve", *self.FILTER_SETS, "--format", fmt,
                         "--out", str(tmp_path / fmt)]) == 0
        header, rows = read_csv(str(tmp_path / "csv") + ".csv")
        doc = json.loads((tmp_path / "json.json").read_text())
        assert sorted(doc) == sorted(header)
        assert [[doc[name][i] for name in header] for i in range(len(rows))] == rows

    def test_fwhm_scan_json_holds_the_csv_numbers(self, tmp_path):
        sets = ["--set", "gamma_pcc=1", "--set", "gamma_vcc=0.1", "--set", "gamma_g=0.001",
                "--set", "dq_ladder=[0, 0.01]", "--set", "n_par=300", "--set", "n_res=1",
                "--set", "check_convergence=false"]
        for fmt in ("csv", "json"):
            assert main(["fwhm_scan", *sets, "--format", fmt,
                         "--out", str(tmp_path / fmt)]) == 0
        header, rows = read_csv(str(tmp_path / "csv") + ".csv")
        doc = json.loads((tmp_path / "json.json").read_text())
        assert [[doc[name][i] for name in header] for i in range(len(rows))] == rows
        assert doc["pedestal_fwhm"] == read_manifest(tmp_path / "json")["report"]["pedestal_fwhm"]

    def test_qp_physical_sets_the_ramsey_bridge(self, tmp_path):
        # one key sets q_p for beam_filter and for the sheet's SI bridge
        bridges = []
        for qp in (2.0 * np.pi / 780e-9, 2.0 * np.pi / 795e-9):
            out = tmp_path / f"rms{len(bridges)}"
            assert main(["ramsey", "--set", "gamma_vcc=0.025", "--set", "gamma_g=0.001",
                         "--set", "ramsey_n=3", "--set", f"qp_physical={qp!r}",
                         "--out", str(out)]) == 0
            bridges.append(read_manifest(out)["report"]["qp_vth_bridge"])
        assert bridges[0] == pytest.approx(36.622490032397494, rel=1e-12)
        assert bridges[1] == pytest.approx(bridges[0] * 780.0 / 795.0, rel=1e-12)


class TestMainErrors:
    @pytest.mark.parametrize("scenario", ["filter_curve", "beam_filter", "ramsey"])
    def test_diffusion_scenarios_need_velocity_collisions(self, scenario, tmp_path, capsys):
        # default gamma_vcc is 0; beam_filter must fail before reading its profile
        missing = tmp_path / "missing.profile.txt"
        assert main([scenario, "--set", f"profile_in={missing}",
                     "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert "error: config key 'gamma_vcc':" in err and "gamma_vcc > 0" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("scenario, sets", [
        ("at_rest", ["--set", "detuning_n=101"]),
        ("ramsey", ["--set", "gamma_vcc=0.025", "--set", "gamma_g=0.001",
                    "--set", "ramsey_n=3"])])
    def test_deltap_is_refused_where_no_filter_reads_it(self, scenario, sets, tmp_path,
                                                        capsys):
        # these scan their own detuning grids; 0, the default a manifest's
        # resolved block spells out, stays accepted
        assert main([scenario, *sets, "--set", "deltap=0.3",
                     "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert f"error: config key 'deltap': scenario {scenario!r}" in err and "0.3" in err
        assert list(tmp_path.iterdir()) == []
        assert main([scenario, *sets, "--set", "deltap=0",
                     "--out", str(tmp_path / "zero")]) == 0

    def test_filter_pump_ratio_names_the_pumps(self, tmp_path, capsys):
        assert main(["filter_curve", "--set", "gamma_vcc=0.025", "--set", "v1=0.2",
                     "--out", str(tmp_path / "flt")]) == 1
        err = capsys.readouterr().err
        assert "|v1/v2| must be in (0, 1], got v1 = 0.2, v2 = 0.1" in err
        assert list(tmp_path.iterdir()) == []

    def test_filter_pumps_out_of_phase_name_the_pumps(self, tmp_path, capsys):
        # the fig6 rates with the first pump's sign flipped: |v1/v2| is 0.816
        assert main(["filter_curve", "--set", "gamma_pcc=10.0", "--set", "gamma_vcc=0.025",
                     "--set", "gamma_g=0.001", "--set", "v1=-0.0816",
                     "--out", str(tmp_path / "flt")]) == 1
        err = capsys.readouterr().err
        assert "v1*conj(v2) must be real and > 0, got v1 = -0.0816, v2 = 0.1" in err
        assert list(tmp_path.iterdir()) == []

    def test_ramsey_without_ground_decay_names_the_inputs(self, tmp_path, capsys):
        # the default gamma_g is 0, and the Ramsey grid always holds deltap = 0
        assert main(["ramsey", "--set", "gamma_vcc=0.025", "--set", "ramsey_n=3",
                     "--out", str(tmp_path / "rms")]) == 1
        err = capsys.readouterr().err
        assert "gamma_g = 0 and deltap = 0" in err and "alpha3" not in err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_target(self, capsys):
        assert main(["fig99"]) == 1
        assert "error: unknown scenario or preset" in capsys.readouterr().err

    def test_malformed_set_flag(self, capsys):
        assert main(["at_rest", "--set", "gamma_pcc"]) == 1
        assert "key=value" in capsys.readouterr().err

    def test_out_of_range_value(self, capsys):
        assert main(["at_rest", "--set", "gamma_pcc=-2"]) == 1
        assert "outside allowed range" in capsys.readouterr().err

    @pytest.mark.parametrize("pair", ["v1=NaN", "gamma_g=Infinity", "dq_ladder=[0, NaN]"])
    def test_non_finite_value(self, pair, capsys):
        assert main(["at_rest", "--set", pair]) == 1
        err = capsys.readouterr().err
        assert f"config key {pair.partition('=')[0]!r}" in err and "must be finite" in err

    def test_malformed_profile_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.profile.txt"
        bad.write_text("4 4 0.1\n" + "1.0 0.0\n" * 16)
        rc = main(["beam_filter", "--set", f"profile_in={bad}", "--set", "gamma_vcc=0.025",
                   "--set", "n_par=400", "--set", "check_convergence=false",
                   "--out", str(tmp_path / "beam")])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(bad) in err and "header has 3 fields, not 4" in err

    def test_profile_with_infinite_spacing_is_rejected(self, tmp_path, capsys):
        # an infinite spacing makes the beam power infinite, which JSON cannot hold
        bad = tmp_path / "inf.profile.txt"
        bad.write_text("2 2 inf 1e-5\n" + "1.0 0.0\n" * 4)
        out = tmp_path / "beam"
        rc = main(["beam_filter", "--set", f"profile_in={bad}", "--set", "gamma_vcc=0.025",
                   "--set", "n_par=400", "--set", "check_convergence=false",
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert str(bad) in err and "must be finite and > 0" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["inf.profile.txt"]

    def test_zero_probe_amplitude_fails_the_exact_scenario(self, tmp_path, capsys):
        # the exact response is per unit probe amplitude: vp = 0 wrote NaN rows
        assert main(["spectrum_exact", "--set", "vp=0", "--set", "gamma_pcc=5",
                     "--set", "gamma_vcc=0.025", "--set", "gamma_g=0.001",
                     "--set", "n_par=300", "--set", "detuning_n=21",
                     "--out", str(tmp_path / "sp")]) == 1
        assert "error: vp must be != 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_config_file_must_be_object(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        assert main(["at_rest", "--config", str(bad)]) == 1
        assert "JSON object" in capsys.readouterr().err


def readme_commands():
    """The `eia` command lines of the README's command-line examples, without `eia`."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    commands = re.findall(r"^eia (.+)$", section, flags=re.M)
    if not commands:
        raise ValueError("README.md's command-line section holds no eia command")
    return commands


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_exits_0(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(command)) == 0
