"""Flat-key configuration, figure presets, and CSV/JSON emission.

Every scenario is one flat parameter set (rates in units of the spontaneous
rate, lengths in meters).  A run writes its data file(s) plus a JSON manifest
holding the fully resolved parameters, grid sizes, convergence flags, and
wall time; apart from the wall-time field, identical configs produce
bit-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import __version__
from .core_model import FieldConfig, ModelParams
from .lineshape_analysis import PEDESTAL_CONVENTION, scan_delta_q
from .ramsey_diffusion import RamseyConfig, ramsey_spectrum
from .spatial_filter import (
    DEFAULT_QP_PHYSICAL,
    TransverseProfile,
    _homogeneous_width,
    apply_filter,
    filter_params_from_model,
    filter_response,
    load_profile,
    save_profile,
)
from .spectrum_solver import (
    _mirrored_grid,
    at_rest_spectrum,
    default_detuning_grid,
    solve_approximate,
    solve_exact,
)
from .velocity_integrals import MAX_NODES, make_grid

__all__ = ["ScenarioConfig", "parse_config", "serialize_config", "run_scenario",
           "expand_target", "PRESETS", "SCENARIOS", "main"]


@dataclass(frozen=True)
class _Key:
    typ: type
    default: object
    check: Optional[Callable[[object], bool]] = None
    allowed: str = ""

    def coerce(self, name: str, value):
        try:
            if isinstance(value, bool) and self.typ is not bool:
                raise ValueError  # a JSON true is not the number 1
            if self.typ is bool and isinstance(value, str):
                if value.lower() in ("true", "1", "yes"):
                    value = True
                elif value.lower() in ("false", "0", "no"):
                    value = False
                else:
                    raise ValueError
            elif self.typ is list:
                if isinstance(value, str):
                    value = json.loads(value)
                if any(isinstance(v, bool) for v in value):
                    raise ValueError
                value = [float(v) for v in value]
            elif self.typ is bool:
                value = bool(value)
            elif self.typ is int:
                if isinstance(value, float) and value != int(value):
                    raise ValueError
                value = int(value)
            elif self.typ is float:
                value = float(value)
            elif self.typ is str:
                value = str(value)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"config key {name!r}: cannot read {value!r} as {self.typ.__name__}")
        if self.typ in (float, list) and not np.isfinite(value).all():
            raise ValueError(f"config key {name!r}: value {value!r} must be finite")
        if self.check is not None and not self.check(value):
            raise ValueError(f"config key {name!r}: value {value!r} outside allowed "
                             f"range ({self.allowed})")
        return value


def _pos(v):
    return v > 0


def _nonneg(v):
    return v >= 0


KEYS: Dict[str, _Key] = {
    # model rates, in units of the spontaneous rate (the unit, so no key)
    "gamma_pcc": _Key(float, 0.0, _nonneg, ">= 0"),
    "gamma_vcc": _Key(float, 0.0, _nonneg, ">= 0"),
    "gamma_g": _Key(float, 0.0, _nonneg, ">= 0"),
    "b": _Key(int, 1, lambda v: v in (0, 1), "0 or 1"),
    "branching_a": _Key(float, 0.816, lambda v: 0 < v < 1, "in (0, 1)"),
    # fields and geometry
    "v1": _Key(float, 0.0816, None),
    "v2": _Key(float, 0.1, None),
    "vp": _Key(float, 0.001, None),
    "delta1": _Key(float, 0.0, None),
    "delta2": _Key(float, 0.0, None),
    "qp_vth": _Key(float, 36.5, _nonneg, ">= 0"),
    "dq_vth": _Key(float, 0.0, _nonneg, ">= 0"),
    "dq_direction": _Key(str, "collinear", lambda v: v in ("collinear", "transverse"),
                         "collinear or transverse"),
    # quadrature / detuning grids
    "n_par": _Key(int, 1500, lambda v: 1 <= v <= MAX_NODES, f"1..{MAX_NODES}"),
    "n_res": _Key(int, 48, lambda v: 1 <= v <= MAX_NODES, f"1..{MAX_NODES}"),
    "detuning_span": _Key(float, 2.0, _pos, "> 0"),
    "detuning_n": _Key(int, 2001, lambda v: v >= 2, ">= 2"),
    "refine": _Key(bool, True, None),
    "check_convergence": _Key(bool, True, None),
    # delta-q scan
    "dq_ladder": _Key(list, [0.0, 0.1, 0.2, 0.3, 0.4, 0.5],
                      lambda v: len(v) > 0 and all(b > a for a, b in zip(v, v[1:])),
                      "nonempty and strictly ascending"),
    # spatial filter
    "k_max": _Key(float, 8e-4, _pos, "> 0 (units of q_p)"),
    "n_k": _Key(int, 241, lambda v: v >= 2, ">= 2"),
    # the filter runs at deltap + deltap_hom_factor * gamma_hom; every other
    # scenario scans its own detuning grid and refuses a nonzero deltap
    "deltap": _Key(float, 0.0, None),
    "deltap_hom_factor": _Key(float, 0.0, None),
    "optical_depth_scale": _Key(float, 1.0, None),
    "slice_length": _Key(float, 0.0, _nonneg, ">= 0 (meters)"),
    # probe wave number q_p, for the beam filter and the sheet's SI bridge
    "qp_physical": _Key(float, DEFAULT_QP_PHYSICAL, _pos, "> 0 (1/meter)"),
    "force_unitary": _Key(bool, False, None),
    "profile_in": _Key(str, "", None),
    "profile_out": _Key(str, "", None),
    "profile_format": _Key(str, "text", lambda v: v in ("text", "binary"),
                           "text or binary"),
    # stepwise-sheet geometry (SI bridge)
    "half_width_a": _Key(float, 2.5e-3, _pos, "> 0 (meters)"),
    "temperature": _Key(float, RamseyConfig.temperature, _pos, "> 0 (kelvin)"),
    "mass": _Key(float, RamseyConfig.mass, _pos, "> 0 (kg)"),
    "gamma_sp_si": _Key(float, RamseyConfig.gamma_sp_si, _pos, "> 0 (rad/s)"),
    "ramsey_span": _Key(float, 0.02, _pos, "> 0"),
    "ramsey_n": _Key(int, 301, lambda v: v >= 2, ">= 2"),
}

@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    values: Dict[str, object] = field(default_factory=dict)
    out: str = ""
    fmt: str = "csv"

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; choose from {SCENARIOS}")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.fmt!r}")
        missing = [k for k in KEYS if k not in self.values]
        if missing:
            raise ValueError(f"unresolved config keys: {missing}")

    def model_params(self) -> ModelParams:
        v = self.values
        return ModelParams(gamma_pcc=v["gamma_pcc"], gamma_vcc=v["gamma_vcc"],
                           gamma_g=v["gamma_g"], b=v["b"], branching_A=v["branching_a"])

    def field_config(self) -> FieldConfig:
        v = self.values
        return FieldConfig(v1=v["v1"], v2=v["v2"], vp=v["vp"], delta1=v["delta1"],
                           delta2=v["delta2"], qp_vth=v["qp_vth"],
                           dq_vth=v["dq_vth"], dq_direction=v["dq_direction"])

    def quad_grid(self):
        return make_grid(self.values["n_par"], self.values["n_res"])

    def detuning_grid(self):
        return default_detuning_grid(self.model_params(), span=self.values["detuning_span"],
                                     n=self.values["detuning_n"], refine=self.values["refine"])


def parse_config(scenario: str, *sources: dict, out: str = "", fmt: str = "csv") -> ScenarioConfig:
    """Merge defaults with override dicts (later wins); every key validated."""
    values = {k: spec.default for k, spec in KEYS.items()}
    for src in sources:
        for key, raw in src.items():
            if key in ("scenario", "out", "format"):
                continue
            if key not in KEYS:
                known = ", ".join(sorted(KEYS))
                raise ValueError(f"unknown config key {key!r}; known keys: {known}")
            values[key] = KEYS[key].coerce(key, raw)
    return ScenarioConfig(scenario=scenario, values=values,
                          out=out or scenario, fmt=fmt)


def serialize_config(cfg: ScenarioConfig) -> dict:
    doc = {"scenario": cfg.scenario, "out": cfg.out, "format": cfg.fmt}
    doc.update({k: cfg.values[k] for k in sorted(cfg.values)})
    return doc


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit(cfg: ScenarioConfig, columns: Dict[str, object], extra: dict) -> str:
    """Write a table to cfg.out plus ".csv" or ".json"; returns the path.

    CSV: a header of the column names, then one row per index, each value
    written as its float ``repr``.  JSON: one list per column, plus the
    entries of extra, which have no place in a CSV table.
    """
    path = f"{cfg.out}.{cfg.fmt}"
    if cfg.fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows([repr(float(v)) for v in row] for row in zip(*columns.values()))
    else:
        _write_json(path, {**{name: list(col) for name, col in columns.items()}, **extra})
    return path


def _emit_spectrum(cfg: ScenarioConfig, spectrum) -> str:
    extra = {}
    if spectrum.components is not None:
        extra["components"] = {name: {"re": list(part.real), "im": list(part.imag)}
                               for name, part in spectrum.components._asdict().items()}
    return _emit(cfg, {"deltap": spectrum.detunings, "re_response": spectrum.response.real,
                       "im_response": spectrum.response.imag}, extra)


def _run_spectrum(cfg: ScenarioConfig, exact: bool):
    solver = solve_exact if exact else solve_approximate
    spectrum, report = solver(cfg.model_params(), cfg.field_config(), cfg.quad_grid(),
                              cfg.detuning_grid(),
                              check_convergence=cfg.values["check_convergence"])
    path = _emit_spectrum(cfg, spectrum)
    return [path], asdict(report)


def _run_at_rest(cfg: ScenarioConfig):
    spectrum = at_rest_spectrum(cfg.model_params(), cfg.field_config(), cfg.detuning_grid())
    path = _emit_spectrum(cfg, spectrum)
    return [path], {"method": "at_rest", "n_detunings": int(spectrum.detunings.size)}


def _run_fwhm_scan(cfg: ScenarioConfig):
    rows = scan_delta_q(cfg.model_params(), cfg.field_config(), cfg.quad_grid(),
                        cfg.values["dq_ladder"],
                        check_convergence=cfg.values["check_convergence"])
    pedestal = [r.pedestal_fwhm for r in rows]
    path = _emit(cfg, {"dq_vth": [r.dq_vth for r in rows], "fwhm": [r.fwhm for r in rows],
                       "peak_abs": [r.peak_absorption for r in rows]},
                 {"pedestal_fwhm": pedestal})
    meta = {"method": "fwhm_scan", "pedestal_convention": PEDESTAL_CONVENTION,
            "pedestal_fwhm": pedestal,
            "reports": [asdict(r.report) for r in rows]}
    return [path], meta


def _filter_setup(cfg: ScenarioConfig):
    """(params, fp, deltap) of a filter scenario: the filter is built at
    deltap = 0 and applied at deltap + deltap_hom_factor * gamma_hom, with
    gamma_hom = gamma_g + Re(power_broadening) the homogeneous width."""
    v = cfg.values
    params = cfg.model_params()
    fp = filter_params_from_model(params, cfg.field_config(), cfg.quad_grid(), deltap=0.0,
                                  rtol=1e-7 if v["check_convergence"] else None)
    gamma_hom = _homogeneous_width(params, fp.power_broadening)
    return params, fp, v["deltap"] + v["deltap_hom_factor"] * gamma_hom


def _run_filter_curve(cfg: ScenarioConfig):
    params, fp, deltap = _filter_setup(cfg)
    k = np.linspace(0.0, cfg.values["k_max"], cfg.values["n_k"])
    ell = filter_response(fp, params, deltap, k)
    path = _emit(cfg, {"k_over_qp": k, "re_l": ell.real, "im_l": ell.imag,
                       "abs_l": np.abs(ell)}, {})
    meta = {"method": "filter_curve", "deltap": deltap, "eta": fp.eta,
            "power_broadening": [fp.power_broadening.real, fp.power_broadening.imag],
            "diffusion_D": fp.diffusion_D}
    return [path], meta


def _default_beam() -> TransverseProfile:
    # synthetic Gaussian spot: well inside the paraxial band at optical q_p
    n, width, waist = 128, 2e-2, 2e-3
    x = (np.arange(n) - n / 2) * (width / n)
    xx, yy = np.meshgrid(x, x)
    return TransverseProfile(samples=np.exp(-(xx**2 + yy**2) / waist**2).astype(complex),
                             extent=(width, width))


def _run_beam_filter(cfg: ScenarioConfig):
    params, fp, deltap = _filter_setup(cfg)
    if cfg.values["profile_in"]:
        profile = load_profile(cfg.values["profile_in"], fmt=cfg.values["profile_format"])
    else:
        profile = _default_beam()
    out = apply_filter(profile, fp, params, deltap,
                       slice_length=cfg.values["slice_length"],
                       optical_depth_scale=cfg.values["optical_depth_scale"],
                       qp_physical=cfg.values["qp_physical"],
                       force_unitary=cfg.values["force_unitary"])
    fmt = cfg.values["profile_format"]
    path = cfg.values["profile_out"] or cfg.out + (".profile.txt" if fmt == "text" else ".profile.bin")
    save_profile(out, path, fmt=fmt)
    meta = {"method": "beam_filter", "deltap": deltap,
            "power_in": profile.power(), "power_out": out.power()}
    return [path], meta


def _ramsey_detuning_grid(cfg: ScenarioConfig) -> np.ndarray:
    span, n = cfg.values["ramsey_span"], cfg.values["ramsey_n"]
    return _mirrored_grid(span, (n + 1) // 2, np.geomspace(span * 1e-4, span, 81))


def _run_ramsey(cfg: ScenarioConfig):
    v = cfg.values
    rcfg = RamseyConfig(params=cfg.model_params(), fields=cfg.field_config(),
                        half_width_a=v["half_width_a"], temperature=v["temperature"],
                        qp_physical=v["qp_physical"], mass=v["mass"],
                        gamma_sp_si=v["gamma_sp_si"])
    spectrum = ramsey_spectrum(rcfg, _ramsey_detuning_grid(cfg))
    path = _emit_spectrum(cfg, spectrum)
    meta = {"method": "ramsey", "half_width_a": v["half_width_a"],
            "qp_vth_bridge": rcfg.qp_vth_bridge, "diffusion_d": rcfg.diffusion_d,
            "v_th_si": rcfg.v_th_si}
    return [path], meta


_RUNNERS = {
    "spectrum_exact": lambda cfg: _run_spectrum(cfg, exact=True),
    "spectrum_approx": lambda cfg: _run_spectrum(cfg, exact=False),
    "at_rest": _run_at_rest,
    "fwhm_scan": _run_fwhm_scan,
    "filter_curve": _run_filter_curve,
    "beam_filter": _run_beam_filter,
    "ramsey": _run_ramsey,
}
SCENARIOS = tuple(_RUNNERS)


# scenarios whose filter or sheet needs the diffusion coefficient, which
# divides by gamma_vcc
_DIFFUSION_SCENARIOS = ("filter_curve", "beam_filter", "ramsey")
# the scenarios that read the deltap key
_FILTER_SCENARIOS = ("filter_curve", "beam_filter")


def run_scenario(cfg: ScenarioConfig) -> List[str]:
    """Dispatch, write the data file(s), and write the manifest alongside."""
    if cfg.scenario in _DIFFUSION_SCENARIOS and not cfg.values["gamma_vcc"] > 0:
        raise ValueError(f"config key 'gamma_vcc': scenario {cfg.scenario!r} needs "
                         f"gamma_vcc > 0 for its diffusion coefficient, got "
                         f"{cfg.values['gamma_vcc']!r}")
    if cfg.scenario not in _FILTER_SCENARIOS and cfg.values["deltap"] != 0:
        raise ValueError(f"config key 'deltap': scenario {cfg.scenario!r} scans its own "
                         f"detuning grid and reads no deltap, got {cfg.values['deltap']!r}")
    start = time.perf_counter()
    files, meta = _RUNNERS[cfg.scenario](cfg)
    manifest = {
        "scenario": cfg.scenario,
        "version": __version__,
        "resolved": serialize_config(cfg),
        "report": meta,
        "out_files": files,
        "wall_time_s": time.perf_counter() - start,
    }
    manifest_path = cfg.out + ".manifest.json"
    _write_json(manifest_path, manifest)
    return files + [manifest_path]


# figure presets: named parameter bundles, expanded to one or more runs
_FIG2 = {"gamma_pcc": 5.0, "gamma_vcc": 0.025, "gamma_g": 0.001, "b": 1,
         "branching_a": 0.816, "v2": 0.1, "v1": 0.0816, "vp": 0.001,
         "delta1": 0.0, "delta2": 0.0, "qp_vth": 36.5, "dq_vth": 0.0,
         "dq_direction": "collinear", "n_par": 3000, "n_res": 1,
         "detuning_span": 2.0, "detuning_n": 1201}
_FIG45 = {**_FIG2, "gamma_pcc": 1.0, "gamma_vcc": 0.1,
          "dq_direction": "transverse", "n_par": 1500, "n_res": 48}
_FIG6 = {**_FIG2, "gamma_pcc": 10.0, "gamma_vcc": 0.025, "n_par": 4000,
         "k_max": 8e-4, "n_k": 241}

PRESETS: Dict[str, List[Tuple[str, str, dict]]] = {
    "fig2": [("exact", "spectrum_exact", _FIG2), ("approx", "spectrum_approx", _FIG2)],
    "fig3": [(f"gvcc{g}", "spectrum_approx", {**_FIG2, "gamma_vcc": g})
             for g in (0.025, 0.1, 0.25)],
    "fig4": [(f"dq{d}", "spectrum_approx", {**_FIG45, "dq_vth": d})
             for d in (0.0, 0.05, 0.15, 0.3)],
    "fig5": [("scan", "fwhm_scan",
              {**_FIG45, "dq_ladder": [0.05, 0.1, 0.2, 0.3, 0.4, 0.5]})],
    "fig6": [(f"dp{f:+g}", "filter_curve", {**_FIG6, "deltap_hom_factor": float(f)})
             for f in (0, 1, -1, 2, -2)],
    "fig7": [(f"a{a:g}", "ramsey", {**_FIG2, "half_width_a": a})
             for a in (50e-6, 5e-3)],
}


def expand_target(target: str, file_cfg: dict, overrides: dict, out: str,
                  fmt: str) -> List[ScenarioConfig]:
    """A scenario name yields one run; a preset yields its run list."""
    if target in SCENARIOS:
        return [parse_config(target, file_cfg, overrides, out=out or target, fmt=fmt)]
    if target in PRESETS:
        runs = []
        base = out or target
        for suffix, scenario, preset_vals in PRESETS[target]:
            runs.append(parse_config(scenario, preset_vals, file_cfg, overrides,
                                     out=f"{base}_{suffix}", fmt=fmt))
        return runs
    raise ValueError(f"unknown scenario or preset {target!r}; scenarios: "
                     f"{', '.join(SCENARIOS)}; presets: {', '.join(sorted(PRESETS))}")


def _parse_set_flags(pairs: List[str]) -> dict:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        key, _, raw = pair.partition("=")
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw
    return overrides


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="eia",
        description="Probe-absorption spectra, k-space filter curves, and "
                    "stepwise-beam line shapes of the driven four-level system.")
    parser.add_argument("target", help=f"scenario ({', '.join(SCENARIOS)}) or "
                                       f"preset ({', '.join(sorted(PRESETS))})")
    parser.add_argument("--config", default=None, help="JSON file of flat key=value parameters")
    parser.add_argument("--set", dest="sets", action="append", default=[],
                        metavar="KEY=VALUE", help="override one parameter (repeatable)")
    parser.add_argument("--out", default="", help="output base path (default: target name)")
    parser.add_argument("--format", dest="fmt", default="csv", choices=("csv", "json"))
    args = parser.parse_args(argv)

    try:
        file_cfg = {}
        if args.config:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
            if not isinstance(file_cfg, dict):
                raise ValueError("config file must hold a JSON object of key/value pairs")
        overrides = _parse_set_flags(args.sets)
        for cfg in expand_target(args.target, file_cfg, overrides, args.out, args.fmt):
            for path in run_scenario(cfg):
                print(path)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
