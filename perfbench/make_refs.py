"""Regenerate the stored references in perfbench/refs/ on node-doubled grids.

Run from the repository root:  python3 perfbench/make_refs.py [workload ...]

Each reference is computed with the same public calls the benchmark makes,
at twice the benchmark's node counts per axis.  A backend more accurate than
the benchmark's grid therefore lands closer to the reference and passes; one
less accurate than the stated tolerance fails.  The exact solve keeps its
own doubling check on, so its reference is the 12000-node result.  Takes a
few minutes on two cores.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads as wl  # noqa: E402
from eia import cli_runner, spatial_filter, spectrum_solver  # noqa: E402
from eia.lineshape_analysis import scan_delta_q  # noqa: E402
from eia.velocity_integrals import make_grid  # noqa: E402

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs")
WORK_DIR = ".perfbench_work"


def exact_fig2() -> dict:
    n_par = 2 * wl.EXACT_N_PAR
    conv_rtol = 1e-6
    detunings = spectrum_solver.default_detuning_grid(wl.FIG2_PARAMS)
    spectrum, report = spectrum_solver.solve_exact(
        wl.FIG2_PARAMS, wl.FIG2_FIELDS, make_grid(n_par, 1), detunings,
        check_convergence=True, conv_rtol=conv_rtol)
    return {"grid": [n_par, 1], "conv_rtol": conv_rtol, "notes": report.notes,
            "detunings": spectrum.detunings.tolist(),
            "re": spectrum.response.real.tolist(), "im": spectrum.response.imag.tolist()}


def dicke_scan() -> dict:
    """Rungs on the doubled grid, plus the seed code's own rungs on the benchmark grid.

    The scan runs without a convergence check, and on the benchmark grid it
    is far from converged along q_p; the second set records how far, so the
    check can hold a later program to no worse than this one.
    """
    ladder = [0.0, *wl.DICKE_POOL, 0.02]
    doc = {"grid": [2 * wl.DICKE_GRID[0], 2 * wl.DICKE_GRID[1]]}
    for key, grid in (("rows", make_grid(*doc["grid"])),
                      ("grid_rows", make_grid(*wl.DICKE_GRID))):
        rows = scan_delta_q(wl.C7_PARAMS, wl.C7_FIELDS, grid, ladder)
        doc[key] = [{"dq_vth": r.dq_vth, "fwhm": r.fwhm,
                     "peak_absorption": r.peak_absorption,
                     "pedestal_fwhm": r.pedestal_fwhm} for r in rows]
    return doc


def _csv_columns(path) -> dict:
    header, data = wl.read_csv(path)
    return {name: data[:, i].tolist() for i, name in enumerate(header)}


def cli_ramsey_beam() -> dict:
    n_par = 2 * wl.CLI_N_PAR
    doc = {"n_par": n_par, "fig7": {}, "fig6": {}}
    os.makedirs(WORK_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        for preset, keys in (("fig7", ("deltap", "re", "im")),
                             ("fig6", ("k_over_qp", "re_l", "im_l"))):
            base = os.path.join(tmp, preset)
            if cli_runner.main([preset, "--out", base, "--set", f"n_par={n_par}"]) != 0:
                raise RuntimeError(f"eia {preset} failed")
            for suffix, _, _ in cli_runner.PRESETS[preset]:
                cols = _csv_columns(f"{base}_{suffix}.csv")
                if preset == "fig7":
                    cols = {"deltap": cols["deltap"], "re": cols["re_response"],
                            "im": cols["im_response"]}
                doc[preset][suffix] = {k: cols[k] for k in keys}
    cfg = cli_runner.parse_config("beam_filter", {**wl.BEAM_CONFIG, "n_par": n_par})
    fp = spatial_filter.filter_params_from_model(
        cfg.model_params(), cfg.field_config(), cfg.quad_grid(),
        deltap=0.0, rtol=1e-7)
    doc["beam_filter"] = {
        "eta": fp.eta, "diffusion_D": fp.diffusion_D,
        "power_broadening": [fp.power_broadening.real, fp.power_broadening.imag],
        "probe_kernel": [fp.probe_kernel.real, fp.probe_kernel.imag]}
    return doc


MAKERS = {"exact_fig2": exact_fig2, "dicke_scan": dicke_scan,
          "cli_ramsey_beam": cli_ramsey_beam}


def main(names) -> None:
    os.makedirs(REF_DIR, exist_ok=True)
    for name in names or MAKERS:
        doc = MAKERS[name]()
        with open(os.path.join(REF_DIR, name + ".json"), "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"wrote refs/{name}.json")


if __name__ == "__main__":
    main(sys.argv[1:])
