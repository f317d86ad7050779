"""Probe absorption of a driven four-level N system in a thermal vapor.

Submodules:
  core_model          parameter records and per-velocity complex frequencies
  velocity_integrals  thermal averaging: closed-form pole averages, Gauss-Hermite
  spectrum_solver     exact / factored / motionless probe spectra
  lineshape_analysis  widths, peaks, Lorentzian fits, narrowing-law scans
  spatial_filter      k-space filter response and thin-slice beam filtering
  ramsey_diffusion    stepwise-sheet diffusion solution and its spectrum
  cli_runner          flat-key configs, figure presets, CSV/JSON emission
"""

__version__ = "0.1.0"

from .core_model import FieldConfig, ModelParams, XiSet, toc_determinant, xi_set
from .spectrum_solver import (
    Components,
    Spectrum,
    SolveReport,
    at_rest_spectrum,
    default_detuning_grid,
    solve_approximate,
    solve_exact,
)
from .velocity_integrals import (
    NonConvergenceError,
    QuadratureGrid,
    g_integral,
    make_grid,
    one_photon_response,
    pole_average,
)

__all__ = [
    "__version__",
    "ModelParams", "FieldConfig", "XiSet", "xi_set", "toc_determinant",
    "QuadratureGrid", "NonConvergenceError", "make_grid",
    "g_integral", "pole_average", "one_photon_response",
    "Spectrum", "Components", "SolveReport", "default_detuning_grid",
    "solve_exact", "solve_approximate", "at_rest_spectrum",
]
