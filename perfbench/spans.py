"""In-memory span recorder wrapped around the eia package's public functions.

The wrapping is done from outside the program: every public function of the
seven eia modules is replaced, at every module that imported it, by a wrapper
that records (name, start, end, parent span, operation id) while tracing is
on.  The program's source is not edited, so spans sit at module boundaries
only; stages inside one function are not visible from here.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import re
import time
import types

LAYERS = ("core_model", "velocity_integrals", "spectrum_solver",
          "lineshape_analysis", "spatial_filter", "ramsey_diffusion", "cli_runner")

_DOUBLING = re.compile(r"doubling check rel change ([0-9.eE+-]+)")


def _report_attrs(arguments, out):
    spectrum, report = out
    attrs = {"detunings": int(spectrum.detunings.size),
             "max_condition": float(report.max_condition)}
    m = _DOUBLING.search(report.notes)
    if m:
        attrs["doubling_rel_change"] = float(m.group(1))
    return attrs


def _data_bytes(arguments, out):
    return {"bytes": sum(os.path.getsize(p) for p in out
                         if not p.endswith(".manifest.json"))}


# per-function attributes from the call's result and, through arguments(),
# its bound arguments (binding is left to the hooks that need it: it is slow)
_HOOKS = {
    "velocity_integrals.velocity_mesh": lambda a, out: {"nodes": int(out[0].size)},
    "spectrum_solver.solve_exact": _report_attrs,
    "spectrum_solver.solve_approximate": _report_attrs,
    "ramsey_diffusion.ramsey_spectrum":
        lambda a, out: {"detunings": int(out.detunings.size)},
    "spatial_filter.load_profile":
        lambda a, out: {"bytes": os.path.getsize(a()["path"])},
    "spatial_filter.save_profile":
        lambda a, out: {"bytes": os.path.getsize(a()["path"])},
    # manifests are left out: their wall_time_s field changes length run to run
    "cli_runner.run_scenario": _data_bytes,
}


class Tracer:
    """Span log plus the wrappers that feed it.

    spans[i] is [name, start, end, parent index or -1, operation id, attrs].
    Wrappers pass straight through while ``enabled`` is false.
    """

    def __init__(self):
        self.spans = []
        self.enabled = False
        self.op = None
        self._stack = []

    def install(self, package) -> int:
        """Wrap every public eia function wherever it is bound; returns the count."""
        modules = [importlib.import_module(f"{package.__name__}.{name}") for name in LAYERS]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name in mod.__all__:
                fn = getattr(mod, name)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    label = f"{short}.{name}"
                    wrappers[fn] = self._wrap(fn, label, _HOOKS.get(label))
        for mod in [package] + modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        return len(wrappers)

    def _wrap(self, fn, label, hook):
        tracer = self
        sig = inspect.signature(fn) if hook else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                rec[5] = hook(lambda: sig.bind(*args, **kwargs).arguments, out)
            return out

        return wrapper

    def self_times(self):
        """Span duration minus the time its child spans cover, per span."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write("index\tname\tstart\tend\tparent\top\n")
            for i, (name, start, end, parent, op, _) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\t{op}\n")


def layer_metrics(tracer: Tracer, lo: int, hi: int) -> dict:
    """Per-layer metrics of the spans tracer.spans[lo:hi] (one pass)."""
    own = tracer.self_times()
    calls, self_s = {}, {}
    nodes = systems = ramsey_dets = profile_bytes = bytes_written = 0
    doubling = max_cond = 0.0
    spans = tracer.spans
    for i in range(lo, hi):
        name, _, _, parent, _, attrs = spans[i]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[i]
        if attrs is None:
            continue
        if name == "velocity_integrals.velocity_mesh":
            nodes += attrs["nodes"]
            if parent >= 0 and spans[parent][0] == "spectrum_solver.solve_exact":
                # a solve that raised has no attrs and solved nothing usable
                systems += attrs["nodes"] * (spans[parent][5] or {}).get("detunings", 0)
        elif name.startswith("spectrum_solver.solve_"):
            doubling = max(doubling, attrs.get("doubling_rel_change", 0.0))
            max_cond = max(max_cond, attrs["max_condition"])
        elif name == "ramsey_diffusion.ramsey_spectrum":
            ramsey_dets += attrs["detunings"]
        elif name.startswith("spatial_filter."):
            profile_bytes += attrs["bytes"]
        elif name == "cli_runner.run_scenario":
            bytes_written += attrs["bytes"]

    def s(name):
        return self_s.get(name, 0.0)

    return {
        "core_model.xi_set.calls": calls.get("core_model.xi_set", 0),
        "core_model.xi_set.self_s": s("core_model.xi_set"),
        "core_model.toc_determinant.self_s": s("core_model.toc_determinant"),
        "spectrum_solver.solve_exact.self_s": s("spectrum_solver.solve_exact"),
        "spectrum_solver.systems_solved": systems,
        "spectrum_solver.solve_approximate.self_s": s("spectrum_solver.solve_approximate"),
        "velocity_integrals.velocity_mesh.nodes": nodes,
        "spectrum_solver.doubling_rel_change": doubling,
        "spectrum_solver.max_condition": max_cond,
        "lineshape_analysis.scan_delta_q.self_s": s("lineshape_analysis.scan_delta_q"),
        "lineshape_analysis.extract_fwhm.calls": calls.get("lineshape_analysis.extract_fwhm", 0),
        "lineshape_analysis.extract_fwhm.self_s": s("lineshape_analysis.extract_fwhm"),
        "velocity_integrals.one_photon_response.calls":
            calls.get("velocity_integrals.one_photon_response", 0),
        "velocity_integrals.one_photon_response.self_s":
            s("velocity_integrals.one_photon_response"),
        "velocity_integrals.g_integral.self_s": s("velocity_integrals.g_integral"),
        "ramsey_diffusion.ramsey_spectrum.self_s": s("ramsey_diffusion.ramsey_spectrum"),
        "ramsey_diffusion.detunings": ramsey_dets,
        "spatial_filter.load_profile.self_s": s("spatial_filter.load_profile"),
        "spatial_filter.save_profile.self_s": s("spatial_filter.save_profile"),
        "spatial_filter.profile_bytes": profile_bytes,
        "spatial_filter.apply_filter.self_s": s("spatial_filter.apply_filter"),
        "spatial_filter.filter_params_from_model.self_s":
            s("spatial_filter.filter_params_from_model"),
        "cli_runner.run_scenario.self_s": s("cli_runner.run_scenario"),
        "cli_runner.bytes_written": bytes_written,
    }
