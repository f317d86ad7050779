"""Package surface: every exported name resolves, the benchmark's calls bind and
its reading of a solve report holds, no function takes a parameter it never
reads, no dataclass or NamedTuple stores a field that nothing reads, the CLI
reads every config key it accepts and accepts every default it has, start-up
does not load scipy.optimize, and the README's Python example runs."""

import ast
import importlib
import inspect
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import eia

MODULES = sorted(info.name for info in pkgutil.iter_modules(eia.__path__))


@pytest.mark.parametrize("name", ["eia"] + [f"eia.{m}" for m in MODULES])
def test_every_exported_name_resolves(name):
    # tooling reads the public surface through __all__ (perfbench/spans.py
    # wraps every entry with getattr), so a stale entry must fail here first
    mod = importlib.import_module(name)
    missing = [entry for entry in mod.__all__ if not hasattr(mod, entry)]
    assert missing == []


# the calls the benchmark in perfbench/ makes, spelled as it spells them; a
# signature change that breaks one must fail here, not in a benchmark run
_P, _F, _GRID, _D = object(), object(), object(), object()
BENCHMARK_CALLS = [
    ("spatial_filter.filter_params_from_model", (_P, _F, _GRID),
     {"deltap": 0.0, "rtol": 1e-7}),
    ("spectrum_solver.solve_exact", (_P, _F, _GRID, _D),
     {"check_convergence": True, "conv_rtol": 1e-6}),
    ("spectrum_solver.solve_approximate", (_P, _F, _GRID, _D),
     {"check_convergence": False}),
    ("spectrum_solver.default_detuning_grid", (_P,), {}),
    ("lineshape_analysis.scan_delta_q", (_P, _F, _GRID, [0.0]), {}),
    ("spatial_filter.TransverseProfile", (), {"samples": _D, "extent": (1.0, 1.0)}),
    ("spatial_filter.save_profile", (_D, "path"), {}),
    ("spatial_filter.load_profile", ("path",), {}),
    ("velocity_integrals.make_grid", (4000, 1), {}),
    ("cli_runner.main", (["fig7"],), {}),
]


@pytest.mark.parametrize("target, args, kwargs", BENCHMARK_CALLS,
                         ids=[c[0] for c in BENCHMARK_CALLS])
def test_benchmark_call_binds(target, args, kwargs):
    module, _, name = target.partition(".")
    fn = getattr(importlib.import_module(f"eia.{module}"), name)
    inspect.signature(fn).bind(*args, **kwargs)


# what the benchmark reads of a solve report, as perfbench/spans.py and
# workloads.py read it: the change parsed from notes, converged, and a digest
# of repr((max_condition, converged, notes))
_DOUBLING = re.compile(r"doubling check rel change ([0-9.eE+-]+)")


@pytest.mark.parametrize("solver", ["solve_exact", "solve_approximate"])
def test_benchmark_reading_of_a_solve_report(solver):
    from eia.core_model import FieldConfig, ModelParams
    from eia.velocity_integrals import make_grid

    solve = getattr(importlib.import_module("eia.spectrum_solver"), solver)
    params = ModelParams(gamma_pcc=5.0, gamma_vcc=0.025, gamma_g=0.001)
    fields = FieldConfig(v1=0.0816, v2=0.1, vp=0.001, qp_vth=36.5, dq_vth=0.0,
                         dq_direction="collinear")
    args = (params, fields, make_grid(3000, 1), [-0.5, -0.1, 0.0, 0.1, 0.5])
    _, report = solve(*args, check_convergence=True, conv_rtol=1e-6)
    assert _DOUBLING.search(report.notes).group(1) == f"{report.doubling_change:.2e}"
    assert report.converged is True
    digest = (report.max_condition, report.converged, report.notes)
    assert [type(x) for x in digest] == [float, bool, str]
    assert ast.literal_eval(repr(digest)) == digest  # plain Python literals
    _, report = solve(*args, check_convergence=False)
    assert (report.converged, report.notes) == (None, "")


def test_import_leaves_scipy_optimize_unloaded():
    # a fresh interpreter: this one has loaded scipy.optimize through other tests
    path = os.pathsep.join(filter(None, [str(pathlib.Path(eia.__file__).parent.parent),
                                         os.environ.get("PYTHONPATH")]))
    code = "import sys, eia, eia.cli_runner; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "False"


def test_readme_python_example_runs():
    # the README's fenced python code, run as written: a signature it calls
    # that changes must fail here
    text = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)
    assert blocks, "README.md holds no python example"
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {})


def test_benchmark_cli_surface():
    from eia.cli_runner import PRESETS, expand_target, parse_config

    cfg = parse_config("beam_filter", {"n_par": 4000, "n_res": 1, "slice_length": 0.01,
                                       "optical_depth_scale": 100.0, "profile_in": "in.txt",
                                       "profile_out": "out.txt"})
    assert (cfg.values["n_par"], cfg.values["n_res"]) == (4000, 1)
    assert {"fig6", "fig7"} <= set(PRESETS)
    # the reference maker reruns both presets with a doubled n_par
    for preset in ("fig6", "fig7"):
        runs = expand_target(preset, {}, {"n_par": 8000}, "", "csv")
        assert [r.values["n_par"] for r in runs] == [8000] * len(PRESETS[preset])


def _unread_parameters(source: str):
    """(function, parameter) for each parameter that its function body never loads."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
        loaded = {n.id for stmt in node.body for n in ast.walk(stmt)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [(node.name, p.arg) for p in params
                   if p is not None and p.arg not in loaded]
    return unread


def test_unread_parameter_guard_flags_a_dead_argument():
    src = "def f(a, b, *, c=1):\n    return a\n\ndef g(x):\n    def h():\n        return x\n"
    assert _unread_parameters(src) == [("f", "b"), ("f", "c")]


@pytest.mark.parametrize("module", MODULES)
def test_every_parameter_is_read(module):
    # an argument no body reads is an option that changes nothing
    path = pathlib.Path(eia.__file__).parent / f"{module}.py"
    assert _unread_parameters(path.read_text()) == []


def _dataclass_fields(source: str):
    """(class, field) for each annotated field of each @dataclass or NamedTuple class."""
    fields = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = {(d.func if isinstance(d, ast.Call) else d) for d in node.decorator_list}
        if not (any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)
                or any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases)):
            continue
        fields += [(node.name, stmt.target.id) for stmt in node.body
                   if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
    return fields


def _attributes_read(source: str):
    return {n.attr for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def test_unread_field_guard_flags_a_dead_field():
    src = ("@dataclass(frozen=True)\nclass R:\n    a: int\n    b: int\n\n"
           "class N:\n    c: int\n\ndef f(r):\n    return r.a\n")
    unread = [f for f in _dataclass_fields(src) if f[1] not in _attributes_read(src)]
    assert unread == [("R", "b")]


def test_unread_field_guard_flags_a_dead_namedtuple_field():
    src = ("class T(NamedTuple):\n    a: int\n    b: int\n\n"
           "class U(Base):\n    c: int\n\ndef f(t):\n    return t.a\n")
    unread = [f for f in _dataclass_fields(src) if f[1] not in _attributes_read(src)]
    assert unread == [("T", "b")]


def test_every_dataclass_field_is_read():
    # a stored field that no code reads, by name, is a value kept for nothing;
    # matching by name cannot see a field whose name another object reads
    root = pathlib.Path(eia.__file__).parent
    tests = pathlib.Path(__file__).parent
    sources = {p: p.read_text() for p in [*root.glob("*.py"), *tests.glob("*.py")]}
    read = set().union(*map(_attributes_read, sources.values()))
    unread = [f for p, src in sources.items() if p.parent == root
              for f in _dataclass_fields(src) if f[1] not in read]
    assert unread == []


def _unread_keys(source: str, keys):
    """Each of keys that no string subscript (``v["key"]``) in source reads."""
    read = {n.slice.value for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Subscript) and isinstance(n.slice, ast.Constant)}
    return [k for k in keys if k not in read]


def test_unread_key_guard_flags_a_dead_key():
    src = "KEYS = {'a': 1, 'b': 2}\n\ndef f(v):\n    return v['a'] + KEYS[v]\n"
    assert _unread_keys(src, ["a", "b"]) == ["b"]


def test_every_config_key_is_read():
    # a key that no runner reads is an option that changes nothing
    from eia import cli_runner

    source = pathlib.Path(cli_runner.__file__).read_text()
    assert _unread_keys(source, cli_runner.KEYS) == []


def _defaults_refused(keys):
    """Each key whose default does not come back unchanged from its own coerce."""
    refused = []
    for name, key in keys.items():
        try:
            if key.coerce(name, key.default) != key.default:
                refused.append(name)
        except ValueError:
            refused.append(name)
    return refused


def test_default_guard_flags_a_default_its_key_refuses():
    from eia.cli_runner import _Key

    keys = {"ok": _Key(float, 1.0, lambda v: v > 0, "> 0"),
            "out_of_range": _Key(float, -1.0, lambda v: v > 0, "> 0"),
            "unreadable": _Key(int, 2.5), "changed": _Key(str, 3)}
    assert _defaults_refused(keys) == ["out_of_range", "unreadable", "changed"]


def test_every_config_default_passes_its_own_key():
    # defaults never pass through coerce, so one its key refuses would reach users
    from eia import cli_runner

    assert _defaults_refused(cli_runner.KEYS) == []
