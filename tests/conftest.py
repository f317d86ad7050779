import os
import re
import tempfile

import numpy as np
import pytest

from eia.core_model import ModelParams, FieldConfig

# short functional names for the acceptance summary block
_CRITERIA = {
    1: "at-rest equivalence",
    2: "pump-off strong-collision identity",
    3: "quadrature vs Faddeeva oracle",
    4: "peak spectrum shape",
    5: "pedestal width law",
    6: "collisional narrowing law",
    7: "wavevector-mismatch trends",
    8: "spatial filter properties",
    9: "beam diffusion properties",
    10: "global invariants",
}

_PAT = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One ACCEPTANCE line per numbered criterion that ran."""
    results = {}
    for status, label in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for rep in terminalreporter.stats.get(status, []):
            m = _PAT.search(getattr(rep, "nodeid", ""))
            if m is None:
                continue
            n = int(m.group(1))
            # a setup/teardown error also means the criterion did not pass
            if label == "FAIL" or getattr(rep, "when", "call") == "call":
                results[n] = label if results.get(n) != "FAIL" else "FAIL"
    if not results:
        return
    terminalreporter.write_line("")
    for n in sorted(results):
        terminalreporter.write_line(f"ACCEPTANCE {n} {_CRITERIA.get(n, '')} ... {results[n]}")


@pytest.fixture
def fig2_params():
    # collinear buffer-gas configuration used throughout the narrow-peak checks
    return ModelParams(gamma_pcc=5.0, gamma_vcc=0.025, gamma_g=0.001)


@pytest.fixture
def fig2_fields():
    return FieldConfig(v1=0.0816, v2=0.1, vp=0.001, qp_vth=36.5, dq_vth=0.0,
                       dq_direction="collinear")


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)


def flat_velocity_mesh(fields, grid):
    """The velocity mesh as flat (v_par, v_res, w) node arrays, one entry per node.

    An independent reference for ``velocity_mesh``'s product form: dq_vth = 0
    pairs every parallel node with v_res = 0, a collinear mesh reuses v_par as
    v_res, and a transverse mesh takes every (par, res) pair.
    """
    if fields.dq_vth == 0.0:
        return grid.nodes_par, np.zeros_like(grid.nodes_par), grid.weights_par
    if fields.dq_direction == "collinear":
        return grid.nodes_par, grid.nodes_par, grid.weights_par
    v_par = np.repeat(grid.nodes_par, grid.n_res)
    v_res = np.tile(grid.nodes_res, grid.n_par)
    w = np.outer(grid.weights_par, grid.weights_res).ravel()
    return v_par, v_res, w


def _unlinked_open_files():
    """Open descriptors of this process whose file has no name (Linux only)."""
    fd_dir = "/proc/self/fd"
    if not os.path.isdir(fd_dir):
        return set()
    links = set()
    for fd in os.listdir(fd_dir):
        try:
            link = os.readlink(os.path.join(fd_dir, fd))
        except OSError:  # the descriptor listing itself, closed by now
            continue
        if link.endswith(" (deleted)"):
            links.add((fd, link))
    return links


@pytest.fixture
def no_stray_children(tmp_path_factory, monkeypatch):
    """After the test: no child process left to reap and no temporary file left behind.

    The profile codec forks workers and gives them temporary files; each
    save or load must reap every child and close and remove every file,
    whether it succeeds or raises.  The test's temporary files go to a
    directory of their own, which must be empty afterwards.
    """
    temp_dir = tmp_path_factory.mktemp("tempfile")
    monkeypatch.setattr(tempfile, "tempdir", str(temp_dir))
    before = _unlinked_open_files()
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _unlinked_open_files() <= before
    assert list(temp_dir.iterdir()) == []
