"""Spatial-frequency response of the driven medium and thin-slice filtering.

Near zero probe detuning the medium acts on the probe's transverse spatial
spectrum as an absorbing filter: L(k) enhances absorption at low transverse
frequency and rolls off as a Lorentzian in k^2 with the diffusion scale D.
A thin slice applies exp[i(chi(k) - k^2/(2 q_p)) dz] in k-space; chi is
i*K*(1+L) up to one user-set magnitude constant.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import signal
import struct
import tempfile
import warnings
from dataclasses import dataclass, replace
from functools import partial
from typing import Tuple

import numpy as np

from .core_model import FieldConfig, ModelParams
from .velocity_integrals import G_1P, QuadratureGrid, g_integral

__all__ = [
    "FilterParams",
    "TransverseProfile",
    "ParaxialError",
    "filter_params_from_model",
    "filter_response",
    "apply_filter",
    "save_profile",
    "load_profile",
]

DEFAULT_QP_PHYSICAL = 2.0 * np.pi / 780e-9  # 1/m, D2-line probe


class ParaxialError(RuntimeError):
    """Populated spatial frequencies violate the paraxial bound."""


@dataclass(frozen=True)
class FilterParams:
    """Reduced parameter set of the k-space filter.

    eta is the pump amplitude ratio (0 < eta <= 1); power_broadening is
    K*|V2|^2 (complex; its real part acts as the rate); diffusion_D is the
    dimensionless combination D*q_p^2/Gamma so that filter arguments are k in
    units of q_p.  probe_kernel is the K that assembles the full
    susceptibility.
    """

    eta: float
    power_broadening: complex
    diffusion_D: float
    probe_kernel: complex

    def __post_init__(self):
        if not 0 < self.eta <= 1:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        if not self.diffusion_D > 0:
            raise ValueError("diffusion_D must be > 0")


def _homogeneous_width(params: ModelParams, power_broadening: complex) -> float:
    """gamma_hom = gamma_g + Re(K)|V2|^2, the width within which the filter holds."""
    return params.gamma_g + np.real(power_broadening)


def _warn_beyond(deltap: float, gamma_hom: float, consequence: str) -> None:
    # attributed to the caller of the public function that checks
    if abs(deltap) > gamma_hom > 0:
        warnings.warn(f"|deltap| = {abs(deltap):.3g} exceeds the homogeneous width "
                      f"{gamma_hom:.3g}; {consequence}", stacklevel=3)


def filter_params_from_model(params: ModelParams, fields: FieldConfig,
                             grid: QuadratureGrid, deltap: float = 0.0,
                             rtol: float | None = 1e-7) -> FilterParams:
    """Assemble FilterParams from the microscopic model at one detuning.

    The filter uses one kernel, K = i*<1/xi2> (``G_1P``), the bare thermal
    average of the probe transition taken at deltap, with the doubling check
    of ``g_integral`` at rtol.  This single-kernel stand-in holds near zero
    probe detuning; a warning flags |deltap| beyond the homogeneous width
    gamma_g + Re(K)|V2|^2.  power_broadening is K|V2|^2, probe_kernel is K.
    """
    if not params.gamma_vcc > 0:
        raise ValueError("the diffusion coefficient requires gamma_vcc > 0")
    kern = 1j * g_integral(G_1P, params, replace(fields, deltap=deltap), grid, rtol=rtol)
    gamma_p = kern * abs(fields.v2) ** 2
    _warn_beyond(deltap, _homogeneous_width(params, gamma_p),
                 "the single-kernel approximation degrades")
    if fields.v2 != 0:
        eta = abs(fields.v1 / fields.v2)
    elif fields.v1 == 0:
        eta = 1.0  # no pumps at all: power_broadening = 0 makes eta inert
    else:
        raise ValueError("eta undefined for V2 = 0 with V1 != 0")
    d_hat = fields.qp_vth ** 2 / params.gamma_vcc
    return FilterParams(eta=eta, power_broadening=complex(gamma_p),
                        diffusion_D=d_hat, probe_kernel=complex(kern))


def filter_response(fp: FilterParams, params: ModelParams, deltap: float, k):
    """L(k; deltap) = eta(2bA-eta)Gamma_p / (-i deltap + gamma + (eta^2+1-2bA eta)Gamma_p + D k^2).

    The fields enter only through fp (eta and Gamma_p); params gives gamma =
    gamma_g and the product bA.  L is the relative enhancement in
    chi = i K (1 + L), a susceptibility per unit density and probe amplitude
    like every response of the package.  k is in units of q_p (matching the
    dimensionless diffusion_D).  Scalar k in, scalar out; array in, array
    out.  A warning fires when |deltap| exceeds the homogeneous width
    gamma + Re(Gamma_p), outside the response's validity.
    """
    _warn_beyond(deltap, _homogeneous_width(params, fp.power_broadening),
                 "filter response outside validity")
    ba = params.b * params.branching_A
    eta = fp.eta
    num = eta * (2.0 * ba - eta) * fp.power_broadening
    k = np.asarray(k, dtype=float)
    dk2 = np.square(k)
    dk2 *= fp.diffusion_D
    den = (-1j * deltap + params.gamma_g
           + (eta**2 + 1.0 - 2.0 * ba * eta) * fp.power_broadening
           + dk2)
    if k.ndim == 0:
        return complex(num / den)
    return np.divide(num, den, out=den)


@dataclass(frozen=True)
class TransverseProfile:
    """Complex transverse amplitude on a uniform rectangular grid.

    samples[iy, ix] spans extent = (Lx, Ly) with spacings dx = Lx/nx,
    dy = Ly/ny.  Power-of-two sizes transform fastest but are not required.
    """

    samples: np.ndarray
    extent: Tuple[float, float]

    def __post_init__(self):
        s = np.asarray(self.samples)
        if s.ndim != 2 or 0 in s.shape:
            raise ValueError(f"samples must be a 2-D array with both axes nonempty, "
                             f"got shape {s.shape}")
        if not np.isfinite(s).all():
            raise ValueError("profile power must be finite")
        if not (0 < self.extent[0] < np.inf and 0 < self.extent[1] < np.inf):
            raise ValueError(f"extent must be finite and positive per axis, got {self.extent}")

    @property
    def nx(self) -> int:
        return self.samples.shape[1]

    @property
    def ny(self) -> int:
        return self.samples.shape[0]

    @property
    def dx(self) -> float:
        return self.extent[0] / self.nx

    @property
    def dy(self) -> float:
        return self.extent[1] / self.ny

    def power(self) -> float:
        return float(np.sum(np.abs(self.samples) ** 2) * self.dx * self.dy)


def apply_filter(profile: TransverseProfile, fp: FilterParams, params: ModelParams,
                 deltap: float, slice_length: float,
                 optical_depth_scale: float = 1.0,
                 qp_physical: float = DEFAULT_QP_PHYSICAL,
                 force_unitary: bool = False) -> TransverseProfile:
    """Propagate the profile through one thin slice of the driven medium.

    In k-space each component is multiplied by
    exp[i (chi(k) - k^2/(2 q_p)) slice_length] with
    chi(k) = optical_depth_scale * i * K * (1 + L(k)); optical_depth_scale
    carries the susceptibility magnitude in 1/length (the medium model fixes
    only the k shape, per unit density), and L(k) is ``filter_response`` at
    deltap.  force_unitary drops Im(chi) (pure phase medium), which
    conserves power exactly.  Populated spectral samples beyond 0.1*q_p raise
    ParaxialError.  deltap, slice_length, optical_depth_scale and qp_physical
    must be finite, and qp_physical > 0.
    """
    for name, x in (("deltap", deltap), ("slice_length", slice_length),
                    ("optical_depth_scale", optical_depth_scale), ("qp_physical", qp_physical)):
        if not np.isfinite(x):
            raise ValueError(f"{name} must be finite, got {x}")
    if not qp_physical > 0:
        raise ValueError(f"qp_physical must be > 0, got {qp_physical}")
    a_hat = np.fft.fft2(profile.samples)
    kx = 2.0 * np.pi * np.fft.fftfreq(profile.nx, d=profile.dx)
    ky = 2.0 * np.pi * np.fft.fftfreq(profile.ny, d=profile.dy)
    kmag = np.sqrt(ky[:, None] ** 2 + kx[None, :] ** 2)

    mag = np.abs(a_hat)
    worst = np.max(kmag, where=mag > 1e-12 * mag.max(initial=0.0), initial=0.0)
    del mag  # freed before the transfer is built, which sets the peak memory
    if worst > 0.1 * qp_physical:
        raise ParaxialError(
            f"populated spatial frequency {worst:.3e} 1/m exceeds 0.1*q_p = "
            f"{0.1 * qp_physical:.3e} 1/m")

    # exp(1j * (chi - kmag**2 / (2 q_p)) * dz) in chi's and kmag's buffers.
    # The complex products run as array * scalar, which numpy rounds apart
    # from scalar * array in the last bit; the out-of-place expression runs
    # them this way only from 256 KiB up, where numpy reuses its temporaries.
    chi = filter_response(fp, params, deltap, kmag / qp_physical)
    chi += 1.0
    chi *= optical_depth_scale * 1j * fp.probe_kernel
    if force_unitary:
        chi.imag = 0.0
    np.square(kmag, out=kmag)
    kmag /= 2.0 * qp_physical
    chi -= kmag
    chi *= 1j
    chi *= slice_length
    np.exp(chi, out=chi)
    a_hat *= chi
    del chi  # freed before ifft2 allocates its output
    out = np.fft.ifft2(a_hat)
    return TransverseProfile(samples=out, extent=profile.extent)


_BIN_HEADER = struct.Struct("<qqdd")
_TEXT_BLOCK = 4096  # samples per text write
# fewest samples in a text run: about 20 ms of repr against a few ms per fork
_RUN_MIN = 4 * _TEXT_BLOCK


def _text_runs(n: int):
    """[start, stop) runs of n samples, one per CPU this process may run on.

    Each run holds at least _RUN_MIN samples, so a small body is one run;
    so is every body on a platform without os.fork or os.sched_getaffinity.
    """
    cpus = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    k = max(1, min(cpus, n // _RUN_MIN))
    edges = [n * i // k for i in range(k + 1)]
    return list(zip(edges[:-1], edges[1:]))


@contextlib.contextmanager
def _forked(work, jobs):
    """Run work(*job, out) in a forked child per job, out an unnamed temporary file.

    Yields an iterator that waits for the children in job order and gives
    each job's file rewound, or None where the file, the fork or the work
    failed.  A child fails if work raises or warns; it ends in os._exit, so
    it never returns into the caller's stack nor flushes a buffer this
    process holds.  Leaving the context kills and reaps every child still
    running, so none outlives the call, on any path.
    """
    running, forked = set(), []

    def results():
        for pid, out in forked:
            status = 1
            if pid is not None:
                running.discard(pid)
                with contextlib.suppress(ChildProcessError):  # reaped already, where SIGCHLD is ignored
                    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if status == 0:
                out.seek(0)
            yield out if status == 0 else None

    with contextlib.ExitStack() as temps:
        try:
            for job in jobs:
                try:
                    # unnamed where the file system allows it, unlinked at once where not
                    out = temps.enter_context(tempfile.TemporaryFile())
                    with warnings.catch_warnings():
                        # Python >= 3.12 warns on forking while threads run (the
                        # BLAS pool's).  The child only formats or parses text,
                        # calls no BLAS or FFT, and leaves through os._exit.
                        warnings.simplefilter("ignore", DeprecationWarning)
                        pid = os.fork()
                except OSError:
                    pid = out = None
                if pid == 0:
                    status = 1
                    try:
                        warnings.simplefilter("error")
                        work(*job, out)
                        out.flush()
                        status = 0
                    finally:
                        os._exit(status)
                if pid is not None:
                    running.add(pid)
                forked.append((pid, out))
            yield results()
        finally:
            for pid in running:
                with contextlib.suppress(ProcessLookupError, ChildProcessError):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)


def _write_text_run(flat, start: int, stop: int, out) -> None:
    """Samples [start, stop) of the interleaved floats flat to out, one "re im" line each."""
    # one %-format and one write per block keeps the save close to the cost
    # of repr itself; per-sample f-strings and writes do not
    for a in range(2 * start, 2 * stop, 2 * _TEXT_BLOCK):
        b = flat[a:min(a + 2 * _TEXT_BLOCK, 2 * stop)].tolist()
        out.write(("%r %r\n" * (len(b) // 2) % tuple(b)).encode())


def _save_text(profile: TransverseProfile, data: np.ndarray, path) -> None:
    flat = data.view(float).ravel()
    first, *rest = _text_runs(flat.size // 2)
    write = partial(_write_text_run, flat)
    with open(path, "wb") as fh:
        fh.write(f"{profile.nx} {profile.ny} {float(profile.dx)!r} "
                 f"{float(profile.dy)!r}\n".encode())
        with _forked(write, rest) as outs:
            write(*first, fh)
            for run, out in zip(rest, outs):
                if out is None:
                    write(*run, fh)  # this process formats a run its child did not
                else:
                    shutil.copyfileobj(out, fh)


def save_profile(profile: TransverseProfile, path, fmt: str = "text") -> None:
    """Write the profile to path as text (fmt="text") or binary (fmt="binary").

    Both forms hold a header (nx, ny, dx, dy), then the nx*ny samples in
    row-major order (y rows, x fastest).  Text: the header line
    "nx ny dx dy", then one line "re im" per sample, each float written as
    its ``repr``; that is the shortest exact round trip, signed zeros
    included, and ``np.loadtxt`` parses it.  Binary: little-endian int64 nx,
    int64 ny, float64 dx, float64 dy, then complex128 samples.

    A text body is formatted in contiguous runs of samples, one per CPU in
    the process's affinity mask (``os.sched_getaffinity``): this process
    writes the first run straight into the file while forked children
    format the others into unnamed temporary files, which are appended in
    order.  A run whose temporary file, fork or child fails is formatted
    here instead.  The bytes written do not depend on how the body is
    split.  No child outlives the call, also when it raises.
    """
    data = np.ascontiguousarray(profile.samples, dtype=complex)
    if fmt == "text":
        _save_text(profile, data, path)
    elif fmt == "binary":
        with open(path, "wb") as fh:
            fh.write(_BIN_HEADER.pack(profile.nx, profile.ny, profile.dx, profile.dy))
            fh.write(data.astype("<c16").tobytes(order="C"))
    else:
        raise ValueError(f"fmt must be 'text' or 'binary', got {fmt!r}")


def _check_header(path, nx, ny, dx, dy) -> None:
    if nx < 1 or ny < 1:
        raise ValueError(f"profile {path}: header gives {nx}x{ny} samples; "
                         "both sizes must be >= 1")
    if not (0 < dx < np.inf and 0 < dy < np.inf):
        raise ValueError(f"profile {path}: header gives spacings {dx!r}, {dy!r}; "
                         "both must be finite and > 0")


def _parse_rows(path, start: int, stop=None) -> np.ndarray:
    """Rows of two floats parsed from bytes [start, stop) of path, or from start to its end."""
    with open(path, "rb") as raw:  # a handle of its own: a forked one shares its offset
        raw.seek(start)
        rows = np.loadtxt(raw if stop is None else io.BytesIO(raw.read(stop - start)),
                          dtype=float, ndmin=2)
    if rows.shape[1] != 2:
        raise ValueError(f"rows have {rows.shape[1]} columns, not 2")
    return rows


def _parse_text_runs(path, body: int, n: int):
    """The (n, 2) text body of path from byte offset body on, parsed in runs, or None.

    There is one run per CPU.  Run edges are byte offsets into the body,
    each moved on past the next newline.  Forked children parse every run
    but the last and hand back float64 rows through a temporary file, whose
    size gives their count; this process parses the last run meanwhile.
    None, which leaves the decision to one ``np.loadtxt`` over the whole
    body, comes back for a single run, a body too short to hold n rows, a
    child that fails, a run that warns or does not have 2 columns, or run
    sizes that do not add up to n.
    """
    runs = len(_text_runs(n))
    if runs == 1:
        return None
    with open(path, "rb") as raw:
        size = os.fstat(raw.fileno()).st_size
        # each row takes 4 bytes or more ("0 0\n"), the last 3; a shorter
        # body is refused before n rows are allocated
        if size - body < 4 * n - 1:
            return None
        edges = [body]
        for i in range(1, runs):
            raw.seek(body + (size - body) * i // runs)
            raw.readline()
            edges.append(raw.tell())
    edges = sorted(set(edges + [size]))
    if len(edges) < 3:
        return None
    spans = list(zip(edges[:-1], edges[1:]))
    with _forked(lambda start, stop, out: out.write(_parse_rows(path, start, stop)),
                 spans[:-1]) as outs:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                tail = _parse_rows(path, edges[-2])
        except (ValueError, OSError, Warning):
            return None
        if tail.shape[0] > n:
            return None
        # the last run goes into place before the others are read in, so the
        # body is held once, not twice
        flat = np.empty((n, 2))
        end = n - tail.shape[0]
        flat[end:] = tail
        del tail
        at = 0
        for out in outs:
            if out is None:
                return None
            m = os.fstat(out.fileno()).st_size // 16
            if at + m > end or out.readinto(flat[at:at + m]) != 16 * m:
                return None
            at += m
    return flat if at == end else None


def load_profile(path, fmt: str = "text") -> TransverseProfile:
    """Read a profile that ``save_profile`` wrote in the same fmt.

    The header (nx, ny, dx, dy) comes first, then nx*ny samples in
    row-major order (y rows, x fastest); the extent is (nx*dx, ny*dy).
    Text: a line "nx ny dx dy", then one line "re im" per sample; the
    ``repr`` floats ``save_profile`` writes read back exactly, signed zeros
    included.  A text file is read as bytes: the header line is decoded as
    ASCII and the body's bytes go to ``np.loadtxt`` as they are, so lines
    may end in LF or CRLF.  Binary: little-endian int64 nx, int64 ny,
    float64 dx, float64 dy, then complex128 samples.  A header with a size
    below 1 or a spacing that is not finite and > 0, or a body of the wrong
    length, raises ValueError naming the file.

    A text body is parsed in contiguous runs of lines, one per CPU in the
    process's affinity mask (``os.sched_getaffinity``): forked children
    parse all runs but the last into unnamed temporary files, and this
    process parses the last one meanwhile.  Where the body has fewer bytes
    than nx*ny rows take (4 a row, 3 for the last), a temporary file, fork
    or child fails, or a run does not parse to rows of two floats that add
    up to nx*ny, the whole body is parsed again in one piece, so errors
    read as they would unsplit.  The samples read do not depend on how the
    body is split.  No child outlives the call, also when it raises.
    """
    if fmt == "text":
        with open(path, "rb") as fh:
            header = fh.readline().decode("ascii", "replace").split()
            if len(header) != 4:
                raise ValueError(f"profile {path}: header has {len(header)} fields, not 4")
            try:
                nx, ny, dx, dy = int(header[0]), int(header[1]), float(header[2]), float(header[3])
            except ValueError:
                raise ValueError(f"profile {path}: header {' '.join(header)!r} is not "
                                 "two integers and two floats") from None
            _check_header(path, nx, ny, dx, dy)
            flat = _parse_text_runs(path, fh.tell(), nx * ny)
            if flat is None:
                flat = np.loadtxt(fh, dtype=float, ndmin=2)
        if flat.shape != (nx * ny, 2):
            raise ValueError(f"profile {path}: body has shape {flat.shape}, expected ({nx * ny}, 2)")
        samples = flat.view(complex).reshape(ny, nx)
    elif fmt == "binary":
        with open(path, "rb") as fh:
            raw = fh.read()
        if len(raw) < _BIN_HEADER.size:
            raise ValueError(f"profile {path}: file has {len(raw)} bytes, shorter than its header")
        nx, ny, dx, dy = _BIN_HEADER.unpack_from(raw, 0)
        _check_header(path, nx, ny, dx, dy)
        if len(raw) != _BIN_HEADER.size + 16 * nx * ny:
            raise ValueError(f"profile {path}: body has {len(raw) - _BIN_HEADER.size} "
                             f"bytes, expected {16 * nx * ny} for {nx}x{ny} samples")
        samples = np.frombuffer(raw, dtype="<c16", offset=_BIN_HEADER.size).reshape(ny, nx).copy()
    else:
        raise ValueError(f"fmt must be 'text' or 'binary', got {fmt!r}")
    return TransverseProfile(samples=samples, extent=(nx * dx, ny * dy))
