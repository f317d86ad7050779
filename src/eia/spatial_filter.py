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
from dataclasses import dataclass
from functools import lru_cache, partial
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
    A pump ratio |v1/v2| outside (0, 1] is refused before the average, and
    so are pumps out of phase: eta = |v1/v2| holds only for a product
    v1*conj(v2) that is real and > 0 (to a relative phase of 1e-12, so a
    phase common to both pumps passes through its rounding).
    """
    if not params.gamma_vcc > 0:
        raise ValueError("the diffusion coefficient requires gamma_vcc > 0")
    if fields.v2 != 0:
        eta = abs(fields.v1 / fields.v2)
        if not 0 < eta <= 1:
            raise ValueError(f"the pump ratio |v1/v2| must be in (0, 1], got "
                             f"v1 = {fields.v1!r}, v2 = {fields.v2!r}")
        product = complex(fields.v1 * np.conj(fields.v2))
        if not abs(product.imag) <= 1e-12 * product.real:
            raise ValueError(f"the pump product v1*conj(v2) must be real and > 0, got "
                             f"v1 = {fields.v1!r}, v2 = {fields.v2!r}")
    elif fields.v1 == 0:
        eta = 1.0  # no pumps at all: power_broadening = 0 makes eta inert
    else:
        raise ValueError("eta undefined for V2 = 0 with V1 != 0")
    kern = 1j * g_integral(G_1P, params, fields, grid, deltap, rtol=rtol)
    gamma_p = kern * abs(fields.v2) ** 2
    _warn_beyond(deltap, _homogeneous_width(params, gamma_p),
                 "the single-kernel approximation degrades")
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
    gamma + Re(Gamma_p), outside the response's validity.  A deltap or k
    that is not finite raises ValueError.
    """
    if not np.isfinite(deltap):
        raise ValueError(f"deltap must be finite, got {deltap}")
    k = np.asarray(k, dtype=float)
    # the extremes carry any NaN or inf, without a temporary the size of k
    if not (np.isfinite(k.min(initial=0.0)) and np.isfinite(k.max(initial=0.0))):
        raise ValueError("k must be finite")
    _warn_beyond(deltap, _homogeneous_width(params, fp.power_broadening),
                 "filter response outside validity")
    ba = params.b * params.branching_A
    eta = fp.eta
    num = eta * (2.0 * ba - eta) * fp.power_broadening
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
    Every sample must be finite; the first one that is not is named as
    [iy, ix] in the ValueError.
    """

    samples: np.ndarray
    extent: Tuple[float, float]

    def __post_init__(self):
        s = np.asarray(self.samples)
        if s.ndim != 2 or 0 in s.shape:
            raise ValueError(f"samples must be a 2-D array with both axes nonempty, "
                             f"got shape {s.shape}")
        finite = np.isfinite(s)
        if not finite.all():
            iy, ix = np.argwhere(~finite)[0]
            raise ValueError(f"samples must be finite, got {s[iy, ix]} at [{iy}, {ix}]")
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
_TEXT_BLOCK = 8192  # samples per text write, about 4 MiB of the kernel's temporaries
# fewest samples in a text run.  On 2 vCPUs a fork costs about what
# formatting 16384 samples does (10-15 ms): one run and two take the same
# time near 32768 samples, and two runs save a tenth at 49152.
_RUN_MIN = 3 * _TEXT_BLOCK


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
                        # BLAS pool's).  The child only formats or parses text:
                        # numpy elementwise code and repr, no BLAS or FFT.  It
                        # leaves through os._exit.
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


# repr's digits for a whole block of floats.  |x| in [1e-280, 1e280] is
# scaled to y = |x| 10**(16-j) in [1e16, 1e17) as a double-double, by
# Dekker's exact two-product against a double-double table of powers of ten
# (Numer. Math. 18, 224 (1971)); its error is below 1e-14 in units of y's
# last digit.  The 15-, 16- and 17-digit neighbours of y are tried in turn
# against x's rounding interval, and the first level with one strictly
# inside gives repr's digits, the nearer of two and the even one on an exact
# tie (Gay's shortest round trip, AT&T Numerical Analysis Manuscript 90-10).
# A decision closer to its edge than _REPR_EPS, and any other |x|, is left
# to repr itself.
_REPR_EPS = 2.0 ** -30  # in units of y's last place
_REPR_J = np.arange(-281, 282)  # decades j of the tables
_REPR_WIDTH = 24  # the longest repr, "-2.2250738585072014e-308"
# bytes of a row of the digit source: 0-15 digits 2-17, 16 digit 1, 17 "-",
# 18 ".", 19 "0", 20 exponent sign, 21-23 exponent, 24 "e", 25 NUL, 26 separator
_REPR_SOURCE = 28
_REPR_DIGIT = [16] + list(range(16))


def _repr_layouts() -> np.ndarray:
    """Source byte of each output byte, by (sign, form, digit count).

    Form j + 4 for a decade j in [-4, 15] is repr's fixed notation; forms 20
    and 21 are its exponent notation with two and three exponent digits.
    The separator follows the text, and NULs pad the row.
    """
    out = np.full((2, 22, 18, _REPR_WIDTH + 1), 25, dtype=np.intp)
    for neg, form, nd in np.ndindex(2, 22, 18):
        row = [17] * neg
        if form < 20:  # digits, with "0." before or zeros and ".0" after them
            point = form - 3  # digits before the point
            before, after = max(point, 1), max(nd - point, 1)
            for k in range(-before, after + 1):
                at = k + point - (k > 0)
                row.append(18 if k == 0 else _REPR_DIGIT[at] if 0 <= at < nd else 19)
        else:
            row += [_REPR_DIGIT[0]] + ([18] + _REPR_DIGIT[1:nd]) * (nd > 1)
            row += [24, 20] + [21, 22, 23][form == 20:]
        out[neg, form, nd, :len(row) + 1] = row + [26]
    return out.reshape(-1, _REPR_WIDTH + 1)


@lru_cache(maxsize=1)
def _repr_tables() -> dict:
    """The kernel's tables, built on first use and shared read-only."""
    from fractions import Fraction  # imported here, so that importing eia does not pay for it

    ceil10, p_hi, p_lo = [], [], []
    for j in _REPR_J.tolist():
        ten = Fraction(10) ** j
        c = float(ten)
        ceil10.append(c if c >= ten else np.nextafter(c, np.inf))  # the least double >= 10**j
        p = Fraction(10) ** (16 - j)
        p_hi.append(float(p))
        p_lo.append(float(p - Fraction(p_hi[-1])))
    p_hi = np.array(p_hi)
    split = p_hi * 134217729.0  # Dekker's split, 26 bits a half
    p_hh = split - (split - p_hi)
    # the decade of 2**e, for each biased exponent b = e + 1023
    e = np.arange(2048) - 1023
    j_low = [len(str(2 ** k)) - 1 if k >= 0 else len(str(5 ** -k)) - 1 + k for k in e.tolist()]
    g = np.arange(10000)
    ascii4 = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1) + 48
    tz = (g % 10 == 0).astype(np.intp) + (g % 100 == 0) + (g % 1000 == 0)
    tz[0] = 4
    d = np.arange(-400, 400)
    exp4 = np.stack([np.where(d < 0, 45, 43), abs(d) // 100 + 48,
                     abs(d) // 10 % 10 + 48, abs(d) % 10 + 48], axis=1)
    lead = np.array([[48 + k, 45, 46, 48] for k in range(10)])
    tables = dict(
        ceil10=np.array(ceil10), p_hi=p_hi, p_lo=np.array(p_lo), p_hh=p_hh, p_hl=p_hi - p_hh,
        j_low=np.clip(j_low, _REPR_J[0], _REPR_J[-1] - 1) - _REPR_J[0],
        half_ulp=np.ldexp(1.0, e - 53), tz=tz,
        ascii4=ascii4.astype(np.uint8).view(np.uint32).ravel(),
        exp4=exp4.astype(np.uint8).view(np.uint32).ravel(),
        lead=lead.astype(np.uint8).view(np.uint32).ravel(),
        tail=np.frombuffer(b"e\0 \0e\0\n\0", dtype=np.uint32),
        layouts=_repr_layouts())
    tables["width"] = (tables["layouts"] != 25).sum(axis=1)  # text and separator
    for a in tables.values():
        a.flags.writeable = False
    return tables


def _shortest_digits(a: np.ndarray, tab: dict):
    """(m, j, undecided) with repr's digits of each a > 0 in [1e-280, 1e280].

    m is the 17-digit integer of the digits padded with zeros, and a is
    m * 10**(j-16) to the digits repr writes.  undecided marks the values
    whose digits the arithmetic cannot settle.
    """
    bits = a.view(np.int64)
    b = bits >> 52
    ji = tab["j_low"][b]
    ji += a >= tab["ceil10"][ji + 1]
    j = ji + _REPR_J[0]
    ph, bh, bl = tab["p_hi"][ji], tab["p_hh"][ji], tab["p_hl"][ji]
    s = a * 134217729.0
    ah = s - (s - a)
    al = a - ah
    hi = a * ph
    lo = ((ah * bh - hi) + ah * bl + al * bh + al * bl) + a * tab["p_lo"][ji]
    y_hi = hi + lo
    y_lo = lo - (y_hi - hi)
    floor = np.floor(y_lo)
    frac = y_lo - floor
    n = y_hi.astype(np.int64) + floor.astype(np.int64)  # y = n + frac
    # half the gap to each neighbouring double, scaled as y; the gap below
    # a power of two is half the gap above it
    up = tab["half_ulp"][b] * ph
    mant = bits & ((1 << 52) - 1)
    down = np.where(mant == 0, 0.5 * up, up)
    mant |= 1 << 52
    mant &= -mant  # the lowest set bit: an exact tie has it at 2**(j + level - 17)
    low_bit = b + (mant.astype(float).view(np.int64) >> 52) - 2098
    m = np.zeros_like(n)
    pending = np.ones(a.shape, dtype=bool)
    undecided = np.zeros(a.shape, dtype=bool)
    for level, step in ((2, 100), (1, 10), (0, 1)):
        q = n // step
        r = (n - q * step) + frac  # y less its neighbour below
        gap_down, gap_up = r - down, (step - r) - up  # < 0: inside
        nearer = 2 * r - step  # < 0: the neighbour below is nearer
        in_down, in_up = gap_down < 0, gap_up < 0
        both = in_down & in_up
        tie = low_bit == j + level - 17
        # doubt about one neighbour is moot where the other is surely inside and nearer
        undecided |= pending & (
            (abs(gap_down) <= _REPR_EPS) & ~((gap_up < -_REPR_EPS) & (nearer > _REPR_EPS))
            | (abs(gap_up) <= _REPR_EPS) & ~((gap_down < -_REPR_EPS) & (nearer < -_REPR_EPS))
            | both & ~tie & (abs(nearer) <= _REPR_EPS))
        take_up = in_up & ~(both & np.where(tie, (q & 1) == 0, nearer < 0))
        pick = pending & (in_down | in_up)
        m = np.where(pick, (q + take_up) * step, m)
        pending &= ~pick
    undecided |= pending
    carry = m == 10 ** 17
    return np.where(carry, 10 ** 16, m), j + carry, undecided


def _format_floats(x: np.ndarray, tab: dict) -> bytes:
    """repr of each float of x (even in number), followed by " " and "\\n" by turns."""
    ax = abs(x)
    fast = (ax >= 1e-280) & (ax <= 1e280)
    if fast.all():
        m, j, undecided = _shortest_digits(ax, tab)
    else:
        m = np.zeros(x.shape, dtype=np.int64)  # 0.0 is the digit "0" at decade 0
        j = np.zeros(x.shape, dtype=np.int64)
        undecided = ~fast & (ax != 0.0)
        m[fast], j[fast], undecided[fast] = _shortest_digits(ax[fast], tab)
    g0 = m // 10 ** 16
    rest = m - g0 * 10 ** 16
    groups = []  # the other 16 digits, 4 at a time
    for p in (12, 8, 4, 0):
        groups.append(rest // 10 ** p)
        rest -= groups[-1] * 10 ** p
    g1, g2, g3, g4 = groups
    tz = tab["tz"]
    trailing = np.where(g4 > 0, tz[g4], 4 + np.where(g3 > 0, tz[g3], 4 + np.where(
        g2 > 0, tz[g2], 4 + tz[g1])))
    nd = np.maximum(17 - trailing, 1)  # digits written; 0.0 has one
    src = np.empty((x.size, _REPR_SOURCE // 4), dtype=np.uint32)
    for k, g in enumerate(groups):
        src[:, k] = tab["ascii4"][g]
    src[:, 4] = tab["lead"][g0]
    src[:, 5] = tab["exp4"][j + 400]
    src[:, 6] = tab["tail"][np.arange(x.size) & 1]
    form = np.where((j >= -4) & (j <= 15), j + 4, 20 + (abs(j) >= 100))
    key = (np.signbit(x) * 22 + form) * 18 + nd
    # rows as wide as the block's longest text, a repr's in full
    i = np.flatnonzero(undecided)
    width = _REPR_WIDTH + 1 if i.size else tab["width"][key].max()
    at = np.take(tab["layouts"][:, :width], key, axis=0)
    at += np.arange(0, x.size * _REPR_SOURCE, _REPR_SOURCE)[:, None]
    out = src.view(np.uint8).ravel()[at]
    if i.size:
        sep = np.where(i % 2, "\n", " ").tolist()
        text = np.array([repr(v) + c for v, c in zip(x[i].tolist(), sep)], dtype=f"S{width}")
        out[i] = text.view(np.uint8).reshape(i.size, width)
    return out[out != 0].tobytes()


def _write_text_run(flat, start: int, stop: int, out) -> None:
    """Samples [start, stop) of the interleaved floats flat to out, one "re im" line each."""
    tab = _repr_tables()
    for a in range(2 * start, 2 * stop, 2 * _TEXT_BLOCK):
        out.write(_format_floats(flat[a:min(a + 2 * _TEXT_BLOCK, 2 * stop)], tab))


def _save_text(profile: TransverseProfile, data: np.ndarray, path) -> None:
    flat = data.view(float).ravel()
    first, *rest = _text_runs(flat.size // 2)
    write = partial(_write_text_run, flat)
    _repr_tables()  # built before the fork, so no child builds its own
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
    included, and ``np.loadtxt`` parses it.  A vectorised shortest-round-trip
    writer gives ``repr``'s bytes a block of samples at a time, and calls
    ``repr`` itself for the few values its arithmetic cannot decide.
    Binary: little-endian int64 nx, int64 ny, float64 dx, float64 dy, then
    complex128 samples.

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
    below 1 or a spacing that is not finite and > 0, a body of the wrong
    length, a text body that ``np.loadtxt`` cannot parse (its row and
    column kept) or a sample that is not finite raises ValueError naming the
    file; an empty text body warns nothing and fails by its length.

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
                try:
                    with warnings.catch_warnings():
                        # an empty body is refused below, by its shape
                        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                        flat = np.loadtxt(fh, dtype=float, ndmin=2)
                except ValueError as exc:
                    raise ValueError(f"profile {path}: {exc}") from None
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
    try:
        return TransverseProfile(samples=samples, extent=(nx * dx, ny * dy))
    except ValueError as exc:
        raise ValueError(f"profile {path}: {exc}") from None
