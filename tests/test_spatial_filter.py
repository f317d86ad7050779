"""k-space filter shape, thin-slice propagation, and profile IO."""

import os
import signal
import struct
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eia import spatial_filter
from eia.core_model import ModelParams, FieldConfig
from eia.velocity_integrals import (G_1P, g_integral, make_grid, one_photon_response,
                                    pole_average)
from eia.spatial_filter import (
    _TEXT_BLOCK,
    DEFAULT_QP_PHYSICAL,
    FilterParams,
    ParaxialError,
    TransverseProfile,
    apply_filter,
    filter_params_from_model,
    filter_response,
    load_profile,
    save_profile,
)

pytestmark = pytest.mark.usefixtures("no_stray_children")

P0 = ModelParams(gamma_pcc=5.0, gamma_vcc=0.025, gamma_g=0.001)
F0 = FieldConfig(v1=0.0816, v2=0.1, vp=0.001, qp_vth=36.5, dq_vth=0.0,
                 dq_direction="collinear")


def hand_params(gamma_p=0.5 + 0j, eta=0.816, d_hat=1000.0, kern=0.3 + 0.05j):
    return FilterParams(eta=eta, power_broadening=gamma_p, diffusion_D=d_hat,
                        probe_kernel=kern)


class TestFilterResponse:
    def test_zero_k_zero_detuning_hand_value(self):
        # eta = A, b = 1: L(0) = A^2 Gp / (gamma + (1 - A^2) Gp), all real
        fp = hand_params()
        a = P0.branching_A
        want = a**2 * 0.5 / (P0.gamma_g + (1 - a**2) * 0.5)
        got = filter_response(fp, P0, 0.0, 0.0)
        assert isinstance(got, complex)
        assert got.imag == 0.0
        assert got.real == pytest.approx(want, rel=1e-14)

    def test_lorentzian_in_k_squared(self):
        fp = hand_params()
        l0 = filter_response(fp, P0, 0.0, 0.0)
        gamma_eff = P0.gamma_g + (fp.eta**2 + 1 - 2 * P0.branching_A * fp.eta) * 0.5
        k = np.linspace(0.0, 0.1, 40)
        got = filter_response(fp, P0, 0.0, k)
        want = l0 / (1.0 + fp.diffusion_D * k**2 / gamma_eff)
        assert np.allclose(got, want, rtol=1e-13)

    def test_half_decay_point(self):
        fp = hand_params()
        gamma_eff = P0.gamma_g + (fp.eta**2 + 1 - 2 * P0.branching_A * fp.eta) * 0.5
        k_half = np.sqrt(gamma_eff / fp.diffusion_D)
        l0 = filter_response(fp, P0, 0.0, 0.0)
        assert filter_response(fp, P0, 0.0, k_half) == pytest.approx(l0 / 2, rel=1e-12)

    def test_large_k_rolls_off_to_zero(self):
        fp = hand_params()
        assert abs(filter_response(fp, P0, 0.0, 1e6)) < 1e-9

    def test_switch_off_flips_sign(self):
        # b = 0 removes the cross channel: numerator -eta^2 Gp < 0
        pb = ModelParams(gamma_pcc=5.0, gamma_vcc=0.025, gamma_g=0.001, b=0)
        assert filter_response(hand_params(), pb, 0.0, 0.0).real < 0

    def test_array_in_array_out(self):
        k = np.array([0.0, 0.01])
        got = filter_response(hand_params(), P0, 0.0, k)
        assert isinstance(got, np.ndarray) and got.shape == (2,)
        assert k.tolist() == [0.0, 0.01]  # the caller's k is not overwritten

    def test_detuned_response_is_smaller_and_warns(self):
        fp = hand_params()
        gamma_hom = P0.gamma_g + fp.power_broadening.real
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mags = [abs(filter_response(fp, P0, d, 0.0))
                    for d in (0.0, gamma_hom, -gamma_hom, 2 * gamma_hom, -2 * gamma_hom)]
        assert all(mags[0] > m for m in mags[1:])
        with pytest.warns(UserWarning, match="homogeneous width"):
            filter_response(fp, P0, 3 * gamma_hom, 0.0)

    def test_params_validation(self):
        with pytest.raises(ValueError, match="eta"):
            FilterParams(eta=0.0, power_broadening=0.1, diffusion_D=1.0, probe_kernel=0.3j)
        with pytest.raises(ValueError, match="eta"):
            FilterParams(eta=1.2, power_broadening=0.1, diffusion_D=1.0, probe_kernel=0.3j)
        with pytest.raises(ValueError, match="diffusion_D"):
            FilterParams(eta=0.5, power_broadening=0.1, diffusion_D=0.0, probe_kernel=0.3j)


class TestFromModel:
    GRID = make_grid(800, 1)

    def test_reduced_parameters(self):
        fp = filter_params_from_model(P0, F0, self.GRID, rtol=None)
        assert fp.eta == pytest.approx(0.816, rel=1e-14)
        assert fp.diffusion_D == pytest.approx(36.5**2 / 0.025, rel=1e-14)
        assert fp.power_broadening.real > 0
        assert fp.power_broadening == pytest.approx(fp.probe_kernel * abs(F0.v2) ** 2)

    def test_requires_vcc(self):
        p = ModelParams(gamma_pcc=5.0, gamma_vcc=0.0, gamma_g=0.001)
        with pytest.raises(ValueError, match="gamma_vcc > 0"):
            filter_params_from_model(p, F0, self.GRID, rtol=None)

    def test_eta_undefined_without_coupling_pump(self):
        f = FieldConfig(v1=0.05, v2=0.0, vp=0.001, qp_vth=36.5)
        with pytest.raises(ValueError, match="eta undefined"):
            filter_params_from_model(P0, f, self.GRID, rtol=None)

    @pytest.mark.parametrize("v1", [0.2, 0.0])
    def test_pump_ratio_out_of_range_names_the_pumps(self, v1, monkeypatch):
        # refused before the kernel is averaged, by the two settable pumps
        monkeypatch.setattr(spatial_filter, "g_integral", None)
        f = FieldConfig(v1=v1, v2=0.1, vp=0.001, qp_vth=36.5)
        with pytest.raises(ValueError, match=rf"^the pump ratio \|v1/v2\| must be in "
                                             rf"\(0, 1\], got v1 = {v1}, v2 = 0.1$"):
            filter_params_from_model(P0, f, self.GRID, rtol=None)

    @pytest.mark.parametrize("v1", [-0.0816, 0.0816j, 0.0816 * np.exp(0.1j), -0.1])
    def test_pumps_out_of_phase_are_refused_naming_the_pumps(self, v1, monkeypatch):
        # eta = |v1/v2| would pass; the relative phase would be dropped
        monkeypatch.setattr(spatial_filter, "g_integral", None)
        f = FieldConfig(v1=v1, v2=0.1, vp=0.001, qp_vth=36.5)
        with pytest.raises(ValueError) as exc:
            filter_params_from_model(P0, f, self.GRID, rtol=None)
        assert str(exc.value) == ("the pump product v1*conj(v2) must be real and > 0, "
                                  f"got v1 = {v1!r}, v2 = 0.1")

    def test_pumps_in_phase_pass_with_any_common_phase(self):
        phase = np.exp(0.7j)
        f = FieldConfig(v1=0.0816 * phase, v2=0.1 * phase, vp=0.001, qp_vth=36.5)
        fp = filter_params_from_model(P0, f, self.GRID, rtol=None)
        assert fp.eta == pytest.approx(0.816, rel=1e-14)

    @pytest.mark.parametrize("deltap", [0.0, 0.3, -2.0])
    def test_kernel_is_taken_at_the_given_detuning(self, deltap):
        # fig6 rates: K = i<1/xi2> at deltap is one closed-form pole average
        p = ModelParams(gamma_pcc=10.0, gamma_vcc=0.025, gamma_g=0.001)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fp = filter_params_from_model(p, F0, make_grid(4000, 1), deltap=deltap)
        want = 1j * pole_average(deltap, F0.qp_vth, p.gamma_tilde + p.gamma_vcc)
        assert fp.probe_kernel == pytest.approx(want, rel=1e-10)
        gamma_hom = p.gamma_g + fp.power_broadening.real
        warned = sum("single-kernel" in str(w.message) for w in caught)
        assert warned == (abs(deltap) > gamma_hom)

    def test_no_pumps_at_all_is_inert(self):
        f = FieldConfig(v1=0.0, v2=0.0, vp=0.001, qp_vth=36.5)
        fp = filter_params_from_model(P0, f, self.GRID, rtol=None)
        assert fp.eta == 1.0
        assert fp.power_broadening == 0.0
        assert filter_response(fp, P0, 0.0, 0.0) == 0.0


class TestKernels:
    def test_three_transitions_coincide_on_resonance(self):
        # all detunings zero, no mismatch: the three one-photon averages see
        # mirror-image velocity denominators, so they must agree exactly
        grid = make_grid(500, 1)
        k_1p, k_3p, k_pump = (one_photon_response(P0, F0, grid, 0.0, denominator=d, rtol=None)
                              for d in (2, 4, 5))
        assert k_1p == pytest.approx(k_3p, rel=1e-12)
        assert k_1p == pytest.approx(k_pump, rel=1e-12)

    def test_no_vcc_reduces_to_bare_average(self):
        p = ModelParams(gamma_pcc=5.0, gamma_vcc=0.0, gamma_g=0.001)
        grid = make_grid(500, 1)
        k_1p = one_photon_response(p, F0, grid, 0.0, denominator=2, rtol=None)
        assert k_1p == pytest.approx(1j * g_integral(G_1P, p, F0, grid, 0.0, rtol=None),
                                     rel=1e-12)

    def test_detuned_configuration_warns(self):
        with pytest.warns(UserWarning, match="single-kernel"):
            filter_params_from_model(P0, F0, make_grid(200, 1), deltap=5.0, rtol=None)


def gaussian_profile(n=64, extent=0.01, waist=0.002):
    x = (np.arange(n) - n / 2) * (extent / n)
    r2 = x[:, None] ** 2 + x[None, :] ** 2
    return TransverseProfile(samples=np.exp(-r2 / waist**2).astype(complex),
                             extent=(extent, extent))


def reference_transfer(profile, fp, params, deltap, slice_length,
                       optical_depth_scale=1.0, qp_physical=DEFAULT_QP_PHYSICAL,
                       force_unitary=False):
    """The thin-slice transfer and its paraxial message, one expression per step."""
    a_hat = np.fft.fft2(profile.samples)
    kx = 2.0 * np.pi * np.fft.fftfreq(profile.nx, d=profile.dx)
    ky = 2.0 * np.pi * np.fft.fftfreq(profile.ny, d=profile.dy)
    kmag = np.sqrt(ky[:, None] ** 2 + kx[None, :] ** 2)
    populated = np.abs(a_hat) > 1e-12 * np.abs(a_hat).max(initial=0.0)
    if np.any(kmag[populated] > 0.1 * qp_physical):
        worst = kmag[populated].max()
        return (f"populated spatial frequency {worst:.3e} 1/m exceeds 0.1*q_p = "
                f"{0.1 * qp_physical:.3e} 1/m")
    ba = params.b * params.branching_A
    eta = fp.eta
    k = kmag / qp_physical
    ell = eta * (2.0 * ba - eta) * fp.power_broadening / (
        -1j * deltap + params.gamma_g
        + (eta**2 + 1.0 - 2.0 * ba * eta) * fp.power_broadening
        + fp.diffusion_D * k**2)
    chi = optical_depth_scale * 1j * fp.probe_kernel * (1.0 + ell)
    if force_unitary:
        chi = chi.real
    transfer = np.exp(1j * (chi - kmag**2 / (2.0 * qp_physical)) * slice_length)
    return np.fft.ifft2(a_hat * transfer)


class TestApplyFilter:
    FP = hand_params()

    @pytest.mark.parametrize("force_unitary", [False, True])
    @pytest.mark.parametrize("deltap, ods", [(0.0, 1.0), (0.3, 2.5), (-0.2, -0.7)])
    @pytest.mark.parametrize("n_y, n_x", [(128, 136), (40, 48)])
    def test_bit_for_bit_with_the_written_out_transfer(self, force_unitary, deltap, ods,
                                                       n_y, n_x, rng):
        """Bit for bit from 16384 samples (256 KiB) up.

        From that size numpy reuses the temporaries of reference_transfer's
        `s * (1 + ell)` and `1j * (...)`, so both products run as the
        in-place array * scalar that apply_filter uses.  Below it they run as
        scalar * array, which rounds complex products differently in the
        last bit.
        """
        x = (np.arange(n_x) - n_x / 2) * (0.01 / n_x)
        y = (np.arange(n_y) - n_y / 2) * (0.012 / n_y)
        env = np.exp(-(y[:, None] ** 2 + x[None, :] ** 2) / 0.002**2)
        noise = rng.normal(size=(n_y, n_x)) + 1j * rng.normal(size=(n_y, n_x))
        prof = TransverseProfile(samples=env * (1.0 + 0.3 * noise), extent=(0.01, 0.012))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = apply_filter(prof, self.FP, P0, deltap, 0.07, optical_depth_scale=ods,
                               force_unitary=force_unitary)
            want = reference_transfer(prof, self.FP, P0, deltap, 0.07, optical_depth_scale=ods,
                                      force_unitary=force_unitary)
        if n_y * n_x >= 16384:
            assert got.samples.tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(got.samples, want, rtol=0, atol=1e-15 * np.abs(want).max())

    def test_paraxial_message_names_the_worst_populated_frequency(self, rng):
        prof = TransverseProfile(samples=rng.normal(size=(8, 6)) + 0j, extent=(8e-6, 9e-6))
        want = reference_transfer(prof, self.FP, P0, 0.0, 0.1)
        assert isinstance(want, str)
        with pytest.raises(ParaxialError) as exc:
            apply_filter(prof, self.FP, P0, 0.0, 0.1)
        assert str(exc.value) == want

    def test_scalar_response_is_a_python_complex_of_the_written_out_formula(self):
        fp, k = self.FP, 0.013
        ba = P0.b * P0.branching_A
        want = fp.eta * (2.0 * ba - fp.eta) * fp.power_broadening / (
            -1j * 0.0 + P0.gamma_g + (fp.eta**2 + 1.0 - 2.0 * ba * fp.eta) * fp.power_broadening
            + fp.diffusion_D * np.asarray(k) ** 2)
        got = filter_response(fp, P0, 0.0, k)
        assert type(got) is complex
        assert (got.real, got.imag) == (want.real, want.imag)

    def test_peak_memory_of_one_slice(self):
        prof = gaussian_profile(n=256, extent=0.02)
        apply_filter(prof, self.FP, P0, 0.0, 0.1)  # first-call allocations outside the count
        tracemalloc.start()
        try:
            apply_filter(prof, self.FP, P0, 0.0, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * prof.samples.nbytes

    def test_uniform_profile_attenuates_by_the_dc_response(self):
        prof = TransverseProfile(samples=np.full((8, 8), 2.0 + 0.0j),
                                 extent=(0.01, 0.01))
        ods, dz = 2.0, 0.05
        out = apply_filter(prof, self.FP, P0, 0.0, dz, optical_depth_scale=ods)
        l0 = filter_response(self.FP, P0, 0.0, 0.0)
        chi0 = ods * 1j * self.FP.probe_kernel * (1.0 + l0)
        want = prof.power() * np.exp(-2.0 * chi0.imag * dz)
        assert out.power() == pytest.approx(want, rel=1e-12)
        # uniform in, uniform out
        assert np.allclose(out.samples, out.samples[0, 0], rtol=1e-12, atol=0)

    def test_force_unitary_conserves_power(self):
        prof = gaussian_profile()
        out = apply_filter(prof, self.FP, P0, 0.0, 0.1, force_unitary=True)
        assert out.power() == pytest.approx(prof.power(), rel=1e-12)

    def test_absorbing_slice_loses_power(self):
        prof = gaussian_profile()
        out = apply_filter(prof, self.FP, P0, 0.0, 0.1)
        assert out.power() < prof.power()

    def test_linear_in_the_field(self):
        prof = gaussian_profile(n=32)
        doubled = TransverseProfile(samples=2.0 * prof.samples, extent=prof.extent)
        a = apply_filter(prof, self.FP, P0, 0.0, 0.1)
        b = apply_filter(doubled, self.FP, P0, 0.0, 0.1)
        assert np.allclose(b.samples, 2.0 * a.samples, rtol=1e-12)

    def test_paraxial_bound_enforced(self):
        tile = np.array([[1.0, -1.0], [-1.0, 1.0]])
        prof = TransverseProfile(samples=np.tile(tile, (4, 4)).astype(complex),
                                 extent=(8e-6, 8e-6))  # Nyquist ~ 3e6 1/m
        with pytest.raises(ParaxialError, match="exceeds"):
            apply_filter(prof, self.FP, P0, 0.0, 0.1)

    @pytest.mark.parametrize("name, bad", [
        ("deltap", np.nan), ("slice_length", np.inf), ("optical_depth_scale", -np.inf),
        ("qp_physical", np.nan), ("qp_physical", 0.0), ("qp_physical", -1.0),
    ])
    def test_bad_arguments_are_named(self, name, bad):
        args = dict(deltap=0.0, slice_length=0.1, optical_depth_scale=1.0,
                    qp_physical=DEFAULT_QP_PHYSICAL)
        args[name] = bad
        with pytest.raises(ValueError, match=f"^{name} must be"):
            apply_filter(gaussian_profile(), self.FP, P0, **args)


# subnormals, signed zeros, the ends of the float range and short reprs
SPECIAL = [5e-324, -2.2250738585072014e-308 / 3, 0.0, -0.0, 1e300, -1e300, 3.0, 0.1]


class TestProfileIO:
    def test_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            TransverseProfile(samples=np.ones(4, complex), extent=(1.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            TransverseProfile(samples=np.array([[np.inf, 0], [0, 0]], complex),
                              extent=(1.0, 1.0))
        with pytest.raises(ValueError, match="extent"):
            TransverseProfile(samples=np.ones((2, 2), complex), extent=(1.0, 0.0))
        for shape in ((0, 4), (4, 0)):  # power() divided by the empty axis's size
            with pytest.raises(ValueError, match="^samples must .* nonempty"):
                TransverseProfile(samples=np.ones(shape, complex), extent=(1.0, 1.0))

    def test_power_of_known_profile(self):
        prof = TransverseProfile(samples=np.full((4, 5), 3.0j), extent=(1.0, 2.0))
        assert prof.power() == pytest.approx(9.0 * 1.0 * 2.0)

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    def test_roundtrip_nonsquare(self, fmt, tmp_path, rng):
        samples = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        prof = TransverseProfile(samples=samples, extent=(0.5, 0.12))
        path = tmp_path / f"prof.{fmt}"
        save_profile(prof, path, fmt=fmt)
        back = load_profile(path, fmt=fmt)
        np.testing.assert_array_equal(back.samples, samples)
        assert back.extent[0] == pytest.approx(0.5, rel=1e-15)
        assert back.extent[1] == pytest.approx(0.12, rel=1e-15)

    def test_text_keeps_signed_zeros(self, tmp_path):
        path = tmp_path / "zeros.txt"
        path.write_text("2 1 0.5 0.5\n-0.0 1.0\n2.0 -0.0\n")
        s = load_profile(path, fmt="text").samples
        assert s.shape == (1, 2)
        assert np.signbit(s.real).tolist() == [[True, False]]
        assert np.signbit(s.imag).tolist() == [[False, True]]

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    def test_roundtrip_is_sign_exact(self, fmt, tmp_path):
        samples = np.array([[complex(-0.0, 1.0), complex(2.0, -0.0), complex(-0.0, -0.0)],
                            [complex(0.0, -5e-324), complex(-1e300, 3.0), 0.1 - 0.2j]])
        path = tmp_path / f"zeros.{fmt}"
        save_profile(TransverseProfile(samples=samples, extent=(3.0, 2.0)), path, fmt=fmt)
        assert load_profile(path, fmt=fmt).samples.tobytes() == samples.tobytes()

    @staticmethod
    def per_sample_text(profile):
        """The text form written one f-string per sample."""
        data = np.ascontiguousarray(profile.samples, dtype=complex)
        lines = [f"{profile.nx} {profile.ny} {float(profile.dx)!r} {float(profile.dy)!r}\n"]
        for val in data.ravel(order="C"):
            lines.append(f"{float(val.real)!r} {float(val.imag)!r}\n")
        return "".join(lines).encode()

    @pytest.mark.parametrize("shape", [
        (1, 1), (3, 5), (1, _TEXT_BLOCK - 1), (64, _TEXT_BLOCK // 64),
        (_TEXT_BLOCK + 1, 1), (5, (2 * _TEXT_BLOCK + 3) // 5 + 1)])
    def test_text_bytes_match_the_per_sample_writer(self, shape, tmp_path, rng):
        samples = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        flat = samples.view(float).reshape(-1)
        flat[:len(SPECIAL)] = SPECIAL[:flat.size]
        flat[-len(SPECIAL):] = SPECIAL[::-1][-flat.size:]
        prof = TransverseProfile(samples=samples, extent=(0.3, 7e-3))
        path = tmp_path / "golden.txt"
        save_profile(prof, path, fmt="text")
        assert path.read_bytes() == self.per_sample_text(prof)

    def test_bad_format_rejected(self, tmp_path):
        prof = TransverseProfile(samples=np.ones((2, 2), complex), extent=(1.0, 1.0))
        with pytest.raises(ValueError, match="fmt"):
            save_profile(prof, tmp_path / "x", fmt="npz")
        with pytest.raises(ValueError, match="fmt"):
            load_profile(tmp_path / "x", fmt="npz")

    def test_truncated_text_body_rejected(self, tmp_path):
        path = tmp_path / "trunc.txt"
        path.write_text("2 2 0.1 0.1\n1.0 0.0\n2.0 0.0\n3.0 0.0\n")
        with pytest.raises(ValueError, match="body"):
            load_profile(path, fmt="text")

    def test_short_binary_body_names_the_file(self, tmp_path):
        path = tmp_path / "short.bin"
        save_profile(TransverseProfile(samples=np.ones((4, 4), complex), extent=(1.0, 1.0)),
                     path, fmt="binary")
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ValueError, match="body has 240 bytes, expected 256") as exc:
            load_profile(path, fmt="binary")
        assert str(path) in str(exc.value)

    def test_binary_file_shorter_than_its_header_names_the_file(self, tmp_path):
        path = tmp_path / "stub.bin"
        path.write_bytes(b"0123456789")
        with pytest.raises(ValueError, match="file has 10 bytes") as exc:
            load_profile(path, fmt="binary")
        assert str(path) in str(exc.value)

    def test_text_header_field_count_names_the_file(self, tmp_path):
        path = tmp_path / "head.txt"
        path.write_text("4 4 0.1\n" + "1.0 0.0\n" * 16)
        with pytest.raises(ValueError, match="header has 3 fields, not 4") as exc:
            load_profile(path, fmt="text")
        assert str(path) in str(exc.value)

    def test_binary_header_with_negative_sizes_names_the_file(self, tmp_path):
        # -2 x -2 passes the body-size check (16 * 4 bytes) on its own
        path = tmp_path / "neg.bin"
        save_profile(TransverseProfile(samples=np.ones((2, 2), complex), extent=(1.0, 1.0)),
                     path, fmt="binary")
        raw = path.read_bytes()
        path.write_bytes(struct.pack("<qq", -2, -2) + raw[16:])
        with pytest.raises(ValueError, match="header gives -2x-2 samples") as exc:
            load_profile(path, fmt="binary")
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_text_header_non_finite_spacing_names_the_file(self, bad, tmp_path):
        path = tmp_path / "head.txt"
        path.write_text(f"2 2 {bad} 1e-5\n" + "1.0 0.0\n" * 4)
        with pytest.raises(ValueError, match="spacings .* must be finite and > 0") as exc:
            load_profile(path, fmt="text")
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_binary_header_non_finite_spacing_names_the_file(self, bad, tmp_path):
        path = tmp_path / "head.bin"
        save_profile(TransverseProfile(samples=np.ones((2, 2), complex), extent=(1.0, 1.0)),
                     path, fmt="binary")
        raw = path.read_bytes()
        path.write_bytes(raw[:24] + struct.pack("<d", bad) + raw[32:])
        with pytest.raises(ValueError, match="spacings .* must be finite and > 0") as exc:
            load_profile(path, fmt="binary")
        assert str(path) in str(exc.value)

    def test_profile_extent_must_be_finite(self):
        for extent in ((np.inf, 1.0), (1.0, np.nan)):
            with pytest.raises(ValueError, match="extent must be finite"):
                TransverseProfile(samples=np.ones((2, 2), complex), extent=extent)

    def test_text_header_non_integer_size_names_the_file(self, tmp_path):
        path = tmp_path / "head.txt"
        path.write_text("2 x 0.1 0.1\n" + "1.0 0.0\n" * 4)
        with pytest.raises(ValueError, match="header '2 x 0.1 0.1' is not two integers") as exc:
            load_profile(path, fmt="text")
        assert str(path) in str(exc.value)

    def test_text_body_token_names_the_file(self, tmp_path):
        path = tmp_path / "body.txt"
        path.write_text("2 1 0.1 0.1\n1.0 0.0\n1.0 x\n")
        with pytest.raises(ValueError) as exc:
            load_profile(path, fmt="text")
        assert str(exc.value) == (f"profile {path}: could not convert string 'x' to "
                                  "float64 at row 1, column 2.")

    def test_empty_text_body_names_the_file_without_a_warning(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("2 2 0.1 0.1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"body has shape \(0, 1\), expected \(4, 2\)") \
                    as exc:
                load_profile(path, fmt="text")
        assert str(exc.value).startswith(f"profile {path}: ")

    @pytest.mark.parametrize("bad", ["nan", "1e999", "-inf"])
    def test_non_finite_sample_names_the_file_and_the_sample(self, bad, tmp_path):
        path = tmp_path / "nonfinite.txt"
        path.write_text(f"2 2 0.1 0.1\n1.0 0.0\n0.0 0.0\n0.0 {bad}\n{bad} 0.0\n")
        with pytest.raises(ValueError, match=r"samples must be finite, got .* at \[1, 0\]$") \
                as exc:
            load_profile(path, fmt="text")
        assert str(exc.value).startswith(f"profile {path}: ")

    def test_non_finite_binary_sample_names_the_file_and_the_sample(self, tmp_path):
        path = tmp_path / "nonfinite.bin"
        save_profile(TransverseProfile(samples=np.ones((2, 3), complex), extent=(1.0, 1.0)),
                     path, fmt="binary")
        raw = bytearray(path.read_bytes())
        raw[32 + 16 * 5 + 8:32 + 16 * 6] = struct.pack("<d", np.nan)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=r"got \(1\+nanj\) at \[1, 2\]$") as exc:
            load_profile(path, fmt="binary")
        assert str(exc.value).startswith(f"profile {path}: ")

    def test_profile_names_its_first_non_finite_sample(self):
        s = np.zeros((3, 4), complex)
        s[2, 0], s[1, 3] = np.inf, complex(0.0, np.nan)
        with pytest.raises(ValueError, match=r"^samples must be finite, got nanj at \[1, 3\]$"):
            TransverseProfile(samples=s, extent=(1.0, 1.0))


class TestSplitTextCodec:
    """Text bodies split into runs across forked workers read and write as one."""

    @pytest.fixture
    def split(self, monkeypatch):
        """split(cpus): runs of 600 samples and up, over `cpus` CPUs."""
        def use(cpus):
            monkeypatch.setattr(spatial_filter, "_RUN_MIN", 600)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        return use

    @staticmethod
    def profile_with_specials_at_run_edges(shape, rng):
        samples = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        flat = samples.view(float).reshape(-1)
        for start, _ in spatial_filter._text_runs(samples.size):
            # the floats of the two samples either side of each run edge
            at = max(0, 2 * start - 4)
            flat[at:at + len(SPECIAL)] = SPECIAL[:flat.size - at]
        flat[-len(SPECIAL):] = SPECIAL[::-1]
        return TransverseProfile(samples=samples, extent=(0.3, 7e-3))

    @staticmethod
    def spy_on_parent(monkeypatch, module, name, fail_in_children=False):
        """Record the calls this process makes to module.name; children may be made to fail."""
        parent, calls, real = os.getpid(), [], getattr(module, name)

        def spy(*args, **kwargs):
            if os.getpid() == parent:
                calls.append(args)
            elif fail_in_children:
                raise OSError("worker failure")
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, spy)
        return calls

    @pytest.mark.parametrize("cpus, shape, runs", [
        (2, (2, 700), 2), (3, (37, 50), 3), (4, (129, 131), 4), (8, (1, 1799), 2)])
    def test_bytes_match_the_per_sample_writer(self, cpus, shape, runs, split, tmp_path, rng):
        split(cpus)
        assert len(spatial_filter._text_runs(shape[0] * shape[1])) == runs
        prof = self.profile_with_specials_at_run_edges(shape, rng)
        path = tmp_path / "split.txt"
        save_profile(prof, path, fmt="text")
        assert path.read_bytes() == TestProfileIO.per_sample_text(prof)

    @pytest.mark.parametrize("cpus", [2, 4])
    def test_roundtrip_across_runs_is_sign_exact(self, cpus, split, tmp_path, rng):
        split(cpus)
        prof = self.profile_with_specials_at_run_edges((129, 131), rng)
        path = tmp_path / "split.txt"
        save_profile(prof, path, fmt="text")
        assert load_profile(path, fmt="text").samples.tobytes() == prof.samples.tobytes()

    def test_valid_file_takes_the_split_path(self, split, tmp_path, rng, monkeypatch):
        split(3)
        prof = self.profile_with_specials_at_run_edges((129, 131), rng)
        path = tmp_path / "split.txt"
        save_profile(prof, path, fmt="text")
        forks = self.spy_on_parent(monkeypatch, os, "fork")
        parses = self.spy_on_parent(monkeypatch, np, "loadtxt")
        assert load_profile(path, fmt="text").samples.tobytes() == prof.samples.tobytes()
        # two children parse the first two runs; this process parses the last
        # one and never the whole body
        assert len(forks) == 2 and len(parses) == 1

    def test_crlf_file_reads_as_its_lf_twin(self, split, tmp_path, rng, monkeypatch):
        split(2)
        prof = self.profile_with_specials_at_run_edges((2, 700), rng)
        lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
        save_profile(prof, lf, fmt="text")
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        forks = self.spy_on_parent(monkeypatch, os, "fork")
        back = load_profile(crlf, fmt="text")
        assert len(forks) == 1  # two runs, the first in a child
        assert back.samples.tobytes() == load_profile(lf, fmt="text").samples.tobytes()
        assert back.samples.tobytes() == prof.samples.tobytes()

    def test_failed_children_leave_the_serial_bytes(self, split, tmp_path, rng, monkeypatch):
        split(4)
        prof = self.profile_with_specials_at_run_edges((129, 131), rng)
        path = tmp_path / "split.txt"
        writes = self.spy_on_parent(monkeypatch, spatial_filter, "_write_text_run",
                                    fail_in_children=True)
        save_profile(prof, path, fmt="text")
        assert path.read_bytes() == TestProfileIO.per_sample_text(prof)
        assert len(writes) == 4  # the first run, then each failed child's run

    def test_failed_fork_leaves_the_serial_bytes(self, split, tmp_path, rng, monkeypatch):
        split(4)
        prof = self.profile_with_specials_at_run_edges((129, 131), rng)
        path = tmp_path / "split.txt"

        def no_fork():
            raise OSError("fork refused")
        monkeypatch.setattr(os, "fork", no_fork)
        save_profile(prof, path, fmt="text")
        assert path.read_bytes() == TestProfileIO.per_sample_text(prof)
        assert load_profile(path, fmt="text").samples.tobytes() == prof.samples.tobytes()

    def test_failed_children_fall_back_to_one_parse(self, split, tmp_path, rng, monkeypatch):
        split(4)
        prof = self.profile_with_specials_at_run_edges((129, 131), rng)
        path = tmp_path / "split.txt"
        save_profile(prof, path, fmt="text")
        parses = self.spy_on_parent(monkeypatch, np, "loadtxt", fail_in_children=True)
        assert load_profile(path, fmt="text").samples.tobytes() == prof.samples.tobytes()
        assert len(parses) == 2  # the last run, then the whole body

    @staticmethod
    def serial_error(path, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(spatial_filter, "_RUN_MIN", 10**9)
            with pytest.raises(ValueError) as exc:
                load_profile(path, fmt="text")
        return str(exc.value)

    @pytest.mark.parametrize("row", [5, 16890])  # a child's run, this process's run
    def test_bad_token_reads_as_unsplit(self, row, split, tmp_path, rng, monkeypatch):
        split(3)
        prof = self.profile_with_specials_at_run_edges((129, 131), rng)
        path = tmp_path / "bad.txt"
        save_profile(prof, path, fmt="text")
        lines = path.read_text().split("\n")
        lines[1 + row] = "abc " + lines[1 + row].split()[1]
        path.write_text("\n".join(lines))
        want = self.serial_error(path, monkeypatch)
        assert f"could not convert string 'abc' to float64 at row {row}, column 1" in want
        with pytest.raises(ValueError) as exc:
            load_profile(path, fmt="text")
        assert str(exc.value) == want

    @pytest.mark.parametrize("cut", [1, 4000])
    def test_short_body_reads_as_unsplit(self, cut, split, tmp_path, rng, monkeypatch):
        split(3)
        prof = self.profile_with_specials_at_run_edges((129, 131), rng)
        path = tmp_path / "short.txt"
        save_profile(prof, path, fmt="text")
        lines = path.read_text().split("\n")
        path.write_text("\n".join(lines[:-1 - cut]) + "\n")
        want = self.serial_error(path, monkeypatch)
        assert f"body has shape ({129 * 131 - cut}, 2)" in want
        with pytest.raises(ValueError) as exc:
            load_profile(path, fmt="text")
        assert str(exc.value) == want

    def test_one_run_without_fork(self, split, monkeypatch):
        split(4)
        assert len(spatial_filter._text_runs(10**6)) == 4
        monkeypatch.delattr(os, "fork")
        assert spatial_filter._text_runs(10**6) == [(0, 10**6)]

    def test_ignored_sigchld_leaves_the_serial_result(self, split, tmp_path, rng):
        # with SIGCHLD ignored children reap themselves, so no exit status
        # comes back; every run falls back to this process
        split(3)
        prof = self.profile_with_specials_at_run_edges((129, 131), rng)
        path = tmp_path / "split.txt"
        old = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            save_profile(prof, path, fmt="text")
            back = load_profile(path, fmt="text")
        finally:
            signal.signal(signal.SIGCHLD, old)
        assert path.read_bytes() == TestProfileIO.per_sample_text(prof)
        assert back.samples.tobytes() == prof.samples.tobytes()

    def test_header_beyond_the_body_reads_as_unsplit(self, split, tmp_path, monkeypatch):
        # nx*ny rows could not fit in the body, so none are allocated for it
        split(2)
        path = tmp_path / "huge.txt"
        path.write_text("200000 200000 0.1 0.1\n1.0 2.0\n3.0 4.0\n5.0 6.0\n")
        want = self.serial_error(path, monkeypatch)
        assert want.endswith("body has shape (3, 2), expected (40000000000, 2)")
        with pytest.raises(ValueError) as exc:
            load_profile(path, fmt="text")
        assert str(exc.value) == want

    @pytest.mark.parametrize("end", ["", "\n"])
    def test_shortest_rows_take_the_split_path(self, end, split, tmp_path, monkeypatch):
        # "0 0\n" per row and "0 0" last: the fewest bytes nx*ny rows can take
        split(2)
        path = tmp_path / "zeros.txt"
        path.write_text("40 30 0.1 0.1\n" + "\n".join(["0 0"] * 1200) + end)
        forks = self.spy_on_parent(monkeypatch, os, "fork")
        back = load_profile(path, fmt="text")
        assert len(forks) == 1
        assert back.samples.shape == (30, 40) and not back.samples.any()

    def test_caller_failure_during_a_split_save_is_raised(self, split, tmp_path, rng,
                                                           monkeypatch):
        # the children are still formatting when this process fails; they
        # are killed, so none gets as far as leaving a mark
        split(4)
        prof = self.profile_with_specials_at_run_edges((129, 131), rng)
        parent, real = os.getpid(), spatial_filter._write_text_run

        def fail_here(*args):
            if os.getpid() == parent:
                raise OSError("caller failure")
            time.sleep(5.0)
            (tmp_path / f"child-{os.getpid()}").touch()
            return real(*args)
        monkeypatch.setattr(spatial_filter, "_write_text_run", fail_here)
        with pytest.raises(OSError, match="caller failure"):
            save_profile(prof, tmp_path / "split.txt", fmt="text")
        assert list(tmp_path.glob("child-*")) == []

    def test_small_last_block_of_a_child_run_arrives(self, split, tmp_path, rng):
        # the child's run ends in 50 samples, fewer bytes than a file buffer
        split(2)
        prof = self.profile_with_specials_at_run_edges((2, _TEXT_BLOCK + 50), rng)
        path = tmp_path / "split.txt"
        save_profile(prof, path, fmt="text")
        assert path.read_bytes() == TestProfileIO.per_sample_text(prof)


def repr_lines(values):
    """The text body written one repr at a time: "re im" per pair of floats."""
    v = [float(x) for x in np.asarray(values, dtype=float).ravel()]
    return "".join(f"{a!r} {b!r}\n" for a, b in zip(v[::2], v[1::2])).encode()


def kernel_lines(values):
    """The same body from the block writer's kernel, a block at a time."""
    x, step = np.array(values, dtype=float).ravel(), 2 * _TEXT_BLOCK
    tables = spatial_filter._repr_tables()
    return b"".join(spatial_filter._format_floats(x[a:a + step], tables)
                    for a in range(0, x.size, step))


def pairs(values):
    """values as a flat float array of even length."""
    x = np.asarray(values, dtype=float).ravel()
    return np.append(x, 0.0) if x.size % 2 else x


def ulp_steps(x, steps=(-2, -1, 0, 1, 2)):
    """x and its neighbours `steps` doubles away, for each x."""
    x = np.asarray(x, dtype=float)
    out = []
    for k in steps:
        y = x.copy()
        for _ in range(abs(k)):
            y = np.nextafter(y, np.copysign(np.inf, k))
        out.append(y)
    return np.concatenate(out)


def count_repr_calls(monkeypatch):
    """Calls of repr made by the kernel from here on."""
    calls = []

    def spy(v):
        calls.append(v)
        return repr(v)
    monkeypatch.setattr(spatial_filter, "repr", spy, raising=False)
    return calls


class TestReprKernel:
    """The block writer's text is repr's, byte for byte."""

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_powers_of_two_and_ten_within_two_ulps(self, sign):
        p2 = np.ldexp(1.0, np.arange(-931, 931))  # 2**-931 ~ 2e-280, 2**930 ~ 1e280
        p10 = np.array([float(f"1e{k}") for k in range(-280, 281)])
        x = pairs(sign * ulp_steps(np.concatenate([p2, p10])))
        assert kernel_lines(x) == repr_lines(x)

    def test_zeros_specials_and_the_ends_of_the_range(self):
        big = np.finfo(float).max
        x = pairs([0.0, -0.0, *SPECIAL, 5e-324, -5e-324, big, -big, np.inf, -np.inf, np.nan,
                   2.2250738585072014e-308, 1e-280, 1e280, 9.999999999999999e-281,
                   1.0000000000000001e280, 9.999999999999999e-09, 1e20])
        assert kernel_lines(x) == repr_lines(x)

    def test_integers_near_2_to_the_53_and_half_integers(self, rng):
        near = 2.0 ** 53 + np.arange(-3000, 3000)
        wide = np.concatenate([2.0 ** 54 + 4 * np.arange(-3000, 3000),
                               2.0 ** 56 + 16 * np.arange(-3000, 3000)])
        halves = np.floor(10.0 ** rng.uniform(14, 16, 20000)) + 0.5
        x = pairs(np.concatenate([near, wide, halves]))
        assert kernel_lines(x) == repr_lines(x)

    @pytest.mark.parametrize("edge", [1e-5, 1e-4, 1e16])
    def test_notation_boundaries(self, edge):
        x = pairs(ulp_steps([edge, -edge], steps=range(-40, 41)))
        assert kernel_lines(x) == repr_lines(x)

    def test_random_bit_patterns(self, rng):
        x = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(float)
        assert kernel_lines(x) == repr_lines(x)

    def test_exact_decimal_ties_take_the_even_digit(self, rng):
        # 17 digits at 1 + odd/2**17 and 16 digits at 8 + odd/2**16 are
        # exactly halfway between two neighbours that both round-trip
        ties = np.concatenate([1 + (2 * rng.integers(0, 2**16, 4000) + 1) / 2.0 ** 17,
                               8 + (2 * rng.integers(0, 2**15, 4000) + 1) / 2.0 ** 16])
        x = pairs(np.concatenate([ties, -ties]))
        assert kernel_lines(x) == repr_lines(x)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_any_floats(self, values):
        x = pairs(values)
        assert kernel_lines(x) == repr_lines(x)

    @pytest.mark.parametrize("kind", ["zeros", "powers of two", "ties"])
    def test_whole_blocks_stay_vectorised(self, kind, rng, monkeypatch):
        # a real-valued, top-hat or dyadic profile costs no repr calls
        n = 2 * _TEXT_BLOCK
        x = {"zeros": np.where(rng.random(n) < 0.5, 0.0, -0.0),
             "powers of two": np.ldexp(rng.choice([-1.0, 1.0], n), rng.integers(-900, 900, n)),
             "ties": 1 + (2 * rng.integers(0, 2**16, n) + 1) / 2.0 ** 17}[kind]
        want = repr_lines(x)
        calls = count_repr_calls(monkeypatch)
        assert kernel_lines(x) == want
        assert calls == []

    def test_undecidable_values_go_to_repr_in_one_batch(self, monkeypatch):
        x = np.array([0.1, 5e-324, 1e-300, 2.5, 1e300, -np.finfo(float).max])
        want = repr_lines(x)
        calls = count_repr_calls(monkeypatch)
        assert kernel_lines(x) == want
        assert calls == [5e-324, 1e-300, 1e300, -np.finfo(float).max]

    @pytest.mark.parametrize("kind", ["zeros", "powers of two", "ties"])
    def test_profile_of_one_kind_matches_the_per_sample_writer(self, kind, tmp_path, rng):
        shape = (3, _TEXT_BLOCK)
        samples = {
            "zeros": np.zeros(shape, complex) * rng.choice([1, -1], shape),
            "powers of two": np.ldexp(1.0, rng.integers(-60, 60, shape))
            + 1j * np.ldexp(-1.0, rng.integers(-60, 60, shape)),
            "ties": (1 + (2 * rng.integers(0, 2**16, shape) + 1) / 2.0 ** 17)
            + 1j * (8 + (2 * rng.integers(0, 2**15, shape) + 1) / 2.0 ** 16)}[kind]
        prof = TransverseProfile(samples=samples, extent=(0.3, 7e-3))
        path = tmp_path / "kind.txt"
        save_profile(prof, path, fmt="text")
        assert path.read_bytes() == TestProfileIO.per_sample_text(prof)

    def test_tables_are_built_on_first_use(self):
        import subprocess
        import sys
        code = ("import eia, eia.cli_runner; from eia import spatial_filter as s; "
                "print(s._repr_tables.cache_info().currsize)")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True)
        assert out.stdout.strip() == "0"

    @pytest.mark.slow
    def test_ten_million_values(self):
        rng = np.random.default_rng(7)
        for _ in range(40):  # 40 x 250_000 values
            bits = rng.integers(0, 2**64, 125_000, dtype=np.uint64)
            # exponents of the vectorised range, and the full range
            fast = (bits & ~np.uint64(0x7FF << 52)) | (
                rng.integers(1023 - 931, 1023 + 931, bits.size).astype(np.uint64) << np.uint64(52))
            x = np.concatenate([fast.view(float), rng.normal(size=62_500),
                                rng.integers(0, 2**64, 62_500, dtype=np.uint64).view(float)])
            want = "\n".join(map(repr, x.tolist())) + "\n"
            assert kernel_lines(x).replace(b" ", b"\n") == want.encode()
