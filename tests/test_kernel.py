"""Kernel profile, polyharmonic flow, and decay-fit tests."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma

from polyheat import kernel as kernel_module
from polyheat.gridfield import (
    DecayAssertionError,
    Field,
    _spectrum,
    bump,
    coordinates,
    integrate,
    irfft,
    l2_norm,
    make_grid,
    rfft,
)
from polyheat.kernel import (
    KernelProfile,
    QuadratureSpec,
    decay_fit,
    phe_solve,
    profile_bessel,
    profile_fourier,
    profile_quadrature,
    radial_integral,
    read_profile_csv,
    sign_change_count,
    with_decay_fit,
    write_profile_csv,
)
from polyheat.solver import eventual_positivity


@pytest.fixture(scope="module")
def profile_m2():
    return profile_bessel(2, 1, np.linspace(0.0, 36.0, 1801))


@pytest.fixture(scope="module")
def grid24():
    return make_grid(1, 24.0, 256)


class TestProfileBessel:
    def test_m1_is_gaussian(self):
        p = profile_bessel(1, 1, np.linspace(0.0, 10.0, 101))
        gauss = (4.0 * np.pi) ** -0.5 * np.exp(-p.radii**2 / 4.0)
        assert np.max(np.abs(p.values - gauss)) <= 1e-8

    def test_m1_point_values(self):
        p = profile_bessel(1, 1, np.array([0.0, 2.0]))
        assert p.values[0] == pytest.approx(0.2820948, abs=1e-7)
        assert p.values[1] == pytest.approx((4.0 * np.pi) ** -0.5 * np.exp(-1.0), abs=1e-10)

    def test_m2_origin_against_adaptive_quadrature(self, profile_m2):
        # independent oracle: adaptive quadrature of (1/pi) e^(-s^4), which
        # also equals Gamma(5/4)/pi
        oracle, err = quad(lambda s: np.exp(-(s**4)) / np.pi, 0.0, np.inf)
        assert err < 1e-8
        assert oracle == pytest.approx(gamma(1.25) / np.pi, abs=1e-13)
        assert profile_m2.values[0] == pytest.approx(oracle, abs=1e-10)

    def test_m2_changes_sign(self, profile_m2):
        inside = profile_m2.values[profile_m2.radii < 10.0]
        assert np.min(inside) < 0.0
        assert sign_change_count(profile_m2) >= 1

    def test_normalization(self, profile_m2):
        assert np.min(np.abs(profile_m2.values[-5:])) < 1e-12
        assert radial_integral(profile_m2) == pytest.approx(1.0, abs=1e-6)

    def test_rejects_bad_radii(self, tmp_path):
        with pytest.raises(ValueError):
            KernelProfile(2, 1, np.array([1.0, 0.5]), np.zeros(2), profile_quadrature(2, 1))
        # a NaN radius gives a NaN quadrature residual, which no tolerance catches
        with pytest.raises(ValueError, match="finite"):
            profile_bessel(2, 1, [0.0, 0.5, float("nan")])
        for row in ("nan,0.1", "0.5,nan", "inf,0.1"):
            path = tmp_path / "profile.csv"
            path.write_text(f"# m=2 N=1 s_max=4.0 nodes=64\nr,F\n0.0,0.2\n{row}\n")
            with pytest.raises(ValueError, match="finite"):
                read_profile_csv(path)

    @pytest.mark.parametrize("radii", [[0.0, 0.5, np.nan], [0.5, 0.0], [[0.0, 0.5]]], ids=["nan", "decreasing", "2-D"])
    def test_bad_radii_rejected_before_any_quadrature(self, monkeypatch, radii):
        calls = []
        real = kernel_module._radial_values
        monkeypatch.setattr(kernel_module, "_radial_values", lambda *a: calls.append(1) or real(*a))
        with pytest.raises(ValueError, match="radii must be"):
            profile_bessel(2, 1, radii)
        assert calls == []


class TestProfileFourier:
    def test_m1_gaussian(self, grid24):
        F = profile_fourier(1, grid24)
        x = np.broadcast_to(coordinates(grid24)[0], grid24.shape)
        assert np.max(np.abs(F.values - (4 * np.pi) ** -0.5 * np.exp(-(x**2) / 4.0))) <= 1e-8

    def test_m2_origin_agrees_with_bessel_route(self, grid24, profile_m2):
        F = profile_fourier(2, grid24)
        center = grid24.points_per_dim // 2
        assert F.values[center] == pytest.approx(profile_m2.values[0], abs=1e-5)

    def test_unit_mass(self, grid24):
        for m in (1, 2, 3):
            assert integrate(profile_fourier(m, grid24)) == pytest.approx(1.0, abs=1e-6)

    def test_rejects_under_resolved_grid(self):
        with pytest.raises(ValueError, match="under-resolves"):
            profile_fourier(1, make_grid(1, 20.0, 32))

    def test_dual_route_m2(self, grid24, profile_m2):
        x = np.broadcast_to(coordinates(grid24)[0], grid24.shape)
        sel = np.abs(x) <= 10.0
        F = profile_fourier(2, grid24)
        table = dict(zip(profile_m2.radii.round(12), profile_m2.values))
        p = profile_bessel(2, 1, np.sort(np.unique(np.abs(x[sel]))))
        lookup = dict(zip(p.radii.round(12), p.values))
        worst = max(abs(F.values[i] - lookup[round(abs(x[i]), 12)]) for i in np.nonzero(sel)[0])
        assert worst <= 1e-5


class TestPheSolve:
    def test_time_zero_identity(self, grid24):
        u0 = bump(grid24, 1.0, 3.0)
        out = phe_solve(u0, 2, 0.0)
        assert np.array_equal(out.values, u0.values)

    def test_time_tag_is_start_plus_t(self, grid24):
        # one rule for every t, t = 0 included; an untagged u0 starts at 0
        tagged = Field(grid24, bump(grid24, 1.0, 3.0).values, 5.0)
        assert [phe_solve(tagged, 2, t).time_tag for t in (0.0, 0.1)] == [5.0, 5.0 + 0.1]
        untagged = Field(grid24, tagged.values)
        assert [phe_solve(untagged, 2, t).time_tag for t in (0.0, 0.1)] == [0.0, 0.1]

    def test_single_mode_decay_factor(self, grid24):
        x = np.broadcast_to(coordinates(grid24)[0], grid24.shape)
        xi = 6 * np.pi / 24.0
        u0 = Field(grid24, np.cos(xi * x))
        with pytest.raises(DecayAssertionError):  # the mode fills the box
            phe_solve(u0, 2, 0.3)
        # phe_solve's multiplier flow, without its boundary guard
        out = irfft(grid24, np.exp(-_spectrum(grid24, 2).k2m * 0.3) * rfft(grid24, u0.values))
        assert np.max(np.abs(out - np.exp(-(xi**4) * 0.3) * u0.values)) <= 1e-12

    def test_semigroup(self, grid24):
        u0 = bump(grid24, 1.0, 3.0)
        two_steps = phe_solve(phe_solve(u0, 2, 0.04), 2, 0.06)
        one_step = phe_solve(u0, 2, 0.1)
        assert l2_norm(Field(grid24, two_steps.values - one_step.values)) <= 1e-12 * l2_norm(one_step)

    def test_mass_exactly_preserved(self, grid24):
        u0 = bump(grid24, 1.0, 3.0)
        assert integrate(phe_solve(u0, 2, 0.2)) == integrate(u0)

    def test_eventual_positivity_narrow_bump(self):
        grid = make_grid(1, 20.0, 512)
        u0 = bump(grid, 1.0, 0.8, steepness=6.0)
        times = (0.002, 0.005, 0.01, 0.05, 0.1, 0.2)
        early = phe_solve(u0, 2, 0.002)
        assert np.min(early.values) < 0.0
        snapshots = [phe_solve(u0, 2, t) for t in times]
        T, positive_after = eventual_positivity(snapshots)
        assert positive_after
        assert 0.0 < T < 0.2


class TestDecayFit:
    def test_m1_gaussian_exponent(self):
        p = profile_bessel(1, 1, np.linspace(0.0, 10.0, 501))
        fit = decay_fit(p)
        assert fit.alpha == pytest.approx(2.0, abs=0.05)
        assert fit.a == pytest.approx(0.25, abs=0.01)

    def test_m2_exponent(self, profile_m2):
        fit = decay_fit(profile_m2)
        assert abs(fit.alpha - 4.0 / 3.0) <= 0.05 * (4.0 / 3.0)

    def test_m3_exponent(self):
        p = profile_bessel(3, 1, np.linspace(0.0, 50.0, 2501))
        fit = decay_fit(p)
        assert abs(fit.alpha - 6.0 / 5.0) <= 0.05 * (6.0 / 5.0)

    def test_insufficient_range(self):
        p = profile_bessel(2, 1, np.linspace(0.0, 4.0, 41))
        with pytest.raises(ValueError, match="insufficient decay range"):
            decay_fit(p)


class TestProfileCsv:
    def test_roundtrip(self, tmp_path, profile_m2):
        p = with_decay_fit(profile_m2)
        path = tmp_path / "profile.csv"
        write_profile_csv(path, p)
        back = read_profile_csv(path)
        assert back.m == p.m and back.dim == p.dim
        assert np.allclose(back.radii, p.radii, atol=0)
        assert np.allclose(back.values, p.values, atol=0)
        assert back.decay_fit == p.decay_fit

    def test_header_format(self, tmp_path, profile_m2):
        path = tmp_path / "profile.csv"
        write_profile_csv(path, profile_m2)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# m=2 N=1 s_max=")
        assert lines[1] == "r,F"
