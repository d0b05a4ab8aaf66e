"""Kernel profile, polyharmonic flow, and decay-fit tests."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

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
    QuadratureError,
    QuadratureSpec,
    decay_fit,
    phe_solve,
    profile_bessel,
    profile_fourier,
    profile_quadrature,
    radial_integral,
    read_profile_csv,
    sign_change_count,
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

    @pytest.mark.parametrize(
        "radii", [[0.0, 0.5, np.nan], [0.5, 0.0], [[0.0, 0.5]], []], ids=["nan", "decreasing", "2-D", "empty"]
    )
    def test_bad_radii_rejected_before_any_quadrature(self, monkeypatch, radii):
        calls = []
        for rule in ("_trapezoid_tables", "_gauss_tables"):
            real = getattr(kernel_module, rule)
            monkeypatch.setattr(kernel_module, rule, lambda *a, real=real: calls.append(1) or real(*a))
        for dim in (1, 2):
            with pytest.raises(ValueError, match="radii must be"):
                profile_bessel(2, dim, radii)
        assert calls == []

    def test_unstable_tabulation_raises_with_its_residual(self, monkeypatch):
        # tables that alternate between 0 and 1 never settle: after nine
        # doublings the error carries the last step between them
        def alternating(m, radii, s_max, nodes):
            while True:
                yield np.zeros(radii.size)
                yield np.ones(radii.size)

        monkeypatch.setattr(kernel_module, "_trapezoid_tables", alternating)
        nodes = profile_quadrature(2, 1).nodes * 2**9
        with pytest.raises(QuadratureError, match=rf"^radial quadrature did not converge \(residual 1\.000e\+00 after {nodes} nodes\)$") as err:
            profile_bessel(2, 1, [0.0, 0.5])
        assert err.value.residual == 1.0


# the criterion-1 tabulations: (m, N) -> r_max, at dr = 0.02
CRITERION_1 = {(1, 1): 12.0, (2, 1): 36.0, (3, 1): 68.0, (2, 2): 36.0}


@pytest.fixture(scope="module")
def criterion_1_profiles():
    return {
        case: profile_bessel(*case, np.arange(0.0, r_max + 0.01, 0.02)) for case, r_max in CRITERION_1.items()
    }


class TestTrapezoidRule:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_against_adaptive_quadrature(self, m):
        # independent oracle: QUADPACK's cosine-weighted rule on [0, S] with
        # S^(2m) = 200, so the truncated tail is below e^-200
        r_max = CRITERION_1[(m, 1)]
        radii = np.linspace(0.0, r_max, 6)
        p = profile_bessel(m, 1, radii)
        oracle = []
        for r in radii:
            value, err = quad(
                lambda s: np.exp(-(s ** (2 * m))), 0.0, 200.0 ** (1 / (2 * m)),
                weight="cos", wvar=r, epsabs=1e-14, epsrel=1e-13, limit=200,
            )
            assert err < 1e-13
            oracle.append(value / np.pi)
        assert np.max(np.abs(p.values - np.array(oracle))) <= 1e-12

    def test_criterion_1_node_counts(self, criterion_1_profiles):
        nodes = [criterion_1_profiles[(m, 1)].quadrature.nodes for m in (1, 2, 3)]
        assert nodes == [128, 128, 256]

    @pytest.mark.parametrize("m", [1, 3])
    def test_each_doubling_evaluates_only_new_nodes(self, monkeypatch, m):
        columns = []
        real = np.cos
        monkeypatch.setattr(kernel_module.np, "cos", lambda x: columns.append(x.shape[1]) or real(x))
        p = profile_bessel(m, 1, np.arange(0.0, CRITERION_1[(m, 1)] + 0.01, 0.02))
        # the start's 64 intervals take 65 nodes; each doubling adds the midpoints
        assert columns[0] == 65 and len(columns) >= 2
        assert sum(columns) == p.quadrature.nodes + 1


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

    def test_growing_envelope_is_no_decay(self):
        r = np.linspace(0.0, 30.0, 1501)
        p = KernelProfile(2, 1, r, np.cos(r) * np.exp(0.2 * r), profile_quadrature(2, 1))
        with pytest.raises(ValueError, match="no decay"):
            decay_fit(p)

    @pytest.mark.parametrize("case", list(CRITERION_1), ids=[f"m{m}_N{d}" for m, d in CRITERION_1])
    def test_no_worse_than_bounded_least_squares(self, criterion_1_profiles, case):
        # reference: the full three-parameter fit by scipy's trust-region
        # least squares, on the same envelope points, with its former bounds
        from scipy.optimize import least_squares

        p = criterion_1_profiles[case]
        r, v = kernel_module._envelope_points(p)
        if r.size >= 8:
            r, v = r[r.size // 4:], v[r.size // 4:]
        logv = np.log(v)
        alpha0 = 2 * p.m / (2 * p.m - 1)
        a0 = max((logv[0] - logv[-1]) / (r[-1] ** alpha0 - r[0] ** alpha0), 1e-3)
        sol = least_squares(
            lambda q: q[0] - q[1] * r ** q[2] - logv,
            x0=np.array([logv[0] + a0 * r[0] ** alpha0, a0, alpha0]),
            bounds=([-50.0, 1e-6, 1.0], [50.0, 50.0, 2.5]),
        )
        fit = decay_fit(p)
        rss = float(np.sum((np.log(fit.C) - fit.a * r**fit.alpha - logv) ** 2))
        assert rss <= float(np.sum(sol.fun**2)) * (1.0 + 1e-12)


class TestProfileCsv:
    def test_roundtrip(self, tmp_path, profile_m2):
        p = replace(profile_m2, decay_fit=decay_fit(profile_m2))
        path = tmp_path / "profile.csv"
        write_profile_csv(path, p)
        back = read_profile_csv(path)
        assert back.m == p.m and back.dim == p.dim
        assert np.allclose(back.radii, p.radii, atol=0)
        assert np.allclose(back.values, p.values, atol=0)
        assert back.decay_fit == p.decay_fit

    @pytest.mark.parametrize("with_fit", [True, False], ids=["fit", "no-fit"])
    def test_bytes_match_per_element_formatting(self, tmp_path, profile_m2, with_fit):
        p = replace(profile_m2, decay_fit=decay_fit(profile_m2)) if with_fit else profile_m2
        q = p.quadrature
        lines = [f"# m={p.m} N={p.dim} s_max={float(q.s_max)!r} nodes={q.nodes}", "r,F"]
        for r, v in zip(p.radii, p.values):
            lines.append(f"{float(r)!r},{float(v)!r}")
        if with_fit:
            f = p.decay_fit
            lines.append(f"# fit C={f.C!r} a={f.a!r} alpha={f.alpha!r}")
        path = tmp_path / "profile.csv"
        write_profile_csv(path, p)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_header_format(self, tmp_path, profile_m2):
        path = tmp_path / "profile.csv"
        write_profile_csv(path, profile_m2)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# m=2 N=1 s_max=")
        assert lines[1] == "r,F"


# the criterion-1 tabulations with their decay fits, as the bytes of the CSV
# files ``polyheat kernel`` writes; the 2-D profile's radius sums are long
# enough for OpenBLAS to split a matrix-vector product across two threads
_THREADS_PROBE = """
import hashlib, sys
from dataclasses import replace
from pathlib import Path
import numpy as np
from polyheat.kernel import decay_fit, profile_bessel, write_profile_csv
path = Path(sys.argv[1])
for (m, dim), r_max in {(1, 1): 12.0, (2, 1): 36.0, (3, 1): 68.0, (2, 2): 36.0}.items():
    profile = profile_bessel(m, dim, np.arange(0.0, r_max + 1e-9, 0.02))
    write_profile_csv(path, replace(profile, decay_fit=decay_fit(profile)))
    print(m, dim, hashlib.sha256(path.read_bytes()).hexdigest())
"""


def test_profiles_do_not_depend_on_the_blas_thread_count(tmp_path):
    src = str(Path(kernel_module.__file__).resolve().parents[1])
    tables = []
    for threads in ("1", "2"):
        env = dict(
            os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        )
        path = tmp_path / f"profile-{threads}.csv"
        run = subprocess.run([sys.executable, "-c", _THREADS_PROBE, str(path)], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        tables.append(run.stdout)
    assert len(tables[0].splitlines()) == 4
    assert tables[0] == tables[1]
