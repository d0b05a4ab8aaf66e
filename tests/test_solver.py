"""Time-integration, monitor, and interface-diagnostic tests."""

import dataclasses
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyheat import solver as solver_module
from polyheat.degeneracy import RegPath, degeneracy_function, f_pow_n, reg_coefficient
from polyheat.gridfield import (
    Field,
    GridSpec,
    _coef_divergence,
    _rows_spectrum,
    _spectrum,
    bump,
    coordinates,
    integrate,
    irfft,
    l2_norm,
    make_grid,
    rfft,
)
from polyheat.kernel import phe_solve
from polyheat.solver import (
    BlowupError,
    _bf_from_hat,
    EnergyReport,
    SolverConfig,
    StiffnessError,
    interface_report,
    solve,
    write_energy_csv,
)


@pytest.fixture(scope="module")
def grid():
    return make_grid(1, 24.0, 256)


@pytest.fixture(scope="module")
def u0(grid):
    return bump(grid, 1.0, 4.0, steepness=6.0)


@pytest.fixture(scope="module")
def rational():
    return degeneracy_function("rational")


def _full_wavenumbers(grid):
    """|xi|^2 and the per-axis xi with each Nyquist entry zeroed on the full
    grid-shaped spectrum in FFT order: the complex-FFT reference's own
    layout, independent of the package's half-spectrum table."""
    n = grid.points_per_dim
    xi = np.meshgrid(*[2.0 * np.pi * np.fft.fftfreq(n, d=grid.dx)] * grid.dim, indexing="ij")
    k = np.meshgrid(*[np.rint(np.fft.fftfreq(n) * n)] * grid.dim, indexing="ij")
    xi_odd = [np.where(kd == -(n // 2), 0.0, x) for x, kd in zip(xi, k)]
    return sum(x**2 for x in xi), xi_odd


def _band_limited(f):
    """Project onto the 2/3-rule band (zero the top-third modes, the Nyquist
    modes that the odd-order multipliers drop among them)."""
    spec = _spectrum(f.grid, 1)
    return Field(f.grid, irfft(f.grid, np.where(spec.band, rfft(f.grid, f.values), 0.0)), f.time_tag)


def _one_step(u, dt, config):
    """The final state of a solve that takes the single step dt."""
    traj = solve(u, dataclasses.replace(config, dt_init=dt, t_final=dt, report_stride=1))
    assert len(traj.reports) == 2  # the step was accepted, not halved
    return traj.snapshots[-1]


def _kernel(grid, m, coef, u_hat):
    """The package's divergence kernel on one row, the grid array coef and
    the half spectrum u_hat = rfft(u): (div(coef grad Delta^(m-1) u) on the
    half spectrum, flux int |coef g|^2, dissipation int coef |g|^2)."""
    coef, u_hat = coef[None], u_hat[None]
    div_hat = np.empty_like(u_hat)
    work = (np.empty_like(u_hat), np.empty_like(coef), np.empty_like(coef))
    flux, diss = _coef_divergence(_rows_spectrum(grid, m, 1), coef, u_hat, div_hat, *work)
    return div_hat[0], flux[0], diss[0]


def _pass(u, config):
    """The products route of the solver's pass on u: (signed divergence
    (-1)^(m-1) div p on the half spectrum, flux, dissipation).  It runs
    whatever the coefficient, an exact 1 included."""
    coef = reg_coefficient((config.path,), (config.eps,), u.values[None])[0]
    div_hat, flux, diss = _kernel(u.grid, config.m, coef, rfft(u.grid, u.values))
    return (-1.0) ** (config.m - 1) * div_hat, flux, diss

def rhs(u, config):
    """(-1)^(m-1) div(coef(u) grad Delta^(m-1) u): the signed divergence of the products route."""
    return Field(u.grid, irfft(u.grid, _pass(u, config)[0]))


def _linear_config(rational, **kw):
    base = dict(m=2, path=RegPath(rational, 0.0, "simple"), eps=1e-3, dt_init=1e-4, t_final=0.01)
    base.update(kw)
    return SolverConfig(**base)


class TestConfig:
    def test_rejects_bad_m(self, rational):
        with pytest.raises(ValueError):
            _linear_config(rational, m=4)

    def test_rejects_bad_eps(self, rational):
        for eps in (0.0, 1.2):
            with pytest.raises(ValueError):
                _linear_config(rational, eps=eps)

    def test_default_stabilization_covers_bound(self, rational):
        config = SolverConfig(
            m=2, path=RegPath(rational, 0.2, "full"), eps=1e-3, dt_init=1e-4, t_final=0.1
        )
        bound = f_pow_n(rational, 0.2, 1e-3) + 1.0
        assert config.c == pytest.approx(1.1 * bound, rel=1e-12)


class TestRhs:
    def test_linear_reduction_matches_multiplier(self, rational):
        grid = make_grid(1, 20.0, 128)
        u = _band_limited(bump(grid, 1.0, 4.0, steepness=6.0))
        config = _linear_config(rational)
        out = rhs(u, config)
        k2, _ = _full_wavenumbers(grid)
        pure = np.fft.ifftn(-(k2**2) * np.fft.fftn(u.values)).real
        assert np.max(np.abs(out.values - pure)) <= 1e-10

    def test_constant_field_is_stationary(self, grid, rational):
        config = SolverConfig(
            m=2, path=RegPath(rational, 0.3, "full"), eps=0.5, dt_init=1e-4, t_final=0.01
        )
        u = Field(grid, np.full(grid.shape, 0.7))
        assert np.max(np.abs(rhs(u, config).values)) <= 1e-12

    def test_mean_zero(self, u0, rational):
        config = SolverConfig(
            m=2, path=RegPath(rational, 0.4, "full"), eps=1e-2, dt_init=1e-4, t_final=0.01
        )
        assert abs(integrate(rhs(u0, config))) <= 1e-12

    @pytest.mark.parametrize("m", [2, 3])
    def test_pass_leaves_the_signed_divergence_plus_lin_u_hat(self, u0, rational, m):
        # the kernel's divergence is unsigned; the solver's pass gives a
        # products row's remainder the sign (-1)^(m-1) before adding lin u_hat
        config = SolverConfig(m=m, path=RegPath(rational, 0.3, "full"), eps=1e-2, dt_init=1e-4, t_final=0.01)
        u_hat = rfft(u0.grid, u0.values)
        step = solver_module._Step(u0.grid, [solver_module._Row(0, config)], u_hat, np.inf, np.inf)
        div_hat = _kernel(u0.grid, m, reg_coefficient((config.path,), (config.eps,), step.u)[0], u_hat)[0]
        assert np.array_equal(step.rem[0], (-1.0) ** (m - 1) * div_hat + step.lin[0] * u_hat)


class TestStepImex:
    """The raw IMEX step, as a one-step solve."""

    def test_one_step_order_two_against_exact(self, grid, rational):
        x = np.broadcast_to(coordinates(grid)[0], grid.shape)
        gauss = Field(grid, np.exp(-(x**2) / 2.0))
        config = _linear_config(rational)
        errs = []
        for dt in (2e-6, 1e-6):
            stepped = _one_step(gauss, dt, config)
            exact = phe_solve(gauss, 2, dt)
            errs.append(l2_norm(Field(grid, stepped.values - exact.values)))
        assert np.log2(errs[0] / errs[1]) >= 1.9

    def test_mass_preserved_per_step(self, u0, rational):
        # the zero mode is untouched in the spectral state; the physical
        # round-trip only adds summation rounding
        config = SolverConfig(
            m=2, path=RegPath(rational, 0.3, "full"), eps=1e-2, dt_init=1e-4, t_final=0.01,
        )
        out = _one_step(u0, 1e-4, config)
        assert integrate(out) == pytest.approx(integrate(u0), rel=1e-13)

    def test_zero_fixed_point(self, grid, rational):
        z = Field(grid, np.zeros(grid.shape))
        out = _one_step(z, 1e-3, _linear_config(rational))
        assert np.max(np.abs(out.values)) == 0.0


class TestBfEnergies:
    def test_zero_field(self, grid):
        z = Field(grid, np.zeros(grid.shape))
        bf, bf_lo = _bf_from_hat(_spectrum(grid, 2), rfft(grid, z.values))
        assert bf == bf_lo == integrate(z) == 0.0

    def test_m3_against_laplacian_route(self, grid, u0):
        from polyheat.gridfield import laplacian_power

        bf, _ = _bf_from_hat(_spectrum(grid, 3), rfft(grid, u0.values))
        lap = laplacian_power(u0, 1)
        direct = integrate(Field(grid, lap.values**2))
        assert abs(bf - direct) <= 1e-12 * max(1.0, direct)

    def test_m2_against_integration_by_parts(self, grid, u0):
        from polyheat.gridfield import laplacian_power

        bf, _ = _bf_from_hat(_spectrum(grid, 2), rfft(grid, u0.values))
        parts = -integrate(Field(grid, u0.values * laplacian_power(u0, 1).values))
        assert abs(bf - parts) <= 1e-12 * max(1.0, parts)


class TestFlux:
    def test_zero_field_unchanged(self, grid, rational):
        config = _linear_config(rational)
        z = Field(grid, np.zeros(grid.shape))
        assert _pass(z, config)[1] == 0.0

    def test_single_mode_closed_form(self, grid, rational):
        # n = 0: flux integrand decays like e^(-2 xi^(2m) s); closed form
        # A^2 xi^(2(2m-1)) L (1 - e^(-2 xi^(2m) t)) / (2 xi^(2m))
        x = np.broadcast_to(coordinates(grid)[0], grid.shape)
        xi = 4.0 * np.pi / 24.0
        amp = 0.8
        config = _linear_config(rational)
        t_final, steps = 0.02, 400
        dt = t_final / steps
        running = 0.0
        u = Field(grid, amp * np.cos(xi * x))
        # the multiplier flow, without phe_solve's boundary guard: the mode
        # fills the box
        decay = np.exp(-_spectrum(grid, 2).k2m * dt)
        for k in range(steps):
            nxt = Field(grid, irfft(grid, decay * rfft(grid, u.values)))
            running += 0.5 * dt * (_pass(u, config)[1] + _pass(nxt, config)[1])
            u = nxt
        m = 2
        exact = amp**2 * xi ** (2 * (2 * m - 1)) * 24.0 * (1 - np.exp(-2 * xi ** (2 * m) * t_final)) / (2 * xi ** (2 * m))
        assert running == pytest.approx(exact, rel=1e-6)

    def test_eps_weighted_bound_below_dissipation(self, u0, rational):
        # f^n(eps) int |grad Lap u|^2 <= int coef |grad Lap u|^2 pointwise
        config = SolverConfig(
            m=2, path=RegPath(rational, 0.2, "full"), eps=1e-3, dt_init=1e-4, t_final=0.01
        )
        raw_config = _linear_config(rational)
        raw = _pass(u0, raw_config)[2]  # coefficient identically 1
        weighted = _pass(u0, config)[2]
        floor = f_pow_n(rational, 0.2, 1e-3)
        assert floor * raw <= weighted + 1e-12


class TestSolve:
    def test_degeneracy_off_matches_multiplier(self, grid, u0, rational):
        config = _linear_config(rational, dt_init=2e-5, t_final=0.02, report_stride=10**6)
        traj = solve(u0, config)
        exact = phe_solve(u0, 2, 0.02)
        gap = l2_norm(Field(grid, traj.snapshots[-1].values - exact.values))
        assert gap <= 1e-6 * l2_norm(exact)

    def test_monitors_on_nonlinear_run(self, grid, u0, rational):
        config = SolverConfig(
            m=2, path=RegPath(rational, 0.2, "full"), eps=1e-3, dt_init=5e-5,
            t_final=0.02, report_stride=10,
        )
        traj = solve(u0, config)
        reports = traj.reports
        assert reports[-1].mass == reports[0].mass  # zero mode is bitwise inert
        bf = [r.bf_energy for r in reports]
        assert all(b2 <= b1 + 1e-8 for b1, b2 in zip(bf, bf[1:]))
        assert abs(reports[-1].dissipation_residual) <= 1e-4 * reports[0].bf_energy
        assert reports[-1].flux_l2_accum > 0.0

    def test_dissipation_residual_shrinks_under_dt_refinement(self, u0, rational):
        # effective order is ~1/2 here (set by the spectral band with
        # xi^(2m) dt of order one), so monotone decrease is the honest claim
        resids = []
        for dt in (2e-4, 1e-4, 5e-5):
            config = SolverConfig(
                m=2, path=RegPath(rational, 0.2, "full"), eps=1e-3, dt_init=dt,
                t_final=0.05, report_stride=10**6,
            )
            traj = solve(u0, config)
            resids.append(abs(traj.reports[-1].dissipation_residual) / traj.reports[0].bf_energy)
        assert resids[0] > resids[1] > resids[2]

    def test_snapshots_at_requested_times(self, u0, rational):
        config = _linear_config(
            rational, dt_init=3e-5, t_final=0.01, snapshot_times=(0.004, 0.008), report_stride=100
        )
        traj = solve(u0, config)
        assert [s.time_tag for s in traj.snapshots] == pytest.approx([0.0, 0.004, 0.008, 0.01])

    @pytest.mark.parametrize("t_final,snapshot_times,tags", [
        (1e-16, (), [0.0, 1e-16]),
        (1e-4, (1e-16,), [0.0, 1e-16, 1e-4]),
    ])
    def test_a_target_below_round_off_takes_a_step(self, u0, rational, t_final, snapshot_times, tags):
        # a target of at most 1e-15 lies within the reached-test's round-off
        # of t = 0, yet the run steps onto it rather than stopping at t = 0
        config = _linear_config(
            rational, t_final=t_final, snapshot_times=snapshot_times, report_stride=10**6
        )
        traj = solve(u0, config)
        assert [s.time_tag for s in traj.snapshots] == tags
        assert [r.t for r in traj.reports] == tags

    def test_eps_continuity(self, grid, u0, rational):
        # nearby regularizations give nearby final fields; the measured gap
        # shrinks with the eps separation
        final = {}
        for eps in (1e-2, 1.1e-2, 2e-2):
            config = SolverConfig(
                m=2, path=RegPath(rational, 0.3, "full"), eps=eps, dt_init=5e-5,
                t_final=0.01, report_stride=10**6,
            )
            final[eps] = solve(u0, config).snapshots[-1].values
        gap_small = np.linalg.norm(final[1.1e-2] - final[1e-2])
        gap_large = np.linalg.norm(final[2e-2] - final[1e-2])
        assert 0.0 < gap_small < gap_large

    def test_rejects_rough_initial_data(self, grid, rational):
        rough = bump(grid, 1.0, 2.0, steepness=1.0)
        with pytest.raises(ValueError, match="spectral tail"):
            solve(rough, _linear_config(rational))

    def test_rejects_offcenter_support(self, grid, rational):
        shifted = bump(grid, 1.0, 4.0, center=14.0, steepness=6.0)
        with pytest.raises(ValueError, match="supported within"):
            solve(shifted, _linear_config(rational))

    def test_stiffness_failure_after_halvings(self, u0, rational, monkeypatch):
        config = _linear_config(rational, report_stride=10**6)
        # no step with positive energy passes a tolerance of -bf(0)
        monkeypatch.setattr(solver_module, "_ENERGY_RTOL", -1.0)
        with pytest.raises(StiffnessError, match="30 halvings") as info:
            solve(u0, config)
        assert f"dt = {config.dt_init * 2.0**-30:.3e}" in str(info.value)

    def test_a_stalled_run_spends_its_step_budget(self, u0, rational):
        # a remainder that stays anti-diffusive halves nearly every step, and
        # dt falls to about 1e-20 without 30 halvings in any one step; the
        # clock stalls near 1.7e-9 until the accepted and rejected steps pass
        # the row's budget.  Without the budget the coefficient turns
        # diffusive after that many states, and the run ends without error.
        config = _linear_config(rational, report_stride=10**6)
        budget = solver_module._Row(0, config).budget
        assert budget == 4 * (100 + 1) + 2 * solver_module._MAX_HALVINGS
        with mock.patch.object(solver_module, "reg_coefficient", _antidiffusive_first_state(budget)):
            with pytest.raises(StiffnessError) as info:
                solve(u0, config)
        message = r"^stiffness failure at t = (\S+): step budget spent, (\d+) accepted and rejected steps against "
        t, tries = re.match(message + rf"a budget of {budget} \(last dt = (\S+)\)$", str(info.value)).group(1, 2)
        assert 0.0 < float(t) < 1e-8
        assert budget < int(tries) <= budget + 10  # a few steps past it, at the next rejected one

    def test_blowup_names_t_and_dt(self, u0, rational, monkeypatch):
        config = _linear_config(rational, report_stride=10**6)
        monkeypatch.setattr(solver_module, "reg_coefficient", lambda path, eps, u, out=None: np.full_like(u, np.inf))
        with pytest.raises(BlowupError, match=r"non-finite .* at t = 0, dt = 1\.000e-04"):
            solve(u0, config)

    def test_tripwire_names_factor_and_t(self, u0, rational, monkeypatch):
        # the first accepted state keeps about sup|u0|, so a factor of 1/2 trips
        monkeypatch.setattr(solver_module, "_TRIPWIRE_FACTOR", 0.5)
        message = r"^boundedness tripwire: sup\|u\| = 1 exceeds 0\.5 \* sup\|u0\| = 0\.5 at t = 0\.0001$"
        with pytest.raises(BlowupError, match=message):
            solve(u0, _linear_config(rational, report_stride=10**6))

    @pytest.mark.parametrize("dim,half_width,points,n", [
        pytest.param(1, 24.0, 256, 0.0, id="1-24.0-256"),
        pytest.param(2, 12.0, 128, 0.0, id="2-12.0-128"),
        pytest.param(1, 24.0, 256, 0.2, id="1-24.0-256-n0.2"),
        pytest.param(2, 12.0, 128, 0.2, id="2-12.0-128-n0.2"),
    ])
    def test_real_transforms_per_step(self, rational, monkeypatch, dim, half_width, points, n):
        # no complex transform at all; 3 at set-up (tail check, u0 there and
        # back) and per accepted step one inverse of the new state; at
        # n > 0, where the coefficient is not 1, every pass also makes dim
        # for the chain and dim for the divergence of the remainder, the
        # pass of u0 and of the final state included; one coefficient per
        # accepted state, the initial one
        # included; with the tables built, the grid is hashed a fixed number
        # of times per run, not per step
        grid = make_grid(dim, half_width, points)
        u = bump(grid, 1.0, 4.0, steepness=6.0)
        path = RegPath(rational, n, "full" if n else "simple")

        def config(steps):
            return _linear_config(rational, path=path, t_final=steps * 1e-4, report_stride=1)

        solve(u, config(1))  # builds the cached tables
        calls = Counter()
        real = ("rfft", "irfft", "rfftn", "irfftn")
        for name in ("fft", "ifft", "fftn", "ifftn") + real:
            fn = getattr(np.fft, name)
            monkeypatch.setattr(np.fft, name, lambda *a, _f=fn, _n=name, **k: calls.update([_n]) or _f(*a, **k))
        coef = solver_module.reg_coefficient
        monkeypatch.setattr(
            solver_module, "reg_coefficient", lambda *a, **k: calls.update(["coef"]) or coef(*a, **k)
        )
        grid_hash = GridSpec.__hash__
        hashes = []
        monkeypatch.setattr(GridSpec, "__hash__", lambda self: hashes.append(1) or grid_hash(self))
        counted = []
        for steps in (4, 8):
            run_config = config(steps)  # its own check samples the coefficient once
            calls.clear()
            hashes.clear()
            traj = solve(u, run_config)
            assert len(traj.reports) == steps + 1  # no halving
            assert calls["fft"] == calls["ifft"] == calls["fftn"] == calls["ifftn"] == 0
            per_step = 1 if n == 0 else 1 + 2 * dim
            assert sum(calls[name] for name in real) == 3 + (0 if n == 0 else 2 * dim) + per_step * steps
            assert calls["coef"] == 1 + steps
            counted.append(len(hashes))
        assert counted[0] == counted[1]

    def test_temporal_order_one(self, grid, u0, rational):
        exact = phe_solve(u0, 2, 0.02)
        errs = []
        for dt in (4e-4, 2e-4, 1e-4):
            config = _linear_config(rational, dt_init=dt, t_final=0.02, report_stride=10**6)
            final = solve(u0, config).snapshots[-1]
            errs.append(l2_norm(Field(grid, final.values - exact.values)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all((orders >= 0.95) & (orders <= 1.05)), orders

    def test_run_id_deterministic(self, u0, rational):
        config = _linear_config(rational, t_final=0.002, report_stride=10**6)
        a = solve(u0, config)
        b = solve(u0, config)
        assert a.run_id == b.run_id
        assert np.array_equal(a.snapshots[-1].values, b.snapshots[-1].values)


# band-limited fields: distinct low wavevectors (nonnegative components, so
# no two of them are the same wave), each with amplitude >= 0.1 and a phase
_PROPERTY_GRIDS = {1: make_grid(1, 10.0, 64), 2: make_grid(2, 10.0, 32)}


@st.composite
def _low_mode_field(draw, dim):
    ks = draw(st.lists(
        st.tuples(*[st.integers(0, 4)] * dim).filter(any), min_size=1, max_size=4, unique=True
    ))
    grid = _PROPERTY_GRIDS[dim]
    xs = [np.broadcast_to(x, grid.shape) for x in coordinates(grid)]
    values = np.zeros(grid.shape)
    for k in ks:
        amp = draw(st.floats(0.1, 1.0)) * draw(st.sampled_from((-1.0, 1.0)))
        phase = draw(st.floats(0.0, 2.0 * np.pi))
        values += amp * np.cos(sum(ki * np.pi * x / grid.half_width for ki, x in zip(k, xs)) + phase)
    return Field(grid, values)


class TestKernelProperties:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), dim=st.sampled_from((1, 2)))
    def test_divergence_zero_mode_is_exactly_zero(self, data, dim):
        u, coef = (data.draw(_low_mode_field(dim)) for _ in range(2))
        div_hat = _kernel(u.grid, 2, coef.values, rfft(u.grid, u.values))[0]
        assert div_hat[(0,) * dim] == 0.0

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(), dim=st.sampled_from((1, 2)), m=st.sampled_from((2, 3)),
        shift=st.integers(-40, 40),
    )
    def test_rhs_commutes_with_shift(self, rational, data, dim, m, shift):
        u = data.draw(_low_mode_field(dim))
        config = SolverConfig(m=m, path=RegPath(rational, 0.3, "full"), eps=0.1, dt_init=1e-4, t_final=0.01)
        axes = tuple(range(dim))
        expected = np.roll(rhs(u, config).values, shift, axis=axes)
        got = rhs(Field(u.grid, np.roll(u.values, shift, axis=axes)), config).values
        # the chain lifts the transforms' round-off in the top modes by up to
        # |xi|^(2m), so the scale is the operator bound c |xi|_max^(2m) sup|u|
        bound = config.c * np.max(_full_wavenumbers(u.grid)[0]) ** m * np.max(np.abs(u.values))
        assert np.max(np.abs(got - expected)) <= 1e-12 * bound


def _nyquist_field(data, dim):
    # low modes plus energy in the last axis's Nyquist column, where the half
    # spectrum's multiplicity is 1 instead of 2
    u = data.draw(_low_mode_field(dim))
    xs = [np.broadcast_to(x, u.grid.shape) for x in coordinates(u.grid)]
    nyquist = np.cos(np.pi * (u.grid.points_per_dim // 2) * xs[-1] / u.grid.half_width)
    if dim == 2:  # complex coefficients in that column, off the k_0 = 0 row
        nyquist = nyquist * np.cos(np.pi * xs[0] / u.grid.half_width + 0.3)
    return Field(u.grid, u.values + data.draw(st.floats(0.1, 1.0)) * nyquist)


class TestHalfSpectrumKernel:
    """The rfft kernel against a full complex-FFT reference written here."""

    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), dim=st.sampled_from((1, 2)), m=st.sampled_from((2, 3)))
    def test_matches_complex_reference(self, data, dim, m):
        u = _nyquist_field(data, dim)
        grid = u.grid
        coef = np.exp(0.25 * data.draw(_low_mode_field(dim)).values)  # positive, not constant
        spec = _spectrum(grid, m)
        k2, k_odd = _full_wavenumbers(grid)
        h = grid.points_per_dim // 2 + 1
        bound = np.max(k2) ** m * np.max(np.abs(u.values)) * np.max(coef)

        u_full = np.fft.fftn(u.values)
        ref_chain = [np.fft.ifftn(1j * ki * (-k2) ** (m - 1) * u_full).real for ki in k_odd]
        ref_div = np.zeros(grid.shape, dtype=complex)
        for ki, g in zip(k_odd, ref_chain):
            ref_div += 1j * ki * np.fft.fftn(coef * g)
        ref_flux = grid.cell_volume * sum(np.sum((coef * g) ** 2) for g in ref_chain)
        ref_diss = grid.cell_volume * sum(np.sum(coef * g**2) for g in ref_chain)

        got_div, flux, diss = _kernel(grid, m, coef, rfft(grid, u.values))
        assert got_div.shape == grid.shape[:-1] + (h,)
        assert np.max(np.abs(got_div - ref_div[..., :h])) <= 1e-12 * bound * grid.points_per_dim**dim
        assert (flux, diss) == pytest.approx((ref_flux, ref_diss), rel=1e-12)

        scale = grid.cell_volume / grid.points_per_dim**dim
        power = np.abs(u_full) ** 2
        ref_bf = (scale * np.sum(k2 ** (m - 1) * power), scale * np.sum(k2 ** (m - 2) * power))
        assert _bf_from_hat(spec, rfft(grid, u.values)) == pytest.approx(ref_bf, rel=1e-12)


class TestUnitRoute:
    """A row whose coefficient is exactly 1 takes its remainder and monitors
    from ``rhs0`` and ``w_g`` of ``_spectrum``; they match the products
    route, which forms the gradient chain g in grid space."""

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("dim,points", [(1, 256), (2, 128)])
    def test_tables_match_the_products_route(self, dim, points, m):
        # white noise carries every mode, the Nyquist-corner ones included
        grid = make_grid(dim, 12.0, points)
        u_hat = rfft(grid, np.random.default_rng(dim * 10 + m).standard_normal(grid.shape))
        table = _spectrum(grid, m)
        div_hat, ref_flux, ref_diss = _kernel(grid, m, np.ones(grid.shape), u_hat)
        ref = (-1.0) ** (m - 1) * div_hat
        assert np.max(np.abs(table.rhs0 * u_hat - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert ref_diss == ref_flux
        power = u_hat.real**2 + u_hat.imag**2
        assert float(np.vdot(table.w_g, power)) == pytest.approx(ref_flux, rel=1e-12)


def _gain_step(dim, m, n, rational):
    """A ``_Step`` of two rows at exponent n on white noise, which carries
    every mode; bf(0) = inf makes every energy bound inf."""
    grid = make_grid(dim, 12.0, 256 if dim == 1 else 64)
    u_hat = rfft(grid, np.random.default_rng(dim * 10 + m).standard_normal(grid.shape))
    configs = [SolverConfig(m=m, path=RegPath(rational, n, "simple"), eps=eps, dt_init=1e-4, t_final=1e-3)
               for eps in (1e-3, 1.0)]
    rows = [solver_module._Row(i, c) for i, c in enumerate(configs)]
    return solver_module._Step(grid, rows, u_hat, np.inf, np.inf)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("dim", [1, 2])
class TestGain:
    """A unit row steps by one multiply with its gain prop (1 + dt (rhs0 +
    lin)), built beside the propagator, and a block of its states is a
    running product of that gain."""

    def test_one_gain_step_is_the_candidate(self, rational, dim, m):
        step = _gain_step(dim, m, 0.0, rational)
        u_hat, spec = step.u_hat, step.spec
        for dt in (1e-4, 3e-5, 1e-4):  # the gain follows dt
            step._propagator([dt, dt])
            ref = solver_module._candidate(dt, u_hat, spec.rhs0 * u_hat + step.lin * u_hat, step.prop,
                                           np.empty_like(u_hat))
            got = solver_module._unit_states(step.gain, u_hat, np.empty_like(u_hat))
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_a_block_is_single_gain_steps(self, rational, dim, m):
        step, k = _gain_step(dim, m, 0.0, rational), 5
        step._propagator([1e-4, 1e-4])
        n = len(step.u_hat)
        block = solver_module._unit_states(step.gain, step.u_hat, np.empty((k * n, *step.u_hat.shape[1:]), complex))
        state = step.u_hat
        for j in range(k):
            state = solver_module._unit_states(step.gain, state, np.empty_like(state))
            assert block[j * n:(j + 1) * n].tobytes() == state.tobytes()

    def test_a_products_batch_builds_no_gain(self, rational, dim, m):
        step = _gain_step(dim, m, 0.2, rational)
        for dt in (1e-5, 5e-6, 1e-5):
            step.advance([dt, dt], [0.0, 0.0])
            assert step.unit == [] and step.gain is None
        step = _gain_step(dim, m, 0.0, rational)
        step.advance([1e-5, 1e-5], [0.0, 0.0])
        assert step.all_unit and step.gain.shape == step.u_hat.shape


def _antidiffusive_first_state(states=1):
    """A coefficient of -1 on the first ``states`` states (the initial one
    alone by default) and 1 after them: each of their steps raises the
    energy in proportion to dt, so it is halved until the rise fits the
    energy guard's tolerance."""
    calls = []

    def coef(path, eps, u, out=None):
        calls.append(1)
        return np.full_like(u, -1.0 if len(calls) <= states else 1.0)

    return coef


class TestScaling:
    @settings(max_examples=20, deadline=None)
    @given(
        k=st.integers(-6, 3), variant=st.sampled_from(("full", "simple")),
        center=st.sampled_from((-2.0, 0.0, 1.5)), halving=st.booleans(),
    )
    def test_linear_flow_commutes_with_power_of_two_scaling(self, grid, rational, k, variant, center, halving):
        # at n = 0 the flow is linear, and scaling by 2^k is exact in floating
        # point, so u -> lambda u holds bit for bit; with ``halving`` the
        # first step is rejected and halved, and since the energy guard's
        # tolerance is relative to bf(0) the scaled run halves it the same way
        lam = 2.0**k
        u = bump(grid, 1.0, 4.0, center=center, steepness=6.0)
        config = SolverConfig(
            m=2, path=RegPath(rational, 0.0, variant), eps=1e-3, dt_init=1e-4, t_final=0.002,
            snapshot_times=(0.001,), report_stride=1,
        )

        def run(values):
            if not halving:
                return solve(Field(grid, values), config)
            with mock.patch.object(solver_module, "reg_coefficient", _antidiffusive_first_state()):
                return solve(Field(grid, values), config)

        base = run(u.values)
        scaled = run(lam * u.values)
        assert (len(base.reports) > 21) == halving  # 20 steps of dt_init without a halving
        assert [r.t for r in scaled.reports] == [r.t for r in base.reports]
        assert len(scaled.snapshots) == len(base.snapshots)
        for a, b in zip(scaled.snapshots, base.snapshots):
            assert a.time_tag == b.time_tag
            assert np.array_equal(a.values, lam * b.values)
        assert [r.bf_energy for r in scaled.reports] == [lam**2 * r.bf_energy for r in base.reports]


class TestTranslation:
    @settings(max_examples=20, deadline=None)
    @given(
        shift=st.integers(-13, 13).filter(bool),
        m=st.sampled_from((2, 3)), variant=st.sampled_from(("full", "simple")),
    )
    def test_flow_commutes_with_cell_shifts(self, grid, u0, rational, shift, m, variant):
        # every operator is a Fourier multiplier or pointwise, so a whole-cell
        # shift of u0 shifts the run; only rounding may differ
        dt = {2: 1e-4, 3: 1e-5}[m]
        config = SolverConfig(
            m=m, path=RegPath(rational, 0.3, variant), eps=1e-2, dt_init=dt, t_final=100 * dt,
        )
        base = solve(u0, config).snapshots[-1].values
        shifted = solve(Field(grid, np.roll(u0.values, shift)), config).snapshots[-1].values
        assert np.max(np.abs(shifted - np.roll(base, shift))) <= 1e-13 * np.max(np.abs(base))


class TestRunInvariants:
    """The invariants every run report must keep, over a few dozen steps."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.floats(0.0, 0.5), variant=st.sampled_from(("full", "simple")), m=st.sampled_from((2, 3)))
    def test_mass_energy_and_dissipation_identity(self, rational, n, variant, m):
        # a Gaussian is resolved on 64 points and negligible past L/2
        grid = make_grid(1, 16.0, 64)
        x = coordinates(grid)[0]
        u = Field(grid, np.exp(-(x**2) / (2.0 * 1.3**2)))
        config = SolverConfig(
            m=m, path=RegPath(rational, n, variant), eps=1e-3, dt_init=1e-4, t_final=3e-3, report_stride=1,
        )
        reports = solve(u, config).reports
        assert len(reports) >= 31
        assert all(r.mass == reports[0].mass for r in reports)
        bf = [r.bf_energy for r in reports]
        assert all(b2 <= b1 + 1e-8 for b1, b2 in zip(bf, bf[1:]))
        assert max(abs(r.dissipation_residual) for r in reports) <= 1e-4 * bf[0]


# a 2-D solve whose flux and dissipation integrals are long enough sums for
# OpenBLAS to split a dot product across two threads
_THREADS_PROBE = """
from polyheat.degeneracy import RegPath, degeneracy_function
from polyheat.gridfield import bump, make_grid
from polyheat.solver import SolverConfig, solve
u0 = bump(make_grid(2, 12.0, 128), 1.0, 4.0, steepness=6.0)
path = RegPath(degeneracy_function("rational"), 0.2, "full")
print(repr(solve(u0, SolverConfig(m=2, path=path, eps=1e-3, dt_init=5e-5, t_final=4e-4)).reports))
"""


def test_reports_do_not_depend_on_the_blas_thread_count():
    src = str(Path(solver_module.__file__).resolve().parents[1])
    reports = []
    for threads in ("1", "2"):
        env = dict(
            os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        )
        run = subprocess.run([sys.executable, "-c", _THREADS_PROBE], env=env, capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        reports.append(run.stdout)
    assert reports[0].startswith("(EnergyReport(")
    assert reports[0] == reports[1]


class TestInterfaceReport:
    def test_positive_bump(self, grid):
        u = bump(grid, 1.0, 4.0, steepness=6.0)
        rep = interface_report(u)
        assert rep.positivity_on_region
        assert rep.sign_change_count == 0
        assert 0.0 < rep.support_measure < 2.0 * grid.half_width

    def test_oscillatory_evolution_changes_sign(self, grid, u0):
        u = phe_solve(u0, 2, 0.01)
        rep = interface_report(u)
        assert rep.sign_change_count >= 2
        assert np.min(u.values) < 0.0

    def test_zero_field_has_no_support(self, grid):
        # the threshold, 1e-8 of a zero peak, admits no entry
        rep = interface_report(Field(grid, np.zeros(grid.shape)))
        assert rep.support_measure == 0.0
        assert rep.sign_change_count == 0
        assert not rep.positivity_on_region
        assert rep.min_on_region == 0.0


def test_energy_csv_columns(tmp_path, u0, rational):
    rep = EnergyReport(0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    path = tmp_path / "energy.csv"
    write_energy_csv(path, [rep])
    lines = path.read_text().splitlines()
    assert lines[0] == "t,mass,bf_energy,bf_lower,flux_l2_accum,dissipation_accum,dissipation_residual"
    assert lines[1] == "0.5,1.0,2.0,3.0,4.0,5.0,6.0"

    # a real trajectory: every cell parses back to the value it was written from
    config = _linear_config(rational, path=RegPath(rational, 0.2, "full"), t_final=0.002, report_stride=5)
    reports = solve(u0, config).reports
    write_energy_csv(path, reports)
    rows = path.read_text().splitlines()[1:]
    assert len(rows) == len(reports) > 2
    for row, r in zip(rows, reports):
        assert [float(cell) for cell in row.split(",")] == list(dataclasses.astuple(r))


# ---------------------------------------------------------------------------
# batches of rows


def _bitwise_equal(a, b) -> bool:
    """Same snapshots to the bit (signed zeros included), reports and run_id."""
    return (
        a.run_id == b.run_id
        and a.reports == b.reports
        and len(a.snapshots) == len(b.snapshots)
        and all(
            x.time_tag == y.time_tag and x.values.tobytes() == y.values.tobytes()
            for x, y in zip(a.snapshots, b.snapshots)
        )
    )


def _sweep_rows(rational):
    """The rows ``homotopy.sweep`` batches for criteria 8 and 9, plus its
    n = 0 control row, on a shorter horizon."""
    from polyheat.homotopy import Schedule, schedule_eval

    schedule = Schedule("eps_of_n", 1.0, rational)
    pairs = [schedule_eval(schedule, n) for n in (1e-1, 3e-2, 1e-2, 3e-3)] + [(0.0, 1.0)]
    return [
        SolverConfig(
            m=2, path=RegPath(rational, n, "simple"), eps=eps, dt_init=1e-4, t_final=0.01, report_stride=10**9,
        )
        for n, eps in pairs
    ]


def _mixed_rows(rational):
    """Full and simple rows, an n = 0 row among them, and three dt_init
    values."""
    base = dict(m=2, t_final=0.002, snapshot_times=(0.00075,), report_stride=3)
    return [
        SolverConfig(path=RegPath(rational, 0.2, "simple"), eps=1e-3, dt_init=1e-4, **base),
        SolverConfig(path=RegPath(rational, 0.3, "full"), eps=1e-2, dt_init=5e-5, **base),
        SolverConfig(path=RegPath(rational, 0.0, "simple"), eps=1.0, dt_init=1e-4, **base),
        SolverConfig(path=RegPath(rational, 0.05, "full"), eps=1e-3, dt_init=2e-4, **base),
        SolverConfig(path=RegPath(rational, 0.1, "simple"), eps=1e-2, dt_init=1e-4, **base),
    ]


def _same_outcome(a, b) -> bool:
    """``_bitwise_equal`` runs, or errors of one type with one message."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return _bitwise_equal(a, b)


def _patched_rows(target, mode):
    """``reg_coefficient`` with the rows on path ``target`` changed.  Each
    state's coefficient is evaluated once, in state order, so the k-th
    occurrence of the target, counted over all calls, is its k-th state
    alone and in any batch: ``"halve"`` sets -1 on the initial state (the
    first step raises the energy and is halved), ``"stiff"`` sets -1e12
    there (no halving helps), and ``"blowup"`` sets inf from the fifth
    state on."""
    real = solver_module.reg_coefficient
    states = []

    def coef(path, eps, u, out=None):
        out = real(path, eps, u, out=out)
        if isinstance(path, RegPath):  # SolverConfig's own sampled-peak check
            return out
        for i, p in enumerate(path):
            if p != target:
                continue
            states.append(1)
            if mode in ("halve", "stiff") and len(states) == 1:
                out[i] = -1.0 if mode == "halve" else -1e12
            elif mode == "blowup" and len(states) >= 5:
                out[i] = np.inf
        return out

    return coef


def _trip_row_1(u0, configs, monkeypatch) -> None:
    """Set the tripwire factor so that row 1 of ``_mixed_rows`` alone trips
    it, on its first step.  sup|u| falls along these flows, so the row with
    the shortest first step (row 1, dt_init 5e-5) has the largest
    first-step ratio sup|u| / sup|u0|; the factor is halfway between it and
    the next largest."""
    peak = float(np.max(np.abs(u0.values)))
    ratios = []
    for config in configs:
        first = dataclasses.replace(config, t_final=config.dt_init, snapshot_times=())
        ratios.append(float(np.max(np.abs(solve(u0, first).snapshots[-1].values))) / peak)
    second, top = sorted(ratios)[-2:]
    assert ratios.index(top) == 1 and second < top < 1.0
    monkeypatch.setattr(solver_module, "_TRIPWIRE_FACTOR", 0.5 * (top + second))


def _inject_rhs0(monkeypatch, index, value) -> None:
    """``solver._rows_spectrum`` with ``rhs0[index]`` set to ``value``: the
    remainder of a unit row carries it, that of a products row does not."""
    real = solver_module._rows_spectrum

    def rows_spectrum(grid, m, rows):
        spec = real(grid, m, rows)
        rhs0 = spec.rhs0.copy()
        rhs0[index] = value
        return spec._replace(rhs0=rhs0)

    monkeypatch.setattr(solver_module, "_rows_spectrum", rows_spectrum)


@pytest.fixture(scope="module")
def mixed_batch(u0, rational):
    return solve(u0, _mixed_rows(rational))


class TestBatch:
    def test_single_config_is_a_batch_of_one(self, u0, rational):
        config = _linear_config(rational, t_final=0.002, report_stride=3)
        (row,) = solve(u0, [config])
        assert _bitwise_equal(row, solve(u0, config))

    def test_sweep_rows_bitwise_equal_to_solo(self, u0, rational):
        configs = _sweep_rows(rational)
        batch = solve(u0, configs)
        assert len(batch) == len(configs) == 5
        for config, row in zip(configs, batch):
            assert _bitwise_equal(row, solve(u0, config))

    def test_two_dimensional_rows_bitwise_equal_to_solo(self, rational):
        grid = make_grid(2, 24.0, 256)
        u = bump(grid, 1.0, 4.0, center=(0.3, -0.2), steepness=6.0)
        base = dict(m=2, t_final=3e-4, snapshot_times=(1e-4,), report_stride=2)
        configs = [
            SolverConfig(path=RegPath(rational, 0.2, "full"), eps=1e-3, dt_init=5e-5, **base),
            SolverConfig(path=RegPath(rational, 0.1, "simple"), eps=1e-2, dt_init=1e-4, **base),
        ]
        for config, row in zip(configs, solve(u, configs)):
            assert _bitwise_equal(row, solve(u, config))

    def test_rows_keep_their_own_dt(self, u0, rational):
        configs = _mixed_rows(rational)
        batch = solve(u0, [dataclasses.replace(c, report_stride=1) for c in configs])
        for config, row in zip(configs, batch):
            solo = solve(u0, dataclasses.replace(config, report_stride=1))
            assert _bitwise_equal(row, solo)
            # every step but the ones clipped onto a target is the row's dt_init
            steps = np.diff([r.t for r in row.reports])
            assert np.count_nonzero(np.abs(steps - config.dt_init) > 1e-12) <= 2
        assert len({len(row.reports) for row in batch}) == 3  # three dt_init, three step counts

    def test_the_unit_row_leaving_first_changes_no_row(self, u0, rational):
        # the n = 0 row, whose coefficient is exactly 1, gets the largest
        # dt_init, so it is done first and leaves the products rows behind
        configs = [dataclasses.replace(c, report_stride=1) for c in _mixed_rows(rational)]
        configs[2] = dataclasses.replace(configs[2], dt_init=4e-4)
        batch = solve(u0, configs)
        assert len(batch[2].reports) < min(len(row.reports) for i, row in enumerate(batch) if i != 2)
        for config, row in zip(configs, batch):
            assert _bitwise_equal(row, solve(u0, config))

    @settings(max_examples=12, deadline=None)
    @given(order=st.permutations(range(5)))
    def test_permuting_rows_changes_no_row(self, u0, rational, mixed_batch, order):
        configs = _mixed_rows(rational)
        permuted = solve(u0, [configs[i] for i in order])
        for i, row in zip(order, permuted):
            assert _bitwise_equal(row, mixed_batch[i])

    def test_a_halving_row_keeps_its_own_step_control(self, u0, rational):
        configs = _mixed_rows(rational)
        target = configs[0].path
        with mock.patch.object(solver_module, "reg_coefficient", _patched_rows(target, "halve")):
            batch = solve(u0, configs)
        for i, config in enumerate(configs):
            with mock.patch.object(solver_module, "reg_coefficient", _patched_rows(target, "halve")):
                solo = solve(u0, config)
            assert _bitwise_equal(batch[i], solo)
        halved = [r.t for r in batch[0].reports]
        assert len(halved) > len(solve(u0, configs[0]).reports)  # the halved row took more steps

    @pytest.mark.parametrize("mode,error,message", [
        ("blowup", BlowupError, r"^non-finite coefficient-gradient product \(blow-up signal\) at t = 0\.0002, dt = 5\.000e-05$"),
        ("stiff", StiffnessError, r"^stiffness failure at t = 0: dt underflowed after 30 halvings"),
    ])
    def test_a_failed_row_leaves_and_the_rest_go_on(self, u0, rational, mode, error, message):
        configs = _mixed_rows(rational)
        target = configs[1].path
        with mock.patch.object(solver_module, "reg_coefficient", _patched_rows(target, mode)):
            batch = solve(u0, configs)
        with mock.patch.object(solver_module, "reg_coefficient", _patched_rows(target, mode)):
            with pytest.raises(error, match=message) as solo_error:
                solve(u0, configs[1])
        assert isinstance(batch[1], error)
        assert str(batch[1]) == str(solo_error.value)
        for i in (0, 2, 3, 4):
            assert _bitwise_equal(batch[i], solve(u0, configs[i]))

    @pytest.mark.parametrize("mode,error", [("halve", None), ("stiff", StiffnessError), ("blowup", BlowupError)])
    def test_the_unit_row_changing_route_changes_no_row(self, u0, rational, mode, error):
        # the n = 0 row's coefficient is 1 but where it is patched: "halve" and
        # "stiff" send its first state down the products route and "blowup"
        # its fifth, beside products rows and after four unit-row passes
        configs = _mixed_rows(rational)
        target = configs[2].path
        with mock.patch.object(solver_module, "reg_coefficient", _patched_rows(target, mode)):
            batch = solve(u0, configs)
        for i, config in enumerate(configs):
            with mock.patch.object(solver_module, "reg_coefficient", _patched_rows(target, mode)):
                solo = solve(u0, [config])[0]
            assert _same_outcome(batch[i], solo)
        if error is None:
            assert len(batch[2].reports) > len(solve(u0, configs[2]).reports)  # it was halved
        else:
            assert isinstance(batch[2], error)

    def test_a_unit_row_blowing_up_leaves_and_the_rest_go_on(self, u0, rational, monkeypatch):
        # a non-finite remainder of the n = 0 row alone trips its blow-up
        # guard, which reads the remainder of a unit row
        _inject_rhs0(monkeypatch, 1, np.inf)
        configs = _mixed_rows(rational)
        batch = solve(u0, configs)
        assert isinstance(batch[2], BlowupError)
        assert str(batch[2]) == f"{solver_module._NONFINITE} at t = 0, dt = 1.000e-04"
        for i, config in enumerate(configs):
            assert _same_outcome(batch[i], solve(u0, [config])[0])

    def test_a_tripped_row_leaves_and_the_rest_go_on(self, u0, rational, monkeypatch):
        configs = _mixed_rows(rational)
        _trip_row_1(u0, configs, monkeypatch)
        batch = solve(u0, configs)
        with pytest.raises(BlowupError, match=r"^boundedness tripwire: .* at t = 5e-05$") as solo_error:
            solve(u0, configs[1])
        assert isinstance(batch[1], BlowupError)
        assert str(batch[1]) == str(solo_error.value)
        for i in (0, 2, 3, 4):
            assert _bitwise_equal(batch[i], solve(u0, configs[i]))

    def test_a_row_blowing_up_beside_a_row_tripping_in_the_same_step(self, u0, rational, monkeypatch):
        # row 1 trips the wire on its first step and the n = 0 row 2 blows up
        # in the same step; the failed row's state stands in for its
        # non-finite candidate, so the tripwire's maximum still sees row 1
        configs = _mixed_rows(rational)
        _trip_row_1(u0, configs, monkeypatch)
        solos = [solve(u0, [config])[0] for config in configs]
        _inject_rhs0(monkeypatch, 1, np.inf)
        batch = solve(u0, configs)
        assert isinstance(batch[2], BlowupError)
        assert str(batch[2]) == f"{solver_module._NONFINITE} at t = 0, dt = 1.000e-04"
        assert isinstance(solos[1], BlowupError)
        for i in (0, 1, 3, 4):
            assert _same_outcome(batch[i], solos[i])

    def test_rows_share_the_horizon(self, u0, rational):
        configs = _mixed_rows(rational)
        with pytest.raises(ValueError, match="must share"):
            solve(u0, [configs[0], dataclasses.replace(configs[1], t_final=0.003)])

    def test_rows_share_f(self, u0, rational):
        configs = _mixed_rows(rational)
        tanh = degeneracy_function("tanh")
        other = dataclasses.replace(configs[1], path=dataclasses.replace(configs[1].path, f=tanh))
        with pytest.raises(ValueError, match="must share f, "):
            solve(u0, [configs[0], other])

    def test_bad_initial_data_fails_every_row(self, grid, rational):
        rough = bump(grid, 1.0, 2.0, steepness=1.0)
        out = solve(rough, _mixed_rows(rational)[:2])
        assert [type(e) for e in out] == [ValueError, ValueError]
        assert all("spectral tail" in str(e) for e in out)


# ---------------------------------------------------------------------------
# blocks of unit-row steps


def _taken_blocks(monkeypatch) -> list:
    """Per ``_Step.advance`` call with more than one state to take (a block)
    from now on, the number of its rows and of the states it kept."""
    real, taken = solver_module._Step.advance, []

    def advance(self, dts, bf, steps=1):
        rows = len(self.rows)
        states, halvings, failures = real(self, dts, bf, steps)
        if steps > 1:
            taken.append((rows, len(states)))
        return states, halvings, failures

    monkeypatch.setattr(solver_module._Step, "advance", advance)
    return taken


def _beside_a_products_row(u, config):
    """The outcome of ``config``'s row in a batch with a products row, where
    no block runs."""
    other = dataclasses.replace(config, path=dataclasses.replace(config.path, n=0.2), eps=1e-3)
    return solve(u, [config, other])[0]


def _non_unit_at(target, state):
    """``reg_coefficient`` with 0.5 on the row of path ``target`` at its
    ``state``-th state (u0 is state 0), counted over all calls as in
    ``_patched_rows``."""
    real, states = solver_module.reg_coefficient, []

    def coef(path, eps, u, out=None):
        out = real(path, eps, u, out=out)
        for i, p in enumerate(path):
            if p == target:
                states.append(1)
                if len(states) == state + 1:
                    out[i] = 0.5
        return out

    return coef


def _raised_at(call):
    """``_unit_states`` with the last row of its ``call``-th state raised by
    1 %, states counted over all calls."""
    real, states = solver_module._unit_states, []

    def unit_states(gain, u_hat, out):
        real(gain, u_hat, out)
        n = len(u_hat)
        for j in range(len(out) // n):
            states.append(1)
            if len(states) == call:
                out[(j + 1) * n - 1] *= 1.01
        return out

    return unit_states


class TestBlock:
    """A batch of unit rows that step at their dt_init takes its steps in
    blocks; every case is bitwise the same row beside a products row, where
    no block runs."""

    @pytest.mark.parametrize("dim,half_width,points,kw", [
        # a snapshot and report steps that land inside a block of up to 64
        pytest.param(1, 24.0, 256, dict(snapshot_times=(0.00234, 0.0051), report_stride=7), id="targets"),
        # 143 steps: two whole blocks and a short one
        pytest.param(1, 24.0, 256, dict(t_final=0.0143), id="short-last-block"),
        # blocks of 5 states, the most that fit the block's bytes
        pytest.param(2, 8.0, 80, dict(t_final=0.002, snapshot_times=(0.00063,), report_stride=9), id="2-D"),
    ])
    def test_matches_the_row_beside_a_products_row(self, rational, monkeypatch, dim, half_width, points, kw):
        grid = make_grid(dim, half_width, points)
        u = bump(grid, 1.0, 4.0, steepness=6.0)
        config = _linear_config(rational, **{"report_stride": 10**6, **kw})
        reference = _beside_a_products_row(u, config)
        taken = _taken_blocks(monkeypatch)
        assert _bitwise_equal(solve(u, config), reference)
        assert max(states for _, states in taken) > 1

    def test_a_tripwire_inside_a_block(self, rational, monkeypatch):
        # the crest between two bumps rises under the fourth-order flow, past
        # 1.006 sup|u0| at step 91, inside the second block
        grid = make_grid(1, 24.0, 256)
        u = Field(grid, sum(bump(grid, 1.0, 4.0, center=c, steepness=6.0).values for c in (-1.25, 1.25)))
        monkeypatch.setattr(solver_module, "_TRIPWIRE_FACTOR", 1.006)
        config = _linear_config(rational, report_stride=10**6)
        reference = _beside_a_products_row(u, config)
        taken = _taken_blocks(monkeypatch)
        with pytest.raises(BlowupError, match=r"^boundedness tripwire: .* at t = 0\.0091$") as solo:
            solve(u, config)
        assert str(solo.value) == str(reference)
        assert taken[:2] == [(1, 64), (1, 26)]

    def test_an_energy_guard_failing_inside_a_block(self, u0, rational, monkeypatch):
        # each step must lower bf by 4.615e-4 bf(0); the 89th lowers it less,
        # at every halving too
        monkeypatch.setattr(solver_module, "_ENERGY_RTOL", -4.615e-4)
        config = _linear_config(rational, report_stride=10**6)
        reference = _beside_a_products_row(u0, config)
        taken = _taken_blocks(monkeypatch)
        with pytest.raises(StiffnessError, match=r"^stiffness failure at t = 0\.0088: ") as solo:
            solve(u0, config)
        assert str(solo.value) == str(reference)
        assert taken[:2] == [(1, 64), (1, 24)]

    @pytest.mark.parametrize("call,taken,halved", [
        # the first state of the second block: the row halves, and the block
        # drops to that one state
        pytest.param(51, [(2, 50), (2, 1)], True, id="first-state"),
        # the third state of the first block: the block ends before it, and
        # the next block takes it again, unraised
        pytest.param(3, [(2, 2), (2, 48)], False, id="later-state"),
    ])
    def test_one_row_failing_the_guard_inside_a_block(self, u0, rational, monkeypatch, call, taken, halved):
        # blocks end at report steps, so alone and as a pair the rows take
        # blocks of 50 states; one state is raised on the last row alone,
        # which fails that row's energy guard, and each row keeps its solo
        # bits
        configs = [_linear_config(rational, eps=eps, report_stride=50) for eps in (1e-3, 1.0)]
        with mock.patch.object(solver_module, "_unit_states", _raised_at(call)):
            solo = solve(u0, configs[1])
        assert _bitwise_equal(solo, solve(u0, configs[1])) != halved
        blocks = _taken_blocks(monkeypatch)
        with mock.patch.object(solver_module, "_unit_states", _raised_at(call)):
            batch = solve(u0, configs)
        assert blocks[:2] == taken
        assert _bitwise_equal(batch[0], solve(u0, configs[0]))
        assert _bitwise_equal(batch[1], solo)

    @pytest.mark.parametrize("state", [1, solver_module._BLOCK_STEPS, solver_module._BLOCK_STEPS + 1])
    def test_a_state_turning_non_unit(self, u0, rational, state):
        # the non-unit state is accepted and passed as a products row; the
        # states a block computed after it are dropped
        config = _linear_config(rational, report_stride=10**6)
        with mock.patch.object(solver_module, "reg_coefficient", _non_unit_at(config.path, state)):
            solo = solve(u0, config)
        with mock.patch.object(solver_module, "reg_coefficient", _non_unit_at(config.path, state)):
            reference = _beside_a_products_row(u0, config)
        assert _bitwise_equal(solo, reference)
        assert not _bitwise_equal(solo, solve(u0, config))

    def test_unit_rows_block_as_soon_as_a_products_row_leaves(self, u0, rational, monkeypatch):
        # the products row trips the wire on its first step and leaves; the
        # two unit rows then take a block on the very next ``advance``: two
        # states, up to their first report step
        mixed = _mixed_rows(rational)
        configs = [mixed[2], mixed[1], dataclasses.replace(mixed[2], eps=1e-3)]
        _trip_row_1(u0, configs, monkeypatch)
        solos = [solve(u0, configs[i]) for i in (0, 2)]
        taken = _taken_blocks(monkeypatch)
        batch = solve(u0, configs)
        assert isinstance(batch[1], BlowupError)
        assert taken[0] == (2, 2)
        assert _bitwise_equal(batch[0], solos[0]) and _bitwise_equal(batch[2], solos[1])

    @pytest.mark.parametrize("dt_inits,shared", [((1e-4, 1e-4), True), ((1e-4, 5e-5), False)])
    def test_unit_rows_share_blocks_at_one_dt(self, u0, rational, monkeypatch, dt_inits, shared):
        # at two dts no block runs until the first row is done and leaves
        configs = [_linear_config(rational, eps=eps, dt_init=dt, report_stride=10**6)
                   for eps, dt in zip((1e-3, 1.0), dt_inits)]
        solos = [solve(u0, config) for config in configs]
        taken = _taken_blocks(monkeypatch)
        for solo, row in zip(solos, solve(u0, configs)):
            assert _bitwise_equal(row, solo)
        assert any(rows == 2 for rows, _ in taken) == shared
        assert max(states for _, states in taken) > 1

    def test_one_coefficient_per_state_and_one_inverse_per_block(self, u0, rational, monkeypatch):
        # dt = 2^-14 sums exactly, so the run takes 1 000 whole steps
        steps = 1000
        config = _linear_config(rational, dt_init=2.0**-14, t_final=steps * 2.0**-14, report_stride=10**9)
        inverses, points = [], []
        irfft_, coef = np.fft.irfft, solver_module.reg_coefficient
        monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: inverses.append(1) or irfft_(*a, **k))
        monkeypatch.setattr(
            solver_module, "reg_coefficient", lambda p, e, u, out=None: points.append(u.size) or coef(p, e, u, out=out)
        )
        traj = solve(u0, config)
        assert traj.snapshots[-1].time_tag == config.t_final
        assert sum(points) == (steps + 1) * u0.grid.points_per_dim
        assert len(inverses) <= steps / 32 + 4


def _address(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


class TestStepBuffers:
    def test_state_spectrum_cycles_through_two_buffers(self, rational):
        grid = make_grid(2, 12.0, 64)
        configs = _mixed_rows(rational)[:3]
        rows = [solver_module._Row(i, c) for i, c in enumerate(configs)]
        # bf(0) = inf makes every energy bound inf
        step = solver_module._Step(grid, rows, rfft(grid, bump(grid, 1.0, 4.0, steepness=6.0).values), np.inf, np.inf)

        def states(steps):
            seen = []
            for _ in range(steps):
                step.advance([1e-5] * len(step.rows), [0.0] * len(step.rows))
                seen.append(_address(step.u_hat))
            return seen

        def work():
            arrays = (step.u, step.rem, step.power, step.s, step.g, step.p, step.prod, step.prop)
            return [_address(a) for a in arrays]

        pair, fixed = (_address(step.u_hat), _address(step.spare)), work()
        assert states(4) == [pair[1], pair[0]] * 2
        assert work() == fixed
        step.drop([1])
        assert step.u_hat.shape[0] == step.spare.shape[0] == step.g.shape[0] == 2
        pair, fixed = (_address(step.u_hat), _address(step.spare)), work()
        assert states(4) == [pair[1], pair[0]] * 2
        assert work() == fixed

    def test_products_step_allocates_at_most_one_and_a_half_grid_arrays(self, rational):
        # the coefficient goes to the step's own array, so past the warm-up
        # a 2-D products step allocates f's values and numpy's complex stage
        # of the inverse, each about one grid array, but not both at once
        grid = make_grid(2, 12.0, 128)
        config = SolverConfig(m=2, path=RegPath(rational, 0.2, "full"), eps=1e-3, dt_init=5e-5, t_final=0.002)
        u_hat0 = rfft(grid, bump(grid, 1.0, 4.0, steepness=6.0).values)
        step = solver_module._Step(grid, [solver_module._Row(0, config)], u_hat0, np.inf, np.inf)
        for _ in range(3):
            step.advance([5e-5], [0.0])
        tracemalloc.start()
        try:
            step.advance([5e-5], [0.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * grid.points_per_dim**2
