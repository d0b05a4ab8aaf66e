"""Time-integration, monitor, and interface-diagnostic tests."""

import dataclasses
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyheat import solver as solver_module
from polyheat.degeneracy import RegPath, degeneracy_function, f_pow_n
from polyheat.gridfield import (
    Field,
    GridSpec,
    _rows_spectrum,
    _spectrum,
    bump,
    coordinates,
    divergence_hat,
    grad_chain,
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
    """|xi|^2, the per-axis xi with each Nyquist entry zeroed, and the 2/3-rule
    mask on the full grid-shaped spectrum in FFT order: the complex-FFT
    reference's own layout, independent of the package's half-spectrum table."""
    n = grid.points_per_dim
    xi = np.meshgrid(*[2.0 * np.pi * np.fft.fftfreq(n, d=grid.dx)] * grid.dim, indexing="ij")
    k = np.meshgrid(*[np.rint(np.fft.fftfreq(n) * n)] * grid.dim, indexing="ij")
    xi_odd = [np.where(kd == -(n // 2), 0.0, x) for x, kd in zip(xi, k)]
    band = np.logical_and.reduce([np.abs(kd) <= n // 3 for kd in k])
    return sum(x**2 for x in xi), xi_odd, band


def _band_limited(f):
    """Project onto the 2/3-rule band (zero the top-third modes), where the
    dealiased product rules are exact no-ops."""
    spec = _spectrum(f.grid, 1)
    return Field(f.grid, irfft(f.grid, np.where(spec.band, rfft(f.grid, f.values), 0.0)), f.time_tag)


def _one_step(u, dt, config):
    """The final state of a solve that takes the single step dt."""
    traj = solve(u, dataclasses.replace(config, dt_init=dt, t_final=dt, report_stride=1))
    assert len(traj.reports) == 2  # the step was accepted, not halved
    return traj.snapshots[-1]


def _pass(u, config):
    """The solver's per-state pass on u, as a batch of one row: (products,
    flux, dissipation)."""
    spec = _spectrum(u.grid, config.m)
    u_rows, u_hat_rows = u.values[None], rfft(u.grid, u.values)[None]
    p, flux, diss = solver_module._pass(spec, (config.path,), (config.eps,), u_rows, u_hat_rows)
    return p, flux[0], diss[0]


def rhs(u, config):
    """(-1)^(m-1) div(coef(u) grad Delta^(m-1) u): the divergence of the pass's products."""
    p, _, _ = _pass(u, config)
    div_hat = solver_module._rhs_hat(_rows_spectrum(u.grid, config.m, 1), config.m, config.dealias, p)
    return Field(u.grid, irfft(u.grid, div_hat[0]))


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
        k2, _, _ = _full_wavenumbers(grid)
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
        # round-trip only adds summation rounding.  Undealiased: the 2/3 cut
        # of this product leaves 1.8e-8 in the boundary shell after the step,
        # which the solve's snapshot guard rejects
        config = SolverConfig(
            m=2, path=RegPath(rational, 0.3, "full"), eps=1e-2, dt_init=1e-4, t_final=0.01,
            dealias=False,
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
            t_final=0.02, dealias=False, report_stride=10,
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
                t_final=0.05, dealias=False, report_stride=10**6,
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
            rational, t_final=t_final, snapshot_times=snapshot_times, dealias=False, report_stride=10**6
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
                t_final=0.01, dealias=False, report_stride=10**6,
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

    def test_blowup_names_t_and_dt(self, u0, rational, monkeypatch):
        config = _linear_config(rational, report_stride=10**6)
        monkeypatch.setattr(solver_module, "reg_coefficient", lambda path, eps, u: np.full_like(u, np.inf))
        with pytest.raises(BlowupError, match=r"non-finite .* at t = 0, dt = 1\.000e-04"):
            solve(u0, config)

    def test_tripwire_names_factor_and_t(self, u0, rational, monkeypatch):
        # the first accepted state keeps about sup|u0|, so a factor of 1/2 trips
        monkeypatch.setattr(solver_module, "_TRIPWIRE_FACTOR", 0.5)
        message = r"^boundedness tripwire: sup\|u\| = 1 exceeds 0\.5 \* sup\|u0\| = 0\.5 at t = 0\.0001$"
        with pytest.raises(BlowupError, match=message):
            solve(u0, _linear_config(rational, report_stride=10**6))

    @pytest.mark.parametrize("dim,half_width,points", [(1, 24.0, 256), (2, 12.0, 128)])
    def test_real_transforms_per_step(self, rational, monkeypatch, dim, half_width, points):
        # no complex transform at all; per accepted step one inverse of the
        # new state, dim for its chain and dim for the next divergence, on
        # top of 3 + dim at set-up (tail check, u0 there and back, first
        # chain); one coefficient per accepted state, the initial one
        # included; with the tables built, the grid is hashed a fixed number
        # of times per run, not per step
        grid = make_grid(dim, half_width, points)
        u = bump(grid, 1.0, 4.0, steepness=6.0)

        def config(steps):
            return _linear_config(rational, t_final=steps * 1e-4, dealias=False, report_stride=1)

        solve(u, config(1))  # builds the cached tables
        calls = Counter()
        real = ("rfft", "irfft", "rfftn", "irfftn")
        for name in ("fft", "ifft", "fftn", "ifftn") + real:
            fn = getattr(np.fft, name)
            monkeypatch.setattr(np.fft, name, lambda *a, _f=fn, _n=name, **k: calls.update([_n]) or _f(*a, **k))
        coef = solver_module.reg_coefficient
        monkeypatch.setattr(
            solver_module, "reg_coefficient", lambda *a: calls.update(["coef"]) or coef(*a)
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
            assert sum(calls[n] for n in real) == 3 + dim + (1 + 2 * dim) * steps
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
    @given(data=st.data(), dim=st.sampled_from((1, 2)), dealias=st.booleans())
    def test_divergence_zero_mode_is_exactly_zero(self, data, dim, dealias):
        comps = [data.draw(_low_mode_field(dim)).values for _ in range(dim)]
        div_hat = divergence_hat(_spectrum(_PROPERTY_GRIDS[dim], 2), comps, dealias)
        assert div_hat[(0,) * dim] == 0.0

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(), dim=st.sampled_from((1, 2)), m=st.sampled_from((2, 3)),
        dealias=st.booleans(), shift=st.integers(-40, 40),
    )
    def test_rhs_commutes_with_shift(self, rational, data, dim, m, dealias, shift):
        u = data.draw(_low_mode_field(dim))
        config = SolverConfig(
            m=m, path=RegPath(rational, 0.3, "full"), eps=0.1, dt_init=1e-4, t_final=0.01,
            dealias=dealias,
        )
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
    @given(data=st.data(), dim=st.sampled_from((1, 2)), m=st.sampled_from((2, 3)), dealias=st.booleans())
    def test_matches_complex_reference(self, data, dim, m, dealias):
        u = _nyquist_field(data, dim)
        grid = u.grid
        spec = _spectrum(grid, m)
        k2, k_odd, band = _full_wavenumbers(grid)
        h = grid.points_per_dim // 2 + 1
        bound = np.max(k2) ** m * np.max(np.abs(u.values))

        u_full = np.fft.fftn(u.values)
        ref_chain = [np.fft.ifftn(1j * ki * (-k2) ** (m - 1) * u_full).real for ki in k_odd]
        for got, ref in zip(grad_chain(spec, rfft(grid, u.values)), ref_chain):
            assert np.max(np.abs(got - ref)) <= 1e-12 * bound

        comps = [u.values] + [_nyquist_field(data, dim).values for _ in range(dim - 1)]
        ref_div = np.zeros(grid.shape, dtype=complex)
        for ki, c in zip(k_odd, comps):
            ch = np.fft.fftn(c)
            ref_div += 1j * ki * (np.where(band, ch, 0.0) if dealias else ch)
        got_div = divergence_hat(spec, comps, dealias)
        assert got_div.shape == grid.shape[:-1] + (h,)
        assert np.max(np.abs(got_div - ref_div[..., :h])) <= 1e-12 * bound * grid.points_per_dim**dim

        scale = grid.cell_volume / grid.points_per_dim**dim
        power = np.abs(u_full) ** 2
        ref_bf = (scale * np.sum(k2 ** (m - 1) * power), scale * np.sum(k2 ** (m - 2) * power))
        assert _bf_from_hat(spec, rfft(grid, u.values)) == pytest.approx(ref_bf, rel=1e-12)


def _antidiffusive_first_state():
    """A coefficient of -1 on the initial state and 1 after it: the first
    step raises the energy in proportion to dt, so it is halved until the
    rise fits the energy guard's tolerance."""
    calls = []

    def coef(path, eps, u):
        calls.append(1)
        return np.full_like(u, -1.0 if len(calls) == 1 else 1.0)

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
        # shift of u0 shifts the run; only rounding may differ.  dealias is
        # off because with the 2/3 rule the boundary-shell guard fires before
        # t = 0.01 at m = 2 (1.7e-8)
        dt = {2: 1e-4, 3: 1e-5}[m]
        config = SolverConfig(
            m=m, path=RegPath(rational, 0.3, variant), eps=1e-2, dt_init=dt, t_final=100 * dt, dealias=False,
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
            m=m, path=RegPath(rational, n, variant), eps=1e-3, dt_init=1e-4, t_final=3e-3,
            dealias=False, report_stride=1,
        )
        reports = solve(u, config).reports
        assert len(reports) >= 31
        assert all(r.mass == reports[0].mass for r in reports)
        bf = [r.bf_energy for r in reports]
        assert all(b2 <= b1 + 1e-8 for b1, b2 in zip(bf, bf[1:]))
        assert max(abs(r.dissipation_residual) for r in reports) <= 1e-4 * bf[0]


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
            m=2, path=RegPath(rational, n, "simple"), eps=eps, dt_init=1e-4, t_final=0.01,
            dealias=False, report_stride=10**9,
        )
        for n, eps in pairs
    ]


def _mixed_rows(rational):
    """Full and simple rows, an n = 0 row among them, and three dt_init
    values."""
    base = dict(m=2, t_final=0.002, dealias=False, snapshot_times=(0.00075,), report_stride=3)
    return [
        SolverConfig(path=RegPath(rational, 0.2, "simple"), eps=1e-3, dt_init=1e-4, **base),
        SolverConfig(path=RegPath(rational, 0.3, "full"), eps=1e-2, dt_init=5e-5, **base),
        SolverConfig(path=RegPath(rational, 0.0, "simple"), eps=1.0, dt_init=1e-4, **base),
        SolverConfig(path=RegPath(rational, 0.05, "full"), eps=1e-3, dt_init=2e-4, **base),
        SolverConfig(path=RegPath(rational, 0.1, "simple"), eps=1e-2, dt_init=1e-4, **base),
    ]


def _patched_rows(target, mode):
    """``reg_coefficient`` with the rows on path ``target`` changed.  Every
    live row takes one step per batch step, so the k-th call that holds the
    target sees its k-th state alone and in any batch: ``"halve"`` sets -1
    on the initial state (the first step raises the energy and is halved),
    ``"stiff"`` sets -1e12 there (no halving helps), and ``"blowup"`` sets
    inf from the fifth state on."""
    real = solver_module.reg_coefficient
    calls = []

    def coef(path, eps, u):
        out = real(path, eps, u)
        if isinstance(path, RegPath):  # SolverConfig's own sampled-peak check
            return out
        if target in path:
            calls.append(1)
        for i, p in enumerate(path):
            if p != target:
                continue
            if mode in ("halve", "stiff") and len(calls) == 1:
                out[i] = -1.0 if mode == "halve" else -1e12
            elif mode == "blowup" and len(calls) >= 5:
                out[i] = np.inf
        return out

    return coef


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
        base = dict(m=2, t_final=3e-4, dealias=False, snapshot_times=(1e-4,), report_stride=2)
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

    def test_a_tripped_row_leaves_and_the_rest_go_on(self, u0, rational, monkeypatch):
        # sup|u| falls along these flows, so the row with the shortest first
        # step (row 1, dt_init 5e-5) has the largest first-step ratio
        # sup|u| / sup|u0|; a factor between it and the next largest trips
        # row 1 alone
        configs = _mixed_rows(rational)
        peak = float(np.max(np.abs(u0.values)))
        ratios = []
        for config in configs:
            first = dataclasses.replace(config, t_final=config.dt_init, snapshot_times=())
            ratios.append(float(np.max(np.abs(solve(u0, first).snapshots[-1].values))) / peak)
        second, top = sorted(ratios)[-2:]
        assert ratios.index(top) == 1 and second < top < 1.0
        monkeypatch.setattr(solver_module, "_TRIPWIRE_FACTOR", 0.5 * (top + second))
        batch = solve(u0, configs)
        with pytest.raises(BlowupError, match=r"^boundedness tripwire: .* at t = 5e-05$") as solo_error:
            solve(u0, configs[1])
        assert isinstance(batch[1], BlowupError)
        assert str(batch[1]) == str(solo_error.value)
        for i in (0, 2, 3, 4):
            assert _bitwise_equal(batch[i], solve(u0, configs[i]))

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

