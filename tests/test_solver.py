"""Time-integration, monitor, and interface-diagnostic tests."""

import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyheat import solver as solver_module
from polyheat.degeneracy import RegPath, degeneracy_function, f_pow_n
from polyheat.gridfield import (
    Field,
    GridSpec,
    _spectrum,
    band_limited,
    bump,
    coordinates,
    dealias_mask,
    divergence_hat,
    grad_chain,
    integrate,
    k_squared,
    l2_norm,
    make_grid,
    rfft,
    wavevectors,
)
from polyheat.kernel import phe_solve
from polyheat.solver import (
    BlowupError,
    _bf_from_hat,
    EnergyReport,
    SolverConfig,
    StiffnessError,
    bf_energies,
    dissipation_density,
    flux_density,
    interface_report,
    rhs,
    solve,
    step_imex,
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

    def test_rejects_undersized_stabilization(self, rational):
        with pytest.raises(ValueError, match="stabilization"):
            _linear_config(rational, c=0.5)

    def test_default_stabilization_covers_bound(self, rational):
        config = SolverConfig(
            m=2, path=RegPath(rational, 0.2, "full"), eps=1e-3, dt_init=1e-4, t_final=0.1
        )
        bound = f_pow_n(rational, 0.2, 1e-3) + 1.0
        assert config.c == pytest.approx(1.1 * bound, rel=1e-12)


class TestRhs:
    def test_linear_reduction_matches_multiplier(self, rational):
        grid = make_grid(1, 20.0, 128)
        u = band_limited(bump(grid, 1.0, 4.0, steepness=6.0))
        config = _linear_config(rational)
        out = rhs(u, config)
        pure = np.fft.ifftn(-(k_squared(grid) ** 2) * np.fft.fftn(u.values)).real
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
    def test_one_step_order_two_against_exact(self, grid, rational):
        x = np.broadcast_to(coordinates(grid)[0], grid.shape)
        gauss = Field(grid, np.exp(-(x**2) / 2.0))
        config = _linear_config(rational)
        errs = []
        for dt in (2e-6, 1e-6):
            stepped = step_imex(gauss, dt, config)
            exact = phe_solve(gauss, 2, dt)
            errs.append(l2_norm(Field(grid, stepped.values - exact.values)))
        assert np.log2(errs[0] / errs[1]) >= 1.9

    def test_mass_preserved_per_step(self, u0, rational):
        # the zero mode is untouched in the spectral state; the physical
        # round-trip only adds summation rounding
        config = SolverConfig(
            m=2, path=RegPath(rational, 0.3, "full"), eps=1e-2, dt_init=1e-4, t_final=0.01
        )
        out = step_imex(u0, 1e-4, config)
        assert integrate(out) == pytest.approx(integrate(u0), rel=1e-13)

    def test_zero_fixed_point(self, grid, rational):
        z = Field(grid, np.zeros(grid.shape))
        out = step_imex(z, 1e-3, _linear_config(rational))
        assert np.max(np.abs(out.values)) == 0.0


class TestBfEnergies:
    def test_zero_field(self, grid):
        rep = bf_energies(Field(grid, np.zeros(grid.shape)), 2)
        assert rep.bf_energy == rep.bf_lower == rep.mass == 0.0

    def test_m3_against_laplacian_route(self, grid, u0):
        from polyheat.gridfield import laplacian_power

        rep = bf_energies(u0, 3)
        lap = laplacian_power(u0, 1)
        direct = integrate(Field(grid, lap.values**2))
        assert abs(rep.bf_energy - direct) <= 1e-12 * max(1.0, direct)

    def test_m2_against_integration_by_parts(self, grid, u0):
        from polyheat.gridfield import laplacian_power

        rep = bf_energies(u0, 2)
        parts = -integrate(Field(grid, u0.values * laplacian_power(u0, 1).values))
        assert abs(rep.bf_energy - parts) <= 1e-12 * max(1.0, parts)


class TestFlux:
    def test_zero_field_unchanged(self, grid, rational):
        config = _linear_config(rational)
        z = Field(grid, np.zeros(grid.shape))
        assert flux_density(z, config) == 0.0

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
        for k in range(steps):
            nxt = phe_solve(u, 2, dt, check_decay=False)
            running += 0.5 * dt * (flux_density(u, config) + flux_density(nxt, config))
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
        raw = dissipation_density(u0, raw_config)  # coefficient identically 1
        weighted = dissipation_density(u0, config)
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
        assert all(b2 <= b1 + config.energy_tol for b1, b2 in zip(bf, bf[1:]))
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

    def test_stiffness_failure_after_halvings(self, u0, rational):
        config = _linear_config(rational, report_stride=10**6)
        # no step can pass a negative tolerance; the constructor rejects
        # one, so it is set past the check
        object.__setattr__(config, "energy_tol", -1.0)
        with pytest.raises(StiffnessError, match="30 halvings") as info:
            solve(u0, config)
        assert f"dt = {config.dt_init * 2.0**-30:.3e}" in str(info.value)

    def test_blowup_names_t_and_dt(self, u0, rational, monkeypatch):
        config = _linear_config(rational, report_stride=10**6)
        monkeypatch.setattr(solver_module, "reg_coefficient", lambda path, eps, u: np.full_like(u, np.inf))
        with pytest.raises(BlowupError, match=r"non-finite .* at t = 0, dt = 1\.000e-04"):
            solve(u0, config)

    @pytest.mark.parametrize("dim,half_width,points", [(1, 24.0, 256), (2, 12.0, 128)])
    def test_real_transforms_per_step(self, rational, monkeypatch, dim, half_width, points):
        # no complex transform at all; per accepted step one inverse of the
        # new state, dim for its chain and dim for the next divergence, on
        # top of 3 + dim at set-up (tail check, u0 there and back, first
        # chain); with the tables built, the grid is hashed a fixed number
        # of times per run, not per step
        grid = make_grid(dim, half_width, points)
        u = bump(grid, 1.0, 4.0, steepness=6.0)

        def config(steps):
            return _linear_config(rational, t_final=steps * 1e-4, dealias=False, report_stride=1)

        solve(u, config(1))  # builds the cached tables
        calls = Counter()
        for name in ("fftn", "ifftn", "rfftn", "irfftn"):
            fn = getattr(np.fft, name)
            monkeypatch.setattr(np.fft, name, lambda *a, _f=fn, _n=name, **k: calls.update([_n]) or _f(*a, **k))
        grid_hash = GridSpec.__hash__
        hashes = []
        monkeypatch.setattr(GridSpec, "__hash__", lambda self: hashes.append(1) or grid_hash(self))
        counted = []
        for steps in (4, 8):
            calls.clear()
            hashes.clear()
            traj = solve(u, config(steps))
            assert len(traj.reports) == steps + 1  # no halving
            assert calls["fftn"] == calls["ifftn"] == 0
            assert calls["rfftn"] + calls["irfftn"] == 3 + dim + (1 + 2 * dim) * steps
            counted.append(len(hashes))
        assert counted[0] == counted[1]

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("dealias", [True, False])
    def test_one_step_solve_is_step_imex(self, u0, rational, m, dealias):
        # solve and step_imex share the spectral kernel, so a one-step run
        # ends on exactly the raw step
        config = SolverConfig(
            m=m, path=RegPath(rational, 0.2, "full"), eps=1e-3, dt_init=1e-5,
            t_final=1e-5, dealias=dealias,
        )
        final = solve(u0, config).snapshots[-1]
        assert final.time_tag == 1e-5
        assert np.array_equal(final.values, step_imex(u0, 1e-5, config).values)

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
        bound = config.c * np.max(k_squared(u.grid)) ** m * np.max(np.abs(u.values))
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
        k2 = k_squared(grid)
        k_odd = wavevectors(grid, odd=True)
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
            ref_div += 1j * ki * (np.where(dealias_mask(grid), ch, 0.0) if dealias else ch)
        got_div = divergence_hat(spec, comps, dealias)
        assert got_div.shape == grid.shape[:-1] + (h,)
        assert np.max(np.abs(got_div - ref_div[..., :h])) <= 1e-12 * bound * grid.points_per_dim**dim

        scale = grid.cell_volume / grid.points_per_dim**dim
        power = np.abs(u_full) ** 2
        ref_bf = (scale * np.sum(k2 ** (m - 1) * power), scale * np.sum(k2 ** (m - 2) * power))
        assert _bf_from_hat(spec, rfft(grid, u.values)) == pytest.approx(ref_bf, rel=1e-12)


class TestScaling:
    @settings(max_examples=20, deadline=None)
    @given(
        k=st.integers(-6, 3), variant=st.sampled_from(("full", "simple")),
        center=st.sampled_from((-2.0, 0.0, 1.5)),
    )
    def test_linear_flow_commutes_with_power_of_two_scaling(self, grid, rational, k, variant, center):
        # at n = 0 the flow is linear, and scaling by 2^k is exact in floating
        # point, so u -> lambda u holds bit for bit
        lam = 2.0**k
        u = bump(grid, 1.0, 4.0, center=center, steepness=6.0)
        config = SolverConfig(
            m=2, path=RegPath(rational, 0.0, variant), eps=1e-3, dt_init=1e-4, t_final=0.002,
            snapshot_times=(0.001,), report_stride=1,
        )
        base = solve(u, config)
        scaled = solve(Field(grid, lam * u.values), config)
        assert len(scaled.snapshots) == len(base.snapshots)
        for a, b in zip(scaled.snapshots, base.snapshots):
            assert a.time_tag == b.time_tag
            assert np.array_equal(a.values, lam * b.values)
        assert [r.bf_energy for r in scaled.reports] == [lam**2 * r.bf_energy for r in base.reports]


class TestInterfaceReport:
    def test_positive_bump(self, grid):
        u = bump(grid, 1.0, 4.0, steepness=6.0)
        rep = interface_report(u, region_half_width=1.0)
        assert rep.positivity_on_region
        assert rep.sign_change_count == 0
        assert 0.0 < rep.support_measure < grid.box_volume

    def test_oscillatory_evolution_changes_sign(self, grid, u0):
        u = phe_solve(u0, 2, 0.01)
        rep = interface_report(u)
        assert rep.sign_change_count >= 2
        assert np.min(u.values) < 0.0

    def test_threshold_must_be_positive(self, grid):
        with pytest.raises(ValueError):
            interface_report(Field(grid, np.zeros(grid.shape)), threshold=0.0)


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
