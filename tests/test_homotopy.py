"""Schedules, sweeps, the Duhamel correction, and the branching residual."""

import json
import math

import numpy as np
import pytest

from polyheat.degeneracy import RegPath, degeneracy_function, f_pow_n, theta
from polyheat.gridfield import Field, bump, l2_norm, make_grid
from polyheat.homotopy import (
    ConvergenceRow,
    Schedule,
    ScheduleRangeError,
    branching_residual,
    correction_phi,
    linear_trajectory,
    path_dependence_report,
    perturbation_smallness_report,
    resolve_phi_sign,
    schedule_eval,
    sweep,
    very_weak_residual,
    write_plot_data,
    write_summary_json,
    write_table_csv,
)
from polyheat.kernel import phe_solve
from polyheat.solver import SolverConfig, solve


@pytest.fixture(scope="module")
def rational():
    return degeneracy_function("rational")


@pytest.fixture(scope="module")
def grid():
    return make_grid(1, 24.0, 256)


@pytest.fixture(scope="module")
def u0(grid):
    return bump(grid, 1.0, 4.0, steepness=6.0)


@pytest.fixture(scope="module")
def small_sweep(u0, rational):
    sch = Schedule("eps_of_n", 1.0, rational)
    return sweep(
        u0, 2, rational, sch, 0.1, [0.0, 1e-1, 3e-2, 1e-2],
        dt_init=5e-5, clamp_floor=1e-14,
    )


class TestSchedule:
    def test_eps_of_n_closed_form(self, rational):
        sch = Schedule("eps_of_n", 1.0, rational)
        n, eps = schedule_eval(sch, 0.01)
        target = math.exp(-10.0)
        assert n == 0.01
        assert eps == pytest.approx(target / (1.0 - target), rel=1e-12)
        assert n * abs(math.log(rational(eps))) == pytest.approx(0.1, rel=1e-12)

    def test_product_scaling_law(self, rational):
        # the coupling product halves when n quarters (= c sqrt(n)), exactly
        sch = Schedule("eps_of_n", 1.0, rational)
        prods = []
        for n in (0.04, 0.01):
            n_eff, eps = schedule_eval(sch, n)
            prods.append(n_eff * abs(math.log(rational(eps))))
        assert prods[0] == pytest.approx(2.0 * prods[1], rel=1e-10)
        assert prods[1] == pytest.approx(0.1, rel=1e-10)

    def test_n_of_eps_example(self, rational):
        sch = Schedule("n_of_eps", 1.0, rational)
        n, eps = schedule_eval(sch, 1e-6)
        assert abs(math.log(rational(1e-6))) == pytest.approx(13.8155, abs=1e-3)
        assert n == pytest.approx(0.26905, abs=1e-4)
        prods = []
        for e in (1e-4, 1e-6, 1e-8):
            n_e, _ = schedule_eval(sch, e)
            prods.append(n_e * abs(math.log(rational(e))))
        assert prods[0] < prods[1] < prods[2]
        assert prods[1] == pytest.approx(3.717, abs=1e-3)

    def test_out_of_range(self, rational):
        sch = Schedule("eps_of_n", 1.0, rational)
        with pytest.raises(ScheduleRangeError, match="out of range"):
            schedule_eval(sch, 1e-12)
        with pytest.raises(ScheduleRangeError):
            schedule_eval(sch, -0.1)

    def test_sample_point_trend_validation(self, rational):
        Schedule("eps_of_n", 1.0, rational, sample_points=(1e-3, 1e-2, 1e-1))
        Schedule("n_of_eps", 1.0, rational, sample_points=(1e-6, 1e-4, 1e-2))
        with pytest.raises(ValueError):
            Schedule("bad_kind", 1.0, rational)

    def test_power_kind_inverse_route(self):
        f = degeneracy_function("power", kappa=2.0)
        sch = Schedule("eps_of_n", 1.0, f)
        n, eps = schedule_eval(sch, 0.04)
        assert f(eps) == pytest.approx(math.exp(-5.0), rel=1e-12)


class TestCorrectionPhi:
    def test_constant_state_gives_zero(self, grid, rational):
        snaps = [Field(grid, np.full(grid.shape, 0.8), t) for t in np.linspace(0.0, 0.1, 11)]
        phi = correction_phi(snaps, 2, rational, 0.1, time_nodes=11)
        assert np.max(np.abs(phi.values)) <= 1e-14
        assert phi.clamped_fraction == 0.0

    def test_time_zero_is_empty_integral(self, u0, rational):
        snaps = [u0]
        phi = correction_phi(snaps, 2, rational, 0.0, time_nodes=2)
        assert np.max(np.abs(phi.values)) == 0.0

    def test_quadrature_node_convergence(self, u0, rational):
        # the Duhamel endpoint limits uniform trapezoid to ~O(h^(4/3)), so
        # the 1e-4 doubling criterion is reached around 641 nodes
        vals = {}
        for nodes in (641, 1281):
            traj = linear_trajectory(u0, 2, np.linspace(0.0, 0.1, nodes))
            vals[nodes] = correction_phi(traj, 2, rational, 0.1, time_nodes=nodes, clamp_floor=1e-14)
        gap = l2_norm(Field(u0.grid, vals[1281].values - vals[641].values))
        assert gap <= 1e-4 * l2_norm(Field(u0.grid, vals[1281].values))

    def test_missing_node_rejected(self, u0, rational):
        traj = linear_trajectory(u0, 2, np.linspace(0.0, 0.1, 5))
        with pytest.raises(ValueError, match="lacks a snapshot"):
            correction_phi(traj, 2, rational, 0.1, time_nodes=11)

    def test_clamp_guard_fires(self, u0, rational):
        traj = linear_trajectory(u0, 2, np.linspace(0.0, 0.1, 11))
        with pytest.raises(RuntimeError, match="log-singularity dominates"):
            correction_phi(traj, 2, rational, 0.1, time_nodes=11, clamp_floor=1e-2)


class TestBranchingResidual:
    def test_zero_n_zero_gap(self, u0):
        lin = phe_solve(u0, 2, 0.05)
        out = branching_residual(lin, lin, None, 0.0)
        assert out.linear_gap == 0.0
        assert out.remainder_ratio == 0.0

    def test_sign_resolution_and_ratio_decrease(self, small_sweep):
        ratios = [r.correction_gap / r.n for r in small_sweep.rows if r.n > 0]
        assert small_sweep.sign_of_phi == -1
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_ablated_control_bounded_below(self, small_sweep, u0, rational):
        traj = linear_trajectory(u0, 2, np.linspace(0.0, 0.1, 41))
        phi = correction_phi(traj, 2, rational, 0.1, clamp_floor=1e-14)
        phi_norm = l2_norm(Field(u0.grid, phi.values))
        for row in small_sweep.rows:
            if row.n > 0:
                assert row.l2_gap / row.n >= 0.5 * phi_norm


class TestSweep:
    def test_gaps_strictly_decrease(self, small_sweep):
        gaps = [r.l2_gap for r in small_sweep.rows if r.n > 0]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_zero_row_at_discretization_floor(self, small_sweep):
        zero_rows = [r for r in small_sweep.rows if r.n == 0.0]
        assert len(zero_rows) == 1
        assert zero_rows[0].l2_gap <= 1e-6

    def test_rows_sorted_descending(self, small_sweep):
        ns = [r.n for r in small_sweep.rows]
        assert ns == sorted(ns, reverse=True)

    def test_slope_near_one(self, small_sweep):
        assert 0.7 <= small_sweep.slope <= 1.3

    def test_failed_row_continues(self, u0, rational):
        sch = Schedule("eps_of_n", 1.0, rational)
        table = sweep(
            u0, 2, rational, sch, 0.1, [1e-1, 1e-14],
            dt_init=1e-4, clamp_floor=1e-14,
        )
        by_status = {r.status.split(":")[0] for r in table.rows}
        assert by_status == {"ok", "failed"}

    def test_serialization(self, tmp_path, small_sweep):
        write_table_csv(tmp_path / "t.csv", small_sweep)
        write_summary_json(tmp_path / "s.json", small_sweep)
        write_plot_data(tmp_path / "p.csv", small_sweep)
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[0] == "n,eps,t_eval,l2_gap,sup_gap,correction_gap,status"
        assert len(lines) == 1 + len(small_sweep.rows)
        summary = json.loads((tmp_path / "s.json").read_text())
        assert set(summary) >= {"slope", "slope_ci", "sign_of_phi", "clamped_fraction", "schedule"}
        plot = (tmp_path / "p.csv").read_text().splitlines()
        assert plot[0] == "log10_n,log10_l2_gap"
        assert len(plot) == 1 + sum(1 for r in small_sweep.rows if r.n > 0)


class TestPerturbationReport:
    def test_schedule_product_and_sups(self, u0, rational):
        n = 1e-2
        sch = Schedule("eps_of_n", 1.0, rational)
        _, eps = schedule_eval(sch, n)
        traj = linear_trajectory(u0, 2, np.linspace(0.0, 0.1, 6))
        rep = perturbation_smallness_report(traj, rational, n, eps, thresholds=(1e-2, 1e-1))
        assert rep.n_ln_f_eps == pytest.approx(0.1, rel=1e-10)
        # Theta is monotone decreasing in |u|, so the far-set sup obeys the
        # threshold bound and the near-set sup is attained at u = 0
        path = RegPath(rational, n, "simple")
        for t_i, far in zip(rep.thresholds, rep.sup_theta_far):
            u_edge = math.sqrt(max(t_i - eps**2, 0.0))
            assert far <= float(theta(path, eps, u_edge)) + 1e-12
        assert rep.theta_at_zero == pytest.approx(1.0 - f_pow_n(rational, n, eps), rel=1e-12)
        assert max(rep.sup_theta_degenerate) <= rep.theta_at_zero + 1e-12


class TestVeryWeakResidual:
    def test_vanishes_for_linear_flow(self, u0):
        # second-order time quadrature: the identity residual shrinks 4x per
        # node doubling and sits well below 1e-6 by 161 nodes
        fine = very_weak_residual(linear_trajectory(u0, 2, np.linspace(0.0, 0.1, 161)), 2)
        coarse = very_weak_residual(linear_trajectory(u0, 2, np.linspace(0.0, 0.1, 81)), 2)
        assert fine <= 1e-6
        assert coarse / fine >= 3.5

    def test_one_transform_per_snapshot_and_test_function(self, u0, monkeypatch):
        snaps = linear_trajectory(u0, 2, np.linspace(0.0, 0.1, 21))
        calls = []
        for name in ("fftn", "rfftn"):  # every forward transform, complex or real
            forward = getattr(np.fft, name)
            monkeypatch.setattr(
                np.fft, name, lambda *a, _f=forward, **k: calls.append(1) or _f(*a, **k)
            )
        very_weak_residual(snaps, 2, mode_count=3)
        assert len(calls) == len(snaps) + 2 * 3

    def test_decreases_along_schedule(self, u0, rational):
        sch = Schedule("eps_of_n", 1.0, rational)
        resids = []
        for n in (1e-1, 1e-2):
            n_eff, eps = schedule_eval(sch, n)
            config = SolverConfig(
                m=2, path=RegPath(rational, n_eff, "simple"), eps=eps, dt_init=1e-4,
                t_final=0.1, dealias=False, report_stride=10**6,
                snapshot_times=tuple(np.linspace(0.005, 0.1, 20)),
            )
            resids.append(very_weak_residual(solve(u0, config), 2))
        assert resids[1] < resids[0]


class TestPathDependence:
    def test_report_runs_and_reports(self, u0, rational):
        rep = path_dependence_report(u0, 2, rational, 1e-2, 1e-3, 0.02, dt_init=1e-4)
        assert rep.gap_l2 >= 0.0
        assert rep.floor_l2 > 0.0
        assert isinstance(rep.within_10x_floor, bool)
