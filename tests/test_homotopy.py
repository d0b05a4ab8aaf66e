"""Schedules, sweeps, the Duhamel correction, and the branching residual,
with the linear very-weak identity as a reference for the trajectories."""

import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from polyheat import homotopy
from polyheat.degeneracy import RegPath, degeneracy_function
from polyheat.gridfield import (
    DecayAssertionError,
    Field,
    _spectrum,
    bump,
    coordinates,
    irfft,
    l2_norm,
    make_grid,
    rfft,
)
from polyheat.homotopy import (
    ConvergenceRow,
    Schedule,
    ScheduleRangeError,
    SweepSpec,
    branching_residual,
    correction_phi,
    linear_trajectory,
    path_dependence_report,
    schedule_eval,
    sweep,
    write_plot_data,
    write_summary_json,
    write_table_csv,
)
from polyheat.kernel import phe_solve
from polyheat.solver import SolverConfig, StiffnessError, solve


def grad_chain(spec, u_hat) -> list:
    """Real components of grad Delta^(m-1) u from u_hat = rfft(u), for the
    order m of the multiplier table ``spec``."""
    return [irfft(spec.grid, c * u_hat) for c in spec.chain]


def very_weak_residual(grid, times, snaps, m: int, mode_count: int = 3) -> float:
    """Residual of the linear very-weak identity against low-mode windows,
    for the snapshot values ``snaps`` on ``grid``, one array per time in
    ``times``.

    Test functions are cos/sin(k pi x_1 / L) times a temporal window
    vanishing at both endpoints; the residual
    | int int phi_t u + (-1)^m int int grad phi . grad Delta^(m-1) u |
    is evaluated by trapezoid over the snapshots and maximized over the
    test set.  It vanishes for the linear flow and shrinks along a
    homotopy sweep.
    """
    if len(snaps) < 3:
        raise ValueError("need at least three snapshots for the time quadrature")
    times = np.asarray(times, dtype=float)
    T = times[-1]
    x1 = np.broadcast_to(coordinates(grid)[0], grid.shape)
    sign = (-1.0) ** m
    time_part = np.sin(np.pi * times / T) ** 2
    dtime_part = 2.0 * np.sin(np.pi * times / T) * np.cos(np.pi * times / T) * np.pi / T
    tests = []
    for k in range(1, mode_count + 1):
        kappa = k * np.pi / grid.half_width
        for spatial in (np.cos(kappa * x1), np.sin(kappa * x1)):
            tests.append((spatial, grad_chain(_spectrum(grid, 1), rfft(grid, spatial))))  # the gradient
    spec = _spectrum(grid, m)
    term1 = np.empty((len(tests), len(snaps)))
    term2 = np.empty((len(tests), len(snaps)))
    for j, s in enumerate(snaps):
        gv = grad_chain(spec, rfft(grid, s))
        for i, (spatial, dphi) in enumerate(tests):
            term1[i, j] = dtime_part[j] * grid.cell_volume * float(np.sum(spatial * s))
            dot = sum(a * b for a, b in zip(dphi, gv))
            term2[i, j] = time_part[j] * grid.cell_volume * float(np.sum(dot))
    return max(abs(np.trapezoid(a + sign * b, times)) for a, b in zip(term1, term2))


def correction_phi_by_node(u0, m, f, t, time_nodes=41, clamp_floor=None):
    """The Duhamel quadrature one node at a time, each snapshot its own
    ``phe_solve`` and each component of w cut to the 2/3-rule band before
    its derivative, and phi signed by the equation's (-1)^(m-1) at the end:
    the reference that the blocked ``correction_phi``, which cuts the
    divergence once and signs each increment, must reproduce bitwise.
    Returns (phi values, clamped fraction)."""
    grid = u0.grid
    eta = clamp_floor if clamp_floor is not None else 1e-14 * max(float(np.max(np.abs(u0.values))), 1e-300)
    nodes = np.linspace(0.0, t, time_nodes)
    states = tuple(phe_solve(u0, m, float(s)) for s in sorted(nodes))

    spec = _spectrum(grid, m)
    weights = np.full(time_nodes, t / (time_nodes - 1))
    weights[0] *= 0.5
    weights[-1] *= 0.5

    phi_hat = np.zeros(spec.k2m.shape, dtype=complex)
    for s, wt, snap in zip(nodes, weights, states):
        logf = np.log(f(np.maximum(np.abs(snap.values), eta)))
        g = grad_chain(spec, rfft(grid, snap.values))
        w_hat = 0
        for d, gi in zip(spec.div, g):
            w_hat = w_hat + d * np.where(spec.band, rfft(grid, logf * gi), 0.0)
        phi_hat += wt * (np.exp(-spec.k2m * (t - s)) * w_hat)
    values = (-1.0) ** (m - 1) * irfft(grid, phi_hat)  # negation is exact

    final = states[-1]
    clamped = float(np.mean(np.abs(final.values) < eta))
    return values, clamped


@pytest.fixture
def transforms(monkeypatch):
    """The names of the numpy transforms called, in order."""
    calls = []
    for name in ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn"):
        real = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *a, _f=real, _n=name, **k: calls.append(_n) or _f(*a, **k))
    return calls


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
    return sweep(u0, SweepSpec(sch, 2, 0.1, [0.0, 1e-1, 3e-2, 1e-2], dt_init=5e-5, clamp_floor=1e-14))


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

    def test_rejects_unknown_kind(self, rational):
        with pytest.raises(ValueError):
            Schedule("bad_kind", 1.0, rational)


class TestCorrectionPhi:
    def test_time_zero_is_empty_integral(self, u0, rational):
        phi = correction_phi(u0, 2, rational, 0.0, time_nodes=2)
        assert np.max(np.abs(phi.values)) == 0.0
        assert phi.clamp_floor == 1e-14 * np.max(np.abs(u0.values))
        assert phi.sign == -1

    def test_default_floor_passes_criterion_9_data(self, u0, rational):
        # 25 of 256 points clamp at t = 0.1 (0.441 of the box at 1e-8 max|u0|,
        # past the guard's 0.2); u0's peak is 1, so the floor is 1e-14 itself
        phi = correction_phi(u0, 2, rational, 0.1, time_nodes=641)
        assert phi.clamp_floor == 1e-14
        assert phi.clamped_fraction == 25 / 256
        assert phi.values.tobytes() == correction_phi(u0, 2, rational, 0.1, time_nodes=641,
                                                      clamp_floor=1e-14).values.tobytes()

    @pytest.mark.parametrize("t", [0.1, 0.0])
    @pytest.mark.parametrize("time_nodes,clamp_floor", [
        (1, None), (2.5, None), (True, None), (41, -1.0), (41, 0.0), (41, math.nan),
    ], ids=["nodes 1", "nodes 2.5", "nodes bool", "floor -1", "floor 0", "floor nan"])
    def test_bad_quadrature_rejected_before_any_work(self, u0, rational, transforms, t, time_nodes, clamp_floor):
        with pytest.raises((TypeError, ValueError)):
            correction_phi(u0, 2, rational, t, time_nodes=time_nodes, clamp_floor=clamp_floor)
        assert transforms == []

    @pytest.mark.parametrize("bad,message", [
        (math.nan, "must be finite"), (math.inf, "must be finite"), (-1.0, "must be nonnegative"),
    ], ids=["nan", "inf", "negative"])
    @pytest.mark.parametrize("call,name", [
        (lambda u, t: phe_solve(u, 2, t), "t"),
        (lambda u, t: correction_phi(u, 2, degeneracy_function("rational"), t, clamp_floor=1e-14), "t"),
        (lambda u, t: linear_trajectory(u, 2, [0.0, t, 0.1]), "times entry"),
    ], ids=["phe_solve", "correction_phi", "linear_trajectory"])
    def test_bad_time_rejected_before_any_transform(self, u0, transforms, call, name, bad, message):
        with pytest.raises(ValueError, match=f"^{name} {message}"):
            call(u0, bad)
        assert transforms == []

    @pytest.mark.parametrize("m", [0, 1.5, True], ids=["0", "1.5", "bool"])
    @pytest.mark.parametrize("call", [
        lambda u, m: phe_solve(u, m, 0.1),
        lambda u, m: correction_phi(u, m, degeneracy_function("rational"), 0.1, clamp_floor=1e-14),
        lambda u, m: linear_trajectory(u, m, [0.0, 0.1]),
    ], ids=["phe_solve", "correction_phi", "linear_trajectory"])
    def test_bad_m_rejected_before_any_transform(self, u0, transforms, call, m):
        # the cached tables map True onto m = 1, and m = 0 or 1.5 onto a
        # reciprocal of zero or a root of a negative number
        with pytest.raises((TypeError, ValueError), match="^m must be"):
            call(u0, m)
        assert transforms == []

    def test_samples_the_linear_flow_at_the_nodes(self, u0, rational, monkeypatch):
        # the linear flow is sampled at exactly the quadrature nodes, in
        # order, at most one block of them per call
        seen = []

        def recording(u, m, times):
            seen.append(list(times))
            return linear_trajectory(u, m, times)

        monkeypatch.setattr(homotopy, "linear_trajectory", recording)
        correction_phi(u0, 2, rational, 0.1, time_nodes=641, clamp_floor=1e-14)
        block = homotopy._BLOCK_POINTS // u0.values.size
        assert len(seen) > 1 and all(len(times) <= block for times in seen)
        assert [s for times in seen for s in times] == list(np.linspace(0.0, 0.1, 641))

    def test_constructs_no_field(self, u0, rational, monkeypatch):
        # the snapshots stay one array per block: no Field is made per node
        made = []
        real = Field.__post_init__
        monkeypatch.setattr(Field, "__post_init__", lambda self: made.append(1) or real(self))
        correction_phi(u0, 2, rational, 0.1, time_nodes=641, clamp_floor=1e-14)
        assert made == []

    def test_one_guard_and_five_transforms_per_block(self, u0, rational, monkeypatch, transforms):
        # 641 nodes in blocks of 64: per block one guard, the transform of
        # u0, one stacked inverse for the snapshots, and one stacked chain
        # (a forward, an inverse and the divergence's forward); then phi's
        # own inverse
        counts = {"phe_solve": 0, "linear_trajectory": 0, "assert_boundary_decay": 0}
        for name in counts:
            real = getattr(homotopy, name)

            def counted(*a, _f=real, _n=name):
                counts[_n] += 1
                return _f(*a)

            monkeypatch.setattr(homotopy, name, counted)
        correction_phi(u0, 2, rational, 0.1, time_nodes=641, clamp_floor=1e-14)
        assert counts == {"phe_solve": 0, "linear_trajectory": 11, "assert_boundary_decay": 11}
        block = ["rfft", "irfft", "rfft", "irfft", "rfft"]
        assert transforms == block * 11 + ["irfft"]

    @pytest.mark.parametrize("dim,points,m,nodes", [
        (1, 256, 3, 97), (1, 256, 2, 2), (2, 64, 2, 41), (2, 64, 3, 7), (2, 256, 2, 5),
    ])
    def test_blocks_bitwise_equal_to_the_node_loop(self, rational, dim, points, m, nodes):
        # 97 and 41 nodes are not multiples of their blocks (64 and 4)
        grid = make_grid(dim, 24.0 if dim == 1 else 12.0, points)
        u0 = bump(grid, 1.0, 4.0, steepness=6.0)
        phi = correction_phi(u0, m, rational, 0.1, time_nodes=nodes, clamp_floor=1e-14)
        values, clamped = correction_phi_by_node(u0, m, rational, 0.1, time_nodes=nodes, clamp_floor=1e-14)
        assert np.array_equal(phi.values, values)
        assert phi.clamped_fraction == clamped

    @pytest.mark.parametrize("dim,points", [(1, 256), (2, 64)])
    def test_linear_trajectory_bitwise_equal_to_phe_solve(self, dim, points):
        # one row per time in the order given; the time-0 row is u0's own values
        grid = make_grid(dim, 24.0 if dim == 1 else 12.0, points)
        u0 = bump(grid, 1.0, 4.0, steepness=6.0)
        times = [0.07, 0.0, 0.1, 0.003, 0.05]
        snaps = linear_trajectory(u0, 2, np.array(times))
        assert isinstance(snaps, np.ndarray) and snaps.shape == (len(times),) + grid.shape
        for s, t in zip(snaps, times):
            assert s.tobytes() == phe_solve(u0, 2, t).values.tobytes()
        assert snaps[1].tobytes() == u0.values.tobytes()

    def test_quadrature_node_convergence(self, u0, rational):
        # the Duhamel endpoint limits uniform trapezoid to ~O(h^(4/3)), so
        # the 1e-4 doubling criterion is reached around 641 nodes
        vals = {
            nodes: correction_phi(u0, 2, rational, 0.1, time_nodes=nodes, clamp_floor=1e-14)
            for nodes in (641, 1281)
        }
        gap = l2_norm(Field(u0.grid, vals[1281].values - vals[641].values))
        assert gap <= 1e-4 * l2_norm(Field(u0.grid, vals[1281].values))

    def test_clamp_guard_fires(self, u0, rational):
        with pytest.raises(RuntimeError, match="log-singularity dominates"):
            correction_phi(u0, 2, rational, 0.1, time_nodes=11, clamp_floor=1e-2)


class TestBranchingResidual:
    def test_zero_n_zero_gap(self, u0):
        lin = phe_solve(u0, 2, 0.05)
        out = branching_residual(lin, lin, None, 0.0)
        assert out.linear_gap == 0.0
        assert out.remainder_ratio == 0.0

    def test_sign_resolution_and_ratio_decrease(self, small_sweep):
        ratios = [r.correction_gap / r.n for r in small_sweep.rows if r.n > 0]
        assert small_sweep.phi.sign == -1
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_wrong_sign_lifts_every_gap_above_the_ablated_one(self, small_sweep, u0, rational, monkeypatch):
        # the sign is the equation's, not fitted to the rows, so a sign fault
        # in phi shows: each corrected gap rises above the ablated one and
        # the remainder ratios stop decreasing, which criterion 9 gates
        real = homotopy.correction_phi

        def flipped(*args):
            phi = real(*args)
            return replace(phi, values=-phi.values, sign=-phi.sign)

        monkeypatch.setattr(homotopy, "correction_phi", flipped)
        wrong = sweep(u0, SweepSpec(Schedule("eps_of_n", 1.0, rational), 2, 0.1, [0.0, 1e-1, 3e-2, 1e-2],
                                    dt_init=5e-5, clamp_floor=1e-14))
        assert wrong.phi.sign == -small_sweep.phi.sign
        pairs = [(r, w) for r, w in zip(small_sweep.rows, wrong.rows) if r.n > 0]
        assert [r.n for r, _ in pairs] == [w.n for _, w in pairs] == [1e-1, 3e-2, 1e-2]
        for right, bad in pairs:
            assert right.l2_gap == bad.l2_gap
            assert right.correction_gap < right.l2_gap < bad.correction_gap
        ratios = [w.correction_gap / w.n for _, w in pairs]
        assert not all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_ablated_control_bounded_below(self, small_sweep, u0, rational):
        phi = correction_phi(u0, 2, rational, 0.1, clamp_floor=1e-14)
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
        table = sweep(u0, SweepSpec(sch, 2, 0.1, [1e-1, 1e-14], dt_init=1e-4, clamp_floor=1e-14))
        by_status = {r.status.split(":")[0] for r in table.rows}
        assert by_status == {"ok", "failed"}

    @pytest.mark.parametrize("n_values", [[0.0, 1e-14], [0.0, 1e-1, 1e-14]],
                             ids=["no branching row", "a branching row"])
    @pytest.mark.parametrize("m,t_eval", [(2, 0.1), (3, 0.02)], ids=["m2", "m3"])
    def test_phi_carries_the_equation_sign(self, u0, rational, m, t_eval, n_values):
        # n = 1e-14 leaves the schedule's range and n = 0 is the control, so
        # n = 0.1 is the only row that can branch; with it or without it the
        # sweep's phi is correction_phi's, signed (-1)^(m-1) by the kernel
        table = sweep(u0, SweepSpec(Schedule("eps_of_n", 1.0, rational), m, t_eval, n_values,
                                    dt_init=5e-5, time_nodes=21))
        statuses = [r.status.split(":")[0] for r in table.rows]
        assert statuses == ["failed"] + ["ok"] * (len(n_values) - 1)
        phi = correction_phi(u0, m, rational, t_eval, time_nodes=21)
        assert table.phi.sign == phi.sign == (-1) ** (m - 1)
        assert table.phi.values.tobytes() == phi.values.tobytes()
        assert math.isnan(table.slope)

    def test_failed_row_keeps_its_parameter(self, tmp_path, u0, rational, monkeypatch):
        # eps = 2 has no (n, eps) pair: NaN n and eps, the 2 in param, which
        # table.csv writes too; the eps = 0.2 row's solve fails after the
        # schedule gave its pair
        real = homotopy.solve

        def last_row_fails(u, configs):
            return real(u, configs)[:-1] + [StiffnessError("forced")]

        monkeypatch.setattr(homotopy, "solve", last_row_fails)
        sch = Schedule("n_of_eps", 0.05, rational)
        table = sweep(u0, SweepSpec(sch, 2, 0.1, [0.5, 0.2, 2.0], dt_init=1e-3, clamp_floor=1e-14))
        rows = {r.param: r for r in table.rows}
        assert set(rows) == {2.0, 0.5, 0.2}
        assert math.isnan(rows[2.0].n) and math.isnan(rows[2.0].eps)
        assert rows[2.0].status == "failed: eps = 2 outside (0, 1]"
        assert (rows[0.5].n, rows[0.5].eps, rows[0.5].status) == (*schedule_eval(sch, 0.5), "ok")
        assert (rows[0.2].n, rows[0.2].eps, rows[0.2].status) == (*schedule_eval(sch, 0.2), "failed: forced")
        write_table_csv(tmp_path / "t.csv", table)
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert [line for line in lines if line.startswith("2.0,")] == [
            '2.0,nan,nan,0.1,nan,nan,nan,"failed: eps = 2 outside (0, 1]"'
        ]
        # the quoted status reads back whole, with no cell past the header
        with open(tmp_path / "t.csv", newline="") as fh:
            read = list(csv.DictReader(fh))
        assert [row["status"] for row in read] == [r.status for r in table.rows]
        assert all(None not in row for row in read)

    def test_serialization(self, tmp_path, small_sweep):
        write_table_csv(tmp_path / "t.csv", small_sweep)
        write_summary_json(tmp_path / "s.json", small_sweep)
        write_plot_data(tmp_path / "p.csv", small_sweep)
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines[0] == "param,n,eps,t_eval,l2_gap,sup_gap,correction_gap,status"
        assert len(lines) == 1 + len(small_sweep.rows)
        summary = json.loads((tmp_path / "s.json").read_text())
        assert set(summary) >= {"slope", "slope_ci", "sign_of_phi", "clamped_fraction", "schedule"}
        plot = (tmp_path / "p.csv").read_text().splitlines()
        assert plot[0] == "log10_n,log10_l2_gap"
        assert len(plot) == 1 + sum(1 for r in small_sweep.rows if r.n > 0)


class TestVeryWeakResidual:
    def test_vanishes_for_linear_flow(self, u0):
        # second-order time quadrature: the identity residual shrinks 4x per
        # node doubling and sits well below 1e-6 by 161 nodes
        fine, coarse = (
            very_weak_residual(u0.grid, times, linear_trajectory(u0, 2, times), 2)
            for times in (np.linspace(0.0, 0.1, 161), np.linspace(0.0, 0.1, 81))
        )
        assert fine <= 1e-6
        assert coarse / fine >= 3.5

    def test_one_transform_per_snapshot_and_test_function(self, u0, monkeypatch):
        times = np.linspace(0.0, 0.1, 21)
        snaps = linear_trajectory(u0, 2, times)
        calls = []
        for name in ("fftn", "rfftn", "rfft"):  # every forward transform, complex or real
            forward = getattr(np.fft, name)
            monkeypatch.setattr(
                np.fft, name, lambda *a, _f=forward, **k: calls.append(1) or _f(*a, **k)
            )
        very_weak_residual(u0.grid, times, snaps, 2, mode_count=3)
        assert len(calls) == len(snaps) + 2 * 3

    def test_decreases_along_schedule(self, u0, rational):
        sch = Schedule("eps_of_n", 1.0, rational)
        resids = []
        for n in (1e-1, 1e-2):
            n_eff, eps = schedule_eval(sch, n)
            config = SolverConfig(
                m=2, path=RegPath(rational, n_eff, "simple"), eps=eps, dt_init=1e-4,
                t_final=0.1, report_stride=10**6,
                snapshot_times=tuple(np.linspace(0.005, 0.1, 20)),
            )
            snaps = solve(u0, config).snapshots
            resids.append(very_weak_residual(u0.grid, [s.time_tag for s in snaps], [s.values for s in snaps], 2))
        assert resids[1] < resids[0]


class TestPathDependence:
    def test_report_runs_and_reports(self, u0, rational):
        rep = path_dependence_report(u0, 2, rational, 1e-2, 1e-3, 0.02, dt_init=1e-4)
        assert rep.gap_l2 >= 0.0
        assert rep.floor_l2 > 0.0
        assert isinstance(rep.within_10x_floor, bool)

    def test_a_failed_row_is_raised(self, rational):
        # the n = 0 row's final snapshot reaches the boundary shell: the
        # report raises that row's own error
        grid = make_grid(1, 10.0, 256)
        u = bump(grid, 1.0, 2.5, steepness=6.0)
        zero = SolverConfig(m=2, path=RegPath(rational, 0.0, "simple"), eps=1.0, dt_init=1e-4,
                            t_final=0.02, report_stride=10**9)
        with pytest.raises(DecayAssertionError) as solo:
            solve(u, zero)
        with pytest.raises(DecayAssertionError) as err:
            path_dependence_report(u, 2, rational, 0.5, 1e-3, 0.02, dt_init=1e-4)
        assert str(err.value) == str(solo.value)

    def test_one_coefficient_call_per_step(self, u0, rational, monkeypatch):
        # the full, simple and n = 0 rows share one call at every state:
        # the initial pass and one per step of dt_init
        from polyheat import solver as solver_module

        real, rows = solver_module.reg_coefficient, []

        def counted(paths, eps, u, out=None):
            rows.append(len(paths))
            return real(paths, eps, u, out=out)

        monkeypatch.setattr(solver_module, "reg_coefficient", counted)
        path_dependence_report(u0, 2, rational, 1e-2, 1e-3, 0.002, dt_init=1e-4)
        assert rows == [3] * 21
