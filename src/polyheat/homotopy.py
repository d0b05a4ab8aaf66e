"""Homotopy limits toward the linear flow and the small-n branching analysis.

Two coupled-parameter schedules drive the limits:

    n_of_eps   n(eps) = c / sqrt(|ln f(eps)|)   so n |ln f(eps)| -> infinity,
    eps_of_n   eps(n) = f^{-1}(e^{-c/sqrt(n)})  so n |ln f(eps)| = c sqrt(n) -> 0.

``sweep`` runs the regularized solver along a schedule (whose ``f`` is the
nonlinearity of every row) and measures how fast the solutions approach the
linear solution u_lin with the same data.  The first-order correction in n
is the Duhamel field

    phi(x, t) = (-1)^(m-1) int_0^t grad H(t - s) * [ln f(|u_lin(s)|)
                                                    grad Delta^(m-1) u_lin(s)] ds,

so (u0, m, f, t) fix it, sign included: ``correction_phi`` samples the
linear flow from u0 itself and evaluates phi as a Fourier-multiplier time
quadrature.  As d/dn f^n = ln f at n = 0, the integrand is the solver's
signed divergence with coef = ln f, from the same kernel,
``gridfield._coef_divergence``, which applies the equation's (-1)^(m-1).
The nodes go in blocks of about ``_BLOCK_POINTS`` grid values: one
transform of u0 and one stacked inverse give a block's snapshots, one
kernel call their integrands, so the memory it holds is bounded by a
block, not by the node count.  The log factor is clamped at a floor eta,
and the fraction of the box where the clamp was active at the evaluation
time is reported: a large fraction means the log-singularity dominates
and the expansion is unreliable.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from ._validate import require_int, require_real, require_reals
from .degeneracy import DegeneracyFunction, RegPath
from .gridfield import (
    Field,
    _coef_divergence,
    _rows_spectrum,
    _spectrum,
    assert_boundary_decay,
    irfft,
    l2_norm,
    rfft,
)
from .kernel import phe_solve
from .solver import SolverConfig, solve

__all__ = [
    "Schedule",
    "ScheduleRangeError",
    "ConvergenceRow",
    "ConvergenceTable",
    "CorrectionField",
    "BranchingResidual",
    "SweepSpec",
    "PathDependenceReport",
    "schedule_eval",
    "linear_trajectory",
    "correction_phi",
    "branching_residual",
    "sweep",
    "path_dependence_report",
    "write_table_csv",
    "write_summary_json",
    "write_plot_data",
]


class ScheduleRangeError(ValueError):
    """The requested parameter leaves the schedule's representable range."""


@dataclass(frozen=True)
class Schedule:
    """Coupling between the degeneracy exponent n and the regularization eps.

    Along either law the product n |ln f(eps)| trends by construction: it
    is c sqrt(|ln f(eps)|) for ``n_of_eps``, rising as eps decreases, and
    c sqrt(n) for ``eps_of_n``, falling as n decreases.
    """

    kind: str
    c: float
    f: DegeneracyFunction

    def __post_init__(self):
        if self.kind not in ("n_of_eps", "eps_of_n"):
            raise ValueError("schedule kind must be 'n_of_eps' or 'eps_of_n'")
        require_real("c", self.c, "positive")


def schedule_eval(schedule: Schedule, parameter: float) -> tuple:
    """Map the schedule parameter (eps or n) to the coupled (n, eps) pair."""
    if schedule.kind == "n_of_eps":
        eps = float(parameter)
        if not (0.0 < eps <= 1.0):
            raise ScheduleRangeError(f"eps = {eps:g} outside (0, 1]")
        feps = schedule.f(eps)
        if feps <= 0.0 or feps >= 1.0:
            raise ScheduleRangeError(f"|ln f(eps)| degenerate at eps = {eps:g}")
        return schedule.c / math.sqrt(abs(math.log(feps))), eps
    n = float(parameter)
    if not n > 0:
        raise ScheduleRangeError(f"n = {n:g} outside (0, inf)")
    expo = -schedule.c / math.sqrt(n)
    if expo < -700.0:
        raise ScheduleRangeError(f"schedule out of range: f target e^{expo:.1f} underflows")
    target = math.exp(expo)
    try:
        eps = schedule.f.inverse(target)
    except ValueError as err:
        raise ScheduleRangeError(f"schedule out of range: {err}") from err
    if eps <= 0.0:
        raise ScheduleRangeError("schedule out of range: eps underflowed to 0")
    return n, min(eps, 1.0)


# ---------------------------------------------------------------------------
# the first-order correction field


@dataclass(frozen=True)
class CorrectionField:
    grid: object
    t: float
    values: np.ndarray
    clamp_floor: float
    clamped_fraction: float
    sign: int  # the equation's (-1)^(m-1), which the divergence kernel applied


# grid values per block of quadrature nodes in ``correction_phi``: 64 nodes
# on a 256-point line, 4 on 64^2, 1 on 256^2
_BLOCK_POINTS = 1 << 14


def linear_trajectory(u0: Field, m: int, times) -> np.ndarray:
    """Exact multiplier values of the linear flow from u0, one row per time
    in the order given, each row bitwise equal to ``phe_solve(u0, m, s)``'s
    values.

    One boundary guard and one transform of u0 serve every time: the
    multipliers e^(-|xi|^(2m) s) stack as rows and one inverse transform
    returns every row, so the call holds len(times) grid arrays at once.  A
    time-0 row holds u0's own values.
    """
    require_int("m", m, lo=1)
    require_reals("times", times, sign="nonnegative")
    assert_boundary_decay(u0)
    grid = u0.grid
    s = np.reshape(np.asarray(times, dtype=float), (-1,) + (1,) * grid.dim)
    values = irfft(grid, np.exp(-_spectrum(grid, m).k2m * s) * rfft(grid, u0.values))
    values[s.ravel() == 0.0] = u0.values
    return values


def _check_quadrature(time_nodes, clamp_floor) -> None:
    """At least two time nodes, and a positive clamp floor or None for the default."""
    require_int("time_nodes", time_nodes, lo=2)
    if clamp_floor is not None:
        require_real("clamp_floor", clamp_floor, "positive")


def correction_phi(
    u0: Field,
    m: int,
    f: DegeneracyFunction,
    t: float,
    time_nodes: int = 41,
    clamp_floor: float | None = None,
) -> CorrectionField:
    """Duhamel correction at time t for the linear flow from u0.

    The linear flow is sampled at ``time_nodes`` uniform quadrature times on
    [0, t]; each node s contributes the multiplier increment
    e^(-|xi|^(2m) (t-s)) sum_i (i xi_i) w_hat_i  with
    w = ln f(max(|u|, eta)) grad Delta^(m-1) u,  composited by the
    trapezoid rule and cut to the 2/3-rule band once, before phi's inverse.
    The mask acts elementwise, so that cut equals cutting each w_hat_i.  The
    kernel signs each increment by (-1)^(m-1), so phi is the first-order
    term of the equation as posed, and ``sign`` records that factor.  The
    clamp floor eta defaults to 1e-14 max|u0|, about a hundred times the
    transform's round-off: on criterion 9's data the clamp covers 9.8% of
    the box there, and 44% at 1e-8.  Raises when the clamp was active on
    more than 20% of the box at time t.

    The nodes go in blocks of max(1, _BLOCK_POINTS // grid points), at most
    ``time_nodes``: per block one ``linear_trajectory`` call, whose array
    of snapshots is then the chain's work space, one ``_coef_divergence``
    call (its sums unread) in work arrays made once per call, and the
    increments, a row per node, in place of the divergence.  The clamped
    fraction is read from the last block's last row, the flow at t, before
    that row is overwritten.
    The running phi_hat joins the first row, and one reduce over the node
    axis adds the rows in sequence: numpy sums along an outer axis row by
    row, where it would sum pairwise along the contiguous one.  So phi_hat
    collects the increments in node order and phi is bitwise that of a
    node-by-node loop.  The memory it holds is bounded by a block of
    snapshots, not by ``time_nodes``.
    """
    require_int("m", m, lo=1)
    require_real("t", t, "nonnegative")
    _check_quadrature(time_nodes, clamp_floor)
    grid = u0.grid
    eta = clamp_floor if clamp_floor is not None else 1e-14 * max(float(np.max(np.abs(u0.values))), 1e-300)
    sign = (-1) ** (m - 1)
    if t == 0.0:
        return CorrectionField(grid, 0.0, np.zeros(grid.shape), clamp_floor=eta, clamped_fraction=0.0, sign=sign)
    nodes = np.linspace(0.0, t, time_nodes)
    weights = np.full(time_nodes, t / (time_nodes - 1))
    weights[0] *= 0.5
    weights[-1] *= 0.5

    column = (-1,) + (1,) * grid.dim  # a node per row
    lags, weights = np.reshape(t - nodes, column), np.reshape(weights, column)

    spec = _spectrum(grid, m)
    block = min(time_nodes, max(1, _BLOCK_POINTS // u0.values.size))
    phi_hat = np.zeros(spec.k2m.shape, dtype=complex)
    # the kernel's divergence, spectrum and products p (max(|u|, eta) first);
    # each block's snapshots, free once transformed, hold its chain g
    half = (block,) + spec.k2m.shape
    work = (np.empty(half, complex), np.empty(half, complex), np.empty((block,) + grid.shape))
    for lo in range(0, time_nodes, block):
        snaps = linear_trajectory(u0, m, nodes[lo:lo + block])
        if lo + block >= time_nodes:  # the last row is the flow at t
            clamped = float(np.mean(np.abs(snaps[-1]) < eta))
        w_hat, s, p = (a[:len(snaps)] for a in work)
        logf = f(np.maximum(np.abs(snaps, out=p), eta, out=p))
        np.log(logf, out=logf)
        _coef_divergence(_rows_spectrum(grid, m, len(snaps)), logf, rfft(grid, snaps), w_hat, s, snaps, p)
        w_hat *= np.exp(-spec.k2m * lags[lo:lo + block])  # the terms, in place
        w_hat *= weights[lo:lo + block]
        w_hat[0] += phi_hat
        np.add.reduce(w_hat, axis=0, out=phi_hat)  # row by row, in node order
        del snaps, logf  # before the next block makes its own
    values = irfft(grid, np.where(spec.band, phi_hat, 0.0))

    if clamped > 0.2:
        raise RuntimeError(
            f"log-singularity dominates: correction unreliable "
            f"(clamped fraction {clamped:.3f} > 0.2 at t = {t:g})"
        )
    return CorrectionField(grid=grid, t=t, values=values, clamp_floor=eta, clamped_fraction=clamped, sign=sign)


@dataclass(frozen=True)
class BranchingResidual:
    linear_gap: float
    remainder_ratio: float


def branching_residual(u_n: Field, u_lin: Field, phi, n: float) -> BranchingResidual:
    """||u_n - u_lin - n phi|| and its ratio to n (phi = None ablates the correction)."""
    corr = 0.0 if phi is None else n * phi.values
    gap = l2_norm(Field(u_n.grid, u_n.values - u_lin.values - corr))
    return BranchingResidual(linear_gap=gap, remainder_ratio=gap / n if n > 0 else 0.0)


# ---------------------------------------------------------------------------
# the sweep


@dataclass(frozen=True)
class ConvergenceRow:
    param: float  # the schedule's own parameter (n or eps; 0 for the control row)
    n: float
    eps: float
    t_eval: float
    l2_gap: float
    sup_gap: float
    correction_gap: float
    status: str = "ok"


@dataclass(frozen=True)
class ConvergenceTable:
    rows: tuple
    slope: float
    slope_ci: tuple
    schedule: Schedule
    phi: CorrectionField = field(repr=False, compare=False)


def _fit_slope(ns, gaps):
    x = np.log(np.asarray(ns))
    y = np.log(np.asarray(gaps))
    A = np.vstack([x, np.ones_like(x)]).T
    coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope = float(coef[0])
    dof = max(len(x) - 2, 1)
    sigma2 = float(res[0]) / dof if res.size else 0.0
    sx = float(np.sum((x - x.mean()) ** 2))
    stderr = math.sqrt(sigma2 / sx) if sx > 0 else 0.0
    return slope, (slope - 2.0 * stderr, slope + 2.0 * stderr)


@dataclass(frozen=True)
class SweepSpec:
    """The settings of one ``sweep``, checked on construction.

    ``n_values`` hold the schedule's own parameter (n for ``eps_of_n``, eps
    for ``n_of_eps``); 0 is the degeneracy-off control row, whose
    SolverConfig ``control`` every row's config is made from, so that
    SolverConfig alone checks m and dt_init.
    """

    schedule: Schedule
    m: int
    t_eval: float
    n_values: tuple
    dt_init: float = 2e-5
    time_nodes: int = 41
    clamp_floor: float | None = None
    control: SolverConfig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        require_real("t_eval", self.t_eval, "positive")
        require_reals("n_values", self.n_values, min_len=1, sign="nonnegative")
        _check_quadrature(self.time_nodes, self.clamp_floor)
        object.__setattr__(self, "n_values", tuple(self.n_values))
        object.__setattr__(self, "control", SolverConfig(
            m=self.m, path=RegPath(self.schedule.f, 0.0, "simple"), eps=1.0, dt_init=self.dt_init,
            t_final=self.t_eval, report_stride=10**9,
        ))


def sweep(u0: Field, spec: SweepSpec) -> ConvergenceTable:
    """One solver run per schedule point, measured against the cached linear
    solution; the correction field is computed once and returned, as
    ``correction_phi`` gave it, as ``table.phi``.  The nonlinearity is the
    schedule's own ``f``.

    The coupled (n, eps) pair is derived per row from the row's parameter,
    which the row keeps as ``param``.  Row failures (stiffness, blow-up,
    decay assertion, schedule range) mark the row failed, with its (n, eps)
    where the schedule gave them and NaN where it did not, and the sweep
    continues.  Rows are sorted by n descending.
    """
    schedule, m, t_eval = spec.schedule, spec.m, spec.t_eval
    params = sorted(set(float(v) for v in spec.n_values), reverse=True)
    u_lin = phe_solve(u0, m, t_eval)
    phi = correction_phi(u0, m, schedule.f, t_eval, spec.time_nodes, spec.clamp_floor)

    # per parameter: (n, eps, status, final state), n and eps NaN where the
    # schedule has no pair for it, the state None where the row failed
    results, configs = {}, {}
    for v in params:
        try:
            n_eff, eps = (0.0, 1.0) if v == 0.0 else schedule_eval(schedule, v)
        except ScheduleRangeError as err:
            results[v] = (float("nan"), float("nan"), "failed: " + str(err), None)
        else:
            configs[v] = replace(spec.control, path=RegPath(schedule.f, n_eff, "simple"), eps=eps)
    # every row in one batch
    for (v, config), out in zip(configs.items(), solve(u0, list(configs.values()))):
        if isinstance(out, Exception):
            results[v] = (config.path.n, config.eps, "failed: " + str(out), None)
        else:
            results[v] = (config.path.n, config.eps, "ok", out.snapshots[-1])

    rows = []
    for v in params:
        n_eff, eps, status, u_n = results[v]
        if u_n is None:
            nan = float("nan")
            rows.append(ConvergenceRow(v, n_eff, eps, t_eval, nan, nan, nan, status))
            continue
        diff = u_n.values - u_lin.values
        rows.append(
            ConvergenceRow(
                param=v,
                n=n_eff,
                eps=eps,
                t_eval=t_eval,
                l2_gap=l2_norm(Field(u0.grid, diff)),
                sup_gap=float(np.max(np.abs(diff))),
                correction_gap=branching_residual(u_n, u_lin, phi, n_eff).linear_gap,
                status=status,
            )
        )
    rows.sort(key=lambda r: (-(r.n if np.isfinite(r.n) else float("inf")),))

    ok_rows = [r for r in rows if r.status == "ok" and r.n > 0]
    fit_rows = ok_rows[-3:]
    if len(fit_rows) >= 2:
        slope, ci = _fit_slope([r.n for r in fit_rows], [r.l2_gap for r in fit_rows])
    else:
        slope, ci = float("nan"), (float("nan"), float("nan"))
    return ConvergenceTable(
        rows=tuple(rows),
        slope=slope,
        slope_ci=ci,
        schedule=schedule,
        phi=phi,
    )


@dataclass(frozen=True)
class PathDependenceReport:
    n: float
    eps: float
    gap_l2: float
    floor_l2: float
    within_10x_floor: bool


def path_dependence_report(
    u0: Field,
    m: int,
    f: DegeneracyFunction,
    n: float,
    eps: float,
    t_eval: float,
    dt_init: float = 2e-5,
) -> PathDependenceReport:
    """Gap between the full-path and simple-path solutions at (n, eps).

    The discretization floor is the solver-vs-multiplier gap of the n = 0
    run; whether the limits depend on the regularization path is an open
    matter, so the measured gap is reported either way.
    """
    configs = [
        SolverConfig(
            m=m, path=RegPath(f, n_row, variant), eps=eps_row, dt_init=dt_init,
            t_final=t_eval, report_stride=10**9,
        )
        for n_row, eps_row, variant in ((n, eps, "full"), (n, eps, "simple"), (0.0, 1.0, "simple"))
    ]
    # one batch: the full, simple and n = 0 rows share one coefficient call per step
    outs = solve(u0, configs)
    for out in outs:
        if isinstance(out, Exception):
            raise out
    full, simple, zero = (out.snapshots[-1] for out in outs)
    floor = l2_norm(Field(u0.grid, zero.values - phe_solve(u0, m, t_eval).values))
    gap = l2_norm(Field(u0.grid, full.values - simple.values))
    return PathDependenceReport(
        n=n, eps=eps, gap_l2=gap, floor_l2=floor, within_10x_floor=gap <= 10.0 * floor
    )


# ---------------------------------------------------------------------------
# serialization


def write_table_csv(path, table: ConvergenceTable) -> None:
    names = [f.name for f in fields(ConvergenceRow)]
    with open(path, "w", newline="") as fh:
        # the status is free text, quoted where it holds a comma
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        for r in table.rows:
            cells = (getattr(r, name) for name in names)
            writer.writerow(v if isinstance(v, str) else repr(v) for v in cells)


def write_summary_json(path, table: ConvergenceTable) -> None:
    payload = {
        "slope": table.slope,
        "slope_ci": list(table.slope_ci),
        "sign_of_phi": table.phi.sign,
        "clamped_fraction": table.phi.clamped_fraction,
        "schedule": {"kind": table.schedule.kind, "c": table.schedule.c},
        "rows_ok": sum(1 for r in table.rows if r.status == "ok"),
        "rows_total": len(table.rows),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_plot_data(path, table: ConvergenceTable) -> None:
    """(log10 n, log10 l2 gap) pairs for external plotting."""
    lines = ["log10_n,log10_l2_gap"]
    for r in table.rows:
        if r.status == "ok" and r.n > 0 and r.l2_gap > 0:
            lines.append(f"{math.log10(r.n)!r},{math.log10(r.l2_gap)!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
