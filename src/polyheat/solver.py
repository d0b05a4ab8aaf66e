"""Time integration of u_t = (-1)^(m-1) div( coef(u) grad Delta^(m-1) u ).

The scheme is a first-order stabilized IMEX split with an exact exponential
linear propagator: writing the equation as

    u_t = -c (-Delta)^m u + [ rhs(u) + c (-Delta)^m u ],

one step reads  u_hat(t+dt) = e^(-c |xi|^(2m) dt) (u_hat + dt R_hat(u)).
With c at least the coefficient's supremum the frozen-coefficient remainder
(coef - c) has the non-amplifying sign, so every Fourier mode contracts.

The stabilization c is not an input: it is 1.1 times the path's coefficient
bound at eps.  Step control is the energy monitor itself: a step is accepted
only when the parity-appropriate energy  bf = int |xi|^(2(m-1)) |u_hat|^2
(equal to int |Delta^((m-1)/2) u|^2 for odd m and
int |grad Delta^((m-2)/2) u|^2 for even m) stays within 1e-8 bf(0) of
min(bf, bf(0)), a tolerance that scales with the data; otherwise dt is
halved, up to 30 times.  Each accepted state goes through one pass that
evaluates the coefficient, the gradient chain g = grad Delta^(m-1) u and the
products p = coef g once.  The remainder R_hat(u) + c |xi|^(2m) u_hat of the
next step and the flux monitors int |p|^2 and int p . g (dot products) read
that pass, and each halving only re-applies e^(-c |xi|^(2m) dt) to the
remainder.  A non-finite product spreads through the transforms to a
non-finite candidate energy, so the blow-up guard looks at the products only
when the energy guard rejects a step.  At n = 0 the coefficient is exactly
1, and f is not evaluated when every row is at n = 0.  Every transform is a
real FFT on the half spectrum, the multipliers are tabled once per (grid, m),
and the propagator e^(-c |xi|^(2m) dt) is rebuilt only when dt changes.  The
divergence form keeps the zero mode untouched, so the mass is conserved
exactly, and the accumulated dissipation 2 int_0^t int coef |g|^2 is tracked
so the energy identity

    bf(0) = bf(t) + 2 * dissipation(t)

can be monitored as a runtime residual.

Rows and batches.  ``solve`` advances a batch of rows: runs that share the
data u0, the grid, f, m, dealias, t_final, snapshot_times and report_stride,
and may differ in n, variant, eps (hence c) and dt_init.  One config is a
batch of one, on the same code path.  The state, the spectra and the
products carry a leading row axis, so each transform, the spectral multiply
and one coefficient call, with each row's n, eps and variant as columns,
serve the whole batch once per step.  A row's reductions are dot products
over its own row, so a row is bitwise the same alone and in any batch.

Step and driver.  ``_Step`` is the scheme: it holds the stacked state, the
tables and the propagator cache, and ``_Step.advance`` takes one step of
every row at the dts it is given, with the halvings, the blow-up, stiffness
and tripwire exits, and the pass of the new state.  While the rows share dt
the step is whole-array work with one propagator table; only a halving or a
row leaving indexes rows.  The driver ``_solve_rows`` keeps each row's
record: its clock and dt cap, its energy bound, the flux and dissipation
trapezoid, targets, snapshots and reports, and it drops the rows that are
done or failed while the others go on.  Another scheme, such as a
second-order exponential step, replaces ``advance`` alone.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from ._validate import require_int, require_real, require_reals
from .degeneracy import RegPath, coefficient_bound, reg_coefficient
from .gridfield import (
    DecayAssertionError,
    Field,
    GridSpec,
    _column,
    _rows_spectrum,
    _spectrum,
    _Spectrum,
    assert_boundary_decay,
    boundary_shell_max,
    coordinates,
    divergence_hat,
    grad_chain,
    irfft,
    rfft,
    spectral_tail_fraction,
)

__all__ = [
    "SolverConfig",
    "EnergyReport",
    "Trajectory",
    "InterfaceReport",
    "StiffnessError",
    "BlowupError",
    "solve",
    "interface_report",
    "eventual_positivity",
    "write_energy_csv",
]

# The loose uniform-boundedness guard: the equation has no blow-up
# mechanism, so sup|u| past this multiple of sup|u0| aborts the run loudly.
_TRIPWIRE_FACTOR = 10.0

# A step may raise the high-order energy by at most this fraction of bf(0)
# above min(bf, bf(0)): round-off room that scales with the data.
_ENERGY_RTOL = 1e-8

# The interface diagnostics look at the box K = [-1, 1]^N and ignore entries
# below this fraction of the field's peak.
_REGION_HALF_WIDTH = 1.0
_SUPPORT_RTOL = 1e-8


class StiffnessError(RuntimeError):
    """dt underflowed after the maximum number of halvings."""


class BlowupError(RuntimeError):
    """Non-finite values or the uniform-boundedness tripwire fired."""


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters for one regularized evolution.

    The stabilization ``c`` is derived, not set: 1.1 times the coefficient
    bound (f^n(eps) + C_f^n on the full path), which keeps the explicit
    remainder non-amplifying.
    """

    m: int
    path: RegPath
    eps: float
    dt_init: float
    t_final: float
    c: float = field(init=False)
    dealias: bool = True
    snapshot_times: tuple = ()
    report_stride: int = 1

    def __post_init__(self):
        require_int("m", self.m, choices=(2, 3))
        require_int("report_stride", self.report_stride, lo=1)
        require_real("eps", self.eps)
        for name in ("dt_init", "t_final"):
            require_real(name, getattr(self, name), "positive")
        if not isinstance(self.dealias, bool):
            raise TypeError(f"dealias must be true or false, got {self.dealias!r}")
        require_reals("snapshot_times", self.snapshot_times)
        if not all(0.0 <= t <= self.t_final for t in self.snapshot_times):
            raise ValueError(f"snapshot_times must lie in [0, t_final = {self.t_final:g}]")
        if not (0.0 < self.eps <= 1.0):
            raise ValueError(f"eps must lie in (0, 1], got {self.eps:g}")
        object.__setattr__(self, "c", 1.1 * coefficient_bound(self.path, self.eps))
        object.__setattr__(self, "snapshot_times", tuple(float(t) for t in self.snapshot_times))


@dataclass(frozen=True)
class EnergyReport:
    """Monitored quantities at one time."""

    t: float
    mass: float
    bf_energy: float
    bf_lower: float
    flux_l2_accum: float
    dissipation_accum: float
    dissipation_residual: float


@dataclass(frozen=True)
class Trajectory:
    snapshots: tuple
    reports: tuple
    run_id: str


@dataclass(frozen=True)
class InterfaceReport:
    support_measure: float
    sign_change_count: int
    positivity_on_region: bool
    min_on_region: float


# ---------------------------------------------------------------------------
# spectral building blocks of the solve loop; every array carries a leading
# row axis


def _pass(spec: _Spectrum, paths: tuple, eps: tuple, u: np.ndarray, u_hat: np.ndarray):
    """The per-state pass: the products p = coef(u) g with g = grad Delta^(m-1) u,
    one row per path and eps, and per row the flux int |p|^2 and the
    dissipation integrand int coef |g|^2 = int p . g.

    The remainder and its blow-up guard read p; the monitors read the
    integrals, each a dot product over its own row, so that a row's value
    does not depend on the batch around it.
    """
    coef = reg_coefficient(paths, eps, u)
    g = grad_chain(spec, u_hat)
    p = [coef * gi for gi in g]
    vol = spec.grid.cell_volume
    flux, diss = [], []
    for r in range(len(u)):
        f = d = 0
        for pi, gi in zip(p, g):
            pr = pi[r]
            f = f + np.vdot(pr, pr)
            d = d + np.vdot(pr, gi[r])
        flux.append(float(vol * f))
        diss.append(float(vol * d))
    return p, flux, diss


def _rhs_hat(spec: _Spectrum, m: int, dealias: bool, p: list) -> np.ndarray:
    """(-1)^(m-1) div p on the half spectrum, from the products of ``_pass``."""
    sign = 1.0 if m % 2 == 1 else -1.0  # (-1)^(m-1)
    return sign * divergence_hat(spec, p, dealias)


# ---------------------------------------------------------------------------
# monitors


def _bf_from_hat(spec: _Spectrum, u_hat: np.ndarray):
    """(bf_energy, bf_lower) from the half spectrum u_hat = rfft(u) of one
    row: the sums of |xi|^(2(m-1)) |u_hat|^2 and of its |xi|^(2(m-2))
    analogue (the lower-order bound, meaningful for even m)."""
    power = u_hat.real**2 + u_hat.imag**2
    return float(np.vdot(spec.w_hi, power)), float(np.vdot(spec.w_lo, power))


# ---------------------------------------------------------------------------
# the run loop


def _validate_initial(u0: Field) -> None:
    """The initial-data preconditions: support within |x| <= L/2, a spectral
    tail fraction of at most 1e-10, and decay in the boundary shell.  The
    zero field passes."""
    sup = float(np.max(np.abs(u0.values)))
    if sup == 0.0:
        return
    if boundary_shell_max(u0, 0.5) > 1e-8 * sup:
        raise ValueError("u0 must be supported within |x| <= L/2")
    tail = spectral_tail_fraction(u0)
    if not tail <= 1e-10:  # NaN when the transform of u0 overflows
        raise ValueError(f"u0 must have a spectral tail fraction <= 1e-10, got {tail:.3e}")
    assert_boundary_decay(u0)


def _run_id(u0: Field, config: SolverConfig) -> str:
    h = hashlib.sha256()
    h.update(repr(config).encode())
    h.update(u0.values.tobytes())
    return h.hexdigest()[:12]


def _shared(config: SolverConfig) -> tuple:
    """The settings every row of a batch must share."""
    return (config.path.f, config.m, config.dealias, config.t_final, config.snapshot_times,
            config.report_stride)


class _Row:
    """One row's own record: its clock, dt cap, step count, energies, flux
    and dissipation integrals, next target, snapshots and reports, and its
    position in the caller's sequence."""

    __slots__ = ("index", "config", "t", "dt_cap", "steps", "bf", "bf_lo", "flux", "diss",
                 "flux_acc", "diss_acc", "target", "snapshots", "reports")

    def __init__(self, index: int, config: SolverConfig):
        self.index, self.config = index, config
        self.t, self.dt_cap, self.steps, self.target = 0.0, config.dt_init, 0, 0
        self.flux_acc = self.diss_acc = 0.0


_NONFINITE = "non-finite coefficient-gradient product (blow-up signal)"


class _Step:
    """The scheme over the live rows, in the caller's order: their stacked
    spectra, grid values, and the products and monitor integrals of the last
    pass; and, rebuilt whenever a row leaves, the multipliers tiled over the
    rows, each row's linear symbol lin = c |xi|^(2m), paths and eps, and the
    propagator e^(-lin dt) of the last dts."""

    def __init__(self, grid: GridSpec, rows: list, u_hat0: np.ndarray, trip: float):
        first = rows[0].config
        self.grid, self.m, self.dealias, self.trip = grid, first.m, first.dealias, trip
        self.rows = rows
        self.u_hat = np.repeat(u_hat0[None], len(rows), axis=0)
        self.u = np.repeat(irfft(grid, u_hat0)[None], len(rows), axis=0)
        self._tables()
        self.p, self.flux, self.diss = _pass(self.spec, self.paths, self.eps, self.u, self.u_hat)

    def _tables(self) -> None:
        self.spec = _rows_spectrum(self.grid, self.m, len(self.rows))
        self.lin = _column([row.config.c for row in self.rows], self.grid.dim) * self.spec.k2m
        self.paths = tuple(row.config.path for row in self.rows)
        self.eps = tuple(row.config.eps for row in self.rows)
        self.prop_dts = self.prop = None

    def drop(self, gone: list) -> None:
        """Take the rows at the positions ``gone`` out."""
        keep = [i for i in range(len(self.rows)) if i not in gone]
        self.rows = [self.rows[i] for i in keep]
        self.u_hat, self.u = self.u_hat[keep], self.u[keep]
        self.p = [pi[keep] for pi in self.p]
        if self.rows:
            self._tables()

    def advance(self, dts: list, bounds: list):
        """Step row i by dts[i], halving it in place until the candidate's
        bf is at most bounds[i], then pass the new state.

        Returns per row the candidate's (bf, bf_lo) and its halvings, and the
        failures as {position: error}.  A failed row keeps its state until
        it is dropped.
        """
        rows, u_hat, spec, dim = self.rows, self.u_hat, self.spec, self.grid.dim
        rem_hat = _rhs_hat(spec, self.m, self.dealias, self.p) + self.lin * u_hat
        dt = _column(dts, dim)  # one float while the rows share dt
        if dts != self.prop_dts:
            self.prop_dts, self.prop = dts[:], np.exp(-self.lin * dt)
        cand_hat = self.prop * (u_hat + dt * rem_hat)
        energies, halvings, failures = [None] * len(rows), [0] * len(rows), {}
        # each trial row is accepted, fails or halves its own dt; past the
        # first try, which is whole-array work, this is the rare path
        trial = range(len(rows))
        while trial:
            retry = []
            for i in trial:
                # a non-finite candidate has a non-finite bf, which the guard rejects too
                energies[i] = _bf_from_hat(spec, cand_hat[i])
                if energies[i][0] <= bounds[i]:
                    continue
                # a non-finite product spreads through the transforms to every
                # candidate of the step, so the blow-up guard need look only here
                if halvings[i] == 0 and not all(np.isfinite(pi[i]).all() for pi in self.p):
                    failures[i] = BlowupError(f"{_NONFINITE} at t = {rows[i].t:g}, dt = {dts[i]:.3e}")
                elif halvings[i] == 30:
                    failures[i] = StiffnessError(
                        f"stiffness failure at t = {rows[i].t:g}: dt underflowed after 30 halvings "
                        f"(last dt = {dts[i]:.3e}, bf jump {energies[i][0] - rows[i].bf:.3e}, "
                        f"finite = {bool(np.isfinite(cand_hat[i]).all())})"
                    )
                else:
                    halvings[i] += 1
                    dts[i] *= 0.5
                    retry.append(i)
                    continue
                cand_hat[i] = u_hat[i]  # a finite stand-in until the row leaves
            if retry:
                d = _column([dts[i] for i in retry], dim)
                cand_hat[retry] = np.exp(-self.lin[retry] * d) * (u_hat[retry] + d * rem_hat[retry])
            trial = retry
        del rem_hat  # free it before the pass allocates the new products: a lower peak
        self.u, self.u_hat = irfft(self.grid, cand_hat), cand_hat
        if np.abs(self.u).max() > self.trip:  # the whole batch first: one reduction while no row trips
            for i, sup in enumerate(np.abs(self.u).reshape(len(rows), -1).max(axis=1).tolist()):
                if sup > self.trip and i not in failures:
                    failures[i] = BlowupError(
                        f"boundedness tripwire: sup|u| = {sup:.3g} exceeds "
                        f"{_TRIPWIRE_FACTOR:g} * sup|u0| = {self.trip:.3g} at t = {rows[i].t + dts[i]:g}"
                    )
        self.p, self.flux, self.diss = _pass(spec, self.paths, self.eps, self.u, cand_hat)
        return energies, halvings, failures


def solve(u0: Field, config: SolverConfig | Sequence[SolverConfig]) -> Trajectory | list:
    """Integrate to t_final with energy-controlled steps and full monitoring.

    Snapshots are taken exactly at the requested times (dt is clipped to land
    on them) and each must pass the boundary-shell decay assertion.  Raises
    StiffnessError when 30 dt-halvings cannot make a step acceptable and
    BlowupError if the uniform-boundedness tripwire fires.

    ``config`` may also be a sequence of row configs that share f, m,
    dealias, t_final, snapshot_times and report_stride (n, variant, eps and
    dt_init may differ).  The rows then advance together as one batch, each
    under its own step control, and the result is a list with, per row and
    in order, its Trajectory or the exception its own solve would raise: a
    row is bitwise the same alone and in any batch, and a failed row leaves
    the batch while the others go on.
    """
    single = isinstance(config, SolverConfig)
    # non-finite values are the step's own signals, which its guards turn
    # into a BlowupError or StiffnessError, so numpy need not warn of them
    with np.errstate(invalid="ignore", over="ignore"):
        results = _solve_rows(u0, (config,) if single else tuple(config))
    if not single:
        return results
    if isinstance(results[0], Exception):
        raise results[0]
    return results[0]


def _solve_rows(u0: Field, configs: tuple) -> list:
    """Per config, in order, its Trajectory or the exception its run raised."""
    if not configs:
        return []
    first = configs[0]
    if any(_shared(c) != _shared(first) for c in configs):
        raise ValueError("batched rows must share f, m, dealias, t_final, snapshot_times and report_stride")
    try:
        _validate_initial(u0)
    except (ValueError, DecayAssertionError) as err:
        return [err] * len(configs)
    grid = u0.grid
    targets = sorted(set(t for t in first.snapshot_times if t > 0.0) | {first.t_final})
    # a row has reached a target once its clock is within round-off of it
    reached = [t - 1e-15 * max(1.0, t) for t in targets]
    zero = (0,) * grid.dim

    # every row starts from the same transform of u0
    u_hat0 = rfft(grid, u0.values)
    bf0, bf_lo0 = _bf_from_hat(_spectrum(grid, first.m), u_hat0)
    limit = _ENERGY_RTOL * bf0  # a step may raise bf this far above min(bf, bf(0))
    start = Field(grid, u0.values, 0.0)

    def report(row, u_hat_row):
        # the zero mode is untouched by the scheme, so the mass stays constant
        mass = float(grid.cell_volume * u_hat_row[zero].real)
        return EnergyReport(
            t=row.t,
            mass=mass,
            bf_energy=row.bf,
            bf_lower=row.bf_lo,
            flux_l2_accum=row.flux_acc,
            dissipation_accum=row.diss_acc,
            dissipation_residual=row.bf + 2.0 * row.diss_acc - bf0,
        )

    rows = [_Row(i, config) for i, config in enumerate(configs)]
    step = _Step(grid, rows, u_hat0, _TRIPWIRE_FACTOR * float(np.max(np.abs(u0.values))))
    for row, flux, diss in zip(rows, step.flux, step.diss):
        row.bf, row.bf_lo, row.flux, row.diss = bf0, bf_lo0, flux, diss
        row.snapshots = [start]
        row.reports = [report(row, u_hat0)]
    results = [None] * len(configs)

    def settle(i) -> bool:
        """Take the snapshots row i has reached; True once it is done."""
        row = step.rows[i]
        try:
            while row.target < len(targets):
                if row.t < reached[row.target]:
                    return False
                snap = Field(grid, step.u[i].copy(), row.t)
                assert_boundary_decay(snap)
                row.snapshots.append(snap)
                if row.reports[-1].t != row.t:
                    row.reports.append(report(row, step.u_hat[i]))
                row.target += 1
        except DecayAssertionError as err:
            results[row.index] = err
            return True
        results[row.index] = Trajectory(
            snapshots=tuple(row.snapshots), reports=tuple(row.reports), run_id=_run_id(u0, row.config)
        )
        return True

    while step.rows:
        rows = step.rows
        dts = [min(row.dt_cap, targets[row.target] - row.t) for row in rows]
        energies, halvings, failures = step.advance(dts, [min(row.bf, bf0) + limit for row in rows])
        gone = []
        for i, row in enumerate(rows):
            if i in failures:
                results[row.index] = failures[i]
                gone.append(i)
                continue
            dt = dts[i]
            row.flux_acc += 0.5 * dt * (row.flux + step.flux[i])
            row.diss_acc += 0.5 * dt * (row.diss + step.diss[i])
            row.flux, row.diss = step.flux[i], step.diss[i]
            row.t += dt
            row.bf, row.bf_lo = energies[i]
            row.steps += 1
            row.dt_cap = min(row.config.dt_init, row.dt_cap * 2.0) if halvings[i] == 0 else dt
            if row.steps % first.report_stride == 0:
                row.reports.append(report(row, step.u_hat[i]))
            if row.t >= reached[row.target] and settle(i):
                gone.append(i)
        if gone:
            step.drop(gone)
    return results


# ---------------------------------------------------------------------------
# interface diagnostics


def _axis_lines(values: np.ndarray):
    if values.ndim == 1:
        return [values]
    mid = values.shape[0] // 2
    return [values[mid, :], values[:, mid]]


def interface_report(u: Field) -> InterfaceReport:
    """Support measure, oscillation count, and positivity on K = [-1, 1]^N.

    Sign changes are counted along each axis line through the domain center,
    ignoring entries below 1e-8 of the field's peak (the zero field has no
    entry above it, so no support and no sign change).
    """
    threshold = _SUPPORT_RTOL * float(np.max(np.abs(u.values))) or np.inf
    support = float(u.grid.cell_volume * np.count_nonzero(np.abs(u.values) > threshold))
    flips = 0
    for line in _axis_lines(u.values):
        live = line[np.abs(line) > threshold]
        if live.size >= 2:
            flips += int(np.sum(np.sign(live[:-1]) * np.sign(live[1:]) < 0))
    mask = np.ones(u.grid.shape, dtype=bool)
    for x in coordinates(u.grid):
        mask &= np.broadcast_to(np.abs(x) <= _REGION_HALF_WIDTH, u.grid.shape)
    min_region = float(np.min(u.values[mask]))
    return InterfaceReport(
        support_measure=support,
        sign_change_count=flips,
        positivity_on_region=min_region > 0.0,
        min_on_region=min_region,
    )


def eventual_positivity(snapshots) -> tuple:
    """``(T, all_positive_after)`` on K = [-1, 1]^N: the latest snapshot time
    with a nonpositive minimum there (0.0 if none), and whether later
    snapshots exist and are all strictly positive there."""
    mins = [(s.time_tag, interface_report(s).min_on_region) for s in snapshots]
    T = max((t for t, mn in mins if mn <= 0.0), default=0.0)
    later = [mn for t, mn in mins if t > T]
    return T, bool(later) and all(mn > 0.0 for mn in later)


# ---------------------------------------------------------------------------
# CSV output


def write_energy_csv(path, reports) -> None:
    names = [f.name for f in fields(EnergyReport)]
    lines = [",".join(names)]
    lines += [",".join(repr(getattr(r, name)) for name in names) for r in reports]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
