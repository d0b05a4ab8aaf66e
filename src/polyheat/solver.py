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
halved, up to 30 times, and a row past its step budget (``_Row``) fails.
Each accepted state goes through one pass that evaluates the coefficient
once and leaves the state's remainder
R_hat(u) + c |xi|^(2m) u_hat, which its step reads, and the flux monitors
int |p|^2 and int p . g of p = coef g and g = grad Delta^(m-1) u.  A
products row, whose coefficient is not exactly 1 everywhere, forms g and p
on the grid in ``gridfield._coef_divergence``, which signs its
divergence.  A unit row, whose coefficient is exactly 1 at every grid
point (the simple path at n = 0, say), has p = g and takes all of these
from its half spectrum: R_hat(u) = rhs0 u_hat with
the real multiplier rhs0 = (-1)^(m-1) sum_j div_j chain_j, and
int |g|^2 = sum w_g |u_hat|^2 by Parseval.  Its step is then linear and
diagonal at a fixed dt: u_hat(t+dt) = G u_hat with the gain
G = e^(-c |xi|^(2m) dt) (1 + dt (rhs0 + c |xi|^(2m))), one complex
multiply.  So a batch of unit rows needs no transform to step, only the
inverse of each new state that the tripwire, the coefficient and the
snapshots read, and makes one inverse per block of steps (below), where a batch with a products row makes 1 + 2 dim
transforms per step for all its rows.  Only the pass picks a row's route,
and from the coefficient, not the config.  A halving reuses the remainder
and forms the candidate again at the new dt.  A non-finite product spreads
through the transforms to a non-finite remainder and candidate energy, so
the blow-up guard looks at the remainder only when the energy guard
rejects a step.  At n = 0 the coefficient is exactly 1, and f is not
evaluated when every row is at n = 0.  Every transform is a real FFT on the half spectrum, the multipliers
are tabled once per (grid, m), and the propagator e^(-c |xi|^(2m) dt) is
rebuilt only when dt changes, and G with it while the batch has a unit
row.  No 2/3-rule cut is applied: it removes aliasing only from quadratic
products, and f^n(|u|) is neither polynomial
nor smooth where u changes sign.  The divergence form keeps the zero mode
untouched, so the mass is conserved exactly, and the accumulated
dissipation 2 int_0^t int coef |g|^2 is tracked so the energy identity

    bf(0) = bf(t) + 2 * dissipation(t)

can be monitored as a runtime residual.

Rows and batches.  ``solve`` advances a batch of rows: runs that share the
data u0, the grid, f, m, t_final, snapshot_times and report_stride, and
may differ in n, variant, eps (hence c) and dt_init.  One config is a
batch of one, on the same code path.  The state, the spectra and the
products carry a leading row axis, so each transform, the spectral multiply
and one coefficient call, with each row's n, eps and variant as columns,
serve the whole batch once per step.  A row's reductions are numpy's
pairwise sums over its own row, and a unit row's step, remainder and
monitors are its own expressions beside any rows, so a row is bitwise the
same alone and in any batch.  BLAS's dot product is not used: it splits a long sum
across its threads, so its bits would follow the thread count.

Step and driver.  ``_Step`` is the scheme: it holds the stacked state, the
tables and the propagator cache, and ``_Step.advance``, the one caller of
``_candidate`` and ``_unit_states``, steps every row at the dts it is
given, a block of steps included (below), with the halvings, the blow-up,
stiffness, step-budget and tripwire exits, and the pass of the new state.  While the
rows share dt the step is whole-array work with one propagator table; only
a row leaving or the unit rows of a batch with products rows index rows.
The step runs in arrays that ``_Step._tables`` allocates once per batch
shape (again when a row leaves): the state spectrum and its spare, the
remainder, the grid values, the power, the coefficient and the work arrays
of the pass.  Fresh temporaries of a 256^2 grid are past glibc's mmap
threshold, and the pages it maps and trims again cost about 56 000 minor
page faults per 40-step solve.  With the fixed arrays about 1 700 remain:
f's values inside the coefficient and numpy's complex stage of each 2-D
inverse are still fresh, but the heap no longer shrinks between steps, so
their pages stay mapped.  ``_solve_rows`` keeps each row's record
(``_Row``) and picks its dt, and it drops the rows that are done or failed
while the others go on.

Blocks.  While every live row was a unit row at the last pass and every
row steps at its dt_init, one dt for all, ``_solve_rows`` asks ``advance``
for up to 64 states at once (fewer where their arrays would pass 1 MiB; a
2-D 256^2 state steps alone), ending before a row's next clipped step and
at its next target or report step.  ``advance`` forms each state from the
one before by the rows' gain G (``_unit_states``), the multiply of a single
step, and serves the whole block at once: one inverse transform, one
power, the energy and flux sums, one tripwire maximum, and one coefficient
call.  State 0 is guarded as in any step; the block keeps each later state
that its rules in ``advance`` allow, so it ends before a state that fails
a guard or trips the wire, which the next ``advance`` takes again as its
state 0, or with the first state that is not all unit rows, whose
coefficient the pass reuses.  So each state's coefficient is evaluated
once, and a row is bitwise the same whether it steps in blocks or not.
Another scheme, such as a second-order exponential step, replaces the
products rows' candidate and G; a unit row's step stays one fixed gain per
dt, and its block the same running product.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from ._validate import require_int, require_real, require_reals
from .degeneracy import RegPath, coefficient_bound, reg_coefficient
from .gridfield import (
    DecayAssertionError,
    Field,
    GridSpec,
    _coef_divergence,
    _column,
    _row_sums,
    _rows_spectrum,
    _spectrum,
    _Spectrum,
    assert_boundary_decay,
    boundary_shell_max,
    coordinates,
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

# A step whose energy guard still fails after this many halvings of its dt
# is a stiffness failure.
_MAX_HALVINGS = 30

# A batch of unit rows steps in blocks of at most this many states, fewer
# where the block's arrays would pass _BLOCK_BYTES; below two it steps alone
# (see "Blocks" in the module docstring).
_BLOCK_STEPS = 64
_BLOCK_BYTES = 1 << 20

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
    snapshot_times: tuple = ()
    report_stride: int = 1

    def __post_init__(self):
        require_int("m", self.m, choices=(2, 3))
        require_int("report_stride", self.report_stride, lo=1)
        require_real("eps", self.eps)
        for name in ("dt_init", "t_final"):
            require_real(name, getattr(self, name), "positive")
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


def _power_sums(weight: np.ndarray, u_hat: np.ndarray, power: np.ndarray, scratch: np.ndarray) -> list:
    """Per row, the sum of weight |u_hat|^2 over the row; |u_hat|^2 is left
    in ``power`` and ``scratch`` is overwritten (both shaped like u_hat,
    real)."""
    np.square(u_hat.real, out=power)
    power += np.square(u_hat.imag, out=scratch)
    return _row_sums(weight, power, scratch)


def _candidate(dt, u_hat: np.ndarray, rem: np.ndarray, prop: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The step's candidate prop (u_hat + dt rem), written to ``out`` and
    returned; the factors go in the other order, same bits."""
    np.multiply(dt, rem, out=out)
    out += u_hat
    out *= prop
    return out


def _unit_states(gain: np.ndarray, u_hat: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Unit rows' states from u_hat, each the one before times its gain:
    ``out`` takes len(out) // len(u_hat) of them, state after state, and is
    returned.  Each state is one contiguous complex multiply, the single
    step's own, so a block's states have the bits of single steps.
    ``np.multiply.accumulate`` along the state axis runs a strided loop,
    which gives a product that underflows to zero another sign and is
    slower past one row of a 1-D spectrum."""
    n = len(u_hat)
    np.multiply(u_hat, gain, out=out[:n])
    for j in range(n, len(out), n):
        np.multiply(out[j - n:j], gain, out=out[j:j + n])
    return out


# ---------------------------------------------------------------------------
# monitors


def _bf_from_hat(spec: _Spectrum, u_hat: np.ndarray):
    """(bf_energy, bf_lower) from the half spectrum u_hat = rfft(u) of one
    row: the sums of |xi|^(2(m-1)) |u_hat|^2 and of its |xi|^(2(m-2))
    analogue (the lower-order bound, meaningful for even m)."""
    power, scratch = np.empty((1, *u_hat.shape)), np.empty((1, *u_hat.shape))
    bf = _power_sums(spec.w_hi, u_hat[None], power, scratch)[0]
    return bf, _row_sums(spec.w_lo, power, scratch)[0]


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
    return config.path.f, config.m, config.t_final, config.snapshot_times, config.report_stride


class _Row:
    """One row's own record: its clock, dt cap, accepted and rejected step
    counts and step budget, energy, flux and dissipation integrals, next
    target, snapshots and reports, and its position in the caller's
    sequence."""

    __slots__ = ("index", "config", "t", "dt_cap", "steps", "rejected", "budget", "bf", "flux", "diss",
                 "flux_acc", "diss_acc", "target", "snapshots", "reports")

    def __init__(self, index: int, config: SolverConfig):
        self.index, self.config = index, config
        self.t, self.dt_cap, self.steps, self.rejected, self.target = 0.0, config.dt_init, 0, 0, 0
        self.flux_acc = self.diss_acc = 0.0
        # a run that never halves takes one step per dt_init and at most one
        # clipped step per target; the budget, on accepted and rejected steps
        # alike, is four times that plus one full halving and its climb back
        targets = len({t for t in config.snapshot_times if t > 0.0} | {config.t_final})
        self.budget = 4 * (math.ceil(config.t_final / config.dt_init) + targets) + 2 * _MAX_HALVINGS


_NONFINITE = "non-finite coefficient-gradient product (blow-up signal)"


class _Step:
    """The scheme over the live rows, in the caller's order: their stacked
    spectra, grid values, coefficient and power |u_hat|^2; the remainders
    R_hat(u) + lin u_hat, the monitor integrals and the unit rows'
    positions of the last pass (kept in step when a row leaves); bf(0)
    and the energy guard's tolerance; and, rebuilt by ``_tables`` whenever
    a row leaves, the multipliers tiled over the rows, each row's linear
    symbol lin = c |xi|^(2m), paths and eps, the propagator e^(-lin dt) of
    the last dts, while the batch has a unit row its gain
    e^(-lin dt) (1 + dt (rhs0 + lin)), and the step's work arrays.  The unit
    rows' ``rhs0`` and ``w_g`` are in the same table, one row wide.

    A step writes into those fixed arrays, not into fresh temporaries (the
    module docstring gives the page-fault counts).  The state spectrum has
    two buffers: the candidate goes to the spare one, which aliases neither
    the state nor its remainder that a halving reads, and becomes the state
    when the step ends.  A block's states go to arrays of its own.
    """

    def __init__(self, grid: GridSpec, rows: list, u_hat0: np.ndarray, bf0: float, trip: float):
        self.grid, self.m, self.trip = grid, rows[0].config.m, trip
        self.bf0, self.limit = bf0, _ENERGY_RTOL * bf0  # a step may raise bf this far above min(bf, bf(0))
        self.rows = rows
        self.u_hat = np.repeat(u_hat0[None], len(rows), axis=0)
        self.u = np.repeat(irfft(grid, u_hat0)[None], len(rows), axis=0)
        self.rem, self.power = np.empty_like(self.u_hat), np.empty(self.u_hat.shape)
        self._tables()
        _power_sums(self.spec.w_hi, self.u_hat, self.power, self.prod)
        self._pass(reg_coefficient(self.paths, self.eps, self.u, out=self.coef))

    def _tables(self) -> None:
        self.spec = _rows_spectrum(self.grid, self.m, len(self.rows))
        self.lin = _column([row.config.c for row in self.rows], self.grid.dim) * self.spec.k2m
        self.paths = tuple(row.config.path for row in self.rows)
        self.eps = tuple(row.config.eps for row in self.rows)
        self.prop_dts = self.gain = None
        half, grid = self.u_hat.shape, self.u.shape
        self.spare, self.s = np.empty(half, complex), np.empty(half, complex)
        self.prop, self.prod = np.empty(half), np.empty(half)
        self.g, self.p, self.coef = np.empty(grid), np.empty(grid), np.empty(grid)
        # a block state: its spectrum, power and row sums, grid values and coefficient
        state_bytes = 32 * self.u_hat.size + 16 * self.u.size
        self.block_cap = min(_BLOCK_STEPS, _BLOCK_BYTES // state_bytes)
        self.block_arrays = None

    @property
    def all_unit(self) -> bool:
        """Whether every live row was a unit row at the last pass."""
        return len(self.unit) == len(self.rows)

    def bf_lower(self, i: int) -> float:
        """The lower-order energy of row i of the state (meaningful for even
        m): the sum of |xi|^(2(m-2)) |u_hat|^2, from the row's power."""
        return _row_sums(self.spec.w_lo, self.power[i:i + 1], self.prod[i:i + 1])[0]

    def _pass(self, coef: np.ndarray) -> None:
        """The pass of the current state, from its coefficient ``coef`` (one
        call for the whole batch), which finds the unit rows: every row's
        remainder, its signed divergence (-1)^(m-1) div p plus lin u_hat,
        and its monitors.  Unless every row is a unit row, the whole batch
        goes through ``_coef_divergence``, which applies the sign; then each
        unit row takes rhs0 u_hat, signed by its table, and its
        Parseval sum on its own, so that its values do not depend on the
        rows beside it.  The power of the state is the one the step formed
        for its energy guard."""
        # each row's first entry first, so a products row costs no pass over its grid
        firsts = coef.reshape(len(coef), -1)[:, 0].tolist()
        self.unit = unit = [i for i, c in enumerate(firsts) if c == 1.0 and (coef[i] == 1.0).all()]
        if self.all_unit:  # no chain, no products
            self.flux, self.diss = [0.0] * len(unit), [0.0] * len(unit)
        else:
            self.flux, self.diss = _coef_divergence(self.spec, coef, self.u_hat, self.rem, self.s, self.g, self.p)
        for i in unit:
            np.multiply(self.spec.rhs0, self.u_hat[i], out=self.rem[i])
            self.flux[i] = self.diss[i] = _row_sums(self.spec.w_g, self.power[i:i + 1], self.prod[i:i + 1])[0]
        self.rem += np.multiply(self.lin, self.u_hat, out=self.s)

    def drop(self, gone: list) -> None:
        """Take the rows at the positions ``gone`` out."""
        keep = [i for i in range(len(self.rows)) if i not in gone]
        self.rows = [self.rows[i] for i in keep]
        self.u_hat, self.u = self.u_hat[keep], self.u[keep]
        self.rem, self.power = self.rem[keep], self.power[keep]
        self.unit = [j for j, i in enumerate(keep) if i in self.unit]  # at their new positions
        if self.rows:
            self._tables()

    def _propagator(self, dts: list):
        """Make ``prop`` e^(-lin dt) for row i's dt dts[i] and, while the
        batch has a unit row, ``gain`` prop (1 + dt (rhs0 + lin)), unless
        they already are; returns dts as a column (one float while the rows
        share dt)."""
        dt = _column(dts, self.grid.dim)
        if dts != self.prop_dts or (self.unit and self.gain is None):
            self.prop_dts, self.gain = dts[:], None
            np.multiply(np.negative(self.lin, out=self.prop), dt, out=self.prop)  # -lin dt
            np.exp(self.prop, out=self.prop)
            if self.unit:  # complex: a real gain would be cast to complex in every multiply
                factor = np.add(self.spec.rhs0, self.lin, out=self.prod)
                factor *= dt
                factor += 1.0
                self.gain = np.multiply(factor, self.prop, out=np.empty(self.u_hat.shape, complex))
        return dt

    def advance(self, dts: list, bf: list, steps: int = 1):
        """Step row i by dts[i] from its energy bf[i], up to ``steps`` times
        for a block of unit rows, and pass the last state kept.  A unit row's
        states are its gain steps (``_unit_states``), a products row's its
        candidate; a state's energy guard is min(bf, bf0) + limit on the
        state before it.

        State 0 is guarded row by row: a failing row halves its dt in place
        and counts a rejected step, the whole batch stepping again at one
        state, or records a blow-up or stiffness error.  A later state is kept while no row has failed or
        halved, every row passes its guard and the tripwire, and the state
        before it was all unit rows.  Returns per kept state the rows' (bf,
        flux, dissipation integrand), per row its halvings, and the failures
        as {position: error}.  A failed row keeps its state until it is
        dropped; its monitors are not read.
        """
        rows, u_hat, rem, n = self.rows, self.u_hat, self.rem, len(self.rows)
        block = steps > 1
        if block:  # the block's own arrays: spectra, power, row sums, grid values and coefficient
            if self.block_arrays is None:
                half, grid = (self.block_cap * n, *u_hat.shape[1:]), (self.block_cap * n, *self.u.shape[1:])
                self.block_arrays = (np.empty(half, complex), *(np.empty(shape) for shape in (half, half, grid, grid)))
            hat, power, sums, u, coef = (a[:steps * n] for a in self.block_arrays)
        else:  # the step's own arrays; the new state swaps with u_hat
            hat, power, sums, u, coef = self.spare, self.power, self.prod, self.u, self.coef
        bf0, limit, halvings, failures = self.bf0, self.limit, [0] * n, {}
        trial = range(n)
        while trial:  # the first try, then the whole batch again at one state while a row halves
            dt = self._propagator(dts)
            if self.all_unit:
                _unit_states(self.gain, u_hat, hat[:steps * n])
            else:  # each unit row's candidate is its own gain step
                _candidate(dt, u_hat, rem, self.prop, hat[:n])
                for i in self.unit:
                    _unit_states(self.gain[i:i + 1], u_hat[i:i + 1], hat[i:i + 1])
            energies = _power_sums(self.spec.w_hi, hat[:steps * n], power[:steps * n], sums[:steps * n])
            # each row over its guard fails or halves its own dt; past the
            # first try, which is whole-array work, this is the rare path (a
            # non-finite candidate has a non-finite bf, which the guard
            # rejects too)
            retry = []
            for i in trial:
                if energies[i] <= min(bf[i], bf0) + limit:
                    continue
                row = rows[i]
                tries = row.steps + row.rejected + 1
                # a non-finite remainder makes every candidate of the step
                # non-finite, so the blow-up guard need look only here
                if halvings[i] == 0 and not np.isfinite(rem[i]).all():
                    failures[i] = BlowupError(f"{_NONFINITE} at t = {row.t:g}, dt = {dts[i]:.3e}")
                elif halvings[i] == _MAX_HALVINGS:
                    failures[i] = StiffnessError(
                        f"stiffness failure at t = {row.t:g}: dt underflowed after {_MAX_HALVINGS} halvings "
                        f"(last dt = {dts[i]:.3e}, bf jump {energies[i] - bf[i]:.3e}, "
                        f"finite = {bool(np.isfinite(hat[i]).all())})"
                    )
                elif tries > row.budget:
                    failures[i] = StiffnessError(
                        f"stiffness failure at t = {row.t:g}: step budget spent, {tries} accepted and "
                        f"rejected steps against a budget of {row.budget} (last dt = {dts[i]:.3e})"
                    )
                else:
                    halvings[i] += 1
                    row.rejected += 1
                    dts[i] *= 0.5
                    retry.append(i)
            if retry:
                steps = 1
            trial = retry
        for i in failures:
            hat[i], steps = u_hat[i], 1  # a finite stand-in until the row leaves, and no later state
        kept = 1
        if block:  # each later state while every row passes its guard on the one before
            while kept < steps and all(e <= min(b, bf0) + limit for e, b in zip(
                    energies[kept * n:(kept + 1) * n], energies[(kept - 1) * n:kept * n])):
                kept += 1
            hat, u, coef = hat[:kept * n], u[:kept * n], coef[:kept * n]
        # |u| goes to the coefficient's array, which is free until the
        # coefficient call; one maximum for all states while no row trips
        abs_u = np.abs(irfft(self.grid, hat, out=u), out=coef)
        if abs_u.max() > self.trip:  # the block ends before the first state in which a row trips
            sups = abs_u.reshape(kept * n, -1).max(axis=1).tolist()
            kept = max(next(j for j, sup in enumerate(sups) if sup > self.trip) // n, 1)
            for i, sup in enumerate(sups[:n]):  # unless that is state 0, where those rows fail
                if sup > self.trip and i not in failures:
                    failures[i] = BlowupError(
                        f"boundedness tripwire: sup|u| = {sup:.3g} exceeds "
                        f"{_TRIPWIRE_FACTOR:g} * sup|u0| = {self.trip:.3g} at t = {rows[i].t + dts[i]:g}"
                    )
            u, coef = u[:kept * n], coef[:kept * n]
        if not block:  # one state: it swaps with u_hat
            self.u_hat, self.spare = hat, u_hat
            self._pass(reg_coefficient(self.paths, self.eps, u, out=coef))
            return [(energies, self.flux, self.diss)], halvings, failures
        coef, states = reg_coefficient(self.paths * kept, self.eps * kept, u, out=coef), []
        if kept > 1:  # up to and with the first state that is not all unit rows
            units = (coef == 1.0).reshape(kept, -1).all(axis=1).tolist()
            kept = next((j + 1 for j, unit in enumerate(units) if not unit), kept)
        before = (kept - 1) * n
        if before:  # all unit rows: each row's flux is its Parseval sum
            flux = _row_sums(self.spec.w_g, power[:before], sums[:before])
            states = [(energies[a:a + n], flux[a:a + n], flux[a:a + n]) for a in range(0, before, n)]
        # the last state kept, into the step's arrays
        last = slice(before, kept * n)
        self.u_hat[...], self.u[...], self.power[...] = hat[last], u[last], power[last]
        self._pass(coef[last])
        states.append((energies[last], self.flux, self.diss))
        return states, halvings, failures


def solve(u0: Field, config: SolverConfig | Sequence[SolverConfig]) -> Trajectory | list:
    """Integrate to t_final with energy-controlled steps and full monitoring.

    Snapshots are taken exactly at the requested times (dt is clipped to land
    on them) and each must pass the boundary-shell decay assertion.  Raises
    StiffnessError when 30 dt-halvings cannot make a step acceptable or the
    step budget is spent, and BlowupError if the tripwire fires.

    ``config`` may also be a sequence of row configs that share f, m,
    t_final, snapshot_times and report_stride (n, variant, eps and dt_init
    may differ).  The rows then advance together as one batch, each
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
        raise ValueError("batched rows must share f, m, t_final, snapshot_times and report_stride")
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
    bf0 = _bf_from_hat(_spectrum(grid, first.m), u_hat0)[0]
    start = Field(grid, u0.values, 0.0)

    def report(row, i):
        """Row ``row``'s report from the state of step position i."""
        # the zero mode is untouched by the scheme, so the mass stays constant
        mass = float(grid.cell_volume * step.u_hat[i][zero].real)
        return EnergyReport(
            t=row.t,
            mass=mass,
            bf_energy=row.bf,
            bf_lower=step.bf_lower(i),
            flux_l2_accum=row.flux_acc,
            dissipation_accum=row.diss_acc,
            dissipation_residual=row.bf + 2.0 * row.diss_acc - bf0,
        )

    rows = [_Row(i, config) for i, config in enumerate(configs)]
    step = _Step(grid, rows, u_hat0, bf0, _TRIPWIRE_FACTOR * float(np.max(np.abs(u0.values))))
    for i, row in enumerate(rows):
        row.bf, row.flux, row.diss = bf0, step.flux[i], step.diss[i]
        row.snapshots = [start]
        row.reports = [report(row, i)]
    results = [None] * len(configs)
    stride = first.report_stride

    def block_steps(rows) -> int:
        """How many steps the rows take in the next ``advance``: up to and
        with each row's next target or report step, before its next clipped
        step, and at most the step's block length; 1 unless every row was a
        unit row at the batch's last pass and steps at its dt_init, one dt
        for all."""
        dt = rows[0].dt_cap
        if not step.all_unit or any(row.dt_cap != dt or row.config.dt_init != dt for row in rows):
            return 1
        steps = step.block_cap
        for row in rows:
            t, done, target = row.t, 0, targets[row.target]
            while done < steps and dt <= target - t:  # not clipped
                done += 1
                t += dt
                if t >= reached[row.target] or (row.steps + done) % stride == 0:
                    break
            steps = done
        return max(steps, 1)

    def accept(dts, energies, flux, diss, halvings, failures) -> list:
        """Each row's record of its step of dts[i], or its failure; returns
        the positions of the rows that failed or are done."""
        gone = []
        for i, row in enumerate(step.rows):
            if i in failures:
                results[row.index] = failures[i]
                gone.append(i)
                continue
            dt = dts[i]
            row.flux_acc += 0.5 * dt * (row.flux + flux[i])
            row.diss_acc += 0.5 * dt * (row.diss + diss[i])
            row.flux, row.diss = flux[i], diss[i]
            row.t += dt
            row.bf = energies[i]
            row.steps += 1
            row.dt_cap = min(row.config.dt_init, row.dt_cap * 2.0) if halvings[i] == 0 else dt
            if row.steps % stride == 0:
                row.reports.append(report(row, i))
            if row.t >= reached[row.target] and settle(i):
                gone.append(i)
        return gone

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
                    row.reports.append(report(row, i))
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
        states, halvings, failures = step.advance(dts, [row.bf for row in rows], block_steps(rows))
        gone = []
        for energies, flux, diss in states:
            gone += accept(dts, energies, flux, diss, halvings, failures)
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
