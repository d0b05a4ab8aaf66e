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
next step, its non-finite-product blow-up guard and the flux monitors
int |p|^2 and int p . g (dot products) all read that pass, and each halving
only re-applies e^(-c |xi|^(2m) dt) to the remainder.  At n = 0 the
coefficient is exactly 1 and f is not evaluated.  Every transform is a real
FFT on the half spectrum, the multipliers are tabled once per (grid, m), and
the propagator e^(-c |xi|^(2m) dt) is rebuilt only when dt changes.  The
divergence form keeps the zero mode untouched, so the mass is conserved
exactly, and the accumulated dissipation 2 int_0^t int coef |g|^2 is tracked
so the energy identity

    bf(0) = bf(t) + 2 * dissipation(t)

can be monitored as a runtime residual.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from ._validate import require_int, require_real, require_reals
from .degeneracy import RegPath, coefficient_bound, reg_coefficient
from .gridfield import (
    Field,
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
    "rhs",
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
        u_samples = np.linspace(-self.path.f.t_max, self.path.f.t_max, 201)
        peak = float(np.max(reg_coefficient(self.path, self.eps, u_samples)))
        if self.c < peak:
            raise ValueError(f"stabilization c = {self.c:g} below sampled coefficient peak {peak:g}")
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
# spectral building blocks (shared by rhs and the solve loop)


def _pass(spec: _Spectrum, config: SolverConfig, u: np.ndarray, u_hat: np.ndarray):
    """The per-state pass: the products p = coef(u) g with g = grad Delta^(m-1) u,
    the flux int |p|^2 and the dissipation integrand int coef |g|^2 = int p . g.

    The remainder and its blow-up guard read p; the monitors read the integrals.
    """
    coef = reg_coefficient(config.path, config.eps, u)
    g = grad_chain(spec, u_hat)
    p = [coef * gi for gi in g]
    flux = sum(np.vdot(pi, pi) for pi in p)
    diss = sum(np.vdot(pi, gi) for pi, gi in zip(p, g))
    return p, float(spec.grid.cell_volume * flux), float(spec.grid.cell_volume * diss)


def _rhs_hat(spec: _Spectrum, config: SolverConfig, p: list) -> np.ndarray:
    """(-1)^(m-1) div p on the half spectrum, from the products of ``_pass``."""
    if not all(np.isfinite(pi).all() for pi in p):
        raise BlowupError("non-finite coefficient-gradient product (blow-up signal)")
    sign = 1.0 if config.m % 2 == 1 else -1.0  # (-1)^(m-1)
    return sign * divergence_hat(spec, p, config.dealias)


def rhs(u: Field, config: SolverConfig) -> Field:
    """(-1)^(m-1) div( coef(u) grad Delta^(m-1) u ), dealiased product."""
    spec = _spectrum(u.grid, config.m)
    p, _, _ = _pass(spec, config, u.values, rfft(u.grid, u.values))
    return Field(u.grid, irfft(u.grid, _rhs_hat(spec, config, p)), u.time_tag)


# ---------------------------------------------------------------------------
# monitors


def _bf_from_hat(spec: _Spectrum, u_hat: np.ndarray):
    """(bf_energy, bf_lower) from the half spectrum u_hat = rfft(u): the sums
    of |xi|^(2(m-1)) |u_hat|^2 and of its |xi|^(2(m-2)) analogue (the
    lower-order bound, meaningful for even m)."""
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
    if tail > 1e-10:
        raise ValueError(f"u0 is not smooth enough: spectral tail fraction {tail:.3e} > 1e-10")
    assert_boundary_decay(u0)


def _run_id(u0: Field, config: SolverConfig) -> str:
    h = hashlib.sha256()
    h.update(repr(config).encode())
    h.update(u0.values.tobytes())
    return h.hexdigest()[:12]


def solve(u0: Field, config: SolverConfig) -> Trajectory:
    """Integrate to t_final with energy-controlled steps and full monitoring.

    Snapshots are taken exactly at the requested times (dt is clipped to land
    on them) and each must pass the boundary-shell decay assertion.  Raises
    StiffnessError when 30 dt-halvings cannot make a step acceptable and
    BlowupError if the uniform-boundedness tripwire fires.
    """
    _validate_initial(u0)
    grid = u0.grid
    sup0 = float(np.max(np.abs(u0.values)))
    targets = sorted(set(t for t in config.snapshot_times if t > 0.0) | {config.t_final})

    spec = _spectrum(grid, config.m)
    lin = config.c * spec.k2m
    u_hat = rfft(grid, u0.values)
    u = irfft(grid, u_hat)
    p, flux_now, diss_now = _pass(spec, config, u, u_hat)
    t = 0.0
    bf, bf_lo = _bf_from_hat(spec, u_hat)
    bf0 = bf
    flux_acc = 0.0
    diss_acc = 0.0

    def report(t_cur, bf_cur, bf_lo_cur):
        # the zero mode is untouched by the scheme, so this stays constant
        mass = float(grid.cell_volume * u_hat[(0,) * grid.dim].real)
        return EnergyReport(
            t=t_cur,
            mass=mass,
            bf_energy=bf_cur,
            bf_lower=bf_lo_cur,
            flux_l2_accum=flux_acc,
            dissipation_accum=diss_acc,
            dissipation_residual=bf_cur + 2.0 * diss_acc - bf0,
        )

    snapshots = [Field(grid, u0.values, 0.0)]
    reports = [report(0.0, bf, bf_lo)]
    dt_cap = config.dt_init
    steps = 0
    prop_dt = prop = None  # e^(-lin dt) of the last candidate's dt

    for target in targets:
        while t < target - 1e-15 * max(1.0, target):
            dt = min(dt_cap, target - t)
            try:
                rem_hat = _rhs_hat(spec, config, p) + lin * u_hat
            except BlowupError as err:
                raise BlowupError(f"{err} at t = {t:g}, dt = {dt:.3e}") from None
            halvings = 0
            while True:
                if dt != prop_dt:
                    prop_dt, prop = dt, np.exp(-lin * dt)
                cand_hat = prop * (u_hat + dt * rem_hat)
                cand_bf, cand_bf_lo = _bf_from_hat(spec, cand_hat)
                finite = np.isfinite(cand_hat).all()
                if finite and cand_bf <= min(bf, bf0) + _ENERGY_RTOL * bf0:
                    break
                halvings += 1
                if halvings > 30:
                    raise StiffnessError(
                        f"stiffness failure at t = {t:g}: dt underflowed after 30 halvings "
                        f"(last dt = {dt:.3e}, bf jump {cand_bf - bf:.3e}, finite = {finite})"
                    )
                dt *= 0.5
            u = irfft(grid, cand_hat)
            sup = float(np.abs(u).max())
            if sup > _TRIPWIRE_FACTOR * sup0:
                raise BlowupError(
                    f"boundedness tripwire: sup|u| = {sup:.3g} exceeds "
                    f"{_TRIPWIRE_FACTOR:g} * sup|u0| = {_TRIPWIRE_FACTOR * sup0:.3g} at t = {t + dt:g}"
                )
            p, flux_new, diss_new = _pass(spec, config, u, cand_hat)
            flux_acc += 0.5 * dt * (flux_now + flux_new)
            diss_acc += 0.5 * dt * (diss_now + diss_new)
            flux_now, diss_now = flux_new, diss_new
            u_hat = cand_hat
            t += dt
            bf, bf_lo = cand_bf, cand_bf_lo
            steps += 1
            if halvings == 0:
                dt_cap = min(config.dt_init, dt_cap * 2.0)
            else:
                dt_cap = dt
            if steps % config.report_stride == 0:
                reports.append(report(t, bf, bf_lo))
        snap = Field(grid, u, t)
        assert_boundary_decay(snap)
        snapshots.append(snap)
        if reports[-1].t != t:
            reports.append(report(t, bf, bf_lo))

    return Trajectory(snapshots=tuple(snapshots), reports=tuple(reports), run_id=_run_id(u0, config))


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


_ENERGY_COLUMNS = "t,mass,bf_energy,bf_lower,flux_l2_accum,dissipation_accum,dissipation_residual"


def write_energy_csv(path, reports) -> None:
    lines = [_ENERGY_COLUMNS]
    for r in reports:
        lines.append(
            f"{r.t!r},{r.mass!r},{r.bf_energy!r},{r.bf_lower!r},"
            f"{r.flux_l2_accum!r},{r.dissipation_accum!r},{r.dissipation_residual!r}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
