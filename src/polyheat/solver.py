"""Time integration of u_t = (-1)^(m-1) div( coef(u) grad Delta^(m-1) u ).

The scheme is a first-order stabilized IMEX split with an exact exponential
linear propagator: writing the equation as

    u_t = -c (-Delta)^m u + [ rhs(u) + c (-Delta)^m u ],

one step reads  u_hat(t+dt) = e^(-c |xi|^(2m) dt) (u_hat + dt R_hat(u)).
With c at least the coefficient's supremum the frozen-coefficient remainder
(coef - c) has the non-amplifying sign, so every Fourier mode contracts.

Step control is the energy monitor itself: a step is accepted only when the
parity-appropriate energy  int |xi|^(2(m-1)) |u_hat|^2  (equal to
int |Delta^((m-1)/2) u|^2 for odd m and int |grad Delta^((m-2)/2) u|^2 for
even m) does not increase beyond the configured tolerance; otherwise dt is
halved, up to 30 times.  The coefficient and the gradient chain
grad Delta^(m-1) u are evaluated once per accepted state: the flux monitors
of that state and the remainder R_hat(u) + c |xi|^(2m) u_hat of the next
step both read them, and each halving only re-applies e^(-c |xi|^(2m) dt)
to that remainder.  The divergence form keeps the zero mode untouched,
so the mass is conserved exactly, and the accumulated dissipation
2 int_0^t int coef |grad Delta^(m-1) u|^2 is tracked so the energy identity

    bf(0) = bf(t) + 2 * dissipation(t)

can be monitored as a runtime residual.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ._validate import require_int, require_real, require_reals
from .degeneracy import RegPath, coefficient_bound, reg_coefficient
from .gridfield import (
    Field,
    GridSpec,
    assert_boundary_decay,
    coordinates,
    divergence_hat,
    grad_chain,
    k_squared,
    radius,
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
    "step_imex",
    "solve",
    "bf_energies",
    "flux_density",
    "dissipation_density",
    "interface_report",
    "eventual_positivity",
    "write_energy_csv",
]


class StiffnessError(RuntimeError):
    """dt underflowed after the maximum number of halvings."""


class BlowupError(RuntimeError):
    """Non-finite values or the uniform-boundedness tripwire fired."""


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters for one regularized evolution.

    ``c`` defaults to 1.1 times the coefficient bound f^n(eps) + C_f^n, which
    keeps the explicit remainder non-amplifying.  ``tripwire_factor`` is the
    loose uniform-boundedness guard: the equation has no blow-up mechanism,
    so sup|u| past that multiple of sup|u0| aborts the run loudly.
    """

    m: int
    path: RegPath
    eps: float
    dt_init: float
    t_final: float
    c: float | None = None
    dealias: bool = True
    energy_tol: float = 1e-8
    snapshot_times: tuple = ()
    report_stride: int = 1
    tripwire_factor: float = 10.0

    def __post_init__(self):
        require_int("m", self.m, choices=(2, 3))
        require_int("report_stride", self.report_stride, lo=1)
        require_real("eps", self.eps)
        for name in ("dt_init", "t_final", "tripwire_factor"):
            require_real(name, getattr(self, name), "positive")
        require_real("energy_tol", self.energy_tol, "nonnegative")
        if self.c is not None:
            require_real("c", self.c)
        if not isinstance(self.dealias, bool):
            raise TypeError(f"dealias must be true or false, got {self.dealias!r}")
        require_reals("snapshot_times", self.snapshot_times)
        if not all(0.0 <= t <= self.t_final for t in self.snapshot_times):
            raise ValueError(f"snapshot_times must lie in [0, t_final = {self.t_final:g}]")
        if not (0.0 < self.eps <= 1.0):
            raise ValueError(f"eps must lie in (0, 1], got {self.eps:g}")
        if self.c is None:
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
# spectral building blocks (shared by the public ops and the solve loop)


def _state(grid: GridSpec, config: SolverConfig, u: np.ndarray, u_hat: np.ndarray):
    """coef(u) and the real components of g = grad Delta^(m-1) u for one state."""
    return reg_coefficient(config.path, config.eps, u), grad_chain(grid, u_hat, config.m - 1)


def _rhs_hat(grid: GridSpec, config: SolverConfig, coef: np.ndarray, g: list) -> np.ndarray:
    products = [coef * gi for gi in g]
    if not all(np.all(np.isfinite(p)) for p in products):
        raise BlowupError("non-finite coefficient-gradient product (blow-up signal)")
    sign = 1.0 if config.m % 2 == 1 else -1.0  # (-1)^(m-1)
    return sign * divergence_hat(grid, products, config.dealias)


def rhs(u: Field, config: SolverConfig) -> Field:
    """(-1)^(m-1) div( coef(u) grad Delta^(m-1) u ), dealiased product."""
    r_hat = _rhs_hat(u.grid, config, *_state(u.grid, config, u.values, np.fft.fftn(u.values)))
    return Field(u.grid, np.fft.ifftn(r_hat).real, u.time_tag)


def step_imex(u: Field, dt: float, config: SolverConfig) -> Field:
    """One raw stabilized IMEX step (no acceptance control; see ``solve``)."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    u_hat = np.fft.fftn(u.values)
    lin = config.c * k_squared(u.grid) ** config.m
    state = _state(u.grid, config, np.fft.ifftn(u_hat).real, u_hat)
    rem_hat = _rhs_hat(u.grid, config, *state) + lin * u_hat
    out = np.fft.ifftn(np.exp(-lin * dt) * (u_hat + dt * rem_hat)).real
    t0 = u.time_tag or 0.0
    return Field(u.grid, out, t0 + dt)


# ---------------------------------------------------------------------------
# monitors


def _bf_weights(grid: GridSpec, m: int):
    k2 = k_squared(grid)
    w_lo = k2 ** (m - 2) if m >= 2 else np.zeros_like(k2)
    return k2 ** (m - 1), w_lo


def _bf_from_hat(grid: GridSpec, m: int, u_hat: np.ndarray):
    scale = grid.cell_volume / grid.points_per_dim**grid.dim
    w_hi, w_lo = _bf_weights(grid, m)
    p = np.abs(u_hat) ** 2
    return float(scale * np.sum(w_hi * p)), float(scale * np.sum(w_lo * p))


def bf_energies(u: Field, m: int) -> EnergyReport:
    """Instantaneous monitored quantities (accumulators left at zero).

    bf_energy is int |Delta^((m-1)/2) u|^2 (odd m) alias
    int |grad Delta^((m-2)/2) u|^2 (even m); both equal the single multiplier
    sum |xi|^(2(m-1)) |u_hat|^2.  bf_lower is the |xi|^(2(m-2)) analogue
    (the lower-order bound, meaningful for even m).
    """
    u_hat = np.fft.fftn(u.values)
    bf, bf_lo = _bf_from_hat(u.grid, m, u_hat)
    mass = float(u.grid.cell_volume * np.sum(u.values))
    return EnergyReport(
        t=u.time_tag if u.time_tag is not None else 0.0,
        mass=mass,
        bf_energy=bf,
        bf_lower=bf_lo,
        flux_l2_accum=0.0,
        dissipation_accum=0.0,
        dissipation_residual=0.0,
    )


def _flux_parts(grid: GridSpec, coef: np.ndarray, g: list):
    """(int |coef * g|^2, int coef |g|^2) with g = grad Delta^(m-1) u."""
    flux = sum(np.sum((coef * gi) ** 2) for gi in g)
    diss = sum(np.sum(coef * gi**2) for gi in g)
    return float(grid.cell_volume * flux), float(grid.cell_volume * diss)


def flux_density(u: Field, config: SolverConfig) -> float:
    """int |coef(u) grad Delta^(m-1) u|^2 dx at one instant."""
    return _flux_parts(u.grid, *_state(u.grid, config, u.values, np.fft.fftn(u.values)))[0]


def dissipation_density(u: Field, config: SolverConfig) -> float:
    """int coef(u) |grad Delta^(m-1) u|^2 dx at one instant."""
    return _flux_parts(u.grid, *_state(u.grid, config, u.values, np.fft.fftn(u.values)))[1]


# ---------------------------------------------------------------------------
# the run loop


def _validate_initial(u0: Field, config: SolverConfig) -> None:
    sup = float(np.max(np.abs(u0.values)))
    if sup == 0.0:
        return
    outside = radius(u0.grid) > 0.5 * u0.grid.half_width
    if np.any(outside) and float(np.max(np.abs(u0.values[outside]))) > 1e-8 * sup:
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
    _validate_initial(u0, config)
    grid = u0.grid
    sup0 = float(np.max(np.abs(u0.values)))
    targets = sorted(set(t for t in config.snapshot_times if t > 0.0) | {config.t_final})

    lin = config.c * k_squared(grid) ** config.m
    u_hat = np.fft.fftn(u0.values).astype(complex)
    u = np.fft.ifftn(u_hat).real
    coef, g = _state(grid, config, u, u_hat)
    t = 0.0
    bf, bf_lo = _bf_from_hat(grid, config.m, u_hat)
    bf0 = bf
    flux_now, diss_now = _flux_parts(grid, coef, g)
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

    for target in targets:
        while t < target - 1e-15 * max(1.0, target):
            dt = min(dt_cap, target - t)
            rem_hat = _rhs_hat(grid, config, coef, g) + lin * u_hat
            halvings = 0
            while True:
                cand_hat = np.exp(-lin * dt) * (u_hat + dt * rem_hat)
                cand_bf, cand_bf_lo = _bf_from_hat(grid, config.m, cand_hat)
                finite = np.all(np.isfinite(cand_hat))
                ok = (
                    finite
                    and cand_bf <= bf + config.energy_tol
                    and cand_bf <= bf0 + config.energy_tol
                )
                if ok:
                    break
                halvings += 1
                if halvings > 30:
                    raise StiffnessError(
                        f"stiffness failure at t = {t:g}: dt underflowed after 30 halvings "
                        f"(bf jump {cand_bf - bf:.3e}, finite = {finite})"
                    )
                dt *= 0.5
            u = np.fft.ifftn(cand_hat).real
            sup = float(np.max(np.abs(u)))
            if sup > config.tripwire_factor * sup0:
                raise BlowupError(
                    f"boundedness tripwire: sup|u| = {sup:.3g} exceeds "
                    f"{config.tripwire_factor:g} * sup|u0| = {config.tripwire_factor * sup0:.3g} at t = {t + dt:g}"
                )
            coef, g = _state(grid, config, u, cand_hat)
            flux_new, diss_new = _flux_parts(grid, coef, g)
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


def interface_report(u: Field, threshold: float | None = None, region_half_width: float = 1.0) -> InterfaceReport:
    """Support measure, oscillation count, and positivity on a compact box.

    Sign changes are counted along each axis line through the domain center,
    ignoring entries below the threshold (default 1e-8 of the field's peak).
    """
    if threshold is None:
        threshold = 1e-8 * float(np.max(np.abs(u.values)))
    if not threshold > 0:
        raise ValueError("threshold must be positive")
    support = float(u.grid.cell_volume * np.count_nonzero(np.abs(u.values) > threshold))
    flips = 0
    for line in _axis_lines(u.values):
        live = line[np.abs(line) > threshold]
        if live.size >= 2:
            flips += int(np.sum(np.sign(live[:-1]) * np.sign(live[1:]) < 0))
    mask = np.ones(u.grid.shape, dtype=bool)
    for x in coordinates(u.grid):
        mask &= np.broadcast_to(np.abs(x) <= region_half_width, u.grid.shape)
    min_region = float(np.min(u.values[mask]))
    return InterfaceReport(
        support_measure=support,
        sign_change_count=flips,
        positivity_on_region=min_region > 0.0,
        min_on_region=min_region,
    )


def eventual_positivity(snapshots, region_half_width: float = 1.0) -> tuple:
    """``(T, all_positive_after)`` on the box |x_i| <= h: the latest snapshot
    time with a nonpositive minimum there (0.0 if none), and whether later
    snapshots exist and are all strictly positive there."""
    mins = [
        (s.time_tag, interface_report(s, region_half_width=region_half_width).min_on_region)
        for s in snapshots
    ]
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
