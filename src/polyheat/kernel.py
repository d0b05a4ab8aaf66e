"""Rescaled profile and fundamental solution of u_t = -(-Delta)^m u.

The self-similar kernel H(x, t) = t^(-N/2m) F(x t^(-1/2m)) is computed by two
independent routes:

* ``profile_bessel`` evaluates the radial oscillatory integral

      F(r) = (2 pi)^(-N/2) r^(1-N/2) int_0^inf e^(-s^(2m)) s^(N/2)
             J_{(N-2)/2}(r s) ds

  by composite Gauss-Legendre quadrature with node-doubling control.  For
  N = 1 the half-integer Bessel factor collapses to a cosine and the rule
  reads (1/pi) int e^(-s^(2m)) cos(r s) ds; for N = 2 the factor is J_0.

* ``profile_fourier`` computes the same function on a periodic grid as the
  exact linear flow of a unit point mass at x = 0, taken to t = 1: the
  multiplier e^(-|xi|^(2m)) that ``phe_solve`` applies is F's transform.

For m = 1 both reduce to the Gaussian (4 pi)^(-N/2) e^(-r^2/4); for m >= 2
the profile oscillates and decays like exp(-a r^alpha), alpha = 2m/(2m-1),
which ``decay_fit`` recovers from the envelope of the tabulation.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from ._validate import require_int, require_real
from .bessel import besselj
from .gridfield import (
    Field,
    GridSpec,
    _spectrum,
    assert_boundary_decay,
    irfft,
    rfft,
)

__all__ = [
    "QuadratureSpec",
    "KernelProfile",
    "DecayFit",
    "QuadratureError",
    "profile_quadrature",
    "profile_bessel",
    "profile_fourier",
    "phe_solve",
    "decay_fit",
    "radial_integral",
    "sign_change_count",
    "write_profile_csv",
    "read_profile_csv",
]


class QuadratureError(RuntimeError):
    """Node-doubling failed to converge; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class QuadratureSpec:
    """Truncation point and total node count for the radial integral."""

    s_max: float
    nodes: int

    def __post_init__(self):
        require_real("s_max", self.s_max, "positive")
        require_int("nodes", self.nodes, lo=1)


@dataclass(frozen=True)
class DecayFit:
    """Envelope model |F(r)| <= C exp(-a r^alpha); C absorbs the paper-level
    constant times the weight volume (they are not separable from data)."""

    C: float
    a: float
    alpha: float


@dataclass(frozen=True)
class KernelProfile:
    """Tabulated radial kernel profile with its quadrature provenance."""

    m: int
    dim: int
    radii: np.ndarray
    values: np.ndarray
    quadrature: QuadratureSpec
    decay_fit: DecayFit | None = None

    def __post_init__(self):
        require_int("m", self.m, lo=1)
        require_int("dim", self.dim, choices=(1, 2))
        r = _radii_array(self.radii)
        v = np.asarray(self.values, dtype=float)
        if v.shape != r.shape or not np.all(np.isfinite(v)):
            raise ValueError("values must be finite, one per radius")
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "values", v)


def _radii_array(radii) -> np.ndarray:
    """``radii`` as a float array, or a ValueError saying what they must be."""
    r = np.asarray(radii, dtype=float)
    if r.ndim != 1 or not np.all(np.isfinite(r)) or np.any(r < 0) or np.any(np.diff(r) <= 0):
        raise ValueError("radii must be a 1-D array of finite, nonnegative, strictly increasing numbers")
    return r


def profile_quadrature(m: int, dim: int) -> QuadratureSpec:
    """The starting quadrature for tabulating F_{m,N}, once m and dim are
    checked: 64 nodes up to s_max = 2 * 40^(1/2m).  e^(-s_max^(2m)) < 1e-16
    needs s_max^(2m) > 36.8, and here s_max^(2m) = 40 * 4^m >= 160."""
    require_int("m", m, lo=1)
    require_int("dim", dim, choices=(1, 2))
    return QuadratureSpec(s_max=2.0 * 40.0 ** (1.0 / (2 * m)), nodes=64)


_PANEL_NODES = 32


def _gauss_panels(s_max: float, total_nodes: int):
    panels = max(1, int(np.ceil(total_nodes / _PANEL_NODES)))
    x, w = np.polynomial.legendre.leggauss(_PANEL_NODES)
    edges = np.linspace(0.0, s_max, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    s = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wt = (half[:, None] * w[None, :]).ravel()
    return s, wt


def _radial_values(m: int, dim: int, radii: np.ndarray, s_max: float, nodes: int) -> np.ndarray:
    s, wt = _gauss_panels(s_max, nodes)
    damp = np.exp(-(s ** (2 * m))) * wt
    if dim == 1:
        return np.cos(np.outer(radii, s)) @ damp / np.pi
    return besselj(0, np.outer(radii, s)) @ (s * damp) / (2.0 * np.pi)


def profile_bessel(m: int, dim: int, radii) -> KernelProfile:
    """Tabulate F_{m,N} at the given radii by the oscillatory radial integral.

    The rule starts from ``profile_quadrature(m, dim)``.  The r = 0 entry is
    evaluated at r = 1e-8 (the integrand is analytic in r, so no separate
    limit formula is needed).  Node counts double until the tabulation
    stabilizes; failure to stabilize below 1e-8 is an error.  The profile
    records the truncation point and the final node count.
    """
    quadrature = profile_quadrature(m, dim)
    radii = _radii_array(radii)
    r_eval = np.where(radii == 0.0, 1e-8, radii)

    nodes = max(quadrature.nodes, _PANEL_NODES)
    vals = _radial_values(m, dim, r_eval, quadrature.s_max, nodes)
    residual = np.inf
    for _ in range(9):
        nodes *= 2
        refined = _radial_values(m, dim, r_eval, quadrature.s_max, nodes)
        residual = float(np.max(np.abs(refined - vals)))
        vals = refined
        if residual < 1e-13:
            break
    if residual > 1e-8:
        raise QuadratureError(
            f"radial quadrature did not converge (residual {residual:.3e} after {nodes} nodes)",
            residual,
        )
    return KernelProfile(
        m=m,
        dim=dim,
        radii=radii,
        values=vals,
        quadrature=QuadratureSpec(quadrature.s_max, nodes),
    )


def _check_symbol_resolved(grid: GridSpec, m: int) -> None:
    xi_max = np.pi * (grid.points_per_dim // 2) / grid.half_width
    if np.exp(-(xi_max ** (2 * m))) >= 1e-16:
        raise ValueError(
            f"grid under-resolves the symbol: |xi_max|^{2 * m} = {xi_max ** (2 * m):.3g} <= 36.8"
        )


def profile_fourier(m: int, grid: GridSpec) -> Field:
    """F_{m,N} on the grid: the flow of a unit point mass at x = 0 to t = 1."""
    _check_symbol_resolved(grid, m)
    delta = np.zeros(grid.shape)
    delta[(grid.points_per_dim // 2,) * grid.dim] = 1.0 / grid.cell_volume  # x = 0
    return phe_solve(Field(grid, delta), m, 1.0)


def phe_solve(u0: Field, m: int, t: float) -> Field:
    """Exact multiplier solution of u_t = -(-Delta)^m u at time t.

    The zero mode is untouched, so the mass is preserved exactly.  The
    result is tagged u0's time tag (None counts as 0) plus t, for every t.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    assert_boundary_decay(u0)
    tag = (u0.time_tag or 0.0) + t
    if t == 0.0:
        return Field(u0.grid, u0.values, tag)
    grid = u0.grid
    mult = np.exp(-_spectrum(grid, m).k2m * t)
    return Field(grid, irfft(grid, mult * rfft(grid, u0.values)), tag)


# ---------------------------------------------------------------------------
# diagnostics on tabulated profiles

_ZERO_FLOOR = 1e-13  # |F| at or below it counts as zero in the sign count and the envelope


def radial_integral(profile: KernelProfile) -> float:
    """∫_{R^N} F via the radial tabulation (2 ∫F dr in 1-D, 2π ∫F r dr in 2-D)."""
    from scipy.integrate import simpson

    r, v = profile.radii, profile.values
    if profile.dim == 1:
        return float(2.0 * simpson(v, x=r))
    return float(2.0 * np.pi * simpson(v * r, x=r))


def sign_change_count(profile: KernelProfile) -> int:
    """Number of sign changes along the tabulated radius (oscillation count)."""
    v = profile.values[np.abs(profile.values) > _ZERO_FLOOR]
    return int(np.sum(np.sign(v[:-1]) * np.sign(v[1:]) < 0))


def _envelope_points(profile: KernelProfile):
    r, v = profile.radii, np.abs(profile.values)
    usable = v > _ZERO_FLOOR
    if sign_change_count(profile) == 0:
        # Monotone tail (the m = 1 Gaussian): every tabulated point past the
        # peak is its own envelope; subsample to a spread comparable with the
        # oscillatory case.
        peak = int(np.argmax(v))
        idx = np.nonzero(usable)[0]
        idx = idx[idx > peak]
        if idx.size > 40:
            idx = idx[:: max(1, idx.size // 40)]
        return r[idx], v[idx]
    interior = (v[1:-1] >= v[:-2]) & (v[1:-1] > v[2:]) & usable[1:-1]
    idx = np.nonzero(interior)[0] + 1
    return r[idx], v[idx]


def decay_fit(profile: KernelProfile) -> DecayFit:
    """Fit ln|envelope| = ln C - a r^alpha over the outer envelope maxima.

    Requires at least five envelope points spanning a decade of decay; the
    innermost quarter of the maxima is dropped since the algebraic prefactor
    of the tail distorts the exponent there.
    """
    r, v = _envelope_points(profile)
    if r.size >= 8:
        cut = r.size // 4
        r, v = r[cut:], v[cut:]
    if r.size < 5:
        raise ValueError(f"insufficient decay range: only {r.size} envelope maxima")
    if v.max() / v.min() < 10.0:
        raise ValueError("insufficient decay range: envelope spans less than a decade")
    logv = np.log(v)
    alpha0 = 2 * profile.m / (2 * profile.m - 1)
    a0 = max((logv[0] - logv[-1]) / (r[-1] ** alpha0 - r[0] ** alpha0), 1e-3)

    def resid(p):
        log_c, a, alpha = p
        return log_c - a * r**alpha - logv

    sol = least_squares(
        resid,
        x0=np.array([logv[0] + a0 * r[0] ** alpha0, a0, alpha0]),
        bounds=([-50.0, 1e-6, 1.0], [50.0, 50.0, 2.5]),
    )
    log_c, a, alpha = sol.x
    return DecayFit(C=float(np.exp(log_c)), a=float(a), alpha=float(alpha))


# ---------------------------------------------------------------------------
# CSV serialization


def write_profile_csv(path, profile: KernelProfile) -> None:
    q = profile.quadrature
    lines = [f"# m={profile.m} N={profile.dim} s_max={float(q.s_max)!r} nodes={q.nodes}", "r,F"]
    for r, v in zip(profile.radii, profile.values):
        lines.append(f"{float(r)!r},{float(v)!r}")
    if profile.decay_fit is not None:
        f = profile.decay_fit
        lines.append(f"# fit C={f.C!r} a={f.a!r} alpha={f.alpha!r}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_profile_csv(path) -> KernelProfile:
    meta, fit, rows = {}, None, []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line == "r,F":
                continue
            if line.startswith("# fit"):
                parts = dict(tok.split("=") for tok in line[5:].split())
                fit = DecayFit(C=float(parts["C"]), a=float(parts["a"]), alpha=float(parts["alpha"]))
            elif line.startswith("#"):
                meta = dict(tok.split("=") for tok in line[1:].split())
            else:
                r, v = line.split(",")
                rows.append((float(r), float(v)))
    radii = np.array([r for r, _ in rows])
    values = np.array([v for _, v in rows])
    return KernelProfile(
        m=int(meta["m"]),
        dim=int(meta["N"]),
        radii=radii,
        values=values,
        quadrature=QuadratureSpec(float(meta["s_max"]), int(meta["nodes"])),
        decay_fit=fit,
    )


def with_decay_fit(profile: KernelProfile) -> KernelProfile:
    """Convenience: return the profile with its decay fit attached."""
    return dataclasses.replace(profile, decay_fit=decay_fit(profile))
