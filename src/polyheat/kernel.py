"""Rescaled profile and fundamental solution of u_t = -(-Delta)^m u.

The self-similar kernel H(x, t) = t^(-N/2m) F(x t^(-1/2m)) is computed by two
independent routes:

* ``profile_bessel`` evaluates the radial oscillatory integral

      F(r) = (2 pi)^(-N/2) r^(1-N/2) int_0^inf e^(-s^(2m)) s^(N/2)
             J_{(N-2)/2}(r s) ds

  with node-doubling control.  For N = 1 the half-integer Bessel factor
  collapses to a cosine, F(r) = (1/pi) int_0^inf e^(-s^(2m)) cos(r s) ds,
  and the integrand is even and entire in s: the trapezoid rule converges
  geometrically for it, and halving the step reuses every node.  For N = 2
  the integrand s J_0(r s) e^(-s^(2m)) is odd in s, where the trapezoid rule
  is only O(h^2), so that case uses composite Gauss-Legendre panels.

* ``profile_fourier`` computes the same function on a periodic grid as the
  exact linear flow of a unit point mass at x = 0, taken to t = 1: the
  multiplier e^(-|xi|^(2m)) that ``phe_solve`` applies is F's transform.

For m = 1 both reduce to the Gaussian (4 pi)^(-N/2) e^(-r^2/4); for m >= 2
the profile oscillates and decays like exp(-a r^alpha), alpha = 2m/(2m-1),
which ``decay_fit`` recovers from the envelope of the tabulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

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
    """Truncation point and node count for the radial integral.  In 1-D,
    ``nodes`` counts the trapezoid rule's intervals (it evaluates one node
    more); in 2-D it counts the Gauss-Legendre nodes."""

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
    if r.ndim != 1 or not r.size or not np.all(np.isfinite(r)) or np.any(r < 0) or np.any(np.diff(r) <= 0):
        raise ValueError("radii must be a 1-D array of finite, nonnegative, strictly increasing numbers, at least one")
    return r


def profile_quadrature(m: int, dim: int) -> QuadratureSpec:
    """The starting quadrature for tabulating F_{m,N}, once m and dim are
    checked: 64 nodes (1-D: intervals) up to s_max = 2 * 40^(1/2m).
    e^(-s_max^(2m)) < 1e-16 needs s_max^(2m) > 36.8, and here
    s_max^(2m) = 40 * 4^m >= 160."""
    require_int("m", m, lo=1)
    require_int("dim", dim, choices=(1, 2))
    return QuadratureSpec(s_max=2.0 * 40.0 ** (1.0 / (2 * m)), nodes=64)


_PANEL_NODES = 32


@cache
def _legendre_rule():
    """The 32-point Gauss-Legendre nodes and weights on [-1, 1], read-only:
    every caller shares them."""
    x, w = np.polynomial.legendre.leggauss(_PANEL_NODES)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss_panels(s_max: float, total_nodes: int):
    panels = max(1, int(np.ceil(total_nodes / _PANEL_NODES)))
    x, w = _legendre_rule()
    edges = np.linspace(0.0, s_max, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    s = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wt = (half[:, None] * w[None, :]).ravel()
    return s, wt


def _trapezoid_tables(m: int, radii: np.ndarray, s_max: float, nodes: int):
    """(1/pi) int_0^s_max cos(r s) e^(-s^(2m)) ds at each radius, by the
    trapezoid rule with nodes, 2 nodes, 4 nodes, ... intervals, one
    tabulation per ``next``.  The s = 0 node has half weight; s_max carries
    a full one, but e^(-s_max^(2m)) is below 1e-16.  Each halving of the
    step evaluates only the new midpoints and adds them to the running sum.
    Each radius is summed by ``einsum``, not by a BLAS matrix-vector product
    that OpenBLAS splits across threads, so the bits follow no thread count."""
    h = s_max / nodes
    s = h * np.arange(nodes + 1)
    weight = np.exp(-(s ** (2 * m)))
    weight[0] = 0.5  # e^0 at half weight
    total = np.zeros(radii.size)
    while True:
        total += np.einsum("ij,j->i", np.cos(np.outer(radii, s)), weight)
        yield total * (h / np.pi)
        h *= 0.5
        s = h * np.arange(1, 2 * nodes, 2)
        weight = np.exp(-(s ** (2 * m)))
        nodes *= 2


def _gauss_tables(m: int, radii: np.ndarray, s_max: float, nodes: int):
    """(1/2pi) int_0^s_max s J_0(r s) e^(-s^(2m)) ds at each radius, by
    Gauss-Legendre panels with nodes, 2 nodes, 4 nodes, ... in all, one
    tabulation per ``next``, each radius summed as in
    ``_trapezoid_tables``."""
    while True:
        s, wt = _gauss_panels(s_max, nodes)
        damp = np.exp(-(s ** (2 * m))) * wt
        yield np.einsum("ij,j->i", besselj(0, np.outer(radii, s)), s * damp) / (2.0 * np.pi)
        nodes *= 2


def profile_bessel(m: int, dim: int, radii) -> KernelProfile:
    """Tabulate F_{m,N} at the given radii by the oscillatory radial integral.

    The rule starts from ``profile_quadrature(m, dim)``: a nested trapezoid
    rule in 1-D, Gauss-Legendre panels in 2-D.  The r = 0 entry is evaluated
    at r = 1e-8 (the integrand is analytic in r, so no separate limit
    formula is needed).  Node counts double until the tabulation stabilizes
    below 1e-13; failure to stabilize below 1e-8 is an error.  The profile
    records the truncation point and the final node count.
    """
    quadrature = profile_quadrature(m, dim)
    radii = _radii_array(radii)
    r_eval = np.where(radii == 0.0, 1e-8, radii)

    nodes = quadrature.nodes
    tables = (_trapezoid_tables if dim == 1 else _gauss_tables)(m, r_eval, quadrature.s_max, nodes)
    vals = next(tables)
    residual = np.inf
    for _ in range(9):
        nodes *= 2
        refined = next(tables)
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
    require_int("m", m, lo=1)
    require_real("t", t, "nonnegative")
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


def _linear_decay(r: np.ndarray, logv: np.ndarray, alpha: float):
    """(ln C, a, residual sum of squares) of the least-squares fit of
    ln C - a r^alpha to ``logv`` at this alpha."""
    x = r**alpha
    xc, yc = x - x.mean(), logv - logv.mean()
    a = -float(xc @ yc) / float(xc @ xc)
    resid = yc + a * xc
    return float(logv.mean() + a * x.mean()), a, float(resid @ resid)


def decay_fit(profile: KernelProfile) -> DecayFit:
    """Fit ln|envelope| = ln C - a r^alpha over the outer envelope maxima.

    Requires at least five envelope points spanning a decade of decay; the
    innermost quarter of the maxima is dropped since the algebraic prefactor
    of the tail distorts the exponent there.  The model is linear in
    (ln C, a) at fixed alpha, so those are solved exactly for each alpha
    (variable projection; Golub & Pereyra, Inverse Problems 19, 2003), and
    alpha in [1, 2.5] minimizes the residual sum
    of squares: a grid of 16 exponents brackets the minimum, and a golden
    section search narrows the bracket to 1e-10.  A fit with a <= 0 finds
    no decay and is an error.

    The data set alpha to about 1e-3, not to the bracket's 1e-10: maxima
    down to ``_ZERO_FLOOR`` enter the log-space residual with full weight,
    and there a round-off of 1e-17 in the profile is a relative one of
    1e-4.  The criterion-1 m = 3 profiles of two quadratures that differ by
    at most 5e-16 fit alphas 1.3e-3 apart, each reproduced by scipy's
    ``least_squares`` on its own data.
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

    def rss(alpha):
        return _linear_decay(r, logv, alpha)[2]

    grid = np.linspace(1.0, 2.5, 16)
    best = int(np.argmin([rss(alpha) for alpha in grid]))
    lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)]
    golden = (5.0**0.5 - 1.0) / 2.0
    c, d = hi - golden * (hi - lo), lo + golden * (hi - lo)
    fc, fd = rss(c), rss(d)
    while hi - lo > 1e-10:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - golden * (hi - lo)
            fc = rss(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + golden * (hi - lo)
            fd = rss(d)
    alpha = 0.5 * (lo + hi)
    log_c, a, _ = _linear_decay(r, logv, alpha)
    if a <= 0.0:
        raise ValueError(f"no decay: the envelope fit has a = {a:.3g} <= 0")
    return DecayFit(C=float(np.exp(log_c)), a=a, alpha=float(alpha))


# ---------------------------------------------------------------------------
# CSV serialization


def write_profile_csv(path, profile: KernelProfile) -> None:
    q = profile.quadrature
    lines = [f"# m={profile.m} N={profile.dim} s_max={float(q.s_max)!r} nodes={q.nodes}", "r,F"]
    lines.extend(f"{r!r},{v!r}" for r, v in zip(profile.radii.tolist(), profile.values.tolist()))
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

