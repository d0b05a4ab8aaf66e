"""Degenerate mobility f, its powers, and the two regularization paths.

Admissible nonlinearities are continuous, strictly increasing, positive and
bounded with f(0) = 0; the built-in kinds are

    tanh            f(t) = tanh(t)
    rational        f(t) = t / (1 + t)
    exp_saturating  f(t) = 1 - exp(-t)
    power           f(t) = t^kappa     (unbounded; bound taken on [0, t_max])
    spline          monotone PCHIP through user knots

The full path  phi_eps(u) = f^n(eps) + (1 - eps) f^n(sqrt(eps^2 + u^2))
interpolates between the degenerate coefficient (eps -> 0) and a constant,
staying uniformly parabolic for eps > 0.  The simple path
psi_eps(u) = f^n(sqrt(eps^2 + u^2)) drives the small-n branching analysis via
Theta = 1 - psi_eps and the first-order expansion (1 - f^n)/n -> -ln f.

Powers f^n are evaluated in log space so that tiny arguments underflow to an
exact zero (below e^-700) instead of producing spurious denormals, and n = 0
yields exactly 1 everywhere, including at the degeneracy point.  At n = 0
f_pow_n does not evaluate f, nor does a coefficient whose rows are all at
n = 0 (it does not form sqrt(eps^2 + u^2) either).  The constant f^n(eps) of
the full path is computed once per (path, eps).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ._validate import require_real, require_reals

__all__ = [
    "DegeneracyFunction",
    "RegPath",
    "degeneracy_function",
    "f_pow_n",
    "phi_eps",
    "psi_eps",
    "reg_coefficient",
    "coefficient_bound",
]

_KINDS = ("tanh", "rational", "exp_saturating", "power", "spline")
_ADMISSIBILITY_SAMPLES = 10_000


@dataclass(frozen=True)
class DegeneracyFunction:
    """One admissible nonlinearity; checked on 1e4 sample points at build time.

    Hashable despite the ``params`` dict: the hash covers kind and t_max only,
    and equal functions agree on both.
    """

    kind: str
    params: dict = field(default_factory=dict)
    t_max: float = 10.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown degeneracy kind {self.kind!r}; choose from {_KINDS}")
        if not isinstance(self.params, dict):
            raise TypeError(f"params must be an object, got {self.params!r}")
        require_real("t_max", self.t_max, "positive")
        if self.kind == "power":
            require_real("kappa", self.params.get("kappa"), "positive")
        if self.kind == "spline":
            require_reals("spline knots", self.params.get("knots"), min_len=2)
            require_reals("spline values", self.params.get("values"), min_len=2)
            ts = np.asarray(self.params["knots"], dtype=float)
            fs = np.asarray(self.params["values"], dtype=float)
            if ts[0] != 0.0 or fs[0] != 0.0:
                raise ValueError("spline must start at f(0) = 0")
            if np.any(np.diff(ts) <= 0) or np.any(np.diff(fs) <= 0):
                raise ValueError("spline knots and values must be strictly increasing")
            from scipy.interpolate import PchipInterpolator

            object.__setattr__(self, "_spline", PchipInterpolator(ts, fs, extrapolate=False))
            object.__setattr__(self, "t_max", float(ts[-1]))
        self._check_admissible()

    def __hash__(self):
        return hash((self.kind, self.t_max))

    @property
    def unbounded(self) -> bool:
        return self.kind == "power"

    @property
    def bound(self) -> float:
        """sup f: 1 for the saturating kinds, f(t_max) for the power kind."""
        if self.kind in ("tanh", "rational", "exp_saturating"):
            return 1.0
        if self.kind == "power":
            return float(self.t_max ** self.params["kappa"])
        return float(np.asarray(self.params["values"], dtype=float)[-1])

    def __call__(self, t):
        t = _domain(t)
        if self.kind == "tanh":
            out = np.tanh(t)
        elif self.kind == "rational":
            out = t / (1.0 + t)
        elif self.kind == "exp_saturating":
            out = -np.expm1(-t)
        elif self.kind == "power":
            out = t ** self.params["kappa"]
        else:
            out = np.where(t <= self.t_max, self._spline(np.minimum(t, self.t_max)), self.bound)
        return out if out.ndim else float(out)

    def inverse(self, y: float) -> float:
        """f^{-1}(y) for y in the range of f (monotonicity makes it unique)."""
        if y < 0 or y >= self.bound:
            raise ValueError(f"inverse target {y:g} outside the range [0, {self.bound:g})")
        if self.kind == "tanh":
            return float(np.arctanh(y))
        if self.kind == "rational":
            return y / (1.0 - y)
        if self.kind == "exp_saturating":
            return float(-np.log1p(-y))
        if self.kind == "power":
            return float(y ** (1.0 / self.params["kappa"]))
        from scipy.optimize import brentq

        return float(brentq(lambda t: self(t) - y, 0.0, self.t_max))

    def _check_admissible(self):
        ts = np.linspace(0.0, self.t_max, _ADMISSIBILITY_SAMPLES)
        vals = np.asarray(self(ts))
        if vals[0] != 0.0:
            raise ValueError("f(0) must be exactly 0")
        if np.any(np.diff(vals) <= 0):
            raise ValueError("f must be strictly increasing on [0, t_max]")
        if np.any(vals[1:] <= 0):
            raise ValueError("f must be positive for t > 0")
        if np.any(vals > self.bound * (1 + 1e-12)):
            raise ValueError("f exceeds its stated bound")


def _domain(t) -> np.ndarray:
    """t as a float array, rejected unless t >= 0."""
    t = np.asarray(t, dtype=float)
    if (t < 0).any():
        raise ValueError("f is defined on t >= 0; callers pass |u|")
    return t


def degeneracy_function(kind: str, t_max: float = 10.0, **params) -> DegeneracyFunction:
    return DegeneracyFunction(kind=kind, params=params, t_max=t_max)


@dataclass(frozen=True)
class RegPath:
    """A nonlinearity f with exponent n and a regularization variant."""

    f: DegeneracyFunction
    n: float
    variant: str = "full"

    def __post_init__(self):
        require_real("n", self.n, "nonnegative")
        if self.variant not in ("full", "simple"):
            raise ValueError("variant must be 'full' or 'simple'")


def f_pow_n(f: DegeneracyFunction, n: float, t):
    """f(t)^n = exp(n ln f(t)), with exact 0 below the underflow cut e^-700.

    n = 0 gives exactly 1 everywhere (the degeneracy is switched off) without
    evaluating f; t < 0 is rejected either way.
    """
    out = np.ones_like(_domain(t)) if n == 0 else _pow_underflow(np.asarray(f(t), dtype=float), n)
    return out if out.ndim else float(out)


def _pow_underflow(vals: np.ndarray, n: float) -> np.ndarray:
    """vals^n = exp(n ln vals) for vals >= 0 and n > 0, exact 0 below e^-700.

    A column n may hold zeros, whose rows the caller resets to 1: there
    0 * ln 0 is NaN, and numpy need not warn of it."""
    with np.errstate(divide="ignore", invalid="ignore"):
        expo = n * np.log(vals)  # -inf at vals == 0
    return np.where(expo < -700.0, 0.0, np.exp(np.maximum(expo, -700.0)))


@lru_cache(maxsize=64)
def _floor(path: RegPath, eps: float) -> float:
    """f^n(eps), the constant term of the full path."""
    return f_pow_n(path.f, path.n, eps)


def phi_eps(path: RegPath, eps: float, u):
    """Full path f^n(eps) + (1 - eps) f^n(sqrt(eps^2 + u^2)); eps in (0, 1]."""
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps must lie in (0, 1], got {eps:g}")
    if path.variant != "full":
        raise ValueError("phi_eps is the full-path coefficient; path variant is 'simple'")
    out = reg_coefficient((path,), (float(eps),), u)
    return out if np.ndim(out) else float(out)


def psi_eps(path: RegPath, eps: float, u):
    """Simple path f^n(sqrt(eps^2 + u^2)).

    eps = 0 is admitted here (the branching expansion evaluates the path at
    its degenerate endpoint), unlike the full path.
    """
    if not (0.0 <= eps <= 1.0):
        raise ValueError(f"eps must lie in [0, 1], got {eps:g}")
    if path.variant != "simple":
        raise ValueError("psi_eps is the simple-path coefficient; path variant is 'full'")
    out = reg_coefficient((path,), (float(eps),), u)
    return out if np.ndim(out) else float(out)


def reg_coefficient(paths: tuple, eps: tuple, u):
    """The parabolic coefficient of each path's variant, vectorized over u:
    phi_eps on a full path, psi_eps on a simple one.

    ``paths`` share f and ``eps`` holds one eps per path; with more than
    one path, u carries one leading row per path.  The simple path is the
    full formula with floor 0 and weight 1, so each row's n, eps, floor and
    weight broadcast as columns and every row is bitwise the coefficient of
    its own path.  Rows at n = 0 get exactly 1 for f^n, and a batch with
    every row at n = 0 does not evaluate f.  This is the only expression of
    the coefficient: phi_eps, psi_eps and the solver's step all evaluate it
    here.
    """
    u = np.asarray(u, dtype=float)
    cols = _row_columns(paths, eps, u.ndim)
    if cols.n is None:
        out = np.ones_like(u)
    else:
        out = _pow_underflow(np.asarray(paths[0].f(np.sqrt(cols.eps2 + u**2)), dtype=float), cols.n)
        if cols.idle is not None:
            out[cols.idle] = 1.0
    if cols.floor is not None:
        out = cols.floor + cols.scale * out
    return out


class _Columns(NamedTuple):
    """Per-row constants of a batched coefficient, each a column over u's
    rows, or a plain float where every row shares it (numpy's scalar path is
    the cheaper one, and a batch of one then makes its row's scalar call)."""

    n: object  # n; None when every row is at n = 0
    eps2: object  # eps^2
    idle: np.ndarray | None  # the rows at n = 0 when some row has n > 0, else None
    floor: object  # f^n(eps) on full rows, 0 on simple ones; None when no row is full
    scale: object  # 1 - eps on full rows, 1 on simple ones


@lru_cache(maxsize=64)
def _row_columns(paths: tuple, eps: tuple, ndim: int) -> _Columns:
    """The columns of a batch, checked once: one eps per path, in its
    variant's range, and one f for every row.  Each entry is the scalar
    path's own expression, so a row matches its solo call."""
    if len(paths) != len(eps) or any(p.f != paths[0].f for p in paths):
        raise ValueError("a batch needs one eps per path and one f for every path")
    full = [p.variant == "full" for p in paths]
    for e, is_full in zip(eps, full):
        if not (0.0 <= e <= 1.0 and (e > 0.0 or not is_full)):
            raise ValueError(f"eps must lie in {'(0, 1]' if is_full else '[0, 1]'}, got {eps}")
    idle = [i for i, p in enumerate(paths) if p.n == 0]
    floor = [_floor(p, float(e)) if is_full else 0.0 for p, e, is_full in zip(paths, eps, full)]

    def column(values):
        if values.count(values[0]) == len(values):
            return values[0]
        return np.array(values, dtype=float).reshape((len(values),) + (1,) * (ndim - 1))

    return _Columns(
        n=None if len(idle) == len(paths) else column([p.n for p in paths]),
        eps2=column([e**2 for e in eps]),
        idle=np.array(idle, dtype=int) if 0 < len(idle) < len(paths) else None,
        floor=column(floor) if any(full) else None,
        scale=column([1.0 - e if is_full else 1.0 for e, is_full in zip(eps, full)]),
    )


def coefficient_bound(path: RegPath, eps: float) -> float:
    """Upper bound for the coefficient over all u (full: f^n(eps) + C_f^n)."""
    cf_n = f_pow_n(path.f, path.n, path.f.t_max) if path.f.unbounded else path.f.bound**path.n
    if path.variant == "full":
        return float(f_pow_n(path.f, path.n, eps) + cf_n)
    return float(cf_n)
