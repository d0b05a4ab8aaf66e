"""Degenerate mobility f, its powers, and the two regularization paths.

Admissible nonlinearities are continuous, strictly increasing, positive and
bounded with f(0) = 0; the built-in kinds are

    tanh            f(t) = tanh(t)
    rational        f(t) = t / (1 + t)
    exp_saturating  f(t) = 1 - exp(-t)
    spline          monotone PCHIP through user knots, constant past the last

The closed forms are bounded by 1 and the spline by its last value, so the
coefficient bound that sets the solver's stabilization holds for every u.

The full path  phi_eps(u) = f^n(eps) + (1 - eps) f^n(sqrt(eps^2 + u^2))
interpolates between the degenerate coefficient (eps -> 0) and a constant,
staying uniformly parabolic for eps > 0.  The simple path
psi_eps(u) = f^n(sqrt(eps^2 + u^2)) drives the small-n branching analysis via
Theta = 1 - psi_eps and the first-order expansion (1 - f^n)/n -> -ln f.
Both are evaluated by ``reg_coefficient``, for one path or a batch of rows.

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
from .gridfield import _column

__all__ = [
    "DegeneracyFunction",
    "RegPath",
    "degeneracy_function",
    "f_pow_n",
    "reg_coefficient",
    "coefficient_bound",
]

# kind -> (f, f^{-1}) of the closed forms, each with sup f = 1
_CLOSED_FORMS = {
    "tanh": (np.tanh, lambda y: float(np.arctanh(y))),
    "rational": (lambda t: t / (1.0 + t), lambda y: y / (1.0 - y)),
    "exp_saturating": (lambda t: -np.expm1(-t), lambda y: float(-np.log1p(-y))),
}
_KINDS = (*_CLOSED_FORMS, "spline")
_PARAMS_KEYS = {"spline": ("knots", "values")}  # the closed forms take none
_ADMISSIBILITY_SAMPLES = 10_000


@dataclass(frozen=True)
class DegeneracyFunction:
    """One admissible nonlinearity; checked on 1e4 sample points of
    [0, t_max] at build time.  t_max is 10 for the closed forms and the
    last knot for a spline.

    Hashable despite the ``params`` dict: the hash covers kind and t_max only,
    and equal functions agree on both.
    """

    kind: str
    params: dict = field(default_factory=dict)
    t_max: float = field(init=False, default=10.0)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown degeneracy kind {self.kind!r}; choose from {_KINDS}")
        if not isinstance(self.params, dict):
            raise TypeError(f"params must be an object, got {self.params!r}")
        for key in self.params:
            if key not in _PARAMS_KEYS.get(self.kind, ()):
                raise ValueError(f"unknown params key {key!r} for kind {self.kind!r}")
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
    def bound(self) -> float:
        """sup f: 1 for the closed forms, the last value for a spline."""
        if self.kind in _CLOSED_FORMS:
            return 1.0
        return float(np.asarray(self.params["values"], dtype=float)[-1])

    def __call__(self, t):
        t = _domain(t)
        if self.kind in _CLOSED_FORMS:
            out = _CLOSED_FORMS[self.kind][0](t)
        else:
            out = np.where(t <= self.t_max, self._spline(np.minimum(t, self.t_max)), self.bound)
        return out if out.ndim else float(out)

    def inverse(self, y: float) -> float:
        """f^{-1}(y) for y in the range of f (monotonicity makes it unique)."""
        if y < 0 or y >= self.bound:
            raise ValueError(f"inverse target {y:g} outside the range [0, {self.bound:g})")
        if self.kind in _CLOSED_FORMS:
            return _CLOSED_FORMS[self.kind][1](y)
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


def degeneracy_function(kind: str, **params) -> DegeneracyFunction:
    return DegeneracyFunction(kind=kind, params=params)


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


def reg_coefficient(paths: tuple, eps: tuple, u):
    """The parabolic coefficient of each path's variant, vectorized over u:
    phi_eps(u) = f^n(eps) + (1 - eps) f^n(sqrt(eps^2 + u^2)) on a full path,
    eps in (0, 1], and psi_eps(u) = f^n(sqrt(eps^2 + u^2)) on a simple one,
    eps in [0, 1] (the branching expansion evaluates it at eps = 0).

    ``paths`` share f and ``eps`` holds one eps per path; with more than
    one path, u carries one leading row per path, and one path
    ``reg_coefficient((path,), (eps,), u)`` gives phi_eps or psi_eps on u
    itself.  The simple path is the full formula with floor 0 and weight 1,
    so each row's n, eps, floor and weight broadcast as columns and every
    row is bitwise the coefficient of its own path.  Rows at n = 0 get
    exactly 1 for f^n, and a batch with every row at n = 0 does not evaluate
    f.  This is the only expression of the coefficient: the solver's step
    evaluates it here.
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
    for row, (e, is_full) in enumerate(zip(eps, full)):
        if not (0.0 <= e <= 1.0 and (e > 0.0 or not is_full)):
            raise ValueError(f"eps must lie in {'(0, 1]' if is_full else '[0, 1]'}, got {e!r} in row {row}")
    idle = [i for i, p in enumerate(paths) if p.n == 0]
    floor = [_floor(p, float(e)) if is_full else 0.0 for p, e, is_full in zip(paths, eps, full)]
    return _Columns(
        n=None if len(idle) == len(paths) else _column([p.n for p in paths], ndim - 1),
        eps2=_column([e**2 for e in eps], ndim - 1),
        idle=np.array(idle, dtype=int) if 0 < len(idle) < len(paths) else None,
        floor=_column(floor, ndim - 1) if any(full) else None,
        scale=_column([1.0 - e if is_full else 1.0 for e, is_full in zip(eps, full)], ndim - 1),
    )


def coefficient_bound(path: RegPath, eps: float) -> float:
    """Upper bound for the coefficient over all u (full: f^n(eps) + C_f^n)."""
    cf_n = path.f.bound**path.n
    if path.variant == "full":
        return float(f_pow_n(path.f, path.n, eps) + cf_n)
    return float(cf_n)
