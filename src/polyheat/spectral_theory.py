"""Rescaled kernel operator, its eigenpairs, and the adjoint polynomial family.

The operator acting on the self-similar profile,

    A[v] = -(-Delta)^m v + (1/2m) y . grad(v) + (N/2m) v,

annihilates the kernel profile, and differentiating that identity shows that
scaled profile derivatives are eigenfunctions:

    psi_beta = (-1)^|beta| / sqrt(beta!) D^beta F,     A psi_beta = -(|beta|/2m) psi_beta.

The formal adjoint A* = -(-Delta)^m - (1/2m) y . grad has purely polynomial
eigenfunctions

    sqrt(beta!) psi*_beta = y^beta + sum_{j=1}^{floor(|beta|/2m)} (1/j!) (-Delta)^(mj) y^beta,

handled here in exact rational arithmetic so the eigen-relation can be checked
symbolically, not just numerically.  Numeric checks pair psi_beta with
psi*_gamma by plain quadrature over the box; the profile's decay makes the
polynomially growing factors integrable there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._validate import require_int
from .gridfield import (
    Field,
    GridSpec,
    _spectrum,
    assert_boundary_decay,
    coordinates,
    gradient,
    inner,
    irfft,
    laplacian_power,
    rfft,
    spectral_tail_fraction,
)
from .kernel import profile_fourier

__all__ = [
    "MultiIndex",
    "PolynomialNVar",
    "apply_L",
    "eigenvalue",
    "eigenfunction",
    "adjoint_eigenpolynomial",
    "apply_L_star",
    "biorthogonality_matrix",
    "multi_indices_up_to",
]


@dataclass(frozen=True)
class MultiIndex:
    """beta in N_0^N with the usual |beta| and beta! bookkeeping."""

    entries: tuple

    def __post_init__(self):
        e = tuple(int(b) for b in self.entries)
        if len(e) not in (1, 2) or any(b < 0 for b in e):
            raise ValueError(f"multi-index must hold 1 or 2 nonnegative integers, got {self.entries}")
        object.__setattr__(self, "entries", e)

    @property
    def order(self) -> int:
        return sum(self.entries)

    @property
    def factorial(self) -> int:
        out = 1
        for b in self.entries:
            out *= math.factorial(b)
        return out


def multi_indices_up_to(dim: int, max_order: int) -> list:
    """All beta with |beta| <= max_order, graded lexicographic."""
    if dim == 1:
        return [MultiIndex((k,)) for k in range(max_order + 1)]
    out = []
    for total in range(max_order + 1):
        for b1 in range(total, -1, -1):
            out.append(MultiIndex((b1, total - b1)))
    return out


class PolynomialNVar:
    """Sparse polynomial in N variables: {exponent tuple: coefficient}.

    Coefficients may be exact Fractions (the adjoint eigenfunction check
    relies on that) or floats; zero coefficients are never stored.
    """

    def __init__(self, nvars: int, coeffs: dict):
        self.nvars = nvars
        self.coeffs = {tuple(k): v for k, v in coeffs.items() if v != 0}
        for k in self.coeffs:
            if len(k) != nvars or any(e < 0 for e in k):
                raise ValueError(f"bad exponent tuple {k} for {nvars} variables")

    @property
    def degree(self) -> int:
        return max((sum(k) for k in self.coeffs), default=0)

    def __eq__(self, other) -> bool:
        return isinstance(other, PolynomialNVar) and self.nvars == other.nvars and self.coeffs == other.coeffs

    def __add__(self, other: "PolynomialNVar") -> "PolynomialNVar":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return PolynomialNVar(self.nvars, out)

    def scaled(self, factor) -> "PolynomialNVar":
        return PolynomialNVar(self.nvars, {k: factor * v for k, v in self.coeffs.items()})

    def neg_laplacian(self) -> "PolynomialNVar":
        """(-Delta) applied exactly: monomial-by-monomial exponent drop."""
        out: dict = {}
        for k, v in self.coeffs.items():
            for d, e in enumerate(k):
                if e >= 2:
                    kk = list(k)
                    kk[d] = e - 2
                    kk = tuple(kk)
                    out[kk] = out.get(kk, 0) - e * (e - 1) * v
        return PolynomialNVar(self.nvars, out)

    def euler(self) -> "PolynomialNVar":
        """y . grad, diagonal on monomials: multiplies each by its degree."""
        return PolynomialNVar(self.nvars, {k: sum(k) * v for k, v in self.coeffs.items()})

    def evaluate(self, grid: GridSpec) -> np.ndarray:
        if grid.dim != self.nvars:
            raise ValueError("grid dimension does not match polynomial arity")
        xs = coordinates(grid)
        vals = np.zeros(grid.shape)
        for k, v in self.coeffs.items():
            term = np.ones(grid.shape)
            for d, e in enumerate(k):
                if e:
                    term = term * np.broadcast_to(xs[d], grid.shape) ** e
            vals += float(v) * term
        return vals

    def __repr__(self) -> str:
        return f"PolynomialNVar({self.nvars}, {self.coeffs!r})"


# ---------------------------------------------------------------------------
# the operator on grid fields


def apply_L(f: Field, m: int) -> Field:
    """-(-Delta)^m f + (1/2m) y.grad(f) + (N/2m) f, spectrally."""
    assert_boundary_decay(f)
    grid = f.grid
    sign = -1.0 if m % 2 == 0 else 1.0  # -(-Delta)^m = (-1)^(m+1) Delta^m
    vals = sign * laplacian_power(f, m).values
    for x, g in zip(coordinates(grid), gradient(f)):
        vals = vals + np.broadcast_to(x, grid.shape) * g / (2.0 * m)
    vals = vals + grid.dim / (2.0 * m) * f.values
    return Field(grid, vals, f.time_tag)


def eigenvalue(beta: MultiIndex, m: int) -> Fraction:
    """Exact point-spectrum value -|beta|/(2m)."""
    return Fraction(-beta.order, 2 * m)


def eigenfunction(beta: MultiIndex, m: int, grid: GridSpec) -> Field:
    """psi_beta = (-1)^|beta|/sqrt(beta!) D^beta F on the grid.

    Derivatives are Fourier multipliers on the profile; an error is raised
    when the requested derivative pushes the spectral tail above the 1e-6
    noise-energy floor.
    """
    if beta.order > 8:
        raise ValueError("derivative order above 8 amplifies truncation noise; refuse")
    fh = rfft(grid, profile_fourier(m, grid).values)
    for d, e in zip(_spectrum(grid, 1).div, beta.entries, strict=True):
        fh = fh * d**e
    vals = irfft(grid, fh) * ((-1.0) ** beta.order / math.sqrt(beta.factorial))
    out = Field(grid, vals)
    if spectral_tail_fraction(out) > 1e-6:
        raise ValueError(f"under-resolved derivative D^{beta.entries} (spectral tail above noise floor)")
    return out


def adjoint_eigenpolynomial(beta: MultiIndex, m: int, normalized: bool = True) -> PolynomialNVar:
    """Polynomial eigenfunction of the adjoint operator.

    With ``normalized=False`` the result is sqrt(beta!) psi*_beta, kept in
    exact Fractions (the correction sum terminates because every (-Delta)^m
    drops the degree by 2m).  The default divides by sqrt(beta!), which is
    irrational in general, so coefficients become floats.
    """
    if beta.order > 12:
        raise ValueError("adjoint polynomials supported for |beta| <= 12")
    base = PolynomialNVar(len(beta.entries), {beta.entries: Fraction(1)})
    total = base
    term = base
    for j in range(1, beta.order // (2 * m) + 1):
        for _ in range(m):
            term = term.neg_laplacian()
        total = total + term.scaled(Fraction(1, math.factorial(j)))
    if not normalized:
        return total
    return total.scaled(1.0 / math.sqrt(beta.factorial))


def apply_L_star(poly: PolynomialNVar, m: int) -> PolynomialNVar:
    """-(-Delta)^m poly - (1/2m) y.grad(poly), exact on rational coefficients."""
    if poly.degree > 12:
        raise ValueError("polynomial degree above 12 not supported")
    lap = poly
    for _ in range(m):
        lap = lap.neg_laplacian()
    return lap.scaled(-1) + poly.euler().scaled(Fraction(-1, 2 * m))


def biorthogonality_matrix(max_order: int, m: int, grid: GridSpec):
    """Gram matrix <psi_beta, psi*_gamma> for all |beta|, |gamma| <= max_order.

    Plain L^2 pairing over the box (the profile decay makes the polynomial
    growth integrable).  Returns (indices, matrix).  m must be an integer of
    at least 1 and max_order an integer in 0..4.
    """
    require_int("m", m, lo=1)
    require_int("max_order", max_order, choices=(0, 1, 2, 3, 4))
    betas = multi_indices_up_to(grid.dim, max_order)
    psis = [eigenfunction(b, m, grid) for b in betas]
    poly_vals = [adjoint_eigenpolynomial(b, m).evaluate(grid) for b in betas]
    out = np.empty((len(betas), len(betas)))
    for i, psi in enumerate(psis):
        for j, pv in enumerate(poly_vals):
            integrand = Field(grid, psi.values * pv)
            assert_boundary_decay(integrand)
            out[i, j] = inner(psi, Field(grid, pv))
    return betas, out
