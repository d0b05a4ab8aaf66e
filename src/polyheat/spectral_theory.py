"""Rescaled kernel operator, its eigenpairs, and the adjoint polynomial family.

The operator acting on the self-similar profile,

    A[v] = -(-Delta)^m v + (1/2m) y . grad(v) + (N/2m) v,

annihilates the kernel profile, and differentiating that identity shows that
scaled profile derivatives are eigenfunctions:

    psi_beta = (-1)^|beta| / sqrt(beta!) D^beta F,     A psi_beta = -(|beta|/2m) psi_beta.

The formal adjoint A* = -(-Delta)^m - (1/2m) y . grad has purely polynomial
eigenfunctions

    sqrt(beta!) psi*_beta = y^beta + sum_{j=1}^{floor(|beta|/2m)} (1/j!) (-Delta)^(mj) y^beta.

A multi-index beta is a tuple of 1 or 2 nonnegative ints.  A polynomial is a
numpy coefficient array ``c`` of shape ``tuple(b + 1 for b in beta)`` with
``c[k]`` the coefficient of y^k, in the layout of ``numpy.polynomial``.  Its
entries are exact Fractions, so the eigen-relation can be checked
symbolically, not just numerically.  Numeric checks pair psi_beta with
psi*_gamma by plain quadrature over the box; the profile's decay makes the
polynomially growing factors integrable there.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from ._validate import require_int
from .gridfield import (
    Field,
    GridSpec,
    _freeze,
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
    "apply_L",
    "eigenvalue",
    "eigenfunction",
    "adjoint_eigenpolynomial",
    "apply_L_star",
    "biorthogonality_matrix",
    "multi_indices_up_to",
]


def multi_indices_up_to(dim: int, max_order: int) -> list:
    """All beta with |beta| <= max_order, graded, and within one order with
    the first entry falling: (0,0), (1,0), (0,1), (2,0), (1,1), (0,2), ..."""
    betas = (b for b in product(range(max_order + 1), repeat=dim) if sum(b) <= max_order)
    return sorted(betas, key=lambda b: (sum(b), [-e for e in b]))


def _neg_laplacian(c: np.ndarray) -> np.ndarray:
    """(-Delta) on a coefficient array, padded back to its shape."""
    from numpy.polynomial.polynomial import polyder

    out = 0 * c
    for axis in range(c.ndim):
        der = polyder(c, 2, axis=axis)
        out[tuple(map(slice, der.shape))] -= der
    return out


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


def eigenvalue(beta: tuple, m: int) -> Fraction:
    """Exact point-spectrum value -|beta|/(2m)."""
    return Fraction(-sum(beta), 2 * m)


@lru_cache(maxsize=8, typed=True)
def _profile_hat(m: int, grid: GridSpec) -> np.ndarray:
    """Read-only half spectrum of the kernel profile, built once per (m, grid)."""
    return _freeze(rfft(grid, profile_fourier(m, grid).values), complex)


def eigenfunction(beta: tuple, m: int, grid: GridSpec) -> Field:
    """psi_beta = (-1)^|beta|/sqrt(beta!) D^beta F on the grid.

    Derivatives are Fourier multipliers on the profile; an error is raised
    when the requested derivative pushes the spectral tail above the 1e-6
    noise-energy floor.
    """
    if sum(beta) > 8:
        raise ValueError("derivative order above 8 amplifies truncation noise; refuse")
    fh = _profile_hat(m, grid)
    for d, e in zip(_spectrum(grid, 1).div, beta, strict=True):
        fh = fh * d**e
    vals = irfft(grid, fh) * ((-1.0) ** sum(beta) / math.sqrt(math.prod(map(math.factorial, beta))))
    out = Field(grid, vals)
    if spectral_tail_fraction(out) > 1e-6:
        raise ValueError(f"under-resolved derivative D^{beta} (spectral tail above noise floor)")
    return out


def adjoint_eigenpolynomial(beta: tuple, m: int, normalized: bool = True) -> np.ndarray:
    """Coefficient array of the adjoint operator's polynomial eigenfunction.

    With ``normalized=False`` the result is sqrt(beta!) psi*_beta, kept in
    exact Fractions (the correction sum terminates because every (-Delta)^m
    drops the degree by 2m).  The default divides by sqrt(beta!), which is
    irrational in general, so coefficients become floats.
    """
    if sum(beta) > 12:
        raise ValueError("adjoint polynomials supported for |beta| <= 12")
    total = np.full(tuple(b + 1 for b in beta), Fraction(0))
    total[beta] = Fraction(1)
    term = total
    for j in range(1, sum(beta) // (2 * m) + 1):
        for _ in range(m):
            term = _neg_laplacian(term)
        total = total + term * Fraction(1, math.factorial(j))
    if not normalized:
        return total
    return (total * (1.0 / math.sqrt(math.prod(map(math.factorial, beta))))).astype(float)


def apply_L_star(poly: np.ndarray, m: int) -> np.ndarray:
    """-(-Delta)^m poly - (1/2m) y.grad(poly), exact on rational coefficients."""
    if np.argwhere(poly).sum(axis=1).max(initial=0) > 12:
        raise ValueError("polynomial degree above 12 not supported")
    lap = poly
    for _ in range(m):
        lap = _neg_laplacian(lap)
    return -lap + poly * sum(np.indices(poly.shape)) * Fraction(-1, 2 * m)


def biorthogonality_matrix(max_order: int, m: int, grid: GridSpec):
    """Gram matrix <psi_beta, psi*_gamma> for all |beta|, |gamma| <= max_order.

    Plain L^2 pairing over the box (the profile decay makes the polynomial
    growth integrable).  Returns (indices, eigenfunctions psi_beta, matrix),
    so a caller reuses the eigenfunctions instead of building them again.
    m must be an integer of at least 1 and max_order an integer in 0..4.
    """
    from numpy.polynomial.polynomial import polygrid2d, polyval

    require_int("m", m, lo=1)
    require_int("max_order", max_order, choices=(0, 1, 2, 3, 4))
    betas = multi_indices_up_to(grid.dim, max_order)
    psis = [eigenfunction(b, m, grid) for b in betas]
    axes = [x.ravel() for x in coordinates(grid)]
    on_grid = polyval if grid.dim == 1 else polygrid2d
    poly_vals = [on_grid(*axes, adjoint_eigenpolynomial(b, m)) for b in betas]
    out = np.empty((len(betas), len(betas)))
    for i, psi in enumerate(psis):
        for j, pv in enumerate(poly_vals):
            integrand = Field(grid, psi.values * pv)
            assert_boundary_decay(integrand)
            out[i, j] = inner(psi, Field(grid, pv))
    return betas, psis, out
