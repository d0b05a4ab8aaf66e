"""J_0 via ``scipy.special.j0`` for the 2-D kernel quadrature, with an
integral-representation cross-check route.

The radial integral of the 2-D kernel profile carries the factor J_0(r s);
no other Bessel function is evaluated anywhere in the package, so
``besselj`` covers order 0 only and rejects every other order.  The integral
representation

    J_n(z) = (1/pi) int_0^pi cos(n tau - z sin(tau)) d tau

is kept as an independent route for the tests.
"""

from __future__ import annotations

import numpy as np
from scipy.special import j0

__all__ = ["besselj", "besselj_integral"]


def besselj(nu, z):
    """J_nu(z) for nu = 0, vectorized over z; a float for scalar z."""
    if nu != 0:
        raise ValueError(f"order {nu} not supported (only J_0 is needed)")
    out = j0(np.asarray(z, dtype=float))
    return float(out) if out.ndim == 0 else out


def besselj_integral(n: int, z, nodes: int = 256):
    """Integral-representation route for integer orders (cross-check only).

    Gauss-Legendre quadrature of (1/pi) int_0^pi cos(n tau - z sin tau) d tau;
    converges far past 1e-10 for the moderate z used in verification.
    """
    if int(n) != n or n < 0:
        raise ValueError("integral representation implemented for integer n >= 0")
    x, w = np.polynomial.legendre.leggauss(nodes)
    tau = 0.5 * np.pi * (x + 1.0)
    wt = 0.5 * np.pi * w
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    zz = np.atleast_1d(z)[:, None]
    vals = np.cos(n * tau[None, :] - zz * np.sin(tau)[None, :]) @ wt / np.pi
    return float(vals[0]) if scalar else vals
