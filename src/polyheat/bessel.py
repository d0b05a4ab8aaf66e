"""J_0 via ``scipy.special.j0`` for the 2-D kernel quadrature.

The radial integral of the 2-D kernel profile carries the factor J_0(r s);
no other Bessel function is evaluated anywhere in the package, so
``besselj`` covers order 0 only and rejects every other order.  The tests
check it against ``scipy.special.jv`` and against the integral
representation J_n(z) = (1/pi) int_0^pi cos(n tau - z sin(tau)) d tau.
``j0`` is imported on the first call, so a process that never tabulates a
2-D kernel does not load scipy.
"""

from __future__ import annotations

import numpy as np

__all__ = ["besselj"]


def besselj(nu, z):
    """J_nu(z) for nu = 0, vectorized over z; a float for scalar z."""
    if nu != 0:
        raise ValueError(f"order {nu} not supported (only J_0 is needed)")
    from scipy.special import j0

    out = j0(np.asarray(z, dtype=float))
    return float(out) if out.ndim == 0 else out
