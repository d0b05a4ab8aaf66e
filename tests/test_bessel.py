"""J_0 against independent routes (scipy.special.jv, integral form)."""

import numpy as np
import pytest
import scipy.special as sp

from polyheat.bessel import besselj


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


@pytest.mark.parametrize("order", [0])
def test_integer_orders_match_scipy(order):
    z = np.linspace(1e-6, 80.0, 1200)
    assert np.max(np.abs(besselj(order, z) - sp.jv(order, z))) <= 5e-12


def test_order_zero_matches_integral_route():
    z = np.linspace(0.0, 80.0, 1601)
    assert np.max(np.abs(besselj(0, z) - besselj_integral(0, z))) <= 1e-13


def test_integral_representation_cross_check_at_10():
    assert abs(besselj(0, 10.0) - besselj_integral(0, 10.0)) <= 1e-10
    for order in (0, 1, 3):
        assert abs(besselj_integral(order, 10.0) - sp.jv(order, 10.0)) <= 1e-12


def test_scalar_in_scalar_out():
    out = besselj(0, 2.5)
    assert isinstance(out, float)
    assert out == pytest.approx(sp.jv(0, 2.5), abs=1e-13)


def test_rejects_unsupported_orders():
    with pytest.raises(ValueError):
        besselj(1.5, 3.0)
    with pytest.raises(ValueError):
        besselj(1, 3.0)
    with pytest.raises(ValueError):
        besselj_integral(-1, 3.0)
    with pytest.raises(ValueError):
        besselj(-0.5, np.array([0.0, 1.0]))
