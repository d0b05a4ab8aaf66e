"""J_0 against independent routes (scipy.special.jv, integral form)."""

import numpy as np
import pytest
import scipy.special as sp

from polyheat.bessel import besselj, besselj_integral


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
