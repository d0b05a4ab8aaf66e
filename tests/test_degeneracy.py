"""Nonlinearity kinds, regularization paths, and the small-n expansion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyheat import degeneracy as degeneracy_module
from polyheat.degeneracy import (
    DegeneracyFunction,
    RegPath,
    coefficient_bound,
    degeneracy_function,
    f_pow_n,
    reg_coefficient,
)

KINDS = {
    "tanh": {},
    "rational": {},
    "exp_saturating": {},
    "power": {"kappa": 0.7},
    "spline": {"knots": [0.0, 1.0, 3.0, 10.0], "values": [0.0, 0.4, 0.7, 0.95]},
}


@pytest.fixture(scope="module")
def rational():
    return degeneracy_function("rational")


@pytest.mark.parametrize("kind,params", KINDS.items())
def test_vanishes_at_zero(kind, params):
    f = degeneracy_function(kind, **params)
    assert f(0.0) == 0.0
    assert f(1e-6) > 0.0


def test_rational_at_one(rational):
    assert rational(1.0) == 0.5


def test_tanh_power_evaluation():
    f = degeneracy_function("tanh")
    # oracle: direct scalar evaluation
    assert np.tanh(1.0) ** 0.5 == pytest.approx(0.8726936, abs=5e-8)
    assert f_pow_n(f, 0.5, 1.0) == pytest.approx(np.tanh(1.0) ** 0.5, abs=1e-12)


def test_rejects_negative_argument(rational):
    with pytest.raises(ValueError):
        rational(-0.5)


def test_admissibility_rejects_bad_spline():
    with pytest.raises(ValueError):
        degeneracy_function("spline", knots=[0.0, 1.0, 2.0], values=[0.0, 0.5, 0.3])
    with pytest.raises(ValueError):
        degeneracy_function("spline", knots=[0.0, 1.0], values=[0.1, 0.5])


def test_rejects_unknown_kind_and_bad_power():
    with pytest.raises(ValueError):
        degeneracy_function("cubic")
    with pytest.raises(ValueError):
        degeneracy_function("power", kappa=-1.0)


class TestPowers:
    def test_n_zero_is_one_everywhere(self, rational):
        assert f_pow_n(rational, 0.0, 0.0) == 1.0
        assert np.all(f_pow_n(rational, 0.0, np.linspace(0, 5, 11)) == 1.0)

    def test_underflow_to_exact_zero(self, rational):
        assert f_pow_n(rational, 200.0, 1e-4) == 0.0

    def test_log_space_matches_direct(self, rational):
        t = np.linspace(0.01, 5.0, 50)
        direct = rational(t) ** 1.7
        assert np.max(np.abs(f_pow_n(rational, 1.7, t) - direct)) <= 1e-14


def _pow_underflow_oracle(vals, n):
    # the boolean-mask formula the single np.where replaced, kept as an oracle
    if n == 0:
        return np.ones_like(vals)
    out = np.zeros_like(vals)
    pos = vals > 0
    with np.errstate(divide="ignore"):
        expo = n * np.log(vals[pos])
    out[pos] = np.where(expo < -700.0, 0.0, np.exp(np.maximum(expo, -700.0)))
    return out


class TestPowUnderflow:
    @settings(max_examples=60, deadline=None)
    @given(
        vals=st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(5e-324, 2.2e-308),  # subnormals
                st.floats(1e-300, 1e-30),  # n ln v below -700 for the larger n
                st.floats(1e-30, 10.0),
            ),
            min_size=1, max_size=40,
        ),
        n=st.sampled_from((1e-4, 0.2, 1.0, 2.5, 40.0, 200.0)),
    )
    def test_bitwise_equal_to_masked_formula(self, vals, n):
        arr = np.array(vals)
        got = degeneracy_module._pow_underflow(arr, n)
        assert got.dtype == arr.dtype and got.shape == arr.shape
        assert got.tobytes() == _pow_underflow_oracle(arr, n).tobytes()

    @pytest.mark.parametrize("v", [0.0, 5e-324, 1e-310, 1e-200, 0.3, 7.0])
    def test_zero_dimensional_input(self, v):
        arr = np.array(v)
        for n in (0.2, 5.0):
            got = degeneracy_module._pow_underflow(arr, n)
            assert got.ndim == 0
            assert got.tobytes() == _pow_underflow_oracle(arr, n).tobytes()

    def test_exact_zero_below_the_cut(self):
        vals = np.array([0.0, 1e-310, np.exp(-701.0), np.exp(-699.0)])
        out = degeneracy_module._pow_underflow(vals, 1.0)
        assert list(out[:3]) == [0.0, 0.0, 0.0] and out[3] > 0.0


class TestPowersAtNZero:
    def test_ones_without_evaluating_f(self, rational, monkeypatch):
        def boom(self, t):
            raise AssertionError("f evaluated at n = 0")

        monkeypatch.setattr(DegeneracyFunction, "__call__", boom)
        for t in (0.0, 2.5, np.linspace(0.0, 3.0, 7), np.zeros((3, 4))):
            out = f_pow_n(rational, 0.0, t)
            assert np.shape(out) == np.shape(t)
            assert np.all(np.asarray(out) == 1.0)
        assert type(f_pow_n(rational, 0.0, 1.0)) is float

    def test_still_rejects_negative_argument(self, rational):
        with pytest.raises(ValueError, match="t >= 0"):
            f_pow_n(rational, 0, -1.0)
        with pytest.raises(ValueError, match="t >= 0"):
            f_pow_n(rational, 0.0, np.array([1.0, -1e-12]))


class TestPathsAtNZero:
    def test_no_power_over_the_grid(self, rational, monkeypatch):
        # the coefficient is exactly 1 on the simple path and 1 + (1 - eps)
        # on the full one, without taking f^n of sqrt(eps^2 + u^2)
        def boom(f, n, t):
            raise AssertionError("f^n formed over u at n = 0")

        u = np.linspace(-3.0, 3.0, 101)
        simple, full = RegPath(rational, 0.0, "simple"), RegPath(rational, 0.0, "full")
        reg_coefficient((full,), (0.5,), 0.0)  # memoises the constant f^0(eps)
        monkeypatch.setattr(degeneracy_module, "f_pow_n", boom)
        assert reg_coefficient((simple,), (1e-3,), u).tobytes() == np.ones_like(u).tobytes()
        assert reg_coefficient((full,), (0.5,), u).tobytes() == np.full_like(u, 1.0 + (1.0 - 0.5)).tobytes()


class TestFullPathFloor:
    def test_bitwise_equal_to_direct_evaluation(self, rational):
        u = np.linspace(-3.0, 3.0, 101)
        for n, eps in ((0.2, 1e-3), (0.0, 0.5), (2.0, 1e-8)):
            p = RegPath(rational, n, "full")
            direct = f_pow_n(rational, n, eps) + (1.0 - eps) * f_pow_n(rational, n, np.sqrt(eps**2 + u**2))
            assert reg_coefficient((p,), (eps,), u).tobytes() == direct.tobytes()
            assert reg_coefficient((p,), (eps,), u).tobytes() == direct.tobytes()  # from the memo

    def test_equal_functions_share_a_hash(self):
        knots = {"knots": [0.0, 1.0, 3.0], "values": [0.0, 0.5, 0.9]}
        a = degeneracy_function("spline", **knots)
        b = degeneracy_function("spline", **knots)
        assert a == b and hash(a) == hash(b)
        assert hash(RegPath(a, 0.1, "full")) == hash(RegPath(b, 0.1, "full"))


class TestBatchedCoefficient:
    @pytest.mark.parametrize("variant", ["full", "simple"])
    def test_rows_bitwise_equal_to_their_own_path(self, rational, variant):
        # one variant, mixing n = 0 and n > 0 rows, each with its own eps: every
        # row is its path's coefficient, checked against the direct formula
        # as well as against the single-path call
        ns, eps = (0.2, 0.0, 2.0, 0.0, 0.2), (1e-3, 0.5, 1e-8, 1e-3, 0.25)
        paths = tuple(RegPath(rational, n, variant) for n in ns)
        u = np.linspace(-3.0, 3.0, len(ns) * 64).reshape(len(ns), 64)[::-1].copy()
        batch = reg_coefficient(paths, eps, u)
        for i, (p, e) in enumerate(zip(paths, eps)):
            direct = f_pow_n(rational, p.n, np.sqrt(e**2 + u[i] ** 2))
            if variant == "full":
                direct = f_pow_n(rational, p.n, e) + (1.0 - e) * direct
            assert batch[i].tobytes() == reg_coefficient((p,), (e,), u[i]).tobytes() == direct.tobytes()

    def test_full_and_simple_rows_in_one_call(self, rational):
        # the variant is a row column: full and simple rows, with n = 0 and
        # n > 0 rows among both, share one call; the n = 0 row at eps = 0
        # meets f(0) = 0 at u = 0 and still reads exactly 1
        rows = ((0.2, 1e-3, "full"), (0.2, 0.0, "simple"), (0.0, 0.5, "full"),
                (2.0, 1e-8, "simple"), (0.0, 0.0, "simple"), (0.05, 0.25, "full"))
        paths = tuple(RegPath(rational, n, variant) for n, _, variant in rows)
        eps = tuple(e for _, e, _ in rows)
        u = np.linspace(-3.0, 3.0, len(rows) * 64).reshape(len(rows), 64)[::-1].copy()
        u[:, 7] = 0.0
        batch = reg_coefficient(paths, eps, u)
        for i, (p, e) in enumerate(zip(paths, eps)):
            assert batch[i].tobytes() == reg_coefficient((p,), (e,), u[i]).tobytes()

    def test_rejects_different_f(self, rational):
        u = np.zeros((2, 4))
        tanh = degeneracy_function("tanh")
        with pytest.raises(ValueError, match="one f for every path"):
            reg_coefficient((RegPath(rational, 0.2, "full"), RegPath(tanh, 0.2, "full")), (0.5, 0.5), u)
        with pytest.raises(ValueError, match="one eps per path"):
            reg_coefficient((RegPath(rational, 0.2, "full"),) * 2, (0.5,), u)


class TestFullPath:
    def test_value_at_zero(self, rational):
        p = RegPath(rational, 0.3, "full")
        expected = f_pow_n(rational, 0.3, 0.25) * (2.0 - 0.25)
        assert reg_coefficient((p,), (0.25,), 0.0) == pytest.approx(expected, rel=1e-14)

    def test_constant_at_eps_one(self, rational):
        p = RegPath(rational, 0.4, "full")
        vals = [reg_coefficient((p,), (1.0,), u) for u in (-3.0, 0.0, 0.7, 10.0)]
        assert all(v == pytest.approx(f_pow_n(rational, 0.4, 1.0), rel=1e-15) for v in vals)

    def test_small_eps_converges_to_degenerate_coefficient(self, rational):
        p = RegPath(rational, 2.0, "full")
        gap = abs(reg_coefficient((p,), (1e-8,), 0.1) - f_pow_n(rational, 2.0, 0.1))
        assert gap <= 1e-10

    def test_rejects_eps_out_of_range(self, rational):
        p = RegPath(rational, 0.3, "full")
        for eps in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                reg_coefficient((p,), (eps,), 0.0)

    def test_uniform_parabolicity(self, rational):
        p = RegPath(rational, 2.0, "full")
        u = np.linspace(-10.0, 10.0, 2001)
        for eps in (1.0, 0.1, 1e-3, 1e-6):
            floor = f_pow_n(rational, 2.0, eps)
            assert float(np.min(reg_coefficient((p,), (eps,), u))) >= floor > 0.0

    def test_uniform_on_compacts_convergence(self, rational):
        p = RegPath(rational, 1.0, "full")
        u = np.linspace(-5.0, 5.0, 1001)
        target = f_pow_n(rational, 1.0, np.abs(u))
        sups = [float(np.max(np.abs(reg_coefficient((p,), (eps,), u) - target))) for eps in (1e-2, 1e-4, 1e-6)]
        assert sups[0] > sups[1] > sups[2]


class TestSimplePath:
    def test_value_at_zero(self, rational):
        p = RegPath(rational, 0.2, "simple")
        assert reg_coefficient((p,), (1e-3,), 0.0) == pytest.approx(f_pow_n(rational, 0.2, 1e-3), rel=1e-14)

    def test_monotone_in_magnitude(self, rational):
        p = RegPath(rational, 0.2, "simple")
        u = np.linspace(0.0, 10.0, 101)
        vals = reg_coefficient((p,), (1e-3,), u)
        assert np.all(np.diff(vals) > 0)

    def test_bounded_by_cf_power(self, rational):
        p = RegPath(rational, 0.2, "simple")
        u = np.linspace(-100.0, 100.0, 999)
        assert np.max(reg_coefficient((p,), (0.5,), u)) <= coefficient_bound(p, 0.5)

    def test_allows_eps_zero(self, rational):
        p = RegPath(rational, 0.2, "simple")
        assert reg_coefficient((p,), (0.0,), 2.0) == pytest.approx(f_pow_n(rational, 0.2, 2.0), rel=1e-14)


def theta(path, eps, u):
    """The perturbation size Theta = 1 - psi_eps(u) of the branching analysis."""
    return 1.0 - reg_coefficient((path,), (eps,), u)


class TestTheta:
    def test_identically_zero_at_n_zero(self, rational):
        p = RegPath(rational, 0.0, "simple")
        u = np.linspace(-4.0, 4.0, 41)
        assert np.all(theta(p, 1e-3, u) == 0.0)

    def test_monotone_in_n(self, rational):
        vals = [theta(RegPath(rational, n, "simple"), 1e-3, 1.0) for n in (0.5, 0.1, 0.01, 0.001)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_first_order_expansion_point(self, rational):
        n = 1e-4
        p = RegPath(rational, n, "simple")
        got = theta(p, 0.0, 1.0) / n
        target = -np.log(rational(1.0))
        assert abs(got - target) / target <= 1e-3

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=1e-4, max_value=0.9),
        st.floats(min_value=0.0, max_value=20.0),
        st.floats(min_value=1e-6, max_value=1.0),
    )
    def test_bounds(self, n, u, eps):
        p = RegPath(degeneracy_function("rational"), n, "simple")
        val = theta(p, eps, u)
        assert 0.0 <= val < 1.0

    def test_saturates_at_degenerate_point(self, rational):
        # at eps = 0, u = 0 the coefficient vanishes and Theta hits 1 exactly
        p = RegPath(rational, 0.5, "simple")
        assert theta(p, 0.0, 0.0) == 1.0


class TestLogExpansionResidual:
    def test_weak_limit_surrogate(self, rational):
        # windowed L1 distance between (1 - f^n)/n and -ln f shrinks with n
        t = np.linspace(1e-4, 1.0, 4000)
        w = np.sin(np.pi * t) ** 2
        fv = np.asarray(rational(t))
        def l1_gap(n):
            lhs = (1.0 - fv**n) / n
            return float(np.trapezoid(np.abs(lhs + np.log(fv)) * w, t))
        gaps = [l1_gap(n) for n in (1e-1, 1e-2, 1e-3)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] <= 0.05 * gaps[0]


def test_coefficient_bound_variants(rational):
    full = RegPath(rational, 0.2, "full")
    simple = RegPath(rational, 0.2, "simple")
    assert coefficient_bound(full, 1e-3) == pytest.approx(
        f_pow_n(rational, 0.2, 1e-3) + 1.0, rel=1e-12
    )
    assert coefficient_bound(simple, 1e-3) == pytest.approx(1.0, rel=1e-12)


def test_power_kind_bound_uses_t_max():
    f = degeneracy_function("power", kappa=2.0, t_max=3.0)
    assert f.unbounded
    assert f.bound == pytest.approx(9.0)


def test_regpath_validation(rational):
    with pytest.raises(ValueError):
        RegPath(rational, -0.1, "full")
    with pytest.raises(ValueError):
        RegPath(rational, 0.1, "middle")
