"""Eigenpair and adjoint-polynomial tests for the rescaled kernel operator."""

import math
from fractions import Fraction

import numpy as np
import pytest

from polyheat.gridfield import Field, coordinates, inner, l2_norm, make_grid
from polyheat.kernel import profile_fourier
from polyheat.spectral_theory import (
    MultiIndex,
    PolynomialNVar,
    adjoint_eigenpolynomial,
    apply_L,
    apply_L_star,
    biorthogonality_matrix,
    eigenfunction,
    eigenvalue,
    multi_indices_up_to,
)


@pytest.fixture(scope="module")
def grid_m2():
    # wide enough that the m = 2 profile clears the boundary-shell assertion
    return make_grid(1, 32.0, 256)


@pytest.fixture(scope="module")
def grid_m1():
    return make_grid(1, 20.0, 256)


class TestMultiIndex:
    def test_order_and_factorial(self):
        b = MultiIndex((3, 2))
        assert b.order == 5
        assert b.factorial == 12

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MultiIndex((-1,))

    def test_enumeration_graded(self):
        betas = multi_indices_up_to(2, 2)
        orders = [b.order for b in betas]
        assert orders == sorted(orders)
        assert len(betas) == 6


class TestEigenvalue:
    def test_zero_order(self):
        assert eigenvalue(MultiIndex((0,)), 2) == 0

    def test_example_m2(self):
        assert eigenvalue(MultiIndex((3,)), 2) == Fraction(-3, 4)
        assert float(eigenvalue(MultiIndex((3,)), 2)) == -0.75

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_order_2m_gives_minus_one(self, m):
        assert eigenvalue(MultiIndex((2 * m,)), m) == -1


class TestApplyL:
    def test_annihilates_profile(self, grid_m2):
        F = profile_fourier(2, grid_m2)
        assert l2_norm(apply_L(F, 2)) <= 1e-5 * l2_norm(F)

    def test_zero_field(self, grid_m2):
        z = Field(grid_m2, np.zeros(grid_m2.shape))
        assert l2_norm(apply_L(z, 2)) == 0.0

    def test_classical_heat_profile(self, grid_m1):
        x = np.broadcast_to(coordinates(grid_m1)[0], grid_m1.shape)
        gauss = Field(grid_m1, np.exp(-(x**2) / 4.0) / math.sqrt(4.0 * np.pi))
        assert l2_norm(apply_L(gauss, 1)) <= 1e-8


class TestEigenfunction:
    def test_zeroth_is_profile(self, grid_m2):
        psi0 = eigenfunction(MultiIndex((0,)), 2, grid_m2)
        F = profile_fourier(2, grid_m2)
        assert np.max(np.abs(psi0.values - F.values)) <= 1e-14

    def test_m1_first_is_hermite_weighted(self, grid_m1):
        # psi_(1) is proportional to y e^(-y^2/4)
        psi = eigenfunction(MultiIndex((1,)), 1, grid_m1)
        x = np.broadcast_to(coordinates(grid_m1)[0], grid_m1.shape)
        target = x * np.exp(-(x**2) / 4.0)
        cos = np.sum(psi.values * target) / (
            np.linalg.norm(psi.values.ravel()) * np.linalg.norm(target.ravel())
        )
        assert abs(abs(cos) - 1.0) <= 1e-12

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
    def test_eigen_residual_m2(self, grid_m2, order):
        beta = MultiIndex((order,))
        psi = eigenfunction(beta, 2, grid_m2)
        lam = float(eigenvalue(beta, 2))
        resid = Field(grid_m2, apply_L(psi, 2).values - lam * psi.values)
        assert l2_norm(resid) / l2_norm(psi) <= 1e-4

    def test_refinement_reduces_residual(self):
        # in the truncation-limited regime (Gaussian sampled analytically and
        # barely resolved) doubling M must cut the residual by 4x or more
        resids = []
        for M in (64, 128):
            grid = make_grid(1, 20.0, M)
            x = np.broadcast_to(coordinates(grid)[0], grid.shape)
            psi1 = Field(grid, -x / 2.0 * np.exp(-(x**2) / 4.0) / math.sqrt(4.0 * np.pi))
            resid = Field(grid, apply_L(psi1, 1).values + 0.5 * psi1.values)
            resids.append(l2_norm(resid) / l2_norm(psi1))
        assert resids[0] >= 4.0 * resids[1]

    def test_rejects_high_order(self, grid_m2):
        with pytest.raises(ValueError):
            eigenfunction(MultiIndex((9,)), 2, grid_m2)

    def test_under_resolved_derivative_raises(self):
        # a coarse grid resolves the m = 3 profile but not its 8th derivative
        coarse = make_grid(1, 20.0, 24)
        with pytest.raises(ValueError, match="under-resolved"):
            eigenfunction(MultiIndex((8,)), 3, coarse)


class TestAdjointPolynomials:
    def test_zero_order_is_one(self):
        p = adjoint_eigenpolynomial(MultiIndex((0,)), 2)
        assert p.coeffs == {(0,): 1.0}

    @pytest.mark.parametrize("m,entries", [(2, (1,)), (2, (3,)), (3, (5,)), (2, (1, 1))])
    def test_below_2m_is_pure_monomial(self, m, entries):
        beta = MultiIndex(entries)
        p = adjoint_eigenpolynomial(beta, m)
        assert set(p.coeffs) == {beta.entries}
        assert p.coeffs[beta.entries] == pytest.approx(1.0 / math.sqrt(beta.factorial))

    def test_m1_order2_hermite(self, grid_m1):
        # sqrt(2) psi* = y^2 - 2; sympy supplies the independent Laplacian
        import sympy

        y = sympy.symbols("y")
        assert sympy.diff(y**2, y, 2) == 2
        raw = adjoint_eigenpolynomial(MultiIndex((2,)), 1, normalized=False)
        assert raw.coeffs == {(2,): Fraction(1), (0,): Fraction(-2)}
        psi_star = adjoint_eigenpolynomial(MultiIndex((2,)), 1)
        # quadrature cross-check: <psi_2, psi*_2> = 1
        psi2 = eigenfunction(MultiIndex((2,)), 1, grid_m1)
        val = inner(psi2, Field(grid_m1, psi_star.evaluate(grid_m1)))
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_against_sympy_oracle(self):
        # independent route: iterated Laplacian sums computed symbolically
        import sympy

        y = sympy.symbols("y")
        for m, k in [(1, 4), (2, 5), (1, 6)]:
            expr = y**k
            total = y**k
            for j in range(1, k // (2 * m) + 1):
                term = y**k
                for _ in range(m * j):
                    term = -sympy.diff(term, y, 2)
                total = total + term / math.factorial(j)
            total = sympy.expand(total)
            raw = adjoint_eigenpolynomial(MultiIndex((k,)), m, normalized=False)
            ours = sum(
                float(c) * y**e[0] for e, c in raw.coeffs.items()
            )
            assert sympy.expand(total - ours) == 0

    def test_degree_bookkeeping(self):
        for m in (1, 2, 3):
            for beta in multi_indices_up_to(2, 6):
                assert adjoint_eigenpolynomial(beta, m).degree == beta.order


class TestApplyLStar:
    def test_constant_maps_to_zero(self):
        one = PolynomialNVar(1, {(0,): Fraction(1)})
        assert apply_L_star(one, 2).coeffs == {}

    def test_first_order(self):
        p = adjoint_eigenpolynomial(MultiIndex((1,)), 2, normalized=False)
        out = apply_L_star(p, 2)
        assert out == p.scaled(Fraction(-1, 4))

    def test_m1_hermite_eigenvalue_exact(self):
        psi_star = adjoint_eigenpolynomial(MultiIndex((2,)), 1)
        out = apply_L_star(psi_star, 1)
        # 1/(2m) = 1/2 is dyadic, so even the float route is exact here
        assert out == psi_star.scaled(-1.0)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_exact_symbolic_eigenrelation_1d(self, m):
        for k in range(9):
            beta = MultiIndex((k,))
            raw = adjoint_eigenpolynomial(beta, m, normalized=False)
            assert apply_L_star(raw, m) == raw.scaled(eigenvalue(beta, m))

    def test_exact_symbolic_eigenrelation_2d(self):
        for beta in multi_indices_up_to(2, 8):
            raw = adjoint_eigenpolynomial(beta, 2, normalized=False)
            assert apply_L_star(raw, 2) == raw.scaled(eigenvalue(beta, 2))


class TestDuality:
    def test_pairing_transfers_to_adjoint(self, grid_m2):
        # <A v, w> = <v, A* w> for decaying v and polynomial w
        rng = np.random.default_rng(7)
        x = np.broadcast_to(coordinates(grid_m2)[0], grid_m2.shape)
        v = Field(grid_m2, (0.7 + 0.3 * np.cos(np.pi * x / 32.0)) * np.exp(-(x**2) / 6.0))
        w = PolynomialNVar(1, {(0,): 0.5, (2,): rng.uniform(0.1, 1.0), (5,): 0.02})
        m = 2
        lhs = inner(apply_L(v, m), Field(grid_m2, w.evaluate(grid_m2)))
        rhs = inner(v, Field(grid_m2, apply_L_star(w, m).evaluate(grid_m2)))
        scale = l2_norm(v) * l2_norm(Field(grid_m2, w.evaluate(grid_m2)))
        assert abs(lhs - rhs) <= 1e-6 * scale


class TestBiorthogonality:
    def test_m1_identity(self, grid_m1):
        _, gram = biorthogonality_matrix(3, 1, grid_m1)
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-6

    def test_m2_near_identity(self):
        grid = make_grid(1, 44.0, 1024)
        betas, gram = biorthogonality_matrix(3, 2, grid)
        assert gram[0, 0] == pytest.approx(1.0, abs=1e-6)
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) <= 1e-4

    def test_rejects_high_order(self, grid_m1):
        with pytest.raises(ValueError):
            biorthogonality_matrix(5, 1, grid_m1)

    def test_rejects_bad_arguments_before_any_work(self, grid_m1):
        # a negative order would give an empty Gram matrix, and m = 0 would
        # fail deep in the kernel with a grid-resolution message
        with pytest.raises(ValueError, match=r"max_order must be one of \(0, 1, 2, 3, 4\), got -1"):
            biorthogonality_matrix(-1, 1, grid_m1)
        with pytest.raises(ValueError, match="m must be at least 1, got 0"):
            biorthogonality_matrix(2, 0, grid_m1)
        with pytest.raises(TypeError, match="max_order must be an integer"):
            biorthogonality_matrix(2.0, 1, grid_m1)


class TestPolynomialNVar:
    def test_no_zero_coefficients_stored(self):
        p = PolynomialNVar(1, {(1,): 0.0, (2,): 1.0})
        assert (1,) not in p.coeffs

    def test_neg_laplacian_monomial(self):
        p = PolynomialNVar(2, {(2, 1): Fraction(1)})
        assert p.neg_laplacian().coeffs == {(0, 1): Fraction(-2)}

    def test_euler_is_degree_diagonal(self):
        p = PolynomialNVar(1, {(3,): Fraction(2)})
        assert p.euler().coeffs == {(3,): Fraction(6)}
