"""Eigenpair and adjoint-polynomial tests for the rescaled kernel operator."""

import math
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from polyheat import spectral_theory
from polyheat.gridfield import Field, coordinates, inner, l2_norm, make_grid
from polyheat.kernel import profile_fourier
from polyheat.spectral_theory import (
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


class TestBetaTuples:
    def test_order_and_factorial(self):
        # |beta| = 5 sets the eigenvalue; beta! = 3! 2! = 12 the normalisation
        assert eigenvalue((3, 2), 2) == Fraction(-5, 4)
        p = adjoint_eigenpolynomial((3, 2), 3)
        assert p[3, 2] == 1.0 / math.sqrt(12)

    def test_enumeration_graded(self):
        assert multi_indices_up_to(2, 2) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
        assert multi_indices_up_to(1, 3) == [(0,), (1,), (2,), (3,)]
        orders = [sum(b) for b in multi_indices_up_to(2, 6)]
        assert orders == sorted(orders)
        assert len(orders) == 28


class TestEigenvalue:
    def test_zero_order(self):
        assert eigenvalue((0,), 2) == 0

    def test_example_m2(self):
        assert eigenvalue((3,), 2) == Fraction(-3, 4)
        assert float(eigenvalue((3,), 2)) == -0.75

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_order_2m_gives_minus_one(self, m):
        assert eigenvalue((2 * m,), m) == -1


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
        psi0 = eigenfunction((0,), 2, grid_m2)
        F = profile_fourier(2, grid_m2)
        assert np.max(np.abs(psi0.values - F.values)) <= 1e-14

    def test_m1_first_is_hermite_weighted(self, grid_m1):
        # psi_(1) is proportional to y e^(-y^2/4)
        psi = eigenfunction((1,), 1, grid_m1)
        x = np.broadcast_to(coordinates(grid_m1)[0], grid_m1.shape)
        target = x * np.exp(-(x**2) / 4.0)
        cos = np.sum(psi.values * target) / (
            np.linalg.norm(psi.values.ravel()) * np.linalg.norm(target.ravel())
        )
        assert abs(abs(cos) - 1.0) <= 1e-12

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
    def test_eigen_residual_m2(self, grid_m2, order):
        beta = (order,)
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
            eigenfunction((9,), 2, grid_m2)

    def test_under_resolved_derivative_raises(self):
        # a coarse grid resolves the m = 3 profile but not its 8th derivative
        coarse = make_grid(1, 20.0, 24)
        with pytest.raises(ValueError, match="under-resolved"):
            eigenfunction((8,), 3, coarse)


class TestAdjointPolynomials:
    def test_zero_order_is_one(self):
        p = adjoint_eigenpolynomial((0,), 2)
        assert p.dtype == float
        assert np.array_equal(p, [1.0])

    @pytest.mark.parametrize("m,entries", [(2, (1,)), (2, (3,)), (3, (5,)), (2, (1, 1))])
    def test_below_2m_is_pure_monomial(self, m, entries):
        p = adjoint_eigenpolynomial(entries, m)
        assert p.shape == tuple(b + 1 for b in entries)
        assert [tuple(k) for k in np.argwhere(p)] == [entries]
        assert p[entries] == pytest.approx(1.0 / math.sqrt(math.prod(map(math.factorial, entries))))

    def test_m1_order2_hermite(self, grid_m1):
        # sqrt(2) psi* = y^2 - 2; sympy supplies the independent Laplacian
        import sympy

        y = sympy.symbols("y")
        assert sympy.diff(y**2, y, 2) == 2
        raw = adjoint_eigenpolynomial((2,), 1, normalized=False)
        assert np.array_equal(raw, [Fraction(-2), 0, Fraction(1)])
        assert all(isinstance(c, Fraction) for c in raw)
        psi_star = adjoint_eigenpolynomial((2,), 1)
        # quadrature cross-check: <psi_2, psi*_2> = 1
        psi2 = eigenfunction((2,), 1, grid_m1)
        val = inner(psi2, Field(grid_m1, polyval(coordinates(grid_m1)[0], psi_star)))
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_against_sympy_oracle(self):
        # independent route: iterated Laplacian sums computed symbolically,
        # over y1, y2 in 2-D, compared coefficient by coefficient
        import sympy

        cases = [(1, (4,)), (2, (5,)), (1, (6,)), (1, (2, 2)), (1, (3, 1)), (2, (4, 1)), (1, (0, 5)), (3, (6, 2))]
        for m, beta in cases:
            ys = sympy.symbols(f"y1:{len(beta) + 1}")
            monomial = sympy.Mul(*(y**b for y, b in zip(ys, beta)))
            total = monomial
            for j in range(1, sum(beta) // (2 * m) + 1):
                term = monomial
                for _ in range(m * j):
                    term = -sum(sympy.diff(term, y, 2) for y in ys)
                total = total + term / math.factorial(j)
            oracle = sympy.Poly(sympy.expand(total), *ys)
            raw = adjoint_eigenpolynomial(beta, m, normalized=False)
            ours = {k: c for k, c in np.ndenumerate(raw) if c}
            assert ours == {k: Fraction(int(c.p), int(c.q)) for k, c in zip(oracle.monoms(), oracle.coeffs())}, beta

    def test_degree_bookkeeping(self):
        for m in (1, 2, 3):
            for beta in multi_indices_up_to(2, 6):
                p = adjoint_eigenpolynomial(beta, m)
                assert p.shape == tuple(b + 1 for b in beta)
                assert np.argwhere(p).sum(axis=1).max() == sum(beta)

    def test_rejects_order_above_12(self):
        assert adjoint_eigenpolynomial((6, 6), 1).shape == (7, 7)
        with pytest.raises(ValueError, match=r"\|beta\| <= 12"):
            adjoint_eigenpolynomial((13,), 1)


class TestApplyLStar:
    def test_constant_maps_to_zero(self):
        out = apply_L_star(np.array([Fraction(1)]), 2)
        assert out.shape == (1,)
        assert not np.any(out)

    def test_first_order(self):
        p = adjoint_eigenpolynomial((1,), 2, normalized=False)
        out = apply_L_star(p, 2)
        assert np.array_equal(out, p * Fraction(-1, 4))

    def test_m1_hermite_eigenvalue_exact(self):
        psi_star = adjoint_eigenpolynomial((2,), 1)
        out = apply_L_star(psi_star, 1)
        # 1/(2m) = 1/2 is dyadic, so even the float route is exact here
        assert np.array_equal(out, -psi_star)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_exact_symbolic_eigenrelation_1d(self, m):
        for k in range(9):
            beta = (k,)
            raw = adjoint_eigenpolynomial(beta, m, normalized=False)
            assert np.array_equal(apply_L_star(raw, m), raw * eigenvalue(beta, m))

    def test_exact_symbolic_eigenrelation_2d(self):
        for beta in multi_indices_up_to(2, 8):
            raw = adjoint_eigenpolynomial(beta, 2, normalized=False)
            assert np.array_equal(apply_L_star(raw, 2), raw * eigenvalue(beta, 2))

    def test_rejects_degree_above_12(self):
        # the limit is on the degree of the nonzero terms, not on the shape
        wide = np.full((13, 13), Fraction(0))
        wide[12, 0] = Fraction(1)
        assert apply_L_star(wide, 1)[12, 0] == -6
        wide[12, 1] = Fraction(1)
        with pytest.raises(ValueError, match="degree above 12"):
            apply_L_star(wide, 1)


class TestCoefficientArrays:
    def test_neg_laplacian_monomial(self):
        # (-Delta) y1^2 y2 = -2 y2, in an array of the input's shape
        p = np.full((3, 2), Fraction(0))
        p[2, 1] = Fraction(1)
        out = spectral_theory._neg_laplacian(p)
        assert out.shape == (3, 2)
        assert {k: c for k, c in np.ndenumerate(out) if c} == {(0, 1): Fraction(-2)}

    def test_euler_is_degree_diagonal(self):
        # y.grad (2 y^3) = 6 y^3; (-Delta)^2 kills y^3, so A* leaves -6/4 y^3
        p = np.array([0, 0, 0, Fraction(2)], dtype=object)
        assert np.array_equal(apply_L_star(p, 2), [0, 0, 0, Fraction(-3, 2)])


class TestDuality:
    def test_pairing_transfers_to_adjoint(self, grid_m2):
        # <A v, w> = <v, A* w> for decaying v and polynomial w
        rng = np.random.default_rng(7)
        x = coordinates(grid_m2)[0]
        v = Field(grid_m2, (0.7 + 0.3 * np.cos(np.pi * x / 32.0)) * np.exp(-(x**2) / 6.0))
        w = np.array([0.5, 0.0, rng.uniform(0.1, 1.0), 0.0, 0.0, 0.02])
        m = 2
        w_vals = Field(grid_m2, polyval(x, w))
        lhs = inner(apply_L(v, m), w_vals)
        rhs = inner(v, Field(grid_m2, polyval(x, apply_L_star(w, m).astype(float))))
        scale = l2_norm(v) * l2_norm(w_vals)
        assert abs(lhs - rhs) <= 1e-6 * scale


class TestBiorthogonality:
    def test_m1_identity(self, grid_m1):
        _, _, gram = biorthogonality_matrix(3, 1, grid_m1)
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-6

    def test_m2_near_identity(self):
        grid = make_grid(1, 44.0, 1024)
        betas, psis, gram = biorthogonality_matrix(3, 2, grid)
        assert gram[0, 0] == pytest.approx(1.0, abs=1e-6)
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) <= 1e-4
        # the eigenfunctions returned are the ones paired, in index order
        assert betas == [(0,), (1,), (2,), (3,)]
        for beta, psi in zip(betas, psis):
            assert np.array_equal(psi.values, eigenfunction(beta, 2, grid).values)

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
