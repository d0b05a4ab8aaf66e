"""Eigenstructure of the rescaled operator and its polynomial adjoint family.

The operator A v = -(-Delta)^m v + (1/2m) y.grad v + (N/2m) v annihilates the
kernel profile; its eigenfunctions are scaled profile derivatives with
eigenvalues -|beta|/2m, while the adjoint operator's eigenfunctions are
polynomials amenable to exact rational arithmetic.  This script measures the
grid-level eigen-residuals, verifies the adjoint eigenrelation symbolically,
and assembles the biorthogonality Gram matrix.
"""

import numpy as np

from polyheat.gridfield import Field, GridSpec, l2_norm
from polyheat.spectral_theory import (
    adjoint_eigenpolynomial,
    apply_L,
    apply_L_star,
    biorthogonality_matrix,
    eigenfunction,
    eigenvalue,
)

m = 2
grid = GridSpec(dim=1, half_width=32.0, points_per_dim=256)

print(f"eigen-residuals for A (m = {m}), lambda_beta = -|beta|/{2 * m}:")
for order in range(5):
    beta = (order,)
    psi = eigenfunction(beta, m, grid)
    lam = float(eigenvalue(beta, m))
    resid = l2_norm(Field(grid, apply_L(psi, m).values - lam * psi.values)) / l2_norm(psi)
    print(f"  |beta| = {order}: lambda = {lam:+.3f}   rel residual = {resid:.2e}")

# the adjoint family is polynomial, so the eigenrelation is checked exactly;
# below degree 2m the correction sum is empty and psi* is a pure monomial
print("\nsymbolic adjoint eigenchecks (exact rational arithmetic):")
for order in range(9):
    beta = (order,)
    raw = adjoint_eigenpolynomial(beta, m, normalized=False)
    exact = np.array_equal(apply_L_star(raw, m), raw * eigenvalue(beta, m))
    print(f"  |beta| = {order}: A* psi* = lambda psi*  ->  {exact}")

print("\nexample polynomial, sqrt(2) psi*_2 at m = 1 (the Hermite case), coefficients of y^0, y^1, y^2:")
print(" ", np.array2string(adjoint_eigenpolynomial((2,), 1, normalized=False), formatter={"all": str}))

# pairing the two families over the box: the diagonal is exactly one (the
# correction terms of psi* have degree < |beta| and integrate away against
# the matching derivative of the profile)
wide = GridSpec(dim=1, half_width=44.0, points_per_dim=1024)
betas, _, gram = biorthogonality_matrix(3, m, wide)
print(f"\nbiorthogonality Gram matrix (m = {m}, orders <= 3):")
with np.printoptions(precision=3, suppress=False):
    print(gram)
print("max off-diagonal:", np.max(np.abs(gram - np.diag(np.diag(gram)))))
