"""polyheat: a numerical laboratory for the degenerate high-order diffusion
equation u_t = (-1)^(m-1) div(f^n(|u|) grad Delta^(m-1) u) and its homotopy
to the polyharmonic heat equation u_t = -(-Delta)^m u."""

__version__ = "0.1.0"

from . import degeneracy, gridfield, homotopy, kernel, solver, spectral_theory
