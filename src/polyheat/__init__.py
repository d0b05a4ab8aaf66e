"""polyheat: a numerical laboratory for the degenerate high-order diffusion
equation u_t = (-1)^(m-1) div(f^n(|u|) grad Delta^(m-1) u) and its homotopy
to the polyharmonic heat equation u_t = -(-Delta)^m u."""

__version__ = "0.1.0"

from .gridfield import (
    Field,
    GridSpec,
    bump,
    gradient,
    integrate,
    laplacian_power,
    make_grid,
    read_phf1,
    write_phf1,
)
from .kernel import (
    KernelProfile,
    decay_fit,
    phe_solve,
    profile_bessel,
    profile_fourier,
)
from .spectral_theory import (
    MultiIndex,
    PolynomialNVar,
    adjoint_eigenpolynomial,
    apply_L,
    apply_L_star,
    biorthogonality_matrix,
    eigenfunction,
    eigenvalue,
)
from .degeneracy import (
    DegeneracyFunction,
    RegPath,
    degeneracy_function,
    f_pow_n,
)
from .solver import (
    EnergyReport,
    SolverConfig,
    Trajectory,
    interface_report,
    solve,
)
from .homotopy import (
    ConvergenceTable,
    CorrectionField,
    Schedule,
    branching_residual,
    correction_phi,
    path_dependence_report,
    schedule_eval,
    sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
