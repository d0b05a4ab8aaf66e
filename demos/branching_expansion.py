"""First-order branching expansion u = u_lin + n phi + o(n).

The deviation of the degenerate flow from the linear one is, to first order
in n, a Duhamel convolution of the kernel gradient with
ln f(|u_lin|) grad Delta^(m-1) u_lin.  This script computes that correction
field, resolves its overall sign empirically, and shows that subtracting
n phi removes almost all of the measured gap, with the remainder ratio
||u_n - u_lin - n phi|| / n shrinking as n does.  An ablated control (phi
replaced by zero) confirms the correction is doing real work, and the
full-vs-simple path comparison reports how strongly the finite-eps solutions
feel the choice of regularization.
"""

from polyheat.degeneracy import DegeneracyFunction, RegPath
from polyheat.gridfield import Field, GridSpec, bump, l2_norm
from polyheat.homotopy import (
    Schedule,
    branching_residual,
    correction_phi,
    path_dependence_report,
    resolve_phi_sign,
    schedule_eval,
)
from polyheat.kernel import phe_solve
from polyheat.solver import SolverConfig, solve

grid = GridSpec(dim=1, half_width=24.0, points_per_dim=256)
u0 = bump(grid, amplitude=1.0, width=4.0, steepness=6.0)
f = DegeneracyFunction("rational")
schedule = Schedule("eps_of_n", 1.0, f)
t_eval = 0.1

u_lin = phe_solve(u0, 2, t_eval)
phi = correction_phi(u0, 2, f, t_eval, time_nodes=641, clamp_floor=1e-14)
print(f"||phi|| = {l2_norm(Field(grid, phi.values)):.4f}, "
      f"clamped fraction = {phi.clamped_fraction:.3f} (log floor {phi.clamp_floor:g})")

# the three n rows share f and the step settings, so they run as one batch
ns = (1e-1, 3e-2, 1e-2)
configs = []
for n in ns:
    n_eff, eps = schedule_eval(schedule, n)
    configs.append(SolverConfig(
        m=2, path=RegPath(f, n_eff, "simple"), eps=eps, dt_init=2e-5,
        t_final=t_eval, report_stride=10**9,
    ))
runs = {}
for n, out in zip(ns, solve(u0, configs)):
    if isinstance(out, Exception):
        raise out
    runs[n] = out.snapshots[-1]

# the sign of the correction is not asserted a priori; the smallest-n run
# resolves it (least squares against the measured deviation)
phi = resolve_phi_sign(runs[1e-2], u_lin, phi)
print(f"empirically resolved sign of phi: {phi.sign:+d}")

print(f"\n{'n':>6} {'raw gap/n':>12} {'corrected gap/n':>16}")
for n, u_n in sorted(runs.items(), reverse=True):
    ablated = branching_residual(u_n, u_lin, None, n)
    corrected = branching_residual(u_n, u_lin, phi, n)
    print(f"{n:>6g} {ablated.remainder_ratio:>12.4e} {corrected.remainder_ratio:>16.4e}")
print("raw ratios approach ||phi||; corrected ratios shrink with n: the o(n) claim")

rep = path_dependence_report(u0, 2, f, 1e-2, 1e-3, t_eval, dt_init=5e-5)
print(
    f"\nfull-vs-simple path gap at (n, eps) = (1e-2, 1e-3): {rep.gap_l2:.4e} "
    f"(solver floor {rep.floor_l2:.1e})"
)
print("at reachable eps the full path still carries its f^n(eps) offset, so the")
print("two regularizations give visibly different states; the gap is the datum.")
