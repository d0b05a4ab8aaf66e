"""Convergence of the regularized solutions toward the linear flow.

Couples the degeneracy exponent n to the regularization via the schedule
eps(n) = f^{-1}(e^{-c/sqrt(n)}), which makes the coupling product
n |ln f(eps)| = c sqrt(n) vanish, and measures how fast the solutions of

    u_t = (-1)^(m-1) div( f^n(sqrt(eps^2 + u^2)) grad Delta^(m-1) u )

approach the solution of u_t = -(-Delta)^m u with the same data.  The gap
shrinks essentially linearly in n, which the fitted log-log slope reports.
"""

import pathlib

from polyheat.degeneracy import DegeneracyFunction
from polyheat.gridfield import GridSpec, bump
from polyheat.homotopy import (
    Schedule,
    SweepSpec,
    schedule_eval,
    sweep,
    write_plot_data,
    write_summary_json,
    write_table_csv,
)

out = pathlib.Path("demo-out/sweep")
out.mkdir(parents=True, exist_ok=True)

f = DegeneracyFunction("rational")
schedule = Schedule("eps_of_n", 1.0, f)

print("schedule law n |ln f(eps(n))| = sqrt(n):")
for n in (1e-1, 1e-2, 1e-3):
    n_eff, eps = schedule_eval(schedule, n)
    print(f"  n = {n:<6g} -> eps = {eps:.3e}, product = {n_eff * abs(__import__('math').log(f(eps))):.4f}")

grid = GridSpec(dim=1, half_width=24.0, points_per_dim=256)
u0 = bump(grid, amplitude=1.0, width=4.0, steepness=6.0)

print("\nrunning the sweep (one solver run per row) ...")
spec = SweepSpec(
    schedule, m=2, t_eval=0.1,
    n_values=[0.0, 1e-1, 3e-2, 1e-2, 3e-3],
    dt_init=2e-5,
)
table = sweep(u0, spec)

print(f"{'n':>8} {'eps':>12} {'l2 gap':>12} {'sup gap':>12} {'corrected':>12}")
for row in table.rows:
    print(f"{row.n:>8g} {row.eps:>12.3e} {row.l2_gap:>12.4e} {row.sup_gap:>12.3e} {row.correction_gap:>12.4e}")
print(f"\nfitted slope of log gap vs log n: {table.slope:.3f}  (CI {table.slope_ci[0]:.3f}..{table.slope_ci[1]:.3f})")
print("the n = 0 row sits at the solver's own discretization floor")

write_table_csv(out / "table.csv", table)
write_summary_json(out / "summary.json", table)
write_plot_data(out / "plotdata.csv", table)
print("table, summary, and log-log plot data written to", out)
