"""Tabulate the oscillatory kernel profiles and verify their structure.

The rescaled kernel F of u_t = -(-Delta)^m u is a Gaussian for m = 1 and an
oscillatory, exponentially decaying function for m >= 2.  This script builds
the profiles along two independent routes (radial Bessel quadrature and a
Fourier synthesis on a periodic box), checks that they agree, and fits the
decay envelope |F| ~ C exp(-a r^alpha), whose exponent should approach
alpha = 2m/(2m-1).
"""

import pathlib
from dataclasses import replace

import numpy as np

from polyheat.gridfield import GridSpec, coordinates, integrate
from polyheat.kernel import (
    decay_fit,
    profile_bessel,
    profile_fourier,
    radial_integral,
    sign_change_count,
    write_profile_csv,
)

out = pathlib.Path("demo-out/kernel")
out.mkdir(parents=True, exist_ok=True)

# -- radial tabulations ------------------------------------------------------
# each profile is tabulated out to where |F| drops below ~1e-13; the slowly
# decaying m = 3 kernel (alpha = 6/5) needs a far larger range than m = 2
ranges = {1: 12.0, 2: 36.0, 3: 68.0}
profiles = {}
for m, r_max in ranges.items():
    p = profile_bessel(m, 1, np.arange(0.0, r_max, 0.02))
    p = replace(p, decay_fit=decay_fit(p))
    profiles[m] = p
    write_profile_csv(out / f"profile_m{m}_N1.csv", p)
    print(
        f"m={m}: F(0) = {p.values[0]:+.6f}   integral = {radial_integral(p):.8f}   "
        f"sign changes = {sign_change_count(p)}"
    )
    fit = p.decay_fit
    target = 2 * m / (2 * m - 1)
    print(f"      envelope fit: alpha = {fit.alpha:.4f} (target {target:.4f}), a = {fit.a:.4f}")

# m = 1 reduces to the heat kernel: a = 1/4 and alpha = 2 exactly
print("\nGaussian check: F_1(0) =", profiles[1].values[0], "vs (4 pi)^-1/2 =", (4 * np.pi) ** -0.5)

# -- the same function from its Fourier transform ----------------------------
grid = GridSpec(dim=1, half_width=24.0, points_per_dim=256)
x = np.broadcast_to(coordinates(grid)[0], grid.shape)
F2 = profile_fourier(2, grid)
print("\nFourier route, m=2: grid integral =", integrate(F2))
lookup = dict(zip(profiles[2].radii.round(12), profiles[2].values))
sel = np.abs(x) <= 10.0
worst = max(
    abs(F2.values[i] - lookup[round(abs(x[i]), 12)])
    for i in np.nonzero(sel)[0]
    if round(abs(x[i]), 12) in lookup
)
print("dual-route disagreement on |y| <= 10:", worst)
print("\nprofiles written to", out)
