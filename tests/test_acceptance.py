"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS line (visible with ``pytest -s``); a failed
assertion marks the corresponding criterion red.  The heavyweight runs are
shared through session fixtures, so criteria 8 and 9 measure the same sweep.
"""

import json
import math
import time

import numpy as np
import pytest

from polyheat.cli import main as cli_main
from polyheat.degeneracy import RegPath, degeneracy_function
from polyheat.gridfield import (
    Field,
    bump,
    coordinates,
    l2_norm,
    make_grid,
    read_phf1,
)
from polyheat.homotopy import (
    Schedule,
    SweepSpec,
    correction_phi,
    path_dependence_report,
    sweep,
)
from polyheat.kernel import (
    decay_fit,
    phe_solve,
    profile_bessel,
    profile_fourier,
    radial_integral,
)
from polyheat.solver import SolverConfig, solve
from polyheat.spectral_theory import (
    MultiIndex,
    adjoint_eigenpolynomial,
    apply_L,
    apply_L_star,
    biorthogonality_matrix,
    eigenfunction,
    eigenvalue,
)

RATIONAL = degeneracy_function("rational")

# canonical 1-D scenario: box wide enough for the m = 2 tails up to t = 0.5,
# bump smooth enough for the spectral-tail precondition at M = 256
GRID = make_grid(1, 24.0, 256)
U0 = bump(GRID, 1.0, 4.0, steepness=6.0)

PROFILE_RANGES = {(1, 1): 12.0, (2, 1): 36.0, (3, 1): 68.0, (2, 2): 36.0}


def _announce(number, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:>2} {name}: PASS{suffix}")


@pytest.fixture(scope="module")
def profiles():
    out = {}
    for (m, dim), r_max in PROFILE_RANGES.items():
        start = time.perf_counter()
        out[(m, dim)] = profile_bessel(m, dim, np.arange(0.0, r_max + 0.01, 0.02))
        out[(m, dim, "seconds")] = time.perf_counter() - start
    return out


@pytest.fixture(scope="module")
def acceptance_sweep():
    schedule = Schedule("eps_of_n", 1.0, RATIONAL)
    start = time.perf_counter()
    table = sweep(U0, SweepSpec(
        schedule, 2, 0.1, [1e-1, 3e-2, 1e-2, 3e-3],
        dt_init=2e-5, dealias=False, time_nodes=641, clamp_floor=1e-14,
    ))
    return table, time.perf_counter() - start


def test_criterion_01_kernel_normalization(profiles):
    """∫ F_{m,N} = 1 within 1e-6 for the four (m, N) cases, < 10 s each."""
    for (m, dim), r_max in PROFILE_RANGES.items():
        total = radial_integral(profiles[(m, dim)])
        seconds = profiles[(m, dim, "seconds")]
        assert abs(total - 1.0) <= 1e-6, (m, dim, total)
        assert seconds < 10.0, (m, dim, seconds)
    _announce(1, "kernel normalization", "four cases, worst |∫F-1| within 1e-6")


def test_criterion_02_gaussian_reduction():
    """m = 1 profile equals (4 pi)^(-N/2) e^(-r^2/4) to 1e-8 on r <= 10."""
    worst = 0.0
    for dim in (1, 2):
        radii = np.linspace(0.0, 10.0, 401)
        profile = profile_bessel(1, dim, radii)
        gauss = (4.0 * np.pi) ** (-dim / 2.0) * np.exp(-(radii**2) / 4.0)
        worst = max(worst, float(np.max(np.abs(profile.values - gauss))))
    assert worst <= 1e-8
    _announce(2, "Gaussian reduction", f"max pointwise error {worst:.2e}")


def test_criterion_03_dual_route_agreement(profiles):
    """Bessel-quadrature and Fourier-multiplier profiles within 1e-5 on |y| <= 10."""
    worst = 0.0
    for m, dim in PROFILE_RANGES:
        grid = GRID if dim == 1 else make_grid(2, 16.0, 128)
        field = profile_fourier(m, grid)
        axis = np.broadcast_to(coordinates(grid)[0], grid.shape)
        if dim == 1:
            line = field.values
            coords = axis
        else:
            mid = grid.points_per_dim // 2
            line = field.values[:, mid]
            coords = axis[:, mid]
        sel = np.abs(coords) <= 10.0
        radii = np.sort(np.unique(np.abs(coords[sel]).round(12)))
        reference = profile_bessel(m, dim, radii)
        lookup = dict(zip(reference.radii, reference.values))
        gap = max(abs(line[i] - lookup[round(abs(coords[i]), 12)]) for i in np.nonzero(sel)[0])
        worst = max(worst, gap)
        assert gap <= 1e-5, (m, dim, gap)
    _announce(3, "dual-route kernel agreement", f"worst gap {worst:.2e}")


def test_criterion_04_decay_exponent(profiles):
    """Fitted alpha within 5% of 2m/(2m-1) for m in {1, 2, 3}."""
    details = []
    for m in (1, 2, 3):
        fit = decay_fit(profiles[(m, 1)])
        target = 2 * m / (2 * m - 1)
        assert abs(fit.alpha - target) <= 0.05 * target, (m, fit)
        details.append(f"m={m}: {fit.alpha:.3f} vs {target:.3f}")
    _announce(4, "decay exponent", "; ".join(details))


def test_criterion_05_spectrum():
    """Eigen-residuals <= 1e-4 for |beta| <= 4 (m = 2, N = 1), exact adjoint
    eigenrelations for |beta| <= 8, and <psi_0, psi*_0> = 1 within 1e-6."""
    grid = make_grid(1, 32.0, 256)
    worst = 0.0
    for order in range(5):
        beta = MultiIndex((order,))
        psi = eigenfunction(beta, 2, grid)
        lam = float(eigenvalue(beta, 2))
        assert lam == -order / 4.0
        resid = l2_norm(Field(grid, apply_L(psi, 2).values - lam * psi.values)) / l2_norm(psi)
        worst = max(worst, resid)
        assert resid <= 1e-4, (order, resid)
    for order in range(9):
        beta = MultiIndex((order,))
        raw = adjoint_eigenpolynomial(beta, 2, normalized=False)
        assert apply_L_star(raw, 2) == raw.scaled(eigenvalue(beta, 2))
    _, gram = biorthogonality_matrix(0, 2, grid)
    assert abs(gram[0, 0] - 1.0) <= 1e-6
    _announce(5, "spectrum", f"worst eigen-residual {worst:.2e}, symbolic exact, <psi0,psi0*>={gram[0,0]:.8f}")


def test_criterion_06_degeneracy_off_equivalence():
    """n = 0 trajectory within 1e-6 of the exact multiplier at t = 0.5, < 30 s."""
    start = time.perf_counter()
    config = SolverConfig(
        m=2, path=RegPath(RATIONAL, 0.0, "simple"), eps=1e-3, dt_init=2e-5,
        t_final=0.5, report_stride=10**9,
    )
    trajectory = solve(U0, config)
    elapsed = time.perf_counter() - start
    exact = phe_solve(U0, 2, 0.5)
    gap = l2_norm(Field(GRID, trajectory.snapshots[-1].values - exact.values)) / l2_norm(exact)
    assert gap <= 1e-6
    assert elapsed < 30.0
    _announce(6, "degeneracy-off equivalence", f"rel gap {gap:.2e} in {elapsed:.1f}s")


def test_criterion_07_conservation_and_dissipation():
    """Mass drift <= 1e-10 relative and dissipation-identity residual <= 1e-4
    relative on the m = 2, rational f, n = 0.2, eps = 1e-3 scenario."""
    config = SolverConfig(
        m=2, path=RegPath(RATIONAL, 0.2, "full"), eps=1e-3, dt_init=5e-5,
        t_final=0.2, dealias=False, report_stride=100,
    )
    trajectory = solve(U0, config)
    first, last = trajectory.reports[0], trajectory.reports[-1]
    drift = abs(last.mass - first.mass) / abs(first.mass)
    residual = abs(last.dissipation_residual) / first.bf_energy
    bf = [r.bf_energy for r in trajectory.reports]
    assert drift <= 1e-10
    assert residual <= 1e-4
    assert all(b2 <= b1 + 1e-8 for b1, b2 in zip(bf, bf[1:]))
    _announce(7, "conservation and dissipation", f"mass drift {drift:.1e}, residual {residual:.2e}")


def test_criterion_08_homotopy_convergence(acceptance_sweep):
    """l2 gaps strictly decrease along n in {1e-1, 3e-2, 1e-2, 3e-3}, < 10 min."""
    table, elapsed = acceptance_sweep
    rows = [r for r in table.rows if r.status == "ok"]
    assert len(rows) == 4
    gaps = [r.l2_gap for r in rows]
    assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps
    assert elapsed < 600.0
    _announce(8, "homotopy convergence", f"gaps {['%.2e' % g for g in gaps]} in {elapsed:.0f}s")


def test_criterion_09_branching_rate(acceptance_sweep):
    """Remainder ratios decrease, the ablated control stays above 0.5 ||phi||,
    and the fitted slope lies in [0.7, 1.3]."""
    table, _ = acceptance_sweep
    assert table.phi.clamped_fraction <= 0.2
    rows = [r for r in table.rows if r.status == "ok"]
    ratios = [r.correction_gap / r.n for r in rows]
    assert all(a > b for a, b in zip(ratios, ratios[1:])), ratios
    phi = correction_phi(U0, 2, RATIONAL, 0.1, time_nodes=641, clamp_floor=1e-14)
    phi_norm = l2_norm(Field(GRID, phi.values))
    for row in rows:
        assert row.l2_gap / row.n >= 0.5 * phi_norm, row
    assert 0.7 <= table.slope <= 1.3
    _announce(
        9,
        "branching rate",
        f"sign {table.phi.sign:+d}, clamped {table.phi.clamped_fraction:.3f}, "
        f"slope {table.slope:.2f}, ratios {['%.2e' % r for r in ratios]}",
    )


def test_criterion_10_oscillation_and_eventual_positivity(tmp_path):
    """A nonnegative bump goes negative by t <= 0.05 and is positive on
    K = [-1, 1] for every sampled t past a finite T reported in the manifest."""
    config = {
        "grid": {"dim": 1, "half_width": 20.0, "points_per_dim": 1024},
        "degeneracy": {"kind": "rational", "n": 0.01},
        "u0": {"type": "bump", "amplitude": 1.0, "width": 0.8, "steepness": 6.0},
        "solver": {
            "m": 2, "eps": 4.5e-5, "variant": "simple", "dt_init": 5e-5,
            "t_final": 0.1, "dealias": False, "report_stride": 1000,
            "snapshot_times": [0.002, 0.005, 0.01, 0.02, 0.03, 0.05, 0.075],
        },
    }
    cfg_path = tmp_path / "osc.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "osc-run"
    assert cli_main(["solve", "--config", str(cfg_path), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    highlights = manifest["highlights"]

    early = read_phf1(out / "u_t0.002000.phf1")
    assert 0.0 < early.time_tag <= 0.05
    assert float(np.min(early.values)) < 0.0
    T = highlights["eventual_positivity_T"]
    assert math.isfinite(T) and highlights["positive_after_T"]
    _announce(10, "oscillation and eventual positivity",
              f"min(u(0.002)) = {float(np.min(early.values)):.2e}, T = {T}")


def test_criterion_11_path_dependence_report():
    """Full vs simple regularization limits compared and reported at n = 1e-2."""
    rep = path_dependence_report(U0, 2, RATIONAL, 1e-2, 1e-3, 0.1, dt_init=5e-5)
    assert math.isfinite(rep.gap_l2) and math.isfinite(rep.floor_l2)
    assert rep.floor_l2 > 0.0
    _announce(
        11,
        "path-dependence report",
        f"gap {rep.gap_l2:.3e} vs floor {rep.floor_l2:.3e} "
        f"({'within' if rep.within_10x_floor else 'exceeds'} 10x floor; gap reported)",
    )


def test_criterion_12_sweep_determinism(tmp_path):
    """Two identical sweep invocations emit bitwise-identical CSV outputs."""
    config = {
        "grid": {"dim": 1, "half_width": 24.0, "points_per_dim": 256},
        "degeneracy": {"kind": "rational", "n": 0.1},
        "schedule": {"kind": "eps_of_n", "c": 1.0},
        "u0": {"type": "bump", "amplitude": 1.0, "width": 4.0, "steepness": 6.0},
        "sweep": {
            "t_eval": 0.1, "n_values": [0.1, 0.01], "dt_init": 1e-4,
            "clamp_floor": 1e-14, "time_nodes": 21,
        },
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert cli_main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        outs.append(out)
    for name in ("table.csv", "plotdata.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    _announce(12, "sweep determinism", "table.csv and plotdata.csv bitwise identical")
