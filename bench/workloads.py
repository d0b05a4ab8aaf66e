"""The four benchmark workloads, built from the ROADMAP acceptance scenarios.

The three solver workloads run fewer steps than their acceptance tests so
that one repetition takes about a second (see bench/README.md, "Noise").

A workload is built from a seed (its constructor: the set-up that ``setup_s``
covers), runs one repetition (``run``, the only timed call) and then checks
that repetition's outputs against the acceptance tolerance the scenario
comes from (``check``).  ``check`` reads the artifacts back through the
package's public readers; it runs untimed and untraced.

polyheat is reached through module attributes (``solver.solve``, not a name
imported into this file), so the tracer's wrappers, installed on those
attributes after import, see the calls this file makes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import shutil
from pathlib import Path

from polyheat import cli, degeneracy, gridfield, kernel, solver

CANONICAL_SEED = 0

# (m, N) -> r_max of the criterion-1 tabulations, sampled at dr = 0.02
KERNEL_CASES = {(1, 1): 12.0, (2, 1): 36.0, (3, 1): 68.0, (2, 2): 36.0}


def bump_params(seed: int, dim: int):
    """Amplitude and centre of the initial bump (width 4, steepness 6).

    The canonical seed gives the centred unit bump of the acceptance tests;
    other seeds perturb the amplitude by up to 5% and move the centre by up
    to half a unit per axis, far inside the |x| <= L/2 support limit.
    """
    if seed == CANONICAL_SEED:
        return 1.0, [0.0] * dim
    rng = random.Random(seed)
    amplitude = rng.uniform(0.95, 1.05)
    center = [rng.uniform(-0.5, 0.5) for _ in range(dim)]
    return amplitude, center


def _u0_block(seed: int, dim: int) -> dict:
    amplitude, center = bump_params(seed, dim)
    return {"type": "bump", "amplitude": amplitude, "width": 4.0, "center": center, "steepness": 6.0}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    """Base: an output directory emptied before every repetition.

    ``layers`` names the traced layers a repetition must call; every other
    layer must see no call, or the trace has gone blind or leaked.
    ``probe`` names the parts of the speed probe that follow this
    workload's speed (see probes.py).
    """

    name = ""
    layers = frozenset()
    probe = ("fft",)

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = Path(out)

    def reset(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self._prepare_files()

    def _prepare_files(self) -> None:
        pass

    def run(self) -> None:
        raise NotImplementedError

    def check(self):
        """Return (err_rel, {gate name: passed})."""
        raise NotImplementedError


class _CliWorkload(Workload):
    """A workload driven through ``polyheat <command> --config``."""

    command = ""

    def __init__(self, seed: int, out: Path):
        super().__init__(seed, out)
        self.configs = self.make_configs()
        # strict validation happens now, as part of set-up
        for text in self.configs.values():
            cli.parse_config(text, command=self.command)
        self.exit_codes = {}

    def make_configs(self) -> dict:
        raise NotImplementedError

    def _prepare_files(self) -> None:
        for tag, text in self.configs.items():
            (self.out / f"{tag}.json").write_text(text)

    def run(self) -> None:
        for tag in self.configs:
            self.exit_codes[tag] = cli.main(
                [self.command, "--config", str(self.out / f"{tag}.json"), "--out", str(self.out / tag)]
            )

    def _manifest(self, tag: str):
        """The run's manifest plus the gates every CLI run must pass."""
        run_dir = self.out / tag
        manifest = json.loads((run_dir / "manifest.json").read_text())
        gates = {
            f"{tag}: exit code 0": self.exit_codes.get(tag) == 0,
            f"{tag}: outcome ok": manifest["outcome"] == "ok",
            f"{tag}: artifact checksums": all(
                _sha256(run_dir / a["name"]) == a["sha256"] for a in manifest["artifacts"]
            ),
        }
        return manifest, gates


class Solve1DLinear(Workload):
    """Criterion 6 (n = 0 against the exact polyharmonic flow) to t = 0.05.

    The acceptance test runs to t = 0.5; a tenth of the horizon (2 500 steps
    of the same cost) keeps a repetition under a second.
    """

    name = "solve_1d_linear"
    layers = frozenset({"gridfield.fft", "gridfield.guard", "degeneracy.coef", "solver.solve"})
    t_final = 0.05

    def __init__(self, seed: int, out: Path):
        super().__init__(seed, out)
        amplitude, center = bump_params(seed, 1)
        self.grid = gridfield.make_grid(1, 24.0, 256)
        self.u0 = gridfield.bump(self.grid, amplitude, 4.0, center=center, steepness=6.0)
        self.config = solver.SolverConfig(
            m=2,
            path=degeneracy.RegPath(degeneracy.degeneracy_function("rational"), 0.0, "simple"),
            eps=1e-3,
            dt_init=2e-5,
            t_final=self.t_final,
            report_stride=10**9,
        )
        self.trajectory = None

    def run(self) -> None:
        self.trajectory = solver.solve(self.u0, self.config)

    def check(self):
        final = self.trajectory.snapshots[-1]
        exact = kernel.phe_solve(self.u0, 2, self.t_final)
        gap = gridfield.Field(self.grid, final.values - exact.values)
        err = gridfield.l2_norm(gap) / gridfield.l2_norm(exact)
        return err, {
            "final time is t_final": final.time_tag == self.t_final,
            "relative L2 gap to phe_solve <= 1e-6": err <= 1e-6,
        }


class Solve2D(_CliWorkload):
    """Criterion-7 physics on a 2-D 256^2 grid through ``polyheat solve``: 40 steps."""

    name = "solve_2d"
    command = "solve"
    layers = frozenset(
        {"gridfield.fft", "gridfield.guard", "gridfield.phf1", "degeneracy.coef", "solver.solve", "cli.run"}
    )
    t_final = 0.002
    snapshot_times = [0.0005, 0.001, 0.0015]

    def make_configs(self) -> dict:
        config = {
            "grid": {"dim": 2, "half_width": 24.0, "points_per_dim": 256},
            "degeneracy": {"kind": "rational", "n": 0.2},
            "u0": _u0_block(self.seed, 2),
            "solver": {
                "m": 2, "eps": 1e-3, "variant": "full", "dt_init": 5e-5,
                "t_final": self.t_final, "dealias": False, "report_stride": 1,
                "snapshot_times": self.snapshot_times,
            },
        }
        return {"solve": json.dumps(config)}

    def check(self):
        manifest, gates = self._manifest("solve")
        run_dir = self.out / "solve"
        names = [a["name"] for a in manifest["artifacts"]]
        snaps = [gridfield.read_phf1(run_dir / n) for n in names if n.endswith(".phf1")]
        targets = [0.0] + self.snapshot_times + [self.t_final]
        # time tags accumulate t += dt, so they land on the targets to round-off
        gates["snapshots at 0, the requested times and t_final"] = len(snaps) == len(targets) and all(
            abs(s.time_tag - t) <= 1e-12 for s, t in zip(snaps, targets)
        )
        mass = [gridfield.integrate(s) for s in snaps]
        drift = max(abs(m - mass[0]) for m in mass) / abs(mass[0])
        gates["PHF1 mass drift <= 1e-10"] = drift <= 1e-10

        # energy.csv is not read: under numpy 2 some of its cells are written
        # as "np.float64(...)" reprs, which no CSV reader parses.
        highlights = manifest["highlights"]
        err = highlights["dissipation_residual_rel"]
        gates["manifest mass drift <= 1e-10"] = highlights["mass_drift"] <= 1e-10
        gates["dissipation residual <= 1e-4"] = err <= 1e-4
        return err, gates


class BranchSweep(_CliWorkload):
    """Criteria 8 and 9: the 4-row homotopy sweep through ``polyheat branch``.

    dt_init is 1e-4 instead of the acceptance test's 2e-5 (1 000 steps per
    row instead of 5 000); every criterion-8/9 gate still holds.
    """

    name = "branch_sweep"
    command = "branch"
    layers = frozenset(
        {
            "gridfield.fft", "gridfield.guard", "gridfield.phf1", "degeneracy.coef", "solver.solve",
            "homotopy.sweep", "homotopy.correction_phi", "homotopy.linear_trajectory",
            "kernel.phe_solve", "cli.run",
        }
    )
    n_values = [1e-1, 3e-2, 1e-2, 3e-3]

    def make_configs(self) -> dict:
        config = {
            "grid": {"dim": 1, "half_width": 24.0, "points_per_dim": 256},
            "degeneracy": {"kind": "rational", "n": 0.1},
            "schedule": {"kind": "eps_of_n", "c": 1.0},
            "u0": _u0_block(self.seed, 1),
            "branch": {
                "t_eval": 0.1, "n_values": self.n_values, "dt_init": 1e-4,
                "dealias": False, "time_nodes": 641, "clamp_floor": 1e-14,
            },
        }
        return {"branch": json.dumps(config)}

    def check(self):
        manifest, gates = self._manifest("branch")
        run_dir = self.out / "branch"
        with open(run_dir / "table.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        gates["4 rows, all ok"] = len(rows) == 4 and all(r["status"] == "ok" for r in rows)
        ns = [float(r["n"]) for r in rows]
        gaps = [float(r["l2_gap"]) for r in rows]
        ratios = [float(r["correction_gap"]) / n for r, n in zip(rows, ns)]
        gates["rows ordered by decreasing n"] = ns == sorted(self.n_values, reverse=True)
        gates["L2 gaps strictly decrease"] = all(a > b for a, b in zip(gaps, gaps[1:]))
        gates["remainder ratios strictly decrease"] = all(a > b for a, b in zip(ratios, ratios[1:]))

        phi = gridfield.read_phf1(run_dir / "phi.phf1")
        phi_norm = gridfield.l2_norm(phi)
        gates["ablated ratio >= 0.5 ||phi||"] = all(g / n >= 0.5 * phi_norm for g, n in zip(gaps, ns))
        summary = json.loads((run_dir / "summary.json").read_text())
        gates["slope in [0.7, 1.3]"] = 0.7 <= summary["slope"] <= 1.3
        gates["clamped fraction <= 0.2"] = summary["clamped_fraction"] <= 0.2
        return ratios[-1], gates


class KernelTables(_CliWorkload):
    """Criteria 1 and 4: the four kernel tabulations through ``polyheat kernel``.

    The seed is ignored: the tabulations take no initial data.
    """

    name = "kernel_tables"
    command = "kernel"
    layers = frozenset({"bessel.besselj", "kernel.profile_bessel", "kernel.decay_fit", "cli.run"})
    probe = ("fft", "elementwise")

    def make_configs(self) -> dict:
        return {
            f"m{m}_N{dim}": json.dumps({"kernel": {"m": m, "dim": dim, "r_max": r_max, "dr": 0.02}})
            for (m, dim), r_max in KERNEL_CASES.items()
        }

    def check(self):
        worst = 0.0
        gates = {}
        for (m, dim) in KERNEL_CASES:
            tag = f"m{m}_N{dim}"
            _, run_gates = self._manifest(tag)
            gates.update(run_gates)
            profile = kernel.read_profile_csv(self.out / tag / f"profile_m{m}_N{dim}.csv")
            worst = max(worst, abs(kernel.radial_integral(profile) - 1.0))
            target = 2 * m / (2 * m - 1)
            fit = profile.decay_fit
            gates[f"{tag}: alpha within 5% of 2m/(2m-1)"] = (
                fit is not None and abs(fit.alpha - target) <= 0.05 * target
            )
        gates["worst |integral F - 1| <= 1e-6"] = worst <= 1e-6
        return worst, gates


WORKLOADS = {w.name: w for w in (Solve1DLinear, Solve2D, BranchSweep, KernelTables)}

