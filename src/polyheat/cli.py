"""Command-line front door: configuration, orchestration, and reporting.

    polyheat <command> --config <file> [--out <dir>] [--seed <s>]

Commands: kernel (profile tabulation + decay fit), spectrum (eigenpair and
biorthogonality checks), solve (one regularized run with energy monitoring),
sweep (homotopy convergence study), branch (sweep plus first-order-correction
analysis), report (digest of run manifests).

Configs are strict JSON: unknown keys are rejected with their field path so
a typo cannot silently corrupt a convergence study.  The ``RunConfig``
constructor builds each block once, after the output directory and seed are
resolved; the block constructors own the invariants, and the run uses what
they built.  Every run writes its artifacts plus a manifest (config echo,
artifact checksums, timing, outcome).  Exit codes: 0 ok; 1 the run failed
(the manifest says why); 2 bad config or output directory (no manifest).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field, fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from ._validate import require_int, require_real
from .degeneracy import DegeneracyFunction, RegPath
from .gridfield import DecayAssertionError, Field, GridSpec, bump, l2_norm, random_bumps, write_phf1
from .homotopy import (
    Schedule,
    SweepSpec,
    sweep,
    write_plot_data,
    write_summary_json,
    write_table_csv,
)
from .kernel import (
    profile_bessel,
    profile_quadrature,
    with_decay_fit,
    write_profile_csv,
)
from .solver import (
    SolverConfig,
    _validate_initial,
    eventual_positivity,
    interface_report,
    solve,
    write_energy_csv,
)
from .spectral_theory import (
    adjoint_eigenpolynomial,
    apply_L,
    apply_L_star,
    biorthogonality_matrix,
    eigenfunction,
    eigenvalue,
    multi_indices_up_to,
)

__all__ = ["RunConfig", "RunManifest", "ConfigError", "parse_config", "run", "report", "main"]

class ConfigError(ValueError):
    """Malformed or invalid run configuration; message carries the field path."""


@dataclass(frozen=True)
class RunConfig:
    command: str
    blocks: dict
    out_dir: str = "polyheat-out"
    seed: int = 0
    built: dict = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        require_int("seed", self.seed, lo=0)
        if not isinstance(self.out_dir, str):
            raise TypeError(f"out_dir must be a string, got {self.out_dir!r}")
        object.__setattr__(self, "built", _build(self))


@dataclass(frozen=True)
class RunManifest:
    command: str
    config: dict
    artifacts: tuple
    elapsed_seconds: float
    outcome: str
    reason: str | None
    tool_version: str
    highlights: dict


# ---------------------------------------------------------------------------
# strict config validation

_BLOCK_KEYS = {
    "grid": {"dim", "half_width", "points_per_dim"},
    "degeneracy": {"kind", "params", "n"},
    "u0": {"type", "amplitude", "width", "center", "steepness", "count"},
    # SolverConfig's own settable fields, with the path's variant in place of the path
    "solver": {f.name for f in fields(SolverConfig) if f.init} - {"path"} | {"variant"},
    "schedule": {"kind", "c"},
    # SweepSpec's own settable fields but the schedule, which has its own block
    "sweep": {f.name for f in fields(SweepSpec) if f.init} - {"schedule"},
    "kernel": {"m", "dim", "r_max", "dr"},
    "spectrum": {"m", "max_order"},
}
_BLOCK_KEYS["branch"] = _BLOCK_KEYS["sweep"]  # both build a SweepSpec


def _check_keys(block_name: str, block: dict) -> None:
    if not isinstance(block, dict):
        raise ConfigError("the block must be an object")
    for key in block:
        if key not in _BLOCK_KEYS[block_name]:
            raise ConfigError(f"unknown key {key!r}")


def parse_config(text: str, command: str | None = None,
                 out_dir: str | None = None, seed: int | None = None) -> RunConfig:
    """Parse and validate a JSON run configuration.

    ``command``, ``out_dir`` and ``seed``, when given, replace the config's
    own values.  Unknown keys anywhere are rejected, and the ``RunConfig``
    constructor then builds the blocks the command needs once, so every
    invariant is checked by the constructor that owns it, on the objects
    that run, and a failure names its block instead of surfacing in a run.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not well-formed JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")

    top_allowed = {"command", "out_dir", "seed"} | set(_BLOCK_KEYS)
    for key in raw:
        if key not in top_allowed:
            raise ConfigError(f"unknown key {key!r} at top level")

    cmd = raw.get("command", command)
    if cmd is None:
        raise ConfigError("no command given (config 'command' or CLI subcommand)")
    if command is not None and "command" in raw and raw["command"] != command:
        raise ConfigError(f"config command {raw['command']!r} conflicts with CLI command {command!r}")
    if cmd not in _DISPATCH:
        raise ConfigError(f"unknown command {cmd!r}; choose from {tuple(_DISPATCH)}")

    try:
        return RunConfig(
            command=cmd,
            blocks={k: v for k, v in raw.items() if k in _BLOCK_KEYS},
            out_dir=out_dir or raw.get("out_dir", "polyheat-out"),
            seed=raw.get("seed", 0) if seed is None else seed,
        )
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err)) from err


# ---------------------------------------------------------------------------
# block builders: one per block, run once by the RunConfig constructor


def _build(config: RunConfig) -> dict:
    """Build the library objects of the blocks the command needs, keyed by
    block name; a missing block, an unknown key, or a ValueError, TypeError,
    KeyError or OverflowError (from an absurd magnitude) raised while
    building becomes a ConfigError naming the block."""
    built = {}

    def build(name, builder, *args):
        if name not in config.blocks:
            raise ConfigError(f"command {config.command!r} requires a {name!r} block")
        try:
            _check_keys(name, config.blocks[name])
            built[name] = builder(config.blocks[name], *args)
        except KeyError as err:
            raise ConfigError(f"{name}: missing key {err}") from err
        except (ValueError, TypeError, OverflowError) as err:
            raise ConfigError(f"{name}: {err}") from err
        return built[name]

    if config.command == "kernel":
        build("kernel", _kernel_from_block)
        return built
    grid = build("grid", lambda b: GridSpec(b["dim"], b["half_width"], b["points_per_dim"]))
    if config.command == "spectrum":
        build("spectrum", _spectrum_from_block, grid)
        return built
    path = build("degeneracy", _path_from_block, config.command == "solve")
    if config.command == "solve":
        build("solver", _solver_from_block, path)
    else:
        schedule = build("schedule", lambda b: Schedule(b["kind"], b["c"], path.f))
        build(config.command, lambda b: SweepSpec(schedule, **{"m": 2, **b}))
    build("u0", _u0_from_block, grid, config.seed)
    return built


def _kernel_from_block(block: dict) -> tuple:
    """(m, dim, r_max, dr), with m and dim checked by the quadrature that
    tabulates them; the run lays out the radii."""
    require_real("r_max", block["r_max"], "positive")
    require_real("dr", block["dr"], "positive")
    profile_quadrature(block["m"], block["dim"])
    return block["m"], block["dim"], block["r_max"], block["dr"]


def _spectrum_from_block(block: dict, grid: GridSpec) -> tuple:
    """(m, max_order, Gram matrix).  The Gram matrix checks m and max_order
    and carries the product boundary guard, so a max_order the box cannot
    resolve is a config error."""
    m, max_order = block["m"], block["max_order"]
    try:
        _, gram = biorthogonality_matrix(max_order, m, grid)
    except DecayAssertionError as err:
        raise ValueError(
            f"max_order {max_order} needs products psi_beta psi*_gamma that decay in the box: {err}"
        ) from err
    return m, max_order, gram


def _path_from_block(block: dict, needs_n: bool) -> RegPath:
    """The nonlinearity with its exponent n (required only where a run uses it)."""
    f = DegeneracyFunction(block["kind"], block.get("params", {}))
    return RegPath(f, block["n"] if needs_n else block.get("n", 0.0))


def _solver_from_block(block: dict, path: RegPath) -> SolverConfig:
    fields = dict(block)  # every key but variant is a SolverConfig field
    return SolverConfig(path=replace(path, variant=fields.pop("variant", "full")), **fields)


def _u0_from_block(block: dict, grid: GridSpec, seed: int) -> Field:
    """The initial field from ``bump`` or ``random_bumps``, which take every
    key but ``type`` and check them, held to the solver's initial-data
    preconditions here so that a violation is a config error, not a failed run."""
    kwargs = dict(block)
    kind = kwargs.pop("type", "bump")
    if kind == "bump":
        u0 = bump(grid, **{"width": 4.0, "steepness": 6.0, **kwargs})
    elif kind == "random_bumps":
        u0 = random_bumps(grid, seed, **kwargs)
    else:
        raise ValueError(f"type must be 'bump' or 'random_bumps', got {kind!r}")
    _validate_initial(u0)
    return u0


# ---------------------------------------------------------------------------
# command implementations (each takes the built blocks and returns
# (artifact names, highlights))


def _cmd_kernel(built: dict, out: Path):
    m, dim, r_max, dr = built["kernel"]
    profile = profile_bessel(m, dim, np.arange(0.0, r_max + 0.5 * dr, dr))
    highlights = {"m": m, "dim": dim}
    try:
        profile = with_decay_fit(profile)
        fit = profile.decay_fit
        highlights["decay_fit"] = {"C": fit.C, "a": fit.a, "alpha": fit.alpha}
        highlights["alpha_target"] = 2 * m / (2 * m - 1)
    except ValueError as err:
        highlights["decay_fit"] = f"skipped: {err}"
    name = f"profile_m{m}_N{dim}.csv"
    write_profile_csv(out / name, profile)
    return [name], highlights


def _cmd_spectrum(built: dict, out: Path):
    grid = built["grid"]
    m, max_order, gram = built["spectrum"]
    betas = multi_indices_up_to(grid.dim, max_order)
    rows = ["beta,lambda,rel_residual"]
    worst = 0.0
    for beta in betas:
        psi = eigenfunction(beta, m, grid)
        lam = float(eigenvalue(beta, m))
        resid = l2_norm(Field(grid, apply_L(psi, m).values - lam * psi.values)) / l2_norm(psi)
        worst = max(worst, resid)
        rows.append(f"{'|'.join(map(str, beta.entries))},{lam!r},{resid!r}")
    with open(out / "eigen_residuals.csv", "w") as fh:
        fh.write("\n".join(rows) + "\n")

    np.savetxt(out / "gram.csv", gram, delimiter=",")
    off_diag = float(np.max(np.abs(gram - np.diag(np.diag(gram))))) if gram.size > 1 else 0.0

    symbolic = {}
    for beta in multi_indices_up_to(grid.dim, 8):
        raw = adjoint_eigenpolynomial(beta, m, normalized=False)
        lam = Fraction(-beta.order, 2 * m)
        symbolic["|".join(map(str, beta.entries))] = apply_L_star(raw, m) == raw.scaled(lam)
    with open(out / "adjoint_check.json", "w") as fh:
        json.dump(symbolic, fh, indent=2, sort_keys=True)
        fh.write("\n")

    highlights = {
        "worst_eigen_residual": worst,
        "gram_off_diagonal_max": off_diag,
        "adjoint_exact_all": all(symbolic.values()),
    }
    return ["eigen_residuals.csv", "gram.csv", "adjoint_check.json"], highlights


def _cmd_solve(built: dict, out: Path):
    trajectory = solve(built["u0"], built["solver"])

    artifacts = []
    for snap in trajectory.snapshots:
        name = f"u_t{snap.time_tag:.6f}.phf1"
        write_phf1(out / name, snap)
        artifacts.append(name)
    write_energy_csv(out / "energy.csv", trajectory.reports)
    artifacts.append("energy.csv")

    first, last = trajectory.reports[0], trajectory.reports[-1]
    iface = interface_report(trajectory.snapshots[-1])
    t_positive, positive_after = eventual_positivity(trajectory.snapshots)
    highlights = {
        "run_id": trajectory.run_id,
        "mass_drift": abs(last.mass - first.mass) / max(abs(first.mass), 1e-300),
        "bf_initial": first.bf_energy,
        "bf_final": last.bf_energy,
        "dissipation_residual_rel": abs(last.dissipation_residual) / max(first.bf_energy, 1e-300),
        "sign_changes_final": iface.sign_change_count,
        "positivity_on_region": iface.positivity_on_region,
        "eventual_positivity_T": t_positive,
        "positive_after_T": positive_after,
        "min_attained": min(float(np.min(s.values)) for s in trajectory.snapshots),
    }
    return artifacts, highlights


def _sweep_common(built: dict, out: Path, block_name: str):
    table = sweep(built["u0"], built[block_name])
    write_table_csv(out / "table.csv", table)
    write_summary_json(out / "summary.json", table)
    write_plot_data(out / "plotdata.csv", table)
    return table, ["table.csv", "summary.json", "plotdata.csv"]


def _cmd_sweep(built: dict, out: Path):
    table, artifacts = _sweep_common(built, out, "sweep")
    highlights = {
        "slope": table.slope,
        "slope_ci": list(table.slope_ci),
        "sign_of_phi": table.phi.sign,
        "clamped_fraction": table.phi.clamped_fraction,
        "rows_ok": sum(1 for r in table.rows if r.status == "ok"),
    }
    return artifacts, highlights


def _cmd_branch(built: dict, out: Path):
    table, artifacts = _sweep_common(built, out, "branch")
    phi = Field(table.phi.grid, table.phi.values, table.phi.t)
    write_phf1(out / "phi.phf1", phi)
    artifacts = artifacts + ["phi.phf1", "branch.csv"]

    rows = ["n,eps,linear_gap,remainder_ratio,ablated_ratio"]
    phi_norm = l2_norm(phi)
    for r in table.rows:
        if r.status != "ok" or r.n <= 0:
            continue
        ablated = r.l2_gap / r.n
        rows.append(f"{r.n!r},{r.eps!r},{r.correction_gap!r},{r.correction_gap / r.n!r},{ablated!r}")
    with open(out / "branch.csv", "w") as fh:
        fh.write("\n".join(rows) + "\n")

    ratios = [r.correction_gap / r.n for r in table.rows if r.status == "ok" and r.n > 0]
    highlights = {
        "sign_of_phi": table.phi.sign,
        "clamped_fraction": table.phi.clamped_fraction,
        "phi_l2": phi_norm,
        "remainder_ratios": ratios,
        "remainder_decreasing": all(a > b for a, b in zip(ratios, ratios[1:])),
        "slope": table.slope,
    }
    return artifacts, highlights


_DISPATCH = {
    "kernel": _cmd_kernel,
    "spectrum": _cmd_spectrum,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "branch": _cmd_branch,
}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


_TRACEBACK_FRAMES = 3


def _failure_reason(err: Exception) -> str:
    """``Type: message``, then the innermost frames of the error's traceback."""
    lines = traceback.format_exception(err, limit=-_TRACEBACK_FRAMES, chain=False)
    frames = "".join(line for line in lines if line.startswith("  File "))
    return f"{type(err).__name__}: {err}\n{frames}".rstrip()


def run(config: RunConfig) -> RunManifest:
    """Execute a config: dispatch its built blocks, write artifacts, write manifest.

    Module errors become a failed outcome (and later a nonzero exit code)
    rather than a traceback on the terminal; the manifest always lands on
    disk, its reason carrying the error and its innermost frames.
    """
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    try:
        names, highlights = _DISPATCH[config.command](config.built, out)
        outcome, reason = "ok", None
    except Exception as err:  # noqa: BLE001 - the manifest carries the reason
        names, highlights = [], {}
        outcome, reason = "failed", _failure_reason(err)
    elapsed = time.perf_counter() - start

    artifacts = tuple(
        {"name": n, "sha256": _sha256(out / n), "bytes": (out / n).stat().st_size} for n in names
    )
    manifest = RunManifest(
        command=config.command,
        config={"blocks": config.blocks, "seed": config.seed},
        artifacts=artifacts,
        elapsed_seconds=elapsed,
        outcome=outcome,
        reason=reason,
        tool_version=__version__,
        highlights=highlights,
    )
    with open(out / "manifest.json", "w") as fh:
        json.dump(asdict(manifest), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def report(manifest_paths) -> str:
    """Human-readable digest of a list of manifest files."""
    if not manifest_paths:
        return "no runs"
    lines = []
    ok = failed = unreadable = 0
    for p in manifest_paths:
        try:
            data = json.loads(Path(p).read_text())
            if not isinstance(data, dict) or not isinstance(data.get("highlights", {}), dict):
                raise ValueError("not a manifest object")
            outcome = data["outcome"]
        except (OSError, ValueError, KeyError):
            unreadable += 1
            lines.append(f"{p}: unreadable manifest")
            continue
        if outcome == "ok":
            ok += 1
        else:
            failed += 1
        extras = []
        h = data.get("highlights", {})
        for key in ("slope", "sign_of_phi", "clamped_fraction", "worst_eigen_residual",
                    "mass_drift", "dissipation_residual_rel", "remainder_decreasing",
                    "positivity_on_region", "decay_fit"):
            if key in h:
                extras.append(f"{key}={h[key]}")
        detail = f" [{', '.join(extras)}]" if extras else ""
        headline = str(data.get("reason")).partition("\n")[0]  # the traceback tail stays in the manifest
        why = f" ({headline})" if outcome != "ok" else ""
        lines.append(f"{p}: {data.get('command')} {outcome}{why}{detail}")
    total = ok + failed
    header = f"{ok}/{total} runs ok" + (f", {unreadable} unreadable" if unreadable else "")
    return "\n".join([header] + lines)


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="polyheat",
        description="Numerical laboratory for degenerate high-order diffusion "
        "and the polyharmonic heat kernel.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in _DISPATCH:
        p = sub.add_parser(cmd, help=f"run the {cmd} pipeline from a JSON config")
        p.add_argument("--config", required=True, help="path to the JSON run configuration")
        p.add_argument("--out", default=os.environ.get("POLYHEAT_OUT"), help="output directory "
                       "(default: POLYHEAT_OUT, then config out_dir, then ./polyheat-out)")
        p.add_argument("--seed", type=int, default=None, help="seed for randomized test fields (default 0)")
    rp = sub.add_parser("report", help="summarize run manifests")
    rp.add_argument("manifests", nargs="*", help="manifest.json files to digest")

    args = parser.parse_args(argv)
    if args.command == "report":
        print(report(args.manifests))
        return 0

    try:
        config = parse_config(Path(args.config).read_text(), args.command, args.out, args.seed)
    except OSError as err:
        print(f"error: cannot read config: {err}", file=sys.stderr)
        return 2
    except ValueError as err:  # a ConfigError, or an undecodable config file
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        Path(config.out_dir).mkdir(parents=True, exist_ok=True)
    except OSError as err:
        print(f"error: cannot create output directory: {err}", file=sys.stderr)
        return 2
    manifest = run(config)
    if manifest.outcome == "ok":
        print(f"ok: {len(manifest.artifacts)} artifacts in {config.out_dir}")
        return 0
    print(f"failed: {manifest.reason}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
