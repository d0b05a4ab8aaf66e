"""Config validation, command dispatch, manifests, and the report digest."""

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyheat import cli, spectral_theory
from polyheat.cli import ConfigError, main, parse_config, report, run
from polyheat.degeneracy import DegeneracyFunction, RegPath
from polyheat.gridfield import GridSpec, bump, random_bumps, read_phf1
from polyheat.homotopy import Schedule, SweepSpec, sweep
from polyheat.kernel import KernelProfile, QuadratureSpec
from polyheat.solver import SolverConfig

MINIMAL_SOLVE = {
    "grid": {"dim": 1, "half_width": 24.0, "points_per_dim": 256},
    "degeneracy": {"kind": "rational", "n": 0.1},
    "u0": {"type": "bump", "amplitude": 1.0, "width": 4.0, "steepness": 6.0},
    "solver": {
        "m": 2, "eps": 1e-3, "variant": "full", "dt_init": 1e-4,
        "t_final": 0.005, "report_stride": 20,
    },
}

SWEEP_CONFIG = {
    "grid": {"dim": 1, "half_width": 24.0, "points_per_dim": 256},
    "degeneracy": {"kind": "rational", "n": 0.1},
    "schedule": {"kind": "eps_of_n", "c": 1.0},
    "u0": {"type": "bump", "amplitude": 1.0, "width": 4.0, "steepness": 6.0},
    "sweep": {
        "t_eval": 0.1, "n_values": [0.1, 0.01], "dt_init": 1e-4,
        "clamp_floor": 1e-14, "time_nodes": 21,
    },
}

MINIMAL_KERNEL = {"kernel": {"m": 2, "dim": 1, "r_max": 28.0, "dr": 0.05}}

MINIMAL_SPECTRUM = {
    "grid": {"dim": 1, "half_width": 44.0, "points_per_dim": 512},
    "spectrum": {"m": 2, "max_order": 2},
}

# one solver step from twelve random bumps on a 2-D grid, where a box of
# centres with half-side L/2 - width would reach past |x| = L/2 at its corners
SEEDED_SOLVE = {
    "grid": {"dim": 2, "half_width": 12.0, "points_per_dim": 512},
    "degeneracy": {"kind": "rational", "n": 0.1},
    "u0": {"type": "random_bumps", "count": 12, "width": 1.0, "steepness": 6.0},
    "solver": {"m": 2, "eps": 1e-3, "dt_init": 1e-4, "t_final": 1e-4},
}

README = Path(__file__).resolve().parents[1] / "README.md"


def _dump(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestParseConfig:
    def test_minimal_solve_valid(self):
        config = parse_config(json.dumps(MINIMAL_SOLVE), command="solve")
        assert config.command == "solve"
        assert config.blocks["solver"]["m"] == 2

    def test_eps_zero_rejected(self):
        bad = json.loads(json.dumps(MINIMAL_SOLVE))
        bad["solver"]["eps"] = 0.0
        with pytest.raises(ConfigError, match=r"eps must lie in \(0, 1\]"):
            parse_config(json.dumps(bad), command="solve")

    def test_unknown_key_named(self):
        bad = json.loads(json.dumps(MINIMAL_SOLVE))
        bad["solver"]["epsilonn"] = 0.5
        with pytest.raises(ConfigError, match="epsilonn"):
            parse_config(json.dumps(bad), command="solve")

    def test_unknown_top_level_key(self):
        bad = dict(MINIMAL_SOLVE, extra_block={})
        with pytest.raises(ConfigError, match="extra_block"):
            parse_config(json.dumps(bad), command="solve")

    def test_malformed_json(self):
        with pytest.raises(ConfigError, match="well-formed JSON"):
            parse_config("{not json", command="solve")

    def test_missing_block(self):
        bad = {k: v for k, v in MINIMAL_SOLVE.items() if k != "degeneracy"}
        with pytest.raises(ConfigError, match="requires a 'degeneracy' block"):
            parse_config(json.dumps(bad), command="solve")

    @pytest.mark.parametrize("command", [[], {}], ids=["list", "object"])
    def test_non_string_command_is_a_config_error(self, command):
        with pytest.raises(ConfigError, match="unknown command"):
            parse_config(json.dumps(dict(MINIMAL_SOLVE, command=command)))

    def test_command_conflict(self):
        cfg = dict(MINIMAL_SOLVE, command="sweep")
        with pytest.raises(ConfigError, match="conflicts"):
            parse_config(json.dumps(cfg), command="solve")

    def test_bad_degeneracy_reported_with_path(self):
        bad = json.loads(json.dumps(MINIMAL_SOLVE))
        bad["degeneracy"] = {"kind": "spline", "n": 0.1,
                             "params": {"knots": [0, 1], "values": [0.0, -0.5]}}
        with pytest.raises(ConfigError, match="degeneracy"):
            parse_config(json.dumps(bad), command="solve")

    def test_readme_examples_parse(self):
        examples = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.DOTALL)
        assert examples
        for text in examples:
            parse_config(text)


class TestRunCommands:
    def test_kernel_artifacts(self, tmp_path):
        config = parse_config(json.dumps({
            "command": "kernel",
            "kernel": {"m": 2, "dim": 1, "r_max": 28.0, "dr": 0.05},
            "out_dir": str(tmp_path / "k"),
        }))
        manifest = run(config)
        assert manifest.outcome == "ok"
        names = [a["name"] for a in manifest.artifacts]
        assert names == ["profile_m2_N1.csv"]
        assert "decay_fit" in manifest.highlights
        data = json.loads((tmp_path / "k" / "manifest.json").read_text())
        assert data["outcome"] == "ok"

    def test_kernel_too_short_for_a_fit_still_writes_the_profile(self, tmp_path):
        # r_max = 4 holds no envelope maximum of the m = 2 profile: the fit
        # is skipped with its reason and the run is ok
        path = _dump(tmp_path, "kernel.json", {"kernel": {"m": 2, "dim": 1, "r_max": 4.0, "dr": 0.1}})
        assert main(["kernel", "--config", str(path), "--out", str(tmp_path / "k")]) == 0
        data = json.loads((tmp_path / "k" / "manifest.json").read_text())
        assert data["outcome"] == "ok"
        assert [a["name"] for a in data["artifacts"]] == ["profile_m2_N1.csv"]
        assert data["highlights"] == {
            "m": 2, "dim": 1, "decay_fit": "skipped: insufficient decay range: only 0 envelope maxima",
        }

    def test_solve_artifacts_and_roundtrip(self, tmp_path):
        config = parse_config(json.dumps(dict(MINIMAL_SOLVE, out_dir=str(tmp_path / "s"))), command="solve")
        manifest = run(config)
        assert manifest.outcome == "ok"
        names = [a["name"] for a in manifest.artifacts]
        assert "energy.csv" in names
        phf = [n for n in names if n.endswith(".phf1")]
        assert len(phf) == 2  # t = 0 and t_final
        # checksums stable on re-read
        for art in manifest.artifacts:
            digest = hashlib.sha256((tmp_path / "s" / art["name"]).read_bytes()).hexdigest()
            assert digest == art["sha256"]
        back = read_phf1(tmp_path / "s" / phf[-1])
        assert back.time_tag == pytest.approx(0.005)

    def test_spectrum_artifacts(self, tmp_path):
        config = parse_config(json.dumps({
            "grid": {"dim": 1, "half_width": 44.0, "points_per_dim": 512},
            "spectrum": {"m": 2, "max_order": 2},
            "out_dir": str(tmp_path / "sp"),
        }), command="spectrum")
        manifest = run(config)
        assert manifest.outcome == "ok"
        assert manifest.highlights["adjoint_exact_all"] is True
        assert manifest.highlights["worst_eigen_residual"] <= 1e-4

    def test_spectrum_builds_each_eigenfunction_once(self, tmp_path, monkeypatch):
        # the residual table reuses the eigenfunctions the Gram matrix paired:
        # four betas up to order 3 in 1-D, so four eigenfunctions, not eight,
        # all taken from one profile
        spectral_theory._profile_hat.cache_clear()
        calls = {"eigenfunction": 0, "profile_fourier": 0}
        for name in calls:
            real = getattr(spectral_theory, name)

            def counting(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(spectral_theory, name, counting)
        path = _dump(tmp_path, "spectrum.json", {
            "grid": {"dim": 1, "half_width": 44.0, "points_per_dim": 1024},
            "spectrum": {"m": 2, "max_order": 3},
        })
        assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "sp")]) == 0
        assert calls == {"eigenfunction": 4, "profile_fourier": 1}

    @pytest.mark.parametrize("max_order,code,files", [
        (2, 2, []),  # the Gram boundary guard fails at config build: no manifest, no artifact
        (0, 0, ["adjoint_check.json", "eigen_residuals.csv", "gram.csv", "manifest.json"]),
    ])
    def test_spectrum_guard_runs_before_artifacts(self, tmp_path, capsys, max_order, code, files):
        # the criterion-5 grid
        path = _dump(tmp_path, "spectrum.json", {
            "grid": {"dim": 1, "half_width": 32.0, "points_per_dim": 256},
            "spectrum": {"m": 2, "max_order": max_order},
        })
        out = tmp_path / "sp"
        assert main(["spectrum", "--config", str(path), "--out", str(out)]) == code
        assert (sorted(p.name for p in out.iterdir()) if out.exists() else []) == files
        if code == 2:
            assert capsys.readouterr().err.startswith("error: spectrum: max_order 2 needs ")

    def test_branch_clamp_failure_exit_code(self, tmp_path):
        cfg = json.loads(json.dumps(SWEEP_CONFIG))
        cfg["branch"] = cfg.pop("sweep")
        cfg["branch"]["clamp_floor"] = 1e-2  # forces clamped fraction > 0.2
        path = _dump(tmp_path, "branch.json", cfg)
        code = main(["branch", "--config", str(path), "--out", str(tmp_path / "b")])
        assert code == 1
        data = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert data["outcome"] == "failed"
        assert "log-singularity dominates" in data["reason"]

    def test_branch_writes_phi_and_ratios(self, tmp_path):
        cfg = json.loads(json.dumps(SWEEP_CONFIG))
        cfg["branch"] = cfg.pop("sweep")
        path = _dump(tmp_path, "branch.json", cfg)
        assert main(["branch", "--config", str(path), "--out", str(tmp_path / "b")]) == 0
        data = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert data["outcome"] == "ok"
        built = parse_config(json.dumps(cfg), command="branch").built
        table = sweep(built["u0"], built["branch"])
        lines = (tmp_path / "b" / "branch.csv").read_text().splitlines()
        assert lines[0] == "n,eps,linear_gap,remainder_ratio,ablated_ratio"
        branched = [r for r in table.rows if r.status == "ok" and r.n > 0]
        assert len(branched) == 2
        assert [line.split(",")[0] for line in lines[1:]] == [repr(r.n) for r in branched]
        phi = read_phf1(tmp_path / "b" / "phi.phf1")
        assert phi.values.tobytes() == table.phi.values.tobytes()
        ratios = [r.correction_gap / r.n for r in branched]
        assert data["highlights"]["remainder_ratios"] == ratios
        assert ratios[0] > ratios[1] and data["highlights"]["remainder_decreasing"] is True

    def test_failed_reason_keeps_traceback_tail(self, tmp_path, monkeypatch, capsys):
        def _exploding_solve(u0, config):
            raise FloatingPointError("solver went off the rails")

        monkeypatch.setattr(cli, "solve", _exploding_solve)
        path = _dump(tmp_path, "solve.json", MINIMAL_SOLVE)
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "s")]) == 1
        reason = json.loads((tmp_path / "s" / "manifest.json").read_text())["reason"]
        headline, _, tail = reason.partition("\n")
        assert headline == "FloatingPointError: solver went off the rails"
        assert "in _exploding_solve" in tail and "in _cmd_solve" in tail
        assert "failed: FloatingPointError" in capsys.readouterr().err
        digest = report([tmp_path / "s" / "manifest.json"])
        assert digest.endswith("solve failed (FloatingPointError: solver went off the rails)")

    def test_os_error_in_a_command_is_a_failed_run(self, tmp_path, monkeypatch, capsys):
        def _denied(u0, config):
            raise PermissionError("snapshot store is read-only")

        monkeypatch.setattr(cli, "solve", _denied)
        path = _dump(tmp_path, "solve.json", MINIMAL_SOLVE)
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "s")]) == 1
        data = json.loads((tmp_path / "s" / "manifest.json").read_text())
        assert data["outcome"] == "failed"
        assert data["reason"].startswith("PermissionError: snapshot store is read-only\n")
        assert "failed: PermissionError" in capsys.readouterr().err

    @pytest.mark.parametrize("command,cfg", [("solve", MINIMAL_SOLVE), ("sweep", SWEEP_CONFIG)])
    def test_main_builds_each_block_once(self, tmp_path, monkeypatch, command, cfg):
        calls = {"_u0_from_block": 0, "_path_from_block": 0}
        for name in calls:
            def counting(*args, _name=name, _builder=getattr(cli, name), **kwargs):
                calls[_name] += 1
                return _builder(*args, **kwargs)

            monkeypatch.setattr(cli, name, counting)
        path = _dump(tmp_path, f"{command}.json", cfg)
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert calls == {"_u0_from_block": 1, "_path_from_block": 1}

    def test_zero_initial_data_runs(self, tmp_path):
        cfg = json.loads(json.dumps(MINIMAL_SOLVE))
        cfg["u0"]["amplitude"] = 0.0
        path = _dump(tmp_path, "solve.json", cfg)
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "z")]) == 0
        data = json.loads((tmp_path / "z" / "manifest.json").read_text())
        assert data["outcome"] == "ok"
        assert data["highlights"]["sign_changes_final"] == 0
        assert data["highlights"]["positivity_on_region"] is False

    def test_sweep_determinism_bitwise(self, tmp_path):
        path = _dump(tmp_path, "sweep.json", SWEEP_CONFIG)
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "b")]) == 0
        for name in ("table.csv", "summary.json", "plotdata.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_out_dir_from_env(self, tmp_path, monkeypatch):
        path = _dump(tmp_path, "kernel.json", {
            "kernel": {"m": 1, "dim": 1, "r_max": 8.0, "dr": 0.1},
        })
        monkeypatch.setenv("POLYHEAT_OUT", str(tmp_path / "envout"))
        assert main(["kernel", "--config", str(path)]) == 0
        assert (tmp_path / "envout" / "manifest.json").exists()

    def test_seed_changes_random_field(self, tmp_path):
        cfg = json.loads(json.dumps(MINIMAL_SOLVE))
        cfg["u0"] = {"type": "random_bumps", "count": 2, "width": 4.0, "steepness": 6.0}
        cfg["solver"]["t_final"] = 0.001
        path = _dump(tmp_path, "solve.json", cfg)
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "r1"), "--seed", "1"]) == 0
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "r2"), "--seed", "2"]) == 0
        a = read_phf1(tmp_path / "r1" / "u_t0.000000.phf1")
        b = read_phf1(tmp_path / "r2" / "u_t0.000000.phf1")
        assert not np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, where):
        cfg = json.loads(json.dumps(MINIMAL_SOLVE))
        cfg["u0"] = {"type": "random_bumps", "count": 2, "width": 4.0, "steepness": 6.0}
        flag = ["--seed", "-1"] if where == "flag" else []
        if where == "config":
            cfg["seed"] = -1
        path = _dump(tmp_path, "solve.json", cfg)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(path), "--out", str(out), *flag]) == 2
        err = capsys.readouterr().err
        assert err == "error: seed must be at least 0, got -1\n"
        assert not (out / "manifest.json").exists()

    def test_missing_config_file(self, capsys):
        assert main(["solve", "--config", "/does/not/exist.json"]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_undecodable_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"seed": "\xff"}')
        assert main(["solve", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestReport:
    def test_empty(self):
        assert report([]) == "no runs"

    def test_ok_and_failed_digest(self, tmp_path):
        ok_config = parse_config(json.dumps({
            "kernel": {"m": 1, "dim": 1, "r_max": 8.0, "dr": 0.1},
            "out_dir": str(tmp_path / "ok"),
        }), command="kernel")
        run(ok_config)
        bad = json.loads(json.dumps(SWEEP_CONFIG))
        bad["branch"] = bad.pop("sweep")
        bad["branch"]["clamp_floor"] = 1e-2
        bad["out_dir"] = str(tmp_path / "bad")
        run(parse_config(json.dumps(bad), command="branch"))
        digest = report([tmp_path / "ok" / "manifest.json", tmp_path / "bad" / "manifest.json"])
        assert digest.startswith("1/2 runs ok")
        assert "log-singularity dominates" in digest

    def test_corrupt_manifest_listed(self, tmp_path):
        # malformed JSON, and valid JSON that is not a manifest object
        for text in ("{broken", "[1]", '{"outcome": "ok", "highlights": null}'):
            junk = tmp_path / "manifest.json"
            junk.write_text(text)
            digest = report([junk])
            assert digest.startswith("0/0 runs ok, 1 unreadable"), text

    def test_cli_report_subcommand(self, capsys):
        assert main(["report"]) == 0
        assert capsys.readouterr().out.strip() == "no runs"


# (block, key, raw JSON token) for MINIMAL_SOLVE; each must be a config error
SOLVE_DEFECTS = [
    ("grid", "points_per_dim", '"256"'),
    ("solver", "eps", "null"),
    ("degeneracy", "params", "[1]"),
    ("degeneracy", "params", '{"kappa": 3.0}'),  # the closed forms take no params
    ("solver", "t_final", "1e400"),
    ("solver", "dt_init", "Infinity"),
    ("grid", "half_width", "true"),
    ("grid", "dim", "1.0"),
    ("degeneracy", "n", "NaN"),
    ("solver", "report_stride", "0"),
    ("solver", "c", "NaN"),  # c is derived, so any value for it is an unknown key
    ("solver", "snapshot_times", '"0.1"'),
    ("solver", "snapshot_times", "[0.0005, 0.5, -1.0]"),
    ("u0", "amplitude", '"1"'),
    ("u0", "center", "15.0"),  # support past |x| <= L/2
    ("u0", "steepness", "0.01"),  # spectral tail above 1e-10
    ("u0", "amplitude", "1e308"),  # the transform overflows: a NaN spectral tail
    ("u0", "center", "[NaN]"),  # a NaN centre would build the zero field
    ("solver", "dealias", "true"),  # a retired key: only false, the solver's one scheme, is accepted
]

# (key, raw JSON token) for the sweep or branch block of SWEEP_CONFIG; each
# must be a config error
SWEEP_DEFECTS = [
    ("t_eval", "NaN"),
    ("n_values", "[]"),
    ("n_values", "[-1]"),
    ("time_nodes", "1"),
    ("time_nodes", "2.5"),
    ("clamp_floor", "0"),
    ("dt_init", "-1"),
    ("m", "4"),
    ("dealias", "1"),
    ("dealias", "true"),  # a retired key: only false, the solver's one scheme, is accepted
]

_GRID_KEYS = ("dim", "half_width", "points_per_dim")
# command -> (its minimal config, {block: the keys the block cannot do without})
REQUIRED_KEYS = {
    "solve": (MINIMAL_SOLVE, {
        "grid": _GRID_KEYS, "degeneracy": ("kind", "n"), "u0": (), "solver": ("m", "eps", "dt_init", "t_final"),
    }),
    "sweep": (SWEEP_CONFIG, {
        "grid": _GRID_KEYS, "degeneracy": ("kind",), "schedule": ("kind", "c"), "u0": (),
        "sweep": ("t_eval", "n_values"),
    }),
    "kernel": (MINIMAL_KERNEL, {"kernel": ("m", "dim", "r_max", "dr")}),
    "spectrum": (MINIMAL_SPECTRUM, {"grid": _GRID_KEYS, "spectrum": ("m", "max_order")}),
}
# (command, block, key, whether the key is removed or is an added unknown one)
KEY_CASES = [
    case
    for command, (base, blocks) in REQUIRED_KEYS.items()
    for block, required in blocks.items()
    for case in [(command, block, "bogus", "added")] + [(command, block, key, "removed") for key in required]
]

_RATIONAL = DegeneracyFunction("rational")
_LINEAR = RegPath(_RATIONAL, 0.0, "simple")
_SOLVER = dict(m=2, path=_LINEAR, eps=1e-3, dt_init=1e-4, t_final=0.01)
_PROFILE = dict(m=2, dim=1, radii=[0.0, 0.5], values=[0.2, 0.1], quadrature=QuadratureSpec(4.0, 64))
_GRID = GridSpec(1, 24.0, 256)
_SWEEP = dict(schedule=Schedule("eps_of_n", 1.0, _RATIONAL), m=2, t_eval=0.1, n_values=[0.1, 0.0])

# name -> (exception, a fragment of its message naming what was wrong, the call)
CONSTRUCTOR_DEFECTS = {
    "GridSpec dim float": (TypeError, "dim must be an integer", lambda: GridSpec(1.0, 24.0, 256)),
    "GridSpec half_width bool": (TypeError, "half_width must be a real number", lambda: GridSpec(1, True, 256)),
    "GridSpec points_per_dim str": (
        TypeError, "points_per_dim must be an integer", lambda: GridSpec(1, 24.0, "256")
    ),
    "GridSpec half_width inf": (ValueError, "half_width must be finite", lambda: GridSpec(1, math.inf, 256)),
    "SolverConfig t_final inf": (
        ValueError, "t_final must be finite", lambda: SolverConfig(**dict(_SOLVER, t_final=math.inf))
    ),
    "SolverConfig dt_init nan": (
        ValueError, "dt_init must be finite", lambda: SolverConfig(**dict(_SOLVER, dt_init=math.nan))
    ),
    "SolverConfig eps None": (
        TypeError, "eps must be a real number", lambda: SolverConfig(**dict(_SOLVER, eps=None))
    ),
    "SolverConfig m float": (TypeError, "m must be an integer", lambda: SolverConfig(**dict(_SOLVER, m=2.0))),
    "SolverConfig report_stride zero": (
        ValueError, "report_stride must be at least 1", lambda: SolverConfig(**dict(_SOLVER, report_stride=0))
    ),
    "SolverConfig dealias int": (
        TypeError, "unexpected keyword argument 'dealias'", lambda: SolverConfig(**dict(_SOLVER, dealias=1))
    ),
    "SolverConfig snapshot_times str": (
        TypeError, "snapshot_times must be a list", lambda: SolverConfig(**dict(_SOLVER, snapshot_times="0.1"))
    ),
    "SolverConfig snapshot_times past t_final": (
        ValueError, "snapshot_times must lie in",
        lambda: SolverConfig(**dict(_SOLVER, snapshot_times=(0.005, 0.02))),
    ),
    "SolverConfig snapshot_times negative": (
        ValueError, "snapshot_times must lie in", lambda: SolverConfig(**dict(_SOLVER, snapshot_times=(-1e-3,)))
    ),
    "RegPath n nan": (ValueError, "n must be finite", lambda: RegPath(_RATIONAL, math.nan)),
    "RegPath n str": (TypeError, "n must be a real number", lambda: RegPath(_RATIONAL, "0.1")),
    "Schedule c inf": (ValueError, "c must be finite", lambda: Schedule("eps_of_n", math.inf, _RATIONAL)),
    "Schedule c bool": (TypeError, "c must be a real number", lambda: Schedule("eps_of_n", True, _RATIONAL)),
    "DegeneracyFunction params list": (
        TypeError, "params must be an object", lambda: DegeneracyFunction("rational", [1])
    ),
    "DegeneracyFunction kind power unknown": (
        ValueError, "unknown degeneracy kind 'power'", lambda: DegeneracyFunction("power")
    ),
    "DegeneracyFunction kind power unknown with params": (
        ValueError, "unknown degeneracy kind 'power'", lambda: DegeneracyFunction("power", {"kappa": math.nan})
    ),
    "DegeneracyFunction knots str": (
        TypeError, "spline knots must be a list",
        lambda: DegeneracyFunction("spline", {"knots": "01", "values": [0, 1]}),
    ),
    "DegeneracyFunction spline unknown key": (
        ValueError, "unknown params key 'kapa' for kind 'spline'",
        lambda: DegeneracyFunction("spline", {"knots": [0.0, 1.0, 3.0], "values": [0.0, 0.5, 0.9], "kapa": 1}),
    ),
    "DegeneracyFunction t_max not settable": (
        TypeError, "unexpected keyword argument 't_max'", lambda: DegeneracyFunction("tanh", t_max=math.inf)
    ),
    "QuadratureSpec nodes float": (TypeError, "nodes must be an integer", lambda: QuadratureSpec(8.0, 64.0)),
    "KernelProfile radii nan": (
        ValueError, "radii must be a 1-D array of finite",
        lambda: KernelProfile(**dict(_PROFILE, radii=[0.0, math.nan])),
    ),
    "KernelProfile radii inf": (
        ValueError, "radii must be a 1-D array of finite",
        lambda: KernelProfile(**dict(_PROFILE, radii=[0.0, math.inf])),
    ),
    "KernelProfile values nan": (
        ValueError, "values must be finite", lambda: KernelProfile(**dict(_PROFILE, values=[0.2, math.nan]))
    ),
    "KernelProfile m zero": (ValueError, "m must be at least 1", lambda: KernelProfile(**dict(_PROFILE, m=0))),
    "KernelProfile dim 3": (ValueError, "dim must be one of", lambda: KernelProfile(**dict(_PROFILE, dim=3))),
    "bump width inf": (ValueError, "width must be finite", lambda: bump(_GRID, 1.0, math.inf)),
    "bump steepness negative": (
        ValueError, "steepness must be positive", lambda: bump(_GRID, 1.0, 4.0, steepness=-1.0)
    ),
    "bump amplitude nan": (ValueError, "amplitude must be finite", lambda: bump(_GRID, math.nan, 4.0)),
    "bump center nan": (ValueError, "center entry must be finite", lambda: bump(_GRID, 1.0, 4.0, center=[math.nan])),
    "bump center inf": (ValueError, "center entry must be finite", lambda: bump(_GRID, 1.0, 4.0, center=math.inf)),
    "bump center bool": (
        TypeError, "center entry must be a real number", lambda: bump(_GRID, 1.0, 4.0, center=[True])
    ),
    "bump center nested": (TypeError, "center must be a list", lambda: bump(_GRID, 1.0, 4.0, center=[[0.0]])),
    "bump center per dimension": (
        ValueError, "center must have one entry per dimension", lambda: bump(_GRID, 1.0, 4.0, center=[0.0, 0.0])
    ),
    "random_bumps count zero": (ValueError, "count must be at least 1", lambda: random_bumps(_GRID, 0, count=0)),
    "random_bumps count float": (TypeError, "count must be an integer", lambda: random_bumps(_GRID, 0, count=3.0)),
    "random_bumps amplitude bool": (
        TypeError, "amplitude must be a real number", lambda: random_bumps(_GRID, 0, amplitude=True)
    ),
    "random_bumps width str": (TypeError, "width must be a real number", lambda: random_bumps(_GRID, 0, width="2")),
    "random_bumps width without room": (
        ValueError, "random_bumps width 12 leaves no room", lambda: random_bumps(_GRID, 0, width=12.0)
    ),
    "random_bumps steepness nan": (
        ValueError, "steepness must be finite", lambda: random_bumps(_GRID, 0, steepness=math.nan)
    ),
    "SweepSpec t_eval nan": (ValueError, "t_eval must be finite", lambda: SweepSpec(**dict(_SWEEP, t_eval=math.nan))),
    "SweepSpec t_eval zero": (ValueError, "t_eval must be positive", lambda: SweepSpec(**dict(_SWEEP, t_eval=0.0))),
    "SweepSpec n_values empty": (
        TypeError, "n_values must be a list of at least 1", lambda: SweepSpec(**dict(_SWEEP, n_values=[]))
    ),
    "SweepSpec n_values negative": (
        ValueError, "n_values entry must be nonnegative", lambda: SweepSpec(**dict(_SWEEP, n_values=[0.1, -1.0]))
    ),
    "SweepSpec n_values str": (
        TypeError, "n_values must be a list", lambda: SweepSpec(**dict(_SWEEP, n_values="0.1"))
    ),
    "SweepSpec time_nodes one": (
        ValueError, "time_nodes must be at least 2", lambda: SweepSpec(**dict(_SWEEP, time_nodes=1))
    ),
    "SweepSpec time_nodes float": (
        TypeError, "time_nodes must be an integer", lambda: SweepSpec(**dict(_SWEEP, time_nodes=2.5))
    ),
    "SweepSpec clamp_floor zero": (
        ValueError, "clamp_floor must be positive", lambda: SweepSpec(**dict(_SWEEP, clamp_floor=0.0))
    ),
    "SweepSpec clamp_floor inf": (
        ValueError, "clamp_floor must be finite", lambda: SweepSpec(**dict(_SWEEP, clamp_floor=math.inf))
    ),
    "SweepSpec dt_init negative": (
        ValueError, "dt_init must be positive", lambda: SweepSpec(**dict(_SWEEP, dt_init=-1.0))
    ),
    "SweepSpec m 4": (ValueError, "m must be one of", lambda: SweepSpec(**dict(_SWEEP, m=4))),
    "SweepSpec dealias int": (
        TypeError, "unexpected keyword argument 'dealias'", lambda: SweepSpec(**dict(_SWEEP, dealias=1))
    ),
    "SweepSpec control not settable": (
        TypeError, "unexpected keyword argument 'control'", lambda: SweepSpec(**dict(_SWEEP, control=None))
    ),
}

# arbitrary JSON; integers stay small because a drawn grid size allocates
# a field of that many points while the config is built
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)


def _leaf_paths(node, prefix=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [prefix]
    return [path for key, child in items for path in _leaf_paths(child, prefix + (key,))]


class TestValidation:
    @staticmethod
    def _defect_exits_2(tmp_path, capsys, command, cfg, block, key, token):
        cfg[block][key] = "@DEFECT@"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg).replace('"@DEFECT@"', token))
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {block}: ")
        assert "Traceback" not in captured.err
        assert "ok" not in captured.out
        assert not (out / "manifest.json").exists()

    @pytest.mark.filterwarnings("error")  # a defect is reported once, as the error line
    @pytest.mark.parametrize("block,key,token", SOLVE_DEFECTS, ids=[f"{b}.{k}={t}" for b, k, t in SOLVE_DEFECTS])
    def test_solve_defect_exits_2_naming_block(self, tmp_path, capsys, block, key, token):
        cfg = json.loads(json.dumps(MINIMAL_SOLVE))
        self._defect_exits_2(tmp_path, capsys, "solve", cfg, block, key, token)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("key,token", SWEEP_DEFECTS, ids=[f"{k}={t}" for k, t in SWEEP_DEFECTS])
    @pytest.mark.parametrize("command", ["sweep", "branch"])
    def test_sweep_defect_exits_2_naming_block(self, tmp_path, capsys, command, key, token):
        cfg = json.loads(json.dumps(SWEEP_CONFIG))
        cfg[command] = cfg.pop("sweep")
        self._defect_exits_2(tmp_path, capsys, command, cfg, command, key, token)

    @staticmethod
    def _run_settings(command):
        """The minimal config of a solve, sweep or branch run, and the name
        of the block that holds its run settings."""
        if command == "solve":
            return json.loads(json.dumps(MINIMAL_SOLVE)), "solver"
        cfg = json.loads(json.dumps(SWEEP_CONFIG))
        cfg[command] = cfg.pop("sweep")
        return cfg, command

    @pytest.mark.parametrize("command", ["solve", "sweep", "branch"])
    def test_retired_dealias_false_builds_what_omitting_it_builds(self, command):
        cfg, block = self._run_settings(command)
        without = parse_config(json.dumps(cfg), command=command).built[block]
        cfg[block]["dealias"] = False
        with_false = parse_config(json.dumps(cfg), command=command).built[block]
        assert with_false == without
        assert repr(with_false) == repr(without)

    @pytest.mark.parametrize("token", ["true", "0", '"no"'])
    @pytest.mark.parametrize("command", ["solve", "sweep", "branch"])
    def test_retired_dealias_other_than_false_is_a_config_error(self, command, token):
        # false names the solver's one scheme; any other value asked for another
        cfg, block = self._run_settings(command)
        cfg[block]["dealias"] = "@TOKEN@"
        text = json.dumps(cfg).replace('"@TOKEN@"', token)
        message = rf"^{block}: dealias must be false: the solver's 2/3-rule cut was removed"
        with pytest.raises(ConfigError, match=message):
            parse_config(text, command=command)

    @pytest.mark.parametrize("command,block,key,change", KEY_CASES, ids=["-".join(c) for c in KEY_CASES])
    def test_block_key_added_or_removed_exits_2(self, tmp_path, capsys, command, block, key, change):
        cfg = json.loads(json.dumps(REQUIRED_KEYS[command][0]))
        if change == "added":
            cfg[block][key] = 1
        else:
            del cfg[block][key]
        path = _dump(tmp_path, f"{command}.json", cfg)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {block}: ") and repr(key) in captured.err
        assert "Traceback" not in captured.err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("dr", [1e-300, 1e-17], ids=["past_the_size_limit", "past_the_address_space"])
    def test_kernel_dr_too_fine_to_tabulate_exits_2(self, tmp_path, capsys, dr):
        # 1e-17 asks for 5.5 EiB of radii, past any user address space, so the allocation fails at once
        path = _dump(tmp_path, "kernel.json", {"kernel": {"m": 2, "dim": 1, "r_max": 8.0, "dr": dr}})
        out = tmp_path / "out"
        assert main(["kernel", "--config", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: kernel: ")
        assert "Traceback" not in captured.err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("base,key,value", [
        (MINIMAL_SOLVE, "count", 3), (SEEDED_SOLVE, "center", [0.0, 0.0]),
    ], ids=["bump count", "random_bumps center"])
    def test_u0_key_the_type_does_not_take_exits_2(self, tmp_path, capsys, base, key, value):
        cfg = json.loads(json.dumps(base))
        cfg["u0"][key] = value
        path = _dump(tmp_path, "solve.json", cfg)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: u0: ") and repr(key) in captured.err
        assert "Traceback" not in captured.err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("command", ["sweep", "branch"])
    def test_u0_outside_support_exits_2(self, tmp_path, capsys, command):
        # every row of the study would fail the solver's initial-data check
        cfg = json.loads(json.dumps(SWEEP_CONFIG))
        cfg[command] = cfg.pop("sweep")
        cfg["u0"]["width"] = 18.0
        path = _dump(tmp_path, "bad.json", cfg)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: u0: u0 must be supported within |x| <= L/2")
        assert "Traceback" not in captured.err
        assert not (out / "manifest.json").exists()

    def test_seed_flag_applies_before_the_build(self, tmp_path):
        # the run writes the u0 it was built with: --seed 6 gives the u0 of a
        # config that says "seed": 6, not that of its own seed 0
        path = _dump(tmp_path, "solve.json", SEEDED_SOLVE)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(path), "--out", str(out), "--seed", "6"]) == 0
        flagged = read_phf1(out / "u_t0.000000.phf1").values
        seeded = parse_config(json.dumps({**SEEDED_SOLVE, "seed": 6}), command="solve").built["u0"]
        own = parse_config(json.dumps(SEEDED_SOLVE), command="solve").built["u0"]
        assert np.array_equal(flagged, seeded.values)
        assert not np.array_equal(flagged, own.values)

    def test_random_bumps_build_for_every_seed(self):
        # the centres keep every bump within |x| <= L/2 by construction
        for seed in range(20):
            parse_config(json.dumps(SEEDED_SOLVE), command="solve", seed=seed)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_random_bumps_defaults_build_for_every_seed(self, dim):
        # the default width meets u0's spectral-tail check on the stock
        # grids, L = 24 with 256 points per axis (width 2 failed every seed)
        grid = {"dim": dim, "half_width": 24.0, "points_per_dim": 256}
        cfg = {**MINIMAL_SOLVE, "grid": grid, "u0": {"type": "random_bumps"}}
        for seed in range(20):
            parse_config(json.dumps(cfg), command="solve", seed=seed)

    def test_bump_width_squaring_to_zero_exits_2(self, tmp_path, capsys):
        # width**2 underflows to 0.0, which would build the zero field and run "ok"
        cfg = {**MINIMAL_SOLVE, "u0": {**MINIMAL_SOLVE["u0"], "width": 1e-170}}
        path = _dump(tmp_path, "solve.json", cfg)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: u0: bump width 1e-170 must have a positive square, got width**2 = 0.0\n"
        assert not (out / "manifest.json").exists()

    def test_random_bumps_without_room_exits_2(self, tmp_path, capsys):
        cfg = {**SEEDED_SOLVE, "u0": {**SEEDED_SOLVE["u0"], "width": 6.0}}
        path = _dump(tmp_path, "solve.json", cfg)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: u0: random_bumps width 6 leaves no room: it must be below L/2 = 6\n"
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
    def test_unusable_out_dir_exits_2(self, tmp_path, capsys, below):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "run" if below else blocker
        path = _dump(tmp_path, "kernel.json", MINIMAL_KERNEL)
        assert main(["kernel", "--config", str(path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot create output directory: ")
        assert "Traceback" not in captured.err
        assert blocker.read_text() == ""
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize("error,reason,make", CONSTRUCTOR_DEFECTS.values(), ids=CONSTRUCTOR_DEFECTS.keys())
    def test_constructor_rejects(self, error, reason, make):
        # the message must name the field at fault, so a case cannot pass on
        # some other field's check
        with pytest.raises(error, match=re.escape(reason)):
            make()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_leaf_replacement_parses_or_config_error(self, data):
        command, base = data.draw(st.sampled_from(
            [("solve", MINIMAL_SOLVE), ("sweep", SWEEP_CONFIG), ("kernel", MINIMAL_KERNEL)]
        ))
        path = data.draw(st.sampled_from(_leaf_paths(base)))
        cfg = json.loads(json.dumps(base))
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = data.draw(JSON_VALUES)
        try:
            parse_config(json.dumps(cfg), command=command)
        except ConfigError:
            pass
