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

from polyheat import cli
from polyheat.cli import ConfigError, main, parse_config, report, run
from polyheat.degeneracy import DegeneracyFunction, RegPath
from polyheat.gridfield import GridSpec, bump, random_bumps, read_phf1
from polyheat.homotopy import Schedule, SweepSpec
from polyheat.kernel import KernelProfile, QuadratureSpec
from polyheat.solver import SolverConfig

MINIMAL_SOLVE = {
    "grid": {"dim": 1, "half_width": 24.0, "points_per_dim": 256},
    "degeneracy": {"kind": "rational", "n": 0.1},
    "u0": {"type": "bump", "amplitude": 1.0, "width": 4.0, "steepness": 6.0},
    "solver": {
        "m": 2, "eps": 1e-3, "variant": "full", "dt_init": 1e-4,
        "t_final": 0.005, "dealias": False, "report_stride": 20,
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
            def counting(*args, _name=name, _builder=getattr(cli, name)):
                calls[_name] += 1
                return _builder(*args)

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
]

_RATIONAL = DegeneracyFunction("rational")
_LINEAR = RegPath(_RATIONAL, 0.0, "simple")
_SOLVER = dict(m=2, path=_LINEAR, eps=1e-3, dt_init=1e-4, t_final=0.01)
_PROFILE = dict(m=2, dim=1, radii=[0.0, 0.5], values=[0.2, 0.1], quadrature=QuadratureSpec(4.0, 64))
_GRID = GridSpec(1, 24.0, 256)
_SWEEP = dict(schedule=Schedule("eps_of_n", 1.0, _RATIONAL), m=2, t_eval=0.1, n_values=[0.1, 0.0])

CONSTRUCTOR_DEFECTS = {
    "GridSpec dim float": lambda: GridSpec(1.0, 24.0, 256),
    "GridSpec half_width bool": lambda: GridSpec(1, True, 256),
    "GridSpec points_per_dim str": lambda: GridSpec(1, 24.0, "256"),
    "GridSpec half_width inf": lambda: GridSpec(1, math.inf, 256),
    "SolverConfig t_final inf": lambda: SolverConfig(**dict(_SOLVER, t_final=math.inf)),
    "SolverConfig dt_init nan": lambda: SolverConfig(**dict(_SOLVER, dt_init=math.nan)),
    "SolverConfig eps None": lambda: SolverConfig(**dict(_SOLVER, eps=None)),
    "SolverConfig m float": lambda: SolverConfig(**dict(_SOLVER, m=2.0)),
    "SolverConfig report_stride zero": lambda: SolverConfig(**dict(_SOLVER, report_stride=0)),
    "SolverConfig dealias int": lambda: SolverConfig(**dict(_SOLVER, dealias=1)),
    "SolverConfig snapshot_times str": lambda: SolverConfig(**dict(_SOLVER, snapshot_times="0.1")),
    "SolverConfig snapshot_times past t_final": lambda: SolverConfig(**dict(_SOLVER, snapshot_times=(0.005, 0.02))),
    "SolverConfig snapshot_times negative": lambda: SolverConfig(**dict(_SOLVER, snapshot_times=(-1e-3,))),
    "RegPath n nan": lambda: RegPath(_RATIONAL, math.nan),
    "RegPath n str": lambda: RegPath(_RATIONAL, "0.1"),
    "Schedule c inf": lambda: Schedule("eps_of_n", math.inf, _RATIONAL),
    "Schedule c bool": lambda: Schedule("eps_of_n", True, _RATIONAL),
    "DegeneracyFunction params list": lambda: DegeneracyFunction("rational", [1]),
    "DegeneracyFunction kind power unknown": lambda: DegeneracyFunction("power"),
    "DegeneracyFunction kind power unknown with params": lambda: DegeneracyFunction("power", {"kappa": math.nan}),
    "DegeneracyFunction knots str": lambda: DegeneracyFunction("spline", {"knots": "01", "values": [0, 1]}),
    "DegeneracyFunction spline unknown key": lambda: DegeneracyFunction(
        "spline", {"knots": [0.0, 1.0, 3.0], "values": [0.0, 0.5, 0.9], "kapa": 1}
    ),
    "DegeneracyFunction t_max not settable": lambda: DegeneracyFunction("tanh", t_max=math.inf),
    "QuadratureSpec nodes float": lambda: QuadratureSpec(8.0, 64.0),
    "KernelProfile radii nan": lambda: KernelProfile(**dict(_PROFILE, radii=[0.0, math.nan])),
    "KernelProfile radii inf": lambda: KernelProfile(**dict(_PROFILE, radii=[0.0, math.inf])),
    "KernelProfile values nan": lambda: KernelProfile(**dict(_PROFILE, values=[0.2, math.nan])),
    "KernelProfile m zero": lambda: KernelProfile(**dict(_PROFILE, m=0)),
    "KernelProfile dim 3": lambda: KernelProfile(**dict(_PROFILE, dim=3)),
    "bump width inf": lambda: bump(_GRID, 1.0, math.inf),
    "bump steepness negative": lambda: bump(_GRID, 1.0, 4.0, steepness=-1.0),
    "bump amplitude nan": lambda: bump(_GRID, math.nan, 4.0),
    "bump center nan": lambda: bump(_GRID, 1.0, 4.0, center=[math.nan]),
    "bump center inf": lambda: bump(_GRID, 1.0, 4.0, center=math.inf),
    "bump center bool": lambda: bump(_GRID, 1.0, 4.0, center=[True]),
    "bump center nested": lambda: bump(_GRID, 1.0, 4.0, center=[[0.0]]),
    "bump center per dimension": lambda: bump(_GRID, 1.0, 4.0, center=[0.0, 0.0]),
    "random_bumps count zero": lambda: random_bumps(_GRID, 0, count=0),
    "random_bumps count float": lambda: random_bumps(_GRID, 0, count=3.0),
    "random_bumps amplitude bool": lambda: random_bumps(_GRID, 0, amplitude=True),
    "random_bumps width str": lambda: random_bumps(_GRID, 0, width="2"),
    "random_bumps width without room": lambda: random_bumps(_GRID, 0, width=12.0),
    "random_bumps steepness nan": lambda: random_bumps(_GRID, 0, steepness=math.nan),
    "SweepSpec t_eval nan": lambda: SweepSpec(**dict(_SWEEP, t_eval=math.nan)),
    "SweepSpec t_eval zero": lambda: SweepSpec(**dict(_SWEEP, t_eval=0.0)),
    "SweepSpec n_values empty": lambda: SweepSpec(**dict(_SWEEP, n_values=[])),
    "SweepSpec n_values negative": lambda: SweepSpec(**dict(_SWEEP, n_values=[0.1, -1.0])),
    "SweepSpec n_values str": lambda: SweepSpec(**dict(_SWEEP, n_values="0.1")),
    "SweepSpec time_nodes one": lambda: SweepSpec(**dict(_SWEEP, time_nodes=1)),
    "SweepSpec time_nodes float": lambda: SweepSpec(**dict(_SWEEP, time_nodes=2.5)),
    "SweepSpec clamp_floor zero": lambda: SweepSpec(**dict(_SWEEP, clamp_floor=0.0)),
    "SweepSpec clamp_floor inf": lambda: SweepSpec(**dict(_SWEEP, clamp_floor=math.inf)),
    "SweepSpec dt_init negative": lambda: SweepSpec(**dict(_SWEEP, dt_init=-1.0)),
    "SweepSpec m 4": lambda: SweepSpec(**dict(_SWEEP, m=4)),
    "SweepSpec dealias int": lambda: SweepSpec(**dict(_SWEEP, dealias=1)),
    "SweepSpec control not settable": lambda: SweepSpec(**dict(_SWEEP, control=None)),
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

    @pytest.mark.parametrize("make", CONSTRUCTOR_DEFECTS.values(), ids=CONSTRUCTOR_DEFECTS.keys())
    def test_constructor_rejects(self, make):
        with pytest.raises((TypeError, ValueError)):
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
