"""Every name a package module imports is used in that module, every name
it exports is read by the package, a demo or the benchmark, the package
root binds only ``__version__`` and modules, a process that only solves and
sweeps loads no scipy, every polyheat name a demo or the benchmark reads
exists, every function the benchmark's layer tracer wraps exists and a
sweep reaches it, every benchmark workload builds, every transform the
package makes is a real one made in ``gridfield.rfft``/``irfft``, only
``gridfield`` reads the gradient-chain multipliers, only
``solver._Step.advance`` calls the step's candidate and unit remainder,
and every default of a public function or dataclass is one that some call
sets."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import polyheat

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in Path(polyheat.__file__).parent.glob("*.py") if p.name != "__init__.py")
CALLERS = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_detects_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(b)\n") == ["d (line 2)", "os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _is_all(stmt) -> bool:
    return isinstance(stmt, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in stmt.targets)


def exported(source: str) -> list:
    """The entries of a module's literal ``__all__``."""
    for stmt in ast.parse(source).body:
        if _is_all(stmt):
            return [elt.value for elt in stmt.value.elts]
    return []


def _reads(node) -> set:
    """Identifiers read under a node: loaded names, attribute names and
    identifier strings (the benchmark looks functions up by name)."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            found.add(sub.value)
    return found


def unread_exports(modules: dict, callers) -> list:
    """``module.name`` for each exported name (module -> source) that nothing
    live reads.  Live are the caller sources, the modules' top-level
    statements other than definitions and ``__all__``, and, repeatedly, what
    a live definition reads; so a name read only by dead code, or only by its
    own definition, is unread."""
    defs, live = {}, set()
    for source in modules.values():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.setdefault(stmt.name, set()).update(_reads(stmt) - {stmt.name})
            elif not _is_all(stmt):
                live |= _reads(stmt)
    for source in callers:
        live |= _reads(ast.parse(source))
    frontier = set(live)
    while frontier:
        frontier = set().union(*(defs.get(name, set()) for name in frontier)) - live
        live |= frontier
    return sorted(
        f"{mod}.{name}" for mod, source in modules.items() for name in exported(source) if name not in live
    )


def test_detects_unread_export():
    lib = (
        '__all__ = ["used", "by_name", "helper", "self_only", "dead", "dead_helper"]\n'
        "def used(): return helper()\n"
        "def helper(): pass\n"
        "def by_name(): pass\n"
        "def self_only(n): return self_only(n - 1) if n else 0\n"
        "def dead(): return dead_helper()\n"
        "def dead_helper(): pass\n"
    )
    caller = 'from lib import used\nused()\nLAYERS = ("by_name",)\n'
    unread = unread_exports({"lib": lib}, [caller])
    assert unread == ["lib.dead", "lib.dead_helper", "lib.self_only"]


def test_every_export_has_a_reader():
    modules = {p.stem: p.read_text() for p in MODULES}
    callers = [p.read_text() for p in CALLERS]
    assert unread_exports(modules, callers) == []


# what Python itself binds on an imported package
_PACKAGE_DUNDERS = {
    "__name__", "__doc__", "__package__", "__loader__", "__spec__",
    "__path__", "__file__", "__cached__", "__builtins__",
}


def _run_fresh(code: str):
    """What ``code`` prints as JSON, run in a fresh interpreter that imports
    this polyheat."""
    src = str(Path(polyheat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


_ROOT_PROBE = """
import json, sys, types
import polyheat
print(json.dumps({
    "non_modules": [name for name, value in vars(polyheat).items() if not isinstance(value, types.ModuleType)],
    "solver_loaded": "polyheat.solver" in sys.modules,
}))
"""


def test_package_root_binds_only_modules():
    # each object has one import path, its own module's; and a bare
    # ``import polyheat`` loads polyheat.solver, which the benchmark's own
    # test of a missing layer function looks up
    probe = _run_fresh(_ROOT_PROBE)
    assert sorted(set(probe["non_modules"]) - _PACKAGE_DUNDERS - {"__version__"}) == []
    assert probe["solver_loaded"]


_SCIPY_PROBE = """
import json, sys
import polyheat.cli
cli_path = sorted(name for name in sys.modules if name.startswith("numpy.polynomial"))
from polyheat import homotopy, kernel, solver
from polyheat.degeneracy import RegPath, degeneracy_function
from polyheat.gridfield import bump, make_grid

def scipy_modules():
    return sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))

f = degeneracy_function("rational")
u0 = bump(make_grid(1, 24.0, 256), 1.0, 4.0, steepness=6.0)
solver.solve(u0, solver.SolverConfig(m=2, path=RegPath(f, 0.1), eps=1e-3, dt_init=1e-4, t_final=1e-3))
schedule = homotopy.Schedule("eps_of_n", 1.0, f)
table = homotopy.sweep(u0, homotopy.SweepSpec(schedule, 2, 0.1, [0.1, 0.03], dt_init=1e-3, clamp_floor=1e-14))
solve_path = scipy_modules()
kernel.decay_fit(kernel.profile_bessel(2, 2, [0.05 * i for i in range(401)]))
print(json.dumps({
    "cli_path": cli_path, "solve_path": solve_path, "rows": [row.status for row in table.rows],
    "kernel_path": scipy_modules(),
}))
"""


def test_solve_and_sweep_load_no_scipy():
    # scipy costs a fresh process most of its start-up; only the kernel
    # layer (J_0, the radial integral) and a spline f need it, and they
    # import it on first use; the decay fit needs only numpy
    probe = _run_fresh(_SCIPY_PROBE)
    # numpy.polynomial, which the spectrum and kernel code import on first
    # use, would add milliseconds to every CLI start-up
    assert probe["cli_path"] == []
    assert probe["solve_path"] == []
    assert probe["rows"] == ["ok", "ok"]
    assert "scipy.special" in probe["kernel_path"]
    assert "scipy.optimize" not in probe["kernel_path"]


def _is_dataclass(node) -> bool:
    return any(
        _dotted(d.func if isinstance(d, ast.Call) else d) in ("dataclass", "dataclasses.dataclass")
        for d in node.decorator_list
    )


def defaulted_parameters(source: str) -> list:
    """``(owner, parameter, position)`` for each parameter with a default of
    a public top-level function or dataclass; ``position`` is its index
    among the positional parameters, None for a keyword-only one.  A
    dataclass field with ``init=False`` is no parameter."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            found += [(node.name, arg.arg, i) for i, arg in enumerate(positional) if i >= first]
            found += [(node.name, arg.arg, None) for arg, d in zip(args.kwonlyargs, args.kw_defaults) if d]
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_") and _is_dataclass(node):
            position = 0
            for stmt in node.body:
                if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
                    continue
                value = stmt.value
                is_field = isinstance(value, ast.Call) and _dotted(value.func) in ("field", "dataclasses.field")
                options = {k.arg: k.value for k in value.keywords} if is_field else {}
                if getattr(options.get("init"), "value", True) is False:
                    continue
                if (value is not None and not is_field) or {"default", "default_factory"} & set(options):
                    found.append((node.name, stmt.target.id, position))
                position += 1
    return found


def unset_defaults(modules: dict, callers) -> list:
    """``module.owner.parameter`` for each defaulted parameter (see
    ``defaulted_parameters``) of the modules (name -> source) that no call
    in the caller sources passes: by keyword, by position (a ``*`` splat
    passes every position) or by a ``**`` splat."""
    calls = {}  # callee name -> [(positional count, *-splat, keywords, **-splat)]
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            keywords = {k.arg for k in node.keywords}
            calls.setdefault(name, []).append((
                len(node.args), any(isinstance(a, ast.Starred) for a in node.args),
                keywords - {None}, None in keywords,
            ))

    def passed(owner, parameter, position):
        return any(
            splat or parameter in keywords or (position is not None and (starred or count > position))
            for count, starred, keywords, splat in calls.get(owner, ())
        )

    return sorted(
        f"{mod}.{owner}.{parameter}"
        for mod, source in modules.items()
        for owner, parameter, position in defaulted_parameters(source)
        if not passed(owner, parameter, position)
    )


def test_detects_unset_default():
    lib = (
        "from dataclasses import dataclass, field\n"
        "def f(a, b=1, c=2, *, d=3, e=4): pass\n"
        "def g(a=1): pass\n"
        "def h(a=1): pass\n"
        "def _private(a=1): pass\n"
        "class Plain:\n    def __init__(self, a=1): pass\n"
        "@dataclass(frozen=True)\n"
        "class D:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    z: int = field(init=False, default=0)\n"
        "    w: dict = field(default_factory=dict)\n"
        "    v: int = field(default=5)\n"
    )
    caller = "f(0, 1, e=5)\nlib.g(*args)\nh(**kwargs)\nD(1, 2, v=3)\n"
    assert unset_defaults({"lib": lib}, [caller]) == ["lib.D.w", "lib.f.c", "lib.f.d"]


def test_every_default_is_set():
    # a parameter that no run, demo or benchmark sets is a constant of its module
    package = {p.stem: p.read_text() for p in Path(polyheat.__file__).parent.glob("*.py")}
    public = {name: source for name, source in package.items() if not name.startswith("_")}
    assert unset_defaults(public, list(package.values()) + [p.read_text() for p in CALLERS]) == []


_MISSING = object()


def _resolve(path: str):
    """The object a dotted path names, importing each submodule on the way,
    or ``_MISSING``."""
    parts = path.split(".")
    try:
        obj = importlib.import_module(parts[0])
        for part in parts[1:]:
            if isinstance(obj, types.ModuleType) and not hasattr(obj, part):
                importlib.import_module(f"{obj.__name__}.{part}")
            obj = getattr(obj, part)
    except (ImportError, AttributeError):
        return _MISSING
    return obj


def _dotted(node) -> str | None:
    """``a.b.c`` for a chain of attribute reads on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def _in_polyheat(module) -> bool:
    return module == "polyheat" or (module or "").startswith("polyheat.")


def unresolved_references(source: str) -> list:
    """``path (line n)`` for each polyheat module or name the source imports,
    and each attribute it reads off a polyheat module, that does not exist."""
    tree = ast.parse(source)
    imported, bound = [], {}  # bound: local name -> the dotted polyheat path it names
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _in_polyheat(alias.name):
                    imported.append((alias.name, node.lineno))
                    # ``import polyheat.x`` binds polyheat; ``import polyheat.x as y`` binds y
                    bound[alias.asname or "polyheat"] = alias.name if alias.asname else "polyheat"
        elif isinstance(node, ast.ImportFrom) and not node.level and _in_polyheat(node.module):
            for alias in node.names:
                imported.append((f"{node.module}.{alias.name}", node.lineno))
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    read = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            root, _, rest = (_dotted(node) or "").partition(".")
            if root in bound:
                read.append((f"{bound[root]}.{rest}", node.lineno))
    missing = [(path, line) for path, line in imported if _resolve(path) is _MISSING]
    # an attribute read counts where it is read off a module
    missing += [
        (path, line) for path, line in read
        if isinstance(_resolve(path.rpartition(".")[0]), types.ModuleType) and _resolve(path) is _MISSING
    ]
    return sorted(f"{path} (line {line})" for path, line in set(missing))


def test_detects_unresolved_reference():
    caller = (
        "import polyheat\nimport polyheat.nowhere\nfrom polyheat import cli, no_module\n"
        "from polyheat.solver import solve, no_function\nfrom polyheat import kernel as k\n"
        "def run(): return cli.run, cli.no_attr, k.phe_solve.__name__, k.gone, polyheat.solver.nothing\n"
        "solve.whatever, no_function.deeper\n"
    )
    assert unresolved_references(caller) == [
        "polyheat.cli.no_attr (line 6)",
        "polyheat.kernel.gone (line 6)",
        "polyheat.no_module (line 3)",
        "polyheat.nowhere (line 2)",
        "polyheat.solver.no_function (line 4)",
        "polyheat.solver.nothing (line 6)",
    ]


@pytest.mark.parametrize("path", CALLERS, ids=[f"{p.parent.name}/{p.name}" for p in CALLERS])
def test_caller_references_resolve(path):
    # nothing runs the demos in the tests: a demo that imports or reads a
    # deleted polyheat name fails here instead
    assert unresolved_references(path.read_text()) == []


def _bench_module(name: str) -> types.ModuleType:
    """bench/<name>.py, loaded from its file: bench is not a package."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layer_functions_exist():
    # bench/layertrace.py aborts a traced run on a missing boundary function;
    # catching that here keeps a deleted layer from surfacing only there
    for module_name, functions in _bench_module("layertrace").LAYER_FUNCTIONS.values():
        module = importlib.import_module(module_name)
        for name in functions:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_bench_workloads_build(tmp_path):
    # building a workload parses each of its CLI configs and builds
    # solve_1d_linear's SolverConfig, so a library or CLI change that breaks
    # a config the benchmark sends fails here, not as a failed benchmark run
    workloads = _bench_module("workloads")
    for name, workload in workloads.WORKLOADS.items():
        workload(workloads.CANONICAL_SEED, tmp_path / name)


COMPLEX_TRANSFORMS = {"fft", "ifft", "fft2", "ifft2", "fftn", "ifftn"}
REAL_TRANSFORMS = {"rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn"}
# the one place each real transform may appear: (module, enclosing function)
TRANSFORM_HOMES = {("gridfield", "rfft"), ("gridfield", "irfft")}
FFT_MODULES = {"fft", "fftpack"}


def _is_fft_module(node) -> bool:
    """``np.fft``, ``numpy.fft``, ``scipy.fft`` or a bare ``fft`` module name."""
    return (isinstance(node, ast.Attribute) and node.attr in FFT_MODULES) or (
        isinstance(node, ast.Name) and node.id in FFT_MODULES
    )


def transform_uses(source: str) -> list:
    """``(function, transform, line)`` for each numpy/scipy FFT transform the
    source names, as ``<fft module>.<transform>`` or imported from an fft
    module; ``function`` is the enclosing top-level definition, or None at
    module level."""
    found = []

    def visit(node, owner):
        if owner is None and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = node.name
        if isinstance(node, ast.Attribute) and _is_fft_module(node.value):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").rpartition(".")[2] in FFT_MODULES:
            names = [alias.name for alias in node.names]
        else:
            names = []
        transforms = COMPLEX_TRANSFORMS | REAL_TRANSFORMS
        found.extend((owner, name, node.lineno) for name in names if name in transforms)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def misplaced_transforms(module: str, source: str) -> list:
    """Each complex transform anywhere, and each real transform outside the
    homes in ``TRANSFORM_HOMES``."""
    return [
        f"{module}.{owner or '<module>'}: {name} (line {line})"
        for owner, name, line in transform_uses(source)
        if name in COMPLEX_TRANSFORMS or (module, owner) not in TRANSFORM_HOMES
    ]


def test_detects_misplaced_transforms():
    home = "import numpy as np\ndef rfft(g, v): return np.fft.rfftn(v)\ndef irfft(g, v): return np.fft.irfft(v)\n"
    assert misplaced_transforms("gridfield", home) == []
    assert misplaced_transforms("kernel", home) == [
        "kernel.rfft: rfftn (line 2)", "kernel.irfft: irfft (line 3)"
    ]
    stray = (
        "import numpy as np\nimport scipy.fft\nfrom numpy.fft import ifftn\n"
        "def f(v): return np.fft.fftn(v), scipy.fft.fft(v), np.fft.fftfreq(4)\n"
        "def rfft(g, v): return np.fft.fft2(v)\n"
    )
    assert misplaced_transforms("gridfield", stray) == [
        "gridfield.<module>: ifftn (line 3)",
        "gridfield.f: fftn (line 4)",
        "gridfield.f: fft (line 4)",
        "gridfield.rfft: fft2 (line 5)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_transforms_only_in_gridfield_rfft_irfft(path):
    assert misplaced_transforms(path.stem, path.read_text()) == []


# the one module that reads a ``_Spectrum``'s gradient-chain multipliers:
# the home of the divergence kernel, which the solver and the Duhamel
# correction both call
CHAIN_HOME = "gridfield"


def chain_reads(source: str) -> list:
    """The lines that read a ``chain`` attribute, ``itertools.chain`` aside."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "chain"
        and not (isinstance(node.value, ast.Name) and node.value.id == "itertools")
    )


def test_detects_chain_reads():
    source = "import itertools\ng = spec.chain[0]\nitertools.chain(a, b)\nfor c in rows.chain: pass\n"
    assert chain_reads(source) == [2, 4]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_gradient_chain_read_only_by_the_kernel_module(path):
    # a module that forms grad Delta^(m-1) u itself would be a second
    # divergence kernel beside gridfield._coef_divergence
    if path.stem != CHAIN_HOME:
        assert chain_reads(path.read_text()) == []


# the step's own expressions and the one function that may call them: a
# second caller would be a second step path beside ``_Step.advance``
STEP_EXPRESSIONS = {"_candidate", "_unit_states"}
STEP_HOME = "_Step.advance"


def step_callers(source: str) -> list:
    """``(function, callee)`` for each call of a ``STEP_EXPRESSIONS`` name,
    with the enclosing function as ``Class.method``, ``function`` or
    ``<module>``."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = node.name if owner == "<module>" else f"{owner}.{node.name}"
        if isinstance(node, ast.Call) and _dotted(node.func) in STEP_EXPRESSIONS:
            found.append((owner, _dotted(node.func)))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def test_detects_step_callers():
    source = (
        "def _candidate(dt, u, r, p, out): return out\n"
        "class _Step:\n"
        "    def advance(self):\n        return _candidate(1, 2, 3, 4, 5)\n"
        "    def block(self):\n        _unit_states(1, 2, 3)\n"
        "        def inner(): return _candidate(1, 2, 3, 4, 5)\n"
        "x = _candidate(1, 2, 3, 4, 5)\n"
    )
    assert step_callers(source) == [
        ("_Step.advance", "_candidate"), ("_Step.block", "_unit_states"),
        ("_Step.block.inner", "_candidate"), ("<module>", "_candidate"),
    ]


def test_only_the_step_calls_the_step_expressions():
    source = (Path(polyheat.__file__).parent / "solver.py").read_text()
    callers = step_callers(source)
    assert {callee for _, callee in callers} == STEP_EXPRESSIONS
    assert [caller for caller, _ in callers if caller != STEP_HOME] == []


def _count_calls(monkeypatch, function, calls: Counter, key: str) -> None:
    """Count the calls to ``function`` through every polyheat module
    attribute bound to it, the bindings the benchmark's tracer wraps."""

    def counting(*args, **kwargs):
        calls[key] += 1
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "polyheat" or name.startswith("polyheat."):
            for attr, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, attr, counting)


def test_sweep_is_one_traced_solve_with_one_coefficient_call_per_step(monkeypatch):
    # branch_sweep's trace reads the solver.solve layer at homotopy.solve and
    # degeneracy.coef at reg_coefficient: the sweep's rows must reach both
    # through those bindings, as one batch and one coefficient call per step
    from polyheat import homotopy, solver
    from polyheat.degeneracy import degeneracy_function
    from polyheat.gridfield import bump, make_grid

    calls = Counter()
    _count_calls(monkeypatch, solver.solve, calls, "solve")
    _count_calls(monkeypatch, solver.reg_coefficient, calls, "coef")
    u0 = bump(make_grid(1, 24.0, 256), 1.0, 4.0, steepness=6.0)
    schedule = homotopy.Schedule("eps_of_n", 1.0, degeneracy_function("rational"))
    n_values, t_eval, dt = [1e-1, 3e-2, 1e-2], 0.1, 1e-3
    table = homotopy.sweep(u0, homotopy.SweepSpec(schedule, 2, t_eval, n_values, dt_init=dt, clamp_floor=1e-14))
    assert [r.status for r in table.rows] == ["ok"] * len(n_values)
    assert calls["solve"] == 1
    # one call per state: the initial pass and one per step
    assert calls["coef"] == 1 + round(t_eval / dt)
