"""Every name a package module imports is used in that module, every name
it exports is read by the package, a demo or the benchmark, every function
the benchmark's layer tracer wraps exists and a sweep reaches it, and every
transform the package makes is a real one made in ``gridfield.rfft``/``irfft``."""

import ast
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

import polyheat

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in Path(polyheat.__file__).parent.glob("*.py") if p.name != "__init__.py")
CALLERS = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))

# exported names that no run, demo or benchmark reads, kept on purpose
KEEP_EXPORTED = {
    "rhs": "the one public single-state evaluator of the operator; its shift, stationarity and mean are tested",
    "very_weak_residual": "reference code: tests check solve's trajectories against the very-weak identity",
    "besselj_integral": "reference code: tests check besselj against the integral representation",
    "phi_eps": "the paper's full-path coefficient on one path, a batch of one of reg_coefficient; tests check it",
    "psi_eps": "the paper's simple-path coefficient on one path, a batch of one of reg_coefficient; tests check it",
}


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


def unread_exports(modules: dict, callers, keep=()) -> list:
    """``module.name`` for each exported name (module -> source) that nothing
    live reads.  Live are the caller sources, the modules' top-level
    statements other than definitions and ``__all__``, the names in ``keep``,
    and, repeatedly, what a live definition reads; so a name read only by
    dead code, or only by its own definition, is unread."""
    defs, live = {}, set(keep)
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
        '__all__ = ["used", "by_name", "helper", "kept", "self_only", "dead", "dead_helper"]\n'
        "def used(): return helper()\n"
        "def helper(): pass\n"
        "def by_name(): pass\n"
        "def kept(): pass\n"
        "def self_only(n): return self_only(n - 1) if n else 0\n"
        "def dead(): return dead_helper()\n"
        "def dead_helper(): pass\n"
    )
    caller = 'from lib import used\nused()\nLAYERS = ("by_name",)\n'
    unread = unread_exports({"lib": lib}, [caller], keep={"kept"})
    assert unread == ["lib.dead", "lib.dead_helper", "lib.self_only"]


def test_every_export_has_a_reader():
    modules = {p.stem: p.read_text() for p in MODULES}
    callers = [p.read_text() for p in CALLERS]
    assert unread_exports(modules, callers, keep=KEEP_EXPORTED) == []
    # each kept name is still exported and still has no reader but the tests
    assert {entry.partition(".")[2] for entry in unread_exports(modules, callers)} == set(KEEP_EXPORTED)


def test_traced_layer_functions_exist():
    # bench/layertrace.py aborts a traced run on a missing boundary function;
    # catching that here keeps a deleted layer from surfacing only there
    path = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("_layertrace", path)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    for module_name, functions in layertrace.LAYER_FUNCTIONS.values():
        module = importlib.import_module(module_name)
        for name in functions:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"


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
    table = homotopy.sweep(u0, 2, schedule, t_eval, n_values, dt_init=dt, clamp_floor=1e-14)
    assert [r.status for r in table.rows] == ["ok"] * len(n_values)
    assert calls["solve"] == 1
    # each row's config samples its coefficient once; then one call per state
    assert calls["coef"] == len(n_values) + 1 + round(t_eval / dt)
