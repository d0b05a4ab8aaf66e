"""Tests of the benchmark itself (not collected by the package's test run).

    python3 -m pytest -q bench/test_bench.py

The slow tests start real worker processes: each workload once untraced and
twice traced, about 40 s in all on two cores.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layertrace  # noqa: E402
import run  # noqa: E402

# artifacts that legitimately differ between runs (manifests carry timings)
VOLATILE = {"manifest.json"}


def _worker(workload, out, trace):
    """One worker with an empty window: one untraced repetition, then a traced one if tracing."""
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", "7",
        "--out", str(out), "--trace", str(trace), "--seconds", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=dict(os.environ, **run.THREAD_ENV),
                          cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    line = [x for x in proc.stdout.splitlines() if x.startswith("BENCH-RESULT ")][-1]
    return json.loads(line.split(" ", 1)[1])


def _artifacts(out: Path) -> dict:
    return {
        str(p.relative_to(out)): p.read_bytes()
        for p in sorted(out.rglob("*")) if p.is_file() and p.name not in VOLATILE
    }


def _counts(layers: dict) -> dict:
    return {name: {k: v for k, v in layer.items() if k != "self_s"} for name, layer in layers.items()}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_leaves_results_unchanged_and_counts_repeat(workload, tmp_path):
    plain = _worker(workload, tmp_path / "plain", trace=0)
    traced_a = _worker(workload, tmp_path / "traced_a", trace=1)
    traced_b = _worker(workload, tmp_path / "traced_b", trace=1)

    (reference,) = plain["reps"]
    assert reference["ok"], reference
    for result in (traced_a, traced_b):
        untraced_rep, traced_rep = result["reps"]
        assert not untraced_rep["traced"] and traced_rep["traced"]
        assert traced_rep["ok"], traced_rep
        assert traced_rep["err_rel"] == reference["err_rel"]

    # the outputs on disk are those of the last, traced, repetition
    expected = _artifacts(tmp_path / "plain")
    assert _artifacts(tmp_path / "traced_a") == expected
    assert _artifacts(tmp_path / "traced_b") == expected
    assert (tmp_path / "traced_a-spans.json").is_file()

    counts_a = _counts(traced_a["reps"][1]["layers"])
    assert counts_a == _counts(traced_b["reps"][1]["layers"])
    called = {name for name, layer in counts_a.items() if layer["calls"] > 0}
    assert called == set(traced_a["expected_layers"])
    if workload == "kernel_tables":
        for layer in ("gridfield.fft", "solver.solve", "degeneracy.coef"):
            assert counts_a[layer]["calls"] == 0


def test_every_per_layer_metric_reads_a_traced_layer():
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    names = {spec["name"] for spec in specs}
    assert run.OVERHEAD_METRIC in names
    for name in names - {run.OVERHEAD_METRIC}:
        assert run._layer_key(name)[0] in layertrace.LAYERS, name


def test_missing_layer_function_aborts():
    import polyheat  # noqa: F401

    with pytest.raises(layertrace.TracerError, match="missing"):
        layertrace.install_layers(layertrace.Tracer(), {"solver.step": ("polyheat.solver", ("no_such_step",))})


def test_fft_wrappers_refuse_a_late_install():
    import polyheat  # noqa: F401

    with pytest.raises(layertrace.TracerError, match="before polyheat"):
        layertrace.install_fft(layertrace.Tracer())


def test_fft_counters():
    complex_2d = np.zeros((256, 256), dtype=complex)
    out = np.fft.fftn(complex_2d)
    counters = layertrace._fft_counters("fftn")((complex_2d,), {}, out)
    assert counters == {"bytes": 2 * complex_2d.nbytes, "flops": 5.0 * 65536 * 16}

    real_1d = np.zeros(256)
    half = np.fft.rfft(real_1d)
    assert layertrace._fft_counters("rfft")((real_1d,), {}, half)["flops"] == 0.5 * 5.0 * 256 * 8
    back = np.fft.irfft(half)
    assert layertrace._fft_counters("irfft")((half,), {}, back)["flops"] == 0.5 * 5.0 * 256 * 8

    batch = np.zeros((4, 64), dtype=complex)
    assert layertrace._fft_counters("fft")((batch,), {}, np.fft.fft(batch))["flops"] == 5.0 * 256 * 6


def test_self_time_excludes_children():
    tracer = layertrace.Tracer()
    inner = tracer.wrap("degeneracy.coef", lambda: sum(range(10**5)))
    outer = tracer.wrap("solver.solve", lambda: [inner() for _ in range(3)])
    tracer.active = True
    outer()
    tracer.active = False
    summary = tracer.summary()
    solve_span, *coef_spans = tracer.spans
    total = solve_span[3] - solve_span[2]
    children = sum(s[3] - s[2] for s in coef_spans)
    assert summary["degeneracy.coef"]["calls"] == 3
    assert summary["solver.solve"]["self_s"] == pytest.approx(total - children)
    assert summary["gridfield.fft"] == {"calls": 0, "self_s": 0.0}


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "kernel_tables", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
