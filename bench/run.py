"""polyheat benchmark: one workload, one seed, one measurement window.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics (wall_s, err_rel, setup_s, peak_rss_mb); with
``--trace 1`` it carries the per-layer metrics instead.  Lines before it
are a human-readable digest and the provenance record.  Repetitions whose
outputs miss an acceptance gate count as failed and are never timed.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("solve_1d_linear", "solve_2d", "branch_sweep", "kernel_tables")
# setup-only workers started before the measuring worker, and again after it;
# setup_s is the median over these and the measuring worker
SETUP_SAMPLES_EACH_SIDE = 3
# Each set-up time is scaled by the fastest of three bare interpreter starts
# timed just before it, as wall_s is by the speed probe.  Over 107 set-up
# samples, medians of seven spread 0.39 unscaled and 0.10 scaled.  This is
# the start time on a quiet core of the machine the benchmark was built on.
START_PROBE_REFERENCE_S = 0.045
# one process, one compute thread: BLAS/OpenMP pools pinned to a single thread
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# every worker of a run is killed once the run has taken this long
RUN_LIMIT_S = 170.0

# Per-layer metrics come from BENCHMARK.json; each name is "<traced layer>.<summary
# key>", apart from the exceptions here and the tracing-overhead ratio.
NAME_EXCEPTIONS = {"kernel.quadrature_nodes": ("kernel.profile_bessel", "quadrature_nodes")}
OVERHEAD_METRIC = "trace.overhead_ratio"


class BenchError(RuntimeError):
    pass


def _worker_cmd(args, out: Path, setup_only: bool) -> list:
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--out", str(out), "--trace", str(args.trace),
    ]
    if setup_only:
        return cmd + ["--setup-only"]
    return cmd + ["--seconds", str(args.seconds)]


def _start_probe_s() -> float:
    """Seconds the fastest of three bare interpreter starts took just now."""
    times = []
    for _ in range(3):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append(perf_counter() - start)
    return min(times)


def _setup_sample(args, out: Path, deadline: float, setup_only: bool):
    """Start one worker; return its set-up time, raw and probe-scaled, and its result."""
    probe_s = _start_probe_s()
    ready, result = _spawn(_worker_cmd(args, out, setup_only), deadline)
    return {"raw_s": ready, "probe_s": probe_s, "setup_s": ready * START_PROBE_REFERENCE_S / probe_s}, result


def _spawn(cmd, deadline: float):
    """Run one worker; return (seconds from start to BENCH-READY, result or None).

    The worker is killed if it is still running at ``deadline`` (a
    ``perf_counter`` value).
    """
    env = dict(os.environ, **THREAD_ENV)
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
    timer.start()
    ready = None
    result = None
    try:
        for line in proc.stdout:
            if line.startswith("BENCH-READY") and ready is None:
                ready = perf_counter() - start
            elif line.startswith("BENCH-RESULT "):
                result = json.loads(line.split(" ", 1)[1])
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready is None:
        raise BenchError(f"worker exited with code {code} ({' '.join(cmd[1:4])})")
    return ready, result


def _percentile_note(samples) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    p = math.floor(100 * (1 - 10 / n)) if n > 10 else 0
    if p <= 50:
        return f"n={n}; too few samples for a percentile above the median"
    value = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return f"n={n}; p{p} {value:.6g} s"


def _provenance(result) -> dict:
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches.append(f"L{level} {kind} {size}")
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "caches": caches,
        "thread_env": THREAD_ENV,
        "worker_threads_between_reps": max(rep["threads"] for rep in result["reps"]),
        **result["versions"],
    }


def _end_to_end(result, setup) -> dict:
    ok = [rep for rep in result["reps"] if rep["ok"]]
    return {
        "wall_s": {"value": statistics.median(rep["wall_s"] for rep in ok), "unit": "s"},
        "err_rel": {"value": statistics.median(rep["err_rel"] for rep in ok), "unit": "1"},
        "setup_s": {"value": statistics.median(sample["setup_s"] for sample in setup), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
    }


def _layer_key(metric: str):
    """The traced layer and the summary key a per-layer metric reads."""
    return NAME_EXCEPTIONS.get(metric) or tuple(metric.rsplit(".", 1))


def _per_layer(result, expected, specs) -> dict:
    traced = [rep for rep in result["reps"] if rep["traced"] and rep["ok"]]
    plain = [rep for rep in result["reps"] if not rep["traced"] and rep["ok"]]
    if not traced or not plain:
        raise BenchError("a traced run needs at least one passing traced and one untraced repetition")
    layers = [rep["layers"] for rep in traced]
    first = layers[0]
    for other in layers[1:]:
        for name in first:
            if {k: v for k, v in other[name].items() if k != "self_s"} != {
                k: v for k, v in first[name].items() if k != "self_s"
            }:
                raise BenchError(f"{name} counts differ between traced repetitions")
    called = {name for name, layer in first.items() if layer["calls"] > 0}
    if called != set(expected):
        raise BenchError(
            f"traced layers {sorted(called)} differ from the expected {sorted(expected)}: "
            "a wrapper went blind or a layer moved"
        )
    metrics = {}
    for spec in specs:
        metric = spec["name"]
        if metric == OVERHEAD_METRIC:
            # the untraced repetitions still pass through the inactive wrappers
            value = statistics.median(rep["wall_s"] for rep in traced) / statistics.median(
                rep["wall_s"] for rep in plain
            )
        else:
            name, key = _layer_key(metric)
            if name not in first:
                raise BenchError(f"per-layer metric {metric} names no traced layer")
            if key == "self_s":
                value = statistics.median(layer[name]["self_s"] for layer in layers)
            else:
                value = first[name].get(key, 0)
        metrics[metric] = {"value": value, "unit": spec["unit"]}
    return metrics


def _parse(argv):
    parser = argparse.ArgumentParser(description="polyheat benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "polyheat" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/polyheat: run from a polyheat checkout", file=sys.stderr)
        return 2
    # workers and start probes inherit this CPU, the one each worker pins itself to
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    base = ROOT / ".bench_out"
    out = base / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    deadline = perf_counter() + RUN_LIMIT_S
    setup_samples = 0 if args.trace else SETUP_SAMPLES_EACH_SIDE
    try:
        specs = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        setup = [_setup_sample(args, out, deadline, setup_only=True)[0] for _ in range(setup_samples)]
        sample, result = _setup_sample(args, out, deadline, setup_only=False)
        if result is None:
            raise BenchError("worker printed no result")
        setup.append(sample)
        setup += [_setup_sample(args, out, deadline, setup_only=True)[0] for _ in range(setup_samples)]
        reps = result["reps"]
        failed = sum(1 for rep in reps if not rep["ok"])
        walls = [rep["wall_s"] for rep in reps if rep["ok"] and not rep["traced"]]
        raw = [rep["raw_s"] for rep in reps if rep["ok"] and not rep["traced"]]
        if failed == len(reps):
            metrics = {}
        elif args.trace:
            metrics = _per_layer(result, result["expected_layers"], specs)
        else:
            metrics = _end_to_end(result, setup)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)

    provenance = _provenance(result)
    base.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
              "setup_samples": setup, "provenance": provenance, "reps": reps, "metrics": metrics}
    (base / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"# {args.workload} seed {args.seed}: {len(reps)} repetitions, {failed} failed")
    if walls:
        print(f"# wall_s median {statistics.median(walls):.6g} s ({_percentile_note(walls)}); "
              f"unscaled median {statistics.median(raw):.6g} s")
    if not args.trace:
        print(f"# setup_s over {len(setup)} processes: unscaled median "
              f"{statistics.median(sample['raw_s'] for sample in setup):.6g} s")
    traced = [rep["layers"] for rep in reps if rep["traced"] and rep["ok"]]
    if traced:
        absent = [name for name, layer in traced[0].items() if layer["calls"] == 0]
        called = [f"{name} x{layer['calls']}" for name, layer in traced[0].items() if layer["calls"]]
        print(f"# layers called: {', '.join(called)}; absent: {', '.join(absent) or 'none'}")
    print("# provenance " + json.dumps(provenance))
    print(json.dumps({"correct": failed == 0, "attempted": len(reps), "failed": failed, "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
