"""One benchmark process: set up a workload, then time its repetitions.

    python3 bench/worker.py --workload W --seed N --out DIR (--seconds S | --setup-only)
                            [--trace 0|1]

Prints ``BENCH-READY`` once polyheat is imported and the workload's inputs
are built, then a single ``BENCH-RESULT <json>`` line after the last
repetition.  The process pins itself to one CPU and times the workload's
speed probe (``probes.py``) right before each repetition.  Other stdout
lines (the CLI's own messages) are not protocol.
``bench/run.py`` starts this process and turns its result into metrics.

With ``--trace 1`` the FFT wrappers go in before polyheat is imported and
the layer wrappers right after; repetitions then alternate untraced and
traced, starting untraced, so the tracing overhead is measured in the same
process.  Only traced repetitions carry per-layer numbers; the spans of the
last one go to ``<DIR>-spans.json``, next to the output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _thread_count() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def _blas_name(numpy) -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the repetitions' artifacts")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, help="start no repetition that would end past this")
    parser.add_argument("--setup-only", action="store_true", help="exit after BENCH-READY")
    args = parser.parse_args(argv)
    if args.seconds is None and not args.setup_only:
        parser.error("--seconds is required unless --setup-only is given")
    return args


def _run_reps(args, workload, tracer, probe) -> list:
    reps = []
    cycles = []
    min_reps = 2 if tracer is not None else 1
    start = perf_counter()
    while True:
        traced = tracer is not None and len(reps) % 2 == 1
        cycle_start = perf_counter()
        workload.reset()
        probe_s = probe()
        if traced:
            tracer.reset()
            tracer.active = True
        error = None
        t0 = perf_counter()
        try:
            workload.run()
        except Exception:  # noqa: BLE001 - a failed repetition is counted, not fatal
            error = traceback.format_exc(limit=-3)
        wall = perf_counter() - t0
        if traced:
            tracer.active = False
        rep = {
            "raw_s": wall,
            "probe_s": probe_s,
            "wall_s": wall * probe.reference_s / probe_s,
            "traced": traced,
            "err_rel": None,
            "failed_gates": [],
        }
        if error is None:
            try:
                rep["err_rel"], gates = workload.check()
                rep["failed_gates"] = [name for name, ok in gates.items() if not ok]
            except Exception:  # noqa: BLE001 - unreadable outputs fail the repetition
                error = traceback.format_exc(limit=-3)
        rep["error"] = error
        rep["ok"] = error is None and not rep["failed_gates"]
        if not rep["ok"]:
            print(f"repetition {len(reps)} failed: {error or rep['failed_gates']}", file=sys.stderr)
        if traced:
            rep["layers"] = tracer.summary()
        # persistent BLAS/OpenMP threads show here; the sweep's pool thread
        # lives only during a repetition
        rep["threads"] = _thread_count()
        reps.append(rep)
        cycles.append(perf_counter() - cycle_start)

        # stop before a repetition that would likely end past the window
        if len(reps) >= min_reps and perf_counter() - start + statistics.median(cycles) > args.seconds:
            return reps


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "polyheat" / "__init__.py").is_file():
        print(f"error: no polyheat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the probe and the repetition, the sweep's pool thread included, share a CPU
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.Tracer()
        layertrace.install_fft(tracer)

    import numpy
    import scipy

    import polyheat
    import probes
    import workloads

    if Path(polyheat.__file__).resolve().parent != SRC / "polyheat":
        print(f"error: imported polyheat from {polyheat.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, Path(args.out))
    probe = probes.Probe(workload.probe)
    if tracer is not None:
        layertrace.install_layers(tracer)
    print("BENCH-READY", flush=True)
    if args.setup_only:
        return 0

    reps = _run_reps(args, workload, tracer, probe)
    if tracer is not None:
        out = Path(args.out)
        tracer.write_spans(out.parent / f"{out.name}-spans.json")
    result = {
        "reps": reps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "expected_layers": sorted(workload.layers),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "polyheat": polyheat.__version__,
            "blas": _blas_name(numpy),
        },
    }
    print("BENCH-RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
