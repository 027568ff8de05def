"""Run one workload of the fournls benchmark and print its metrics.

    python3 perfbench/run.py --workload lwp-flow --seed 1 --seconds 20 --trace 0

The workload runs in this one process as a closed loop: each operation starts
when the previous one ends, and rounds of the same operations repeat while
another round fits in ``--seconds`` (at least one round runs).  With
``--trace 0`` the last line of standard output holds the end-to-end metrics;
with ``--trace 1`` every public function of the package is wrapped in a span
and the last line holds the per-layer metrics instead.  The line before it
records every number a check compared, the set-up timings and the
environment.  Run it from the root of a source checkout; it exits with code 2
when the package sources are not there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter, process_time

# One thread each for BLAS and OpenMP: the package's FFTs are single-threaded,
# so the process uses one core and a "speed-up" from extra threads shows in cpu_s.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _environment(np):
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _median(xs):
    s = sorted(xs)
    n = len(s)
    return s[n // 2] if n % 2 else 0.5 * (s[n // 2 - 1] + s[n // 2])


def main(argv=None) -> int:
    t_start = perf_counter()
    args = _parse(argv)
    if not (ROOT / "src" / "fournls" / "__init__.py").is_file():
        print(f"fournls sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    for var in THREAD_VARS:
        os.environ[var] = "1"

    import numpy as np

    import fournls
    from perfbench import trace, workloads

    if Path(fournls.__file__).resolve().parent != ROOT / "src" / "fournls":
        print(f"imported fournls from {fournls.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import_s = perf_counter() - t_start
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload '{args.workload}'; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    setup, operations = workloads.WORKLOADS[args.workload]

    # set-up: inputs built several times (median taken), then one transform
    # at each grid size so that first-call costs fall before the timed part
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        inputs = setup(args.seed)
        builds.append(perf_counter() - t0)
    t0 = perf_counter()
    for m in inputs["fft_sizes"]:
        np.fft.ifft(np.fft.fft(np.ones(m, dtype=np.complex128)))
    warmup_s = perf_counter() - t0
    setup_s = import_s + _median(builds) + warmup_s

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    ops = operations(inputs, out_dir)

    tracer = None
    if args.trace:
        tracer = trace.Tracer()
        tracer.install()

    def span(name):
        return tracer.span(name) if tracer else nullcontext()

    attempted = failed = 0
    all_passed = True
    last_checks: dict = {}
    errors: list = []
    walls, cpus = [], []
    op_walls: dict = {}
    t_loop = perf_counter()
    while True:
        w0, c0 = perf_counter(), process_time()
        with span("bench.round"):
            for name, op in ops:
                attempted += 1
                o0 = perf_counter()
                try:
                    with span(f"bench.{name}"):
                        recs = op()
                except Exception as exc:  # a failed operation is counted, the loop goes on
                    failed += 1
                    errors.append(f"{name}: {type(exc).__name__}: {exc}")
                    traceback.print_exc(file=sys.stderr)
                    continue
                finally:
                    op_walls.setdefault(name, []).append(perf_counter() - o0)
                last_checks[name] = recs
                all_passed &= all(r["passed"] for r in recs)
        walls.append(perf_counter() - w0)
        cpus.append(process_time() - c0)
        if perf_counter() - t_loop + _median(walls) > args.seconds:
            break
    rounds = len(walls)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": rounds,
        "round_wall_s": walls,
        "round_cpu_s": cpus,
        "op_wall_s": op_walls,
        "setup": {"import_s": import_s, "build_s": builds, "warmup_s": warmup_s},
        "checks": last_checks,
        "errors": errors,
        "env": _environment(np),
    }
    if tracer:
        tracer.remove()
        values = trace.layer_metrics(tracer.spans, rounds)
        metrics = {n: {"value": values[n], "unit": u} for n, u in trace.PER_LAYER}
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(trace_path)
        info["trace_file"] = str(trace_path.relative_to(ROOT))
        info["traced_run_s"] = _median(walls)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": _median(walls), "unit": "s"},
            "cpu_s": {"value": _median(cpus), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    print(json.dumps(info))
    print(json.dumps({"correct": bool(all_passed), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
