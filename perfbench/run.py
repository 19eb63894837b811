"""Benchmark of axisym-flow-lab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole rounds of one workload for about S seconds in this one process,
checks every round's outputs, and prints one JSON object as the last line of
standard output: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones (setup_s, wall_s, steps_per_s,
peak_rss_mb); with --trace 1 rounds alternate between untraced and traced,
and the metrics are the per-layer ones.  The package is imported from src/
of the checkout this file lives in; see perfbench/README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

# one BLAS thread, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, "perfbench", "results")
WORKLOAD_NAMES = ("ring_run", "hill_kernel", "transport_frozen", "ineq_scan")
SETUP_REPEATS = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Import axisymlab from this checkout's src/; returns the import time."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "axisymlab", "__init__.py")):
        raise SystemExit(f"error: no axisymlab package under {src}")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import axisymlab

    elapsed = time.perf_counter() - t0
    if not os.path.abspath(axisymlab.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: axisymlab was imported from {axisymlab.__file__}, not {src}")
    return elapsed


def _git_commit() -> str:
    """The checkout's commit, read from .git without a subprocess."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _machine() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(), "commit": _git_commit()}


def main(argv=None) -> int:
    args = _parse(argv)
    import_s = _import_program()

    import tracer as tracing
    from workloads import WORKLOADS

    workdir = os.path.join(RESULTS, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _bench(args, import_s, workdir, WORKLOADS[args.workload], tracing)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _bench(args, import_s, workdir, workload_cls, tracing) -> int:
    workload = workload_cls(args.seed, workdir)
    prepare_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.prepare()
        prepare_s.append(time.perf_counter() - t0)
    setup_s = (time.perf_counter() - T_START) - sum(prepare_s) + statistics.median(prepare_s)

    tracer = tracing.Tracer() if args.trace else None
    n_checks = len(workload.check_names)
    rounds = []  # dicts: traced, wall_s, steps, loop_s, checks
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            with tracer.span("bench.round") if traced else contextlib.nullcontext():
                steps, loop_s, results = workload.run_round(inputs)
        except Exception:  # a failed round counts its checks as failed operations
            traceback.print_exc()
            steps, loop_s, results = None, None, None
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        attempted += n_checks
        if results is None:
            failed += n_checks
        rounds.append({"traced": traced, "wall_s": wall, "steps": steps, "loop_s": loop_s,
                       "checks": None if results is None else
                       [{"name": c.name, "value": c.value, "bound": c.bound, "ok": c.ok}
                        for c in results]})
        elapsed = time.perf_counter() - start
        longest = max(r["wall_s"] for r in rounds)
        need_traced_pair = args.trace and len(rounds) < 2
        if not need_traced_pair and elapsed + longest > args.seconds:
            break

    done = [r for r in rounds if r["checks"] is not None]
    correct = all(c["ok"] for r in done for c in r["checks"])
    for r in done:
        for c in r["checks"]:
            if not c["ok"]:
                print(f"check failed: {c['name']} = {c['value']!r} > {c['bound']!r}", file=sys.stderr)

    if args.trace:
        metrics, traffic_ok, absent = _layer_metrics(args, inputs, import_s, rounds, tracer, tracing)
        correct = correct and traffic_ok
        os.makedirs(RESULTS, exist_ok=True)
        tracer.write(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}.trace.json"))
        if absent:
            print("absent (function no longer exists, reported as 0): " + ", ".join(absent))
    else:
        walls = [r["wall_s"] for r in rounds]
        rates = [r["steps"] / (r["loop_s"] or r["wall_s"]) for r in done] or [0.0]
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "steps_per_s": {"value": statistics.median(rates), "unit": "steps/s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MiB"},
        }

    report = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as f:
        json.dump({"args": vars(args), "machine": _machine(), "import_s": import_s,
                   "setup_s": setup_s, "rounds": rounds, "report": report}, f, indent=1)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(report))
    return 0


# counters that must be nonzero (True) or zero (False) on each workload in a
# traced round: a zero where the layer works means a binding was missed, a
# nonzero where it is bypassed means the workload no longer isolates it
TRAFFIC = {
    "ring_run": {"biot_savart.stream_solves": True, "solvers.pcg_calls": True,
                 "interpolation.points": True, "diagnostics.records": True,
                 "biot_savart.kernel_pairs": False, "lagrangian.trace_seed_steps": False},
    "hill_kernel": {"biot_savart.stream_solves": True, "biot_savart.kernel_pairs": True,
                    "solvers.pcg_calls": True, "diagnostics.records": True,
                    "interpolation.points": False},
    "transport_frozen": {"lagrangian.trace_seed_steps": True, "interpolation.points": True,
                         "solvers.pcg_calls": True, "test_functions.quadratures": True,
                         "biot_savart.stream_solves": False, "diagnostics.records": False},
    "ineq_scan": {"test_functions.quadratures": True, "inequalities.ap_s": True,
                  "biot_savart.stream_solves": False, "solvers.pcg_calls": False,
                  "interpolation.points": False},
}


def _layer_metrics(args, inputs, import_s, rounds, tracer, tracing):
    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in rounds if not r["traced"]]
    values = tracing.layer_metrics(tracer.spans, max(len(traced), 1))
    values["config.import_s"] = import_s
    values["config.validate_s"] = inputs.get("validate_s", 0.0)
    values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                  - statistics.median(r["wall_s"] for r in untraced))
    absent = tracing.absent_metrics(tracer.absent)
    ok = True
    for name, nonzero in TRAFFIC[args.workload].items():
        if name in absent:
            continue
        if (values[name] > 0) != nonzero:
            ok = False
            print(f"traffic check failed: {name} = {values[name]!r} on {args.workload}, "
                  f"expected {'nonzero' if nonzero else 'zero'}", file=sys.stderr)
    for name in absent:
        values[name] = 0.0
    total = sum(values[f"{layer}.self_s"] for layer in tracing.LAYERS + ["bench"])
    for layer in tracing.LAYERS + ["bench"]:
        share = values[f"{layer}.self_s"] / total if total else 0.0
        print(f"{args.workload} share {layer:15s} {100.0 * share:6.2f}%")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, (unit, _) in tracing.PER_LAYER.items()}
    return metrics, ok, absent


if __name__ == "__main__":
    sys.exit(main())
