"""Spans around the calls into each axisymlab module, recorded from outside.

A traced round replaces every binding of a traced function in every loaded
axisymlab module with a wrapper that records a span (name, start, end,
parent, counters).  Several modules import functions by name (for example
`evolution` and `lagrangian` bind `weighted_pcg` and `interp_bicubic` at
import), so patching only the defining module would leave their calls
untraced and the counts silently at zero; the wrapper therefore goes into
each module whose namespace holds the function.  Spans stay in memory and
are written once, when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

import numpy as np


def _iterations_info(args, kwargs, result):
    return {"iterations": result[1].iterations}


def _kernel_info(args, kwargs, result):
    omega, points = args[0], args[1]
    return {"pairs": int(np.atleast_2d(points).shape[0]) * int(np.count_nonzero(omega.values))}


def _interp_info(args, kwargs, result):
    return {"points": int(np.size(args[2] if len(args) > 2 else kwargs["r_query"]))}


def _trace_info(args, kwargs, result):
    return {"seed_steps": (result.positions.shape[0] - 1) * result.positions.shape[1]}


def _transport_info(args, kwargs, result):
    return {"steps": result.times.size - 1}


def _ap_info(args, kwargs, result):
    return {"balls": result.samples}


def _suite_info(args, kwargs, result):
    return {"suite": result["suite"]}


# (module, function, counter extractor); the public functions of each layer
# that the workloads reach
TRACED = [
    ("config", "validate_config_dict", None),
    ("config", "load_config_file", None),
    ("config", "run_from_config", None),
    ("evolution", "run", None),
    ("evolution", "make_state", None),
    ("evolution", "refresh_velocity", None),
    ("evolution", "step_viscous", None),
    ("evolution", "step_conservative_omega", None),
    ("evolution", "advect_semi_lagrangian", None),
    ("evolution", "diffuse_relative_vorticity", None),
    ("evolution", "diffuse_vorticity", None),
    ("evolution", "write_checkpoint", None),
    ("biot_savart", "solve_stream_function", _iterations_info),
    ("biot_savart", "kernel_stream_values", _kernel_info),
    ("biot_savart", "velocity_from_stream", None),
    ("solvers", "weighted_pcg", _iterations_info),
    ("interpolation", "interp_bicubic", _interp_info),
    ("interpolation", "sample_velocity", None),
    ("diagnostics", "compute_record", None),
    ("diagnostics", "write_csv", None),
    ("lagrangian", "trace_flow", _trace_info),
    ("lagrangian", "solve_forward_transport", _transport_info),
    ("lagrangian", "solve_backward_transport", _transport_info),
    ("lagrangian", "renorm_residual", None),
    ("lagrangian", "duality_check", None),
    ("inequalities", "run_suite", _suite_info),
    ("inequalities", "ap_scan", _ap_info),
    ("inequalities", "ap_product", None),
    ("inequalities", "nash_ratio", None),
    ("inequalities", "weighted_sobolev_ratio", None),
    ("inequalities", "interpolation_ratio", None),
    ("inequalities", "hardy_ratio", None),
    ("test_functions", "support_quadrature", None),
    ("test_functions", "random_test_functions", None),
    ("test_functions", "renorm_test_library", None),
]

LAYERS = sorted({module for module, _, _ in TRACED})


class Tracer:
    """In-memory span recorder; install() and uninstall() bracket a traced round."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, counters or None]
        self._stack = []
        self._patches = []  # (module, attribute, original)
        self.absent = set()

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def _wrapper(self, name, fn, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if info is not None:
                self.spans[idx][4] = info(args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "axisymlab" or key.startswith("axisymlab."))]
        for module_name, func_name, info in TRACED:
            home = sys.modules.get(f"axisymlab.{module_name}")
            fn = getattr(home, func_name, None)
            if fn is None:
                self.absent.add(f"{module_name}.{func_name}")
                continue
            wrapper = self._wrapper(f"{module_name}.{func_name}", fn, info)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "counters"], "spans": self.spans}, f)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of the traced rounds


# name: (unit, functions it needs); a metric whose function no longer exists
# is reported as absent
PER_LAYER = {
    "biot_savart.stream_solves": ("count", ("biot_savart.solve_stream_function",)),
    "biot_savart.stream_solve_s": ("s", ("biot_savart.solve_stream_function",)),
    "biot_savart.cg_iterations": ("count", ("biot_savart.solve_stream_function",)),
    "biot_savart.kernel_values_s": ("s", ("biot_savart.kernel_stream_values", "biot_savart.solve_stream_function")),
    "biot_savart.kernel_pairs": ("count", ("biot_savart.kernel_stream_values",)),
    "solvers.pcg_calls": ("count", ("solvers.weighted_pcg",)),
    "solvers.pcg_iterations": ("count", ("solvers.weighted_pcg",)),
    "solvers.pcg_s": ("s", ("solvers.weighted_pcg",)),
    "evolution.step_s": ("s", ("evolution.step_viscous", "evolution.step_conservative_omega")),
    "evolution.advection_s": ("s", ("evolution.advect_semi_lagrangian",)),
    "evolution.diffusion_s": ("s", ("evolution.diffuse_relative_vorticity", "evolution.diffuse_vorticity")),
    "evolution.checkpoint_s": ("s", ("evolution.write_checkpoint",)),
    "interpolation.points": ("count", ("interpolation.interp_bicubic",)),
    "interpolation.points_per_s": ("1/s", ("interpolation.interp_bicubic",)),
    "diagnostics.records": ("count", ("diagnostics.compute_record",)),
    "diagnostics.record_s": ("s", ("diagnostics.compute_record",)),
    "lagrangian.trace_seed_steps": ("count", ("lagrangian.trace_flow",)),
    "lagrangian.trace_s": ("s", ("lagrangian.trace_flow",)),
    "lagrangian.transport_step_s": ("s", ("lagrangian.solve_forward_transport", "lagrangian.solve_backward_transport")),
    "lagrangian.renorm_s": ("s", ("lagrangian.renorm_residual",)),
    "lagrangian.duality_s": ("s", ("lagrangian.duality_check",)),
    "inequalities.ap_balls_per_s": ("1/s", ("inequalities.ap_scan",)),
    "inequalities.ap_s": ("s", ("inequalities.ap_scan",)),
    "inequalities.nash_s": ("s", ("inequalities.run_suite",)),
    "inequalities.sobolev_s": ("s", ("inequalities.run_suite",)),
    "inequalities.interp_s": ("s", ("inequalities.run_suite",)),
    "inequalities.hardy_s": ("s", ("inequalities.run_suite",)),
    "test_functions.quadratures": ("count", ("test_functions.support_quadrature",)),
    "test_functions.quadrature_s": ("s", ("test_functions.support_quadrature",)),
    "config.import_s": ("s", ()),
    "config.validate_s": ("s", ()),
    "trace.overhead_s": ("s", ()),
}
for _layer in LAYERS + ["bench"]:
    PER_LAYER[f"{_layer}.self_s"] = ("s", ())


def _mean(values):
    return float(np.mean(values)) if values else 0.0


def layer_metrics(spans, rounds: int) -> dict:
    """Per-layer values from spans; counts and self times are per traced round.

    Times named *_s are seconds per call of the function named in the
    README, except self_s (seconds per round of time inside the layer's
    spans and outside their children) and kernel_values_s (seconds of
    kernel summation per stream solve).
    """
    dur = {}
    info = {}
    child = [0.0] * len(spans)
    for name, start, end, parent, counters in spans:
        dur.setdefault(name, []).append(end - start)
        info.setdefault(name, []).append(counters or {})
        if parent >= 0:
            child[parent] += end - start
    self_s = {}
    for (name, start, end, _, _), inner in zip(spans, child):
        layer = name.split(".")[0]
        self_s[layer] = self_s.get(layer, 0.0) + (end - start) - inner

    def d(name):
        return dur.get(name, [])

    def total(name, key):
        return sum(c.get(key, 0) for c in info.get(name, []))

    solves = d("biot_savart.solve_stream_function")
    interp = d("interpolation.interp_bicubic")
    transport = d("lagrangian.solve_forward_transport") + d("lagrangian.solve_backward_transport")
    transport_steps = total("lagrangian.solve_forward_transport", "steps") + total(
        "lagrangian.solve_backward_transport", "steps")
    ap = d("inequalities.ap_scan")
    suites = {}
    for (name, start, end, _, counters) in spans:
        if name == "inequalities.run_suite":
            suites.setdefault(counters["suite"], []).append(end - start)
    out = {
        "biot_savart.stream_solves": len(solves) / rounds,
        "biot_savart.stream_solve_s": _mean(solves),
        "biot_savart.cg_iterations": total("biot_savart.solve_stream_function", "iterations") / max(len(solves), 1),
        "biot_savart.kernel_values_s": sum(d("biot_savart.kernel_stream_values")) / max(len(solves), 1),
        "biot_savart.kernel_pairs": total("biot_savart.kernel_stream_values", "pairs") / rounds,
        "solvers.pcg_calls": len(d("solvers.weighted_pcg")) / rounds,
        "solvers.pcg_iterations": total("solvers.weighted_pcg", "iterations") / max(len(d("solvers.weighted_pcg")), 1),
        "solvers.pcg_s": _mean(d("solvers.weighted_pcg")),
        "evolution.step_s": _mean(d("evolution.step_viscous") + d("evolution.step_conservative_omega")),
        "evolution.advection_s": _mean(d("evolution.advect_semi_lagrangian")),
        "evolution.diffusion_s": _mean(d("evolution.diffuse_relative_vorticity") + d("evolution.diffuse_vorticity")),
        "evolution.checkpoint_s": _mean(d("evolution.write_checkpoint")),
        "interpolation.points": total("interpolation.interp_bicubic", "points") / rounds,
        "interpolation.points_per_s": total("interpolation.interp_bicubic", "points") / sum(interp) if interp else 0.0,
        "diagnostics.records": len(d("diagnostics.compute_record")) / rounds,
        "diagnostics.record_s": _mean(d("diagnostics.compute_record")),
        "lagrangian.trace_seed_steps": total("lagrangian.trace_flow", "seed_steps") / rounds,
        "lagrangian.trace_s": _mean(d("lagrangian.trace_flow")),
        "lagrangian.transport_step_s": sum(transport) / transport_steps if transport_steps else 0.0,
        "lagrangian.renorm_s": _mean(d("lagrangian.renorm_residual")),
        "lagrangian.duality_s": _mean(d("lagrangian.duality_check")),
        "inequalities.ap_balls_per_s": total("inequalities.ap_scan", "balls") / sum(ap) if ap else 0.0,
        "inequalities.ap_s": _mean(ap),
        "inequalities.nash_s": _mean(suites.get("nash", [])),
        "inequalities.sobolev_s": _mean(suites.get("sobolev", [])),
        "inequalities.interp_s": _mean(suites.get("interp", [])),
        "inequalities.hardy_s": _mean(suites.get("hardy", [])),
        "test_functions.quadratures": len(d("test_functions.support_quadrature")) / rounds,
        "test_functions.quadrature_s": _mean(d("test_functions.support_quadrature")),
    }
    for layer in LAYERS + ["bench"]:
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0) / rounds
    return out


def absent_metrics(absent: set) -> list:
    """Metrics that need a traced function the program no longer has."""
    gone = [name for name, (_, needs) in PER_LAYER.items() if needs and all(n in absent for n in needs)]
    for layer in LAYERS:
        if all(f"{m}.{f}" in absent for m, f, _ in TRACED if m == layer):
            gone.append(f"{layer}.self_s")
    return sorted(gone)
