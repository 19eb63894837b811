"""The benchmark's tracer still sees the calls its traffic checks count.

perfbench/tracer.py wraps functions by replacing their module-global
bindings, so a layer whose calls bypass those bindings reads zero traffic and
the benchmark marks the run incorrect.  This loads the tracer by path and
runs a tiny slice of each PDE workload and one inequality suite under it.
"""

import importlib.util
import os

import numpy as np
import pytest

from axisymlab import biot_savart, evolution, inequalities, lagrangian
from axisymlab.evolution import TimeStepPlan, make_state
from axisymlab.grid import ScalarField, VelocityField, build_grid
from axisymlab.initial_conditions import gaussian_ring_xi

_TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_every_traced_layer():
    tracing = _load_tracer()
    grid = build_grid(16, 32, 3.0, -3.0, 3.0)
    xi = gaussian_ring_xi(grid, 1.0, 0.0, 0.3, 5.0)
    r2d, z2d = grid.meshes()
    theta0 = ScalarField(grid, np.exp(-((r2d - 1.0) ** 2 + z2d**2) / 0.2), role="passive_scalar")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        state = make_state(grid, xi, 1e-2)
        evolution.run(state, 0.02, TimeStepPlan(dt=0.01))
        series = lagrangian.VelocitySeries.frozen(state.u, 0.02)
        lagrangian.solve_forward_transport(series, theta0, 0.02, 2, nu=1e-2)
        inequalities.run_suite("nash", sample_count=3, quadrature_n=16)
    finally:
        tracer.uninstall()
    assert tracer.absent == {"solvers.weighted_pcg"}
    metrics = tracing.layer_metrics(tracer.spans, 1)
    for name in ("interpolation.points", "biot_savart.stream_solves",
                 "test_functions.quadratures", "evolution.advection_s",
                 "evolution.diffusion_s"):
        assert metrics[name] > 0, name


def test_tracer_counts_the_conservative_kernel_route():
    # hill_kernel's traffic check reads kernel_pairs from the omega route
    tracing = _load_tracer()
    grid = build_grid(16, 32, 3.0, -3.0, 3.0)
    xi = gaussian_ring_xi(grid, 1.0, 0.0, 0.3, 5.0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        state = make_state(grid, xi, 1e-2, boundary="kernel")
        evolution.run(state, 0.02, TimeStepPlan(dt=0.01, scheme="omega_conservative"))
    finally:
        tracer.uninstall()
    assert tracer.absent == {"solvers.weighted_pcg"}
    metrics = tracing.layer_metrics(tracer.spans, 1)
    for name in ("biot_savart.kernel_pairs", "evolution.step_s"):
        assert metrics[name] > 0, name


def test_kernel_tables_are_built_once_per_grid(monkeypatch):
    # hill_kernel's speed rests on the grid keeping its boundary plan: more
    # steps, or a second state on the same grid, evaluate no new kernel table
    calls = []
    ring_stream = biot_savart.ring_stream

    def counted(*args):
        calls.append(args)
        return ring_stream(*args)

    monkeypatch.setattr(biot_savart, "ring_stream", counted)

    def kernel_run(steps):
        calls.clear()
        grid = build_grid(16, 32, 3.0, -3.0, 3.0)
        xi = gaussian_ring_xi(grid, 1.0, 0.0, 0.3, 5.0)
        state = make_state(grid, xi, 1e-2, boundary="kernel")
        evolution.run(state, 0.01 * steps, TimeStepPlan(dt=0.01, scheme="omega_conservative"))
        return grid, xi, len(calls)

    _, _, one_step = kernel_run(1)
    grid, xi, five_steps = kernel_run(5)
    # one table per face radius: the r = r_max face and each cell radius
    assert one_step == five_steps == grid.nr + 1
    make_state(grid, xi, 1e-2, boundary="kernel")
    assert len(calls) == five_steps


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_frozen_transport_samples_its_departures_once(direction):
    # one departure computation (both velocity components at the midpoints)
    # and one application per step: a lost reuse or an interpolation that
    # bypasses the traced binding changes the count
    tracing = _load_tracer()
    grid = build_grid(16, 32, 3.0, -3.0, 3.0)
    r2d, z2d = grid.meshes()
    u = VelocityField(grid, 0.3 * z2d * np.exp(-r2d**2), 0.2 + 0.0 * r2d)
    series = lagrangian.VelocitySeries.frozen(u, 0.5)
    n = 5
    tracer = tracing.Tracer()
    tracer.install()
    try:
        if direction == "forward":
            theta0 = ScalarField(grid, np.exp(-((r2d - 1.0) ** 2 + z2d**2)), role="passive_scalar")
            lagrangian.solve_forward_transport(series, theta0, 0.5, n, nu=1e-2)
        else:
            lagrangian.solve_backward_transport(series, lambda t, r, z: np.exp(-r**2 - z**2),
                                                0.5, n, nu=1e-2)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans, 1)
    assert metrics["interpolation.points"] == (n + 2) * grid.nr * grid.nz
