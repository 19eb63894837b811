"""Single-call timings of the layer baselines the ROADMAP records.

    python3 perfbench/baselines.py

Prints the median of several calls of: one cold stream solve at three grid
sizes (with its CG iterations), the kernel boundary data of one solve at two
sizes, and one advection, one diffusion half step and one diagnostics record
at 96x192, all on a Gaussian ring.  The end-to-end baselines (the reference
run, the A_p scan) come from run.py's ring_run and ineq_scan workloads.
"""

import os
import statistics
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

import axisymlab as ax  # noqa: E402


def _median_s(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def _ring_omega(nr):
    grid = ax.build_grid(nr, 2 * nr, 3.0, -3.0, 3.0)
    xi = ax.gaussian_ring_xi(grid, 1.0, 0.0, 0.3, 1.0)
    return ax.ScalarField(grid, grid.r_col * xi.values, role="vorticity")


def main() -> int:
    for nr, repeats in ((96, 5), (192, 3), (256, 1)):
        omega = _ring_omega(nr)
        t, (_, report) = _median_s(lambda: ax.solve_stream_function(omega), repeats)
        print(f"stream solve {nr}x{2 * nr}: {t:.4g} s, {report.iterations} CG iterations")
    for nr in (96, 128):
        omega = _ring_omega(nr)
        g = omega.grid
        points = np.vstack([np.column_stack([np.full(g.nz, g.r_max), g.z_centers]),
                            np.column_stack([g.r_centers, np.full(g.nr, g.z_min)]),
                            np.column_stack([g.r_centers, np.full(g.nr, g.z_max)])])
        t, _ = _median_s(lambda: ax.kernel_stream_values(omega, points), 3)
        print(f"kernel boundary data {nr}x{2 * nr}: {t:.4g} s per solve")

    grid = ax.build_grid(96, 192, 3.0, -3.0, 3.0)
    state = ax.make_state(grid, ax.gaussian_ring_xi(grid, 1.0, 0.0, 0.3, 1.0), 1e-2)
    u, xi = state.u, state.xi
    t, _ = _median_s(lambda: ax.advect_semi_lagrangian(xi, u, 0.01), 20)
    print(f"advection 96x192: {1e3 * t:.3g} ms")
    t, _ = _median_s(lambda: ax.diffuse_relative_vorticity(xi, 1e-2, 0.005), 20)
    print(f"diffusion half step 96x192: {1e3 * t:.3g} ms")
    t, _ = _median_s(lambda: ax.compute_record(state, [1.0, 1.5, 2.0, 3.0]), 20)
    print(f"diagnostics record 96x192: {1e3 * t:.3g} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
