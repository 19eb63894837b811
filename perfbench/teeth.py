"""Show that every correctness check of the benchmark rejects a known-wrong input.

    python3 perfbench/teeth.py [--seed N]

For each check the script evaluates it once on the workload's real output,
where it must pass, and once on an input known to be wrong, where it must
fail.  It prints one line per check and exits with 1 if any check passes a
wrong input or fails a right one.  It takes about a minute.
"""

import argparse
import os
import shutil
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import axisymlab as ax  # noqa: E402
from axisymlab.interpolation import interp_bicubic, sample_velocity  # noqa: E402
from axisymlab.test_functions import integrate_gradient_power, integrate_power  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def _outputs(workload):
    inputs = workload.prepare()
    workloads._cli_run(workload.config_path, workload.out_dir)
    columns = checks.read_csv_columns(os.path.join(workload.out_dir, "diagnostics.csv"))
    header, xi = checks.read_axf1(os.path.join(workload.out_dir, "checkpoint_final.axf1"))
    return inputs["doc"], columns, header, xi


def ring_pairs(seed, workdir):
    doc, columns, header, xi = _outputs(workloads.RingRun(seed, workdir))
    ic, g = doc["initial_condition"], doc["grid"]
    expected = checks.gaussian_ring_impulse(
        ic["r0"], ic["z0"], ic["sigma"], ic["amplitude"], g["z_min"], g["z_max"])
    rising = {k: (v[::-1] if k.startswith("lp_") else v) for k, v in columns.items()}
    growing = dict(columns, energy=2.0 * columns["energy"][0] - columns["energy"])
    return [
        ("lp norms read in reverse time order", checks.lp_monotone(columns), checks.lp_monotone(rising)),
        ("final field shifted one cell outward", checks.impulse_drift(header, xi, expected),
         checks.impulse_drift(header, np.roll(xi, 1, axis=0), expected)),
        ("energy that grows by what it should lose", checks.energy_balance(columns, doc["nu"]),
         checks.energy_balance(growing, doc["nu"])),
    ]


def hill_pairs(seed, workdir):
    right = workloads.HillKernel(seed, workdir)
    doc, _, header, xi = _outputs(right)
    ic = doc["initial_condition"]
    wrong = workloads.HillKernel(seed, workdir)
    wrong.boundary = "zero"
    _, _, header0, xi0 = _outputs(wrong)
    return [("the same run with boundary zero",
             checks.hill_speed(header, xi, ic["radius"], ic["amplitude"]),
             checks.hill_speed(header0, xi0, ic["radius"], ic["amplitude"]))]


def _unclipped_transport(theta0, u, dt, steps):
    """Semi-Lagrangian steps like the program's, but without the monotone clip."""
    grid = u.grid
    r2d, z2d = grid.meshes()
    urm, uzm = sample_velocity(u, r2d - 0.5 * dt * u.u_r, z2d - 0.5 * dt * u.u_z)
    values, out = theta0, []
    for _ in range(steps):
        values = interp_bicubic(values, grid, r2d - dt * urm, z2d - dt * uzm, "even")
        out.append(values)
    return out


def transport_pairs(seed, workdir):
    w = workloads.TransportFrozen(seed, workdir)
    inputs = w.prepare()
    T, n, nu = w.T, w.n_steps, w.nu
    series, theta0, chi, grid, u = (inputs[k] for k in ("series", "theta0", "chi", "grid", "u"))
    flow = ax.trace_flow(series, inputs["seeds"], T)
    inviscid = ax.solve_forward_transport(series, theta0, T, n)
    viscous = ax.solve_forward_transport(series, theta0, T, n, nu=nu)
    dual = ax.solve_backward_transport(series, chi, T, n, nu=nu)
    header = {"nr": grid.nr, "nz": grid.nz, "r_max": grid.r_max, "z_min": grid.z_min, "z_max": grid.z_max}
    r, z, hr, hz = checks.cell_centres(header)

    def duality(source):
        return checks.duality_defect(viscous.times, [f.values for f in viscous.fields],
                                     [f.values for f in dual.fields], source, r, z, hr * hz)

    def residuals(velocity):
        steady = ax.VelocitySeries(inviscid.times, [velocity] * inviscid.times.size)
        return {name: ax.renorm_residual(inviscid, steady, beta, inputs["library"])
                for name, beta in ax.built_in_renorm_functions().items()}

    reversed_u = ax.VelocityField(grid, -u.u_r, -u.u_z)
    return [
        ("trajectories offset by one cell", checks.psi_constant(flow.positions),
         checks.psi_constant(flow.positions + np.array([grid.hr, 0.0]))),
        ("transport without the monotone clip",
         checks.no_new_extremum(theta0.values, [f.values for f in inviscid.fields]),
         checks.no_new_extremum(theta0.values, _unclipped_transport(theta0.values, u, T / n, n))),
        ("a source 10% stronger than the one solved for", duality(chi),
         duality(lambda t, rr, zz: 1.1 * chi(t, rr, zz))),
        ("residuals against the reversed velocity", checks.renorm_small(residuals(u)),
         checks.renorm_small(residuals(reversed_u))),
    ]


def _nash_without_two_pi(specs, n=128):
    """Nash ratios with the planar r d(r,z) measure in place of the 3-D one."""
    return max(integrate_power(f, 2.0, 1.0, n) ** 0.5
               / (integrate_power(f, 1.0, 1.0, n) ** 0.4 * integrate_gradient_power(f, 2.0, 1.0, n) ** 0.3)
               for f in specs)


def ineq_pairs(seed, workdir):
    w = workloads.IneqScan(seed, workdir)
    inputs = w.prepare()
    p = w.p
    scan = ax.run_suite("ap", p=p, seed=seed, sample_count=20_000)
    nash = ax.run_suite("nash", seed=seed, sample_count=w.family_size)
    specs = ax.random_test_functions(w.family_size, rng_seed=seed)
    clear = inputs["clear"]
    own = checks.ap_product_gauss(p, clear.d, clear.R)
    # a weight far outside A_p: r^{-6p} on a ball at the edge of the far field
    edge = ax.Ball3D(2.0 * clear.R, 0.0, clear.R)
    return [
        ("weight r^0.1 in place of the constant",
         checks.control_product([ax.ap_product(p, b, weight_exponent=0) for b in inputs["controls"]]),
         checks.control_product([ax.ap_product(p, b, weight_exponent=0.1) for b in inputs["controls"]])),
        ("far-field product of the weight r^(-6p)",
         checks.far_field(scan["argmax_params"]["far_sup"], p),
         checks.far_field(ax.ap_product(p, edge, weight_exponent=-6.0 * p), p)),
        ("program product at p = 1.6 against p = 1.5",
         checks.ap_quadrature(ax.ap_product(p, clear), own),
         checks.ap_quadrature(ax.ap_product(1.6, clear), own)),
        ("Nash ratios without the 2 pi of the 3-D measure",
         checks.nash_below_sharp(nash["empirical_sup"]),
         checks.nash_below_sharp(_nash_without_two_pi(specs))),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    workdir = os.path.join(ROOT, "perfbench", "results", f"teeth-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    bad = 0
    try:
        for group in (ring_pairs, hill_pairs, transport_pairs, ineq_pairs):
            for wrong_input, right, wrong in group(args.seed, workdir):
                good = right.ok and not wrong.ok
                bad += not good
                print(f"{'ok  ' if good else 'FAIL'} {right.name:16s} bound {right.bound:.3g}: "
                      f"right {right.value:.3g}, wrong ({wrong_input}) {wrong.value:.3g}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
