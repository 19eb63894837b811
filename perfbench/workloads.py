"""The four benchmark workloads.

Each workload makes its inputs from the seed in prepare() (the set-up that
setup_s times) and runs one round in run_round(): the same operations on the
same inputs every round, followed by the correctness checks, one operation
each.  Program functions are looked up on the `axisymlab` package at call
time, so that the tracer's wrappers are the ones called in a traced round.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import time

import numpy as np

import axisymlab as ax

import checks


def _validated(doc) -> float:
    t0 = time.perf_counter()
    ax.validate_config_dict(doc)
    return time.perf_counter() - t0


def _cli_run(config_path: str, out_dir: str) -> float:
    """Run `axflow run` through cli_main; returns the seconds it took."""
    shutil.rmtree(out_dir, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        code = ax.cli_main(["run", "--config", config_path, "--out", out_dir])
        elapsed = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"cli_main run exited with code {code}")
    return elapsed


class _ConfiguredRun:
    """A run through cli_main from a config file the seed determines."""

    name = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.config_path = os.path.join(workdir, f"{self.name}.json")
        self.out_dir = os.path.join(workdir, f"{self.name}_out")

    def document(self, rng) -> dict:
        raise NotImplementedError

    def prepare(self) -> dict:
        doc = self.document(np.random.default_rng(self.seed))
        validate_s = _validated(doc)
        g = doc["grid"]
        grid = ax.build_grid(g["nr"], g["nz"], g["r_max"], g["z_min"], g["z_max"])
        ax.make_initial_condition(doc["initial_condition"], grid, monitor_ps=doc["p_list"])
        with open(self.config_path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return {"doc": doc, "validate_s": validate_s}


class RingRun(_ConfiguredRun):
    """The reference run: a Gaussian ring at 96x192, 50 steps of the xi route."""

    name = "ring_run"
    check_names = ("lp_monotone", "impulse_drift", "energy_balance")

    def document(self, rng) -> dict:
        ic = {
            "kind": "gaussian_ring",
            "r0": float(1.0 + rng.uniform(-0.02, 0.02)),
            "z0": float(rng.uniform(-0.05, 0.05)),
            "sigma": float(0.3 * (1.0 + rng.uniform(-0.02, 0.02))),
            "amplitude": float(1.0 + rng.uniform(-0.05, 0.05)),
        }
        return {
            "grid": {"nr": 96, "nz": 192, "r_max": 3.0, "z_min": -3.0, "z_max": 3.0},
            "nu": 1e-2, "tfinal": 0.5, "dt": 0.01, "scheme": "xi_semilagrangian",
            "boundary": "zero", "initial_condition": ic, "p_list": [1.0, 1.5, 2.0, 3.0],
        }

    def run_round(self, inputs):
        doc = inputs["doc"]
        loop_s = _cli_run(self.config_path, self.out_dir)
        columns = checks.read_csv_columns(os.path.join(self.out_dir, "diagnostics.csv"))
        header, xi = checks.read_axf1(os.path.join(self.out_dir, "checkpoint_final.axf1"))
        ic, g = doc["initial_condition"], doc["grid"]
        expected = checks.gaussian_ring_impulse(
            ic["r0"], ic["z0"], ic["sigma"], ic["amplitude"], g["z_min"], g["z_max"])
        steps = columns["t"].size - 1
        return steps, loop_s, [
            checks.lp_monotone(columns),
            checks.impulse_drift(header, xi, expected),
            checks.energy_balance(columns, doc["nu"]),
        ]


class HillKernel(_ConfiguredRun):
    """Hill's vortex on the conservative route with kernel boundary data."""

    name = "hill_kernel"
    check_names = ("hill_speed",)
    boundary = "kernel"

    def document(self, rng) -> dict:
        ic = {"kind": "hill_vortex", "radius": 1.0,
              "amplitude": float(10.0 * (1.0 + rng.uniform(-0.05, 0.05)))}
        return {
            "grid": {"nr": 64, "nz": 128, "r_max": 3.0, "z_min": -3.0, "z_max": 3.0},
            "nu": 1e-3, "tfinal": 0.2, "dt": 0.01, "scheme": "omega_conservative",
            "boundary": self.boundary, "initial_condition": ic, "p_list": [1.0, 2.0],
        }

    def run_round(self, inputs):
        ic = inputs["doc"]["initial_condition"]
        loop_s = _cli_run(self.config_path, self.out_dir)
        columns = checks.read_csv_columns(os.path.join(self.out_dir, "diagnostics.csv"))
        header, xi = checks.read_axf1(os.path.join(self.out_dir, "checkpoint_final.axf1"))
        steps = columns["t"].size - 1
        return steps, loop_s, [checks.hill_speed(header, xi, ic["radius"], ic["amplitude"])]


class TransportFrozen:
    """Tracing, transport, duality and renormalization in a frozen manufactured flow."""

    name = "transport_frozen"
    check_names = ("psi_constant", "no_new_extremum", "duality_defect", "renorm_residual")
    T = 1.0
    n_steps = 100
    nu = 1e-2
    library_size = 32

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def prepare(self) -> dict:
        rng = np.random.default_rng(self.seed)
        grid = ax.build_grid(96, 192, 3.0, -3.0, 3.0)
        r2d, z2d = grid.meshes()
        env = np.exp(-(r2d**2) - z2d**2)
        # u = (-(1/r) dpsi/dz, (1/r) dpsi/dr) for psi = r^2 exp(-r^2 - z^2)
        u = ax.VelocityField(grid, 2.0 * r2d * z2d * env, (2.0 - 2.0 * r2d**2) * env)
        seeds = np.column_stack([rng.uniform(0.05, 2.0, 1024), rng.uniform(-1.5, 1.5, 1024)])
        rc, zc = 0.9 + rng.uniform(-0.05, 0.05), 0.1 + rng.uniform(-0.05, 0.05)
        theta0 = ax.ScalarField(grid, np.exp(-((r2d - rc) ** 2 + (z2d - zc) ** 2) / 0.08),
                                role="passive_scalar")
        sr, sz = 0.7 + rng.uniform(-0.05, 0.05), -0.2 + rng.uniform(-0.05, 0.05)

        def chi(t, r, z):
            return (1.0 + 0.5 * t) * np.exp(-((r - sr) ** 2 + (z - sz) ** 2) / 0.06)

        return {
            "grid": grid, "u": u, "series": ax.VelocitySeries.frozen(u, self.T),
            "seeds": seeds, "theta0": theta0, "chi": chi,
            "library": ax.renorm_test_library(self.library_size, self.T, rng_seed=self.seed),
        }

    def run_round(self, inputs):
        T, n, nu = self.T, self.n_steps, self.nu
        series, theta0, chi, grid = inputs["series"], inputs["theta0"], inputs["chi"], inputs["grid"]
        flow = ax.trace_flow(series, inputs["seeds"], T)
        inviscid = ax.solve_forward_transport(series, theta0, T, n)
        viscous = ax.solve_forward_transport(series, theta0, T, n, nu=nu)
        dual = ax.solve_backward_transport(series, chi, T, n, nu=nu)
        ax.duality_check(viscous, dual, chi, T)
        steady = ax.VelocitySeries(inviscid.times, [inputs["u"]] * inviscid.times.size)
        residuals = {
            name: ax.renorm_residual(inviscid, steady, beta, inputs["library"])
            for name, beta in ax.built_in_renorm_functions().items()
        }
        header = {"nr": grid.nr, "nz": grid.nz, "r_max": grid.r_max,
                  "z_min": grid.z_min, "z_max": grid.z_max}
        r, z, hr, hz = checks.cell_centres(header)
        steps = flow.times.size - 1 + 3 * n
        return steps, None, [
            checks.psi_constant(flow.positions),
            checks.no_new_extremum(theta0.values, [f.values for f in inviscid.fields]),
            checks.duality_defect(viscous.times, [f.values for f in viscous.fields],
                                  [f.values for f in dual.fields], chi, r, z, hr * hz),
            checks.renorm_small(residuals),
        ]


class IneqScan:
    """The A_p ball scan and the four test-function families."""

    name = "ineq_scan"
    check_names = ("control_product", "far_field_sup", "ap_quadrature", "nash_sup")
    p = 1.5
    families = ("nash", "sobolev", "interp", "hardy")
    family_size = 500

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def prepare(self) -> dict:
        rng = np.random.default_rng(self.seed)
        R = 10.0 ** rng.uniform(-1.0, 1.0, size=3)
        controls = [ax.Ball3D(0.5 * R[0], float(rng.uniform(-1, 1)), R[0]),
                    ax.Ball3D(4.0 * R[1], float(rng.uniform(-1, 1)), R[1])]
        clear = ax.Ball3D(3.0 * R[2], float(rng.uniform(-1, 1)), R[2])
        return {"controls": controls, "clear": clear}

    def run_round(self, inputs):
        p = self.p
        scan = ax.run_suite("ap", p=p, seed=self.seed)
        reports = {s: ax.run_suite(s, seed=self.seed, sample_count=self.family_size)
                   for s in self.families}
        controls = [ax.ap_product(p, b, weight_exponent=0) for b in inputs["controls"]]
        clear = inputs["clear"]
        program = ax.ap_product(p, clear)
        steps = scan["samples"] + sum(r["samples"] for r in reports.values())
        return steps, None, [
            checks.control_product(controls),
            checks.far_field(scan["argmax_params"]["far_sup"], p),
            checks.ap_quadrature(program, checks.ap_product_gauss(p, clear.d, clear.R)),
            checks.nash_below_sharp(reports["nash"]["empirical_sup"]),
        ]


WORKLOADS = {w.name: w for w in (RingRun, HillKernel, TransportFrozen, IneqScan)}
