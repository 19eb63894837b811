"""Vanishing-viscosity sweep: shared-everything reruns across a nu ladder.

All members share one grid, one bit-identical initial field, and one fixed
time-step schedule (a fixed dt is required precisely so the schedule cannot
depend on nu).  The sweep then reports

- pairwise differences ||u_{nu_k}(t) - u_{nu_{k+1}}(t)||_{L^2(B_R)} on a
  fixed centered ball at aligned sample times (a Cauchy-sequence proxy for
  strong L^2_loc compactness -- no limit is claimed);
- the energy-deficit table (nu, t, deficit) with a log-log fit of deficit
  against nu at the final time, and the smallest constant C making
  deficit <= C (nu (t - t0))^{1 - 3/(2p)} hold across the table, t0 being
  the run's start (a restart's checkpoint t), whence each deficit is measured;
- an optional signed-vorticity moment experiment measuring (never
  asserting) whether ||r^2 omega(t)||_{L^1} stays controlled by its initial
  value when xi changes sign.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .config import RunConfig, _canonical_json, run_from_config
from .diagnostics import _ball_mask
from .evolution import TimeStepPlan, make_state, run
from .exceptions import ConfigError, NumericalBlowupError
from .grid import ScalarField, integrate_weighted


@dataclass
class SweepResult:
    nus: list
    sample_times: list            # aligned diagnostic times shared by members
    pairwise_times: list          # times of the velocity gaps (the sample times)
    records: dict                 # nu -> list of DiagnosticsRecord
    pairwise: dict                # (nu_hi, nu_lo) -> list of L2(B_R) velocity gaps
    ball_radius: float
    deficit_table: list           # rows (nu, t, deficit)
    deficit_exponent: float       # slope of log deficit vs log nu at t_final
    deficit_fit_residual: float
    bound_p: float
    bound_constant: float         # sup of deficit / (nu (t - t0))^{1 - 3/(2p)}

    def summary_dict(self) -> dict:
        return {
            "nus": self.nus,
            "ball_radius": self.ball_radius,
            "sample_times": self.sample_times,
            "pairwise_times": self.pairwise_times,
            "pairwise_l2_ball": {
                f"{a:g}->{b:g}": vals for (a, b), vals in self.pairwise.items()
            },
            "deficit_table": self.deficit_table,
            "deficit_exponent": self.deficit_exponent,
            "deficit_fit_residual": self.deficit_fit_residual,
            "bound_p": self.bound_p,
            "bound_constant": self.bound_constant,
        }


def _velocity_gap_l2_ball(u_a, u_b, mask) -> float:
    grid = u_a.grid
    d2 = (u_a.u_r - u_b.u_r) ** 2 + (u_a.u_z - u_b.u_z) ** 2
    val = 2.0 * np.pi * np.sum(d2[mask] * np.broadcast_to(grid.r_col, d2.shape)[mask])
    return float(np.sqrt(val * grid.cell_area))


def sweep(
    base_config: dict,
    nu_list,
    out_dir: str,
    ball_radius: float | None = None,
    bound_p: float = 2.0,
):
    """Run the viscosity ladder and aggregate the compactness diagnostics.

    base_config is a config document whose nu entry is ignored in favor of
    nu_list; it must carry a fixed dt.  Member outputs land in
    out_dir/nu_<value>/; the aggregate report in out_dir/sweep_summary.json.
    A member failure persists the summary of completed members and re-raises.
    """
    nus = [float(v) for v in nu_list]
    if len(nus) < 4:
        raise ConfigError(f"sweep needs at least 4 viscosities, got {len(nus)}")
    if any(b >= a for a, b in zip(nus, nus[1:])):
        raise ConfigError(f"sweep viscosities must be strictly decreasing, got {nus}")
    if any(v <= 0.0 for v in nus):
        raise ConfigError("sweep viscosities must be positive")
    doc = dict(base_config)
    doc["nu"] = nus[0]
    config = RunConfig.from_dict(doc)
    if config.plan.dt is None:
        raise ConfigError(
            "sweep members must share a fixed dt schedule; set 'dt' in the config"
        )
    if not (bound_p > 1.5):
        raise ConfigError(f"deficit bound exponent needs p > 3/2, got {bound_p}")
    grid = config.build_grid()
    if ball_radius is None:
        ball_radius = 0.5 * min(grid.r_max, grid.z_max, -grid.z_min)
    try:
        mask = _ball_mask(grid, ball_radius)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    os.makedirs(out_dir, exist_ok=True)
    all_records = {}
    velocity_snaps = {}
    failed = None
    try:
        for nu in nus:
            member_doc = dict(doc)
            member_doc["nu"] = nu
            member_dir = os.path.join(out_dir, f"nu_{nu:g}")
            snaps = []

            def keep_velocity(s, k, snaps=snaps):
                snaps.append(s.u.copy())

            _, records = run_from_config(member_doc, member_dir, extra_hook=keep_velocity)
            all_records[nu] = records
            velocity_snaps[nu] = snaps
    except NumericalBlowupError as exc:
        failed = exc

    pairwise = {}
    if failed is None:
        for a, b in zip(nus, nus[1:]):
            gaps = [
                _velocity_gap_l2_ball(ua, ub, mask)
                for ua, ub in zip(velocity_snaps[a], velocity_snaps[b])
            ]
            pairwise[(a, b)] = gaps

    deficit_table = []
    for nu in nus:
        for rec in all_records.get(nu, []):
            deficit_table.append((nu, rec.t, rec.energy_deficit))

    exponent, residual = _fit_deficit_exponent(all_records, nus)
    # members share dt, tfinal and sample_every, and run's step lengths do not
    # read nu, so the first member's sample times are every member's
    sample_times = [rec.t for rec in all_records.get(nus[0], [])]
    t0 = sample_times[0] if sample_times else 0.0
    bound_constant = _deficit_bound_constant(deficit_table, bound_p, t0)

    result = SweepResult(
        nus=nus,
        sample_times=sample_times,
        pairwise_times=list(sample_times),
        records=all_records,
        pairwise=pairwise,
        ball_radius=float(ball_radius),
        deficit_table=deficit_table,
        deficit_exponent=exponent,
        deficit_fit_residual=residual,
        bound_p=bound_p,
        bound_constant=bound_constant,
    )
    summary = result.summary_dict()
    summary["status"] = "aborted" if failed is not None else "completed"
    if failed is not None:
        summary["error"] = str(failed)
    with open(os.path.join(out_dir, "sweep_summary.json"), "w", encoding="utf-8", newline="\n") as f:
        f.write(_canonical_json(summary))
    if failed is not None:
        raise failed
    return result


def _fit_deficit_exponent(all_records, nus):
    """Slope of log(deficit at t_final) against log(nu); (nan, nan) when any
    member lacks a positive final deficit."""
    xs, ys = [], []
    for nu in nus:
        recs = all_records.get(nu)
        if not recs:
            return float("nan"), float("nan")
        d = recs[-1].energy_deficit
        if d <= 0.0:
            return float("nan"), float("nan")
        xs.append(np.log(nu))
        ys.append(np.log(d))
    coef, res = np.polyfit(xs, ys, 1, full=True)[:2]
    residual = float(res[0]) if len(res) else 0.0
    return float(coef[0]), residual


def _deficit_bound_constant(deficit_table, p: float, t0: float) -> float:
    """Smallest C with deficit <= C (nu (t - t0))^{1 - 3/(2p)} across the table."""
    e = 1.0 - 3.0 / (2.0 * p)
    best = 0.0
    for nu, t, d in deficit_table:
        if t <= t0 or d <= 0.0:
            continue
        best = max(best, d / (nu * (t - t0)) ** e)
    return best


# ---------------------------------------------------------------------------
# signed-vorticity moment experiment (measured, never asserted)


def signed_moment_experiment(
    grid_doc: dict | None = None,
    nu: float = 1e-3,
    tfinal: float = 0.5,
    dt: float = 0.005,
    sample_every: int = 10,
):
    """Measure ||r^2 omega(t)||_{L^1(H)} / ||r^2 omega_0||_{L^1(H)} for a
    sign-changing field under the conservative scheme.

    Whether this ratio stays bounded without a sign condition is an open
    question; the experiment reports the observed ratio trajectory and makes
    no assertion.
    """
    from .grid import build_grid

    g = grid_doc or {"nr": 64, "nz": 128, "r_max": 3.0, "z_min": -3.0, "z_max": 3.0}
    grid = build_grid(g["nr"], g["nz"], g["r_max"], g["z_min"], g["z_max"])
    r2d, z2d = grid.meshes()
    vals = np.exp(-8.0 * ((r2d - 1.0) ** 2 + (z2d - 0.6) ** 2))
    vals -= np.exp(-8.0 * ((r2d - 1.0) ** 2 + (z2d + 0.6) ** 2))
    state = make_state(grid, vals, nu)
    plan = TimeStepPlan(dt=dt, scheme="omega_conservative", sample_every=sample_every)

    def moment(s):
        return integrate_weighted(ScalarField(grid, s.xi.values, "test"), 3, 1.0)

    base = moment(state)
    rows = []

    def hook(s, k):
        rows.append({"t": s.t, "moment_ratio": moment(s) / base})
        return None

    run(state, tfinal, plan, sample_hook=hook)
    return {"base_moment": base, "trajectory": rows}
