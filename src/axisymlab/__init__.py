"""Numerical laboratory for axisymmetric swirl-free incompressible flow.

The state variable is the relative vorticity xi = omega / r on the half plane
{(r, z) : r > 0}, discretized on a cell-centered grid.  Velocity is
reconstructed from vorticity through a stream-function solve (with a summation
kernel as an independent cross-check), and the lab provides viscous and
conservative time steppers, Lagrangian flow tracing, weak-form residual
checks, conservation diagnostics, and randomized verification of weighted
functional inequalities.
"""

from .grid import (
    HalfPlaneGrid,
    ScalarField,
    VelocityField,
    build_grid,
    gradient,
    integrate_signed,
    integrate_weighted,
)
from .biot_savart import (
    EllipticSolveReport,
    check_divergence,
    kernel_decay_check,
    kernel_stream_values,
    kernel_velocity,
    ring_stream,
    ring_velocity,
    solve_stream_function,
    velocity_from_stream,
)
from .evolution import (
    FluidState,
    TimeStepPlan,
    advect_semi_lagrangian,
    cfl_dt,
    diffuse_relative_vorticity,
    diffuse_vorticity,
    make_state,
    read_checkpoint,
    refresh_velocity,
    run,
    step_conservative_omega,
    step_viscous,
    write_checkpoint,
)
from .lagrangian import (
    FlowMap,
    RenormFunction,
    ScalarSeries,
    VelocitySeries,
    beta_integral,
    built_in_renorm_functions,
    composition_check,
    duality_check,
    jacobian_check,
    renorm_residual,
    replay_run_series,
    solve_backward_transport,
    solve_forward_transport,
    trace_flow,
)
from .diagnostics import (
    DiagnosticsCollector,
    DiagnosticsRecord,
    RateFit,
    compute_record,
    decay_rate_fit,
    dissipation_inequality_violations,
    dissipation_integral,
    energy_balance_residual,
    enstrophy,
    enstrophy_identity_residual,
    grad_u_sq,
    impulse,
    kinetic_energy,
    local_w1p_check,
    lp_norm_xi,
    monotonicity_violations,
    sobolev_embedding_ratio,
    write_csv,
)
from .inequalities import (
    ApScanReport,
    Ball3D,
    ap_product,
    ap_scan,
    hardy_ratio,
    interpolation_lambda,
    interpolation_ratio,
    nash_ratio,
    run_suite,
    sobolev_tuple,
    weighted_sobolev_ratio,
)
from .test_functions import (
    SpaceTimeBump,
    TestFunctionSpec,
    random_test_functions,
    renorm_test_library,
)
from .initial_conditions import (
    gaussian_ring_xi,
    hill_impulse,
    hill_vortex_stream,
    hill_vortex_velocity,
    hill_vortex_velocity_field,
    hill_vortex_xi,
    make_initial_condition,
    singular_ring_xi,
)
from .config import RunConfig, load_config_file, run_from_config, validate_config_dict
from .sweep import SweepResult, signed_moment_experiment, sweep
from .exceptions import ConfigError, NonFiniteFieldError, NumericalBlowupError

__all__ = [name for name in dir() if not name.startswith("_")] + ["cli_main"]


def __getattr__(name):
    # cli loads on first use, so `python -m axisymlab.cli` finds it not yet imported
    if name == "cli_main":
        from .cli import cli_main

        return cli_main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
