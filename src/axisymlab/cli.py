"""Command-line harness.

Subcommands:

    run          --config F --out D        one configured simulation
    sweep        --config F --nus a,b,c --out D   vanishing-viscosity ladder
    verify ineq  --suite {ap|sobolev|interp|nash|hardy} [--p P] [--seed S]
                 [--samples N] --out D     randomized inequality scan report
    renorm-check --run D [--beta NAME]     renormalization residuals of a run
    diag         --checkpoint F            one diagnostics row for a checkpoint

Exit codes: 0 success, 1 configuration/validation error, 2 numerical failure,
3 program fault (any other exception: cli_main lets it propagate, and main
prints its traceback).  Argument errors are validation errors (exit 1), so
the parser raises instead of calling sys.exit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from .exceptions import ConfigError, NumericalBlowupError


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit code 1)."""

    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="axisym-flow-lab", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configured run")
    p_run.add_argument("--config", required=True, help="JSON config file")
    p_run.add_argument("--out", required=True, help="output directory")

    p_sweep = sub.add_parser("sweep", help="viscosity ladder sharing grid/IC/dt")
    p_sweep.add_argument("--config", required=True, help="JSON base config file")
    p_sweep.add_argument(
        "--nus", required=True, help="comma-separated strictly decreasing viscosities"
    )
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--ball-radius", type=float, default=None)
    p_sweep.add_argument("--bound-p", type=float, default=2.0)

    p_verify = sub.add_parser("verify", help="verification utilities")
    verify_sub = p_verify.add_subparsers(dest="verify_what", required=True)
    p_ineq = verify_sub.add_parser("ineq", help="randomized inequality scan")
    p_ineq.add_argument(
        "--suite", required=True, choices=["ap", "sobolev", "interp", "nash", "hardy"]
    )
    p_ineq.add_argument("--p", type=float, default=None)
    p_ineq.add_argument("--seed", type=int, default=0)
    p_ineq.add_argument("--samples", type=int, default=None)
    p_ineq.add_argument("--out", required=True, help="output directory")

    p_renorm = sub.add_parser("renorm-check", help="weak-form residuals of a finished run")
    p_renorm.add_argument("--run", required=True, help="run output directory")
    p_renorm.add_argument("--beta", default=None, help="single built-in function name")
    p_renorm.add_argument("--tests", type=int, default=32, help="test library size")

    p_diag = sub.add_parser("diag", help="diagnostics row for one checkpoint")
    p_diag.add_argument("--checkpoint", required=True, help="AXF1 checkpoint file")

    return parser


def _cmd_run(args) -> int:
    from .config import load_config_file, run_from_config

    doc = load_config_file(args.config)
    final, records = run_from_config(doc, args.out)
    print(
        json.dumps(
            {"out": args.out, "t_final": final.t, "steps": final.step_index,
             "records": len(records)},
            sort_keys=True,
        )
    )
    return 0


def _cmd_sweep(args) -> int:
    from .config import load_config_file
    from .sweep import sweep

    doc = load_config_file(args.config)
    try:
        nus = [float(tok) for tok in args.nus.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"--nus must be comma-separated numbers: {exc}") from exc
    result = sweep(doc, nus, args.out, ball_radius=args.ball_radius, bound_p=args.bound_p)
    print(
        json.dumps(
            {"out": args.out, "nus": result.nus,
             "deficit_exponent": result.deficit_exponent,
             "bound_constant": result.bound_constant},
            sort_keys=True,
        )
    )
    return 0


def _cmd_verify_ineq(args) -> int:
    from .inequalities import run_suite

    try:
        report = run_suite(args.suite, p=args.p, seed=args.seed, sample_count=args.samples)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"ineq_{args.suite}.json")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, sort_keys=True))
    return 0


def _cmd_renorm_check(args) -> int:
    from .config import RunConfig, load_config_file
    from .lagrangian import built_in_renorm_functions, renorm_residual, replay_run_series
    from .test_functions import renorm_test_library

    config_path = os.path.join(args.run, "config.json")
    if not os.path.exists(config_path):
        raise ConfigError(f"run directory {args.run} has no config.json")
    config = RunConfig.from_dict(load_config_file(config_path))
    betas = built_in_renorm_functions()
    if args.beta is not None:
        if args.beta not in betas:
            raise ConfigError(
                f"unknown renormalization function {args.beta!r}; "
                f"choose from {sorted(betas)}"
            )
        betas = {args.beta: betas[args.beta]}
    if args.tests < 1:
        raise ConfigError("--tests must be positive")

    xi_series, velocity_series = replay_run_series(config)
    t0 = xi_series.times[0]  # a restarted run starts at its checkpoint's t
    if config.tfinal <= t0:
        raise ConfigError(f"renorm-check needs a run that steps past t0 = {t0}")
    library = renorm_test_library(args.tests, config.tfinal - t0, rng_seed=config.rng_seed)
    residuals = {
        name: renorm_residual(xi_series, velocity_series, beta, library)
        for name, beta in betas.items()
    }
    report = {
        "run": os.path.abspath(args.run),
        "tfinal": config.tfinal,
        "nu": config.nu,
        "tests": args.tests,
        "residuals": residuals,
    }
    path = os.path.join(args.run, "renorm_report.json")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, sort_keys=True))
    return 0


def _cmd_diag(args) -> int:
    from .diagnostics import compute_record
    from .evolution import read_checkpoint

    try:
        state = read_checkpoint(args.checkpoint)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load checkpoint: {exc}") from exc
    ps = [1.0, 2.0, 3.0]
    rec = compute_record(state, ps)
    out = {
        "t": rec.t,
        "nu": rec.nu,
        "lp_norms": {f"{p:.4g}": v for p, v in rec.lp_norms.items()},
        "linf": rec.linf,
        "impulse": rec.impulse,
        "energy": rec.energy,
        "enstrophy": rec.enstrophy,
        "grad_u_sq": rec.grad_u_sq,
        "dissipation": {f"{p:.4g}": v for p, v in rec.dissipation.items()},
    }
    print(json.dumps(out, sort_keys=True))
    return 0


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "verify":
            return _cmd_verify_ineq(args)
        if args.command == "renorm-check":
            return _cmd_renorm_check(args)
        if args.command == "diag":
            return _cmd_diag(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalBlowupError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = cli_main()
    except Exception:
        traceback.print_exc()
        code = 3
    sys.exit(code)


if __name__ == "__main__":
    main()
