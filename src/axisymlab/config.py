"""Strict JSON run configuration and the configured-run driver.

One JSON document describes one run.  The schema is strict: unknown keys are
rejected and every numeric range is checked, with errors naming the offending
key.  Physical parameters (grid, viscosity, final time, scheme, initial
condition, monitored exponents) have no defaults; only the step controls,
the boundary treatment and the output cadences do.  RunConfig keeps the step
controls as one TimeStepPlan (RunConfig.plan, with TimeStepPlan's defaults),
and RunConfig.initial_state() builds the solved starting state, boundary
treatment included.  run_from_config executes the run and persists

    config.json      the document as validated (canonical formatting)
    diagnostics.csv  one row per sampled step, fixed column set
    checkpoint_*.axf1 final state and optional periodic checkpoints
    manifest.json    grid/IC metadata and the output inventory

with no wall-clock content anywhere, so identical configs reproduce
byte-identical directories.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

import jsonschema
import numpy as np

from .diagnostics import DiagnosticsCollector, write_csv
from .evolution import TimeStepPlan, make_state, read_checkpoint, run, write_checkpoint
from .exceptions import ConfigError
from .grid import build_grid
from .initial_conditions import _spec_params, make_initial_condition

_NUMBER = {"type": "number"}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["grid", "nu", "tfinal", "scheme", "initial_condition", "p_list"],
    "properties": {
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "required": ["nr", "nz", "r_max", "z_min", "z_max"],
            "properties": {
                "nr": {"type": "integer", "minimum": 4},
                "nz": {"type": "integer", "minimum": 4},
                "r_max": _POSITIVE,
                "z_min": _NUMBER,
                "z_max": _NUMBER,
            },
        },
        "nu": {"type": "number", "minimum": 0},
        "tfinal": {"type": "number", "minimum": 0},
        "scheme": {"enum": ["xi_semilagrangian", "omega_conservative"]},
        "initial_condition": {
            "type": "object",
            "required": ["kind"],
            # analytic parameters are numbers, a checkpoint's path a string
            "properties": {"kind": {"type": "string"}, "path": {"type": "string"}},
            "additionalProperties": _NUMBER,
        },
        "p_list": {
            "type": "array",
            "minItems": 1,
            "items": {"type": "number", "minimum": 1},
        },
        "dt": _POSITIVE,
        "dt_max": _POSITIVE,
        "cfl": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
        "theta": {"type": "number", "minimum": 0.5, "maximum": 1},
        "boundary": {"enum": ["zero", "kernel"]},
        "sample_every": {"type": "integer", "minimum": 1},
        "checkpoint_every": {"type": "integer", "minimum": 0},
        "blowup_limit": _POSITIVE,
        "rng_seed": {"type": "integer", "minimum": 0},
    },
}

# TimeStepPlan fields
_PLAN_KEYS = ("scheme", "dt", "dt_max", "cfl", "theta", "sample_every", "blowup_limit")


def _non_finite_paths(node, path=""):
    """Key paths, dot-separated, of the NaN and infinite numbers in a JSON document."""
    if isinstance(node, float) and not np.isfinite(node):
        yield path
    elif isinstance(node, (dict, list)):
        children = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in children:
            yield from _non_finite_paths(child, f"{path}.{key}" if path else str(key))


def _schema_error_path(err: jsonschema.ValidationError) -> str:
    parts = [str(p) for p in err.absolute_path]
    return ".".join(parts) if parts else "<document root>"


def validate_config_dict(doc) -> dict:
    """Validate a raw config document against the strict schema.

    Returns the document unchanged on success; raises ConfigError naming the
    offending key otherwise.  NaN and Infinity, which JSON readers accept and
    range checks let through, are rejected first, by key path.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"config must be a JSON object, got {type(doc).__name__}")
    bad = next(_non_finite_paths(doc), None)
    if bad is not None:
        raise ConfigError(f"config key {bad!r}: must be a finite number")
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if errors:
        err = errors[0]
        if err.validator == "additionalProperties":
            # pull the unexpected key's name out for a precise message
            extra = sorted(
                set(err.instance) - set(err.schema.get("properties", {}))
            )
            where = _schema_error_path(err)
            raise ConfigError(f"unknown config key {extra[0]!r} at {where}")
        raise ConfigError(f"config key {_schema_error_path(err)!r}: {err.message}")
    z_min, z_max = doc["grid"]["z_min"], doc["grid"]["z_max"]
    if not (z_min < z_max):
        raise ConfigError(f"config key 'grid.z_min': need z_min < z_max, got [{z_min}, {z_max}]")
    return doc


def load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # malformed JSON or bytes that are not UTF-8
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return validate_config_dict(doc)


@dataclass
class RunConfig:
    """Typed view of a validated config document; build it with from_dict."""

    doc: dict  # the validated document, written to config.json
    grid: dict
    nu: float
    tfinal: float
    initial_condition: dict
    p_list: list
    plan: TimeStepPlan
    boundary: str = "zero"
    checkpoint_every: int = 0
    rng_seed: int = 0

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        doc = validate_config_dict(doc)
        plan = TimeStepPlan(**{k: doc[k] for k in _PLAN_KEYS if k in doc}).validated()
        rest = {k: doc[k] for k in doc if k not in _PLAN_KEYS}
        return cls(doc=doc, plan=plan, **rest)

    def build_grid(self):
        g = self.grid
        return build_grid(g["nr"], g["nz"], g["r_max"], g["z_min"], g["z_max"])

    def initial_state(self):
        """The solved starting state of the run and the initial condition's info.

        A checkpoint restart keeps the checkpoint's t and step_index (tfinal is
        absolute) and takes nu from the config; grid, boundary and tfinal must fit.
        """
        grid = self.build_grid()
        spec = self.initial_condition
        if spec["kind"] != "checkpoint":
            xi0, ic_info = make_initial_condition(spec, grid, monitor_ps=self.p_list)
            return make_state(grid, xi0, self.nu, boundary=self.boundary), ic_info
        try:
            saved = read_checkpoint(_spec_params(spec, {"path"})["path"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"checkpoint restart failed: {exc}") from exc
        fits = {"grid": saved.grid.same_geometry(grid), "boundary": saved.boundary == self.boundary,
                "tfinal": self.tfinal >= saved.t}
        bad = next((key for key, ok in fits.items() if not ok), None)
        if bad is not None:
            raise ConfigError(f"config key {bad!r} does not match the checkpoint (grid "
                              f"{saved.grid.nr}x{saved.grid.nz}, boundary {saved.boundary!r}, "
                              f"t = {saved.t} <= tfinal)")
        return replace(saved, nu=float(self.nu)), {"restart_t": saved.t, "restart_nu": saved.nu}


def _canonical_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def run_from_config(config, out_dir: str, extra_hook=None):
    """Execute one configured run, persisting outputs under out_dir.

    config may be a validated dict or a RunConfig.  Returns (final state,
    records).  If the run raises, the partial CSV and an aborted manifest
    carrying the error are flushed before the error propagates.
    extra_hook(state, step), if given, runs at the sampling cadence after
    diagnostics (the sweep uses it to capture velocity snapshots).
    """
    if isinstance(config, dict):
        config = RunConfig.from_dict(config)
    os.makedirs(out_dir, exist_ok=True)
    state, ic_info = config.initial_state()
    ps = list(config.p_list)
    collector = DiagnosticsCollector(ps)

    with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8", newline="\n") as f:
        f.write(_canonical_json(config.doc))

    checkpoints = []

    def hook(s, k):
        # checkpoint_every counts sampling events, not raw steps, so the two
        # cadences compose; 0 disables periodic checkpoints.  The event number
        # ceil(step_index / sample_every) follows the global step across restarts
        if config.checkpoint_every and k > 0:
            if -(-s.step_index // config.plan.sample_every) % config.checkpoint_every == 0:
                name = f"checkpoint_{s.step_index:06d}.axf1"
                write_checkpoint(s, os.path.join(out_dir, name))
                checkpoints.append(name)
        rec = collector(s, k)
        if extra_hook is not None:
            extra_hook(s, k)
        return rec

    def flush(records, status, error=None):
        write_csv(records, ps, os.path.join(out_dir, "diagnostics.csv"))
        manifest = {
            "status": status,
            "scheme": config.plan.scheme,
            "grid": config.grid,
            "nu": config.nu,
            "tfinal": config.tfinal,
            "records": len(records),
            "initial_condition": config.initial_condition,
            "ic_info": ic_info,
            "checkpoints": checkpoints,
            "files": ["config.json", "diagnostics.csv"] + checkpoints,
        }
        if error is not None:
            manifest["error"] = str(error)
        with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8", newline="\n") as f:
            f.write(_canonical_json(manifest))

    try:
        final, records = run(state, config.tfinal, config.plan, sample_hook=hook)
    except Exception as exc:
        flush(collector.records, "aborted", error=exc)
        raise
    name = "checkpoint_final.axf1"
    write_checkpoint(final, os.path.join(out_dir, name))
    checkpoints.append(name)
    flush(records, "completed")
    return final, records

