"""Strict JSON run configuration and the configured-run driver.

One JSON document describes one run.  Checking it is strict: unknown keys
are rejected, every number keeps evolution.json_number's rule, and each
range is checked once, by the code that owns it, with errors naming the
offending key.  Physical parameters (grid, viscosity, final time, scheme,
initial condition, monitored exponents) have no defaults; only the step
controls, the boundary treatment and the output cadences do.  RunConfig
keeps the step controls as one TimeStepPlan (RunConfig.plan, with
TimeStepPlan's defaults) and the grid it checked as one HalfPlaneGrid
(RunConfig.grid), which the run, its replay and every sweep member share,
factored operators and kernel tables included.  RunConfig.initial_state()
builds the solved starting state, boundary treatment included.
run_from_config executes the run and persists

    config.json      the document (canonical formatting; a checkpoint path absolute)
    diagnostics.csv  one row per sampled step, fixed column set
    checkpoint_*.axf1 final state and optional periodic checkpoints
    manifest.json    grid/IC metadata and the output inventory

with no wall-clock content anywhere, so identical configs reproduce
byte-identical directories.
"""

from __future__ import annotations

import json
import os
import reprlib
from dataclasses import dataclass, fields, replace

import numpy as np

from .diagnostics import DiagnosticsCollector, write_csv
from .evolution import TimeStepPlan, _read_axf1, json_number, make_state, run, write_checkpoint
from .exceptions import ConfigError
from .grid import HalfPlaneGrid, build_grid
from .initial_conditions import _spec_params, make_initial_condition

def _number(kind=float, low=-np.inf):
    return lambda value, path: json_number(value, f"key {path!r}", kind, low)


def _text(*names):
    def check(value, path):
        if not isinstance(value, str) or (names and value not in names):
            want = " or ".join(map(repr, names)) or "a string"
            raise ValueError(f"key {path!r} must be {want}, got {reprlib.repr(value)}")
    return check


def _list_of(rule):
    def check(value, path):
        if not (isinstance(value, list) and value):
            raise ValueError(f"key {path!r} must be a non-empty list, got {reprlib.repr(value)}")
        for i, item in enumerate(value):
            rule(item, f"{path}.{i}")
    return check


def _object(table, required=(), other=None):
    """An object with the required keys, each key checked by table or else by other."""
    def check(node, path):
        if not isinstance(node, dict):
            raise ValueError(f"{path or 'document'} must be an object, got {type(node).__name__}")
        for key in dict.fromkeys([*required, *node]):
            name = f"{path}.{key}" if path else key
            if key not in node:
                raise ValueError(f"key {name!r} is missing")
            if key not in table and other is None:
                raise ValueError(f"unknown key {name!r}")
            table.get(key, other)(node[key], name)
    return check


_COUNT, _NUMBER = _number(int), _number()
_GRID = {"nr": _COUNT, "nz": _COUNT, "r_max": _NUMBER, "z_min": _NUMBER, "z_max": _NUMBER}

# Every key of a config document and the check of its value's type, called
# with the value and its dotted key path.  A least value is kept only where no
# constructor checks the range before the run starts: build_grid checks the
# grid, TimeStepPlan.validated the step controls, and initial_conditions the
# initial condition's kind and keys.
_CONFIG = _object({
    "grid": _object(_GRID, required=_GRID),
    "nu": _number(low=0.0),
    "tfinal": _number(low=0.0),
    "scheme": _text(),
    # a checkpoint's path is a string, analytic parameters are numbers
    "initial_condition": _object({"kind": _text(), "path": _text()}, required=("kind",),
                                 other=_NUMBER),
    "p_list": _list_of(_number(low=1.0)),
    "dt": _NUMBER, "dt_max": _NUMBER, "cfl": _NUMBER, "theta": _NUMBER, "blowup_limit": _NUMBER,
    "sample_every": _COUNT,
    "checkpoint_every": _number(int, low=0),
    "rng_seed": _number(int, low=0),
    "boundary": _text("zero", "kernel"),
}, required=("grid", "nu", "tfinal", "scheme", "initial_condition", "p_list"))

_PLAN_KEYS = tuple(field.name for field in fields(TimeStepPlan))


def validate_config_dict(doc) -> dict:
    """Check a raw config document by building its RunConfig.

    Returns the document unchanged; raises ConfigError naming the offending key.
    """
    RunConfig.from_dict(doc)
    return doc


def load_config_file(path: str):
    """The parsed JSON document of a config file, not yet checked.

    The command that uses it checks it once, with RunConfig.from_dict;
    ConfigError here means the file is unreadable or not JSON.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # malformed JSON or bytes that are not UTF-8
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    return doc


@dataclass
class RunConfig:
    """Typed view of a validated config document; build it with from_dict."""

    doc: dict  # the validated document, checkpoint path absolute; written to config.json
    grid: HalfPlaneGrid
    nu: float
    tfinal: float
    initial_condition: dict
    p_list: list
    plan: TimeStepPlan
    boundary: str = "zero"
    checkpoint_every: int = 0
    rng_seed: int = 0

    @classmethod
    def from_dict(cls, doc) -> "RunConfig":
        """Check a raw config document and build its typed view.

        The key table checks keys and value types, build_grid the grid and
        TimeStepPlan.validated the step controls; ConfigError names the key.
        """
        try:
            _CONFIG(doc, "")
            grid = build_grid(**doc["grid"])
            plan = TimeStepPlan(**{k: doc[k] for k in _PLAN_KEYS if k in doc}).validated()
        except ValueError as exc:
            raise ConfigError(f"config: {exc}") from exc
        spec = doc["initial_condition"]
        if "path" in spec:
            # config.json names the checkpoint so that it resolves from any directory
            doc = dict(doc, initial_condition=dict(spec, path=os.path.abspath(spec["path"])))
        rest = {k: doc[k] for k in doc if k not in _PLAN_KEYS and k != "grid"}
        return cls(doc=doc, grid=grid, plan=plan, **rest)

    def initial_state(self):
        """The solved starting state of the run and the initial condition's info.

        A checkpoint restart keeps the checkpoint's t and step_index (tfinal is
        absolute) and takes nu from the config; grid, boundary and tfinal must fit.
        """
        spec = self.initial_condition
        if spec["kind"] != "checkpoint":
            xi0, ic_info = make_initial_condition(spec, self.grid, monitor_ps=self.p_list)
            return make_state(self.grid, xi0, self.nu, boundary=self.boundary), ic_info
        try:
            xi, nu, t, step, boundary = _read_axf1(_spec_params(spec, {"path"})["path"])
        except (OSError, ValueError) as exc:
            raise ConfigError(f"checkpoint restart failed: {exc}") from exc
        fits = {"grid": xi.grid == self.grid, "boundary": boundary == self.boundary,
                "tfinal": self.tfinal >= t}
        bad = next((key for key, ok in fits.items() if not ok), None)
        if bad is not None:
            raise ConfigError(f"config key {bad!r} does not match the checkpoint (grid "
                              f"{xi.grid.nr}x{xi.grid.nz}, boundary {boundary!r}, "
                              f"t = {t} <= tfinal)")
        state = make_state(self.grid, xi.values, self.nu, t=t, boundary=self.boundary)
        return replace(state, step_index=step), {"restart_t": t, "restart_nu": nu}


def _canonical_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def run_from_config(config, out_dir: str, extra_hook=None):
    """Execute one configured run, persisting outputs under out_dir.

    config may be a RunConfig or a document to check.  Returns (final state,
    records).  If the run raises, the partial CSV and an aborted manifest
    carrying the error are flushed before the error propagates.
    extra_hook(state, step), if given, runs at the sampling cadence after
    diagnostics (the sweep uses it to capture velocity snapshots).
    """
    if not isinstance(config, RunConfig):
        config = RunConfig.from_dict(config)
    state, ic_info = config.initial_state()
    os.makedirs(out_dir, exist_ok=True)
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
            "grid": config.doc["grid"],
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

