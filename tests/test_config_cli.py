import copy
import csv
import importlib
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import axisymlab
from axisymlab import (
    ConfigError,
    NumericalBlowupError,
    RunConfig,
    build_grid,
    cli_main,
    gaussian_ring_xi,
    load_config_file,
    make_initial_condition,
    make_state,
    read_checkpoint,
    run_from_config,
    signed_moment_experiment,
    sweep,
    validate_config_dict,
    write_checkpoint,
)
from axisymlab import biot_savart

sweep_module = importlib.import_module("axisymlab.sweep")


def base_doc(**overrides):
    doc = {
        "grid": {"nr": 24, "nz": 48, "r_max": 3.0, "z_min": -3.0, "z_max": 3.0},
        "nu": 1e-3,
        "tfinal": 0.04,
        "scheme": "xi_semilagrangian",
        "initial_condition": {
            "kind": "gaussian_ring", "r0": 1.0, "z0": 0.0, "sigma": 0.3, "amplitude": 1.0,
        },
        "p_list": [1.0, 2.0],
        "dt": 0.02,
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_config_roundtrip():
    doc = base_doc()
    assert validate_config_dict(doc) is doc
    config = RunConfig.from_dict(doc)
    assert config.nu == 1e-3 and config.plan.dt == 0.02
    assert config.plan.sample_every == 1 and config.checkpoint_every == 0
    assert config.grid == build_grid(24, 48, 3.0, -3.0, 3.0)
    plan = config.plan
    assert plan.scheme == "xi_semilagrangian" and plan.dt == 0.02


# (key path, value): values that break the rule for outside numbers (no bools
# or strings, counts are JSON integers, |x| at most the largest double), or
# that lie outside a range only the config checks
_MALFORMED = {
    "nr-float": ("grid.nr", 24.0),
    "sample_every-float": ("sample_every", 2.0),
    "rng_seed-float": ("rng_seed", 3.0),
    "nu-bool": ("nu", True),
    "dt-string": ("dt", "0.01"),
    "nu-huge": ("nu", 10**400),
    "boundary-none": ("boundary", "none"),
    "p_list-number": ("p_list", 2.0),
    "checkpoint_every-negative": ("checkpoint_every", -1),
}


def _set_key(doc, path, value):
    *parents, key = path.split(".")
    for name in parents:
        doc = doc[name]
    doc[key] = value


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda d: d.update(surprise=1), "surprise"),
        (lambda d: d["grid"].update(hx=0.1), "hx"),
        (lambda d: d.pop("nu"), "nu"),
        (lambda d: d.update(nu=-0.1), "nu"),
        (lambda d: d.update(scheme="leapfrog"), "scheme"),
        (lambda d: d.update(p_list=[]), "p_list"),
        (lambda d: d.update(p_list=[0.5]), "p_list"),
        (lambda d: d.update(p_list=[1.0, float("inf")]), "p_list"),
        (lambda d: d["grid"].update(z_min=2.0, z_max=-2.0), "z_min"),
        (lambda d: d.update(theta=0.4), "theta"),
        (lambda d: d.update(cfl=1.5), "cfl"),
        (lambda d: d.update(tfinal=-1.0), "tfinal"),
        (lambda d: d["grid"].update(nr=2), "nr"),
        (lambda d: d.update(initial_condition={"sigma": 1.0}), "kind"),
        # JSON readers accept NaN and Infinity, which every range check lets through
        *(pytest.param(lambda d, k=k: d.update({k: float("nan")}), f"'{k}'", id=f"nan-{k}")
          for k in ("dt", "nu", "tfinal", "blowup_limit", "cfl", "theta")),
        pytest.param(lambda d: d["grid"].update(r_max=float("inf")), "'grid.r_max'",
                     id="inf-r_max"),
        pytest.param(lambda d: d["initial_condition"].update(amplitude=float("nan")),
                     "'initial_condition.amplitude'", id="nan-amplitude"),
        *(pytest.param(lambda d, path=path, value=value: _set_key(d, path, value),
                       f"'{path}'", id=case) for case, (path, value) in _MALFORMED.items()),
    ],
)
def test_validate_config_rejections(mutate, needle):
    doc = copy.deepcopy(base_doc())
    mutate(doc)
    with pytest.raises(ConfigError) as err:
        validate_config_dict(doc)
    assert needle in str(err.value)


_HILL = {"kind": "hill_vortex", "radius": 1.0, "amplitude": 1.0}


@pytest.mark.parametrize("spec,needle", [
    pytest.param(["hill_vortex"], "object", id="not-an-object"),
    pytest.param({"kind": "vortex_sheet"}, "vortex_sheet", id="unknown-kind"),
    pytest.param({"kind": "hill_vortex", "radius": 1.0}, "amplitude", id="missing-key"),
    pytest.param(dict(_HILL, center=0.0), "center", id="unknown-key"),
    pytest.param(dict(_HILL, nonnegative=True), "nonnegative", id="nonnegative"),
])
def test_initial_condition_spec_rejections(spec, needle):
    with pytest.raises(ConfigError, match=needle):
        make_initial_condition(spec, build_grid(8, 8, 1.0, -1.0, 1.0))


def test_validate_config_not_a_dict():
    with pytest.raises(ConfigError):
        validate_config_dict([1, 2, 3])


def test_load_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config_file(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config_file(str(bad))


def test_each_command_checks_its_config_once(tmp_path, monkeypatch, capsys):
    # load_config_file only parses; the command's own RunConfig.from_dict checks
    calls = []
    check = RunConfig.__dict__["from_dict"].__func__

    def counted(cls, doc):
        calls.append(doc)
        return check(cls, doc)

    monkeypatch.setattr(RunConfig, "from_dict", classmethod(counted))
    run = tmp_path / "run"
    assert cli_main(["run", "--config", write_config(tmp_path, base_doc()), "--out", str(run)]) == 0
    assert len(calls) == 1
    assert cli_main(["renorm-check", "--run", str(run), "--tests", "2"]) == 0
    assert len(calls) == 2
    assert cli_main(["sweep", "--config", write_config(tmp_path, sweep_doc(), "sweep.json"),
                     "--nus", _LADDER, "--out", str(tmp_path / "sweep")]) == 0
    assert len(calls) == 3


def test_a_config_that_is_not_an_object_exits_1(tmp_path, capsys):
    path = write_config(tmp_path, [1, 2, 3])
    assert load_config_file(path) == [1, 2, 3]
    assert cli_main(["run", "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert cli_main(["sweep", "--config", path, "--nus", _LADDER,
                     "--out", str(tmp_path / "s")]) == 1
    assert capsys.readouterr().err.count("document must be an object") == 2
    assert not [p for p in tmp_path.iterdir() if p.is_dir()]


def test_run_from_config_outputs(tmp_path):
    out = tmp_path / "run"
    final, records = run_from_config(base_doc(), str(out))
    assert np.isclose(final.t, 0.04) and final.step_index == 2
    assert len(records) == 3  # steps 0, 1, 2 all sampled
    names = sorted(os.listdir(out))
    assert names == ["checkpoint_final.axf1", "config.json", "diagnostics.csv", "manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "completed"
    assert manifest["records"] == 3
    assert manifest["checkpoints"] == ["checkpoint_final.axf1"]
    assert manifest["ic_info"] == {}
    csv_lines = (out / "diagnostics.csv").read_text().strip().split("\n")
    assert len(csv_lines) == 4
    # stored config revalidates
    assert load_config_file(str(out / "config.json")) == base_doc()


def test_run_from_config_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_from_config(base_doc(), str(a))
    run_from_config(base_doc(), str(b))
    for name in sorted(os.listdir(a)):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_tfinal_zero_single_row(tmp_path):
    out = tmp_path / "frozen"
    final, records = run_from_config(base_doc(tfinal=0.0), str(out))
    assert final.t == 0.0 and len(records) == 1
    lines = (out / "diagnostics.csv").read_text().strip().split("\n")
    assert len(lines) == 2


def test_run_aborted_manifest(tmp_path):
    out = tmp_path / "boom"
    with pytest.raises(NumericalBlowupError):
        run_from_config(base_doc(blowup_limit=1e-12), str(out))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "aborted"
    assert "blowup" in manifest["error"]
    assert os.path.exists(out / "diagnostics.csv")
    assert not os.path.exists(out / "checkpoint_final.axf1")


def test_run_programming_error_leaves_aborted_manifest(tmp_path, monkeypatch):
    # a non-numerical error inside a step still flushes the partial CSV and
    # an aborted manifest naming the error, then propagates unchanged
    from axisymlab import evolution

    real_step = evolution.step_viscous

    def broken(state, *args):
        if state.step_index >= 1:
            raise ValueError("argument bug")
        return real_step(state, *args)

    monkeypatch.setattr(evolution, "step_viscous", broken)
    cfg = write_config(tmp_path, base_doc(tfinal=0.06))
    out = tmp_path / "bug"
    with pytest.raises(ValueError, match="argument bug") as info:
        cli_main(["run", "--config", cfg, "--out", str(out)])
    assert type(info.value) is ValueError
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "aborted"
    assert manifest["error"] == "argument bug"
    assert manifest["records"] == 2  # the initial state and the one step taken
    with open(out / "diagnostics.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 3  # header and two rows
    assert not os.path.exists(out / "checkpoint_final.axf1")


def test_main_exits_3_on_a_programming_error(tmp_path, monkeypatch, capsys):
    # the console entry point reports a program fault with its own exit code,
    # not 1 (bad input), after cli_main has left the aborted manifest
    from axisymlab import cli, evolution

    def broken(state, *args):
        raise RuntimeError("argument bug")

    monkeypatch.setattr(evolution, "step_viscous", broken)
    out = tmp_path / "bug"
    cfg = write_config(tmp_path, base_doc())
    monkeypatch.setattr(sys, "argv", ["axflow", "run", "--config", cfg, "--out", str(out)])
    with pytest.raises(SystemExit) as info:
        cli.main()
    assert info.value.code == 3
    assert "RuntimeError: argument bug" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "aborted"
    assert manifest["error"] == "argument bug"


def test_checkpoint_cadence_counts_sampling_events(tmp_path):
    out = tmp_path / "ck"
    doc = base_doc(tfinal=0.08, dt=0.01, sample_every=2, checkpoint_every=2)
    run_from_config(doc, str(out))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["checkpoints"] == [
        "checkpoint_000004.axf1", "checkpoint_000008.axf1", "checkpoint_final.axf1",
    ]
    for name in manifest["checkpoints"]:
        assert os.path.exists(out / name)


def test_singular_ring_gate_through_config(tmp_path):
    ic = {"kind": "singular_ring", "r0": 1.0, "z0": 0.0, "alpha": 1.9,
          "cutoff": 0.5, "amplitude": 1.0}
    ok = base_doc(tfinal=0.0, initial_condition=ic, p_list=[1.5])
    final, _ = run_from_config(ok, str(tmp_path / "ok"))
    assert np.max(final.xi.values) > 0.0
    bad_alpha = dict(ic, alpha=2.1)
    with pytest.raises(ConfigError, match="alpha"):
        run_from_config(base_doc(tfinal=0.0, initial_condition=bad_alpha,
                                 p_list=[1.5]), str(tmp_path / "bad"))
    # the same alpha dies against a stricter monitored exponent
    with pytest.raises(ConfigError, match="alpha"):
        run_from_config(base_doc(tfinal=0.0, initial_condition=ic,
                                 p_list=[2.0]), str(tmp_path / "bad2"))


def test_checkpoint_restart_through_config(tmp_path):
    # a restart keeps the checkpoint's clock, so tfinal is absolute: restarting
    # with tfinal at the checkpoint's t = 0.04 takes no step; nu comes from the
    # config, as a sweep started from a checkpoint needs
    first = tmp_path / "first"
    final, _ = run_from_config(base_doc(), str(first))
    restart_doc = base_doc(
        initial_condition={"kind": "checkpoint", "path": str(first / "checkpoint_final.axf1")},
        nu=5e-3,
    )
    state, records = run_from_config(restart_doc, str(tmp_path / "second"))
    assert np.array_equal(state.xi.values, final.xi.values)
    assert state.t == final.t == pytest.approx(0.04) and state.step_index == 2
    assert len(records) == 1 and records[0].t == final.t
    assert state.nu == records[0].nu == 5e-3
    manifest = json.loads((tmp_path / "second" / "manifest.json").read_text())
    assert manifest["ic_info"] == {"restart_t": final.t, "restart_nu": 1e-3}
    mismatched = base_doc(
        grid={"nr": 16, "nz": 32, "r_max": 3.0, "z_min": -3.0, "z_max": 3.0},
        initial_condition={"kind": "checkpoint", "path": str(first / "checkpoint_final.axf1")},
    )
    with pytest.raises(ConfigError, match="does not match"):
        run_from_config(mismatched, str(tmp_path / "third"))


def test_rejected_initial_state_leaves_no_run_directory(tmp_path):
    first = tmp_path / "first"
    run_from_config(base_doc(), str(first))
    unknown_kind = base_doc(initial_condition={"kind": "vortex_sheet"})
    mismatched = base_doc(
        grid={"nr": 16, "nz": 32, "r_max": 3.0, "z_min": -3.0, "z_max": 3.0},
        initial_condition={"kind": "checkpoint", "path": str(first / "checkpoint_final.axf1")},
    )
    for name, doc in (("unknown_kind", unknown_kind), ("mismatched", mismatched)):
        with pytest.raises(ConfigError):
            run_from_config(doc, str(tmp_path / name))
        assert not (tmp_path / name).exists()


@pytest.mark.parametrize("key,overrides", [
    # the checkpoint holds kernel boundary data, which a config without
    # 'boundary' would silently replace by zero boundary data
    pytest.param("boundary", {}, id="boundary"),
    pytest.param("grid", {"boundary": "kernel", "grid": {"nr": 16, "nz": 32, "r_max": 3.0,
                                                         "z_min": -3.0, "z_max": 3.0}}, id="grid"),
    pytest.param("tfinal", {"boundary": "kernel", "tfinal": 0.02}, id="tfinal"),
])
def test_checkpoint_restart_mismatch_exits_1(tmp_path, capsys, key, overrides):
    g = build_grid(24, 48, 3.0, -3.0, 3.0)
    ckpt = str(tmp_path / "kernel.axf1")
    write_checkpoint(make_state(g, gaussian_ring_xi(g, 1.0, 0.0, 0.3, 1.0), 1e-3, t=0.04,
                                boundary="kernel"), ckpt)
    doc = base_doc(initial_condition={"kind": "checkpoint", "path": ckpt}, **overrides)
    out = str(tmp_path / "o")
    assert cli_main(["run", "--config", write_config(tmp_path, doc), "--out", out]) == 1
    assert f"config key {key!r}" in capsys.readouterr().err


def _split_run(tmp_path, scheme, **overrides):
    """An uninterrupted 20-step run and its restart from step 10, as (whole, restart) dirs."""
    doc = base_doc(grid={"nr": 32, "nz": 64, "r_max": 3.0, "z_min": -3.0, "z_max": 3.0},
                   nu=1e-2, dt=0.01, tfinal=0.2, checkpoint_every=10, scheme=scheme)
    doc.update(overrides)
    whole, restart = tmp_path / "whole", tmp_path / "restart"
    run_from_config(doc, str(whole))
    ckpt = {"kind": "checkpoint", "path": str(whole / "checkpoint_000010.axf1")}
    run_from_config(dict(doc, initial_condition=ckpt), str(restart))
    return whole, restart


def test_split_run_reproduces_the_uninterrupted_run(tmp_path):
    # the conservative route keeps no velocity history, so a restart from a
    # checkpoint takes exactly the uninterrupted run's steps; with kernel
    # boundary data the restart's fresh grid builds its own kernel tables
    kernel = {"grid": {"nr": 16, "nz": 32, "r_max": 3.0, "z_min": -3.0, "z_max": 3.0},
              "boundary": "kernel"}
    for case, overrides in (("zero", {}), ("kernel", kernel)):
        whole, restart = _split_run(tmp_path / case, "omega_conservative", **overrides)
        for name in ("checkpoint_000020.axf1", "checkpoint_final.axf1"):
            assert (restart / name).read_bytes() == (whole / name).read_bytes(), case
        with open(whole / "diagnostics.csv", encoding="utf-8") as f:
            whole_rows = list(csv.DictReader(f))
        with open(restart / "diagnostics.csv", encoding="utf-8") as f:
            restart_rows = list(csv.DictReader(f))
        assert len(restart_rows) == 11 and float(restart_rows[0]["t"]) == pytest.approx(0.1)
        # energy_deficit is measured from each run's first state
        for a, b in zip(whole_rows[10:], restart_rows, strict=True):
            del a["energy_deficit"], b["energy_deficit"]
            assert a == b, case


def test_kernel_run_is_the_same_with_one_blas_thread(tmp_path):
    # the kernel boundary sums run in numpy's own loops, so a kernel-boundary
    # run here and one in a fresh interpreter with BLAS pinned to one thread
    # (the benchmark's setting) write the same bytes
    doc = base_doc(grid={"nr": 16, "nz": 32, "r_max": 3.0, "z_min": -3.0, "z_max": 3.0},
                   nu=1e-2, dt=0.01, tfinal=0.05, checkpoint_every=2,
                   scheme="omega_conservative", boundary="kernel")
    config = write_config(tmp_path, doc)
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    assert cli_main(["run", "--config", config, "--out", str(here)]) == 0
    src = os.path.dirname(os.path.dirname(os.path.abspath(axisymlab.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    second = subprocess.run(
        [sys.executable, "-m", "axisymlab.cli", "run", "--config", config, "--out", str(fresh)],
        capture_output=True, text=True, env=env,
    )
    assert second.returncode == 0, second.stderr
    names = sorted(os.listdir(here))
    assert names == sorted(os.listdir(fresh))
    assert "checkpoint_000004.axf1" in names
    for name in names:
        assert (here / name).read_bytes() == (fresh / name).read_bytes(), name


def test_split_run_xi_route_close_to_the_uninterrupted_run(tmp_path):
    # AXF1 holds no velocity history, so the restart's first step advects
    # with the start-of-step velocity instead of the midpoint extrapolation
    whole, restart = _split_run(tmp_path, "xi_semilagrangian")
    a = read_checkpoint(str(whole / "checkpoint_final.axf1")).xi.values
    b = read_checkpoint(str(restart / "checkpoint_final.axf1")).xi.values
    assert np.max(np.abs(a - b)) <= 1e-5 * np.max(np.abs(a))


def test_restart_off_the_cadence_keeps_the_schedule(tmp_path):
    # samples every 2 steps and checkpoints every 2 samples follow the global
    # step, so a restart from a final state at step 7, off both cadences,
    # rejoins the uninterrupted run's schedule at step 8
    doc = base_doc(grid={"nr": 16, "nz": 32, "r_max": 3.0, "z_min": -3.0, "z_max": 3.0},
                   nu=1e-2, dt=0.01, tfinal=0.2, sample_every=2, checkpoint_every=2,
                   scheme="omega_conservative")
    whole, short, restart = tmp_path / "whole", tmp_path / "short", tmp_path / "restart"
    run_from_config(doc, str(whole))
    run_from_config(dict(doc, tfinal=0.07), str(short))
    ckpt = {"kind": "checkpoint", "path": str(short / "checkpoint_final.axf1")}
    run_from_config(dict(doc, initial_condition=ckpt), str(restart))
    names = json.loads((restart / "manifest.json").read_text())["checkpoints"]
    assert names == [f"checkpoint_{k:06d}.axf1" for k in (8, 12, 16, 20)] + ["checkpoint_final.axf1"]
    for name in names:
        assert (restart / name).read_bytes() == (whole / name).read_bytes()
    with open(whole / "diagnostics.csv", encoding="utf-8") as f:
        whole_rows = list(csv.DictReader(f))
    with open(restart / "diagnostics.csv", encoding="utf-8") as f:
        restart_rows = list(csv.DictReader(f))
    assert float(restart_rows[0]["t"]) == pytest.approx(0.07)
    for a, b in zip(whole_rows[4:], restart_rows[1:], strict=True):
        del a["energy_deficit"], b["energy_deficit"]
        assert a == b


def test_cli_run_and_diag(tmp_path, capsys):
    config = write_config(tmp_path, base_doc())
    out = str(tmp_path / "run")
    assert cli_main(["run", "--config", config, "--out", out]) == 0
    summary = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert summary == {"out": out, "records": 3, "steps": 2, "t_final": 0.04}
    ckpt = os.path.join(out, "checkpoint_final.axf1")
    assert cli_main(["diag", "--checkpoint", ckpt]) == 0
    row = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert row["t"] == pytest.approx(0.04)
    assert set(row["lp_norms"]) == {"1", "2", "3"}
    assert cli_main(["diag", "--checkpoint", str(tmp_path / "nope.axf1")]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_diag_uses_the_runs_boundary(tmp_path, capsys):
    # diag rebuilds the velocity with the boundary treatment the checkpoint
    # records, so its energy is the run's own final energy
    doc = base_doc(grid={"nr": 32, "nz": 64, "r_max": 3.0, "z_min": -3.0, "z_max": 3.0},
                   boundary="kernel", nu=1e-2, tfinal=0.05, dt=0.01)
    out = str(tmp_path / "run")
    assert cli_main(["run", "--config", write_config(tmp_path, doc), "--out", out]) == 0
    with open(os.path.join(out, "diagnostics.csv"), encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    ckpt = os.path.join(out, "checkpoint_final.axf1")
    with open(ckpt, "rb") as f:
        assert json.loads(f.readline())["boundary"] == "kernel"
    capsys.readouterr()
    assert cli_main(["diag", "--checkpoint", ckpt]) == 0
    row = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert row["energy"] == pytest.approx(float(rows[-1]["energy"]), rel=1e-10)


_HEADER = {"magic": "AXF1", "nr": 24, "nz": 48, "r_max": 3.0, "z_min": -3.0, "z_max": 3.0,
           "t": 0.0, "nu": 1e-3, "boundary": "zero", "fields": ["xi"]}
_BAD_HEADERS = {
    "no-nr": {k: v for k, v in _HEADER.items() if k != "nr"},
    "nr-null": dict(_HEADER, nr=None),
    "header-list": [_HEADER],
    "nu-nan": dict(_HEADER, nu=float("nan")),
    "nr-inf": dict(_HEADER, nr=float("inf")),
    "nr-fraction": dict(_HEADER, nr=24.9),
    "nr-string": dict(_HEADER, nr="24"),
    "nu-string": dict(_HEADER, nu="0.001"),
    "t-negative": dict(_HEADER, t=-5.0),
    "step_index-negative": dict(_HEADER, step_index=-1),
    "step_index-fraction": dict(_HEADER, step_index=2.5),
    "step_index-string": dict(_HEADER, step_index="2"),
}
_RING = base_doc()["initial_condition"]
_BAD_ICS = {
    "r0-string": dict(_RING, r0="1.0"),
    "sigma-string": dict(_RING, sigma="0.3"),
    "amplitude-null": dict(_RING, amplitude=None),
    "amplitude-bool": dict(_RING, amplitude=True),
    "alpha-list": {"kind": "singular_ring", "r0": 1.0, "z0": 0.0, "alpha": [1.0],
                   "cutoff": 0.5, "amplitude": 1.0},
    "path-int": {"kind": "checkpoint", "path": 7},
    "step-unknown": {"kind": "checkpoint", "path": "x.axf1", "step": 3},
    "path-missing": {"kind": "checkpoint"},
}
_NAN_OVERRIDES = {
    "dt": {"dt": float("nan")},
    "amplitude": {"initial_condition": dict(base_doc()["initial_condition"],
                                            amplitude=float("nan"))},
}

_LADDER = "1e-2,5e-3,2.5e-3,1.25e-3"
# (--nus, --ball-radius); a NaN compares False with every bound, so it must
# be rejected by name before the first member runs
_BAD_SWEEPS = {
    "ball-radius-negative": (_LADDER, "-1"),
    "ball-radius-too-large": (_LADDER, "10"),
    "ball-radius-nan": (_LADDER, "nan"),
    "nus-nan": ("4e-2,nan,1e-2,5e-3", "1"),
}


def _bad_input_argv(tmp_path, case):
    """argv of one CLI call whose outside input is malformed."""
    if case == "config-not-utf8":
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff" + json.dumps(base_doc()).encode("utf-8"))
        return ["run", "--config", str(path), "--out", str(tmp_path / "o")]
    if case.startswith("config-"):
        kind, name = case[len("config-"):].split("-", 1)
        if kind == "malformed":
            doc = base_doc()
            _set_key(doc, *_MALFORMED[name])
        else:
            doc = base_doc(**(_NAN_OVERRIDES[name] if kind == "nan"
                              else {"initial_condition": _BAD_ICS[name]}))
        return ["run", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]
    if case in _BAD_SWEEPS:
        nus, radius = _BAD_SWEEPS[case]
        return ["sweep", "--config", write_config(tmp_path, sweep_doc()),
                "--nus", nus, "--out", str(tmp_path / "s"), "--ball-radius", radius]
    route, header = case.split("-", 1)
    ckpt = tmp_path / "bad.axf1"
    ckpt.write_bytes((json.dumps(_BAD_HEADERS[header]) + "\n").encode("utf-8")
                     + np.zeros((24, 48)).tobytes())
    if route == "diag":
        return ["diag", "--checkpoint", str(ckpt)]
    doc = base_doc(initial_condition={"kind": "checkpoint", "path": str(ckpt)})
    return ["run", "--config", write_config(tmp_path, doc), "--out", str(tmp_path / "o")]


@pytest.mark.parametrize("case", [
    "config-not-utf8", "config-nan-dt", "config-nan-amplitude",
    *(f"config-ic-{name}" for name in _BAD_ICS),
    *(f"config-malformed-{name}" for name in _MALFORMED),
    *(f"{route}-{header}" for route in ("diag", "restart") for header in _BAD_HEADERS),
    *_BAD_SWEEPS,
])
def test_cli_bad_outside_input_exits_1(tmp_path, capsys, case):
    assert cli_main(_bad_input_argv(tmp_path, case)) == 1
    err = capsys.readouterr().err
    assert "error:" in err
    if case.startswith("config-ic-"):  # the message names the offending key
        assert case.split("-")[2] in err
    if case.startswith("config-malformed-"):
        assert repr(_MALFORMED[case[len("config-malformed-"):]][0]) in err
    assert not [path for path in tmp_path.iterdir() if path.is_dir()]  # no run directory


@pytest.mark.parametrize("key,value", [("stream_tol", 1e-10), ("diffusion_tol", 1e-12),
                                       ("reproducible", True)])
def test_removed_config_keys_rejected(tmp_path, capsys, key, value):
    doc = base_doc(**{key: value})
    with pytest.raises(ConfigError, match=key):
        validate_config_dict(doc)
    config = write_config(tmp_path, doc)
    assert cli_main(["run", "--config", config, "--out", str(tmp_path / "o")]) == 1
    assert key in capsys.readouterr().err


def test_cli_module_runs_without_warning():
    # the package imports cli lazily, so runpy finds no cli module already
    # in sys.modules when it executes it as __main__
    src = os.path.dirname(os.path.dirname(os.path.abspath(axisymlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "axisymlab.cli", "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0
    assert "RuntimeWarning" not in done.stderr


def test_import_does_not_load_jsonschema():
    # configs are checked by the package's own key table
    src = os.path.dirname(os.path.dirname(os.path.abspath(axisymlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", "import sys, axisymlab; "
                           "print('jsonschema' in sys.modules)"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0 and done.stdout.strip() == "False"


def test_cli_exit_code_validation(tmp_path, capsys):
    assert cli_main(["run", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err
    # argparse problems are validation errors, not tracebacks
    assert cli_main(["run"]) == 1
    assert cli_main(["bogus"]) == 1
    capsys.readouterr()


def test_cli_exit_code_numerical(tmp_path, capsys):
    config = write_config(tmp_path, base_doc(blowup_limit=1e-12))
    assert cli_main(["run", "--config", config, "--out", str(tmp_path / "o")]) == 2
    assert "numerical failure:" in capsys.readouterr().err


def test_cli_verify_ineq(tmp_path, capsys):
    out = str(tmp_path / "ineq")
    assert cli_main(["verify", "ineq", "--suite", "nash", "--samples", "5",
                     "--seed", "3", "--out", out]) == 0
    printed = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    on_disk = json.loads((tmp_path / "ineq" / "ineq_nash.json").read_text())
    assert printed == on_disk
    assert on_disk["samples"] == 5 and on_disk["empirical_sup"] > 0.0
    # ap scan floor: tiny sample counts are a validation error
    assert cli_main(["verify", "ineq", "--suite", "ap", "--samples", "50",
                     "--out", out]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_renorm_check(tmp_path, capsys):
    config = write_config(tmp_path, base_doc())
    run_dir = str(tmp_path / "run")
    assert cli_main(["run", "--config", config, "--out", run_dir]) == 0
    capsys.readouterr()
    assert cli_main(["renorm-check", "--run", run_dir, "--beta", "quadratic_clip",
                     "--tests", "4"]) == 0
    report = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
    assert list(report["residuals"]) == ["quadratic_clip"]
    assert np.isfinite(report["residuals"]["quadratic_clip"])
    assert os.path.exists(os.path.join(run_dir, "renorm_report.json"))
    assert cli_main(["renorm-check", "--run", run_dir, "--beta", "nope"]) == 1
    assert cli_main(["renorm-check", "--run", str(tmp_path / "empty")]) == 1
    frozen_cfg = write_config(tmp_path, base_doc(tfinal=0.0), name="frozen.json")
    frozen_dir = str(tmp_path / "frozen")
    assert cli_main(["run", "--config", frozen_cfg, "--out", frozen_dir]) == 0
    assert cli_main(["renorm-check", "--run", frozen_dir]) == 1
    capsys.readouterr()


def test_cli_renorm_check_on_a_restart(tmp_path, capsys):
    # the weak form of a restarted run is posed on its replayed interval
    # [t0, tfinal], with time measured from t0: its residual is that of the
    # same trajectory restarted at t = 0
    first = tmp_path / "first"
    run_from_config(base_doc(checkpoint_every=1), str(first))
    ckpt = first / "checkpoint_000001.axf1"  # t = 0.02
    header, payload = ckpt.read_bytes().split(b"\n", 1)
    at_zero = tmp_path / "at_zero.axf1"
    at_zero.write_bytes(json.dumps(dict(json.loads(header), t=0.0, step_index=0)).encode()
                        + b"\n" + payload)
    residuals = []
    for name, path, tfinal in (("late", ckpt, 0.06), ("early", at_zero, 0.04)):
        doc = base_doc(tfinal=tfinal, initial_condition={"kind": "checkpoint", "path": str(path)})
        run_dir = str(tmp_path / name)
        assert cli_main(["run", "--config", write_config(tmp_path, doc), "--out", run_dir]) == 0
        capsys.readouterr()
        assert cli_main(["renorm-check", "--run", run_dir, "--beta", "cubic_odd"]) == 0
        residuals.append(json.loads(capsys.readouterr().out)["residuals"]["cubic_odd"])
    assert residuals[0] > 0.0 and residuals[0] == pytest.approx(residuals[1], rel=1e-9)
    # a replay that takes no step is rejected, as tfinal = 0 is for a fresh run
    doc = base_doc(tfinal=0.02, initial_condition={"kind": "checkpoint", "path": str(ckpt)})
    run_dir = str(tmp_path / "still")
    assert cli_main(["run", "--config", write_config(tmp_path, doc), "--out", run_dir]) == 0
    assert cli_main(["renorm-check", "--run", run_dir]) == 1
    assert "steps past t0" in capsys.readouterr().err


def test_cli_renorm_check_inside_a_restarted_run(tmp_path, capsys, monkeypatch):
    # the restart names its checkpoint relative to where it ran; config.json
    # keeps it absolute, so the replay finds it from the run directory itself
    monkeypatch.chdir(tmp_path)
    run_from_config(base_doc(checkpoint_every=1), "first")
    doc = base_doc(tfinal=0.06, initial_condition={
        "kind": "checkpoint", "path": os.path.join("first", "checkpoint_000001.axf1")})
    assert cli_main(["run", "--config", write_config(tmp_path, doc), "--out", "second"]) == 0
    saved = json.loads((tmp_path / "second" / "config.json").read_text())["initial_condition"]
    assert os.path.isabs(saved["path"])
    assert os.path.samefile(saved["path"], tmp_path / "first" / "checkpoint_000001.axf1")
    monkeypatch.chdir(tmp_path / "second")
    capsys.readouterr()
    assert cli_main(["renorm-check", "--run", ".", "--beta", "cubic_odd", "--tests", "4"]) == 0
    assert np.isfinite(json.loads(capsys.readouterr().out)["residuals"]["cubic_odd"])


def sweep_doc():
    return base_doc(
        grid={"nr": 16, "nz": 32, "r_max": 3.0, "z_min": -3.0, "z_max": 3.0},
        tfinal=0.02, dt=0.01,
    )


def test_sweep_aggregation(tmp_path):
    nus = [1e-2, 5e-3, 2.5e-3, 1.25e-3]
    result = sweep(sweep_doc(), nus, str(tmp_path / "sweep"))
    assert result.nus == nus
    assert len(result.pairwise) == 3
    for (a, b), gaps in result.pairwise.items():
        assert a > b and len(gaps) == len(result.pairwise_times)
        assert all(g >= 0.0 for g in gaps)
    assert len(result.deficit_table) == 4 * len(result.sample_times)
    assert result.bound_constant >= 0.0
    summary = json.loads((tmp_path / "sweep" / "sweep_summary.json").read_text())
    assert summary["status"] == "completed"
    assert sorted(os.listdir(tmp_path / "sweep")) == [
        "nu_0.00125", "nu_0.0025", "nu_0.005", "nu_0.01", "sweep_summary.json",
    ]


def _counted_kernel_sweep(tmp_path, monkeypatch, doc):
    """The members' final states and the ring_stream calls of a 4-member sweep of doc."""
    calls, finals = [], []
    ring_stream = biot_savart.ring_stream

    def counted(*args):
        calls.append(args)
        return ring_stream(*args)

    member_run = sweep_module.run_from_config

    def kept(*args, **kwargs):
        final, records = member_run(*args, **kwargs)
        finals.append(final)
        return final, records

    monkeypatch.setattr(biot_savart, "ring_stream", counted)
    monkeypatch.setattr(sweep_module, "run_from_config", kept)
    sweep(doc, [1e-2, 5e-3, 2.5e-3, 1.25e-3], str(tmp_path / "sweep"))
    return finals, calls


def test_sweep_members_share_one_grid_and_its_kernel_tables(tmp_path, monkeypatch):
    # every member runs on the config's grid, so a kernel sweep evaluates the
    # boundary tables once, as one run does (test_benchmark_traces.py)
    doc = dict(sweep_doc(), tfinal=0.01, scheme="omega_conservative", boundary="kernel")
    finals, calls = _counted_kernel_sweep(tmp_path, monkeypatch, doc)
    assert len(finals) == 4 and all(f.step_index == 1 for f in finals)
    assert all(f.grid is finals[0].grid for f in finals)
    assert len(calls) == finals[0].grid.nr + 1


def test_sweep_from_a_checkpoint_shares_one_grid_and_its_kernel_tables(tmp_path, monkeypatch):
    # a restart solves the checkpoint's xi on the config's grid, not on a grid
    # of its own built from the AXF1 header, so the members share the tables
    g = build_grid(16, 32, 3.0, -3.0, 3.0)
    ckpt = str(tmp_path / "kernel.axf1")
    write_checkpoint(make_state(g, gaussian_ring_xi(g, 1.0, 0.0, 0.3, 1.0), 1e-3, t=0.02,
                                boundary="kernel"), ckpt)
    doc = dict(sweep_doc(), tfinal=0.03, scheme="omega_conservative", boundary="kernel",
               initial_condition={"kind": "checkpoint", "path": ckpt})
    finals, calls = _counted_kernel_sweep(tmp_path, monkeypatch, doc)
    assert len(finals) == 4 and all(f.step_index == 1 for f in finals)
    assert all(f.grid is finals[0].grid and f.grid is not g for f in finals)
    assert len(calls) == finals[0].grid.nr + 1


def test_sweep_from_a_checkpoint_measures_time_from_the_restart(tmp_path):
    # each member's deficit is measured from the restarted state, so the bound
    # divides by nu (t - t0): a sweep from a t = 0.1 checkpoint reports the
    # constant of the same field swept from t = 0
    first = tmp_path / "first"
    run_from_config(dict(sweep_doc(), tfinal=0.1), str(first))
    saved = read_checkpoint(str(first / "checkpoint_final.axf1"))
    assert saved.t == pytest.approx(0.1)
    fresh_ckpt = str(tmp_path / "fresh.axf1")
    write_checkpoint(replace(saved, t=0.0, step_index=0), fresh_ckpt)
    nus = [1e-2, 5e-3, 2.5e-3, 1.25e-3]
    results = []
    for name, path, tfinal in (("fresh", fresh_ckpt, 0.1),
                               ("restart", str(first / "checkpoint_final.axf1"), saved.t + 0.1)):
        doc = dict(sweep_doc(), tfinal=tfinal, initial_condition={"kind": "checkpoint", "path": path})
        results.append(sweep(doc, nus, str(tmp_path / name)))
    fresh, restart = results
    assert restart.sample_times[0] == saved.t
    assert len(restart.sample_times) == len(fresh.sample_times) == 11
    assert fresh.bound_constant > 0.0
    assert restart.bound_constant == pytest.approx(fresh.bound_constant, rel=1e-9)


def test_sweep_validation(tmp_path):
    out = str(tmp_path / "s")
    with pytest.raises(ConfigError, match="at least 4"):
        sweep(sweep_doc(), [1e-2, 5e-3], out)
    with pytest.raises(ConfigError, match="decreasing"):
        sweep(sweep_doc(), [1e-2, 5e-3, 5e-3, 1e-3], out)
    doc = sweep_doc()
    doc.pop("dt")
    with pytest.raises(ConfigError, match="dt"):
        sweep(doc, [1e-2, 5e-3, 2.5e-3, 1.25e-3], out)
    with pytest.raises(ConfigError, match="p > 3/2"):
        sweep(sweep_doc(), [1e-2, 5e-3, 2.5e-3, 1.25e-3], out, bound_p=1.2)


def test_cli_sweep_bad_nus(tmp_path, capsys):
    config = write_config(tmp_path, sweep_doc())
    assert cli_main(["sweep", "--config", config, "--nus", "a,b,c,d",
                     "--out", str(tmp_path / "s")]) == 1
    assert "comma-separated" in capsys.readouterr().err


def test_signed_moment_experiment_smoke():
    out = signed_moment_experiment(
        grid_doc={"nr": 24, "nz": 48, "r_max": 3.0, "z_min": -3.0, "z_max": 3.0},
        nu=1e-3, tfinal=0.02, dt=0.01, sample_every=1,
    )
    assert out["base_moment"] > 0.0
    ratios = [row["moment_ratio"] for row in out["trajectory"]]
    assert ratios[0] == pytest.approx(1.0)
    assert all(np.isfinite(v) for v in ratios)
