"""The separable direct solver against dense linear algebra.

Each implicit operator is assembled column by column on a small grid from
apply_separable and its radial coefficients, which apply A directly with no
z transform and no sweep; np.linalg.solve on that dense matrix is the oracle
for the fast route.  A factored operator reused for many solves must give
what a fresh one gives, bit for bit.  The coefficients themselves are
checked against analytic results in test_biot_savart and test_evolution.
The numpy z transforms are checked against scipy.fft, and fresh
interpreters check which runs load scipy at all.
"""

import ast
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import axisymlab
from axisymlab.biot_savart import solve_stream_function, stream_operator_radial
from axisymlab.evolution import _xi_diffusion_radial, diffuse_relative_vorticity, diffuse_vorticity
from axisymlab.grid import ScalarField, build_grid
from axisymlab.lagrangian import _diffuse_dual
from axisymlab import biot_savart, evolution
from axisymlab.separable import SeparableOperator, _forward, _inverse, apply_separable

NR, NZ = 6, 10
NU, DT = 0.3, 0.2
THETAS = (0.5, 0.75, 1.0)  # Crank-Nicolson, a general theta, backward Euler


def _grid():
    return build_grid(NR, NZ, 2.0, -1.5, 1.0)


def _dense(apply_op):
    """The matrix of a linear map on (NR, NZ) arrays, C order."""
    cols = []
    for k in range(NR * NZ):
        e = np.zeros(NR * NZ)
        e[k] = 1.0
        cols.append(apply_op(e.reshape(NR, NZ)).ravel())
    return np.column_stack(cols)


def _rhs(seed):
    return np.random.default_rng(seed).standard_normal((NR, NZ))


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


# B with both closures, bare and shifted; bare B with zero flux on every
# outer side is singular and left out
CASES = [(outer_r, z_bc, shift, scale)
         for outer_r in ("dirichlet", "neumann")
         for z_bc in ("dirichlet", "neumann")
         for shift, scale in ((0.0, 1.0), (1.0, 0.37))
         if shift > 0.0 or "dirichlet" in (outer_r, z_bc)]


@pytest.mark.parametrize("outer_r,z_bc,shift,scale", CASES)
def test_solve_separable_matches_dense_stream_operator(outer_r, z_bc, shift, scale):
    g = _grid()
    radial = stream_operator_radial(g, outer_r)
    A = _dense(lambda v: shift * v + scale * apply_separable(v, radial, g.hz, z_bc))
    b = _rhs(1)
    want = np.linalg.solve(A, b.ravel()).reshape(NR, NZ)
    got = SeparableOperator(radial, g.hz, NZ, z_bc, shift, scale).solve(b)
    assert _rel(got, want) <= 1e-12


def test_stream_solve_matches_dense():
    g = _grid()
    omega = _rhs(2)
    radial = stream_operator_radial(g)
    want = np.linalg.solve(_dense(lambda v: apply_separable(v, radial, g.hz, "dirichlet")),
                           (g.r_col * omega).ravel()).reshape(NR, NZ)
    psi, rep = solve_stream_function(ScalarField(g, omega, role="vorticity"))
    assert _rel(psi.values, want) <= 1e-12
    assert rep.residual <= 1e-13


@pytest.mark.parametrize("outer_r,z_bc,shift,scale", CASES)
def test_separable_operator_reuses_its_factors_bit_for_bit(outer_r, z_bc, shift, scale):
    # one operator solving many right-hand sides gives what a fresh operator
    # gives for each, and never hands out its buffers
    g = _grid()
    radial = stream_operator_radial(g, outer_r)
    op = SeparableOperator(radial, g.hz, NZ, z_bc, shift, scale)
    rhss = [_rhs(seed) for seed in (7, 8, 9)]
    got = [op.solve(b) for b in rhss]
    for b, x in zip(rhss, got):
        assert np.array_equal(x, SeparableOperator(radial, g.hz, NZ, z_bc, shift, scale).solve(b))
    assert not any(np.shares_memory(a, b) for i, a in enumerate(got) for b in got[i + 1:])
    with pytest.raises(ValueError, match=re.escape(f"{(NR, NZ + 1)}")):
        op.solve(np.ones((NR, NZ + 1)))


def test_grid_keeps_one_factorization_per_operator():
    g = _grid()
    assert g.stream_operator is g.stream_operator
    radial = _xi_diffusion_radial
    op = g.diffusion_operator(radial, "neumann", 0.25)
    assert g.diffusion_operator(radial, "neumann", 0.25) is op
    other = g.diffusion_operator(radial, "neumann", 0.5)
    assert other is not op and other.scale == 0.5
    assert g.diffusion_operator(stream_operator_radial, "dirichlet", 0.5) is not other
    assert g.diffusion_operator(radial, "neumann", 0.5) is other


def test_stream_residual_is_computed_on_read(monkeypatch):
    # the report applies B only when its residual is read, so a time step,
    # which drops the report, never does
    g = _grid()
    omega = ScalarField(g, _rhs(10), role="vorticity")
    psi, rep = solve_stream_function(omega)
    b = g.r_col * omega.values
    resid = apply_separable(psi.values, stream_operator_radial(g), g.hz, "dirichlet") - b
    want = float(np.sqrt(np.sum(resid * resid / g.r_col)) / np.sqrt(np.sum(b * b / g.r_col)))

    def refuse(*args):
        raise AssertionError("B applied")

    monkeypatch.setattr(biot_savart, "apply_separable", refuse)
    state = evolution.make_state(g, _rhs(11), 0.01)
    evolution.step_viscous(state, 0.01)
    evolution.step_conservative_omega(state, 0.01)
    assert rep.iterations == 0
    monkeypatch.undo()
    assert rep.residual == want
    assert solve_stream_function(omega.with_values(np.zeros((NR, NZ))))[1].residual == 0.0


def _theta_step_oracle(lap, values, theta):
    """x with (I - theta nu dt L) x = (I + (1 - theta) nu dt L) values, densely."""
    L = _dense(lap)
    eye = np.eye(NR * NZ)
    rhs = (eye + (1.0 - theta) * NU * DT * L) @ values.ravel()
    return np.linalg.solve(eye - theta * NU * DT * L, rhs).reshape(NR, NZ)


@pytest.mark.parametrize("theta", THETAS)
def test_xi_diffusion_matches_dense(theta):
    g = _grid()
    xi = _rhs(3)
    radial = _xi_diffusion_radial(g)
    want = _theta_step_oracle(lambda v: -apply_separable(v, radial, g.hz, "neumann"), xi, theta)
    got = diffuse_relative_vorticity(ScalarField(g, xi, role="relative_vorticity"), NU, DT, theta)
    assert _rel(got.values, want) <= 1e-12


@pytest.mark.parametrize("theta", THETAS)
def test_omega_diffusion_matches_dense(theta):
    g = _grid()
    r = g.r_col
    omega = _rhs(4)
    radial = stream_operator_radial(g, "neumann")
    want = _theta_step_oracle(
        lambda v: -apply_separable(r * v, radial, g.hz, "neumann") / r, omega, theta)
    got = diffuse_vorticity(ScalarField(g, omega, role="vorticity"), NU, DT, theta)
    assert _rel(got.values, want) <= 1e-12


@pytest.mark.parametrize("theta", THETAS)
def test_dual_diffusion_matches_dense(theta):
    g = _grid()
    f = _rhs(5)
    radial = stream_operator_radial(g)
    want = _theta_step_oracle(lambda v: -apply_separable(v, radial, g.hz, "dirichlet"), f, theta)
    got = _diffuse_dual(ScalarField(g, f, role="dual"), NU, DT, theta)
    assert _rel(got.values, want) <= 1e-12


def test_solve_separable_rejects_unknown_closure():
    g = _grid()
    with pytest.raises(ValueError):
        SeparableOperator(stream_operator_radial(g), g.hz, NZ, "periodic")
    with pytest.raises(ValueError):
        apply_separable(_rhs(6), stream_operator_radial(g), g.hz, "periodic")
    with pytest.raises(ValueError):
        stream_operator_radial(g, "open")


def test_solve_separable_rejects_mismatched_shapes():
    # unchecked, a short rhs is solved as a truncated system and a 1-D one
    # fails with an IndexError
    radial = stream_operator_radial(build_grid(8, 8, 2.0, -1.0, 1.0))
    op = SeparableOperator(radial, 0.25, 8, "dirichlet")
    for bad in (np.ones((5, 8)), np.ones(8)):
        for call, want in ((lambda: op.solve(bad), "(8, 8)"),
                           (lambda: apply_separable(bad, radial, 0.25, "neumann"), "(8,)")):
            with pytest.raises(ValueError, match=re.escape(f"{bad.shape}") + ".*" + re.escape(want)):
                call()


@pytest.mark.parametrize("nz", (1, 2, 3, 4, 7, 128, 192, 193, 512))
@pytest.mark.parametrize("z_bc", ("dirichlet", "neumann"))
def test_z_transforms_match_scipy_fft(z_bc, nz):
    from scipy import fft

    dst = z_bc == "dirichlet"
    forward, inverse = (fft.dst, fft.idst) if dst else (fft.dct, fft.idct)
    x = np.random.default_rng(nz).standard_normal((5, nz))
    got = _forward(x, dst)
    assert got.flags.c_contiguous
    assert _rel(got, forward(x, type=2, axis=1, norm="ortho")) <= 1e-14
    got = _inverse(x, dst)
    assert got.flags.c_contiguous
    assert _rel(got, inverse(x, type=2, axis=1, norm="ortho")) <= 1e-14
    assert _rel(_inverse(_forward(x, dst), dst), x) <= 1e-14


def _scipy_modules_after(code):
    """The scipy modules loaded once code has run in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(axisymlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code += "\nimport sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return ast.literal_eval(done.stdout.strip().splitlines()[-1])


def _run_code(tmp_path, **overrides):
    doc = {"grid": {"nr": 16, "nz": 32, "r_max": 3.0, "z_min": -3.0, "z_max": 3.0},
           "nu": 1e-2, "dt": 0.01, "tfinal": 0.05, "scheme": "xi_semilagrangian",
           "initial_condition": {"kind": "gaussian_ring", "r0": 1.0, "z0": 0.0,
                                 "sigma": 0.3, "amplitude": 1.0},
           "p_list": [1.0, 2.0]}
    doc.update(overrides)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    argv = ["run", "--config", str(config), "--out", str(tmp_path / "run")]
    return f"from axisymlab import cli_main\nassert cli_main({argv!r}) == 0"


def test_import_does_not_load_scipy():
    assert _scipy_modules_after("import axisymlab") == []


@pytest.mark.parametrize("scheme", ("xi_semilagrangian", "omega_conservative"))
def test_zero_boundary_run_does_not_load_scipy(tmp_path, scheme):
    assert _scipy_modules_after(_run_code(tmp_path, scheme=scheme)) == []


def test_kernel_boundary_run_loads_scipy_special(tmp_path):
    code = _run_code(tmp_path, scheme="omega_conservative", boundary="kernel")
    assert "scipy.special" in _scipy_modules_after(code)
