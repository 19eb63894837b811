import numpy as np
import pytest

from axisymlab.grid import VelocityField, build_grid
from axisymlab.interpolation import (
    StencilPlan,
    _catmull_rom_weights,
    _padded,
    interp_bicubic,
    sample_velocity,
)


def _reference_weights(t):
    """The Catmull-Rom weights as plans computed them before they were located in place."""
    t2 = t * t
    t3 = t2 * t
    w0 = 0.5 * (-t + 2.0 * t2 - t3)
    w1 = 0.5 * (2.0 - 5.0 * t2 + 3.0 * t3)
    w2 = 0.5 * (t + 4.0 * t2 - 3.0 * t3)
    w3 = 0.5 * (-t2 + t3)
    return (w0, w1, w2, w3)


def _reference_padded(values, axis_symmetry):
    """The ghost layers that _padded wrote row by row, kept as the oracle."""
    nr, nz = values.shape
    out = np.empty((nr + 4, nz + 4))
    out[2 : nr + 2, 2 : nz + 2] = values
    if axis_symmetry == "even":
        out[1, 2 : nz + 2] = values[0]
        out[0, 2 : nz + 2] = values[1]
    elif axis_symmetry == "odd":
        out[1, 2 : nz + 2] = -values[0]
        out[0, 2 : nz + 2] = -values[1]
    else:
        out[1, 2 : nz + 2] = values[0]
        out[0, 2 : nz + 2] = values[0]
    out[nr + 2, 2 : nz + 2] = values[nr - 1]
    out[nr + 3, 2 : nz + 2] = values[nr - 1]
    out[:, 1] = out[:, 2]
    out[:, 0] = out[:, 2]
    out[:, nz + 2] = out[:, nz + 1]
    out[:, nz + 3] = out[:, nz + 1]
    return out


def _reference_bicubic(values, grid, r_query, z_query, axis_symmetry="even", clip=False):
    """The per-call loop that interp_bicubic ran before stencil plans, kept as the oracle."""
    rq = np.asarray(r_query, dtype=np.float64)
    zq = np.asarray(z_query, dtype=np.float64)
    shape = rq.shape
    rq = rq.ravel()
    zq = zq.ravel()
    sgn = np.where(rq < 0.0, -1.0, 1.0) if axis_symmetry == "odd" else 1.0
    x = np.clip(np.abs(rq) / grid.hr - 0.5, -0.5, grid.nr - 0.5)
    y = np.clip((zq - grid.z_min) / grid.hz - 0.5, -0.5, grid.nz - 0.5)
    i0 = np.floor(x).astype(np.int64)
    j0 = np.floor(y).astype(np.int64)
    P = _reference_padded(values, axis_symmetry)
    wr = _reference_weights(x - i0)
    wz = _reference_weights(y - j0)
    out = np.zeros(rq.shape)
    lo = np.full(rq.shape, np.inf)
    hi = np.full(rq.shape, -np.inf)
    for a in range(4):
        acc = np.zeros(rq.shape)
        for b in range(4):
            p = P[i0 + 1 + a, j0 + 1 + b]
            acc += wz[b] * p
            np.minimum(lo, p, out=lo)
            np.maximum(hi, p, out=hi)
        out += wr[a] * acc
    if clip:
        out = np.clip(out, lo, hi)
    return (sgn * out).reshape(shape)


def _queries(grid, rng, shape):
    # across the axis, inside, past every outer side, and on cell centres
    # (where weights vanish, so signed zeros show)
    rq = rng.uniform(-0.4 * grid.r_max, 1.3 * grid.r_max, shape)
    zq = rng.uniform(grid.z_min - 0.3, grid.z_max + 0.3, shape)
    centres = rng.integers(0, grid.nr, 40), rng.integers(0, grid.nz, 40)
    rq.flat[:40] = grid.r_centers[centres[0]] * rng.choice([-1.0, 1.0], 40)
    zq.flat[:40] = grid.z_centers[centres[1]]
    return rq, zq


def _field(grid, rng):
    # rough data with a block of zeros and of negative zeros
    values = rng.standard_normal((grid.nr, grid.nz))
    values[: grid.nr // 2, : grid.nz // 3] = 0.0
    values[: grid.nr // 3, grid.nz // 3 : grid.nz // 2] = -0.0
    return values


@pytest.mark.parametrize("parity", ["even", "odd", "none"])
def test_padded_matches_the_reference_rows_byte_for_byte(parity):
    rng = np.random.default_rng(2)
    for nr, nz in ((96, 192), (64, 128), (16, 32), (5, 7), (4, 4)):
        values = _field(build_grid(nr, nz, 1.0, -1.0, 1.0), rng)
        values[-1, ::2] = -0.0  # signed zeros on the outer row and in the corners
        got = _padded(values, parity)
        assert got.tobytes() == _reference_padded(values, parity).tobytes()


@pytest.mark.parametrize("clip", [False, True])
@pytest.mark.parametrize("parity", ["even", "odd", "none"])
@pytest.mark.parametrize("shape", [(500,), (25, 30)])
def test_plan_matches_the_reference_loop_byte_for_byte(parity, clip, shape):
    g = build_grid(12, 16, 1.2, -0.8, 0.8)
    rng = np.random.default_rng(3)
    values = _field(g, rng)
    rq, zq = _queries(g, rng, shape)
    expect = _reference_bicubic(values, g, rq, zq, parity, clip)
    got = interp_bicubic(values, g, rq, zq, parity, clip)
    assert got.shape == shape
    assert got.tobytes() == expect.tobytes()
    # a plan built once reads any field at its points
    plan = StencilPlan(g, rq, zq)
    other = _field(g, rng)[::-1].copy()
    got = interp_bicubic(other, g, rq, zq, parity, clip, plan=plan)
    assert got.tobytes() == _reference_bicubic(other, g, rq, zq, parity, clip).tobytes()


def test_sample_velocity_shares_one_plan():
    g = build_grid(12, 16, 1.2, -0.8, 0.8)
    rng = np.random.default_rng(4)
    u = VelocityField(g, rng.standard_normal((g.nr, g.nz)), rng.standard_normal((g.nr, g.nz)))
    rq, zq = _queries(g, rng, (20, 9))
    ur, uz = sample_velocity(u, rq, zq)
    assert ur.tobytes() == interp_bicubic(u.u_r, g, rq, zq, "odd").tobytes()
    assert uz.tobytes() == interp_bicubic(u.u_z, g, rq, zq, "even").tobytes()


def test_plan_rejects_other_points_and_grids():
    g = build_grid(12, 16, 1.2, -0.8, 0.8)
    rng = np.random.default_rng(5)
    rq, zq = _queries(g, rng, (30,))
    plan = StencilPlan(g, rq, zq)
    with pytest.raises(ValueError, match="plan for points"):
        interp_bicubic(np.zeros((12, 16)), g, rq[:10], zq[:10], plan=plan)
    with pytest.raises(ValueError, match="on a plan for"):
        interp_bicubic(np.zeros((8, 16)), g, rq, zq, plan=plan)
    # relocated at other points of the same shape, the plan reads neither
    # its old queries nor copies of its new ones
    rq2, zq2 = _queries(g, rng, (30,))
    plan.locate(rq2, zq2)
    values = _field(g, rng)
    for r, z in ((rq, zq), (rq2.copy(), zq2), (rq2, zq2.copy())):
        with pytest.raises(ValueError, match="plan for points"):
            interp_bicubic(values, g, r, z, plan=plan)
    got = interp_bicubic(values, g, rq2, zq2, plan=plan)
    assert got.tobytes() == _reference_bicubic(values, g, rq2, zq2).tobytes()
    # a relocation that fails halfway leaves a plan that reads nowhere
    with pytest.raises(ValueError, match="broadcast"):
        plan.locate(rq, zq[:7])
    with pytest.raises(ValueError, match="plan for points"):
        interp_bicubic(values, g, rq2, zq2, plan=plan)


def test_weights_in_place_equal_the_reference_bit_for_bit():
    t = np.concatenate([[0.0, np.nextafter(1.0, 0.0), 0.5, 2.0**-30],
                        np.random.default_rng(8).uniform(0.0, 1.0, 5000)])
    w = np.empty((4, t.size))
    _catmull_rom_weights(t, w, np.empty_like(t), np.empty_like(t))
    for got, expect in zip(w, _reference_weights(t)):
        assert got.tobytes() == expect.tobytes()


def test_relocated_plan_equals_a_fresh_one():
    # one plan walks through point sets of other sizes and shapes (the last
    # reuses the arrays of the one before), with mirrored points and points
    # clamped past every side, and reads each set as the reference loop does
    g = build_grid(12, 16, 1.2, -0.8, 0.8)
    rng = np.random.default_rng(9)
    values = _field(g, rng)
    plan = StencilPlan(g)
    assert plan.shape == (0,)
    for shape in ((500,), (25, 30), (500,), (20, 25)):
        rq, zq = _queries(g, rng, shape)
        assert np.any(rq < 0.0) and np.any(rq > g.r_max) and np.any(zq > g.z_max)
        weights = plan.weights
        plan.locate(rq, zq)
        assert (plan.weights is weights) == (shape == (20, 25))
        for parity in ("even", "odd", "none"):
            for clip in (False, True):
                got = interp_bicubic(values, g, rq, zq, parity, clip, plan=plan)
                assert got.shape == shape
                expect = _reference_bicubic(values, g, rq, zq, parity, clip)
                assert got.tobytes() == expect.tobytes()


def _stencil_range(values, grid, rq, zq, parity):
    """Min/max over the 4x4 cell stencil a bicubic value at (rq, zq) reads.

    Cells across the axis mirror cell -i - 1 (negated for odd parity); cells
    past the other three sides repeat the edge cell.  Queries with r < 0 see
    the mirror image of the stencil at |r|.
    """
    x = np.clip(np.abs(rq) / grid.hr - 0.5, -0.5, grid.nr - 0.5)
    y = np.clip((zq - grid.z_min) / grid.hz - 0.5, -0.5, grid.nz - 0.5)
    i0 = np.floor(x).astype(np.int64)
    j0 = np.floor(y).astype(np.int64)
    lo = np.full(rq.shape, np.inf)
    hi = np.full(rq.shape, -np.inf)
    for di in range(-1, 3):
        i = i0 + di
        sign = np.where((i < 0) & (parity == "odd"), -1.0, 1.0)
        i = np.where(i < 0, -i - 1, np.minimum(i, grid.nr - 1))
        for dj in range(-1, 3):
            j = np.clip(j0 + dj, 0, grid.nz - 1)
            v = sign * values[i, j]
            lo = np.minimum(lo, v)
            hi = np.maximum(hi, v)
    if parity == "odd":
        mirrored = rq < 0.0
        lo, hi = np.where(mirrored, -hi, lo), np.where(mirrored, -lo, hi)
    return lo, hi


@pytest.mark.parametrize("parity", ["even", "odd"])
def test_clip_bounds_values_by_their_stencil_range(parity):
    g = build_grid(12, 16, 1.2, -0.8, 0.8)
    rng = np.random.default_rng(7)
    # rough data makes the Catmull-Rom interpolant overshoot often; queries
    # cover the mirrored half plane and points past the outer boundaries
    values = rng.standard_normal((g.nr, g.nz))
    rq = rng.uniform(-0.3, 1.3, 2000)
    zq = rng.uniform(-0.9, 0.9, 2000)
    clipped = interp_bicubic(values, g, rq, zq, parity, clip=True)
    raw = interp_bicubic(values, g, rq, zq, parity)
    lo, hi = _stencil_range(values, g, rq, zq, parity)
    assert np.all(clipped >= lo) and np.all(clipped <= hi)
    inside = (raw >= lo) & (raw <= hi)
    assert inside.any() and not inside.all()
    # the clip touches only values outside the stencil range
    assert np.array_equal(clipped[inside], raw[inside])
    assert np.array_equal(clipped[raw > hi], hi[raw > hi])
    assert np.array_equal(clipped[raw < lo], lo[raw < lo])
