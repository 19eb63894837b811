"""Parity-aware bicubic interpolation on the half-plane grid.

Catmull-Rom tensor-product interpolation of cell-centered data, with two
ghost layers across the axis filled by even/odd reflection so that stencils
straddling r = 0 keep full accuracy.  Outer boundaries replicate the edge
cell (queries are expected to be clamped into the domain by the caller; the
advection code does this for departure points).

An optional monotone clip limits the interpolated value to the range of the
4x4 stencil it reads, axis ghosts included (the quasi-monotone limiter of
Bermejo & Staniforth, Mon. Wea. Rev. 120 (1992) 2622).  The result never
leaves the range of the data it reads, so no new extremum appears and the
max norm cannot grow; the clip only acts near extrema of the data.

The indices and weights of a set of query points form a StencilPlan, which
serves every field read at those points.
"""

from __future__ import annotations

import numpy as np

from .grid import HalfPlaneGrid, VelocityField


def _catmull_rom_weights(t: np.ndarray):
    t2 = t * t
    t3 = t2 * t
    w0 = 0.5 * (-t + 2.0 * t2 - t3)
    w1 = 0.5 * (2.0 - 5.0 * t2 + 3.0 * t3)
    w2 = 0.5 * (t + 4.0 * t2 - 3.0 * t3)
    w3 = 0.5 * (-t2 + t3)
    return (w0, w1, w2, w3)


def _padded(values: np.ndarray, axis_symmetry: str) -> np.ndarray:
    """Add two ghost layers on every side.

    Axis side uses parity reflection about r = 0 (cell -1 mirrors cell 0);
    the other three sides replicate the edge cell.
    """
    nr, nz = values.shape
    out = np.empty((nr + 4, nz + 4))
    out[2:-2, 2:-2] = values
    if axis_symmetry == "even":
        out[:2, 2:-2] = values[1::-1]
    elif axis_symmetry == "odd":
        np.negative(values[1::-1], out=out[:2, 2:-2])
    else:
        out[:2, 2:-2] = values[0]
    out[-2:, 2:-2] = values[-1]
    # column by column: a broadcast copy into two columns takes longer
    out[:, 1] = out[:, 2]
    out[:, 0] = out[:, 2]
    out[:, -2] = out[:, -3]
    out[:, -1] = out[:, -3]
    return out


class StencilPlan:
    """Where and with what weights a set of query points reads a grid.

    For one set of query points on one grid: the flat index of each point's
    4x4 stencil corner in the raveled padded array, the Catmull-Rom weights
    along r and z, the points mirrored across the axis (r < 0) and the
    query shape.  interp_bicubic(..., plan=) interpolates any field on the
    grid at the points by 16 gathers, so fields read at the same points
    share one plan.
    """

    def __init__(self, grid: HalfPlaneGrid, r_query, z_query):
        rq = np.asarray(r_query, dtype=np.float64)
        zq = np.asarray(z_query, dtype=np.float64)
        self.shape = rq.shape
        rq = rq.ravel()
        zq = zq.ravel()
        self.mirrored = rq < 0.0
        nr, nz = grid.nr, grid.nz
        x = np.clip(np.abs(rq) / grid.hr - 0.5, -0.5, nr - 0.5)
        y = np.clip((zq - grid.z_min) / grid.hz - 0.5, -0.5, nz - 0.5)
        i0 = np.floor(x).astype(np.int64)
        j0 = np.floor(y).astype(np.int64)
        self.wr = _catmull_rom_weights(x - i0)
        self.wz = _catmull_rom_weights(y - j0)
        self.grid_shape = (nr, nz)
        self.row = nz + 4
        # padded index of stencil offset (-1, -1)
        self.base = (i0 + 1) * self.row + (j0 + 1)

    def _apply(self, values: np.ndarray, axis_symmetry: str, clip: bool) -> np.ndarray:
        if values.shape != self.grid_shape:
            raise ValueError(f"field of shape {values.shape} on a plan for {self.grid_shape}")
        flat = _padded(values, axis_symmetry).ravel()
        n = self.base.size
        out = np.zeros(n)
        acc = np.empty(n)
        p = np.empty(n)
        term = np.empty(n)
        if clip:
            lo = np.full(n, np.inf)
            hi = np.full(n, -np.inf)
        # one fixed order of the sums (rows of b into acc, then acc over a),
        # so a value never depends on how its plan was built or shared
        for a in range(4):
            acc.fill(0.0)
            for b in range(4):
                # flat[base + offset] without forming the offset indices
                flat[a * self.row + b:].take(self.base, out=p, mode="clip")
                acc += np.multiply(self.wz[b], p, out=term)
                if clip:
                    np.minimum(lo, p, out=lo)
                    np.maximum(hi, p, out=hi)
            out += np.multiply(self.wr[a], acc, out=term)
        if clip:
            out = np.clip(out, lo, hi)
        if axis_symmetry == "odd":
            np.negative(out, out=out, where=self.mirrored)
        return out.reshape(self.shape)


def interp_bicubic(
    values: np.ndarray,
    grid: HalfPlaneGrid,
    r_query: np.ndarray,
    z_query: np.ndarray,
    axis_symmetry: str = "even",
    clip: bool = False,
    plan: StencilPlan | None = None,
) -> np.ndarray:
    """Interpolate cell-centered values at arbitrary points.

    Query points with r < 0 are mapped to their mirror image, with a sign
    flip when axis_symmetry is "odd".  Points outside the grid are clamped
    to the boundary cell layer.  clip=True clamps each value to the min/max
    of the 4x4 stencil it was interpolated from.  plan, when given, is the
    StencilPlan of these same query points on this grid; without one a plan
    is built for this call.
    """
    if axis_symmetry not in ("even", "odd", "none"):
        raise ValueError(f"unknown axis symmetry {axis_symmetry!r}")
    if plan is None:
        plan = StencilPlan(grid, r_query, z_query)
    elif plan.shape != np.shape(r_query):
        raise ValueError(f"plan for points of shape {plan.shape}, "
                         f"queries of shape {np.shape(r_query)}")
    return plan._apply(values, axis_symmetry, clip)


def sample_velocity(u: VelocityField, r_query, z_query):
    """Sample both velocity components at arbitrary points.

    The radial component is odd across the axis and the axial component is
    even, so trajectories crossing r = 0 see a smooth field.  Both
    components are read through one StencilPlan.
    """
    plan = StencilPlan(u.grid, r_query, z_query)
    ur = interp_bicubic(u.u_r, u.grid, r_query, z_query, "odd", plan=plan)
    uz = interp_bicubic(u.u_z, u.grid, r_query, z_query, "even", plan=plan)
    return ur, uz
