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
serves every field read at those points.  A loop that reads new points on
every step owns one plan and relocates it in place (StencilPlan.locate), so
its arrays are allocated once; a relocated plan reads only at its new points.
"""

from __future__ import annotations

import numpy as np

from .grid import HalfPlaneGrid, VelocityField


def _catmull_rom_weights(t: np.ndarray, w: np.ndarray, t2: np.ndarray, t3: np.ndarray) -> None:
    """Write the four Catmull-Rom weights of offsets t into the rows of w.

    w0 = 0.5 (-t + 2 t^2 - t^3), w1 = 0.5 (2 - 5 t^2 + 3 t^3),
    w2 = 0.5 (t + 4 t^2 - 3 t^3) and w3 = 0.5 (-t^2 + t^3), each with its
    operations in that written order, so a weight does not depend on where
    it is written.  t2 and t3 are scratch of t's shape; the rows of w serve
    as scratch until their own weight is written.
    """
    w0, w1, w2, w3 = w
    np.multiply(t, t, out=t2)
    np.multiply(t2, t, out=t3)
    np.negative(t, out=w0)
    w0 += np.multiply(2.0, t2, out=w1)
    w0 -= t3
    w0 *= 0.5
    np.multiply(4.0, t2, out=w2)
    np.add(t, w2, out=w2)
    w2 -= np.multiply(3.0, t3, out=w1)
    w2 *= 0.5
    np.multiply(5.0, t2, out=w3)
    np.subtract(2.0, w3, out=w3)
    np.add(w3, w1, out=w1)
    w1 *= 0.5
    np.negative(t2, out=w3)
    w3 += t3
    w3 *= 0.5


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
    4x4 stencil corner in the raveled padded array (base), the Catmull-Rom
    weights along r (rows 0-3 of weights) and z (rows 4-7), the points
    mirrored across the axis (r < 0) and the query shape.
    interp_bicubic(..., plan=) interpolates any field on the grid at the
    points by 16 gathers, so fields read at the same points share one plan.

    locate() relocates a plan in place: it rebuilds the plan at new query
    points into the same arrays, which are allocated again only when the
    number of points changes.  A plan that a loop relocates on every step
    therefore has one owner, the loop, and a relocated plan reads only at
    its new points: interp_bicubic rejects any query arrays other than the
    ones it was last located at.  StencilPlan(grid) starts at no points.
    """

    def __init__(self, grid: HalfPlaneGrid, r_query=(), z_query=()):
        self.grid = grid
        self.grid_shape = (grid.nr, grid.nz)
        self.row = grid.nz + 4
        self.base = None
        self.locate(r_query, z_query)

    def locate(self, r_query, z_query) -> None:
        """Rebuild the plan at the query points (r_query, z_query), in place."""
        self.r_query = self.z_query = None  # reads nothing until located
        rq = np.asarray(r_query, dtype=np.float64)
        zq = np.asarray(z_query, dtype=np.float64)
        n = rq.size
        if self.base is None or self.base.size != n:
            self.base = np.empty(n, dtype=np.int64)
            self.mirrored = np.empty(n, dtype=bool)
            self.weights = np.empty((8, n))
            self.wr, self.wz = self.weights[:4], self.weights[4:]
            self._scratch = np.empty((4, n))
        self.shape = rq.shape
        grid = self.grid
        nr, nz = self.grid_shape
        x, y, fx, fy = (s.reshape(rq.shape) for s in self._scratch)
        np.less(rq, 0.0, out=self.mirrored.reshape(rq.shape))
        # x = clip(|r| / hr - 0.5, -0.5, nr - 0.5), y likewise along z
        np.abs(rq, out=x)
        x /= grid.hr
        x -= 0.5
        np.clip(x, -0.5, nr - 0.5, out=x)
        np.subtract(zq, grid.z_min, out=y)
        y /= grid.hz
        y -= 0.5
        np.clip(y, -0.5, nz - 0.5, out=y)
        np.floor(x, out=fx)
        np.floor(y, out=fy)
        x -= fx
        y -= fy
        # padded index of stencil offset (-1, -1): (i0 + 1) * row + (j0 + 1),
        # exact in doubles since every term is a small integer
        fx += 1.0
        fx *= self.row
        fx += fy
        fx += 1.0
        np.copyto(self.base.reshape(rq.shape), fx, casting="unsafe")
        _catmull_rom_weights(x, self.wr.reshape(4, *rq.shape), fx, fy)
        _catmull_rom_weights(y, self.wz.reshape(4, *rq.shape), fx, fy)
        self.r_query, self.z_query = r_query, z_query

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
    StencilPlan last located at these very query arrays on this grid (any
    other arrays raise ValueError); without one a plan is built for this
    call.
    """
    if axis_symmetry not in ("even", "odd", "none"):
        raise ValueError(f"unknown axis symmetry {axis_symmetry!r}")
    if plan is None:
        plan = StencilPlan(grid, r_query, z_query)
    elif r_query is not plan.r_query or z_query is not plan.z_query:
        raise ValueError(f"plan for points of shape {plan.shape} located at other arrays, "
                         f"queries of shape {np.shape(r_query)}")
    return plan._apply(values, axis_symmetry, clip)


def sample_velocity(u: VelocityField, r_query, z_query, plan: StencilPlan | None = None):
    """Sample both velocity components at arbitrary points.

    The radial component is odd across the axis and the axial component is
    even, so trajectories crossing r = 0 see a smooth field.  Both
    components are read through one StencilPlan: plan, when given, is a
    plan on u's grid that the caller owns, relocated here at the points;
    without one a plan is built for this call.
    """
    if plan is None:
        plan = StencilPlan(u.grid, r_query, z_query)
    else:
        plan.locate(r_query, z_query)
    ur = interp_bicubic(u.u_r, u.grid, r_query, z_query, "odd", plan=plan)
    uz = interp_bicubic(u.u_z, u.grid, r_query, z_query, "even", plan=plan)
    return ur, uz
