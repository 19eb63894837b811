"""Velocity reconstruction from vorticity on the half plane.

Two independent routes are provided.

1. Stream-function route: solve
       -[d/dr((1/r) dpsi/dr) + (1/r) d2psi/dz2] = omega
   rewritten as the r-scaled operator
       B psi = -d2psi/dr2 + (1/r) dpsi/dr - d2psi/dz2 = r * omega,
   a 5-point stencil assembled in flux form so that B is self-adjoint and
   positive in the 1/r-weighted inner product.  B is separable, so one z
   transform and a batched tridiagonal sweep in r solve it directly
   (separable.py).  Velocity then follows from u_r = -(1/r) dpsi/dz,
   u_z = (1/r) dpsi/dr.

2. Kernel route: direct summation of the circular-filament kernel written
   with complete elliptic integrals, used for validation and for optional
   inhomogeneous boundary data on the truncated domain.  kernel_velocity
   sums over every nonzero cell, O(N) per evaluation point.
   kernel_stream_values reads its kernel values from a KernelPlan, which
   groups the points by radius and evaluates each distinct kernel argument
   once, exactly (see its docstring).  The grid keeps the plan of its outer
   faces, so the boundary data cost about nr^2 nz / 2 kernel evaluations
   once per grid, and each solve sums the tabulated terms in two dense
   contractions per stack of tables.

Boundary conditions for the solve: psi = 0 on the axis (enforced through a
one-sided axis closure consistent with psi ~ c r^2) and psi = 0 (or
kernel-evaluated data) on the three outer boundaries.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .grid import HalfPlaneGrid, ScalarField, VelocityField, ddr, ddz
from .separable import apply_separable, flux_form_radial, solve_separable


@dataclass
class EllipticSolveReport:
    iterations: int
    residual: float


class StreamFunction(ScalarField):
    def __init__(self, grid: HalfPlaneGrid, values: np.ndarray):
        super().__init__(grid, values, role="stream")


def stream_operator_radial(grid: HalfPlaneGrid, outer_r: str = "dirichlet"):
    """Tridiagonal coefficients (lower, diag, upper) of the radial part of B.

    Flux form with face weights 1/r_face.  The axis face carries the closure
    flux (1/r) dpsi/dr |_{r=0} ~= 8 psi_0 / hr^2, exact for psi = c r^2;
    outer_r selects a homogeneous Dirichlet (ghost = -value) or zero-flux
    closure at r_max.  With the z closure, these coefficients define B for
    separable.apply_separable and separable.solve_separable.
    """
    hr = grid.hr
    r = grid.r_centers
    face = np.zeros(grid.nr + 1)
    face[1:-1] = 1.0 / (np.arange(1, grid.nr) * hr)
    lower, diag, upper = flux_form_radial(r / hr**2, face)
    diag[0] += 8.0 * r[0] / hr**3
    if outer_r == "dirichlet":
        diag[-1] += 2.0 * r[-1] / (hr**2 * grid.r_max)
    elif outer_r != "neumann":
        raise ValueError(f"unknown outer_r closure {outer_r!r}")
    return lower, diag, upper


def solve_stream_function(omega: ScalarField, boundary: str = "zero"):
    """Solve B psi = r omega for the stream function of a vorticity field.

    A separable direct solve (see separable.py), exact up to round-off.
    boundary = "kernel" evaluates the summation kernel on the outer boundary
    faces and uses it as inhomogeneous Dirichlet data, which removes most
    domain-truncation error.  Returns (StreamFunction, EllipticSolveReport);
    the report holds only the measured relative residual |B psi - b| / |b|
    in the 1/r-weighted norm and iterations, always 0 for the direct solve.
    """
    if boundary not in ("zero", "kernel"):
        raise ValueError(f"unknown boundary treatment {boundary!r}")
    grid = omega.grid
    b = grid.r_col * omega.values
    if boundary == "kernel":
        b = b + _kernel_boundary_rhs(omega)
    radial = stream_operator_radial(grid)
    psi = solve_separable(b, radial, grid.hz, "dirichlet")
    bnorm = np.sqrt(np.sum(b * b / grid.r_col))
    resid = apply_separable(psi, radial, grid.hz, "dirichlet") - b
    relres = float(np.sqrt(np.sum(resid * resid / grid.r_col)) / bnorm) if bnorm > 0.0 else 0.0
    return StreamFunction(grid, psi), EllipticSolveReport(0, relres)


def velocity_from_stream(psi: StreamFunction) -> VelocityField:
    grid = psi.grid
    u_r = -ddz(psi.values, grid) / grid.r_col
    u_z = ddr(psi.values, grid, "even") / grid.r_col
    return VelocityField(grid, u_r, u_z)


def check_divergence(u: VelocityField) -> float:
    """L2(r d(r,z)) norm of (1/r) d(r u_r)/dr + d(u_z)/dz."""
    grid = u.grid
    rur = grid.r_col * u.u_r
    div = ddr(rur, grid, "even") / grid.r_col + ddz(u.u_z, grid)
    return float(np.sqrt(np.sum(div**2 * grid.r_col) * grid.cell_area))


# ---------------------------------------------------------------------------
# circular-filament kernel


def _filament_stream_factor(k2: np.ndarray, km1: np.ndarray):
    """F(k) = (2/k - k) K(k) - (2/k) E(k) for the filament stream kernel.

    Below k^2 = 1e-3 the closed form cancels, so F takes the series
    (pi/16) k^3 (1 + 3 k^2 / 4) there.  km1 = 1 - k^2 is passed separately
    because it is computable without cancellation; K uses ellipkm1 for
    accuracy near k = 1.  Returns F together with the masked parts
    (small, k2s, km1s, K, E) that F'(k) is built from.
    """
    from scipy.special import ellipe, ellipkm1

    k2 = np.asarray(k2, dtype=np.float64)
    km1 = np.asarray(km1, dtype=np.float64)
    small = k2 < 1e-3
    k2s = np.where(small, 1.0, k2)  # keep the special-function branch finite
    km1s = np.where(small, 0.5, km1)
    k = np.sqrt(k2s)
    K = ellipkm1(km1s)
    E = ellipe(k2s)
    # an evaluation point exactly on the filament (km1 = 0) yields non-finite
    # factors; callers mask such hits (self-cell exclusion)
    with np.errstate(divide="ignore", invalid="ignore"):
        two_k = 2.0 / k
        F = (two_k - k) * K - two_k * E
    if np.any(small):  # the series' cube costs as much as K(k) and E(k) together
        kf = np.sqrt(np.where(small, k2, 0.0))
        F = np.where(small, (np.pi / 16.0) * kf**3 * (1.0 + 0.75 * k2), F)
    return F, (small, k2s, km1s, K, E)


def _filament_factors(k2: np.ndarray, km1: np.ndarray):
    """F(k) and F'(k) for the filament kernel, both with a small-k series.

    F'(k) = (-2 K(k) + (2 - k^2) E(k) / (1 - k^2)) / k^2, with the series
    (3 pi/16) k^2 (1 + 5 k^2 / 4) below k^2 = 1e-3.
    """
    F, (small, k2s, km1s, K, E) = _filament_stream_factor(k2, km1)
    with np.errstate(divide="ignore", invalid="ignore"):
        Fp = (-2.0 * K + (2.0 - k2s) * E / km1s) / k2s
    Fp_series = (3.0 * np.pi / 16.0) * k2 * (1.0 + 1.25 * k2)
    return F, np.where(small, Fp_series, Fp)


def ring_stream(r, z, rbar, zbar):
    """Stream function at (r, z) of a unit-circulation filament at (rbar, zbar)."""
    r = np.asarray(r, dtype=np.float64)
    dz = z - zbar
    d2 = (r + rbar) ** 2 + dz**2
    k2 = 4.0 * r * rbar / d2
    km1 = ((r - rbar) ** 2 + dz**2) / d2
    F, _ = _filament_stream_factor(k2, km1)
    return np.sqrt(r * rbar) * F / (2.0 * np.pi)


def ring_velocity(r, z, rbar, zbar):
    """(u_r, u_z) at (r, z) induced by a unit-circulation filament at (rbar, zbar).

    Obtained by differentiating the stream kernel; on-axis limit of u_z at
    the filament plane is 1/(2 rbar).
    """
    r = np.asarray(r, dtype=np.float64)
    rbar = np.asarray(rbar, dtype=np.float64)
    dz = np.asarray(z, dtype=np.float64) - zbar
    d2 = (r + rbar) ** 2 + dz**2
    k2 = 4.0 * r * rbar / d2
    km1 = ((r - rbar) ** 2 + dz**2) / d2
    F, Fp = _filament_factors(k2, km1)
    k = np.sqrt(k2)
    s = np.sqrt(r * rbar)
    dk_dr = k * (0.5 / r - (r + rbar) / d2)
    dk_dz = -k * dz / d2
    u_z = (rbar / (2.0 * s) * F + s * Fp * dk_dr) / (2.0 * np.pi * r)
    u_r = -(s * Fp * dk_dz) / (2.0 * np.pi * r)
    return u_r, u_z


def _source_cells(omega: ScalarField):
    grid = omega.grid
    mask = omega.values != 0.0
    if not np.any(mask):
        return None
    r2d, z2d = grid.meshes()
    return (
        r2d[mask],
        z2d[mask],
        omega.values[mask] * grid.cell_area,
    )


def _query_points(points) -> np.ndarray:
    """points as a float64 (n, 2) array of finite (r, z) pairs; ValueError otherwise."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"points must have shape (n, 2), got {points.shape}")
    bad = ~np.all(np.isfinite(points), axis=1)
    if np.any(bad):
        raise ValueError(f"query points must be finite, got {points[bad].tolist()}")
    return points


def kernel_velocity(omega: ScalarField, points: np.ndarray) -> np.ndarray:
    """Velocity at query points by direct kernel summation over cells.

    points is (n, 2) with columns (r, z); non-finite queries and queries on
    or left of the axis are rejected.  The quadrature skips the self-cell
    (the logarithmic kernel singularity makes the midpoint rule meaningless
    there); validation comparisons should stay several cells away from
    concentrated vorticity.
    """
    points = _query_points(points)
    if np.any(points[:, 0] <= 0.0):
        raise ValueError("kernel evaluation requires r > 0 query points")
    grid = omega.grid
    src = _source_cells(omega)
    out = np.zeros_like(points)
    if src is None:
        return out
    rbar, zbar, gamma = src
    for i, (rq, zq) in enumerate(points):
        ur, uz = ring_velocity(rq, zq, rbar, zbar)
        keep = (np.abs(rbar - rq) >= 0.5 * grid.hr) | (np.abs(zbar - zq) >= 0.5 * grid.hz)
        out[i, 0] = np.sum(ur[keep] * gamma[keep])
        out[i, 1] = np.sum(uz[keep] * gamma[keep])
    return out


class KernelPlan:
    """The filament-kernel tables of a set of query points on one grid.

    The kernel depends on z - zbar only through (z - zbar)^2, so points with
    the same r need one kernel value per cell row and distinct |z - zbar|.
    The plan groups the points by exact r (points with r <= 0 form no
    group); groups whose points have the same heights share their offsets
    and each point's offset index per grid column, so their ring_stream
    tables, over every cell row and the distinct offsets, are stacked.  The
    entry of a point's own cell centre is 0.  For the outer faces of a
    uniform grid the r = r_max face is one stack of one group, and the two
    z faces are one stack with a group per cell radius.  That stack is
    symmetric bit for bit under r <-> rbar, so each unordered radius pair is
    evaluated once and mirrored.  The tables hold (nr + 1) nr nz doubles:
    4 MiB at 64x128 and 268 MiB at 256x512.
    """

    def __init__(self, grid: HalfPlaneGrid, points):
        # the grid's fields, not the grid: a grid keeps its boundary plan, and
        # a reference back would leave both to the cyclic garbage collector
        self.grid_fields = astuple(grid)
        self.points = _query_points(points)
        # (point indices (radii, points), offset indices (points, nz),
        #  tables (radii, nr, offsets)), one entry per set of heights
        self.stacks = []
        rbar = grid.r_centers[:, None]
        radii, group = np.unique(self.points[:, 0], return_inverse=True)
        heights = {}
        for k in np.flatnonzero(radii > 0.0):
            sel = np.flatnonzero(group == k)
            heights.setdefault(self.points[sel, 1].tobytes(), []).append(sel)
        for sels in heights.values():
            sel = np.array(sels)
            dz = np.abs(self.points[sel[0], 1, None] - grid.z_centers)
            offsets, inv = np.unique(dz, return_inverse=True)
            stack_radii = self.points[sel[:, 0], 0]
            # T[g, i] == T[i, g] bit for bit when the radii are the cell
            # radii, since 4 r rbar and (r - rbar)^2 commute exactly
            mirror = np.array_equal(stack_radii, grid.r_centers)
            tables = np.empty((sel.shape[0], grid.nr, offsets.size))
            for g, rq in enumerate(stack_radii):
                lo = g if mirror else 0
                table = tables[g, lo:]
                table[...] = ring_stream(rq, offsets, rbar[lo:], 0.0)
                table[np.isinf(table)] = 0.0  # a query on a cell centre skips that cell
                if mirror:
                    tables[g + 1 :, g] = tables[g, g + 1 :]
            self.stacks.append((sel, inv.reshape(dz.shape), tables))


def kernel_stream_values(
    omega: ScalarField, points: np.ndarray, plan: KernelPlan | None = None
) -> np.ndarray:
    """Stream-function values at query points by kernel summation over cells.

    points is (n, 2) with finite columns (r, z); any other shape or a
    non-finite point raises ValueError.  A point with r <= 0 gets 0.  The
    value at (r, z) is the midpoint sum of
    ring_stream(r, z, rbar, zbar) * omega * cell_area over the cells, taken
    over the bounding box of the nonzero vorticity (cells inside the box
    with zero vorticity add exactly 0).  A query exactly at a cell centre
    leaves that one cell out, because its filament passes through the point.

    The kernel values come from plan, the KernelPlan of these points on
    omega's grid (ValueError if it is another grid's or other points');
    without one, a plan is built for this call, which tabulates every cell
    row and column, not only the bounding box.  Each stack of the plan is
    summed by two dense contractions over the bounding box, in the order
    with fewer multiply-adds for its shapes: rows first (each table against
    the box's vorticity, then every point picks its offset per column),
    when many points share a radius; or bins first (each point's vorticity
    binned by its offset per row, then one product with the stacked
    tables), when few do.  Both run in numpy's own loops (einsum, bincount),
    not in BLAS, whose sums change in the last bits with its thread count.
    The table entries are bit-identical to the terms of the plain per-cell
    sum; only the summation order differs.  On a uniform grid the
    outer-boundary points share most offsets, so about nr^2 nz / 2 kernel
    values replace (2 nr + nz) nr nz, and the grid's plan
    (HalfPlaneGrid.kernel_boundary_plan) evaluates them once per grid.
    """
    if plan is None:
        plan = KernelPlan(omega.grid, points)
    elif plan.grid_fields != astuple(omega.grid):
        raise ValueError("kernel plan for another grid")
    elif not np.array_equal(plan.points, points):
        raise ValueError("kernel plan for other points")
    out = np.zeros(plan.points.shape[0])
    rows, cols = (np.flatnonzero(np.any(omega.values != 0.0, axis=a)) for a in (1, 0))
    if rows.size == 0:
        return out
    r0, r1, c0, c1 = rows[0], rows[-1] + 1, cols[0], cols[-1] + 1
    gamma = omega.values[r0:r1, c0:c1] * omega.grid.cell_area
    n_rows, n_cols = gamma.shape
    for sel, inv, tables in plan.stacks:
        (n_radii, n_points), n_offsets = sel.shape, tables.shape[2]
        inv = inv[:, c0:c1]
        # multiply-adds of each order; bins first also fills its bins
        rows_first = n_radii * n_offsets * gamma.size
        bins_first = (n_radii + 1) * n_points * n_rows * n_offsets + n_points * gamma.size
        if rows_first <= bins_first:
            # C[g, o, j] = sum_i T[g, i, o] gamma[i, j]
            C = np.einsum("gio,ij->goj", tables[:, r0:r1], gamma)
            out[sel] = C[:, inv, np.arange(n_cols)].sum(axis=2)
        else:
            # W[q, i, o] = sum of gamma[i, j] over the columns j where point
            # q has offset o; bincount adds the duplicate offsets
            bins = (np.arange(n_points)[:, None, None] * n_rows + np.arange(n_rows)[:, None]) * n_offsets
            bins = bins + inv[:, None, :]
            W = np.bincount(bins.ravel(), np.broadcast_to(gamma, bins.shape).ravel(),
                            n_points * n_rows * n_offsets)
            # the box's rows of each table are one contiguous run
            box = tables.reshape(n_radii, -1)[:, r0 * n_offsets : r1 * n_offsets]
            out[sel] = np.einsum("gk,qk->gq", box, W.reshape(n_points, -1))
    return out


def _outer_face_points(grid: HalfPlaneGrid) -> np.ndarray:
    """The boundary points of the r = r_max face, then z_min, then z_max."""
    rc = grid.r_centers
    return np.vstack([
        np.column_stack([np.full(grid.nz, grid.r_max), grid.z_centers]),
        np.column_stack([rc, np.full(grid.nr, grid.z_min)]),
        np.column_stack([rc, np.full(grid.nr, grid.z_max)]),
    ])


def _kernel_boundary_rhs(omega: ScalarField) -> np.ndarray:
    """Right-hand-side contribution of kernel-evaluated Dirichlet data on the
    outer boundary faces (ghost = 2 g - interior).

    One kernel_stream_values call covers the three faces through the grid's
    plan, so the two z faces share their kernel tables.
    """
    grid = omega.grid
    nr, nz = grid.nr, grid.nz
    rc = grid.r_centers
    plan = grid.kernel_boundary_plan
    g = kernel_stream_values(omega, plan.points, plan)
    rhs = np.zeros((nr, nz))
    rhs[nr - 1, :] += 2.0 * rc[-1] * g[:nz] / (grid.hr**2 * grid.r_max)
    rhs[:, 0] += 2.0 * g[nz : nz + nr] / grid.hz**2
    rhs[:, nz - 1] += 2.0 * g[nz + nr :] / grid.hz**2
    return rhs


@dataclass
class KernelDecayReport:
    sup_product: float
    per_scale: dict
    far_field_sup: float
    samples: int


def kernel_decay_check(sample_count: int = 2000, rng_seed: int = 0) -> KernelDecayReport:
    """Empirical check that |G| * (|r - rbar| + |z - zbar|) stays bounded.

    Samples source filaments with log-uniform radii and evaluation points at
    dyadic relative separations, plus a far-field batch with axial offsets
    much larger than r + rbar.  Returns the observed suprema; no specific
    constant is asserted.
    """
    if sample_count < 1000:
        raise ValueError(f"sample_count must be at least 1000, got {sample_count}")
    rng = np.random.default_rng(rng_seed)
    scales = 2.0 ** np.arange(-6, 3)
    n_per = max(sample_count // (len(scales) + 1), 1)
    per_scale = {}
    sup = 0.0
    used = 0
    for scale in scales:
        rbar = 10.0 ** rng.uniform(-1.0, 1.0, size=n_per)
        zbar = rng.uniform(-2.0, 2.0, size=n_per)
        phi = rng.uniform(0.0, 2.0 * np.pi, size=n_per)
        delta = scale * rbar
        r = rbar + delta * np.cos(phi)
        z = zbar + delta * np.sin(phi)
        ok = r > 1e-9
        ur, uz = ring_velocity(r[ok], z[ok], rbar[ok], zbar[ok])
        dist = np.abs(r[ok] - rbar[ok]) + np.abs(z[ok] - zbar[ok])
        prod = np.hypot(ur, uz) * dist
        value = float(np.max(prod)) if prod.size else 0.0
        per_scale[float(scale)] = value
        sup = max(sup, value)
        used += int(np.sum(ok))

    rbar = 10.0 ** rng.uniform(-1.0, 1.0, size=n_per)
    zbar = rng.uniform(-2.0, 2.0, size=n_per)
    offs = rng.choice([8.0, 32.0, 128.0], size=n_per) * rbar
    ur, uz = ring_velocity(rbar, zbar + offs, rbar, zbar)
    far = float(np.max(np.hypot(ur, uz) * offs))
    used += n_per
    return KernelDecayReport(sup, per_scale, far, used)
