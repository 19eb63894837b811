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
   and kernel_stream_values sum over every nonzero cell, O(N) per
   evaluation point.  The kernel depends on z - zbar only through
   |z - zbar| and is symmetric under r <-> rbar, so on the three outer faces
   of a uniform grid two tables hold every kernel value the boundary data
   need (BoundaryTables): about nr^2 nz / 2 evaluations, once per grid.
   Each solve sums them in two contractions per table.

Boundary conditions for the solve: psi = 0 on the axis (enforced through a
one-sided axis closure consistent with psi ~ c r^2) and psi = 0 (or
kernel-evaluated data) on the three outer boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import HalfPlaneGrid, ScalarField, VelocityField, ddr, ddz
from .separable import apply_separable, flux_form_radial


class EllipticSolveReport:
    """iterations, always 0 for the direct solve, and residual, the relative
    residual |B psi - b| / |b| in the 1/r-weighted norm.  The residual costs
    one application of B, so it is computed when first read, from the
    solve's psi and b; a step that only wants the velocity never pays it."""

    def __init__(self, grid: HalfPlaneGrid, psi: np.ndarray, b: np.ndarray):
        self.iterations = 0
        self._grid, self._psi, self._b = grid, psi, b

    @cached_property
    def residual(self) -> float:
        grid, psi, b = self._grid, self._psi, self._b
        bnorm = np.sqrt(np.sum(b * b / grid.r_col))
        if not bnorm > 0.0:
            return 0.0
        resid = apply_separable(psi, stream_operator_radial(grid), grid.hz, "dirichlet") - b
        return float(np.sqrt(np.sum(resid * resid / grid.r_col)) / bnorm)


def stream_operator_radial(grid: HalfPlaneGrid, outer_r: str = "dirichlet"):
    """Tridiagonal coefficients (lower, diag, upper) of the radial part of B.

    Flux form with face weights 1/r_face.  The axis face carries the closure
    flux (1/r) dpsi/dr |_{r=0} ~= 8 psi_0 / hr^2, exact for psi = c r^2;
    outer_r selects a homogeneous Dirichlet (ghost = -value) or zero-flux
    closure at r_max.  With the z closure, these coefficients define B for
    separable.apply_separable and separable.SeparableOperator.
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

    A separable direct solve with the grid's factored B
    (HalfPlaneGrid.stream_operator), exact up to round-off.  boundary =
    "kernel" evaluates the summation kernel on the outer boundary faces and
    uses it as inhomogeneous Dirichlet data, which removes most
    domain-truncation error.  Returns (psi, EllipticSolveReport), psi a
    ScalarField of role "stream"; the report's residual is computed when
    first read.
    """
    if boundary not in ("zero", "kernel"):
        raise ValueError(f"unknown boundary treatment {boundary!r}")
    grid = omega.grid
    b = grid.r_col * omega.values
    if boundary == "kernel":
        b = b + _kernel_boundary_rhs(omega)
    psi = grid.stream_operator.solve(b)
    return ScalarField(grid, psi, role="stream"), EllipticSolveReport(grid, psi, b)


def velocity_from_stream(psi: ScalarField) -> VelocityField:
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
    """(rbar, zbar, omega * cell_area) of the nonzero cells."""
    mask = omega.values != 0.0
    r2d, z2d = omega.grid.meshes()
    return r2d[mask], z2d[mask], omega.values[mask] * omega.grid.cell_area


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
    rbar, zbar, gamma = _source_cells(omega)
    out = np.zeros_like(points)
    for i, (rq, zq) in enumerate(points):
        ur, uz = ring_velocity(rq, zq, rbar, zbar)
        keep = (np.abs(rbar - rq) >= 0.5 * grid.hr) | (np.abs(zbar - zq) >= 0.5 * grid.hz)
        out[i, 0] = np.sum(ur[keep] * gamma[keep])
        out[i, 1] = np.sum(uz[keep] * gamma[keep])
    return out


class BoundaryTables:
    """The filament-kernel tables of the three outer faces of one grid.

    The kernel depends on z - zbar only through |z - zbar| and is symmetric
    under r <-> rbar.  side[k, m] = ring_stream(r_max, z_m - z_0, rbar_k, 0)
    serves the r = r_max face: its point j reads cell (k, j') at the lag
    |j - j'|.  ends[i, k, o] = ring_stream(r_i, d_o, rbar_k, 0) serves both
    z faces, d being the distinct distances |z_min - z_m| and |z_max - z_m|;
    columns[q, m] is the index in d of face q's distance to column m.  ends
    is evaluated once per unordered pair of radii and mirrored, which is exact
    because 4 r rbar and (r - rbar)^2 commute bit for bit, so a grid costs
    nr + 1 ring_stream calls.  The entries are the per-cell sum's terms bit
    for bit, except that a lag z_m - z_0 can differ from z_j - z_j' in the
    last bit.  The tables hold (nr + 1) nr nz doubles when the two z faces
    share their distances (d has nz entries, as on the 64x128 and 256x512
    grids symmetric about z = 0; at most 2 nz otherwise): 4 MiB at 64x128
    and 268 MiB at 256x512.  They keep no reference to the grid, which keeps
    them, so neither waits for the cyclic garbage collector.
    """

    def __init__(self, grid: HalfPlaneGrid):
        rc, zc = grid.r_centers, grid.z_centers
        self.side = ring_stream(grid.r_max, zc - zc[0], rc[:, None], 0.0)
        dist = np.abs(np.array([[grid.z_min], [grid.z_max]]) - zc)
        offsets, columns = np.unique(dist, return_inverse=True)
        self.columns = columns.reshape(dist.shape)
        self.ends = np.empty((grid.nr, grid.nr, offsets.size))
        for i, r in enumerate(rc):
            self.ends[i, i:] = ring_stream(r, offsets, rc[i:, None], 0.0)
            self.ends[i + 1 :, i] = self.ends[i, i + 1 :]

    def stream_values(self, gamma: np.ndarray) -> np.ndarray:
        """The kernel sums of the cell circulations gamma (nr, nz) at the
        points of _outer_face_points, in its order."""
        nr, nz = gamma.shape
        # lagged[m, j'] = sum_k side[k, m] gamma[k, j']; point j reads lag |j - j'|
        lagged = np.einsum("km,kj->mj", self.side, gamma)
        j = np.arange(nz)
        side = lagged[np.abs(j[:, None] - j), j].sum(axis=1)
        # binned[q, k, o]: gamma[k, m] at face q's distance index o = columns[q, m]
        binned = np.zeros((2, nr, self.ends.shape[2]))
        for face, cols in zip(binned, self.columns):
            face[:, cols] = gamma
        ends = np.einsum("ik,qk->qi", self.ends.reshape(nr, -1), binned.reshape(2, -1))
        return np.concatenate([side, ends.ravel()])


def kernel_stream_values(omega: ScalarField, points: np.ndarray) -> np.ndarray:
    """Stream-function values at query points by kernel summation over cells.

    points is (n, 2) with finite columns (r, z); any other shape or a
    non-finite point raises ValueError.  A point with r <= 0 gets 0.  The
    value at (r, z) is the midpoint sum of
    ring_stream(r, z, rbar, zbar) * omega * cell_area over the nonzero cells.
    A query exactly at a cell centre leaves that one cell out, because its
    filament passes through the point.

    The grid's outer-face points (_outer_face_points) read their terms from
    the grid's BoundaryTables (HalfPlaneGrid.kernel_boundary_plan), built
    once per grid, and sum them over every cell in numpy's own loops
    (einsum), not in BLAS, whose sums change in the last bits with its
    thread count; they equal the per-cell sum to round-off.
    """
    points = _query_points(points)
    grid = omega.grid
    if np.array_equal(points, _outer_face_points(grid)):
        return grid.kernel_boundary_plan.stream_values(omega.values * grid.cell_area)
    rbar, zbar, gamma = _source_cells(omega)
    out = np.zeros(points.shape[0])
    for i, (rq, zq) in enumerate(points):
        if rq > 0.0:
            keep = (rbar != rq) | (zbar != zq)
            out[i] = np.sum(ring_stream(rq, zq, rbar[keep], zbar[keep]) * gamma[keep])
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
    BoundaryTables.
    """
    grid = omega.grid
    nr, nz = grid.nr, grid.nz
    g = kernel_stream_values(omega, _outer_face_points(grid))
    rhs = np.zeros((nr, nz))
    rhs[nr - 1, :] += 2.0 * grid.r_centers[-1] * g[:nz] / (grid.hr**2 * grid.r_max)
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
