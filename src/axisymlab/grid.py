"""Cell-centered discretization of the truncated half plane.

The computational domain is (0, r_max) x (z_min, z_max) with nr x nz cells.
Cell centers sit at r_i = (i + 1/2) hr and z_j = z_min + (j + 1/2) hz, so no
degree of freedom lies on the symmetry axis r = 0.  Arrays are (nr, nz),
C-ordered, z fastest.

Axis handling for derivatives uses ghost-cell reflection: a field extended to
r < 0 is either even (f(-r) = f(r)) or odd (f(-r) = -f(r)).  Relative
vorticity, stream function, and passive scalars are even; vorticity and
backward-dual fields are odd.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .exceptions import NonFiniteFieldError
from .separable import SeparableOperator

# Parity across r = 0 by field role.  "none" means no symmetry is assumed and
# one-sided differences are used at the axis as well.
AXIS_SYMMETRY = {
    "relative_vorticity": "even",
    "vorticity": "odd",
    "stream": "even",
    "passive_scalar": "even",
    "dual": "odd",
    "test": "none",
}


@dataclass(frozen=True)
class HalfPlaneGrid:
    nr: int
    nz: int
    r_max: float
    z_min: float
    z_max: float

    @property
    def hr(self) -> float:
        return self.r_max / self.nr

    @property
    def hz(self) -> float:
        return (self.z_max - self.z_min) / self.nz

    @cached_property
    def r_centers(self) -> np.ndarray:
        return (np.arange(self.nr) + 0.5) * self.hr

    @cached_property
    def z_centers(self) -> np.ndarray:
        return self.z_min + (np.arange(self.nz) + 0.5) * self.hz

    @cached_property
    def r_col(self) -> np.ndarray:
        """Cell-center radii as an (nr, 1) column for broadcasting."""
        return self.r_centers[:, None]

    @cached_property
    def kernel_boundary_plan(self):
        """The biot_savart.BoundaryTables of the three outer faces: built by
        the first kernel-boundary stream solve on this grid and kept as long
        as the grid."""
        from .biot_savart import BoundaryTables  # biot_savart imports this module

        return BoundaryTables(self)

    @cached_property
    def stream_operator(self) -> SeparableOperator:
        """The stream operator B (biot_savart.stream_operator_radial, Dirichlet
        in z), factored by the first stream solve on this grid and kept as
        long as the grid."""
        from .biot_savart import stream_operator_radial  # biot_savart imports this module

        return SeparableOperator(stream_operator_radial(self), self.hz, self.nz, "dirichlet")

    @cached_property
    def _diffusion_slots(self) -> dict:
        return {}

    def diffusion_operator(self, radial, z_bc: str, scale: float) -> SeparableOperator:
        """The factored implicit diffusion operator 1 + scale (R + T), R = radial(self).

        Each (radial, z_bc), one per lab diffusion, has one slot on the grid.
        The slot is refactored only when scale differs from the stored one, so
        the steps of a fixed-dt run share one factorization, and a truncated
        last step or an adaptive dt refactors.  scale = theta nu dt is finite
        and positive, where == is bitwise equality.
        """
        op = self._diffusion_slots.get((radial, z_bc))
        if op is None or op.scale != scale:
            op = SeparableOperator(radial(self), self.hz, self.nz, z_bc, shift=1.0, scale=scale)
            self._diffusion_slots[(radial, z_bc)] = op
        return op

    @property
    def cell_area(self) -> float:
        return self.hr * self.hz

    def meshes(self):
        r2d, z2d = np.meshgrid(self.r_centers, self.z_centers, indexing="ij")
        return r2d, z2d


def build_grid(nr: int, nz: int, r_max: float, z_min: float, z_max: float) -> HalfPlaneGrid:
    if not (isinstance(nr, (int, np.integer)) and isinstance(nz, (int, np.integer))):
        raise ValueError("nr and nz must be integers")
    if nr < 4 or nz < 4:
        raise ValueError(f"cell counts must be at least 4, got nr={nr}, nz={nz}")
    if not (r_max > 0.0):
        raise ValueError(f"r_max must be positive, got {r_max}")
    if not (z_min < z_max):
        raise ValueError(f"need z_min < z_max, got [{z_min}, {z_max}]")
    return HalfPlaneGrid(int(nr), int(nz), float(r_max), float(z_min), float(z_max))


class ScalarField:
    """A scalar sample on cell centers with a role tag.

    The role selects the axis parity used by derivative operators; see
    AXIS_SYMMETRY.  Values are validated to be finite float64 of shape
    (nr, nz).
    """

    def __init__(self, grid: HalfPlaneGrid, values: np.ndarray, role: str = "test"):
        if role not in AXIS_SYMMETRY:
            raise ValueError(f"unknown field role {role!r}")
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.shape != (grid.nr, grid.nz):
            raise ValueError(
                f"values shape {values.shape} does not match grid ({grid.nr}, {grid.nz})"
            )
        if not np.all(np.isfinite(values)):
            raise NonFiniteFieldError("field values must be finite")
        self.grid = grid
        self.values = values
        self.role = role

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy(), self.role)

    def with_values(self, values: np.ndarray) -> "ScalarField":
        return ScalarField(self.grid, values, self.role)

    @property
    def axis_symmetry(self) -> str:
        return AXIS_SYMMETRY[self.role]


class VelocityField:
    """Velocity components (u_r, u_z) on cell centers.

    u_r is odd across the axis and u_z is even; the extrapolated u_r at r = 0
    vanishes to discretization order for any field produced by the stream
    solve.
    """

    def __init__(self, grid: HalfPlaneGrid, u_r: np.ndarray, u_z: np.ndarray):
        u_r = np.ascontiguousarray(u_r, dtype=np.float64)
        u_z = np.ascontiguousarray(u_z, dtype=np.float64)
        if u_r.shape != (grid.nr, grid.nz) or u_z.shape != (grid.nr, grid.nz):
            raise ValueError("velocity component shape does not match grid")
        if not (np.all(np.isfinite(u_r)) and np.all(np.isfinite(u_z))):
            raise NonFiniteFieldError("velocity values must be finite")
        self.grid = grid
        self.u_r = u_r
        self.u_z = u_z

    def copy(self) -> "VelocityField":
        return VelocityField(self.grid, self.u_r.copy(), self.u_z.copy())

    def max_speeds(self):
        return float(np.max(np.abs(self.u_r))), float(np.max(np.abs(self.u_z)))


def integrate_weighted(f: ScalarField, k: float, p: float = 1.0) -> float:
    """Midpoint quadrature of the weighted integral int |f|^p r^k d(r,z).

    k = 1 with a 2*pi prefactor gives integrals against the three-dimensional
    measure restricted to axisymmetric functions; k = 3 appears in the
    second-moment (impulse) diagnostic.
    """
    if not (p >= 1.0):
        raise ValueError(f"exponent p must satisfy p >= 1, got {p}")
    g = f.grid
    v = f.values
    if p == 1.0:
        integrand = np.abs(v)
    elif p == 2.0:
        integrand = v * v
    else:
        integrand = np.abs(v) ** p
    if k == 0.0:
        total = np.sum(integrand)
    else:
        total = np.sum(integrand * g.r_col**k)
    return float(total * g.cell_area)


def integrate_signed(f: ScalarField, k: float) -> float:
    """Signed counterpart of integrate_weighted at p = 1."""
    g = f.grid
    return float(np.sum(f.values * g.r_col**k) * g.cell_area)


def ddr(values: np.ndarray, grid: HalfPlaneGrid, axis_symmetry: str = "none") -> np.ndarray:
    """Second-order d/dr: central in the interior, ghost reflection at the
    axis when a parity is declared, one-sided second order otherwise and at
    the outer boundary."""
    hr = grid.hr
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2.0 * hr)
    if axis_symmetry == "even":
        out[0] = (values[1] - values[0]) / (2.0 * hr)
    elif axis_symmetry == "odd":
        out[0] = (values[1] + values[0]) / (2.0 * hr)
    elif axis_symmetry == "none":
        out[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * hr)
    else:
        raise ValueError(f"unknown axis symmetry {axis_symmetry!r}")
    out[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * hr)
    return out


def ddz(values: np.ndarray, grid: HalfPlaneGrid) -> np.ndarray:
    hz = grid.hz
    out = np.empty_like(values)
    out[:, 1:-1] = (values[:, 2:] - values[:, :-2]) / (2.0 * hz)
    out[:, 0] = (-3.0 * values[:, 0] + 4.0 * values[:, 1] - values[:, 2]) / (2.0 * hz)
    out[:, -1] = (3.0 * values[:, -1] - 4.0 * values[:, -2] + values[:, -3]) / (2.0 * hz)
    return out


def gradient(f: ScalarField):
    """(d/dr f, d/dz f) as ScalarFields; the axis treatment follows the
    field's role."""
    fr = ddr(f.values, f.grid, f.axis_symmetry)
    fz = ddz(f.values, f.grid)
    return ScalarField(f.grid, fr, "test"), ScalarField(f.grid, fz, "test")
