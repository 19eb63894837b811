"""Built-in initial conditions and the analytic spherical-vortex oracle.

Initial data is always the relative vorticity xi = omega / r sampled at cell
centers.  Three analytic families:

- gaussian_ring: xi = A exp(-((r-r0)^2 + (z-z0)^2) / (2 sigma^2)), smooth,
  nonnegative for A >= 0, finite impulse;
- hill_vortex: xi = A on the half-disc r^2 + z^2 <= a^2, zero outside -- the
  classical steady translating spherical vortex, whose exact stream function
  and velocity are provided here as oracles for the elliptic solver;
- singular_ring: xi = A * dist^{-alpha} truncated at a support cutoff, where
  dist is the distance to the ring point (r0, z0); dist is floored at the
  cell diagonal so the sample stays finite, and the floor is recorded.
  Admissible only when alpha < 3/p for every finite monitored exponent p
  (the membership rule used throughout).

make_initial_condition dispatches on a plain dict {"kind": ..., params...}
so the config layer can hand specs through unchanged; a restart from a
checkpoint is not initial data and is built by the config layer.
"""

from __future__ import annotations

import numpy as np

from .exceptions import ConfigError
from .grid import HalfPlaneGrid, ScalarField, VelocityField

_REQUIRED_PARAMS = {
    "gaussian_ring": {"r0", "z0", "sigma", "amplitude"},
    "hill_vortex": {"radius", "amplitude"},
    "singular_ring": {"r0", "z0", "alpha", "cutoff", "amplitude"},
}


def gaussian_ring_xi(
    grid: HalfPlaneGrid, r0: float, z0: float, sigma: float, amplitude: float
) -> ScalarField:
    if sigma <= 0.0:
        raise ConfigError(f"gaussian_ring sigma must be positive, got {sigma}")
    r2d, z2d = grid.meshes()
    vals = amplitude * np.exp(-((r2d - r0) ** 2 + (z2d - z0) ** 2) / (2.0 * sigma**2))
    return ScalarField(grid, vals, role="relative_vorticity")


def hill_vortex_xi(grid: HalfPlaneGrid, radius: float, amplitude: float) -> ScalarField:
    if radius <= 0.0:
        raise ConfigError(f"hill_vortex radius must be positive, got {radius}")
    r2d, z2d = grid.meshes()
    vals = np.where(r2d**2 + z2d**2 <= radius**2, amplitude, 0.0)
    return ScalarField(grid, vals, role="relative_vorticity")


def singular_ring_xi(
    grid: HalfPlaneGrid,
    r0: float,
    z0: float,
    alpha: float,
    cutoff: float,
    amplitude: float,
    monitor_ps=(),
):
    """Truncated power singularity around the ring point (r0, z0).

    Returns (field, info) where info records the grid-scale floor applied to
    the distance.  The admissibility gate alpha < 3/p is checked against
    every finite monitored exponent.
    """
    if alpha <= 0.0:
        raise ConfigError(f"singular_ring alpha must be positive, got {alpha}")
    if cutoff <= 0.0:
        raise ConfigError(f"singular_ring cutoff must be positive, got {cutoff}")
    if r0 <= 0.0:
        raise ConfigError(f"singular_ring r0 must be positive, got {r0}")
    for p in monitor_ps:
        if not np.isfinite(p):
            continue
        if not (alpha < 3.0 / p):
            raise ConfigError(
                f"singular_ring alpha={alpha} inadmissible for monitored p={p}:"
                f" membership requires alpha < 3/p = {3.0 / p}"
            )
    r2d, z2d = grid.meshes()
    floor = float(np.hypot(grid.hr, grid.hz))
    dist = np.hypot(r2d - r0, z2d - z0)
    vals = np.where(
        dist <= cutoff, amplitude * np.maximum(dist, floor) ** (-alpha), 0.0
    )
    field = ScalarField(grid, vals, role="relative_vorticity")
    return field, {"distance_floor": floor, "cutoff": cutoff, "alpha": alpha}


def _spec_params(spec: dict, required: set) -> dict:
    """A spec's parameters, whose keys besides 'kind' must be exactly `required`."""
    kind = spec["kind"]
    given = set(spec) - {"kind"}
    missing = required - given
    extra = given - required
    if missing:
        raise ConfigError(f"initial condition {kind!r} missing key {sorted(missing)[0]!r}")
    if extra:
        raise ConfigError(f"initial condition {kind!r} has unknown key {sorted(extra)[0]!r}")
    return {key: spec[key] for key in given}


def make_initial_condition(spec: dict, grid: HalfPlaneGrid, monitor_ps=()):
    """Build the initial relative vorticity from a spec dict.

    Returns (ScalarField, info dict); info carries regularization metadata
    for the manifest.  Raises ConfigError naming the offending key for any
    malformed spec.
    """
    if not isinstance(spec, dict):
        raise ConfigError(f"initial condition spec must be an object, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind not in _REQUIRED_PARAMS:
        raise ConfigError(
            f"unknown initial condition kind {kind!r}; expected one of "
            f"{sorted(_REQUIRED_PARAMS)}"
        )
    params = _spec_params(spec, _REQUIRED_PARAMS[kind])
    if kind == "singular_ring":
        return singular_ring_xi(grid, **params, monitor_ps=monitor_ps)
    builder = gaussian_ring_xi if kind == "gaussian_ring" else hill_vortex_xi
    return builder(grid, **params), {}


# ---------------------------------------------------------------------------
# analytic spherical vortex (laboratory frame, fluid at rest at infinity)


def hill_vortex_stream(r, z, radius: float, amplitude: float):
    """Exact stream function of the spherical vortex with xi = A on rho <= a.

    Interior: psi = A r^2 (5 a^2 - 3 rho^2) / 30; exterior: psi =
    (A a^5 / 15) r^2 / rho^3.  Continuous with continuous gradient across
    rho = a, and psi -> 0 at infinity.
    """
    r = np.asarray(r, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    a = radius
    rho2 = r**2 + z**2
    rho = np.sqrt(rho2)
    inside = rho <= a
    safe = np.where(inside, a, rho)
    psi_in = amplitude * r**2 * (5.0 * a**2 - 3.0 * rho2) / 30.0
    psi_out = (amplitude * a**5 / 15.0) * r**2 / safe**3
    return np.where(inside, psi_in, psi_out)


def hill_vortex_velocity(r, z, radius: float, amplitude: float):
    """Exact (u_r, u_z) of the spherical vortex in the laboratory frame.

    The vortex translates with speed U = 2 A a^2 / 15 along +z; the far
    field decays like a dipole.  Derived from the stream function via
    u_r = -psi_z / r, u_z = psi_r / r (removable singularity at r = 0).
    """
    r = np.asarray(r, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    a = radius
    A = amplitude
    rho2 = r**2 + z**2
    rho = np.sqrt(rho2)
    inside = rho <= a
    safe = np.where(inside, a, rho)
    ur_in = (A / 5.0) * r * z
    uz_in = (A / 15.0) * (5.0 * a**2 - 6.0 * r**2 - 3.0 * z**2)
    ur_out = (A * a**5 / 5.0) * r * z / safe**5
    uz_out = (A * a**5 / 15.0) * (2.0 / safe**3 - 3.0 * r**2 / safe**5)
    return np.where(inside, ur_in, ur_out), np.where(inside, uz_in, uz_out)


def hill_vortex_velocity_field(
    grid: HalfPlaneGrid, radius: float, amplitude: float
) -> VelocityField:
    r2d, z2d = grid.meshes()
    ur, uz = hill_vortex_velocity(r2d, z2d, radius, amplitude)
    return VelocityField(grid, ur, uz)


def hill_impulse(radius: float, amplitude: float) -> float:
    """Exact flat half-plane impulse int xi r^3 d(r,z) = 4 A a^5 / 15."""
    return 4.0 * amplitude * radius**5 / 15.0
