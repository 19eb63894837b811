"""Compactly supported C^1 test functions on the half plane.

Three families, all with closed-form gradients and support strictly inside
{r > 0} so that negative powers of r stay integrable in weighted
quadratures:

- gaussian_bump: anisotropic mollifier exp(1 - 1/(1-q)) with elliptical
  level sets, infinitely smooth, support an ellipse.
- ring_bump: the same mollifier profile in the distance from a circle in
  the (r, z) plane, support an annular shell.
- poly_bump: tensor product of quartic polynomials on a box, C^1 across
  the support boundary.

Integrals of powers and gradients are midpoint sums over the support
bounding box, on an r column and a z row that broadcast against each other;
one evaluation there (sample_support) serves every integral of a ratio.
Space-time variants (separable time profile times a spatial bump) feed the
weak-form transport residuals.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np


def _mollifier(q: np.ndarray, derivative: bool):
    """exp(1 - 1/(1-q)) on q < 1, 0 elsewhere, and its q-derivative if asked."""
    inside = q < 1.0
    qs = np.where(inside, q, 0.0)
    m = np.where(inside, np.exp(1.0 - 1.0 / (1.0 - qs)), 0.0)
    return m, (np.where(inside, -m / (1.0 - qs) ** 2, 0.0) if derivative else None)


@dataclass(frozen=True)
class TestFunctionSpec:
    """One member of the built-in compactly supported families."""

    family: str
    params: dict

    def __post_init__(self):
        p = self.params
        if self.family == "gaussian_bump":
            needed = {"r0", "z0", "wr", "wz", "amplitude"}
            if set(p) != needed:
                raise ValueError(f"gaussian_bump needs params {sorted(needed)}")
            if p["wr"] <= 0 or p["wz"] <= 0:
                raise ValueError("bump widths must be positive")
            if p["r0"] - p["wr"] <= 0:
                raise ValueError(
                    f"support touches the axis: r0-wr = {p['r0'] - p['wr']:.3g} <= 0"
                )
        elif self.family == "ring_bump":
            needed = {"r0", "z0", "d0", "w", "amplitude"}
            if set(p) != needed:
                raise ValueError(f"ring_bump needs params {sorted(needed)}")
            if p["w"] <= 0 or p["d0"] <= p["w"]:
                raise ValueError("ring_bump needs d0 > w > 0")
            if p["r0"] - p["d0"] - p["w"] <= 0:
                raise ValueError("ring_bump support touches the axis")
        elif self.family == "poly_bump":
            needed = {"r_lo", "r_hi", "z_lo", "z_hi", "amplitude"}
            if set(p) != needed:
                raise ValueError(f"poly_bump needs params {sorted(needed)}")
            if not (0.0 < p["r_lo"] < p["r_hi"]) or not p["z_lo"] < p["z_hi"]:
                raise ValueError("poly_bump box must satisfy 0 < r_lo < r_hi, z_lo < z_hi")
        else:
            raise ValueError(f"unknown test-function family {self.family!r}")

    # -- geometry ---------------------------------------------------------

    def support_box(self):
        p = self.params
        if self.family == "gaussian_bump":
            return (p["r0"] - p["wr"], p["r0"] + p["wr"], p["z0"] - p["wz"], p["z0"] + p["wz"])
        if self.family == "ring_bump":
            s = p["d0"] + p["w"]
            return (p["r0"] - s, p["r0"] + s, p["z0"] - s, p["z0"] + s)
        return (p["r_lo"], p["r_hi"], p["z_lo"], p["z_hi"])

    def dilated(self, mu: float) -> "TestFunctionSpec":
        """Return the spec of f(mu r, mu z) (same amplitude)."""
        if mu <= 0:
            raise ValueError("dilation factor must be positive")
        p = {k: v if k == "amplitude" else v / mu for k, v in self.params.items()}
        return replace(self, params=p)

    # -- evaluation -------------------------------------------------------

    def evaluate(self, r, z):
        """(f, f_r, f_z) at (r, z) from one mollifier (or polynomial) evaluation."""
        return self._sample(r, z, True)

    def value(self, r, z) -> np.ndarray:
        """f at (r, z), without the gradient work of evaluate."""
        return self._sample(r, z, False)[0]

    def gradient(self, r, z):
        return self.evaluate(r, z)[1:]

    def _sample(self, r, z, with_gradient: bool):
        r = np.asarray(r, dtype=np.float64)
        z = np.asarray(z, dtype=np.float64)
        p = self.params
        a = p["amplitude"]
        if self.family == "poly_bump":
            # one quartic per axis, zero off its interval; 2-D products last
            lr = p["r_hi"] - p["r_lo"]
            lz = p["z_hi"] - p["z_lo"]
            ur = (r - p["r_lo"]) / lr
            uz = (z - p["z_lo"]) / lz
            in_r = (ur > 0.0) & (ur < 1.0)
            in_z = (uz > 0.0) & (uz < 1.0)
            ur = np.where(in_r, ur, 0.0)
            uz = np.where(in_z, uz, 0.0)
            pr = 16.0 * ur**2 * (1.0 - ur) ** 2
            pz = 16.0 * uz**2 * (1.0 - uz) ** 2
            if not with_gradient:
                return (a * pr * pz,)
            dpr = 16.0 * (2.0 * ur * (1.0 - ur) ** 2 - 2.0 * ur**2 * (1.0 - ur)) / lr
            dpz = 16.0 * (2.0 * uz * (1.0 - uz) ** 2 - 2.0 * uz**2 * (1.0 - uz)) / lz
            # dpr * (+0) is -0 where dpr < 0; off the box the gradient is a * 0.0
            box, zero = in_r & in_z, a * 0.0
            return a * pr * pz, np.where(box, a * dpr * pz, zero), np.where(box, a * pr * dpz, zero)
        if self.family == "gaussian_bump":
            xr = (r - p["r0"]) / p["wr"]
            xz = (z - p["z0"]) / p["wz"]
            m, dm = _mollifier(xr**2 + xz**2, with_gradient)
            if not with_gradient:
                return (a * m,)
            return a * m, a * dm * 2.0 * xr / p["wr"], a * dm * 2.0 * xz / p["wz"]
        dr = r - p["r0"]
        dz = z - p["z0"]
        rho = np.hypot(dr, dz)
        m, dm = _mollifier(((rho - p["d0"]) / p["w"]) ** 2, with_gradient)
        if not with_gradient:
            return (a * m,)
        safe = np.where(rho > 0.0, rho, 1.0)
        common = np.where(rho > 0.0, a * dm * 2.0 * (rho - p["d0"]) / p["w"] ** 2 / safe, 0.0)
        return a * m, common * dr, common * dz


def support_quadrature(spec: TestFunctionSpec, n: int = 256):
    """Midpoint quadrature nodes (an r column, a z row) and cell area covering the support box.

    The box is clipped to r > 0 (supports are constructed strictly inside,
    so this only trims numerically empty margin).
    """
    r_lo, r_hi, z_lo, z_hi = spec.support_box()
    r_lo = max(r_lo, 0.0)
    hr = (r_hi - r_lo) / n
    hz = (z_hi - z_lo) / n
    r = r_lo + (np.arange(n) + 0.5) * hr
    z = z_lo + (np.arange(n) + 0.5) * hz
    return r[:, None], z[None, :], hr * hz


class SupportSample(NamedTuple):
    """|f| and |grad f| of one test function at its support quadrature nodes (r a column)."""

    r: np.ndarray
    area: float
    f: np.ndarray
    grad: np.ndarray

    def integral(self, values: np.ndarray, power: float, weight_exponent: float) -> float:
        """quadrature of values^power * r^weight_exponent; values is self.f or self.grad."""
        return float(np.sum(values**power * self.r**weight_exponent) * self.area)


def sample_support(spec: TestFunctionSpec, n: int = 256) -> SupportSample:
    """One evaluation of spec on support_quadrature(spec, n)."""
    r, z, da = support_quadrature(spec, n)
    f, f_r, f_z = spec.evaluate(r, z)
    return SupportSample(r, da, np.abs(f), np.hypot(f_r, f_z))


def integrate_power(
    spec: TestFunctionSpec, power: float, weight_exponent: float, n: int = 256
) -> float:
    """quadrature of |f|^power * r^weight_exponent over the support."""
    s = sample_support(spec, n)
    return s.integral(s.f, power, weight_exponent)


def integrate_gradient_power(
    spec: TestFunctionSpec, power: float, weight_exponent: float, n: int = 256
) -> float:
    """quadrature of |grad f|^power * r^weight_exponent over the support."""
    s = sample_support(spec, n)
    return s.integral(s.grad, power, weight_exponent)


def random_test_functions(count: int, rng_seed: int, width_range=(0.05, 0.4)):
    """Randomized family with supports strictly inside {r > 0}.

    Members cycle through gaussian, ring and poly bumps.  Widths and
    amplitudes (in [0.2, 5]) are log-uniform; centers uniform in
    [0.6, 3] x [-2, 2].  Construction guarantees the axis margin by shrinking
    widths that would touch r = 0.
    """
    if count < 1:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(rng_seed)
    out = []
    for i in range(count):
        family = ("gaussian_bump", "ring_bump", "poly_bump")[i % 3]
        r0 = rng.uniform(0.6, 3.0)
        z0 = rng.uniform(-2.0, 2.0)
        w = np.exp(rng.uniform(np.log(width_range[0]), np.log(width_range[1])))
        amp = np.exp(rng.uniform(np.log(0.2), np.log(5.0)))
        w = min(w, 0.45 * r0)
        if family == "gaussian_bump":
            wz = w * np.exp(rng.uniform(-0.5, 0.5))
            spec = TestFunctionSpec(
                "gaussian_bump",
                {"r0": r0, "z0": z0, "wr": w, "wz": wz, "amplitude": amp},
            )
        elif family == "ring_bump":
            d0 = 2.2 * w
            if r0 - d0 - w <= 0.0:
                r0 = d0 + w + 0.1
            spec = TestFunctionSpec(
                "ring_bump",
                {"r0": r0, "z0": z0, "d0": d0, "w": w, "amplitude": amp},
            )
        else:
            spec = TestFunctionSpec(
                "poly_bump",
                {
                    "r_lo": r0 - w,
                    "r_hi": r0 + w,
                    "z_lo": z0 - w,
                    "z_hi": z0 + w,
                    "amplitude": amp,
                },
            )
        out.append(spec)
    return out


# ---------------------------------------------------------------------------
# space-time bumps for weak-form transport residuals


@dataclass(frozen=True)
class SpaceTimeBump:
    """Separable test function w(t) * b(r,z), C^2, supported in [0, tau) x H.

    profile "decay": w(t) = (1 - (t/tau)^2)^3, equal to 1 at t = 0 so the
    initial term of the weak form is active.  profile "bump": w vanishes at
    both ends of [0, tau].  Both profiles meet t = tau with two vanishing
    derivatives; trapezoid quadrature of the residual then converges at a
    clean second order regardless of where tau falls between snapshots.
    """

    space: TestFunctionSpec
    tau: float
    profile: str = "decay"

    def __post_init__(self):
        if self.tau <= 0.0:
            raise ValueError("tau must be positive")
        if self.profile not in ("decay", "bump"):
            raise ValueError(f"unknown time profile {self.profile!r}")

    def time_weight(self, t):
        t = np.asarray(t, dtype=np.float64)
        u = np.clip(t / self.tau, 0.0, 1.0)
        if self.profile == "decay":
            w = (1.0 - u**2) ** 3
            dw = -6.0 * u * (1.0 - u**2) ** 2 / self.tau
        else:
            w = 64.0 * u**3 * (1.0 - u) ** 3
            dw = 192.0 * u**2 * (1.0 - u) ** 2 * (1.0 - 2.0 * u) / self.tau
        live = (t >= 0.0) & (t < self.tau)
        return np.where(live, w, 0.0), np.where(live, dw, 0.0)

    def norm(self) -> float:
        """sup|f| + sup|f_t| + sup|grad f| over a sample of the support."""
        s = sample_support(self.space, 64)
        v, g = np.max(s.f), np.max(s.grad)
        ts = np.linspace(0.0, self.tau, 65)
        w, dw = self.time_weight(ts)
        return float(np.max(w) * (v + g) + np.max(np.abs(dw)) * v)


def renorm_test_library(count: int, T: float, rng_seed: int):
    """Space-time bump library spanning [0, T) with mixed time profiles and
    spatial widths in [0.08, 0.4]."""
    specs = random_test_functions(count, rng_seed, width_range=(0.08, 0.4))
    rng = np.random.default_rng(rng_seed + 1)
    out = []
    for i, s in enumerate(specs):
        tau = T * rng.uniform(0.55, 0.98)
        profile = "decay" if i % 2 == 0 else "bump"
        out.append(SpaceTimeBump(space=s, tau=tau, profile=profile))
    return out
