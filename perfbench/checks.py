"""Correctness checks of the benchmark's outputs.

Every check compares a program output with a value computed here, apart from
the program: closed forms of the initial fields, the benchmark's own AXF1 and
CSV readers, its own trapezoid and Gauss-Legendre quadratures, and bounds the
method must respect.  None of them compares against a stored copy of earlier
output.  Each returns a Check whose value must not exceed its bound; teeth.py
shows that every one of them rejects a known-wrong input.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    bound: float

    @property
    def ok(self) -> bool:
        return bool(np.isfinite(self.value) and self.value <= self.bound)


# ---------------------------------------------------------------------------
# readers for the run directory, written from the README's format description


def read_axf1(path: str):
    """(header, xi) of an AXF1 checkpoint: one JSON line, then <f8 bytes."""
    with open(path, "rb") as f:
        header = json.loads(f.readline().decode("utf-8"))
        payload = f.read()
    if header.get("magic") != "AXF1":
        raise ValueError(f"{path} is not an AXF1 checkpoint")
    nr, nz = int(header["nr"]), int(header["nz"])
    if len(payload) != 8 * nr * nz:
        raise ValueError(f"{path}: payload has {len(payload)} bytes, expected {8 * nr * nz}")
    return header, np.frombuffer(payload, dtype="<f8").reshape(nr, nz)


def cell_centres(header):
    """Radial and axial cell centres of the grid an AXF1 header describes."""
    nr, nz = int(header["nr"]), int(header["nz"])
    hr = header["r_max"] / nr
    hz = (header["z_max"] - header["z_min"]) / nz
    r = (np.arange(nr) + 0.5) * hr
    z = header["z_min"] + (np.arange(nz) + 0.5) * hz
    return r, z, hr, hz


def read_csv_columns(path: str) -> dict:
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    if not rows:
        raise ValueError(f"{path} has no records")
    return {key: np.array([float(row[key]) for row in rows]) for key in rows[0]}


# ---------------------------------------------------------------------------
# ring_run


def lp_monotone(columns: dict, rel_tol: float = 1e-8) -> Check:
    """Worst relative increase of any lp_* column from one record to the next."""
    worst = -np.inf
    for key, v in columns.items():
        if key.startswith("lp_"):
            worst = max(worst, float(np.max((v[1:] - v[:-1]) / v[:-1])))
    return Check("lp_monotone", worst, rel_tol)


def gaussian_ring_impulse(r0, z0, sigma, amplitude, z_min, z_max) -> float:
    """int_0^inf int_{z_min}^{z_max} xi r^3 dz dr of xi = A exp(-|x - x0|^2 / 2 sigma^2).

    With s = sigma sqrt(2) and x = r - r0, the radial factor is the sum of
    the moments M_k = int_{-r0}^inf x^k exp(-x^2 / s^2) dx weighted by the
    binomial expansion of (x + r0)^3.  The radial truncation at r_max lies
    beyond six sigma in every benchmark input, where the tail is below 1e-9.
    """
    s = sigma * math.sqrt(2.0)
    e = math.exp(-(r0 / s) ** 2)
    m0 = 0.5 * s * math.sqrt(math.pi) * (1.0 + math.erf(r0 / s))
    m1 = 0.5 * s * s * e
    m2 = 0.5 * s * s * (m0 - r0 * e)
    m3 = 0.5 * s * s * (r0 * r0 + s * s) * e
    radial = m3 + 3.0 * r0 * m2 + 3.0 * r0 * r0 * m1 + r0**3 * m0
    axial = 0.5 * s * math.sqrt(math.pi) * (
        math.erf((z_max - z0) / s) - math.erf((z_min - z0) / s)
    )
    return amplitude * axial * radial


def impulse_drift(header, xi, expected: float, rel_tol: float = 1e-4) -> Check:
    """Relative gap between the checkpoint's midpoint impulse and the closed form."""
    r, _, hr, hz = cell_centres(header)
    got = float(np.sum(xi * r[:, None] ** 3) * hr * hz)
    return Check("impulse_drift", abs(got - expected) / abs(expected), rel_tol)


def energy_balance(columns: dict, nu: float, bound: float = 0.05) -> Check:
    """max_t |E(t) + 2 nu int_0^t |grad u|^2 - E(0)| / E(0), by trapezoid."""
    t, e, g = columns["t"], columns["energy"], columns["grad_u_sq"]
    running = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(t) * (g[1:] + g[:-1]))])
    return Check("energy_balance", float(np.max(np.abs(e + 2.0 * nu * running - e[0])) / e[0]), bound)


# ---------------------------------------------------------------------------
# hill_kernel


def hill_speed(header, xi, radius: float, amplitude: float, rel_tol: float = 0.01) -> Check:
    """Relative error of the r^3-weighted xi centroid speed against U = 2 A a^2 / 15.

    The initial vortex is centred on z = 0, so the centroid's displacement
    over the run is its final axial position.
    """
    r, z, _, _ = cell_centres(header)
    w = xi * r[:, None] ** 3
    speed = float(np.sum(w * z[None, :]) / np.sum(w)) / header["t"]
    exact = 2.0 * amplitude * radius**2 / 15.0
    return Check("hill_speed", abs(speed / exact - 1.0), rel_tol)


# ---------------------------------------------------------------------------
# transport_frozen


def manufactured_psi(r, z):
    """Stream function r^2 exp(-r^2 - z^2) of the frozen transport velocity."""
    return r**2 * np.exp(-(r**2) - z**2)


def psi_constant(positions, tol: float = 1e-5) -> Check:
    """Largest change of psi along any traced trajectory; positions is (m, n, 2)."""
    psi = manufactured_psi(positions[..., 0], positions[..., 1])
    return Check("psi_constant", float(np.max(np.abs(psi - psi[0]))), tol)


def no_new_extremum(initial, snapshots) -> Check:
    """How far any snapshot leaves the range of the initial data (0 is allowed)."""
    lo, hi = float(np.min(initial)), float(np.max(initial))
    excess = max(max(float(np.max(s)) - hi, lo - float(np.min(s))) for s in snapshots)
    return Check("no_new_extremum", excess, 0.0)


def duality_defect(times, theta, f, chi, r, z, area, tol: float = 1e-3) -> Check:
    """|int_0^T int theta chi - (int theta(0) f(0) - int theta(T) f(T))| / (|LHS| + |RHS|).

    All space integrals are midpoint sums against r d(r,z); the time integral
    is the trapezoid rule over the snapshot times.
    """
    r2d, z2d = np.meshgrid(r, z, indexing="ij")
    w = r2d * area
    inner = np.array([np.sum(th * chi(t, r2d, z2d) * w) for t, th in zip(times, theta)])
    lhs = float(np.sum(0.5 * np.diff(times) * (inner[1:] + inner[:-1])))
    rhs = float(np.sum(theta[0] * f[0] * w) - np.sum(theta[-1] * f[-1] * w))
    return Check("duality_defect", abs(lhs - rhs) / (abs(lhs) + abs(rhs)), tol)


def renorm_small(residuals: dict, tol: float = 3e-4) -> Check:
    """Largest inviscid renormalization residual over the built-in beta."""
    return Check("renorm_residual", max(residuals.values()), tol)


# ---------------------------------------------------------------------------
# ineq_scan


def control_product(products, tol: float = 1e-6) -> Check:
    """Constant weight: the A_p product is 1 whatever the ball."""
    return Check("control_product", max(abs(c - 1.0) for c in products), tol)


def far_field(far_sup: float, p: float) -> Check:
    """Balls with d >= 2R see r^{-p} vary by at most ((d+R)/(d-R))^p <= 3^p."""
    return Check("far_field_sup", far_sup, 3.0**p)


def ap_product_gauss(p: float, d: float, R: float, n: int = 24) -> float:
    """A_p product of r^{-p} over a ball clear of the axis, in spherical coordinates.

    Tensor Gauss-Legendre in (rho, cos(polar), azimuth) about the ball centre,
    an independent route from the program's cylindrical quadrature with an
    exact azimuthal measure.  The integrand is smooth when d > R.
    """
    x, wx = np.polynomial.legendre.leggauss(n)
    rho = 0.5 * R * (x + 1.0)
    w_rho = 0.5 * R * wx * rho**2
    cos_t, w_t = x, wx
    alpha = np.pi * (x + 1.0)
    w_a = np.pi * wx
    sin_t = np.sqrt(1.0 - cos_t**2)
    px = d + rho[:, None, None] * sin_t[None, :, None] * np.cos(alpha)[None, None, :]
    py = rho[:, None, None] * sin_t[None, :, None] * np.sin(alpha)[None, None, :]
    dist = np.hypot(px, py)
    w = w_rho[:, None, None] * w_t[None, :, None] * w_a[None, None, :]
    vol = 4.0 * np.pi * R**3 / 3.0
    q = p / (p - 1.0)
    avg_weight = float(np.sum(w * dist**-p)) / vol
    avg_dual = float(np.sum(w * dist**q)) / vol
    return avg_weight * avg_dual ** (p / q)


def ap_quadrature(program: float, own: float, rel_tol: float = 5e-4) -> Check:
    return Check("ap_quadrature", abs(program / own - 1.0), rel_tol)


def nash_sharp_constant() -> float:
    """Carlen & Loss (1993) bound on ||f||_2 / (||f||_1^{2/5} ||grad f||_2^{3/5}) in R^3.

    ||f||_2^{2+4/n} <= C_n ||f||_1^{4/n} ||grad f||_2^2 with
    C_n = (n+2)^{(n+2)/n} / (2^{2/n} n lambda_1 |B^n|^{2/n}), where lambda_1 is
    the first nonzero radial Neumann eigenvalue of the unit ball: for n = 3
    the first positive root k of tan k = k, squared.  The ratio is bounded
    by C_3^{3/10}.
    """
    k = 4.493409457909064
    for _ in range(3):  # Newton on sin k - k cos k, polished to machine precision
        k -= (math.sin(k) - k * math.cos(k)) / (k * math.sin(k))
    n = 3.0
    ball = 4.0 * math.pi / 3.0
    c = (n + 2.0) ** ((n + 2.0) / n) / (2.0 ** (2.0 / n) * n * k * k * ball ** (2.0 / n))
    return c**0.3


def nash_below_sharp(sup: float) -> Check:
    return Check("nash_sup", sup, nash_sharp_constant())
