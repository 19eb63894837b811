"""Conserved and monitored quantities, identity residuals, and rate fits.

Conventions (fixed once here):

- Volume norms carry the explicit 2*pi of the angular integral, so
  ||f||_{L^p}^p = 2*pi * integral |f|^p r d(r,z) over the half plane.
- The energy column is ||u||^2 = 2*pi * integral (u_r^2 + u_z^2) r d(r,z)
  (squared L2 norm, no 1/2), so the viscous balance reads
  energy(t) + 2*nu*integral_0^t grad_u_sq dt = energy(0).
- impulse is the flat half-plane integral of omega r^2 = xi r^3 (signed).
- The velocity-gradient magnitude uses the axisymmetric identity
  |grad u|^2 = (d_r u^r)^2 + (u^r/r)^2 + (d_z u^r)^2 + (d_r u^z)^2 + (d_z u^z)^2.

CSV columns are fixed: t, nu, lp_{p} for each monitored p (4 significant
digits), linf, impulse, energy, enstrophy, grad_u_sq, diss_{p} for each p,
energy_deficit.  Floats are serialized with repr for byte reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import (
    ScalarField,
    VelocityField,
    ddr,
    ddz,
    gradient,
    integrate_signed,
    integrate_weighted,
)


def lp_norm_xi(xi: ScalarField, p) -> float:
    """Three-dimensional L^p norm of the relative vorticity."""
    return _lp_norm(xi, np.abs(xi.values), p)


def _lp_norm(xi: ScalarField, a: np.ndarray, p) -> float:
    """lp_norm_xi(xi, p) from a = |xi|, with integrate_weighted(xi, 1, p)'s arithmetic."""
    if p == np.inf or p == "inf":
        return float(np.max(a))
    if not (p >= 1):
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    v = xi.values
    integrand = a if p == 1.0 else v * v if p == 2.0 else a**p
    weighted = float(np.sum(integrand * xi.grid.r_col) * xi.grid.cell_area)
    return float((2.0 * np.pi * weighted) ** (1.0 / p))


def impulse(xi: ScalarField) -> float:
    """Axial impulse integral of omega r^2 = xi r^3 over the half plane (signed)."""
    return integrate_signed(xi, 3)


def kinetic_energy(u: VelocityField) -> float:
    """Squared L2(R^3) norm of the velocity (no factor 1/2)."""
    grid = u.grid
    e = np.sum((u.u_r**2 + u.u_z**2) * grid.r_col)
    return float(2.0 * np.pi * e * grid.cell_area)


def enstrophy(xi: ScalarField) -> float:
    """Squared L2(R^3) norm of the vorticity omega = r xi."""
    return float(2.0 * np.pi * integrate_weighted(xi, 3, 2))


def grad_u_magnitude_sq(u: VelocityField) -> np.ndarray:
    """Pointwise |grad u|^2 of the 3-D velocity reconstructed from (u_r, u_z).

    For a swirl-free axisymmetric field the full gradient magnitude is
    (d_r u_r)^2 + (u_r/r)^2 + (d_z u_r)^2 + (d_r u_z)^2 + (d_z u_z)^2;
    the u_r/r term is the azimuthal stretching entry.
    """
    grid = u.grid
    dur_dr = ddr(u.u_r, grid, "odd")
    dur_dz = ddz(u.u_r, grid)
    duz_dr = ddr(u.u_z, grid, "even")
    duz_dz = ddz(u.u_z, grid)
    return dur_dr**2 + (u.u_r / grid.r_col) ** 2 + dur_dz**2 + duz_dr**2 + duz_dz**2


def grad_u_sq(u: VelocityField) -> float:
    """Squared L2(R^3) norm of the full 3-D velocity gradient."""
    grid = u.grid
    mag2 = grad_u_magnitude_sq(u)
    return float(2.0 * np.pi * np.sum(mag2 * grid.r_col) * grid.cell_area)


def enstrophy_identity_residual(u: VelocityField, xi: ScalarField) -> float:
    """Relative defect of ||grad u||^2 = ||omega||^2 (absolute when omega = 0)."""
    ens = enstrophy(xi)
    g = grad_u_sq(u)
    if ens == 0.0:
        return abs(g)
    return abs(g - ens) / ens


def _dissipation_parts(xi: ScalarField, a: np.ndarray, a_max: float):
    """What dissipation_integral needs of xi for every p, given a = |xi| and
    a_max = max|xi|: |grad xi|^2, the mask of |xi| above its round-off floor,
    and |xi| with 1 off the mask."""
    gr, gz = gradient(xi)
    g2 = gr.values**2 + gz.values**2
    mask = a > 1e-14 * max(a_max, 1e-300)
    return g2, mask, np.where(mask, a, 1.0)


def _dissipation(parts, xi: ScalarField, nu: float, p: float) -> float:
    """dissipation_integral(xi, nu, p) from _dissipation_parts(xi)."""
    g2, mask, a = parts
    if p == 2.0:
        wg2 = g2  # the weight is 1, and 1 * g2 is g2 bit for bit
    else:
        with np.errstate(divide="ignore"):
            wg2 = np.where(mask, a ** (p - 2.0), 0.0) * g2
    val = np.sum(wg2 * xi.grid.r_col) * xi.grid.cell_area
    return float(nu * (p - 1.0) * 2.0 * np.pi * val)


def dissipation_integral(xi: ScalarField, nu: float, p: float) -> float:
    """nu (p-1) * 2 pi * integral |xi|^{p-2} |grad xi|^2 r d(r,z).

    This is (minus) the interior dissipation rate of (1/p)||xi||_p^p; the
    additional axis term of the exact identity is nonnegative and omitted,
    so decay measured against this integral is a one-sided check.  For
    p < 2 the |xi|^{p-2} factor is masked where |xi| is at round-off level.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    a = np.abs(xi.values)
    return _dissipation(_dissipation_parts(xi, a, float(np.max(a))), xi, nu, p)


@dataclass
class DiagnosticsRecord:
    t: float
    nu: float
    lp_norms: dict
    linf: float
    impulse: float
    energy: float
    enstrophy: float
    grad_u_sq: float
    dissipation: dict
    energy_deficit: float


def compute_record(state, ps, energy0: float | None = None) -> DiagnosticsRecord:
    """Evaluate every monitored quantity on a state."""
    ps = list(ps)
    if len(ps) == 0:
        raise ValueError("at least one monitoring exponent is required")
    xi = state.xi
    a = np.abs(xi.values)  # one |xi| for every norm and the dissipation
    linf = float(np.max(a))
    lp = {p: _lp_norm(xi, a, p) for p in ps}
    e = kinetic_energy(state.u)
    parts = _dissipation_parts(xi, a, linf)  # one gradient for every p
    return DiagnosticsRecord(
        t=state.t,
        nu=state.nu,
        lp_norms=lp,
        linf=linf,
        impulse=impulse(xi),
        energy=e,
        enstrophy=enstrophy(xi),
        grad_u_sq=grad_u_sq(state.u),
        dissipation={p: _dissipation(parts, xi, state.nu, p) for p in ps},
        energy_deficit=(energy0 - e) if energy0 is not None else 0.0,
    )


@dataclass
class DiagnosticsCollector:
    """sample_hook for evolution.run that accumulates DiagnosticsRecords.

    Captures the initial energy on the first call so energy_deficit is
    ||u_0||^2 - ||u(t)||^2 for all subsequent rows.
    """

    ps: tuple
    records: list = field(default_factory=list)
    energy0: float | None = None

    def __call__(self, state, step_index):
        rec = compute_record(state, self.ps, energy0=self.energy0)
        if self.energy0 is None:
            self.energy0 = rec.energy
            rec.energy_deficit = 0.0
        self.records.append(rec)
        return rec


def csv_columns(ps) -> list:
    cols = ["t", "nu"]
    cols += [f"lp_{p:.4g}" for p in ps]
    cols += ["linf", "impulse", "energy", "enstrophy", "grad_u_sq"]
    cols += [f"diss_{p:.4g}" for p in ps]
    cols += ["energy_deficit"]
    return cols


def record_row(rec: DiagnosticsRecord, ps) -> list:
    row = [rec.t, rec.nu]
    row += [rec.lp_norms[p] for p in ps]
    row += [rec.linf, rec.impulse, rec.energy, rec.enstrophy, rec.grad_u_sq]
    row += [rec.dissipation[p] for p in ps]
    row += [rec.energy_deficit]
    return row


def write_csv(records, ps, path: str) -> None:
    """Fixed-column CSV; float cells use repr for byte-stable output."""
    ps = list(ps)
    lines = [",".join(csv_columns(ps))]
    for rec in records:
        lines.append(",".join(repr(float(v)) for v in record_row(rec, ps)))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def energy_balance_residual(records, nu: float) -> float:
    """max_t |energy(t) + 2 nu int_0^t grad_u_sq - energy(0)| / energy(0).

    The time integral is the running trapezoid over the record times.  The
    factor 2 pairs with the squared-norm energy convention (d/dt ||u||^2 =
    -2 nu ||grad u||^2).
    """
    if len(records) < 2:
        return 0.0
    t = np.array([r.t for r in records])
    e = np.array([r.energy for r in records])
    g = np.array([r.grad_u_sq for r in records])
    if e[0] == 0.0:
        raise ValueError("initial energy is zero; residual undefined")
    dt = np.diff(t)
    running = np.concatenate([[0.0], np.cumsum(0.5 * dt * (g[1:] + g[:-1]))])
    return float(np.max(np.abs(e + 2.0 * nu * running - e[0])) / e[0])


def monotonicity_violations(records, ps):
    """Worst relative increase of each ||xi||_p between consecutive records.

    Returns {p: max relative increase}; a value <= 0 means the norm never
    increased, and callers compare against their own tolerance.
    """
    out = {}
    for p in ps:
        vals = np.array([r.lp_norms[p] for r in records])
        prev = vals[:-1]
        prev = np.where(prev > 0.0, prev, 1.0)
        inc = (vals[1:] - vals[:-1]) / prev
        out[p] = float(np.max(inc)) if inc.size else 0.0
    return out


def dissipation_inequality_violations(records, ps):
    """Worst violation of the discrete dissipation inequality per exponent.

    Between consecutive samples the decrement of N = (1/p)||xi||_p^p must
    be at least dt times the dissipation integral evaluated at the right
    endpoint (the dissipation is decreasing along diffusive decay, so the
    right endpoint underestimates the true time integral).  Returns
    {p: max over steps of (N_k - N_{k-1} + dt D_k) / N_{k-1}}.
    """
    out = {}
    t = np.array([r.t for r in records])
    dt = np.diff(t)
    for p in ps:
        n = np.array([(1.0 / p) * r.lp_norms[p] ** p for r in records])
        d = np.array([r.dissipation[p] for r in records])
        prev = np.where(n[:-1] > 0.0, n[:-1], 1.0)
        viol = (n[1:] - n[:-1] + dt * d[1:]) / prev
        out[p] = float(np.max(viol)) if viol.size else 0.0
    return out


# ---------------------------------------------------------------------------
# rate fits


@dataclass
class RateFit:
    exponent: float
    window: tuple
    residual: float
    raw_q_exponent: float
    bound_constant: float
    n_points: int


def decay_rate_fit(records, p: float, q, window=None) -> RateFit:
    """Fit the L^p -> L^q smoothing exponent from a record series.

    The regression slope is taken from log(||xi(t)||_q / ||xi(t)||_p)
    against log(nu t): for self-similar diffusive decay the norm ratio
    isolates exactly the (3/2)(1/p - 1/q) smoothing exponent, whereas the
    raw q-norm slope also contains the decay of the p-norm itself (the raw
    slope is returned alongside).  Also reported: the empirical supremum of
    ||xi(t)||_q (nu t)^{(3/2)(1/p-1/q)} / ||xi(0)||_p, the constant of the
    upper bound.

    The fit window must span at least one decade in t; records inside the
    initial transient (t < window[0]) are excluded.
    """
    if q != np.inf and q < p:
        raise ValueError(f"need q >= p, got p={p}, q={q}")
    nu = records[0].nu
    if nu <= 0.0:
        raise ValueError("decay fit requires nu > 0")
    t = np.array([r.t for r in records])
    qn = np.array([r.linf if q == np.inf else r.lp_norms[q] for r in records])
    pn = np.array([r.lp_norms[p] for r in records])
    p0 = pn[0]
    if window is None:
        positive = t[t > 0.0]
        if positive.size < 3:
            raise ValueError("not enough positive-time records for a fit window")
        window = (float(positive[0]), float(t[-1]))
    lo, hi = window
    if not (t[0] <= lo < hi <= t[-1] + 1e-12):
        raise ValueError(f"fit window {window} outside simulated span [{t[0]}, {t[-1]}]")
    if hi / max(lo, 1e-300) < 10.0:
        raise ValueError(
            f"fit window {window} spans {hi / max(lo, 1e-300):.2f}x; need >= one decade"
        )
    sel = (t >= lo) & (t <= hi) & (qn > 0.0) & (pn > 0.0)
    if np.sum(sel) < 3:
        raise ValueError("fewer than 3 usable records in the fit window")
    x = np.log(nu * t[sel])
    y = np.log(qn[sel] / pn[sel])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    y_raw = np.log(qn[sel])
    raw_slope = float(np.polyfit(x, y_raw, 1)[0])
    expo = 1.5 * (1.0 / p - (0.0 if q == np.inf else 1.0 / q))
    tt = t > 0.0
    const = float(np.max(qn[tt] * (nu * t[tt]) ** expo / p0)) if np.any(tt) else np.nan
    return RateFit(
        exponent=float(-slope),
        window=(float(lo), float(hi)),
        residual=resid,
        raw_q_exponent=-raw_slope,
        bound_constant=const,
        n_points=int(np.sum(sel)),
    )


# ---------------------------------------------------------------------------
# local Sobolev-type checks


def _ball_mask(grid, R: float):
    if not (0.0 < R < np.inf):
        raise ValueError(f"ball radius must be positive and finite, got {R}")
    if R > grid.r_max or R > grid.z_max or R > -grid.z_min:
        raise ValueError(
            f"ball of radius {R} exceeds the truncated domain "
            f"(r_max={grid.r_max}, z in [{grid.z_min}, {grid.z_max}])"
        )
    r2d, z2d = grid.meshes()
    return (r2d**2 + z2d**2) <= R * R


def local_w1p_check(state, R: float, p_star: float, p: float, ref_norms=None):
    """||u||_{W^{1,p_star}} on the centered ball of radius R, and its ratio.

    The denominator is ||xi_ref||_{L^p(R^3)} + ||omega_ref||_{L^1(H)};
    pass ref_norms=(lp, l1) captured at t=0 to track the ratio along a run,
    otherwise the current state supplies them.
    """
    if not (1.0 < p_star <= min(p, 2.0)):
        raise ValueError(f"need p_star in (1, min(p,2)], got p_star={p_star}, p={p}")
    grid = state.grid
    mask = _ball_mask(grid, R)
    u = state.u
    gmag = np.sqrt(grad_u_magnitude_sq(u))
    speed = np.hypot(u.u_r, u.u_z)
    w = 2.0 * np.pi * grid.r_col * grid.cell_area
    total = np.sum((speed**p_star + gmag**p_star) * w * mask)
    norm = float(total ** (1.0 / p_star))
    if ref_norms is None:
        ref = lp_norm_xi(state.xi, p) + integrate_weighted(state.xi, 1, 1)
    else:
        ref = ref_norms[0] + ref_norms[1]
    ratio = norm / ref if ref > 0.0 else 0.0
    return norm, ratio


def sobolev_embedding_ratio(u: VelocityField, omega: ScalarField, p: float) -> float:
    """||u||_{L^{2p/(2-p)}(H)} / ||omega||_{L^p(H)} in the flat measure."""
    if not (1.0 < p < 2.0):
        raise ValueError(f"embedding exponent requires p in (1,2), got {p}")
    grid = u.grid
    q = 2.0 * p / (2.0 - p)
    speed = np.hypot(u.u_r, u.u_z)
    num = (np.sum(speed**q) * grid.cell_area) ** (1.0 / q)
    den = (np.sum(np.abs(omega.values) ** p) * grid.cell_area) ** (1.0 / p)
    if den == 0.0:
        return 0.0
    return float(num / den)
