"""Empirical laboratory for the weighted functional inequalities.

Every routine here estimates the constant in an inequality by direct
quadrature on concrete functions or balls; nothing is proved.  Randomized
scans report the observed supremum over a documented seeded family, and the
suite runners produce JSON-ready report dictionaries.

Covered inequalities:

- Muckenhoupt A_p products of the power weight m(r) = r^{-p} over 3-D balls
  (angular and axial integrals in closed form, so each ball costs a 1-D
  radial quadrature);
- weighted Sobolev ratios with the balance condition (2+alpha)/t =
  (2-s+beta)/s and alpha + t > 0;
- a dyadic Hardy ratio on the strips [R,2R] x R vs [R,4R] x R;
- a four-norm interpolation ratio with lambda = (3p-3)/(7p-6);
- the 3-D Nash ratio ||f||_2 / (||f||_1^{2/5} ||grad f||_2^{3/5}).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .test_functions import TestFunctionSpec, random_test_functions, sample_support


# ---------------------------------------------------------------------------
# Muckenhoupt A_p products


@dataclass(frozen=True)
class Ball3D:
    """A Euclidean ball described by its center's distance to the symmetry
    axis, the axial coordinate of the center, and its radius."""

    d: float
    x3: float
    R: float

    def __post_init__(self):
        if not (0.0 <= self.d < np.inf):
            raise ValueError(f"axis distance d must be finite and nonnegative, got {self.d}")
        if not np.isfinite(self.x3):
            raise ValueError(f"axial coordinate x3 must be finite, got {self.x3}")
        if not (0.0 < self.R < np.inf):
            raise ValueError(f"ball radius R must be finite and positive, got {self.R}")


def _conjugate(p: float) -> float:
    return p / (p - 1.0)


def _section_length(a, b):
    """4 int_0^pi sqrt((a + b cos phi)_+) dphi for arrays a and b >= 0, in closed form."""
    from scipy.special import ellipe, ellipk

    section = np.zeros_like(a)
    whole = (a >= b) & (a + b > 0.0)
    s = a[whole] + b[whole]
    section[whole] = 8.0 * np.sqrt(s) * ellipe(2.0 * b[whole] / s)
    part = np.abs(a) < b
    m = (a[part] + b[part]) / (2.0 * b[part])
    section[part] = 8.0 * np.sqrt(2.0 * b[part]) * (ellipe(m) - (1.0 - m) * ellipk(m))
    return section


def _batched_ball_averages(d, R, exponents, n: int):
    """Integrals of r^exponent over balls, exact in the angular and axial variables.

    d, R are 1-D arrays of equal length; the weight does not depend on z, so
    the ball's axial position x3 drops out.  At fixed r the ball's section by
    the cylinder of radius r has length (in the azimuth-axial plane)
    L(r) = 4 int_0^pi sqrt((a + b cos phi)_+) dphi with a = R^2 - r^2 - d^2
    and b = 2 r d, which complete elliptic integrals of parameter m give in
    closed form (Byrd & Friedman, Handbook of Elliptic Integrals for
    Engineers and Scientists, Springer 1971):
    L = 8 sqrt(a + b) E(2b / (a + b)) when a >= b (the whole circle lies in
    the ball), L = 8 sqrt(2b) (E(m) - (1 - m) K(m)) with m = (a + b) / (2b)
    when |a| < b, and L = 0 when a <= -b.  The only quadrature is radial:
    L is taken at the midpoints of n cells spanning the ball, and the factor
    r^{exponent+1} is integrated exactly across each cell so integrable axis
    singularities cost no accuracy.
    Returns ([weighted integrals, one array per exponent], plain volumes);
    every integral shares the one table of L, so exponent = 0 gives the
    volume exactly.  Integrability at the axis (exponent > -2 whenever a
    ball meets it) is the caller's responsibility.
    """
    d = np.asarray(d, dtype=np.float64)[:, None]
    R = np.asarray(R, dtype=np.float64)[:, None]
    r_lo_box = np.maximum(d - R, 0.0)
    r_edges = r_lo_box + (d + R - r_lo_box) * np.linspace(0.0, 1.0, n + 1)
    lo, hi = r_edges[:, :-1], r_edges[:, 1:]
    r_mid = 0.5 * (lo + hi)
    section = _section_length(R**2 - r_mid**2 - d**2, 2.0 * r_mid * d)
    integrals = []
    for exponent in (*exponents, 0.0):
        e2 = exponent + 2.0
        with np.errstate(divide="ignore"):
            if e2 == 0.0:
                radial = np.log(hi / np.where(lo > 0.0, lo, 1.0))
                radial = np.where(lo > 0.0, radial, np.inf)
            else:
                radial = np.diff(r_edges**e2, axis=1) / e2
        integrals.append(np.sum(section * radial, axis=1))
    return integrals[:-1], integrals[-1]


def _batched_ap_products(p, d, R, n: int, weight_exponent=None):
    e = -p if weight_exponent is None else float(weight_exponent)
    q = _conjugate(p)
    dual_e = -e * q / p
    d = np.asarray(d, dtype=np.float64)
    meets = d <= np.asarray(R, dtype=np.float64)
    for expo in (e, dual_e):
        if expo <= -2.0 and np.any(meets):
            raise ValueError(
                f"weight r^{expo} is not integrable over a ball meeting the axis"
            )
    (wa, wb), vol = _batched_ball_averages(d, R, (e, dual_e), n)
    return (wa / vol) * (wb / vol) ** (p / q)


def ap_product(p: float, ball: Ball3D, n: int = 64, weight_exponent=None) -> float:
    """Muckenhoupt product (avg_B m)(avg_B m^{-q/p})^{p/q} for m(r) = r^{-p}.

    weight_exponent overrides the power (0 gives the constant-weight control,
    whose product is exactly 1 by construction since both averages share one
    quadrature).  The angular and axial integrals are exact (complete
    elliptic integrals, see _batched_ball_averages), so n sets only the
    radial cells, the one quadrature error.  p = 2 is accepted only for balls
    not meeting the axis, where every integral is still proper; the scan
    itself stays in (1, 2).
    """
    if not (1.0 < p <= 2.0):
        raise ValueError(f"p must lie in (1, 2], got {p}")
    if n < 8:
        raise ValueError(f"quadrature resolution too small, got {n}")
    out = _batched_ap_products(
        p, [ball.d], [ball.R], n, weight_exponent=weight_exponent
    )
    return float(out[0])


@dataclass
class ApScanReport:
    p: float
    samples: int
    sup: float
    argmax: Ball3D
    near_sup: float
    far_sup: float
    seed: int
    quadrature_n: int

    def to_report(self) -> dict:
        return {
            "suite": "ap",
            "p": self.p,
            "samples": self.samples,
            "empirical_sup": self.sup,
            "argmax_params": {
                "d": self.argmax.d,
                "x3": self.argmax.x3,
                "R": self.argmax.R,
                "d_over_R": self.argmax.d / self.argmax.R,
                "near_sup": self.near_sup,
                "far_sup": self.far_sup,
            },
            "seed": self.seed,
        }


def ap_scan(
    p: float,
    sample_count: int = 100_000,
    rng_seed: int = 0,
    n: int = 48,
) -> ApScanReport:
    """Randomized supremum search for the A_p product of m(r) = r^{-p}.

    Balls get radii log-uniform over four decades and axis distances with
    d/R log-uniform over [1e-2, 1e2]; the far field (d >= 2R) is where the
    closed-form bound ((d+R)/(d-R))^p <= 3^p applies, and the global sup is
    expected in the near field.
    """
    if not (1.0 < p < 2.0):
        raise ValueError(f"scan requires p in (1, 2), got {p}")
    if sample_count < 10_000:
        raise ValueError(f"sample_count must be at least 10000, got {sample_count}")
    rng = np.random.default_rng(rng_seed)
    R = 10.0 ** rng.uniform(-2.0, 2.0, size=sample_count)
    ratio = 10.0 ** rng.uniform(-2.0, 2.0, size=sample_count)
    d = ratio * R
    x3 = rng.uniform(-10.0, 10.0, size=sample_count) * R

    sup = -np.inf
    arg = None
    near_sup = -np.inf
    far_sup = -np.inf
    chunk = 256
    for lo in range(0, sample_count, chunk):
        hi = min(lo + chunk, sample_count)
        prods = _batched_ap_products(p, d[lo:hi], R[lo:hi], n)
        far = d[lo:hi] >= 2.0 * R[lo:hi]
        far_sup = max(far_sup, float(np.max(prods[far], initial=-np.inf)))
        near_sup = max(near_sup, float(np.max(prods[~far], initial=-np.inf)))
        k = int(np.argmax(prods))
        if prods[k] > sup:
            sup = float(prods[k])
            arg = Ball3D(float(d[lo + k]), float(x3[lo + k]), float(R[lo + k]))
    return ApScanReport(p, sample_count, sup, arg, near_sup, far_sup, rng_seed, n)


# ---------------------------------------------------------------------------
# test-function ratios


def weighted_sobolev_ratio(
    f: TestFunctionSpec, s: float, t: float, alpha: float, beta: float, n: int = 192
) -> float:
    """(int |f|^t r^alpha)^{1/t} / (int |grad f|^s r^beta)^{1/s}.

    Admissibility: 1 <= s <= t < infinity, the dimensional balance
    (2+alpha)/t = (2-s+beta)/s, and alpha + t > 0.  Violations are rejected
    with the failing condition named.
    """
    if not (1.0 <= s <= t) or not np.isfinite(t):
        raise ValueError(f"need 1 <= s <= t < inf, got s={s}, t={t}")
    lhs_scale = (2.0 + alpha) / t
    rhs_scale = (2.0 - s + beta) / s
    if abs(lhs_scale - rhs_scale) > 1e-12 * max(1.0, abs(lhs_scale)):
        raise ValueError(
            "balance condition (2+alpha)/t = (2-s+beta)/s violated: "
            f"{lhs_scale} != {rhs_scale}"
        )
    if not (alpha + t > 0.0):
        raise ValueError(f"condition alpha + t > 0 violated: {alpha} + {t} <= 0")
    sample = sample_support(f, n)
    num = sample.integral(sample.f, t, alpha) ** (1.0 / t)
    den = sample.integral(sample.grad, s, beta) ** (1.0 / s)
    return 0.0 if den == 0.0 else float(num / den)


def hardy_ratio(f: TestFunctionSpec, gamma: float, R: float = 1.0, n: int = 256) -> float:
    """Dyadic Hardy ratio int_A |f(r,z) - f(2r,z)| r^gamma / int_B |grad f| r^{gamma+1}.

    A = [R, 2R] x R and B = [R, 4R] x R are the strips of the dyadic
    difference construction; gamma > -1 keeps the weight integrable on the
    strip.  Each sum runs over the strip rows where its integrand can be
    nonzero only; 0 is returned whenever the denominator vanishes.
    """
    if not (gamma > -1.0):
        raise ValueError(f"gamma must exceed -1, got {gamma}")
    if not (R > 0.0):
        raise ValueError(f"R must be positive, got {R}")
    r_lo, r_hi, z_lo, z_hi = f.support_box()
    r_a = np.linspace(R, 2.0 * R, n + 1)
    r_a = 0.5 * (r_a[1:] + r_a[:-1])
    r_b = np.linspace(R, 4.0 * R, 2 * n + 1)
    r_b = 0.5 * (r_b[1:] + r_b[:-1])
    r_b = r_b[(r_b >= r_lo) & (r_b <= r_hi), None]
    if r_b.size == 0:  # no gradient row: the denominator is 0
        return 0.0
    # the rows of A where f(r, z) or g(r, z) = f(2r, z) can be nonzero
    r_a = r_a[((r_a >= r_lo) & (r_a <= r_hi)) | ((2.0 * r_a >= r_lo) & (2.0 * r_a <= r_hi)), None]
    z = np.linspace(z_lo, z_hi, n + 1)
    z = 0.5 * (z[1:] + z[:-1])[None, :]
    dz = (z_hi - z_lo) / n
    diff = np.abs(f.value(r_a, z) - f.value(2.0 * r_a, z))
    num = np.sum(diff * r_a**gamma) * (R / n) * dz
    gr, gz = f.gradient(r_b, z)
    den = np.sum(np.hypot(gr, gz) * r_b ** (gamma + 1.0)) * (3.0 * R / (2 * n)) * dz
    return 0.0 if den == 0.0 else float(num / den)


def interpolation_lambda(p: float) -> float:
    return (3.0 * p - 3.0) / (7.0 * p - 6.0)


def interpolation_ratio(f: TestFunctionSpec, p: float, n: int = 192) -> float:
    """Four-norm interpolation ratio with lambda = (3p-3)/(7p-6).

    (int |f|^4 r)^{1/4} over (int f^2 r)^{lambda/2} (int |grad f|^2 r)^{1/4}
    (int |grad f|^p r^{1-p})^{(1/2-lambda)/p}.  The exponent sum on the
    right is 1, so the ratio is invariant under both amplitude scaling and
    dilation.  Supports touching r = 0 are rejected since r^{1-p} is
    evaluated with p > 1.
    """
    if not (1.0 < p <= 2.0):
        raise ValueError(f"p must lie in (1, 2], got {p}")
    r_lo = f.support_box()[0]
    if r_lo <= 0.0:
        raise ValueError("support must stay away from r = 0 for the r^{1-p} factor")
    lam = interpolation_lambda(p)
    sample = sample_support(f, n)
    num = sample.integral(sample.f, 4.0, 1.0) ** 0.25
    a = sample.integral(sample.f, 2.0, 1.0) ** (0.5 * lam)
    b = sample.integral(sample.grad, 2.0, 1.0) ** 0.25
    c = sample.integral(sample.grad, p, 1.0 - p) ** ((0.5 - lam) / p)
    den = a * b * c
    return 0.0 if den == 0.0 else float(num / den)


def nash_ratio(f: TestFunctionSpec, n: int = 192) -> float:
    """3-D Nash ratio ||f||_2 / (||f||_1^{2/5} ||grad f||_2^{3/5}).

    All norms are the axisymmetric 3-D ones (2 pi r weight); the exponents
    2/5 + 3/5 balance both amplitude and dilation.
    """
    two_pi = 2.0 * np.pi
    sample = sample_support(f, n)
    l2 = (two_pi * sample.integral(sample.f, 2.0, 1.0)) ** 0.5
    l1 = two_pi * sample.integral(sample.f, 1.0, 1.0)
    g2 = (two_pi * sample.integral(sample.grad, 2.0, 1.0)) ** 0.5
    den = l1**0.4 * g2**0.6
    return 0.0 if den == 0.0 else float(l2 / den)


# ---------------------------------------------------------------------------
# paper-derived exponent tuples and suite runners


def sobolev_tuple(p: float) -> tuple:
    """The derived admissible (s, t, alpha, beta) used by the L^4 control.

    t = (16p-12)/(7p-6), s = (16p-12)/(13p-10), alpha = (11p-10)/(13p-10),
    and beta chosen by the balance condition.  For p = 2 this is
    (1.25, 2.5, 0.75, 0.625).
    """
    if not (1.0 < p <= 2.0):
        raise ValueError(f"p must lie in (1, 2], got {p}")
    t = (16.0 * p - 12.0) / (7.0 * p - 6.0)
    s = (16.0 * p - 12.0) / (13.0 * p - 10.0)
    alpha = (11.0 * p - 10.0) / (13.0 * p - 10.0)
    beta = s * (2.0 + alpha) / t - 2.0 + s
    return s, t, alpha, beta


def _family_report(suite, p, ratios, specs, seed, extra=None):
    ratios = np.asarray(ratios)
    if ratios.size == 0 or not np.all(np.isfinite(ratios)):
        raise ValueError(f"suite {suite!r} produced a non-finite ratio")
    k = int(np.argmax(ratios))
    params = {"family": specs[k].family, **specs[k].params}
    if extra:
        params.update(extra)
    return {
        "suite": suite,
        "p": p,
        "samples": int(ratios.size),
        "empirical_sup": float(ratios[k]),
        "argmax_params": params,
        "seed": seed,
    }


def run_suite(
    suite: str,
    p: float | None = None,
    seed: int = 0,
    sample_count: int | None = None,
    quadrature_n: int = 128,
) -> dict:
    """Run one named inequality suite and return its JSON-ready report.

    Suites: 'ap' (ball scan), 'sobolev', 'interp', 'nash', 'hardy'
    (randomized test-function families, 1000 members by default).
    """
    if suite == "ap":
        pval = 1.5 if p is None else float(p)
        count = 100_000 if sample_count is None else int(sample_count)
        return ap_scan(pval, count, rng_seed=seed).to_report()

    count = 1000 if sample_count is None else int(sample_count)
    if count < 1:
        raise ValueError("sample_count must be positive")
    specs = random_test_functions(count, rng_seed=seed)
    if suite == "sobolev":
        pval = 2.0 if p is None else float(p)
        s, t, alpha, beta = sobolev_tuple(pval)
        ratios = [
            weighted_sobolev_ratio(f, s, t, alpha, beta, n=quadrature_n) for f in specs
        ]
        return _family_report(
            "sobolev", pval, ratios, specs, seed,
            extra={"s": s, "t": t, "alpha": alpha, "beta": beta},
        )
    if suite == "interp":
        pval = 1.8 if p is None else float(p)
        ratios = [interpolation_ratio(f, pval, n=quadrature_n) for f in specs]
        return _family_report(
            "interp", pval, ratios, specs, seed,
            extra={"lambda": interpolation_lambda(pval)},
        )
    if suite == "nash":
        ratios = [nash_ratio(f, n=quadrature_n) for f in specs]
        return _family_report("nash", None, ratios, specs, seed)
    if suite == "hardy":
        gamma = 0.0 if p is None else float(p)
        ratios = [hardy_ratio(f, gamma, R=1.0, n=quadrature_n) for f in specs]
        return _family_report("hardy", gamma, ratios, specs, seed, extra={"gamma": gamma, "R": 1.0})
    raise ValueError(f"unknown suite {suite!r}")
