import numpy as np
import pytest
from scipy import integrate

from axisymlab import (
    Ball3D,
    ap_product,
    ap_scan,
    hardy_ratio,
    interpolation_lambda,
    interpolation_ratio,
    nash_ratio,
    random_test_functions,
    run_suite,
    sobolev_tuple,
    weighted_sobolev_ratio,
)
from axisymlab import TestFunctionSpec as FnSpec
from axisymlab import inequalities, test_functions
from axisymlab.inequalities import _batched_ap_products, _batched_ball_averages, _section_length
from axisymlab.test_functions import integrate_gradient_power, integrate_power

BUMP = FnSpec(
    "gaussian_bump", {"r0": 1.5, "z0": 0.2, "wr": 0.7, "wz": 0.5, "amplitude": 2.0}
)
# one member of each family
MEMBERS = [
    BUMP,
    FnSpec("ring_bump", {"r0": 1.2, "z0": 0.0, "d0": 0.6, "w": 0.25, "amplitude": 1.5}),
    FnSpec("poly_bump", {"r_lo": 0.5, "r_hi": 2.0, "z_lo": -0.5, "z_hi": 1.0, "amplitude": 1.0}),
]


def test_ball3d_validation():
    with pytest.raises(ValueError):
        Ball3D(d=1.0, x3=0.0, R=0.0)
    with pytest.raises(ValueError):
        Ball3D(d=-0.1, x3=0.0, R=1.0)
    # non-finite fields are refused by name, not carried into a NaN product
    for field, value in (("d", np.nan), ("d", np.inf), ("x3", np.nan), ("R", np.inf)):
        with pytest.raises(ValueError, match=rf"\b{field}\b"):
            Ball3D(**{"d": 1.0, "x3": 0.0, "R": 1.0, field: value})
    for d, far, meets_axis in ((2.0, True, False), (1.9, False, False), (0.5, False, True)):
        ball = Ball3D(d=d, x3=0.0, R=1.0)
        assert (ball.d >= 2.0 * ball.R, ball.d <= ball.R) == (far, meets_axis)


def test_ap_constant_weight_control():
    # exponent 0 makes both averages literal volume averages of 1, so the
    # product collapses to 1 with no quadrature error at all
    for ball in (Ball3D(3.0, 0.5, 1.0), Ball3D(0.3, -2.0, 1.0), Ball3D(0.0, 0.0, 0.7)):
        assert abs(ap_product(1.5, ball, weight_exponent=0.0) - 1.0) < 1e-13


def test_ap_far_field_bound():
    # for d >= 2R the weight is comparable across the ball and the product
    # obeys ((d+R)/(d-R))^p <= 3^p
    p = 1.5
    for ball in (Ball3D(2.0, 0.0, 1.0), Ball3D(3.0, 1.0, 1.0), Ball3D(10.0, -4.0, 2.0)):
        prod = ap_product(p, ball)
        assert prod <= ((ball.d + ball.R) / (ball.d - ball.R)) ** p + 1e-6
        assert prod <= 3.0**p + 1e-3
        assert prod >= 1.0 - 1e-9  # Jensen direction
    # a very distant ball sees an almost constant weight
    assert ap_product(p, Ball3D(100.0, 0.0, 1.0)) < 1.001


def test_ap_scale_invariance():
    # the power weight is homogeneous, so scaling the ball leaves the
    # product unchanged; the quadrature grid scales along with it
    base = Ball3D(0.8, 0.3, 0.5)
    ref = ap_product(1.3, base)
    for mu in (0.01, 7.0, 300.0):
        scaled = Ball3D(mu * base.d, mu * base.x3, mu * base.R)
        assert abs(ap_product(1.3, scaled) - ref) < 1e-10 * ref


def test_ap_product_against_cartesian_quadrature():
    # independent oracle: brute-force 3-D midpoint quadrature in Cartesian
    # coordinates, no analytic angular reduction
    p, ball, n = 1.5, Ball3D(3.0, 0.5, 1.0), 96
    e, q = -p, p / (p - 1.0)
    dual_e = -e * q / p
    h = 2.0 * ball.R / n
    ax = ball.d - ball.R + (np.arange(n) + 0.5) * h
    ay = -ball.R + (np.arange(n) + 0.5) * h
    az = ball.x3 - ball.R + (np.arange(n) + 0.5) * h
    x, y, z = np.meshgrid(ax, ay, az, indexing="ij")
    inside = (x - ball.d) ** 2 + y**2 + (z - ball.x3) ** 2 <= ball.R**2
    rsq = x**2 + y**2
    vol = np.sum(inside)
    avg_w = np.sum(rsq[inside] ** (e / 2.0)) / vol
    avg_dual = np.sum(rsq[inside] ** (dual_e / 2.0)) / vol
    reference = avg_w * avg_dual ** (p / q)
    assert abs(ap_product(p, ball) - reference) < 2e-3 * reference


def test_ap_product_validation():
    far = Ball3D(3.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        ap_product(1.0, far)
    with pytest.raises(ValueError):
        ap_product(2.1, far)
    with pytest.raises(ValueError):
        ap_product(1.5, far, n=4)
    # p = 2 puts r^{-2} on the axis, legal only away from it
    assert ap_product(2.0, far) > 1.0
    with pytest.raises(ValueError):
        ap_product(2.0, Ball3D(0.5, 0.0, 1.0))


def test_ap_scan_report():
    rep = ap_scan(1.5, sample_count=10_000, rng_seed=3, n=24)
    assert rep.samples == 10_000
    assert rep.far_sup <= 3.0**1.5 + 1e-3
    assert rep.sup >= rep.far_sup and rep.sup >= rep.near_sup
    assert rep.sup == max(rep.far_sup, rep.near_sup)
    assert np.isfinite(rep.sup)
    doc = rep.to_report()
    assert doc["suite"] == "ap" and doc["samples"] == 10_000
    assert set(doc["argmax_params"]) >= {"d", "x3", "R", "d_over_R"}
    with pytest.raises(ValueError):
        ap_scan(2.0, sample_count=10_000)
    with pytest.raises(ValueError):
        ap_scan(1.5, sample_count=100)


def _full_z_ball_averages(d, R, exponents, n, nz):
    # the z quadrature the closed form replaces: the azimuthal half-angle
    # theta inside the ball on n radial by nz axial midpoint cells, summed
    # together with the radial factor of each exponent
    d = np.asarray(d, dtype=np.float64)[:, None, None]
    R = np.asarray(R, dtype=np.float64)[:, None, None]
    edges = np.linspace(0.0, 1.0, n + 1)[None, :, None]
    r_lo_box = np.maximum(d - R, 0.0)
    r_edges = r_lo_box + (d + R - r_lo_box) * edges
    r_mid = 0.5 * (r_edges[:, 1:, :] + r_edges[:, :-1, :])
    z_off = -R + 2.0 * R * (np.linspace(0.0, 1.0, nz + 1)[:-1] + 0.5 / nz)[None, None, :]
    num = r_mid**2 + d**2 + z_off**2 - R**2
    den = 2.0 * r_mid * d
    with np.errstate(divide="ignore", invalid="ignore"):
        arg = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), np.where(num <= 0.0, -1.0, 1.0))
    theta = np.arccos(np.clip(arg, -1.0, 1.0))
    lo, hi = r_edges[:, :-1, :], r_edges[:, 1:, :]
    out = []
    for exponent in (*exponents, 0.0):
        e2 = exponent + 2.0
        radial = np.log(hi / lo) if e2 == 0.0 else (hi**e2 - lo**e2) / e2
        out.append(2.0 * np.sum(theta * radial, axis=(1, 2)) * 2.0 * R[:, 0, 0] / nz)
    return out[:-1], out[-1]


def test_section_length_matches_phi_quadrature():
    # every branch of the closed form and its edges against a direct
    # quadrature of 4 sqrt((a + b cos phi)_+) over the arc where it is positive
    b = 2.0
    cases = [
        (3.0, 0.0),  # d = 0: the whole circle, b = 0
        (0.0, 0.0),  # a + b = 0 on the axis
        (-0.5, 0.0),  # outside, b = 0
        (7.0, b),  # whole circle, a > b
        (b, b),  # a = b: the circle touches the sphere, m = 1
        (0.3, b),  # part of the circle, |a| < b
        (-1.7, b),  # part of the circle, m = 0.075
        (-b * (1.0 - 1e-4), b),  # a just above -b, m = 5e-5
        (-b, b),  # a = -b: a single point
        (-3.0, b),  # a < -b: no section
    ]
    a = np.array([c[0] for c in cases])
    bb = np.array([c[1] for c in cases])
    got = _section_length(a, bb)
    for (ai, bi), g in zip(cases, got):
        if ai <= -bi:
            assert g == 0.0
            continue
        cut = np.pi if ai >= bi else np.arccos(-ai / bi)
        want, _ = integrate.quad(lambda phi: 4.0 * np.sqrt(max(ai + bi * np.cos(phi), 0.0)),
                                 0.0, cut, epsabs=0.0, epsrel=1e-13, limit=200)
        assert abs(g - want) <= 1e-10 * want, (ai, bi, g, want)


@pytest.mark.parametrize("n", [9, 24, 48])
def test_ball_averages_are_the_limit_of_the_z_quadrature(n):
    # balls on the axis, meeting it and clear of it, at a fixed radial rule.
    # At each r the z integrand 2 theta rises from 0 to at most 2 pi and
    # falls back, so the midpoint rule on nz cells of width h = 2R / nz errs
    # by at most 2 pi h there (half the cell width times the variation), and
    # over the ball by 2 pi h times the integral of r^(exponent+1) across
    # the radial span.  The error itself oscillates with where each chord
    # ends between midpoints, but it stays under this bound, which halves
    # with each doubling, and closes on the exact section integrals.
    d = np.array([0.0, 0.3, 1.0, 3.0, 2.5, 12.0])
    R = np.array([0.7, 1.0, 1.0, 1.0, 1.0, 4.0])
    clear = d > R
    # the last case is the e2 == 0 log branch, on the balls clear of the axis
    for exponents, bd, bR in (((-1.5, 3.0), d, R), ((-1.2, 2.4), d, R), ((-2.0,), d[clear], R[clear])):
        got, vol = _batched_ball_averages(bd, bR, exponents, n)
        lo, hi = np.maximum(bd - bR, 0.0), bd + bR
        spans = [np.log(hi / lo) if e == -2.0 else (hi ** (e + 2.0) - lo ** (e + 2.0)) / (e + 2.0)
                 for e in (*exponents, 0.0)]
        errors = []
        for nz in (32, 64, 128, 256, 512, 1024, 2048):
            want, want_vol = _full_z_ball_averages(bd, bR, exponents, n, nz)
            h = 2.0 * bR / nz
            for g, w, span in zip([*got, vol], [*want, want_vol], spans):
                assert np.all(np.abs(w - g) <= 2.0 * np.pi * h * span)
            errors.append(max(np.max(np.abs(w / g - 1.0)) for g, w in zip([*got, vol], [*want, want_vol])))
        assert errors[-1] < min(errors[0] / 10.0, 5e-4), errors
    # both constant-weight averages share the volume's arithmetic
    assert np.all(_batched_ap_products(1.5, d, R, n, weight_exponent=0.0) == 1.0)


def test_evaluate_is_value_and_gradient():
    for s in MEMBERS:
        r_lo, r_hi, z_lo, z_hi = s.support_box()
        r, z = np.meshgrid(np.linspace(r_lo, r_hi, 41), np.linspace(z_lo, z_hi, 37), indexing="ij")
        f, f_r, f_z = s.evaluate(r, z)
        g_r, g_z = s.gradient(r, z)
        assert np.array_equal(f, s.value(r, z))
        assert np.array_equal(f_r, g_r) and np.array_equal(f_z, g_z)
        assert np.any(f != 0.0) and np.any(f_r != 0.0) and np.any(f_z != 0.0)


def test_ratios_equal_their_integral_formulas():
    n, p = 64, 1.8
    s, t, alpha, beta = sobolev_tuple(1.6)
    lam = interpolation_lambda(p)
    two_pi = 2.0 * np.pi
    for f in MEMBERS:
        def P(power, weight_exponent):
            return integrate_power(f, power, weight_exponent, n)

        def G(power, weight_exponent):
            return integrate_gradient_power(f, power, weight_exponent, n)

        sobolev = P(t, alpha) ** (1.0 / t) / G(s, beta) ** (1.0 / s)
        assert weighted_sobolev_ratio(f, s, t, alpha, beta, n=n) == sobolev
        den = P(2.0, 1.0) ** (0.5 * lam) * G(2.0, 1.0) ** 0.25 * G(p, 1.0 - p) ** ((0.5 - lam) / p)
        assert interpolation_ratio(f, p, n=n) == P(4.0, 1.0) ** 0.25 / den
        den = (two_pi * P(1.0, 1.0)) ** 0.4 * ((two_pi * G(2.0, 1.0)) ** 0.5) ** 0.6
        assert nash_ratio(f, n=n) == (two_pi * P(2.0, 1.0)) ** 0.5 / den


def test_each_ratio_samples_its_test_function_once(monkeypatch):
    calls = {"quadratures": 0, "mollifiers": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(test_functions, "support_quadrature",
                        counted("quadratures", test_functions.support_quadrature))
    monkeypatch.setattr(test_functions, "_mollifier",
                        counted("mollifiers", test_functions._mollifier))
    s, t, alpha, beta = sobolev_tuple(2.0)
    for ratio in (lambda f: weighted_sobolev_ratio(f, s, t, alpha, beta, n=32),
                  lambda f: interpolation_ratio(f, 1.8, n=32),
                  lambda f: nash_ratio(f, n=32)):
        for f in MEMBERS:
            calls.update(quadratures=0, mollifiers=0)
            ratio(f)
            assert calls["quadratures"] == 1
            assert calls["mollifiers"] == (0 if f.family == "poly_bump" else 1)


def test_test_function_gradients_match_differences():
    rng = np.random.default_rng(5)
    h = 1e-6
    for s in MEMBERS:
        r_lo, r_hi, z_lo, z_hi = s.support_box()
        r = rng.uniform(r_lo + 0.05, r_hi - 0.05, size=200)
        z = rng.uniform(z_lo + 0.05, z_hi - 0.05, size=200)
        gr, gz = s.gradient(r, z)
        num_r = (s.value(r + h, z) - s.value(r - h, z)) / (2.0 * h)
        num_z = (s.value(r, z + h) - s.value(r, z - h)) / (2.0 * h)
        scale = max(1.0, np.max(np.abs(gr)), np.max(np.abs(gz)))
        assert np.max(np.abs(gr - num_r)) < 1e-5 * scale
        assert np.max(np.abs(gz - num_z)) < 1e-5 * scale


def test_integrate_power_against_adaptive_quadrature():
    r_lo, r_hi, z_lo, z_hi = BUMP.support_box()
    ref = integrate.dblquad(
        lambda z, r: np.abs(BUMP.value(r, z)) ** 2 * r, max(r_lo, 0.0), r_hi, z_lo, z_hi
    )[0]
    got = integrate_power(BUMP, 2.0, 1.0, n=256)
    assert abs(got - ref) < 1e-5 * ref
    gref = integrate.dblquad(
        lambda z, r: np.hypot(*BUMP.gradient(r, z)) ** 2 * r, max(r_lo, 0.0), r_hi, z_lo, z_hi
    )[0]
    ggot = integrate_gradient_power(BUMP, 2.0, 1.0, n=256)
    assert abs(ggot - gref) < 1e-4 * gref


def test_sobolev_tuple_values():
    s, t, alpha, beta = sobolev_tuple(2.0)
    assert (s, t, alpha, beta) == (1.25, 2.5, 0.75, 0.625)
    for p in (1.2, 1.5, 1.9, 2.0):
        s, t, alpha, beta = sobolev_tuple(p)
        assert 1.0 <= s <= t
        assert abs((2.0 + alpha) / t - (2.0 - s + beta) / s) < 1e-12
        assert alpha + t > 0.0
    with pytest.raises(ValueError):
        sobolev_tuple(1.0)
    with pytest.raises(ValueError):
        sobolev_tuple(2.5)


def test_weighted_sobolev_validation():
    with pytest.raises(ValueError, match="balance"):
        weighted_sobolev_ratio(BUMP, 1.25, 2.5, 0.75, 0.9)
    with pytest.raises(ValueError, match="s <= t"):
        weighted_sobolev_ratio(BUMP, 2.5, 1.25, 0.75, 0.625)
    # balance holds but alpha + t fails: s = t = 1, alpha = -3, beta = -2
    with pytest.raises(ValueError, match="alpha"):
        weighted_sobolev_ratio(BUMP, 1.0, 1.0, -3.0, -2.0)


def test_weighted_sobolev_dilation_invariance():
    s, t, alpha, beta = sobolev_tuple(1.5)
    ref = weighted_sobolev_ratio(BUMP, s, t, alpha, beta)
    for mu in (0.5, 2.0, 8.0):
        val = weighted_sobolev_ratio(BUMP.dilated(mu), s, t, alpha, beta)
        assert abs(val - ref) < 1e-3 * ref


def test_interpolation_ratio_invariances():
    assert interpolation_lambda(2.0) == pytest.approx(3.0 / 8.0)
    assert interpolation_lambda(1.5) == pytest.approx(1.0 / 3.0)
    p = 1.8
    ref = interpolation_ratio(BUMP, p)
    assert ref > 0.0
    for mu in (0.5, 4.0):
        assert abs(interpolation_ratio(BUMP.dilated(mu), p) - ref) < 1e-3 * ref
    scaled = FnSpec("gaussian_bump", {**BUMP.params, "amplitude": 6.0})
    assert abs(interpolation_ratio(scaled, p) - ref) < 1e-10 * ref
    with pytest.raises(ValueError):
        interpolation_ratio(BUMP, 1.0)
    # axis-touching supports cannot even be constructed, which is what keeps
    # the r^{1-p} factor of the ratio integrable
    with pytest.raises(ValueError):
        FnSpec("poly_bump", {"r_lo": -0.1, "r_hi": 1.0, "z_lo": 0.0, "z_hi": 1.0, "amplitude": 1.0})


def test_nash_ratio_invariances_and_oracle():
    ref = nash_ratio(BUMP)
    assert 0.0 < ref < 1.0  # Nash: L2 is controlled by L1 and the gradient
    for mu in (0.5, 3.0):
        assert abs(nash_ratio(BUMP.dilated(mu)) - ref) < 1e-3 * ref
    scaled = FnSpec("gaussian_bump", {**BUMP.params, "amplitude": 0.25})
    assert abs(nash_ratio(scaled) - ref) < 1e-10 * ref
    # independent adaptive-quadrature oracle for the same three norms
    r_lo, r_hi, z_lo, z_hi = BUMP.support_box()
    two_pi = 2.0 * np.pi

    def q(fun):
        return integrate.dblquad(fun, max(r_lo, 0.0), r_hi, z_lo, z_hi)[0]

    l2 = np.sqrt(two_pi * q(lambda z, r: BUMP.value(r, z) ** 2 * r))
    l1 = two_pi * q(lambda z, r: np.abs(BUMP.value(r, z)) * r)
    g2 = np.sqrt(two_pi * q(lambda z, r: np.hypot(*BUMP.gradient(r, z)) ** 2 * r))
    assert abs(ref - l2 / (l1**0.4 * g2**0.6)) < 1e-4 * ref


def test_hardy_ratio_properties():
    # the bump straddles the dyadic strips, so both integrals are live
    val = hardy_ratio(BUMP, gamma=0.0, R=1.0)
    assert np.isfinite(val) and val > 0.0
    # scaling function and strips together leaves the ratio unchanged
    assert abs(hardy_ratio(BUMP.dilated(2.0), 0.0, R=0.5) - val) < 1e-6 * max(val, 1.0)
    far = FnSpec(
        "gaussian_bump", {"r0": 20.0, "z0": 0.0, "wr": 1.0, "wz": 1.0, "amplitude": 1.0}
    )
    assert hardy_ratio(far, 0.0, R=1.0) == 0.0
    with pytest.raises(ValueError):
        hardy_ratio(BUMP, gamma=-1.0)
    with pytest.raises(ValueError):
        hardy_ratio(BUMP, gamma=0.0, R=0.0)


def _full_strip_hardy_ratio(f, gamma, R, n):
    # the ratio summed over every row of both strips, f sampled on meshgrids
    _, _, z_lo, z_hi = f.support_box()
    r_a = np.linspace(R, 2.0 * R, n + 1)
    r_a = 0.5 * (r_a[1:] + r_a[:-1])
    z = np.linspace(z_lo, z_hi, n + 1)
    z = 0.5 * (z[1:] + z[:-1])
    dz = (z_hi - z_lo) / n
    r2d, z2d = np.meshgrid(r_a, z, indexing="ij")
    diff = np.abs(f.value(r2d, z2d) - f.value(2.0 * r2d, z2d))
    num = np.sum(diff * r2d**gamma) * (R / n) * dz
    r_b = np.linspace(R, 4.0 * R, 2 * n + 1)
    r_b = 0.5 * (r_b[1:] + r_b[:-1])
    r2d, z2d = np.meshgrid(r_b, z, indexing="ij")
    gr, gz = f.gradient(r2d, z2d)
    den = np.sum(np.hypot(gr, gz) * r2d ** (gamma + 1.0)) * (3.0 * R / (2 * n)) * dz
    return 0.0 if den == 0.0 else float(num / den)


def test_hardy_ratio_matches_the_full_strips(monkeypatch):
    # f is exactly 0 off its support box, so dropping the rows where neither
    # f(r, z) nor f(2r, z) can be nonzero drops only zeros from the sums: the
    # ratios move by the regrouping of the summation alone
    n = 64
    specs = random_test_functions(300, rng_seed=3)
    cases = [(f, gamma, R) for f in specs for gamma in (0.0, 0.5) for R in (0.5, 1.0, 2.0)]
    want = [_full_strip_hardy_ratio(f, gamma, R, n) for f, gamma, R in cases]
    points = []
    sample = FnSpec._sample

    def counted(self, r, z, with_gradient):
        points[-1] += np.broadcast(r, z).size
        return sample(self, r, z, with_gradient)

    monkeypatch.setattr(FnSpec, "_sample", counted)
    early = 0
    for (f, gamma, R), w in zip(cases, want):
        points.append(0)
        got = hardy_ratio(f, gamma, R=R, n=n)
        assert abs(got - w) <= 1e-13 * abs(w), (f, gamma, R)
        # at most the support rows: two values on each numerator row where r
        # or 2r meets the support box, one gradient on each such row of B
        r_lo, r_hi = f.support_box()[:2]

        def meets(r):
            return (r >= r_lo - 1e-12) & (r <= r_hi + 1e-12)

        r_a = R * (1.0 + (np.arange(n) + 0.5) / n)
        r_b = R * (1.0 + 3.0 * (np.arange(2 * n) + 0.5) / (2 * n))
        rows_b = np.count_nonzero(meets(r_b))
        assert points[-1] <= (2 * np.count_nonzero(meets(r_a) | meets(2.0 * r_a)) + rows_b) * n
        if rows_b == 0:  # the support misses strip B: nothing is evaluated
            assert points[-1] == 0 and got == 0.0
            early += 1
    assert 0 < early < len(cases)
    assert sum(points) < 0.5 * len(cases) * 4 * n * n  # the full strips: 4 n^2 points a ratio


def _joint_mask_poly(spec, r, z):
    # the poly bump as one 2-D evaluation under the joint mask
    p, a = spec.params, spec.params["amplitude"]
    lr, lz = p["r_hi"] - p["r_lo"], p["z_hi"] - p["z_lo"]
    ur, uz = (r - p["r_lo"]) / lr, (z - p["z_lo"]) / lz
    inside = (ur > 0.0) & (ur < 1.0) & (uz > 0.0) & (uz < 1.0)
    ur, uz = np.where(inside, ur, 0.0), np.where(inside, uz, 0.0)
    pr, pz = 16.0 * ur**2 * (1.0 - ur) ** 2, 16.0 * uz**2 * (1.0 - uz) ** 2
    dpr = 16.0 * (2.0 * ur * (1.0 - ur) ** 2 - 2.0 * ur**2 * (1.0 - ur)) / lr
    dpz = 16.0 * (2.0 * uz * (1.0 - uz) ** 2 - 2.0 * uz**2 * (1.0 - uz)) / lz
    return a * pr * pz, a * dpr * pz, a * pr * dpz


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_broadcast_evaluation_is_byte_identical():
    # (m, 1) x (1, n) axes give the bytes of the meshgrid evaluation, signed
    # zeros included, inside and outside the support box
    negative = FnSpec("poly_bump", {"r_lo": 0.5, "r_hi": 2.0, "z_lo": -0.5, "z_hi": 1.0,
                                    "amplitude": -1.5})
    for s in [*MEMBERS, negative, *random_test_functions(30, rng_seed=7)]:
        r_lo, r_hi, z_lo, z_hi = s.support_box()
        r = np.linspace(max(r_lo - 0.3, 0.01), r_hi + 0.3, 47)
        z = np.linspace(z_lo - 0.3, z_hi + 0.3, 53)
        r2d, z2d = np.meshgrid(r, z, indexing="ij")
        grid = s.evaluate(r2d, z2d)
        axes = s.evaluate(r[:, None], z[None, :])
        assert all(_same_bits(a, b) for a, b in zip(axes, grid))
        assert _same_bits(s.value(r[:, None], z[None, :]), grid[0])
        assert np.any(grid[0] == 0.0) and np.any(grid[0] != 0.0)
        if s.family == "poly_bump":
            assert all(_same_bits(a, b) for a, b in zip(grid, _joint_mask_poly(s, r2d, z2d)))
    assert np.any(np.signbit(negative.evaluate(r2d, z2d)[1]))


def _meshgrid_sample_support(spec, n):
    # the support sample on an n x n meshgrid of the quadrature nodes
    r_lo, r_hi, z_lo, z_hi = spec.support_box()
    r_lo = max(r_lo, 0.0)
    hr, hz = (r_hi - r_lo) / n, (z_hi - z_lo) / n
    r2d, z2d = np.meshgrid(r_lo + (np.arange(n) + 0.5) * hr, z_lo + (np.arange(n) + 0.5) * hz,
                           indexing="ij")
    f, f_r, f_z = spec.evaluate(r2d, z2d)
    return test_functions.SupportSample(r2d, hr * hz, np.abs(f), np.hypot(f_r, f_z))


def test_ratios_on_broadcast_axes_equal_the_meshgrid_ratios(monkeypatch):
    n = 64
    specs = random_test_functions(90, rng_seed=3)
    s, t, alpha, beta = sobolev_tuple(2.0)
    ratios = (lambda f: weighted_sobolev_ratio(f, s, t, alpha, beta, n=n),
              lambda f: interpolation_ratio(f, 1.8, n=n),
              lambda f: nash_ratio(f, n=n))
    got = [[ratio(f) for f in specs] for ratio in ratios]
    monkeypatch.setattr(inequalities, "sample_support", _meshgrid_sample_support)
    assert got == [[ratio(f) for f in specs] for ratio in ratios]


def test_random_test_functions_reproducible():
    a = random_test_functions(16, rng_seed=11)
    b = random_test_functions(16, rng_seed=11)
    assert len(a) == 16
    assert all(x == y for x, y in zip(a, b))
    families = {s.family for s in a}
    assert families <= {"gaussian_bump", "ring_bump", "poly_bump"}
    assert all(s.support_box()[0] > 0.0 for s in a)  # clear of the axis


def test_run_suite_reports():
    rep = run_suite("sobolev", p=1.5, seed=2, sample_count=6, quadrature_n=64)
    assert rep["suite"] == "sobolev" and rep["samples"] == 6
    assert np.isfinite(rep["empirical_sup"]) and rep["empirical_sup"] > 0.0
    assert {"s", "t", "alpha", "beta", "family"} <= set(rep["argmax_params"])
    rep = run_suite("interp", seed=2, sample_count=6, quadrature_n=64)
    assert rep["argmax_params"]["lambda"] == interpolation_lambda(1.8)
    rep = run_suite("nash", seed=2, sample_count=6, quadrature_n=64)
    assert rep["p"] is None and rep["empirical_sup"] < 1.0
    rep = run_suite("hardy", p=0.5, seed=2, sample_count=6, quadrature_n=64)
    assert rep["argmax_params"]["gamma"] == 0.5
    rep = run_suite("ap", p=1.2, seed=2, sample_count=10_000)
    assert rep["suite"] == "ap" and rep["samples"] == 10_000
    with pytest.raises(ValueError):
        run_suite("unknown")
    with pytest.raises(ValueError):
        run_suite("nash", sample_count=0)
