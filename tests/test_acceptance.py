"""Acceptance suite: every gate criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or on failure).
Heavy Monte Carlo runs are shared through module-scoped fixtures; every run
is seeded, so outcomes are reproducible bit for bit.

Criterion 9a checks the Rogers-Shepp integral against an independent
high-precision reference (tests/references.py), not against the circulated
target 26.1677: that value matches a truncated evaluation of the integral,
not the integral itself (see limits.rogers_shepp_second_moment).  Its report
line still shows the circulated target and the gap to it.
"""

import math
import os

import numpy as np
import pytest

from hullwalk import geom2d
from hullwalk import hullstream as hs
from hullwalk import limits as lm
from hullwalk import montecarlo as mc
from hullwalk import walkgen as w
from references import RS_SECOND_MOMENT

SEED = 20260810

TWO_MU = 0.4  # 2 |mu| for the drift-0.2 Pearson-Rayleigh walk


def _report(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


def _stat(ests, name):
    return next(e for e in ests if e.statistic == name)


# ---------------------------------------------------------------------------
# shared heavy runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def drift_run_1e4():
    """Pearson-Rayleigh drift 0.2, n = 1e4, R = 1e4 (criteria 3 and 10)."""
    model = w.PearsonRayleigh((0.2, 0.0))
    return mc.estimate(model, 10**4, hs.CheckpointSchedule.explicit([10**4]), 10**4, SEED)


@pytest.fixture(scope="module")
def zero_run_1e4():
    """Pearson-Rayleigh zero drift, n = 1e4, R = 1e4 (criterion 10)."""
    return mc.estimate(
        w.PearsonRayleigh(), 10**4, hs.CheckpointSchedule.explicit([10**4]), 10**4, SEED + 1
    )


@pytest.fixture(scope="module")
def zero_run_1e5():
    """Pearson-Rayleigh zero drift, n = 1e5, R = 1e3 (criteria 5 and 6)."""
    return mc.estimate(
        w.PearsonRayleigh(), 10**5, hs.CheckpointSchedule.explicit([10**5]), 1000, SEED + 3
    )


@pytest.fixture(scope="module")
def brownian_run():
    """Brownian constants at grid 2^17, R = 2e3 (criterion 8)."""
    return lm.brownian_constant_estimates(2**17, 2000, SEED + 5)


# ---------------------------------------------------------------------------
# criterion 1: exact-oracle suite (fast)
# ---------------------------------------------------------------------------


def test_acceptance_01_exact_oracles():
    # Spitzer-Widom and the area double sum against enumeration, to 1e-9
    for model in (w.LatticeSRW(), w.Hex6()):
        norm_means = mc.exact_norm_means(model, 6)
        tmean = lambda m, k: mc.exact_triangle_mean(model, m, k)
        for n in range(1, 7):
            ex = mc.enumerate_exact(model, n)
            assert abs(lm.sw_expected_perimeter(norm_means[:n]) - ex.EL) < 1e-9
            if n >= 2:
                assert abs(lm.bnb_expected_area(tmean, n) - ex.EA) < 1e-9

    # resampling martingale decomposition, exact to 1e-12 for n <= 4
    for model in (w.LatticeSRW(), w.SpacetimeBinary()):
        for n in range(1, 5):
            chk = mc.martingale_decomposition_check(model, n)
            assert abs(chk.lhs - chk.rhs) < 1e-12
    for n in range(1, 5):
        chk = mc.martingale_decomposition_check(w.Hex6(), n)
        assert abs(chk.lhs - chk.rhs) < 1e-12

    # Kac/Hunt expected-maximum identity to 1e-12 for n <= 12
    def plus_mean(k):
        return sum((2 * j - k) * math.comb(k, j) for j in range(k // 2 + 1, k + 1)) / 2**k

    plus_means = [plus_mean(k) for k in range(1, 13)]
    for n in range(1, 13):
        total = 0.0
        for bits in range(1 << n):
            t, m_run = 0, 0
            for i in range(n):
                t += 1 if (bits >> i) & 1 else -1
                m_run = max(m_run, t)
            total += m_run
        direct = total / (1 << n)
        assert abs(lm.kac_expected_max(plus_means[:n]) - direct) < 1e-12

    # Cauchy quadrature vs the hull perimeter on 1000 random point sets
    rng = np.random.default_rng(SEED)
    for i in range(1000):
        m = int(rng.integers(1, 101))
        pts = rng.standard_normal((m, 2)) * rng.uniform(0.5, 20.0)
        v = geom2d.convex_hull(pts).vertices
        diameter = float(np.hypot(*np.moveaxis(v[:, None, :] - v[None, :, :], 2, 0)).max())
        tol = (10.0 / 4096) * max(diameter, 1e-9)
        assert abs(hs._functionals_from_vertices(v)[0] - geom2d.cauchy_perimeter(pts, 4096)) <= tol

    _report(1, True, "enumeration, martingale, Kac, and Cauchy oracles all agree")


# ---------------------------------------------------------------------------
# criteria 2-7: walk asymptotics at spec sizes
# ---------------------------------------------------------------------------


def test_acceptance_02_drift_perimeter_mean():
    ests = mc.estimate(
        w.PearsonRayleigh((0.2, 0.0)), 10**4, hs.CheckpointSchedule.explicit([10**4]), 1000, SEED + 7
    )
    value = _stat(ests, "meanL").value / 10**4
    ok = abs(value - TWO_MU) <= 0.02 * TWO_MU
    _report(2, ok, f"mean L_n/n = {value:.4f} vs {TWO_MU} (2% band)")
    assert ok


def test_acceptance_03_drift_perimeter_variance(drift_run_1e4):
    value = _stat(drift_run_1e4, "varL").value / 10**4
    ok = abs(value - 2.0) <= 0.10 * 2.0
    _report(3, ok, f"var L_n/n = {value:.4f} vs 2 (10% band)")
    assert ok


def test_acceptance_04_clt():
    res = mc.clt_test(w.PearsonRayleigh((0.2, 0.0)), 5 * 10**3, 10**4, SEED + 2)
    bound = 1.5 * 1.36 / math.sqrt(10**4)
    ok = res.D < bound and res.passed
    _report(4, ok, f"KS distance {res.D:.5f} < {bound:.5f} under sqrt(4 sigma2_mu n) scaling")
    assert ok


def test_acceptance_05_zero_drift_perimeter_mean(zero_run_1e5):
    target = 2.0 * math.sqrt(math.pi)
    value = _stat(zero_run_1e5, "meanL").value / math.sqrt(10**5)
    ok = abs(value - target) <= 0.05 * target
    _report(5, ok, f"mean L_n/sqrt(n) = {value:.4f} vs {target:.4f} (5% band)")
    assert ok


def test_acceptance_06_zero_drift_area_mean(zero_run_1e5):
    target = math.pi / 4.0
    value = _stat(zero_run_1e5, "meanA").value / 10**5
    ok = abs(value - target) <= 0.05 * target
    _report(6, ok, f"mean A_n/n = {value:.4f} vs {target:.4f} (5% band)")
    assert ok


def test_acceptance_07_drift_area_mean():
    ests = mc.estimate(
        w.PearsonRayleigh((0.4, 0.0)), 10**5, hs.CheckpointSchedule.explicit([10**5]), 1000, SEED + 4
    )
    target = 0.4 * math.sqrt(math.pi) / 3.0  # 0.23633
    value = _stat(ests, "meanA").value / (10**5) ** 1.5
    ok = abs(value - target) <= 0.10 * target
    _report(7, ok, f"mean A_n/n^1.5 = {value:.5f} vs {target:.5f} (10% band)")
    assert ok


# ---------------------------------------------------------------------------
# criterion 8: Brownian hull constants
# ---------------------------------------------------------------------------


def test_acceptance_08_brownian_constants(brownian_run):
    c = brownian_run
    checks = [
        ("E_l1", math.sqrt(8 * math.pi), 0.02),
        ("E_a1", math.pi / 2, 0.03),
        ("E_at1", math.sqrt(2 * math.pi) / 3, 0.03),
        ("E_r1_sq", 4 * math.log(2), 0.03),
    ]
    details = []
    ok = True
    for key, target, tol in checks:
        value = c[key].value
        good = abs(value - target) <= tol * target
        ok &= good
        details.append(f"{key}={value:.4f} ({'ok' if good else 'off'})")
    for key, (lo, hi) in (
        ("var_l1", lm.u0_bounds(2.0, identity=True)),
        ("var_a1", lm.v0_bounds()),
        ("var_at1", lm.vplus_bounds()),
    ):
        good = lo <= c[key].value <= hi
        ok &= good
        details.append(f"{key}={c[key].value:.4g} in [{lo:.3g}, {hi:.3g}] ({'ok' if good else 'off'})")
    _report(8, ok, "; ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# criterion 9: quadrature constants
# ---------------------------------------------------------------------------


def test_acceptance_09a_rogers_shepp_target():
    """E[l_1^2] and Var l_1 within 0.01 of the independent reference.

    The reference is an mpmath quadrature of the same double integral
    (26.20906, so Var l_1 = 1.07632); the suprema-product integrand also
    reproduces its three exactly known values c(0) = 2/pi, c(1) = 1 and
    c(-1) = 2 log 2 - 1.  The circulated target 26.1677 (Var l_1 = 1.0350)
    is the same integral with the inner u-integral cut off near u = 500
    (mpmath gives 26.1598 at u = 420 and reaches 26.1677 at u = 499.8), so it
    is reported next to the result but not asserted.
    """
    value = lm.rogers_shepp_second_moment()
    var_l1 = value - 8 * math.pi
    ref_var = RS_SECOND_MOMENT - 8 * math.pi
    ok = abs(value - RS_SECOND_MOMENT) <= 0.01 and abs(var_l1 - ref_var) <= 0.01
    _report(
        "9a",
        ok,
        f"E[l_1^2] = {value:.4f} vs reference {RS_SECOND_MOMENT:.5f} +- 0.01; "
        f"Var l_1 = {var_l1:.4f} vs {ref_var:.5f}; circulated 26.1677 / 1.0350 "
        f"(truncated integral) is off by {value - 26.1677:+.4f} / {var_l1 - 1.0350:+.4f}",
    )
    assert ok


def test_acceptance_09b_goldman_and_pi_sum():
    gv = lm.goldman_bridge_variance()
    ok_g = abs(gv - 0.3476) <= 1e-3  # quoted alongside the formula: 0.34755
    ps = lm.partial_sum_pi(10**6)
    ok_p = abs(ps - math.pi) <= 0.005
    # the derived variance lies inside the rigorous u0 bounds
    lo, hi = lm.u0_bounds(2.0, identity=True)
    ok_b = lo <= lm.rogers_shepp_var_l1() <= hi
    ok = ok_g and ok_p and ok_b
    _report(
        "9b",
        ok,
        f"goldman = {gv:.6f} (0.34755 noted); partial_sum_pi(1e6) = {ps:.6f}; var l1 within u0 bounds",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 10: simulation-vs-simulation variance scalings
# ---------------------------------------------------------------------------


def test_acceptance_10_variance_constants(drift_run_1e4, zero_run_1e4):
    # These reference numbers are themselves Monte Carlo estimates (at larger
    # n than is run here), hence the wide 15% band.
    n = 10**4
    u0 = 2.0 * _stat(zero_run_1e4, "varL").value / n  # u0(I) = 2 u0(I/2)
    v0 = 4.0 * _stat(zero_run_1e4, "varA").value / n**2  # det Sigma = 1/4
    vp = _stat(drift_run_1e4, "varA").value / (n**3 * 0.2**2 * 0.5)
    ok_u = abs(u0 - 1.08) <= 0.15 * 1.08
    ok_v0 = abs(v0 - 0.30) <= 0.15 * 0.30
    ok_vp = abs(vp - 0.019) <= 0.15 * 0.019
    ok = ok_u and ok_v0 and ok_vp
    _report(
        10,
        ok,
        f"u0 = {u0:.4f} vs 1.08 ({'ok' if ok_u else 'off'}); "
        f"v0 = {v0:.4f} vs 0.30 ({'ok' if ok_v0 else 'off'}); "
        f"v+ = {vp:.5f} vs 0.019 ({'ok' if ok_vp else 'off'})",
    )
    assert ok


# ---------------------------------------------------------------------------
# criterion 11: property suites, runnable standalone
# ---------------------------------------------------------------------------


def test_acceptance_11_property_suites(monkeypatch, pool_sizes):
    # geometry invariants: idempotence, monotonicity, scaling
    rng = np.random.default_rng(SEED + 11)
    for _ in range(50):
        pts = rng.standard_normal((40, 2)) * 5.0
        poly = geom2d.convex_hull(pts)
        assert np.array_equal(geom2d.convex_hull(poly.vertices).vertices, poly.vertices)
        L, A, _ = hs._functionals_from_vertices(poly.vertices)
        bigger = geom2d.convex_hull(np.vstack([pts, rng.standard_normal((5, 2)) * 5.0]))
        L_bigger, A_bigger, _ = hs._functionals_from_vertices(bigger.vertices)
        assert L_bigger >= L - 1e-9
        assert A_bigger >= A - 1e-9
        L_scaled, A_scaled, _ = hs._functionals_from_vertices(geom2d.convex_hull(pts * 3.0).vertices)
        assert math.isclose(L_scaled, 3.0 * L, rel_tol=1e-9)
        assert math.isclose(A_scaled, 9.0 * A, rel_tol=1e-9)

    # series monotonicity on every model
    sched = hs.CheckpointSchedule.geometric(2, 1.5)
    for spec in ("lattice", "hex6", "pr", "pr:0.2,0", "gauss", "st-binary", "st-gauss", "pareto:1.5"):
        model = w.parse_model(spec)
        for i in range(5):
            s = hs.functional_series(w.sample_path(model, 400, w.RngStream(SEED + 12, i).generator()), sched)
            for arr in (s.L, s.A, s.r):
                assert np.all(np.diff(arr) >= -1e-9 * np.maximum(arr[:-1], 1.0))

    # determinism under varying thread counts: 192 x 1001 positions are two
    # workers' worth, so the second run goes through a pool
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 2)
    pools_before = len(pool_sizes)
    runs = []
    for threads in ("1", "2"):
        monkeypatch.setenv(mc.THREADS_ENV_VAR, threads)
        runs.append(
            mc.estimate(w.PearsonRayleigh((0.2, 0.0)), 1000, sched, 192, SEED + 13)
        )
    monkeypatch.delenv(mc.THREADS_ENV_VAR)
    assert pool_sizes[pools_before:] == [2]
    assert runs[0] == runs[1]

    # Snyder-Steele bound never violated beyond five standard errors
    for spec in ("lattice", "hex6", "pr", "pr:0.2,0", "gauss", "st-binary", "st-gauss"):
        model = w.parse_model(spec)
        sigma2 = model.moments().sigma2
        for e in mc.estimate(model, 2000, hs.CheckpointSchedule.geometric(50, 3.0), 300, SEED + 14):
            if e.statistic == "varL":
                assert e.value <= (math.pi**2 / 2) * sigma2 * e.n + 5 * e.std_error

    _report(11, True, "geometry, monotonicity, thread determinism, Snyder-Steele all hold")


# ---------------------------------------------------------------------------
# criterion 12: degenerate experiment (report-only)
# ---------------------------------------------------------------------------


def test_acceptance_12_degenerate_log_variance_report():
    checkpoints = [100, 1000, 10000, 100000]
    ests = mc.estimate(
        w.SpacetimeBinary(), 10**5, hs.CheckpointSchedule.explicit(checkpoints), 2000, SEED + 6
    )
    var_by_n = {e.n: e.value for e in ests if e.statistic == "varL"}
    xs = np.log(np.asarray(checkpoints, dtype=float))
    ys = np.array([var_by_n[n] for n in checkpoints])
    slope = float(np.polyfit(xs, ys, 1)[0])
    _report(
        12,
        True,
        f"Var L_n vs log n slope = {slope:.4f} (reference figure slope 0.6612; report only); "
        f"Var L_n at n = {checkpoints}: {np.round(ys, 3).tolist()}",
    )
    # report-only: no tolerance is asserted, but the experiment must produce
    # finite, increasing variances for the log-growth question to make sense
    assert np.isfinite(ys).all() and np.all(np.diff(ys) > 0)
