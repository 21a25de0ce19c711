"""Monte Carlo engine: determinism, estimates, KS/CLT, enumeration oracles."""

import math
import os

import numpy as np
import pytest
from scipy.special import ndtr

from hullwalk import geom2d as g
from hullwalk import montecarlo as mc
from hullwalk import walkgen as w
from hullwalk.errors import (
    DegenerateDriftError,
    InvalidReplicatesError,
    NotFiniteSupportError,
    SupportTooLargeError,
    TooFewSamplesError,
    ZeroDriftError,
)
from hullwalk.hullstream import CheckpointSchedule

FINITE_VARIANCE_SPECS = ["lattice", "hex6", "pr", "pr:0.2,0", "gauss", "st-binary", "st-gauss"]


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def test_estimate_perimeter_at_one_step_is_two():
    # L_1 = 2 |Z_1| = 2 for unit steps, so the estimate is exact with zero spread
    ests = mc.estimate(w.LatticeSRW(), 1, CheckpointSchedule.explicit([1]), 50, 0)
    d = {e.statistic: e for e in ests}
    assert d["meanL"].value == 2.0 and d["meanL"].std_error == 0.0
    assert d["varL"].value == 0.0
    assert d["meanA"].value == 0.0


def test_estimate_requires_two_replicates():
    with pytest.raises(InvalidReplicatesError):
        mc.estimate(w.LatticeSRW(), 5, CheckpointSchedule.explicit([5]), 1, 0)


def test_estimate_repeat_runs_identical():
    sched = CheckpointSchedule.geometric(5, 1.6)
    a = mc.estimate(w.PearsonRayleigh((0.2, 0.0)), 300, sched, 200, 99)
    b = mc.estimate(w.PearsonRayleigh((0.2, 0.0)), 300, sched, 200, 99)
    assert a == b


def test_estimate_independent_of_worker_count(monkeypatch):
    sched = CheckpointSchedule.geometric(10, 2.0)
    results = []
    for threads in ("1", "2", "3"):
        monkeypatch.setenv(mc.THREADS_ENV_VAR, threads)
        results.append(mc.estimate(w.Gaussian(), 400, sched, 192, 5))
    assert results[0] == results[1] == results[2]


def test_worker_count_capped_at_cpu_count(monkeypatch):
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 2)
    monkeypatch.setenv(mc.THREADS_ENV_VAR, "4096")
    assert mc.worker_count() == 2
    monkeypatch.setenv(mc.THREADS_ENV_VAR, "1")
    assert mc.worker_count() == 1
    monkeypatch.delenv(mc.THREADS_ENV_VAR)
    assert mc.worker_count() == 2
    monkeypatch.setattr(mc.os, "cpu_count", lambda: None)
    assert mc.worker_count() == 1
    monkeypatch.setenv(mc.THREADS_ENV_VAR, "0")
    with pytest.raises(ValueError):
        mc.worker_count()


def test_estimate_drift_perimeter_rate():
    # mean L_n / n approaches 2|mu| = 0.4; at n = 1e4 the remaining upward
    # finite-n excess is under one percent, well inside the two-percent band
    ests = mc.estimate(w.PearsonRayleigh((0.2, 0.0)), 10**4, CheckpointSchedule.explicit([10**4]), 1000, 42)
    mean_l = next(e for e in ests if e.statistic == "meanL")
    assert abs(mean_l.value / 10**4 - 0.40) <= 0.02 * 0.40


def test_jensen_consistency_and_se_sign():
    for spec in FINITE_VARIANCE_SPECS:
        ests = mc.estimate(w.parse_model(spec), 200, CheckpointSchedule.explicit([200]), 100, 11)
        for e in ests:
            assert e.std_error >= 0.0
        var_l = next(e for e in ests if e.statistic == "varL")
        assert var_l.value >= 0.0  # mean of L^2 dominates (mean L)^2


def test_snyder_steele_bound_across_models():
    # Var L_n never exceeds (pi^2/2) sigma^2 n beyond five standard errors
    sched = CheckpointSchedule.geometric(10, 2.5)
    for spec in FINITE_VARIANCE_SPECS:
        model = w.parse_model(spec)
        sigma2 = model.moments().sigma2
        ests = mc.estimate(model, 2000, sched, 400, 21)
        for e in ests:
            if e.statistic == "varL":
                assert e.value <= (math.pi**2 / 2) * sigma2 * e.n + 5 * e.std_error


# ---------------------------------------------------------------------------
# collect_samples
# ---------------------------------------------------------------------------


def test_collect_samples_single():
    s = mc.collect_samples(w.LatticeSRW(), 10, 1, 3, "L")
    assert s.shape == (1,)


def test_collect_samples_disjoint_seeds_uncorrelated():
    r = 2000
    a = mc.collect_samples(w.PearsonRayleigh(), 100, r, 1, "L")
    b = mc.collect_samples(w.PearsonRayleigh(), 100, r, 2, "L")
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 5 / math.sqrt(r)


def test_collect_samples_spacetime_gaussian_area():
    # E A_2 = E |N(0, 2)| / 2 = 1/sqrt(pi), an exact two-step identity
    s = mc.collect_samples(w.SpacetimeGaussian(), 2, 4000, 8, "A")
    se = s.std(ddof=1) / math.sqrt(len(s))
    assert abs(s.mean() - 1 / math.sqrt(math.pi)) <= 3 * se


# ---------------------------------------------------------------------------
# KS statistic and the CLT gate
# ---------------------------------------------------------------------------


def test_ks_statistic_hand_value():
    assert mc.ks_statistic(np.array([0.25, 0.5, 0.75]), lambda x: x) == 0.25


def test_ks_statistic_constant_sample():
    d = mc.ks_statistic(np.zeros(10), ndtr)
    assert d >= 0.5


def test_ks_statistic_needs_two_samples():
    with pytest.raises(TooFewSamplesError):
        mc.ks_statistic(np.array([1.0]), lambda x: x)


def test_ks_statistic_needs_a_vectorised_cdf():
    with pytest.raises(ValueError, match="shape"):
        mc.ks_statistic(np.array([0.25, 0.5, 0.75]), lambda x: 0.5)


def test_ks_calibration_under_the_null():
    # frozen calibration run: uniform samples against the uniform cdf pass
    # the 5% threshold in 96 of 100 streams at m = 1e4
    m, passes = 10**4, 0
    for seed in range(100):
        u = w.RngStream(1234, seed).generator().random(m)
        if mc.ks_statistic(u, lambda x: x) < mc.ks_threshold(m):
            passes += 1
    assert passes >= 94


def test_clt_test_errors():
    with pytest.raises(DegenerateDriftError):
        mc.clt_test(w.SpacetimeBinary(), 100, 100, 0)
    with pytest.raises(ZeroDriftError):
        mc.clt_test(w.PearsonRayleigh(), 100, 100, 0)
    with pytest.raises(ZeroDriftError):
        mc.clt_test(w.ParetoDirection(alpha=1.5), 100, 100, 0)


def test_clt_test_passes_for_drifted_walk():
    res = mc.clt_test(w.PearsonRayleigh((0.2, 0.0)), 2000, 2000, 1)
    assert res.passed and res.D < res.threshold == mc.ks_threshold(2000)


# ---------------------------------------------------------------------------
# enumeration oracles
# ---------------------------------------------------------------------------


def test_enumerate_exact_lattice_two_steps():
    ex = mc.enumerate_exact(w.LatticeSRW(), 2)
    assert abs(ex.EL - (2.5 + math.sqrt(2) / 2)) < 1e-12
    assert abs(ex.EA - 0.25) < 1e-15


def test_enumerate_exact_trivial_and_errors():
    assert mc.enumerate_exact(w.LatticeSRW(), 0) == mc.ExactMoments(0.0, 0.0, 0.0)
    with pytest.raises(NotFiniteSupportError):
        mc.enumerate_exact(w.PearsonRayleigh(), 2)
    with pytest.raises(SupportTooLargeError):
        mc.enumerate_exact(w.Hex6(), 10)


def test_martingale_decomposition_exact():
    for model, n in ((w.LatticeSRW(), 2), (w.Hex6(), 3), (w.SpacetimeBinary(), 6)):
        chk = mc.martingale_decomposition_check(model, n)
        assert abs(chk.lhs - chk.rhs) < 1e-12


def test_martingale_check_carries_enumeration_moments():
    for model, n in ((w.LatticeSRW(), 4), (w.Hex6(), 3), (w.SpacetimeBinary(), 0)):
        chk = mc.martingale_decomposition_check(model, n)
        assert chk.moments == mc.enumerate_exact(model, n)
        assert chk.lhs == chk.moments.VarL


# (EL, VarL, EA, martingale rhs), recorded from the enumeration before the hull
# functionals moved to geom2d's kernel, and again (hex6 7, st-binary 12) before
# the per-path DFS gave way to the batched hull; the enumeration must
# reproduce every bit.
PINNED_EXACT = {
    ("lattice", 6): (6.670903358694336, 2.51780590175418, 2.017578125, 2.5178059017541954),
    ("hex6", 5): (6.793764141028925, 3.046138474780436, 1.8425925925925903, 3.046138474780353),
    ("hex6", 7): (8.38600710543442, 4.584414445818678, 3.0430384087791587, 4.584414445818847),
    ("st-binary", 12): (26.696608333866898, 1.3251393678660595, 23.71875, 1.3251393678660572),
}


@pytest.mark.parametrize("spec, n", sorted(PINNED_EXACT))
def test_exact_enumeration_bit_identical(spec, n):
    model = w.parse_model(spec)
    ex = mc.enumerate_exact(model, n)
    chk = mc.martingale_decomposition_check(model, n)
    assert (ex.EL, ex.VarL, ex.EA, chk.rhs) == PINNED_EXACT[spec, n]


def _dfs_functionals(model, n: int) -> tuple[np.ndarray, np.ndarray]:
    """L and A of every step sequence, one scalar hull per path, in enumeration order."""
    steps = [(float(x), float(y)) for x, y in model.support()[0]]
    out = []

    def dfs(positions):
        if len(positions) == n + 1:
            out.append(g._perimeter_area(g._hull(positions, 0.0)))
            return
        x, y = positions[-1]
        for dx, dy in steps:
            dfs([*positions, (x + dx, y + dy)])

    dfs([(0.0, 0.0)])
    L, A = np.array(out).T
    return L, A


@pytest.mark.parametrize(
    "spec, n",
    [("lattice", n) for n in range(8)] + [("hex6", n) for n in range(6)] + [("st-binary", n) for n in range(11)],
)
def test_enumeration_matches_scalar_dfs(spec, n):
    # lattice 7 and hex6 5 span several chunks, the last one partial
    model = w.parse_model(spec)
    L, A, p = mc._enumerate_functionals(model, n)
    L_ref, A_ref = _dfs_functionals(model, n)
    assert np.array_equal(L, L_ref) and np.array_equal(A, A_ref)
    assert p.tolist() == model.support()[1].tolist()


def test_enumeration_refuses_non_integer_steps():
    class HalfSteps(w._FiniteSupport):
        name = "half-steps"
        steps = w._step_table([[0.5, 0], [-0.5, 0]])

    with pytest.raises(ValueError, match="integer steps"):
        mc._enumerate_functionals(HalfSteps(), 3)
    with pytest.raises(ValueError, match="integer steps"):
        mc.martingale_decomposition_check(HalfSteps(), 3)


def test_martingale_single_step_trivial():
    # D_1 = L_1 - E L_1, so both sides are Var L_1 by construction
    chk = mc.martingale_decomposition_check(w.Hex6(), 1)
    ex = mc.enumerate_exact(w.Hex6(), 1)
    assert abs(chk.lhs - ex.VarL) < 1e-14
    assert abs(chk.lhs - chk.rhs) < 1e-14


def test_martingale_budget():
    with pytest.raises(SupportTooLargeError):
        mc.martingale_decomposition_check(w.Hex6(), 9)


def test_exact_position_distributions():
    means = mc.exact_norm_means(w.LatticeSRW(), 2)
    assert means[0] == 1.0
    assert abs(means[1] - (0.5 + math.sqrt(2) / 2)) < 1e-15
    assert abs(mc.exact_triangle_mean(w.LatticeSRW(), 1, 2) - 0.25) < 1e-15


def test_norm_mean_estimates_match_exact():
    means, ses = mc.norm_mean_estimates(w.LatticeSRW(), [1, 2, 4], 4000, 17)
    exact = mc.exact_norm_means(w.LatticeSRW(), 4)
    for got, se, k in zip(means, ses, (1, 2, 4)):
        assert abs(got - exact[k - 1]) <= 4 * se + 1e-12


# ---------------------------------------------------------------------------
# law of large numbers (slow)
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_lln_drift_error_decreases_with_n():
    # |mean L_n / n - 2|mu|| shrinks across three decades for nearly all seeds
    model = w.PearsonRayleigh((0.2, 0.0))
    good = 0
    seeds = range(10)
    for seed in seeds:
        errs = []
        for n in (10**3, 10**4, 10**5):
            ests = mc.estimate(model, n, CheckpointSchedule.explicit([n]), 200, 9000 + seed)
            mean_l = next(e for e in ests if e.statistic == "meanL")
            errs.append(abs(mean_l.value / n - 0.4))
        if errs[0] > errs[1] > errs[2]:
            good += 1
    assert good >= 9
