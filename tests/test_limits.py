"""Limit formulas, bounds, quadrature constants, and verdict assembly.

Frozen oracle values in this file were computed with independent tools:
high-precision quadrature (mpmath) for Si(pi) and the suprema-product double
integral, binomial sums for the one-dimensional walk identities, and direct
path enumeration for the lattice models.
"""

import math

import numpy as np
import pytest

from hullwalk import limits as lm
from hullwalk import montecarlo as mc
from hullwalk import walkgen as w
from hullwalk.errors import (
    EmptyInputError,
    InfiniteVarianceError,
    MismatchedQuantitiesError,
    NotPSDError,
)
from references import RS_SECOND_MOMENT

# independent high-precision references (mpmath, 25 digits)
SI_PI = 1.851937051982466170361053
PARTIAL_SUM_PI_100 = 2.849313674998606  # direct summation; far from pi at k = 100


# ---------------------------------------------------------------------------
# Spitzer-Widom and Kac identities
# ---------------------------------------------------------------------------


def test_sw_basics():
    assert lm.sw_expected_perimeter([1.0]) == 2.0
    # Gaussian steps with identity covariance: E|S_k| = sqrt(k pi / 2)
    assert math.isclose(lm.sw_expected_perimeter([math.sqrt(math.pi / 2)]), math.sqrt(2 * math.pi))
    with pytest.raises(EmptyInputError):
        lm.sw_expected_perimeter([])


@pytest.mark.parametrize("model", [w.LatticeSRW(), w.Hex6()])
def test_sw_matches_enumeration(model):
    norm_means = mc.exact_norm_means(model, 6)
    for n in range(1, 7):
        sw = lm.sw_expected_perimeter(norm_means[:n])
        ex = mc.enumerate_exact(model, n).EL
        assert abs(sw - ex) < 1e-9


def _pm1_walk_expected_max(n):
    """E max(0, T_1..T_n) for the fair +-1 walk, by full path enumeration."""
    total = 0.0
    for bits in range(1 << n):
        t, m = 0, 0
        for i in range(n):
            t += 1 if (bits >> i) & 1 else -1
            m = max(m, t)
        total += m
    return total / (1 << n)


def _pm1_plus_part_mean(k):
    """E[T_k^+] for the fair +-1 walk, from the binomial distribution."""
    return sum((2 * j - k) * math.comb(k, j) for j in range((k // 2) + 1, k + 1)) / 2**k


def test_kac_basics():
    assert lm.kac_expected_max([0.5]) == 0.5
    assert lm.kac_expected_max([0.5, 0.5]) == 0.75  # equals the 4-path enumeration
    assert _pm1_walk_expected_max(2) == 0.75
    assert lm.kac_expected_max([0.0, 0.0, 0.0]) == 0.0
    with pytest.raises(EmptyInputError):
        lm.kac_expected_max([])


def test_kac_matches_enumeration_up_to_twelve():
    plus_means = [_pm1_plus_part_mean(k) for k in range(1, 13)]
    for n in range(1, 13):
        identity = lm.kac_expected_max(plus_means[:n])
        direct = _pm1_walk_expected_max(n)
        assert abs(identity - direct) < 1e-12


# ---------------------------------------------------------------------------
# area identities
# ---------------------------------------------------------------------------


def test_bnb_lattice_two_steps():
    val = lm.bnb_expected_area(lambda m, k: mc.exact_triangle_mean(w.LatticeSRW(), m, k), 2)
    assert abs(val - 0.25) < 1e-15


@pytest.mark.parametrize("model", [w.LatticeSRW(), w.Hex6()])
def test_bnb_matches_enumeration(model):
    means = lambda m, k: mc.exact_triangle_mean(model, m, k)
    for n in range(2, 7):
        assert abs(lm.bnb_expected_area(means, n) - mc.enumerate_exact(model, n).EA) < 1e-9


def test_gaussian_spacetime_exact_values():
    assert abs(lm.gaussian_spacetime_area_exact(2) - 1 / math.sqrt(math.pi)) < 1e-14
    # n = 2 is the single term of the double sum
    st_means = lambda m, k: 0.5 * math.sqrt(2 * k / math.pi) * math.sqrt(m * (k - m))
    assert math.isclose(lm.gaussian_spacetime_area_exact(2), lm.bnb_expected_area(st_means, 2))
    for n in (5, 17, 60):
        assert math.isclose(
            lm.gaussian_spacetime_area_exact(n), lm.bnb_expected_area(st_means, n), rel_tol=1e-12
        )


def test_gaussian_spacetime_scaling_limit():
    n = 10**4
    limit = math.sqrt(2 * math.pi) / 3
    assert abs(lm.gaussian_spacetime_area_exact(n) / n**1.5 - limit) <= 0.02 * limit


def test_partial_sum_pi():
    assert lm.partial_sum_pi(2) == 1.0
    assert abs(lm.partial_sum_pi(100) - PARTIAL_SUM_PI_100) < 1e-12
    assert abs(lm.partial_sum_pi(10**6) - math.pi) < 0.005
    with pytest.raises(ValueError):
        lm.partial_sum_pi(1)


# ---------------------------------------------------------------------------
# Gaussian norm mean and limit constants
# ---------------------------------------------------------------------------


def test_expected_norm_gaussian_values():
    assert abs(lm.expected_norm_gaussian(np.eye(2)).value - math.sqrt(math.pi / 2)) < 1e-8
    assert abs(lm.expected_norm_gaussian(0.5 * np.eye(2)).value - math.sqrt(math.pi) / 2) < 1e-8
    assert abs(lm.expected_norm_gaussian(np.diag([1.0, 0.0])).value - math.sqrt(2 / math.pi)) < 1e-6
    with pytest.raises(NotPSDError):
        lm.expected_norm_gaussian([[1.0, 2.0], [2.0, 1.0]])


def test_expected_norm_gaussian_bound_sandwich():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = rng.standard_normal((2, 2))
        res = lm.expected_norm_gaussian(a @ a.T)
        assert res.bound_low <= res.value + 1e-9
        assert res.value <= res.bound_high + 1e-9


def test_limit_constants_zero_drift():
    vals = dict(lm.limit_constants(w.PearsonRayleigh().moments()))
    assert abs(vals["4E_norm_Y"] - 2 * math.sqrt(math.pi)) < 1e-7  # simulated slope 3.532
    assert math.isclose(vals["pi_over_2_sqrt_det"], math.pi / 4)
    assert math.isclose(vals["ss_bound"], math.pi**2 / 2)
    assert "2norm_mu" not in vals


def test_limit_constants_with_drift():
    vals = dict(lm.limit_constants(w.PearsonRayleigh((0.36, 0.0)).moments()))
    assert math.isclose(vals["2norm_mu"], 0.72)
    assert math.isclose(vals["4sigma2_mu"], 2.0)
    assert "4E_norm_Y" not in vals
    vals4 = dict(lm.limit_constants(w.PearsonRayleigh((0.4, 0.0)).moments()))
    assert abs(vals4["drift_area_coeff"] - 0.4 * math.sqrt(math.pi) / 3) < 1e-12
    assert abs(vals4["drift_area_coeff"] - 0.2363) < 3e-4


def test_limit_constants_infinite_variance():
    with pytest.raises(InfiniteVarianceError):
        lm.limit_constants(w.ParetoDirection(alpha=1.5).moments())


def test_variance_bounds_numeric():
    lo, hi = lm.u0_bounds(2.0, identity=True)
    assert abs(lo - 2.65e-3) < 5e-5 and abs(hi - math.pi**2) < 1e-12
    lo0, hi0 = lm.v0_bounds()
    assert abs(lo0 - 8.15e-7) < 1e-8
    assert abs(hi0 - (16 * math.log(2) ** 2 - math.pi**2 / 4)) < 1e-12 and abs(hi0 - 5.22) < 5e-3
    lop, hip = lm.vplus_bounds()
    assert abs(lop - 1.44e-6) < 2e-8
    assert abs(hip - (4 * math.log(2) - 2 * math.pi / 9)) < 1e-12 and abs(hip - 2.08) < 6e-3
    assert min(lo, lo0, lop) > 0.0
    with pytest.raises(ValueError):
        lm.u0_bounds(-1.0)


# ---------------------------------------------------------------------------
# quadrature constants
# ---------------------------------------------------------------------------


def test_rogers_shepp_against_high_precision_reference():
    val = lm.rogers_shepp_second_moment()
    assert abs(val - RS_SECOND_MOMENT) < 2e-3
    var_l1 = lm.rogers_shepp_var_l1()
    assert abs(var_l1 - (RS_SECOND_MOMENT - 8 * math.pi)) < 2e-3
    lo, hi = lm.u0_bounds(2.0, identity=True)
    assert lo <= var_l1 <= hi


def test_sine_integral_and_goldman():
    assert abs(lm.sine_integral(math.pi) - SI_PI) < 1e-6
    gv = lm.goldman_bridge_variance()
    assert gv > 0.0
    assert abs(gv - 0.34755) < 1e-3
    # full-precision agreement with the closed form through mpmath's Si
    assert abs(gv - (math.pi**2 / 6) * (2 * math.pi * SI_PI - 2 - 3 * math.pi)) < 1e-9


# ---------------------------------------------------------------------------
# Brownian constant estimates (small smoke; full size in acceptance)
# ---------------------------------------------------------------------------


def test_brownian_constant_estimates_smoke():
    ests = lm.brownian_constant_estimates(grid_n=2**14, replicates=160, master_seed=6)
    assert set(ests) == {
        "E_l1", "var_l1", "E_a1", "var_a1", "E_at1", "var_at1", "E_r1_sq", "var_bridge_l1",
    }
    e = ests["E_l1"]
    assert abs(e.value - math.sqrt(8 * math.pi)) <= 4 * e.std_error
    a = ests["E_a1"]
    assert abs(a.value - math.pi / 2) <= 4 * a.std_error
    r = ests["E_r1_sq"]
    assert abs(r.value - 4 * math.log(2)) <= 4 * r.std_error


# (value, std_error) of brownian_constant_estimates(grid, 4, 5).  At grid
# 4096 = 64^2 the 1/sqrt(grid) scaling is exact; at 2048 it rounds, so that
# case also pins the order of the partial sums and the scaling.
BROWNIAN_PINS = {
    4096: {
        "E_l1": (4.342844064377649, 0.1551848846339557),
        "var_l1": (0.09632939367541654, 0.042923358107004025),
        "E_a1": (1.1937994646625936, 0.04408456508914229),
        "var_a1": (0.007773795516395292, 0.002739478665036494),
        "E_at1": (0.8696259408610003, 0.03795076664332428),
        "var_at1": (0.00576104275526422, 0.0019526473166936844),
        "E_r1_sq": (2.0468898052991267, 0.7764482527259781),
        "var_bridge_l1": (0.06960674063955968, 0.017781287435710013),
    },
    2048: {
        "E_l1": (4.551800342208445, 0.30512380847562776),
        "var_l1": (0.3724021539946863, 0.10221307544097345),
        "E_a1": (1.3660240573642597, 0.1385197826499163),
        "var_a1": (0.07675092074152019, 0.018952931810553717),
        "E_at1": (0.8744246720460487, 0.05791767790758163),
        "var_at1": (0.013417829656825477, 0.00519097025500618),
        "E_r1_sq": (3.2915534690590196, 1.6930329730469793),
        "var_bridge_l1": (0.1938613839540971, 0.07223496110761606),
    },
}


@pytest.mark.parametrize("grid", list(BROWNIAN_PINS))
def test_brownian_constant_estimates_bits_pinned(grid):
    ests = lm.brownian_constant_estimates(grid, 4, 5)
    assert {k: (e.value, e.std_error) for k, e in ests.items()} == BROWNIAN_PINS[grid]


def test_brownian_reference_values_consistency():
    rows = lm.brownian_reference_values()
    constants = {q: theo for q, theo, _ in rows if theo is not None}
    bounds = {q: b for q, _, b in rows if b is not None}
    assert math.isclose(constants["E_l1"], math.sqrt(8 * math.pi))
    for q, (lo, hi) in bounds.items():
        if q in constants:
            assert lo <= constants[q] <= hi


def test_brownian_reference_rows_in_report_order():
    rows = lm.brownian_reference_values()
    assert [q for q, _, _ in rows] == [
        "E_l1", "E_a1", "E_at1", "E_r1_sq", "var_l1", "var_bridge_l1", "var_a1", "var_at1",
    ]
    assert {q for q, _, _ in rows} == set(lm.brownian_constant_estimates(8, 4, 0))


# ---------------------------------------------------------------------------
# verdict assembly
# ---------------------------------------------------------------------------


def _est(q, value, se):
    return mc.MonteCarloEstimate(100, q, value, se)


def test_assemble_report_verdicts():
    reports = lm.assemble_report(
        references=[("a", 2.0, None), ("b", None, (0.0, 2.0))],
        estimates={"a": _est("a", 2.0, 0.05), "b": _est("b", 3.0, 0.01)},
    )
    by_q = {r.quantity: r for r in reports}
    assert by_q["a"].verdict == "consistent"
    assert by_q["b"].verdict == "violated"


def test_assemble_report_untested_and_mismatch():
    reports = lm.assemble_report([("a", 1.0, None)], {})
    assert reports[0].verdict == "untested"
    with pytest.raises(MismatchedQuantitiesError):
        lm.assemble_report([("a", 1.0, None)], {"zzz": _est("zzz", 1.0, 0.1)})


@pytest.mark.parametrize("value, se", [(math.nan, 0.1), (1.0, math.nan), (math.nan, math.nan)])
def test_assemble_report_nan_reads_violated(value, se):
    references = [("a", 1.0, None), ("b", None, (0.0, 2.0)), ("c", 1.0, (0.0, 2.0))]
    estimates = {q: _est(q, value, se) for q in "abc"}
    reports = lm.assemble_report(references, estimates)
    assert [(r.quantity, r.verdict) for r in reports] == [("a", "violated"), ("b", "violated"), ("c", "violated")]


def test_assemble_report_rows_in_given_order():
    references = [("z", None, (0.0, 1.0)), ("a", 0.5, None), ("m", 0.5, (0.0, 1.0))]
    reports = lm.assemble_report(references, {"m": _est("m", 0.5, 0.1)})
    assert [(r.quantity, r.verdict) for r in reports] == [("z", "untested"), ("a", "untested"), ("m", "consistent")]
    assert (reports[2].theoretical, reports[2].bound_low, reports[2].bound_high) == (0.5, 0.0, 1.0)


def test_assemble_report_rejects_empty_or_inconsistent_rows():
    with pytest.raises(ValueError, match="neither"):
        lm.assemble_report([("a", None, None)], {"a": _est("a", 1.0, 0.1)})
    with pytest.raises(ValueError, match="outside its own bounds"):
        lm.assemble_report([("a", 3.0, (0.0, 2.0))], {})


def test_report_to_dict_schema():
    row = lm.assemble_report([("a", 1.0, None)], {"a": _est("a", 1.0, 0.1)})[0]
    d = row.to_dict()
    assert set(d) == {"quantity", "theoretical", "bound_low", "bound_high", "estimate", "std_error", "verdict"}


# ---------------------------------------------------------------------------
# norm-mean interpolation for the Spitzer-Widom input
# ---------------------------------------------------------------------------


def test_interpolated_sw_close_to_direct_mean():
    model = w.PearsonRayleigh((0.2, 0.0))
    n = 500
    ks = lm.log_spaced_ks(n)
    means, _ = mc.norm_mean_estimates(model, ks, 3000, 12)
    sw = lm.sw_expected_perimeter(lm.interpolate_norm_means(ks, means, n))
    from hullwalk.hullstream import CheckpointSchedule

    ests = mc.estimate(model, n, CheckpointSchedule.explicit([n]), 3000, 13)
    mean_l = next(e for e in ests if e.statistic == "meanL")
    assert abs(sw - mean_l.value) <= 0.02 * mean_l.value


# ---------------------------------------------------------------------------
# reflection principle (slow, spec-size Monte Carlo)
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_reflection_principle_tail_ratio():
    # P(sup w > r) = 2 P(w(1) > r): ratio within 5% at 1e5 paths, grid 2^17
    from scipy.special import ndtr as _ndtr

    paths, grid = 10**5, 2**17
    rs = np.array([0.5, 1.0, 2.0])
    exceed = np.zeros(3, dtype=np.int64)
    gen = w.RngStream(31415, 0).generator()
    chunk, block = 256, 2**13
    inv = np.float32(1.0 / math.sqrt(grid))
    done = 0
    while done < paths:
        k = min(chunk, paths - done)
        pos = np.zeros(k, dtype=np.float32)
        runmax = np.zeros(k, dtype=np.float32)
        for _ in range(grid // block):
            z = gen.standard_normal((k, block), dtype=np.float32)
            np.cumsum(z, axis=1, out=z)
            z *= inv
            z += pos[:, None]
            np.maximum(runmax, z.max(axis=1), out=runmax)
            pos = z[:, -1].copy()
        for j, r in enumerate(rs):
            exceed[j] += int((runmax > r).sum())
        done += k
    for j, r in enumerate(rs):
        ratio = (exceed[j] / paths) / (2.0 * (1.0 - _ndtr(r)))
        assert 0.95 <= ratio <= 1.05, f"r={r}: ratio {ratio}"
