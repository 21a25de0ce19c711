"""Increment models: analytic moments, samplers, Brownian paths, grammar."""

import math

import numpy as np
import pytest

from hullwalk import walkgen as w
from hullwalk.errors import NotFiniteSupportError, NotPSDError

FINITE_VARIANCE_SPECS = ["lattice", "hex6", "pr", "pr:0.2,0", "gauss", "st-binary", "st-gauss"]


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def test_pearson_rayleigh_zero_drift_moments():
    # E[cos^2] = E[sin^2] = 1/2 and E[cos sin] = 0 over a uniform angle
    m = w.PearsonRayleigh().moments()
    assert m.mu == (0.0, 0.0)
    assert m.Sigma == ((0.5, 0.0), (0.0, 0.5))
    assert m.sigma2 == 1.0
    assert m.det_Sigma == 0.25
    assert m.sigma2_mu is None and m.sigma2_perp is None


def test_pearson_rayleigh_drift_moments():
    m = w.PearsonRayleigh((0.2, 0.0)).moments()
    assert m.sigma2_mu == 0.5
    assert 4.0 * m.sigma2_mu == 2.0
    assert m.sigma2_perp == 0.5


def test_spacetime_binary_moments():
    m = w.SpacetimeBinary().moments()
    assert m.mu == (1.0, 0.0)
    assert m.sigma2_mu == 0.0  # fluctuations orthogonal to the drift
    assert m.sigma2_perp == 1.0
    assert m.det_Sigma == 0.0


def test_lattice_and_hex_moments():
    m = w.LatticeSRW().moments()
    assert m.Sigma == ((0.5, 0.0), (0.0, 0.5)) and m.sigma2 == 1.0
    h = w.Hex6().moments()
    assert np.allclose(h.sigma_matrix(), [[2 / 3, -1 / 3], [-1 / 3, 2 / 3]])
    assert math.isclose(h.det_Sigma, 1 / 3)


def test_gaussian_moments_decomposition():
    cov = ((2.0, 0.3), (0.3, 0.7))
    m = w.Gaussian(mean=(1.0, 2.0), cov=cov).moments()
    assert math.isclose(m.sigma2, m.sigma2_mu + m.sigma2_perp)
    mu_hat = np.array([1.0, 2.0]) / math.sqrt(5.0)
    assert math.isclose(m.sigma2_mu, mu_hat @ np.array(cov) @ mu_hat)


def test_pareto_moments():
    heavy = w.ParetoDirection(alpha=1.5).moments()
    assert not heavy.finite_variance
    assert heavy.Sigma is None and heavy.sigma2 is None
    light = w.ParetoDirection(alpha=3.0, drift=(0.1, 0.0)).moments()
    assert light.finite_variance
    assert math.isclose(light.sigma2, 3.0)  # E R^2 = alpha/(alpha-2) = 3
    with pytest.raises(ValueError):
        w.ParetoDirection(alpha=1.0)


@pytest.mark.parametrize("spec", FINITE_VARIANCE_SPECS)
def test_empirical_moments_match_analytic(spec):
    model = w.parse_model(spec)
    mom = model.moments()
    n = 10**6
    inc = model.sample_increments(n, w.RngStream(2024, hash(spec) % 1000).generator())
    se_mean = inc.std(axis=0, ddof=1) / math.sqrt(n)
    assert np.all(np.abs(inc.mean(axis=0) - mom.mu) <= 5 * se_mean + 1e-12)
    centered = inc - np.asarray(mom.mu)
    prods = np.stack([centered[:, 0] ** 2, centered[:, 0] * centered[:, 1], centered[:, 1] ** 2])
    sample = prods.mean(axis=1)
    se = prods.std(axis=1, ddof=1) / math.sqrt(n)
    S = mom.sigma_matrix()
    target = np.array([S[0, 0], S[0, 1], S[1, 1]])
    assert np.all(np.abs(sample - target) <= 5 * se + 1e-12)


# ---------------------------------------------------------------------------
# streams and paths
# ---------------------------------------------------------------------------


def test_stream_determinism_and_independence():
    a = w.sample_path(w.LatticeSRW(), 50, w.RngStream(7, 3).generator())
    b = w.sample_path(w.LatticeSRW(), 50, w.RngStream(7, 3).generator())
    c = w.sample_path(w.LatticeSRW(), 50, w.RngStream(7, 4).generator())
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_path_basics():
    assert w.sample_path(w.Hex6(), 0, w.RngStream(1).generator()).tolist() == [[0.0, 0.0]]
    path = w.sample_path(w.LatticeSRW(), 3, w.RngStream(5, 0).generator())
    steps = np.diff(path, axis=0)
    support = {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert all(tuple(s) in support for s in steps)
    assert np.allclose(np.hypot(steps[:, 0], steps[:, 1]), 1.0)
    with pytest.raises(ValueError):
        w.sample_path(w.LatticeSRW(), -1, w.RngStream(1).generator())


# Positions of sample_path(parse_model(spec), 4, RngStream(8, k).generator())
# for the k-th spec; every model family of MODEL_GRAMMAR appears, so a change
# to any model's draws or arithmetic shows here.
SAMPLE_PATH_PINS = {
    "lattice": [
        [0.0, 0.0], [-1.0, 0.0], [-1.0, -1.0], [-1.0, -2.0], [-2.0, -2.0],
    ],
    "hex6": [
        [0.0, 0.0], [-1.0, 1.0], [-1.0, 0.0], [0.0, 0.0], [0.0, -1.0],
    ],
    "pr": [
        [0.0, 0.0], [-0.8381456075301362, -0.5454465515318058],
        [-0.34394528494180354, -1.4147946067741166], [-0.5455623750805427, -2.3942590262218],
        [0.2604650183895356, -2.986137257765951],
    ],
    "pr:0.2,-0.1": [
        [0.0, 0.0], [0.48582814142170516, 0.8582808949214284],
        [0.4565447006324021, 1.7316405939946016], [-0.05115857224143677, 2.3381503798883685],
        [1.0139300025625928, 1.7365312437466807],
    ],
    "gauss": [
        [0.0, 0.0], [0.3416187575849059, 0.5115959995197191],
        [0.43309393517697337, -1.098874203843918], [-1.2607893821448575, 0.6606794100220355],
        [-1.8221281293617526, 1.643845555508999],
    ],
    "gauss:1,0.3,2,0.5,-0.25": [
        [0.0, 0.0], [2.6854080047452378, 0.7280748340661867],
        [2.3542738493854256, -1.1270372451888628], [1.0535415997160313, -3.5544245075271217],
        [0.6825645171183727, -3.7793274322242496],
    ],
    "st-binary": [
        [0.0, 0.0], [1.0, -1.0], [2.0, 0.0], [3.0, -1.0], [4.0, -2.0],
    ],
    "st-gauss": [
        [0.0, 0.0], [1.0, 1.2620900792638918], [2.0, -0.21063823066668386],
        [3.0, -0.3857523754745604], [4.0, 0.46608106028447505],
    ],
    "pareto:1.5": [
        [0.0, 0.0], [0.3253820758105077, 1.02965550994426],
        [3.568651399075873, -0.15534401908090834], [4.309921265929935, 0.5589708227998464],
        [5.293919317104734, 1.6364475227763924],
    ],
    "pareto:2.5,0.3,0": [
        [0.0, 0.0], [-0.1911242738460862, 0.9109394034739079],
        [1.638643462134679, 1.7226225112858233], [0.6885736666660958, 2.57287557275095],
        [0.12094062796487504, 3.1115001194789653],
    ],
}


def test_sample_path_pins_cover_the_grammar():
    families = {spec.partition(":")[0] for spec in SAMPLE_PATH_PINS}
    assert families == {tok.strip().partition("[")[0].partition(":")[0] for tok in w.MODEL_GRAMMAR.split("|")}


@pytest.mark.parametrize("k, spec", enumerate(SAMPLE_PATH_PINS), ids=list(SAMPLE_PATH_PINS))
def test_sample_path_bits_pinned(k, spec):
    pos = w.sample_path(w.parse_model(spec), 4, w.RngStream(8, k).generator())
    assert pos.tolist() == SAMPLE_PATH_PINS[spec]


# (mu, Sigma, sigma2, sigma2_mu, sigma2_perp, det_Sigma, finite_variance) of parse_model(spec).moments(), recorded when the
# finite-support moments were still typed out per model; deriving them from
# the step tables must reproduce every bit.
MOMENT_FIELDS = ("mu", "Sigma", "sigma2", "sigma2_mu", "sigma2_perp", "det_Sigma", "finite_variance")
MOMENT_PINS = {
    "lattice": ((0.0, 0.0), ((0.5, 0.0), (0.0, 0.5)), 1.0, None, None, 0.25, True),
    "hex6": (
        (0.0, 0.0), ((0.6666666666666666, -0.3333333333333333), (-0.3333333333333333, 0.6666666666666666)),
        1.3333333333333333, None, None, 0.3333333333333333, True,
    ),
    "pr": ((0.0, 0.0), ((0.5, 0.0), (0.0, 0.5)), 1.0, None, None, 0.25, True),
    "pr:0.2,-0.1": (
        (0.2, -0.1), ((0.5, 0.0), (0.0, 0.5)), 1.0, 0.49999999999999994, 0.49999999999999994, 0.25, True,
    ),
    "gauss": ((0.0, 0.0), ((1.0, 0.0), (0.0, 1.0)), 2.0, None, None, 1.0, True),
    "gauss:1,0.3,2,0.5,-0.25": (
        (0.5, -0.25), ((1.0, 0.3), (0.3, 2.0)), 3.0, 0.96, 2.04, 1.91, True,
    ),
    "st-binary": ((1.0, 0.0), ((0.0, 0.0), (0.0, 1.0)), 1.0, 0.0, 1.0, 0.0, True),
    "st-gauss": ((1.0, 0.0), ((0.0, 0.0), (0.0, 1.0)), 1.0, 0.0, 1.0, 0.0, True),
    "pareto:1.5": ((0.0, 0.0), None, None, None, None, None, False),
    "pareto:2.5,0.3,0": ((0.3, 0.0), ((2.5, 0.0), (0.0, 2.5)), 5.0, 2.5, 2.5, 6.250000000000001, True),
    "pareto:3,0.1,0": ((0.1, 0.0), ((1.5, 0.0), (0.0, 1.5)), 3.0, 1.5, 1.5, 2.25, True),
}


@pytest.mark.parametrize("spec", [*SAMPLE_PATH_PINS, "pareto:3,0.1,0"])
def test_moments_bits_pinned(spec):
    m = w.parse_model(spec).moments()
    assert tuple(getattr(m, f) for f in MOMENT_FIELDS) == MOMENT_PINS[spec]


# ---------------------------------------------------------------------------
# Brownian and bridge paths
# ---------------------------------------------------------------------------


def test_brownian_path_zero_cov_and_single_step():
    p = w.brownian_path(np.zeros((2, 2)), 16, w.RngStream(1).generator())
    assert np.all(p == 0.0)
    q = w.brownian_path(np.eye(2), 1, w.RngStream(1).generator())
    assert q.shape == (2, 2)


def test_brownian_path_endpoint_second_moment():
    # E|S_N|^2 = trace(cov) = 2 by independence of the increments
    vals = []
    for i in range(600):
        p = w.brownian_path(np.eye(2), 64, w.RngStream(11, i).generator())
        vals.append(float(p[-1] @ p[-1]))
    vals = np.asarray(vals)
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean() - 2.0) <= 3 * se


def test_brownian_path_rejects_non_psd():
    with pytest.raises(NotPSDError):
        w.brownian_path([[1.0, 0.0], [0.0, -1.0]], 8, w.RngStream(0).generator())
    with pytest.raises(NotPSDError):
        w.brownian_path([[1.0, 0.5], [0.0, 1.0]], 8, w.RngStream(0).generator())


def test_bridge_path_pinned_at_both_ends():
    p = w.bridge_path(256, w.RngStream(3, 1).generator())
    assert p[0].tolist() == [0.0, 0.0]
    assert p[-1].tolist() == [0.0, 0.0]
    tiny = w.bridge_path(1, w.RngStream(3).generator())
    assert np.all(tiny == 0.0)


def test_bridge_path_is_pinned_brownian_path():
    b = w.brownian_path(np.eye(2), 64, w.RngStream(5).generator())
    t = np.arange(65)[:, None] / 64
    assert np.array_equal(w.bridge_path(64, w.RngStream(5).generator()), b - t * b[-1])


def test_psd_sqrt_closed_form():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.standard_normal((2, 2))
        cov = a @ a.T
        root = w.psd_sqrt(cov)
        assert np.allclose(root @ root, cov, atol=1e-12)
        assert np.allclose(root, root.T)
    assert np.all(w.psd_sqrt(np.zeros((2, 2))) == 0.0)


@pytest.mark.parametrize("spec", ["gauss", "gauss:2,0,0.5", "gauss:0,0,1", "gauss:1,0,0,0.3,-2"])
def test_diagonal_root_scaling_equals_matrix_product(spec):
    # where a root entry is 0, z * 0 may be -0.0 where the product gave +0.0:
    # equal values, so the comparison is by value, not by bytes
    model = w.parse_model(spec)
    assert model._sqrt[0, 1] == model._sqrt[1, 0] == 0.0
    got = model.sample_increments(131072, w.RngStream(9).generator())
    want = w.RngStream(9).generator().standard_normal((131072, 2)) @ model._sqrt + np.array(model.mean)
    assert (got == want).all()


def test_brownian_area_scaling_with_paired_seeds():
    # doubling the covariance doubles hull areas pathwise: A(sqrt(2) K) = 2 A(K)
    from hullwalk.hullstream import _functionals_from_vertices, hull_vertices

    ratios = []
    for i in range(40):
        p1 = w.brownian_path(np.eye(2), 4096, w.RngStream(21, i).generator())
        p2 = w.brownian_path(2.0 * np.eye(2), 4096, w.RngStream(21, i).generator())
        a1 = _functionals_from_vertices(hull_vertices(p1))[1]
        a2 = _functionals_from_vertices(hull_vertices(p2))[1]
        ratios.append(a2 / a1)
    assert abs(np.mean(ratios) - 2.0) <= 0.1


# ---------------------------------------------------------------------------
# model grammar
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec",
    ["lattice", "hex6", "pr", "pr:0.2,0", "pr:-0.3,0.4", "gauss", "gauss:1,0.2,2",
     "gauss:1,0,1,0.5,-0.5", "st-binary", "st-gauss", "pareto:1.5", "pareto:1.5,0.1,0"],
)
def test_grammar_round_trip(spec):
    model = w.parse_model(spec)
    assert w.parse_model(model.spec_string()) == model


@pytest.mark.parametrize("bad", ["", "walk", "pr:1", "gauss:1,2", "pareto", "lattice:3"])
def test_grammar_rejects_bad_specs(bad):
    with pytest.raises(ValueError):
        w.parse_model(bad)


def test_support_available_only_for_finite_models():
    for model in (w.LatticeSRW(), w.Hex6(), w.SpacetimeBinary()):
        steps, probs = model.support()
        assert math.isclose(probs.sum(), 1.0)
        assert len(steps) == len(probs)
    for model in (w.PearsonRayleigh(), w.Gaussian(), w.SpacetimeGaussian(), w.ParetoDirection()):
        with pytest.raises(NotFiniteSupportError):
            model.support()
