"""Closed-form limits, exact expectation formulas, rigorous bounds, verdicts.

Everything the asymptotic theory pins down for the hull of a planar walk is
evaluated here: the Spitzer-Widom perimeter identity and its one-dimensional
Kac/Hunt counterpart, the Barndorff-Nielsen/Baxter area sum, the limit
constants reached by E L_n, Var L_n, E A_n and Var A_n under zero and nonzero
drift, the Brownian hull constants (Letac/Takacs sqrt(8 pi), E a_1 = pi/2,
E atilde_1 = sqrt(2 pi)/3, Feller's 4 log 2), the Rogers-Shepp double
integral for E[l_1^2], and Goldman's bridge-perimeter variance.

``model_references`` decides what a walk is checked against, and
``model_limits`` is what the ``limits`` command writes.  Verdicts come from
``assemble_report``, which takes ordered reference rows
``(quantity, theoretical, bounds)`` and a dict of Monte Carlo estimates and
calls an estimate consistent only when it lies within five standard errors
of the row's value and bounds; ``model_report`` applies it to a walk's run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .hullstream import _functionals_from_vertices, hull_vertices
from .montecarlo import MonteCarloEstimate, _map_replicates, _mean_se, _var_se
from .quadrature import adaptive_simpson
from .walkgen import (
    MomentSummary,
    RngStream,
    SpacetimeGaussian,
    bridge_path,
    brownian_path,
    pow2_units,
    psd_sqrt,
    sample_path,
    sqrt_det,
)


@dataclass(frozen=True)
class BrownianConstants:
    """Closed-form functionals of unit-time Brownian convex hulls.

    E_l1 and E_a1 are the expected perimeter and area of the planar Brownian
    hull; E_atilde1 the expected area of the space-time hull of a line
    Brownian motion; E_range_sq Feller's second moment of its range.
    """

    E_l1: float = math.sqrt(8.0 * math.pi)
    E_a1: float = math.pi / 2.0
    E_atilde1: float = math.sqrt(2.0 * math.pi) / 3.0
    E_range_sq: float = 4.0 * math.log(2.0)


BROWNIAN = BrownianConstants()


# ---------------------------------------------------------------------------
# Exact expectation formulas
# ---------------------------------------------------------------------------


def kac_expected_max(plus_part_means) -> float:
    """Kac/Hunt identity: E max(0, T_1, ..., T_n) = sum_{k=1}^n E[T_k^+] / k."""
    means = np.asarray(list(plus_part_means), dtype=float)
    if len(means) == 0:
        raise ValueError("need the k = 1 mean at least")
    return float((means / np.arange(1, len(means) + 1)).sum())


def sw_expected_perimeter(norm_means) -> float:
    """Spitzer-Widom formula: E L_n = 2 sum_{k=1}^n E|S_k| / k.

    ``norm_means`` lists E|S_k| for k = 1..n; the sum is Kac/Hunt's.
    """
    return 2.0 * kac_expected_max(norm_means)


def bnb_expected_area(triangle_means, n: int) -> float:
    """Barndorff-Nielsen/Baxter formula for the expected hull area.

    E A_n = sum_{k=2}^n sum_{m=1}^{k-1} E T(S_m, S_k - S_m) / (m (k - m)),
    with ``triangle_means(m, k)`` supplying the expected triangle areas.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    total = 0.0
    for k in range(2, n + 1):
        for m in range(1, k):
            total += triangle_means(m, k) / (m * (k - m))
    return total


def gaussian_spacetime_area_exact(n: int) -> float:
    """Exact E A_n for steps (1, xi) with xi standard normal.

    For this walk the triangle means collapse and the area formula becomes
    (2 pi)^(-1/2) sum_{k=2}^n sqrt(k) partial_sum_pi(k).
    Scaled by n^(-3/2) it converges to sqrt(2 pi) / 3.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    total = sum(math.sqrt(k) * partial_sum_pi(k) for k in range(2, n + 1))
    return total / math.sqrt(2.0 * math.pi)


def partial_sum_pi(k: int) -> float:
    """sum_{m=1}^{k-1} 1/sqrt(m (k - m)); converges to pi as k grows."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    m = np.arange(1, k, dtype=float)
    return float((1.0 / np.sqrt(m * (k - m))).sum())


# ---------------------------------------------------------------------------
# Gaussian norm mean, the limit constants and a walk's reference rows
# ---------------------------------------------------------------------------


def expected_norm_gaussian(Sigma) -> float:
    """E|Y| for Y ~ N(0, Sigma) via the circle integral.

    E|Y| = (8 pi)^(-1/2) * integral over the unit circle of |Sigma^(1/2) e|,
    evaluated by adaptive quadrature to 1e-8 relative to the square root of
    Sigma's largest entry.  The integral runs on Sigma 4^-k, whose largest
    entry lies in [1/2, 2), and is scaled back by 2^k; both scalings are
    exact, so any covariance from 1e-300 to 1e300 keeps the same precision.

    Raises:
        ValueError: if Sigma is not symmetric positive semidefinite.
    """
    psd_sqrt(Sigma)  # validation only
    scaled, k = pow2_units(Sigma)
    (a, b01), (b10, c) = scaled.tolist()
    b = 0.5 * (b01 + b10)

    def integrand(theta: float) -> float:
        ct, st = math.cos(theta), math.sin(theta)
        return math.sqrt(max(a * ct * ct + 2.0 * b * ct * st + c * st * st, 0.0))

    integral = adaptive_simpson(integrand, 0.0, 2.0 * math.pi, tol=1e-8)
    return math.ldexp(integral, k) / math.sqrt(8.0 * math.pi)


def model_references(mom: MomentSummary, n: float) -> list[tuple]:
    """Reference rows ``(quantity, theoretical, bounds, statistic, scale)`` for a walk at step n.

    A row checks a ``montecarlo.estimate`` statistic at n over ``scale``
    against a limit constant or (low, high) bounds: 2|mu|, 4 sigma2_mu, the
    n^(3/2) area coefficient and v_plus under drift; 4 E|Y|, (pi/2) sqrt(det
    Sigma), u0 and v0 without.  Snyder-Steele, which holds at every n, comes
    last.  A row of scale 0 is left out (sigma2_perp = 0 drops v_plus,
    det Sigma = 0 drops v0); infinite variance leaves the drift rate only.
    """
    drift = mom.norm_mu > 0.0
    rows = [("2norm_mu", 2.0 * mom.norm_mu, None, "meanL", n)] if drift else []
    if not mom.finite_variance:
        return rows
    if drift:
        rows += [
            ("4sigma2_mu", 4.0 * mom.sigma2_mu, None, "varL", n),
            ("drift_area_coeff", mom.norm_mu * math.sqrt(2.0 * math.pi * mom.sigma2_perp) / 3.0, None,
             "meanA", n**1.5),
            ("v_plus", None, vplus_bounds(), "varA", mom.norm_mu**2 * mom.sigma2_perp * n**3),
        ]
    else:
        Sigma = mom.sigma_matrix()
        rows += [
            ("4E_norm_Y", 4.0 * expected_norm_gaussian(Sigma), None, "meanL", math.sqrt(n)),
            ("pi_over_2_sqrt_det", 0.5 * math.pi * sqrt_det(Sigma), None, "meanA", n),
            ("u0_like", None, _model_u0_bounds(mom), "varL", n),
            ("v0", None, v0_bounds(), "varA", mom.det_Sigma * n**2),
        ]
    # Snyder-Steele: Var L_n <= (pi^2/2) sigma^2 n at every n.
    rows.append(("ss_bound", None, (0.0, u0_bounds(mom.sigma2)[1]), "varL", n))
    return [row for row in rows if row[4]]


def limit_constants(mom: MomentSummary) -> list[tuple[str, float]]:
    """The constants of the ``model_references`` rows, then ``ss_bound``, the Snyder-Steele row's bound.

    Raises:
        ValueError: for models without a finite second moment.
    """
    if not mom.finite_variance:
        raise ValueError("limit constants need a finite second moment")
    rows = model_references(mom, 1.0)
    return [(q, theo) for q, theo, _, _, _ in rows if theo is not None] + [("ss_bound", rows[-1][2][1])]


def _model_u0_bounds(mom: MomentSummary) -> tuple[float, float]:
    """``u0_bounds`` at trace Sigma, with the sharper lower bound when Sigma = I."""
    return u0_bounds(mom.sigma2, identity=mom.Sigma == ((1.0, 0.0), (0.0, 1.0)))


def model_limits(model) -> dict:
    """The limit constants and bounds of ``model``, as the ``limits`` command writes them.

    A model with infinite variance gets its drift rate only, and ``heavy_tail``.
    """
    mom = model.moments()
    out: dict = {"model": model.spec_string(), "norm_mu": mom.norm_mu}
    if mom.finite_variance:
        out.update(limit_constants(mom))
        out["u0_bounds"] = list(_model_u0_bounds(mom))
        out["v0_bounds"] = list(v0_bounds())
        out["v_plus_bounds"] = list(vplus_bounds())
        out["det_Sigma"] = mom.det_Sigma
        out["sigma2_perp"] = mom.sigma2_perp
    else:
        out["2norm_mu"] = 2.0 * mom.norm_mu
        out["heavy_tail"] = True
    return out


# ---------------------------------------------------------------------------
# Rigorous bounds on the limiting variance constants
# ---------------------------------------------------------------------------


def u0_bounds(trace_sigma: float, identity: bool = False) -> tuple[float, float]:
    """Bounds on u0(Sigma) = Var L(Sigma^(1/2) h_1) in terms of trace Sigma.

    The generic lower bound comes from the deviation probability of the
    hull perimeter above its mean; for Sigma = I the known value
    E l_1 = sqrt(8 pi) sharpens it to (2/5)(1 - 8/(25 pi)) e^(-25 pi / 16).
    """
    if trace_sigma < 0.0:
        raise ValueError(f"trace must be nonnegative, got {trace_sigma}")
    lower = (263.0 / 1080.0) * math.pi ** (-1.5) * math.exp(-144.0 / 25.0) * trace_sigma
    if identity:
        lower = max(lower, 0.4 * (1.0 - 8.0 / (25.0 * math.pi)) * math.exp(-25.0 * math.pi / 16.0))
    upper = 0.5 * math.pi * math.pi * trace_sigma  # the Snyder-Steele bound
    return lower, upper


def v0_bounds() -> tuple[float, float]:
    """Bounds on v0 = Var a_1 (zero-drift area variance constant)."""
    lower = (4.0 / 49.0) * (
        math.exp(-7.0 * math.pi**2 / 12.0) - math.exp(-21.0 * math.pi**2 / 4.0) / 3.0
    ) ** 2
    upper = 16.0 * math.log(2.0) ** 2 - math.pi**2 / 4.0
    return lower, upper


def vplus_bounds() -> tuple[float, float]:
    """Bounds on v_plus = Var atilde_1 (drift area variance constant)."""
    lower = (2.0 / 225.0) * (math.exp(-25.0 * math.pi / 9.0) - math.exp(-25.0 * math.pi) / 3.0)
    upper = 4.0 * math.log(2.0) - 2.0 * math.pi / 9.0
    return lower, upper


# ---------------------------------------------------------------------------
# Quadrature constants: Rogers-Shepp and Goldman
# ---------------------------------------------------------------------------


def _cosh_over_sinh(a: float, b: float) -> float:
    """cosh(a)/sinh(b) for 0 <= a < b, stable for large arguments."""
    if b < 25.0:
        return math.cosh(a) / math.sinh(b)
    return math.exp(a - b) * (1.0 + math.exp(-2.0 * a)) / (1.0 - math.exp(-2.0 * b))


# E[l_1^2] to 1e-4: a quarter of it, over 4 pi, for the theta-integral, and a
# tenth of that for each inner u-integral and for the tail it cuts off.
_RS_OUTER_TOL = 0.25 * 1e-4 / (4.0 * math.pi)
_RS_INNER_TOL = 0.1 * _RS_OUTER_TOL


def _rogers_shepp_c(theta: float) -> float:
    """c(sin theta): the correlated-suprema product moment, as a u-integral."""
    cos_t = math.cos(theta)
    if theta >= math.pi / 2.0 or cos_t <= 0.0 and theta > 0.0:
        return 1.0  # correlation +1: E[(sup w)^2] = 1
    if theta <= -math.pi / 2.0 or cos_t <= 0.0:
        # correlation -1: E[(sup w)(-inf w)] = 2 log 2 - 1, from Feller's
        # E[range^2] = 4 log 2 and E[(sup w)^2] = E[(inf w)^2] = 1.
        return 2.0 * math.log(2.0) - 1.0
    d = math.pi / 2.0 - abs(theta)

    def integrand(u: float) -> float:
        if u < 1e-9:
            return cos_t * (2.0 * theta + math.pi) / (2.0 * math.pi)
        ratio = _cosh_over_sinh(u * abs(theta), u * math.pi / 2.0)
        return cos_t * ratio * math.tanh((2.0 * theta + math.pi) * u / 4.0)

    u_max = max(math.log(max(2.0 * cos_t / (_RS_INNER_TOL * d), 4.0)) / d, 10.0)
    return adaptive_simpson(integrand, 0.0, u_max, tol=_RS_INNER_TOL)


def rogers_shepp_second_moment() -> float:
    """E[l_1^2] as the Rogers-Shepp double integral, to absolute tolerance 1e-4.

    E[l_1^2] = 4 pi * integral over theta in [-pi/2, pi/2] of c(sin theta),
    where c is the product moment of the suprema of two unit Brownian motions
    with correlation sin theta, itself a one-dimensional integral with an
    exponentially decaying integrand.  Evaluated with controlled error this
    gives about 26.2091, hence Var l_1 = E[l_1^2] - 8 pi is about 1.0763,
    in line with simulation estimates near 1.08.  (A value of 26.1677 has
    circulated for this integral; it matches truncating the inner integral
    at a fixed u of about 500 -- truncation at 420 gives 26.1598 -- and is
    not reproduced by full evaluation.)

    Raises:
        ValueError: if either quadrature level does not converge.
    """
    integral = adaptive_simpson(_rogers_shepp_c, -math.pi / 2.0, math.pi / 2.0, tol=_RS_OUTER_TOL)
    return 4.0 * math.pi * integral


def rogers_shepp_var_l1() -> float:
    """Var l_1 = E[l_1^2] - (E l_1)^2 via the Rogers-Shepp integral."""
    return rogers_shepp_second_moment() - 8.0 * math.pi


def sine_integral(x: float) -> float:
    """Si(x) = integral of sin(t)/t over [0, x], to absolute tolerance 1e-10."""

    def integrand(t: float) -> float:
        return 1.0 if abs(t) < 1e-12 else math.sin(t) / t

    return adaptive_simpson(integrand, 0.0, x, tol=1e-10)


def goldman_bridge_variance() -> float:
    """Variance of the planar Brownian bridge hull perimeter (Goldman).

    (pi^2 / 6) (2 pi Si(pi) - 2 - 3 pi), which direct quadrature puts at
    0.3475511, agreeing with the quoted value 0.34755.
    """
    si = sine_integral(math.pi)
    return (math.pi**2 / 6.0) * (2.0 * math.pi * si - 2.0 - 3.0 * math.pi)


# ---------------------------------------------------------------------------
# Monte Carlo estimates of the Brownian constants
# ---------------------------------------------------------------------------


def _brownian_block(lo: int, hi: int, grid_n: int, master_seed: int) -> np.ndarray:
    out = np.empty((hi - lo, 5))
    for i in range(lo, hi):
        g = RngStream(master_seed, i).generator()

        l1, a1, _ = _functionals_from_vertices(hull_vertices(brownian_path(grid_n, g)))

        # the space-time path (t, w(t)) of a line Brownian motion
        st = sample_path(SpacetimeGaussian(), grid_n, g)
        st[:, 0] /= grid_n
        st[:, 1] /= math.sqrt(grid_n)
        _, at1, _ = _functionals_from_vertices(hull_vertices(st))
        w_range = st[:, 1].max() - st[:, 1].min()

        lb, _, _ = _functionals_from_vertices(hull_vertices(bridge_path(grid_n, g)))

        out[i - lo] = (l1, a1, at1, w_range * w_range, lb)
    return out


def brownian_constant_estimates(grid_n: int, replicates: int, master_seed: int) -> dict[str, MonteCarloEstimate]:
    """Monte Carlo estimates of the Brownian hull constants.

    Per replicate, one planar Brownian path gives l_1 and a_1 samples, one
    space-time path (t, w(t)) gives atilde_1 and the squared range of w, and
    one planar bridge gives a hull perimeter sample.  Returns estimates keyed
    E_l1, var_l1, E_a1, var_a1, E_at1, var_at1, E_r1_sq, var_bridge_l1.
    """
    if grid_n < 2:
        raise ValueError(f"grid_n must be >= 2, got {grid_n}")
    if replicates < 2:
        raise ValueError(f"need replicates >= 2, got {replicates}")
    vals = _map_replicates(_brownian_block, replicates, (grid_n, master_seed), 3 * (grid_n + 1))
    l1, a1, at1, rsq, lb = (vals[:, j] for j in range(5))

    def est(stat: str, pair: tuple[float, float]) -> MonteCarloEstimate:
        return MonteCarloEstimate(grid_n, stat, pair[0], pair[1])

    return {
        "E_l1": est("E_l1", _mean_se(l1)),
        "var_l1": est("var_l1", _var_se(l1)),
        "E_a1": est("E_a1", _mean_se(a1)),
        "var_a1": est("var_a1", _var_se(a1)),
        "E_at1": est("E_at1", _mean_se(at1)),
        "var_at1": est("var_at1", _var_se(at1)),
        "E_r1_sq": est("E_r1_sq", _mean_se(rsq)),
        "var_bridge_l1": est("var_bridge_l1", _var_se(lb)),
    }


def brownian_reference_values() -> list[tuple]:
    """Reference rows ``(quantity, theoretical, bounds)`` for the estimate keys, in report order."""
    return [
        ("E_l1", BROWNIAN.E_l1, None),
        ("E_a1", BROWNIAN.E_a1, None),
        ("E_at1", BROWNIAN.E_atilde1, None),
        ("E_r1_sq", BROWNIAN.E_range_sq, None),
        ("var_l1", rogers_shepp_var_l1(), u0_bounds(2.0, identity=True)),
        ("var_bridge_l1", goldman_bridge_variance(), None),
        ("var_a1", None, v0_bounds()),
        ("var_at1", None, vplus_bounds()),
    ]


# ---------------------------------------------------------------------------
# Verdict assembly
# ---------------------------------------------------------------------------

VERDICT_SE_MULTIPLE = 5.0


@dataclass(frozen=True)
class LimitReport:
    """A theoretical value and/or bounds, matched with a Monte Carlo estimate."""

    quantity: str
    theoretical: float | None
    bound_low: float | None
    bound_high: float | None
    estimate: MonteCarloEstimate | None
    verdict: str  # consistent | violated | untested

    def to_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "theoretical": self.theoretical,
            "bound_low": self.bound_low,
            "bound_high": self.bound_high,
            "estimate": None if self.estimate is None else self.estimate.value,
            "std_error": None if self.estimate is None else self.estimate.std_error,
            "verdict": self.verdict,
        }


def assemble_report(references, estimates) -> list[LimitReport]:
    """One verdict per ``(quantity, theoretical | None, (low, high) | None)`` row, in row order.

    An estimate is ``consistent`` only when it lies within five standard
    errors of the theoretical value and of the bounds, so a NaN estimate or
    standard error reads ``violated``; a row without one is ``untested``.

    Raises:
        ValueError: if an estimate has no reference row, or for a row with
            neither a value nor bounds, or a value outside them.
    """
    known = {q for q, _, _ in references}
    for q in estimates:
        if q not in known:
            raise ValueError(f"estimate for unknown quantity {q!r}")
    out = []
    for q, theo, bounds in references:
        lo, hi = (None, None) if bounds is None else bounds
        if theo is None and bounds is None:
            raise ValueError(f"reference row {q!r} has neither a theoretical value nor bounds")
        if theo is not None and bounds is not None and not (lo <= theo <= hi):
            raise ValueError(f"theoretical value for {q!r} falls outside its own bounds")
        est = estimates.get(q)
        if est is None:
            verdict = "untested"
        else:
            slack = VERDICT_SE_MULTIPLE * est.std_error
            near = theo is None or abs(est.value - theo) <= slack
            inside = bounds is None or lo - slack <= est.value <= hi + slack
            verdict = "consistent" if near and inside else "violated"
        out.append(LimitReport(q, theo, lo, hi, est, verdict))
    return out


def model_report(model, n: float, final: dict) -> list[LimitReport]:
    """Verdicts for a run of ``model`` from its statistics at the final step n.

    ``final`` maps (statistic, attribute) of the ``montecarlo.estimate``
    results at n, such as ("varL", "std_error"), to its value.  With infinite
    variance every row reads ``untested``: no standard error then holds.

    Raises:
        ValueError: if no ``model_references`` row applies to the model.
    """
    mom = model.moments()
    references = model_references(mom, n)
    if not references:
        raise ValueError(f"model {model.spec_string()!r} has no quantity to report")
    estimates = {
        q: MonteCarloEstimate(int(n), q, final[stat, "value"] / scale, final[stat, "std_error"] / scale)
        for q, _, _, stat, scale in references
    }
    report = assemble_report([row[:3] for row in references], estimates)
    if not mom.finite_variance:
        report = [replace(r, verdict="untested") for r in report]
    return report


# ---------------------------------------------------------------------------
# Spitzer-Widom input preparation from Monte Carlo
# ---------------------------------------------------------------------------


def interpolate_norm_means(ks, means, n: int) -> np.ndarray:
    """Linearly interpolate E|S_k| estimates onto every k = 1..n.

    ``ks`` must be increasing and cover 1 and n.
    """
    ks = np.asarray(list(ks), dtype=float)
    means = np.asarray(list(means), dtype=float)
    if ks[0] != 1 or ks[-1] != n:
        raise ValueError("ks must start at 1 and end at n")
    return np.interp(np.arange(1, n + 1, dtype=float), ks, means)


def log_spaced_ks(n: int) -> list[int]:
    """Increasing integer grid from 1 to n, about 12 points per decade of k."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    count = max(2, int(12 * math.log10(max(n, 2))) + 1)
    grid = np.unique(np.round(np.logspace(0.0, math.log10(n), count)).astype(int))
    return [int(k) for k in grid]
