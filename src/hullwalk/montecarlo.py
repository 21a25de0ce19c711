"""Monte Carlo replication over walk paths, with exact small-n oracles.

Replicate i always draws from the Philox stream (master_seed, i), and
aggregation runs over a replicate-indexed array, so results are bit-identical
for a fixed seed regardless of how many worker processes execute the paths.
The worker count is capped by the HULLWALK_THREADS environment variable.

The enumeration oracles walk the full product space of finite-support
increment models and evaluate hull functionals exactly, a chunk of paths at a
time through one batched integer hull; they pin down the Spitzer-Widom and
Barndorff-Nielsen/Baxter identities and the resampling martingale
decomposition of the perimeter variance at small n.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from . import geom2d
from .errors import (
    DegenerateDriftError,
    InfiniteVarianceError,
    InvalidReplicatesError,
    SupportTooLargeError,
    TooFewSamplesError,
    ZeroDriftError,
)
from .hullstream import CheckpointSchedule, _series_arrays
from .walkgen import RngStream, sample_path

ENUMERATION_BUDGET = 10**7
# Paths per batched hull call in the enumeration: peak memory grows with it
# (about 4 MB above the enumeration's arrays at 4096) and speed levels off.
_ENUM_CHUNK = 4096
THREADS_ENV_VAR = "HULLWALK_THREADS"


@dataclass(frozen=True)
class MonteCarloEstimate:
    n: int
    statistic: str
    value: float
    std_error: float


def worker_count() -> int:
    """Workers to use: the CPU count, or HULLWALK_THREADS if that is smaller."""
    cpus = os.cpu_count() or 1
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        try:
            w = int(env)
        except ValueError:
            raise ValueError(f"{THREADS_ENV_VAR} must be an integer, got {env!r}") from None
        if w < 1:
            raise ValueError(f"{THREADS_ENV_VAR} must be >= 1, got {w}")
        return min(w, cpus)
    return cpus


def _map_replicates(func, total: int, args: tuple) -> np.ndarray:
    """Run ``func(lo, hi, *args)`` over [0, total) and stack results by index.

    ``func`` must be a module-level function returning an array whose leading
    axis has length hi - lo.  Each worker gets at least 64 replicates, and the
    output ordering depends only on replicate indices, never on scheduling.
    """
    workers = min(worker_count(), max(1, total // 64))
    if workers <= 1:
        return func(0, total, *args)
    n_chunks = workers * 4
    bounds = np.linspace(0, total, n_chunks + 1).astype(int)
    pieces: list = [None] * n_chunks
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {
            pool.submit(func, int(lo), int(hi), *args): j
            for j, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:]))
            if hi > lo
        }
        for fut, j in futures.items():
            pieces[j] = fut.result()
    return np.concatenate([p for p in pieces if p is not None], axis=0)


def _series_block(lo: int, hi: int, model, n: int, checkpoints: tuple, master_seed: int) -> np.ndarray:
    out = np.empty((hi - lo, len(checkpoints), 3))
    cps = list(checkpoints)
    for i in range(lo, hi):
        path = sample_path(model, n, RngStream(master_seed, i).generator())
        out[i - lo] = _series_arrays(path, cps)
    return out


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    m = float(values.mean())
    if len(values) < 2:
        return m, 0.0
    s = float(values.std(ddof=1))
    return m, s / math.sqrt(len(values))


def _var_se(values: np.ndarray) -> tuple[float, float]:
    """Unbiased sample variance and its standard error from the fourth moment."""
    r = len(values)
    centered = values - values.mean()
    s2 = float(values.var(ddof=1))  # numpy's own pairwise sum: no BLAS, so no thread dependence
    m4 = float(np.mean(centered**4))
    var_of_var = (m4 - s2 * s2 * (r - 3) / (r - 1)) / r
    return s2, math.sqrt(max(var_of_var, 0.0))


def estimate(model, n: int, sched: CheckpointSchedule, replicates: int, master_seed: int):
    """Mean/variance estimates of L and A plus the mean inradius, per checkpoint.

    Returns one MonteCarloEstimate per (checkpoint, statistic) with statistic
    in {meanL, varL, meanA, varA, meanR}.  Standard errors use s/sqrt(R) for
    means and the fourth-central-moment estimator for variances.

    Raises:
        InvalidReplicatesError: if fewer than two replicates are requested.
    """
    if replicates < 2:
        raise InvalidReplicatesError(f"need replicates >= 2, got {replicates}")
    checkpoints = tuple(sched.resolve(n))
    vals = _map_replicates(_series_block, replicates, (model, n, checkpoints, master_seed))
    out = []
    for j, c in enumerate(checkpoints):
        L, A, r = vals[:, j, 0], vals[:, j, 1], vals[:, j, 2]
        for stat, (v, se) in (
            ("meanL", _mean_se(L)),
            ("varL", _var_se(L)),
            ("meanA", _mean_se(A)),
            ("varA", _var_se(A)),
            ("meanR", _mean_se(r)),
        ):
            out.append(MonteCarloEstimate(c, stat, v, se))
    return out


_FUNCTIONAL_COLUMN = {"L": 0, "A": 1, "r": 2}


def _terminal_block(lo: int, hi: int, model, n: int, column: int, master_seed: int) -> np.ndarray:
    return _series_block(lo, hi, model, n, (n,), master_seed)[:, 0, column]


def collect_samples(model, n: int, replicates: int, master_seed: int, functional: str) -> np.ndarray:
    """One terminal functional value (L, A, or r at step n) per replicate, indexed by replicate."""
    if replicates < 1:
        raise InvalidReplicatesError(f"need replicates >= 1, got {replicates}")
    col = _FUNCTIONAL_COLUMN[functional]
    vals = _map_replicates(_terminal_block, replicates, (model, n, col, master_seed))
    if not np.isfinite(vals).all():
        raise ValueError("sample values must be finite")
    return vals


def _norm_block(lo: int, hi: int, model, ks: tuple, master_seed: int) -> np.ndarray:
    idx = np.asarray(ks, dtype=int)
    n = int(idx.max())
    out = np.empty((hi - lo, len(idx)))
    for i in range(lo, hi):
        sel = sample_path(model, n, RngStream(master_seed, i).generator())[idx]
        out[i - lo] = np.hypot(sel[:, 0], sel[:, 1])
    return out


def norm_mean_estimates(model, ks, replicates: int, master_seed: int):
    """Monte Carlo estimates of E|S_k| at the given k, with standard errors.

    Feeds the Spitzer-Widom sum for models without enumerable support; the
    returned (means, std_errors) arrays align with ``ks``.
    """
    if replicates < 2:
        raise InvalidReplicatesError(f"need replicates >= 2, got {replicates}")
    ks = tuple(int(k) for k in ks)
    if any(k < 1 for k in ks):
        raise ValueError("norm means need k >= 1")
    vals = _map_replicates(_norm_block, replicates, (model, ks, master_seed))
    return vals.mean(axis=0), vals.std(axis=0, ddof=1) / math.sqrt(replicates)


# ---------------------------------------------------------------------------
# Distribution tests
# ---------------------------------------------------------------------------


def ks_statistic(samples, cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance between samples and a vectorised cdf.

    D = max over order statistics x_(i) of max(i/m - F(x_(i)), F(x_(i)) - (i-1)/m).

    Raises:
        TooFewSamplesError: with fewer than two samples.
        ValueError: if ``cdf`` does not return one value per sample.
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    m = len(xs)
    if m < 2:
        raise TooFewSamplesError(f"need at least 2 samples, got {m}")
    f = np.asarray(cdf(xs), dtype=float)
    if f.shape != xs.shape:
        raise ValueError(f"the cdf returned shape {f.shape} for {m} samples")
    i = np.arange(1, m + 1)
    return float(np.maximum(i / m - f, f - (i - 1) / m).max())


def ks_threshold(m: int) -> float:
    """Asymptotic 5% critical value of the one-sample KS distance."""
    return 1.36 / math.sqrt(m)


@dataclass(frozen=True)
class CltResult:
    D: float
    threshold: float
    passed: bool
    z: np.ndarray = field(repr=False, compare=False)  # the standardized samples tested


def clt_test(model, n: int, replicates: int, master_seed: int) -> CltResult:
    """Normality check of the perimeter under the sqrt(4 sigma2_mu n) scaling.

    Centers terminal L samples at their sample mean, scales by the theoretical
    standard deviation, and compares with the standard normal cdf at the 5%
    KS level.  The result carries the standardized samples.

    Raises:
        ValueError: if n < 1, before any sampling.
        InvalidReplicatesError: if replicates < 2, before any sampling.
        ZeroDriftError: if the model has zero mean increment.
        InfiniteVarianceError: for models without a finite second moment.
        DegenerateDriftError: if fluctuations along the drift vanish
            (sigma2_mu = 0), where the Gaussian limit fails.
    """
    if n < 1:
        raise ValueError(f"the CLT check needs n >= 1 steps, got {n}")
    if replicates < 2:
        raise InvalidReplicatesError(f"the CLT check needs replicates >= 2, got {replicates}")
    mom = model.moments()
    if mom.norm_mu == 0.0:
        raise ZeroDriftError("the Gaussian perimeter limit needs a drift")
    if not mom.finite_variance:
        raise InfiniteVarianceError("the Gaussian perimeter limit needs a finite second moment")
    if mom.sigma2_mu <= 0.0:
        raise DegenerateDriftError(
            "sigma2_mu = 0: increments fluctuate only orthogonally to the drift"
        )
    samples = collect_samples(model, n, replicates, master_seed, functional="L")
    z = (samples - samples.mean()) / math.sqrt(4.0 * mom.sigma2_mu * n)
    d = ks_statistic(z, ndtr)
    thr = ks_threshold(replicates)
    return CltResult(D=d, threshold=thr, passed=d < thr, z=z)


# ---------------------------------------------------------------------------
# Exact enumeration oracles
# ---------------------------------------------------------------------------


def _check_budget(s: int, k: int):
    # s**k >= 2**k > the budget once s >= 2 and k passes its bit length, so
    # the power, which can have millions of digits, is built only below that.
    if s >= 2 and k > ENUMERATION_BUDGET.bit_length():
        raise SupportTooLargeError(f"support^{k} = {s}^{k} exceeds the {ENUMERATION_BUDGET} budget")
    if s**k > ENUMERATION_BUDGET:
        raise SupportTooLargeError(f"support^{k} = {s**k} exceeds the {ENUMERATION_BUDGET} budget")


def _sequence_weights(probs: np.ndarray, k: int) -> np.ndarray:
    """Probability of every length-k step sequence, in enumeration order."""
    w = np.ones(1)
    for _ in range(k):
        w = np.kron(w, probs)
    return w


def _enumerate_functionals(model, n: int):
    """L and A of every length-n step sequence, plus the step probabilities.

    Entry j corresponds to the big-endian base-s expansion of j over the
    support, so reshaping to (s,) * n puts step i on axis i - 1, and
    ``_sequence_weights(probs, n)`` gives the entries' weights.  The paths go
    through ``geom2d._perimeter_area_rows`` in chunks of ``_ENUM_CHUNK``; it is
    exact for integer steps only, and any other table raises ValueError first.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    steps, probs = model.support()
    s = len(steps)
    _check_budget(s, n)
    # every position lies within n steps of the origin (a factor 2 spare)
    step_arr = np.asarray(steps, dtype=float)
    reach_x, reach_y = np.abs(step_arr).max(axis=0)
    integral = bool(np.array_equal(step_arr, np.round(step_arr)))
    if geom2d._orient_bound(4.0 * n * float(reach_x), 4.0 * n * float(reach_y), integral):
        raise ValueError(f"exact enumeration needs integer steps of size up to 2**24 / n, got {steps.tolist()}")
    total = s**n
    L_all, A_all = np.empty(total), np.empty(total)
    place = s ** np.arange(n - 1, -1, -1)
    for lo in range(0, total, _ENUM_CHUNK):
        hi = min(lo + _ENUM_CHUNK, total)
        digits = np.arange(lo, hi)[:, None] // place % s
        positions = np.zeros((hi - lo, n + 1, 2))
        np.cumsum(step_arr[digits], axis=1, out=positions[:, 1:])
        L_all[lo:hi], A_all[lo:hi] = geom2d._perimeter_area_rows(positions)
    return L_all, A_all, np.asarray(probs, dtype=float)


def exact_position_distributions(model, n: int):
    """Distribution of S_k for k = 1..n as point-mass dicts, by convolution.

    Cheaper than path enumeration (the state space is positions, not paths),
    so it reaches larger n for the expectation identities that only need
    marginals of the walk.
    """
    steps, probs = model.support()
    step_items = [((float(x), float(y)), float(p)) for (x, y), p in zip(steps, probs)]
    dists: list[dict[tuple[float, float], float]] = []
    current = {(0.0, 0.0): 1.0}
    for _ in range(n):
        nxt: dict[tuple[float, float], float] = {}
        for (x, y), p in current.items():
            for (dx, dy), q in step_items:
                key = (x + dx, y + dy)
                nxt[key] = nxt.get(key, 0.0) + p * q
        current = nxt
        if len(current) > ENUMERATION_BUDGET:
            raise SupportTooLargeError(f"position support exceeds the {ENUMERATION_BUDGET} budget")
        dists.append(current)
    return dists


def exact_norm_means(model, n: int) -> list[float]:
    """E|S_k| for k = 1..n, exactly, for finite-support models."""
    out = []
    for dist in exact_position_distributions(model, n):
        out.append(sum(p * math.hypot(x, y) for (x, y), p in dist.items()))
    return out


def exact_triangle_mean(model, m: int, k: int) -> float:
    """E T(S_m, S_k - S_m): expected triangle area spanned by two walk legs.

    Uses independence of S_m and S_k - S_m (distributed as S_{k-m}).
    """
    if not 1 <= m < k:
        raise ValueError(f"need 1 <= m < k, got m={m}, k={k}")
    dists = exact_position_distributions(model, max(m, k - m))
    d1, d2 = dists[m - 1], dists[k - m - 1]
    total = 0.0
    for (ux, uy), p in d1.items():
        for (vx, vy), q in d2.items():
            total += p * q * 0.5 * abs(ux * vy - uy * vx)
    return total


@dataclass(frozen=True)
class ExactMoments:
    EL: float
    VarL: float
    EA: float


def _exact_moments(L_all: np.ndarray, A_all: np.ndarray, w: np.ndarray) -> ExactMoments:
    # einsum without ``optimize`` never calls BLAS, whose threaded sums round
    # differently with the thread count; the centred form of the variance
    # avoids the cancellation of E[L^2] - (E L)^2.
    el = float(np.einsum("i,i", w, L_all))
    dev = L_all - el
    return ExactMoments(el, float(np.einsum("i,i,i", w, dev, dev)), float(np.einsum("i,i", w, A_all)))


def enumerate_exact(model, n: int) -> ExactMoments:
    """Exact E[L_n], Var[L_n], E[A_n] by full enumeration of support^n.

    Raises:
        NotFiniteSupportError: for models with continuous increments.
        SupportTooLargeError: if support^n exceeds ENUMERATION_BUDGET.
    """
    if n == 0:
        return ExactMoments(0.0, 0.0, 0.0)
    L_all, A_all, p = _enumerate_functionals(model, n)
    return _exact_moments(L_all, A_all, _sequence_weights(p, n))


@dataclass(frozen=True)
class MartingaleCheck:
    """Both sides of Var L_n = sum_i E[D_i^2], and the moments they came from."""

    moments: ExactMoments
    rhs: float

    @property
    def lhs(self) -> float:
        return self.moments.VarL


def martingale_decomposition_check(model, n: int) -> MartingaleCheck:
    """Exact check of Var L_n = sum_i E[D_i^2] for the resampling differences.

    D_i = E[L_n - L_n^(i) | first i steps], where L_n^(i) is the perimeter
    after independently resampling step i.  Both sides are evaluated from one
    enumeration of support^n: the left as the variance over it, the right by
    averaging the resampled perimeter over (replacement step, future) for
    every prefix.  The same enumeration gives the exact E L_n and E A_n.

    Raises:
        NotFiniteSupportError: for models with continuous increments.
        SupportTooLargeError: if support^n or support^(n+1) exceeds
            ENUMERATION_BUDGET; both are checked before enumerating.
    """
    s = len(model.support()[0])
    _check_budget(s, n)
    _check_budget(s, n + 1)
    L_all, A_all, p = _enumerate_functionals(model, n)

    rhs = 0.0
    for i in range(1, n + 1):
        T = L_all.reshape(s ** (i - 1), s, s ** (n - i))
        m1 = np.einsum("hsf,f->hs", T, _sequence_weights(p, n - i))  # E[L_n | first i steps]
        m2 = np.einsum("hs,s->h", m1, p)  # E[L_n^(i) | first i steps], resampled
        d = m1 - m2[:, None]
        rhs += float(np.einsum("h,hs,hs,s", _sequence_weights(p, i - 1), d, d, p))
    return MartingaleCheck(_exact_moments(L_all, A_all, _sequence_weights(p, n)), rhs)
