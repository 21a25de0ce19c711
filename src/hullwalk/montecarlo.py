"""Monte Carlo replication over walk paths, with exact small-n oracles.

Replicate i always draws from the Philox stream (master_seed, i), and
aggregation runs over a replicate-indexed array, so results are bit-identical
for a fixed seed regardless of how many worker processes execute the paths.
The worker count is capped by the HULLWALK_THREADS environment variable, and
by the work: each worker gets at least 2**16 walk positions.

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
from .hullstream import CheckpointSchedule, _series_arrays
from .walkgen import RngStream, pow2_units, sample_path

ENUMERATION_BUDGET = 10**7
# Paths per batched hull call in the enumeration: peak memory grows with it
# (about 4 MB above the enumeration's arrays at 4096) and speed levels off.
_ENUM_CHUNK = 4096
# Walk positions a pool worker gets at least, so that its share of sampling
# and hull work outweighs the fork and result transfer that the pool costs.
_WORKER_POSITIONS = 2**16
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


def _map_replicates(func, total: int, args: tuple, positions: int = 1024) -> np.ndarray:
    """Run ``func(lo, hi, *args)`` over [0, total) and stack results by index.

    ``func`` must be a module-level function returning an array whose leading
    axis has length hi - lo; the stacked array has that array's memory layout.
    ``positions`` is the walk positions one replicate costs: each worker gets
    at least ``_WORKER_POSITIONS`` of them (64 replicates at the default), so
    a pool starts only when every worker has work that outweighs its start-up.
    Each piece is copied into place and dropped as it arrives, and the output
    ordering depends only on replicate indices, never on scheduling.
    """
    workers = min(worker_count(), total, max(1, total * positions // _WORKER_POSITIONS))
    if workers <= 1:
        return func(0, total, *args)
    n_chunks = workers * 4
    bounds = np.linspace(0, total, n_chunks + 1).astype(int).tolist()
    out = None
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            (lo, hi, pool.submit(func, lo, hi, *args))
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]
        while futures:
            lo, hi, fut = futures.pop(0)
            piece = fut.result()
            if out is None:
                out = np.empty_like(piece, shape=(total, *piece.shape[1:]))
            out[lo:hi] = piece
    return out


def _series_block(lo: int, hi: int, model, n: int, checkpoints: tuple, master_seed: int) -> np.ndarray:
    out = np.empty((hi - lo, len(checkpoints), 3))
    cps = list(checkpoints)
    for i in range(lo, hi):
        path = sample_path(model, n, RngStream(master_seed, i).generator())
        out[i - lo] = _series_arrays(path, cps)
    return out


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error s / sqrt(R).

    The sums run in ``pow2_units``, so squares of tiny values do not
    underflow, and in numpy floats under np.errstate, so an overflow or an
    infinite value raises FloatingPointError instead of giving a NaN or an
    infinity.
    """
    scaled, k = pow2_units(values)
    with np.errstate(over="raise", invalid="raise"):
        mean, sd = np.ldexp([scaled.mean(), scaled.std(ddof=1)], 2 * k)
    return float(mean), float(sd) / math.sqrt(len(values))


def _var_se(values: np.ndarray) -> tuple[float, float]:
    """Unbiased sample variance and its standard error from the fourth moment.

    Runs in ``pow2_units`` and raises FloatingPointError on an overflow or an
    infinite value, as ``_mean_se``.
    """
    r = len(values)
    scaled, k = pow2_units(values)
    with np.errstate(over="raise", invalid="raise"):
        centered = scaled - scaled.mean()
        s2 = scaled.var(ddof=1)  # numpy's own pairwise sum: no BLAS, so no thread dependence
        m4 = np.mean(centered**4)
        var_of_var = (m4 - s2 * s2 * (r - 3) / (r - 1)) / r
        s2, se = np.ldexp([s2, math.sqrt(max(float(var_of_var), 0.0))], 4 * k)
    return float(s2), float(se)


def estimate(model, n: int, sched: CheckpointSchedule, replicates: int, master_seed: int):
    """Mean/variance estimates of L and A plus the mean inradius, per checkpoint.

    Returns one MonteCarloEstimate per (checkpoint, statistic) with statistic
    in {meanL, varL, meanA, varA, meanR}.  Standard errors use s/sqrt(R) for
    means and the fourth-central-moment estimator for variances.

    Raises:
        ValueError: if fewer than two replicates are requested.
    """
    if replicates < 2:
        raise ValueError(f"need replicates >= 2, got {replicates}")
    checkpoints = tuple(sched.resolve(n))
    vals = _map_replicates(_series_block, replicates, (model, n, checkpoints, master_seed), n + 1)
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
    """One terminal functional value (L, A, or r at step n) per replicate, indexed by replicate.

    Raises:
        FloatingPointError: if a value is not finite.
    """
    if replicates < 1:
        raise ValueError(f"need replicates >= 1, got {replicates}")
    col = _FUNCTIONAL_COLUMN[functional]
    vals = _map_replicates(_terminal_block, replicates, (model, n, col, master_seed), n + 1)
    if not np.isfinite(vals).all():
        raise FloatingPointError("sample values must be finite")
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
        raise ValueError(f"need replicates >= 2, got {replicates}")
    ks = tuple(int(k) for k in ks)
    if any(k < 1 for k in ks):
        raise ValueError("norm means need k >= 1")
    vals = _map_replicates(_norm_block, replicates, (model, ks, master_seed), max(ks) + 1)
    means, ses = np.array([_mean_se(column) for column in vals.T]).T
    return means, ses


# ---------------------------------------------------------------------------
# Distribution tests
# ---------------------------------------------------------------------------


def ks_statistic(samples, cdf) -> float:
    """One-sample Kolmogorov-Smirnov distance between samples and a vectorised cdf.

    D = max over order statistics x_(i) of max(i/m - F(x_(i)), F(x_(i)) - (i-1)/m).

    Raises:
        ValueError: with fewer than two samples, or if ``cdf`` does not
            return one value per sample.
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    m = len(xs)
    if m < 2:
        raise ValueError(f"need at least 2 samples, got {m}")
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
        ValueError: before any sampling, if n < 1 or replicates < 2, or if
            the model has zero drift, an infinite second moment or no
            fluctuation along the drift (sigma2_mu = 0), where the Gaussian
            limit fails.
    """
    if n < 1:
        raise ValueError(f"the CLT check needs n >= 1 steps, got {n}")
    if replicates < 2:
        raise ValueError(f"the CLT check needs replicates >= 2, got {replicates}")
    mom = model.moments()
    if mom.norm_mu == 0.0:
        raise ValueError("the Gaussian perimeter limit needs a drift")
    if not mom.finite_variance:
        raise ValueError("the Gaussian perimeter limit needs a finite second moment")
    if mom.sigma2_mu <= 0.0:
        raise ValueError(
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
        raise ValueError(f"support^{k} = {s}^{k} exceeds the {ENUMERATION_BUDGET} budget")
    if s**k > ENUMERATION_BUDGET:
        raise ValueError(f"support^{k} = {s**k} exceeds the {ENUMERATION_BUDGET} budget")


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
    ``_sequence_weights(probs, n)`` gives the entries' weights.  Blocks of path
    indices are dispatched by ``_map_replicates``, and each block goes through
    ``geom2d._perimeter_area_rows`` in chunks of ``_ENUM_CHUNK``; that is exact
    for integer steps only, and any other table raises ValueError first.
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
    LA = _map_replicates(_enum_block, s**n, (step_arr, n), n + 1)
    L_all, A_all = LA.T  # the rows of a C-ordered (2, s**n) array, each contiguous
    return L_all, A_all, np.asarray(probs, dtype=float)


def _enum_block(lo: int, hi: int, steps: np.ndarray, n: int) -> np.ndarray:
    """L and A of the step sequences with indices lo..hi-1, as the columns of an (hi - lo, 2) array.

    The array is the transpose of a C-ordered (2, hi - lo) one, so each column
    is contiguous, and so is each column of ``_map_replicates``' stacked array.
    Each row's pair depends only on its own path, not on the chunk it is in.
    """
    s = len(steps)
    place = s ** np.arange(n - 1, -1, -1)
    out = np.empty((2, hi - lo))
    for a in range(lo, hi, _ENUM_CHUNK):
        b = min(a + _ENUM_CHUNK, hi)
        digits = np.arange(a, b)[:, None] // place % s
        positions = np.zeros((b - a, n + 1, 2))
        np.cumsum(steps[digits], axis=1, out=positions[:, 1:])
        out[0, a - lo : b - lo], out[1, a - lo : b - lo] = geom2d._perimeter_area_rows(positions)
    return out.T


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
            raise ValueError(f"position support exceeds the {ENUMERATION_BUDGET} budget")
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
        ValueError: for models with continuous increments, or if support^n
            exceeds ENUMERATION_BUDGET.
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

    @property
    def holds(self) -> bool:
        """Whether the two sides agree to 1e-10 relative (1e-12 absolute); a NaN never does."""
        return math.isclose(self.lhs, self.rhs, rel_tol=1e-10, abs_tol=1e-12)


def martingale_decomposition_check(model, n: int) -> MartingaleCheck:
    """Exact check of Var L_n = sum_i E[D_i^2] for the resampling differences.

    D_i = E[L_n - L_n^(i) | first i steps], where L_n^(i) is the perimeter
    after independently resampling step i.  Both sides are evaluated from one
    enumeration of support^n: the left as the variance over it, the right by
    averaging the resampled perimeter over (replacement step, future) for
    every prefix.  The same enumeration gives the exact E L_n and E A_n.

    Raises:
        ValueError: for models with continuous increments, or if support^n
            or support^(n+1) exceeds ENUMERATION_BUDGET; both are checked
            before enumerating.
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
