"""Increment models and path generation for planar random walks.

Each model carries its analytic moments (mean drift, covariance, the variance
split along and across the drift direction) next to a vectorized sampler; a
finite-support walk is a step table, from which both are derived once.

Every path is an (n+1, 2) positions array starting at the origin, drawn by
``sample_path(model, n, rng)`` from a numpy Generator; the Brownian motion and
bridge are Gaussian walks drawn the same way and then scaled.  Randomness
comes from counter-based Philox streams keyed by (master_seed, stream_index):
``RngStream(seed, i).generator()`` reproduces replicate i's draws no matter
how work is scheduled across processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotFiniteSupportError, NotPSDError

DEFAULT_BROWNIAN_GRID = 2**17  # discretization bias on hull functionals < 1% here


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream identified by (master_seed, stream_index)."""

    master_seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        key = np.array(
            [self.master_seed & 0xFFFFFFFFFFFFFFFF, self.stream_index & 0xFFFFFFFFFFFFFFFF],
            dtype=np.uint64,
        )
        return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class MomentSummary:
    """Analytic increment moments.

    ``sigma2_mu`` and ``sigma2_perp`` are the variances of the centered
    increment projected on the drift direction and its 90-degree
    counterclockwise rotation; they are None when the drift vanishes.  All
    second-moment fields are None when the model has no finite variance.
    """

    mu: tuple[float, float]
    Sigma: tuple[tuple[float, float], tuple[float, float]] | None = None
    sigma2: float | None = None
    sigma2_mu: float | None = None
    sigma2_perp: float | None = None
    det_Sigma: float | None = None

    @property
    def finite_variance(self) -> bool:
        return self.Sigma is not None

    @property
    def norm_mu(self) -> float:
        return math.hypot(self.mu[0], self.mu[1])

    def sigma_matrix(self) -> np.ndarray:
        if self.Sigma is None:
            raise ValueError("covariance unavailable (infinite variance model)")
        return np.array(self.Sigma, dtype=float)


def _split_moments(mu: np.ndarray, Sigma: np.ndarray) -> MomentSummary:
    sigma2 = float(np.trace(Sigma))
    norm_mu = float(np.hypot(mu[0], mu[1]))
    if norm_mu > 0.0:
        mu_hat = mu / norm_mu
        mu_perp = np.array([-mu_hat[1], mu_hat[0]])
        s_mu = float(mu_hat @ Sigma @ mu_hat)
        s_perp = float(mu_perp @ Sigma @ mu_perp)
    else:
        s_mu = s_perp = None
    return MomentSummary(
        mu=(float(mu[0]), float(mu[1])),
        Sigma=((float(Sigma[0, 0]), float(Sigma[0, 1])), (float(Sigma[1, 0]), float(Sigma[1, 1]))),
        sigma2=sigma2,
        sigma2_mu=s_mu,
        sigma2_perp=s_perp,
        det_Sigma=float(np.linalg.det(Sigma)),
    )


def psd_sqrt(cov: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root of a 2x2 covariance, in closed form.

    For S = [[a, b], [b, c]], sqrt(S) = (S + sqrt(det S) I) / t with
    t = sqrt(a + c + 2 sqrt(det S)); the zero matrix maps to itself.

    Raises:
        NotPSDError: if ``cov`` is not symmetric positive semidefinite.
        ValueError: if its determinant, trace or root overflows the float range.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (2, 2):
        raise NotPSDError(f"expected a 2x2 matrix, got shape {cov.shape}")
    if not np.isfinite(cov).all():
        raise NotPSDError("covariance must be finite")
    # Python floats: an overflow is an inf, refused below, and never a warning
    (a, b01), (b10, c) = cov.tolist()
    scale = max(abs(a), abs(b01), abs(b10), abs(c), 1.0)
    if abs(b01 - b10) > 1e-12 * scale:
        raise NotPSDError("covariance must be symmetric")
    b = 0.5 * (b01 + b10)
    det = a * c - b * b
    if a < -1e-12 * scale or c < -1e-12 * scale or det < -1e-12 * scale * scale:
        raise NotPSDError("covariance must be positive semidefinite")
    s = math.sqrt(max(det, 0.0))
    t_sq = max(a + c + 2.0 * s, 0.0)
    if not math.isfinite(det + t_sq):
        raise ValueError("covariance too large: its determinant, trace or root overflows")
    if t_sq == 0.0:
        return np.zeros((2, 2))
    t = math.sqrt(t_sq)
    return (np.array([[a + s, b], [b, c + s]])) / t


# ---------------------------------------------------------------------------
# Increment models
# ---------------------------------------------------------------------------


def _as_pair(value) -> tuple[float, float]:
    x, y = value
    return (float(x), float(y))


def _step_table(rows) -> np.ndarray:
    steps = np.array(rows, dtype=float)
    steps.flags.writeable = False
    return steps


class _FiniteSupport:
    """A walk whose step is drawn uniformly from the rows of the class's ``steps``.

    The moments, the sampler and the support all follow from that table;
    ``name`` is the model's spec string.  The table holds integers: exact
    enumeration's batched hull is exact only on integer positions, and it
    refuses any other table.
    """

    def moments(self) -> MomentSummary:
        k = len(self.steps)
        mu = self.steps.sum(0) / k
        centred = self.steps - mu
        return _split_moments(mu, centred.T @ centred / k)

    def sample_increments(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.steps[rng.integers(0, len(self.steps), size=n)]

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        return self.steps, np.full(len(self.steps), 1.0 / len(self.steps))

    def spec_string(self) -> str:
        return self.name


class _ContinuousSupport:
    def support(self):
        raise NotFiniteSupportError(f"model {self.spec_string()!r} has continuous support")


@dataclass(frozen=True)
class LatticeSRW(_FiniteSupport):
    """Simple random walk on Z^2: steps (+-1, 0), (0, +-1) each with probability 1/4."""

    name = "lattice"
    steps = _step_table([[1, 0], [-1, 0], [0, 1], [0, -1]])


@dataclass(frozen=True)
class Hex6(_FiniteSupport):
    """Six-step lattice walk: (+-1,0), (0,+-1), (-1,1), (1,-1) each with probability 1/6."""

    name = "hex6"
    steps = _step_table([[1, 0], [-1, 0], [0, 1], [0, -1], [-1, 1], [1, -1]])


@dataclass(frozen=True)
class SpacetimeBinary(_FiniteSupport):
    """Steps (1, -1) and (1, 1) each with probability 1/2.

    The walk is the space-time diagram of a one-dimensional simple random
    walk; its centered increments are orthogonal to the drift, which is the
    degenerate case where the perimeter variance grows slower than n.
    """

    name = "st-binary"
    steps = _step_table([[1, -1], [1, 1]])


@dataclass(frozen=True)
class PearsonRayleigh(_ContinuousSupport):
    """Unit-length step in a uniformly random direction, plus a fixed drift."""

    drift: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "drift", _as_pair(self.drift))

    def moments(self) -> MomentSummary:
        # E[cos^2 Theta] = 1/2, so the centered covariance is I/2 regardless of drift.
        return _split_moments(np.asarray(self.drift, dtype=float), 0.5 * np.eye(2))

    def sample_increments(self, n: int, rng: np.random.Generator) -> np.ndarray:
        theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
        out = np.empty((n, 2))
        np.cos(theta, out=out[:, 0])
        np.sin(theta, out=out[:, 1])
        out[:, 0] += self.drift[0]
        out[:, 1] += self.drift[1]
        return out

    def spec_string(self) -> str:
        if self.drift == (0.0, 0.0):
            return "pr"
        return f"pr:{self.drift[0]:g},{self.drift[1]:g}"


@dataclass(frozen=True)
class Gaussian(_ContinuousSupport):
    """Gaussian increments with arbitrary mean and 2x2 PSD covariance."""

    mean: tuple[float, float] = (0.0, 0.0)
    cov: tuple[tuple[float, float], tuple[float, float]] = ((1.0, 0.0), (0.0, 1.0))
    _sqrt: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "mean", _as_pair(self.mean))
        cov = np.asarray(self.cov, dtype=float)
        root = psd_sqrt(cov)  # validates symmetry and positive semidefiniteness
        object.__setattr__(
            self, "cov", ((float(cov[0, 0]), float(cov[0, 1])), (float(cov[1, 0]), float(cov[1, 1])))
        )
        object.__setattr__(self, "_sqrt", root)

    def moments(self) -> MomentSummary:
        return _split_moments(np.asarray(self.mean, dtype=float), np.array(self.cov, dtype=float))

    def sample_increments(self, n: int, rng: np.random.Generator) -> np.ndarray:
        out = rng.standard_normal((n, 2))
        root = self._sqrt
        if root[0, 1] == 0.0 and root[1, 0] == 0.0:
            out[:, 0] *= root[0, 0]  # a diagonal root scales each column: no BLAS call
            out[:, 1] *= root[1, 1]
        else:
            out = out @ root
        out[:, 0] += self.mean[0]  # per column: a broadcast over width 2 is slow
        out[:, 1] += self.mean[1]
        return out

    def spec_string(self) -> str:
        (a, b), (_, c) = self.cov
        mx, my = self.mean
        if (mx, my) == (0.0, 0.0):
            return f"gauss:{a:g},{b:g},{c:g}"
        return f"gauss:{a:g},{b:g},{c:g},{mx:g},{my:g}"


@dataclass(frozen=True)
class SpacetimeGaussian(_ContinuousSupport):
    """Steps (1, xi) with xi standard normal: space-time diagram of a Gaussian walk."""

    def moments(self) -> MomentSummary:
        return _split_moments(np.array([1.0, 0.0]), np.diag([0.0, 1.0]))

    def sample_increments(self, n: int, rng: np.random.Generator) -> np.ndarray:
        out = np.empty((n, 2))
        out[:, 0] = 1.0
        out[:, 1] = rng.standard_normal(n)
        return out

    def spec_string(self) -> str:
        return "st-gauss"


@dataclass(frozen=True)
class ParetoDirection(_ContinuousSupport):
    """Heavy-tailed step: radius (1 - U)^(-1/alpha), direction uniform, plus drift.

    The radius is Pareto(alpha) with minimum 1, so the mean is finite for
    alpha > 1 and the variance only for alpha > 2.  Exploratory model; no
    closed-form hull asymptotics are claimed for it.
    """

    alpha: float = 1.5
    drift: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not self.alpha > 1.0:
            raise ValueError(f"alpha must exceed 1 for a finite mean, got {self.alpha}")
        object.__setattr__(self, "drift", _as_pair(self.drift))

    def moments(self) -> MomentSummary:
        if self.alpha > 2.0:
            er2 = self.alpha / (self.alpha - 2.0)
            return _split_moments(np.asarray(self.drift, dtype=float), 0.5 * er2 * np.eye(2))
        return MomentSummary(mu=self.drift)

    def sample_increments(self, n: int, rng: np.random.Generator) -> np.ndarray:
        radius = (1.0 - rng.random(n)) ** (-1.0 / self.alpha)
        theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
        out = np.empty((n, 2))
        out[:, 0] = radius * np.cos(theta) + self.drift[0]
        out[:, 1] = radius * np.sin(theta) + self.drift[1]
        return out

    def spec_string(self) -> str:
        if self.drift == (0.0, 0.0):
            return f"pareto:{self.alpha:g}"
        return f"pareto:{self.alpha:g},{self.drift[0]:g},{self.drift[1]:g}"


# ---------------------------------------------------------------------------
# Model specification grammar
# ---------------------------------------------------------------------------

MODEL_GRAMMAR = (
    "lattice | hex6 | pr[:dx,dy] | gauss[:s11,s12,s22[,mx,my]] | "
    "st-binary | st-gauss | pareto:alpha[,dx,dy]"
)

# name -> (allowed argument counts, constructor taking the parsed arguments)
_MODELS = {
    "lattice": ((0,), LatticeSRW),
    "hex6": ((0,), Hex6),
    "pr": ((0, 2), lambda *drift: PearsonRayleigh(drift or (0.0, 0.0))),
    "gauss": (
        (0, 3, 5),
        lambda s11=1.0, s12=0.0, s22=1.0, *mean: Gaussian(mean or (0.0, 0.0), ((s11, s12), (s12, s22))),
    ),
    "st-binary": ((0,), SpacetimeBinary),
    "st-gauss": ((0,), SpacetimeGaussian),
    "pareto": ((1, 3), lambda alpha, *drift: ParetoDirection(alpha, drift or (0.0, 0.0))),
}


def parse_model(spec: str):
    """Parse a model spec string (see MODEL_GRAMMAR); the inverse of ``spec_string``."""
    spec = spec.strip()
    name, _, argstr = spec.partition(":")
    args = [float(tok) for tok in argstr.split(",")] if argstr else []
    counts, make = _MODELS.get(name.strip().lower(), ((), None))
    if make is None:
        raise ValueError(f"unknown model spec {spec!r}; grammar: {MODEL_GRAMMAR}")
    if len(args) not in counts:
        raise ValueError(f"bad argument count in model spec {spec!r}; grammar: {MODEL_GRAMMAR}")
    if not all(map(math.isfinite, args)):
        raise ValueError(f"non-finite argument in model spec {spec!r}; grammar: {MODEL_GRAMMAR}")
    return make(*args)


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------


def sample_path(model, n: int, rng: np.random.Generator) -> np.ndarray:
    """Positions S_0 = 0, S_1, ..., S_n of an n-step walk, as an (n+1, 2) array.

    The steps are ``model.sample_increments(n, rng)``; their partial sums
    fill one preallocated array, so a path costs one array of its size plus
    the draws, which sets the peak memory of ``constants``.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    pos = np.empty((n + 1, 2))
    pos[0] = 0.0
    with np.errstate(over="raise"):  # an overflowing walk is a FloatingPointError
        np.cumsum(model.sample_increments(n, rng), axis=0, out=pos[1:])
    return pos


def brownian_path(cov, grid_n: int, rng: np.random.Generator) -> np.ndarray:
    """Discretized correlated Brownian motion on [0, 1].

    The Gaussian walk with covariance ``cov``, scaled by 1/sqrt(grid_n), so
    its positions approximate sqrt(cov) b(k / grid_n).  Draws grid_n standard
    normal pairs from ``rng``.

    Raises:
        NotPSDError: if ``cov`` is not symmetric positive semidefinite.
    """
    if grid_n < 1:
        raise ValueError(f"grid_n must be >= 1, got {grid_n}")
    pos = sample_path(Gaussian(cov=cov), grid_n, rng)
    pos /= math.sqrt(grid_n)
    return pos


def bridge_path(grid_n: int, rng: np.random.Generator) -> np.ndarray:
    """Standard planar Brownian bridge on [0, 1]: b(t) - t b(1) on a grid.

    b is ``brownian_path(I, grid_n, rng)``, pinned in place, so the bridge
    makes the same draws.
    """
    pos = brownian_path(np.eye(2), grid_n, rng)
    t = np.arange(grid_n + 1) / grid_n
    pos[:, 0] -= t * pos[-1, 0]
    pos[:, 1] -= t * pos[-1, 1]
    return pos

