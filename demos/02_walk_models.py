"""The increment-model zoo: analytic moments next to sampled paths.

Run:  python3 demos/02_walk_models.py
"""

import numpy as np

from hullwalk.hullstream import CheckpointSchedule, functional_series
from hullwalk.walkgen import RngStream, parse_model, sample_path

SPECS = ["lattice", "hex6", "pr", "pr:0.2,0", "gauss", "st-binary", "st-gauss", "pareto:1.5"]

print(f"{'model':>12} | {'mu':>12} | {'sigma^2':>8} | {'s2_mu':>6} | {'s2_perp':>7} | {'det':>6}")
for spec in SPECS:
    m = parse_model(spec).moments()
    fmt = lambda v: "-" if v is None else f"{v:.3f}"
    print(
        f"{spec:>12} | ({m.mu[0]:+.2f},{m.mu[1]:+.2f}) | {fmt(m.sigma2):>8} | "
        f"{fmt(m.sigma2_mu):>6} | {fmt(m.sigma2_perp):>7} | {fmt(m.det_Sigma):>6}"
    )

# Reproducibility: a stream is its (master_seed, stream_index) pair, and a
# path is an (n+1, 2) positions array drawn from the stream's generator.
model = parse_model("pr:0.2,0")
a = sample_path(model, 5, RngStream(2024, 1).generator())
b = sample_path(model, 5, RngStream(2024, 1).generator())
print("\nsame stream, same path:", np.array_equal(a, b))

# Empirical moments of a large sample against the closed forms.
inc = parse_model("hex6").sample_increments(200_000, RngStream(7).generator())
print("hex6 sampled mean:", inc.mean(axis=0).round(4).tolist(), " (analytic (0, 0))")
print("hex6 sampled cov :", np.cov(inc.T).round(4).tolist(), " (analytic [[2/3, -1/3], [-1/3, 2/3]])")

# A walk's hull functionals along the path, at geometric checkpoints.
path = sample_path(model, 20_000, RngStream(11, 0).generator())
series = functional_series(path, CheckpointSchedule.geometric(100, 2.0))
print("\n n      L_n        A_n       r_n")
for n, L, A, r in zip(series.checkpoints, series.L, series.A, series.r):
    print(f"{n:>6} {L:>9.1f} {A:>10.1f} {r:>8.3f}")
print("(with drift 0.2: L_n grows like 0.4 n, A_n like 0.118 n^1.5, r_n levels off)")
