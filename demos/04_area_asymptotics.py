"""Expected hull area: the exact double-sum identity and its scaling limits.

E A_n is a double sum of expected triangle areas over the walk's legs.  The
zero-drift limit is (pi/2) sqrt(det Sigma) n, the drifted one is
(|mu| sqrt(2 pi sigma2_perp) / 3) n^(3/2), and the inner coefficient sum
sum 1/sqrt(m(k-m)) tends to pi.

Run:  python3 demos/04_area_asymptotics.py
"""

import math

from hullwalk.hullstream import CheckpointSchedule
from hullwalk.limits import bnb_expected_area, gaussian_spacetime_area_exact, partial_sum_pi
from hullwalk.montecarlo import enumerate_exact, estimate, exact_triangle_mean
from hullwalk.walkgen import parse_model

# --- exact: path enumeration vs the triangle-area double sum ---------------
for spec in ("lattice", "hex6"):
    model = parse_model(spec)
    print(f"{spec}: enumeration vs double-sum identity")
    for n in range(2, 6):
        direct = enumerate_exact(model, n).EA
        summed = bnb_expected_area(lambda m, k: exact_triangle_mean(model, m, k), n)
        print(f"  n={n}: {direct:.12f} vs {summed:.12f}")

# --- the inner sum converges to pi -----------------------------------------
print("\nsum_m 1/sqrt(m(k-m)):")
for k in (2, 100, 10_000, 1_000_000):
    print(f"  k={k:>8}: {partial_sum_pi(k):.6f}   (pi = {math.pi:.6f})")

# --- the space-time Gaussian walk has a closed-form E A_n ------------------
print("\nspace-time Gaussian walk, E A_n / n^(3/2):")
for n in (10, 100, 10_000):
    print(f"  n={n:>6}: {gaussian_spacetime_area_exact(n) / n**1.5:.6f}")
print(f"  limit : {math.sqrt(2 * math.pi) / 3:.6f}")

# --- Monte Carlo area scalings ---------------------------------------------
n, R = 20_000, 400
for spec, scale, target in (
    ("pr", n, math.pi / 4),
    ("pr:0.4,0", n**1.5, 0.4 * math.sqrt(math.pi) / 3),
):
    ests = estimate(parse_model(spec), n, CheckpointSchedule.explicit([n]), R, 17)
    mean_a = next(e for e in ests if e.statistic == "meanA")
    print(f"\n{spec}: mean A_n / scale = {mean_a.value / scale:.4f}  (limit {target:.4f})")
