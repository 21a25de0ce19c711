"""Expected perimeter and its variance against the exact theory.

Spitzer-Widom gives E L_n exactly from the norm means E|S_k|; the limits are
2|mu| n under drift and 4 E|Y| sqrt(n) without, and n^(-1) Var L_n tends to
4 sigma2_mu for drifted walks along with a Gaussian limit law.

Run:  python3 demos/03_perimeter_asymptotics.py   (about 5 s on two cores)
"""

from hullwalk.hullstream import CheckpointSchedule
from hullwalk.limits import (
    expected_norm_gaussian,
    interpolate_norm_means,
    limit_constants,
    log_spaced_ks,
    sw_expected_perimeter,
)
from hullwalk.montecarlo import (
    clt_test,
    enumerate_exact,
    estimate,
    exact_norm_means,
    norm_mean_estimates,
)
from hullwalk.walkgen import parse_model

# --- exact: enumeration vs the Spitzer-Widom sum on the square lattice ----
lattice = parse_model("lattice")
print("lattice walk, exact E L_n vs Spitzer-Widom:")
for n in range(1, 7):
    norm_means = exact_norm_means(lattice, n)
    print(f"  n={n}: enumeration {enumerate_exact(lattice, n).EL:.12f}"
          f"  SW {sw_expected_perimeter(norm_means):.12f}")

# --- Monte Carlo norm means feeding the same identity (continuous model) --
model = parse_model("pr:0.2,0")
n = 2000
ks = log_spaced_ks(n)
means, ses = norm_mean_estimates(model, ks, replicates=4000, master_seed=5)
sw = sw_expected_perimeter(interpolate_norm_means(ks, means, n))
direct = estimate(model, n, CheckpointSchedule.explicit([n]), 2000, 6)
mean_l = next(e for e in direct if e.statistic == "meanL")
print(f"\nPR(0.2,0) at n={n}: SW from sampled norm means {sw:.1f}"
      f"  vs direct mean L {mean_l.value:.1f} +- {mean_l.std_error:.1f}")

# --- limit constants -------------------------------------------------------
print("\nlimit constants:")
for name, value in limit_constants(model.moments()):
    print(f"  {name:>18} = {value:.6f}")
zero = parse_model("pr")
print("zero-drift counterpart: 4 E|Y| =", 4 * expected_norm_gaussian(zero.moments().sigma_matrix()),
      " (simulated slope is near 3.53 at accessible n)")

# --- drifted perimeter is asymptotically Gaussian --------------------------
res = clt_test(model, n=5000, replicates=2000, master_seed=1)
print(f"\nCLT check at n=5000: KS distance {res.D:.4f} vs threshold {res.threshold:.4f}"
      f" -> {'pass' if res.passed else 'fail'}")
