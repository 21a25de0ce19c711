"""Brownian hull constants: closed forms, rigorous bounds, and simulation.

The hull of a unit-time planar Brownian motion has expected perimeter
sqrt(8 pi) and expected area pi/2; the space-time hull of a line Brownian
motion has expected area sqrt(2 pi)/3; the squared range of the line motion
has mean 4 log 2.  Their variances have rigorous (wide) bounds, and the
perimeter variance can be pinned down by the Rogers-Shepp double integral.

Run:  python3 demos/05_brownian_constants.py   (about 15 s on two cores; shrink
      the replicate count in the variables below for a quick look)
"""

import math

from hullwalk.limits import (
    BROWNIAN,
    assemble_report,
    brownian_constant_estimates,
    brownian_reference_values,
    goldman_bridge_variance,
    rogers_shepp_second_moment,
    u0_bounds,
    v0_bounds,
    vplus_bounds,
)

GRID = 2**15
REPLICATES = 400

print("closed forms:")
print(f"  E l_1      = sqrt(8 pi)     = {BROWNIAN.E_l1:.6f}")
print(f"  E a_1      = pi/2           = {BROWNIAN.E_a1:.6f}")
print(f"  E atilde_1 = sqrt(2 pi)/3   = {BROWNIAN.E_atilde1:.6f}")
print(f"  E range^2  = 4 log 2        = {BROWNIAN.E_range_sq:.6f}")

rs = rogers_shepp_second_moment()
print(f"\nRogers-Shepp E[l_1^2] = {rs:.4f}  ->  Var l_1 = {rs - 8 * math.pi:.4f}")
print(f"Goldman bridge-perimeter variance = {goldman_bridge_variance():.6f}")

print("\nrigorous variance bounds:")
print("  u0(I):", u0_bounds(2.0, identity=True))
print("  v0   :", v0_bounds())
print("  v+   :", vplus_bounds())

print(f"\nMonte Carlo at grid 2^15, {REPLICATES} replicates:")
ests = brownian_constant_estimates(GRID, REPLICATES, master_seed=3)
for row in assemble_report(brownian_reference_values(), ests):
    est = f"{row.estimate.value:.4f} +- {row.estimate.std_error:.4f}"
    theo = "-" if row.theoretical is None else f"{row.theoretical:.4f}"
    print(f"  {row.quantity:>14}: {est:<22} theoretical {theo:<8} -> {row.verdict}")
