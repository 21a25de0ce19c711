"""Output checks for the benchmark workloads, computed without hullwalk.

Every reference value here comes from a closed form, a rigorous bound or an
enumeration written in this file; nothing imports the package under test.
Each ``check_*`` function takes the text a CLI command wrote and raises
``CheckFailed`` with the first violated condition.
"""

from __future__ import annotations

import functools
import json
import math

import numpy as np

# A Monte Carlo estimate passes when it lies within Z_BOUND of its reported
# standard errors of the reference (the CLI's own verdicts use the same five).
Z_BOUND = 5.0
# Exact enumeration must reproduce the closed-form sums to this relative error.
EXACT_RTOL = 1e-9
# Acceptance 7: E A_n / n^1.5 within 10 % of |mu| sqrt(2 pi sigma2_perp) / 3.
DRIFT_AREA_RTOL = 0.10

# Var l_1 = E[l_1^2] - 8 pi, with E[l_1^2] = 26.209056931296728553 from a
# 20-digit mpmath quadrature of the Rogers-Shepp double integral.
VAR_L1 = 26.209056931296728553 - 8.0 * math.pi


class CheckFailed(Exception):
    """An output disagrees with its independent reference."""


def _require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def _z_check(name: str, value: float, se: float, ref: float):
    _require(math.isfinite(value) and math.isfinite(se) and se > 0.0, f"{name}: bad estimate {value} +- {se}")
    z = (value - ref) / se
    _require(abs(z) <= Z_BOUND, f"{name} = {value:.6g} +- {se:.3g} is {z:+.2f} se from {ref:.6g}")


# ---------------------------------------------------------------------------
# simulate: CSV parsing and the checkpoint schedule
# ---------------------------------------------------------------------------


def parse_simulate_csv(text: str) -> tuple[dict, list[dict]]:
    """Metadata and float data rows of a ``hullwalk simulate`` CSV."""
    meta: dict = {}
    header = None
    rows = []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            key, sep, val = line[1:].partition(":")
            if sep:
                meta[key.strip()] = val.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, map(float, line.split(",")))))
    _require(header is not None and rows, "no data rows")
    return meta, rows


def geometric_checkpoints(n: int, start: int = 10, ratio: float = 1.25) -> list[int]:
    """The CLI's default schedule: start, then x ratio (rounded up, at least +1), then n."""
    out = []
    c = start
    while c < n:
        out.append(c)
        c = max(c + 1, math.ceil(c * ratio))
    return out + [n]


def _check_layout(meta: dict, rows: list[dict], steps: int, replicates: int):
    _require(int(meta.get("steps", -1)) == steps, f"steps {meta.get('steps')} != {steps}")
    _require(int(meta.get("replicates", -1)) == replicates, f"replicates {meta.get('replicates')} != {replicates}")
    ns = [int(r["n"]) for r in rows]
    _require(ns == geometric_checkpoints(steps), f"checkpoints {ns[:3]}... do not follow the schedule")


# ---------------------------------------------------------------------------
# diffusive-short: N(0, I) steps
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=4)
def gauss_means(n: int) -> tuple[np.ndarray, np.ndarray]:
    """E L_k and E A_k for k = 0..n under N(0, I) steps.

    Spitzer-Widom with E|S_k| = sqrt(k pi / 2) gives E L_n = sqrt(2 pi) sum k^(-1/2).
    Barndorff-Nielsen/Baxter with E T(S_m, S_k - S_m) = sqrt(m (k - m)) / 2 gives
    E A_n = (1/2) sum_{k=2}^n sum_{m<k} (m (k - m))^(-1/2).
    """
    k = np.arange(1, n + 1, dtype=float)
    inv_sqrt = 1.0 / np.sqrt(k)
    mean_L = np.concatenate([[0.0], math.sqrt(2.0 * math.pi) * np.cumsum(inv_sqrt)])
    # inner[j] = sum_{m=1}^{j+1} (m (j + 2 - m))^(-1/2), the k = j + 2 term
    inner = np.convolve(inv_sqrt, inv_sqrt)[: n - 1]
    mean_A = np.concatenate([[0.0, 0.0], 0.5 * np.cumsum(inner)])
    return mean_L, mean_A


def check_diffusive(text: str, steps: int, replicates: int):
    meta, rows = parse_simulate_csv(text)
    _check_layout(meta, rows, steps, replicates)
    mean_L, mean_A = gauss_means(steps)
    for r in rows:
        n = int(r["n"])
        _z_check(f"mean_L(n={n})", r["mean_L"], r["se_L"], mean_L[n])
        _z_check(f"mean_A(n={n})", r["mean_A"], r["se_A"], mean_A[n])


# ---------------------------------------------------------------------------
# drift-long: Pearson-Rayleigh unit steps plus a drift
# ---------------------------------------------------------------------------


def check_drift(text: str, steps: int, replicates: int, drift: float, sigma2: float, sigma2_perp: float):
    """Jensen bracket, Snyder-Steele, monotonicity and the n^1.5 area coefficient.

    E|S_k| lies between |E S_k| = k |mu| and sqrt(E|S_k|^2) = sqrt(k^2 |mu|^2 + k sigma2),
    so Spitzer-Widom brackets E L_n by 2 n |mu| and 2 sum_k sqrt(|mu|^2 + sigma2 / k).
    """
    meta, rows = parse_simulate_csv(text)
    _check_layout(meta, rows, steps, replicates)
    k = np.arange(1, steps + 1, dtype=float)
    upper_L = np.concatenate([[0.0], 2.0 * np.cumsum(np.sqrt(drift * drift + sigma2 / k))])
    for r in rows:
        n = int(r["n"])
        slack = Z_BOUND * r["se_L"]
        _require(
            2.0 * n * drift - slack <= r["mean_L"] <= upper_L[n] + slack,
            f"mean_L(n={n}) = {r['mean_L']:.6g} outside [{2 * n * drift:.6g}, {upper_L[n]:.6g}]",
        )
        ss = 0.5 * math.pi**2 * sigma2 * n
        _require(r["var_L"] <= ss + Z_BOUND * r["se_varL"], f"var_L(n={n}) = {r['var_L']:.6g} above Snyder-Steele {ss:.6g}")
    for col in ("mean_L", "mean_A"):
        vals = [r[col] for r in rows]
        _require(all(a <= b for a, b in zip(vals, vals[1:])), f"{col} decreases along the schedule")
    final = rows[-1]
    coeff = final["mean_A"] / final["n"] ** 1.5
    target = drift * math.sqrt(2.0 * math.pi * sigma2_perp) / 3.0
    _require(
        abs(coeff - target) <= DRIFT_AREA_RTOL * target,
        f"mean_A/n^1.5 = {coeff:.5f} not within 10 % of {target:.5f}",
    )


# ---------------------------------------------------------------------------
# exact-enum: finite-support lattice walks
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=4)
def exact_sums(steps: tuple, n: int) -> tuple[float, float]:
    """Spitzer-Widom E L_n and Barndorff-Nielsen/Baxter E A_n for equiprobable integer steps.

    The law of S_k comes from convolving the step law k times over integer
    positions; triangle means use the independence of S_m and S_k - S_m.
    """
    p = 1.0 / len(steps)
    dists = []
    cur = {(0, 0): 1.0}
    for _ in range(n):
        nxt: dict = {}
        for (x, y), w in cur.items():
            for dx, dy in steps:
                key = (x + dx, y + dy)
                nxt[key] = nxt.get(key, 0.0) + w * p
        cur = nxt
        dists.append(list(cur.items()))
    mean_L = 2.0 * math.fsum(
        math.fsum(w * math.hypot(x, y) for (x, y), w in dists[k - 1]) / k for k in range(1, n + 1)
    )

    @functools.lru_cache(maxsize=None)
    def triangle(m: int, j: int) -> float:
        return 0.5 * math.fsum(
            w * v * abs(ux * vy - uy * vx) for (ux, uy), w in dists[m - 1] for (vx, vy), v in dists[j - 1]
        )

    mean_A = math.fsum(triangle(min(m, k - m), max(m, k - m)) / (m * (k - m)) for k in range(2, n + 1) for m in range(1, k))
    return mean_L, mean_A


def check_exact(text: str, steps: tuple, n: int):
    out = json.loads(text)
    ref_L, ref_A = exact_sums(tuple(steps), n)
    for key, ref in (("EL", ref_L), ("EA", ref_A)):
        rel = abs(out[key] - ref) / ref
        _require(rel <= EXACT_RTOL, f"{key} = {out[key]!r} differs from {ref!r} by {rel:.2e} relative")
    _require(out["mdiff_check"] == "ok", f"martingale decomposition check: {out['mdiff_check']}")
    mean = [sum(c) / len(steps) for c in zip(*steps)]
    sigma2 = sum((dx - mean[0]) ** 2 + (dy - mean[1]) ** 2 for dx, dy in steps) / len(steps)
    ss = 0.5 * math.pi**2 * sigma2 * n
    _require(0.0 <= out["VarL"] <= ss, f"VarL = {out['VarL']!r} outside Snyder-Steele [0, {ss:.6g}]")


# ---------------------------------------------------------------------------
# brownian: Brownian hull constants
# ---------------------------------------------------------------------------


def sine_integral(x: float) -> float:
    """Si(x) by its Taylor series (converges fast for x near pi)."""
    total, term, k = 0.0, x, 0
    while abs(term) > 1e-18:
        total += term / (2 * k + 1)
        k += 1
        term *= -x * x / ((2 * k) * (2 * k + 1))
    return total


def goldman_var() -> float:
    """Goldman's bridge-perimeter variance (pi^2/6)(2 pi Si(pi) - 2 - 3 pi) = 0.34755..."""
    return (math.pi**2 / 6.0) * (2.0 * math.pi * sine_integral(math.pi) - 2.0 - 3.0 * math.pi)


def brownian_bounds() -> dict[str, tuple[float, float]]:
    """Rigorous bounds on Var l_1 (u0 at Sigma = I), Var a_1 (v0) and Var atilde_1 (v+)."""
    u0_low = max(
        (263.0 / 1080.0) * math.pi**-1.5 * math.exp(-144.0 / 25.0) * 2.0,
        0.4 * (1.0 - 8.0 / (25.0 * math.pi)) * math.exp(-25.0 * math.pi / 16.0),
    )
    v0_low = (4.0 / 49.0) * (math.exp(-7.0 * math.pi**2 / 12.0) - math.exp(-21.0 * math.pi**2 / 4.0) / 3.0) ** 2
    vp_low = (2.0 / 225.0) * (math.exp(-25.0 * math.pi / 9.0) - math.exp(-25.0 * math.pi) / 3.0)
    return {
        "var_l1": (u0_low, math.pi**2),
        "var_a1": (v0_low, 16.0 * math.log(2.0) ** 2 - math.pi**2 / 4.0),
        "var_at1": (vp_low, 4.0 * math.log(2.0) - 2.0 * math.pi / 9.0),
    }


def check_brownian(text: str, grid: int, replicates: int):
    out = json.loads(text)
    _require(out["grid"] == grid and out["replicates"] == replicates, "grid or replicates differ from the request")
    est = out["estimates"]
    means = {
        "E_l1": math.sqrt(8.0 * math.pi),
        "E_a1": math.pi / 2.0,
        "E_at1": math.sqrt(2.0 * math.pi) / 3.0,
        "E_r1_sq": 4.0 * math.log(2.0),
    }
    for key, ref in means.items():
        _z_check(key, est[key]["value"], est[key]["std_error"], ref)
    for key, ref in (("var_l1", VAR_L1), ("var_bridge_l1", goldman_var())):
        value, se = est[key]["value"], est[key]["std_error"]
        # The fourth-moment standard error shrinks with the estimate itself, so
        # a low draw would look precise; judge it at the reference's scale.
        _z_check(key, value, se * max(1.0, ref / value) if value > 0.0 else se, ref)
    for key, (lo, hi) in brownian_bounds().items():
        value, slack = est[key]["value"], Z_BOUND * est[key]["std_error"]
        _require(lo - slack <= value <= hi + slack, f"{key} = {value:.6g} outside its bounds [{lo:.3g}, {hi:.6g}]")
