"""The output checks accept real CLI output and reject it once perturbed.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import itertools
import json
import math
import os
import subprocess
import sys

import pytest

import checks
from run import HEX6_STEPS, SRC

LATTICE = ((1, 0), (-1, 0), (0, 1), (0, -1))


def hullwalk(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC), HULLWALK_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "hullwalk", *args, "--out", "-"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    return proc.stdout


def edit_csv(text: str, row: int, column: str, fn) -> str:
    """Apply fn(row dict) to one column of one data row (negative rows count from the end)."""
    lines = text.splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    header = lines[first].split(",")
    data = lines[first + 1 :]
    idx = row % len(data)
    values = dict(zip(header, map(float, data[idx].split(","))))
    values[column] = fn(values)
    data[idx] = ",".join(repr(values[h]) if h != "n" else str(int(values[h])) for h in header)
    return "\n".join(lines[: first + 1] + data) + "\n"


def rejects(check, text: str):
    with pytest.raises(checks.CheckFailed):
        check(text)


# --- closed forms -----------------------------------------------------------


def test_gauss_means_match_direct_sums():
    n = 40
    mean_L, mean_A = checks.gauss_means(n)
    for k in (1, 2, 7, n):
        direct_L = math.sqrt(2 * math.pi) * sum(j**-0.5 for j in range(1, k + 1))
        direct_A = 0.5 * sum((m * (j - m)) ** -0.5 for j in range(2, k + 1) for m in range(1, j))
        assert mean_L[k] == pytest.approx(direct_L, rel=1e-13)
        assert mean_A[k] == pytest.approx(direct_A, rel=1e-13, abs=1e-15)


def test_exact_sums_match_path_enumeration():
    # Every 2-step lattice path: 4 go back (L = 2), 4 go straight (L = 4) and
    # 8 turn (a right triangle with legs 1, L = 2 + sqrt 2, area 1/2).
    mean_L, mean_A = checks.exact_sums(LATTICE, 2)
    assert mean_L == pytest.approx((4 * 2 + 4 * 4 + 8 * (2 + math.sqrt(2))) / 16, rel=1e-15)
    assert mean_A == pytest.approx(8 * 0.5 / 16, rel=1e-15)


def test_brownian_references():
    assert checks.goldman_var() == pytest.approx(0.34755, abs=5e-6)
    assert checks.VAR_L1 == pytest.approx(1.07632, abs=5e-6)
    assert checks.sine_integral(math.pi) == pytest.approx(1.851937051982466, rel=1e-14)


def test_geometric_checkpoints():
    cps = checks.geometric_checkpoints(100_000)
    assert cps[:4] == [10, 13, 17, 22] and cps[-1] == 100_000 and len(cps) == 42


# --- diffusive-short ----------------------------------------------------------


@pytest.fixture(scope="module")
def gauss_csv():
    return hullwalk("simulate", "--model", "gauss", "--steps", "1000", "--replicates", "400", "--seed", "3")


def check_gauss(text):
    checks.check_diffusive(text, steps=1000, replicates=400)


def test_diffusive_accepts_real_output(gauss_csv):
    check_gauss(gauss_csv)


@pytest.mark.parametrize("row", [0, 20, -1])
def test_diffusive_rejects_shifted_means(gauss_csv, row):
    rejects(check_gauss, edit_csv(gauss_csv, row, "mean_L", lambda r: r["mean_L"] + 6 * r["se_L"]))
    rejects(check_gauss, edit_csv(gauss_csv, row, "mean_A", lambda r: r["mean_A"] - 6 * r["se_A"]))


def test_diffusive_rejects_missing_checkpoint(gauss_csv):
    lines = gauss_csv.splitlines()
    rejects(check_gauss, "\n".join(lines[:-2] + lines[-1:]) + "\n")


# --- drift-long -----------------------------------------------------------------


@pytest.fixture(scope="module")
def drift_csv():
    return hullwalk("simulate", "--model", "pr:0.4,0", "--steps", "100000", "--replicates", "100", "--seed", "3")


def check_pr(text):
    checks.check_drift(text, steps=100_000, replicates=100, drift=0.4, sigma2=1.0, sigma2_perp=0.5)


def test_drift_accepts_real_output(drift_csv):
    check_pr(drift_csv)


def test_drift_rejects_perturbations(drift_csv):
    below_jensen = lambda r: 2 * r["n"] * 0.4 - 6 * r["se_L"]  # noqa: E731
    rejects(check_pr, edit_csv(drift_csv, -1, "mean_L", below_jensen))
    above_ss = lambda r: 0.5 * math.pi**2 * r["n"] + 6 * r["se_varL"]  # noqa: E731
    rejects(check_pr, edit_csv(drift_csv, 10, "var_L", above_ss))
    rejects(check_pr, edit_csv(drift_csv, -1, "mean_A", lambda r: 1.11 * r["mean_A"]))
    rejects(check_pr, edit_csv(drift_csv, -1, "mean_A", lambda r: 0.89 * r["mean_A"]))


def test_drift_rejects_decreasing_mean(drift_csv):
    _, rows = checks.parse_simulate_csv(drift_csv)
    rejects(check_pr, edit_csv(drift_csv, 5, "mean_A", lambda r: rows[4]["mean_A"] * (1 - 1e-12)))


# --- exact-enum -----------------------------------------------------------------


@pytest.mark.parametrize(("model", "steps", "n"), [("hex6", HEX6_STEPS, 4), ("lattice", LATTICE, 5)])
def test_exact_accepts_and_rejects(model, steps, n):
    text = hullwalk("exact", "--model", model, "--steps", str(n))
    checks.check_exact(text, steps, n)
    out = json.loads(text)
    ss = 0.5 * math.pi**2 * (1.0 if model == "lattice" else 4.0 / 3.0) * n
    for key, value in itertools.chain(
        (("EL", out["EL"] * (1 + s)) for s in (1e-6, -1e-6)),
        (("EA", out["EA"] * (1 + s)) for s in (1e-6, -1e-6)),
        [("mdiff_check", "mismatch"), ("VarL", ss * (1 + 1e-6))],
    ):
        rejects(lambda t: checks.check_exact(t, steps, n), json.dumps(dict(out, **{key: value})))


# --- brownian -------------------------------------------------------------------


@pytest.fixture(scope="module")
def constants_json():
    return hullwalk("constants", "--grid", "4096", "--replicates", "64", "--seed", "3")


def check_bm(text):
    checks.check_brownian(text, grid=4096, replicates=64)


def test_brownian_accepts_real_output(constants_json):
    check_bm(constants_json)


def _shifted(text: str, key: str, fn) -> str:
    out = json.loads(text)
    out["estimates"][key]["value"] = fn(out["estimates"][key])
    return json.dumps(out)


@pytest.mark.parametrize("key", ["E_l1", "E_a1", "E_at1", "E_r1_sq"])
@pytest.mark.parametrize("sign", [1, -1])
def test_brownian_rejects_shifted_means(constants_json, key, sign):
    rejects(check_bm, _shifted(constants_json, key, lambda e: e["value"] + sign * 6 * e["std_error"]))


def test_brownian_rejects_variances_off_reference(constants_json):
    refs = {"var_l1": checks.VAR_L1, "var_bridge_l1": checks.goldman_var()}
    for key, ref in refs.items():
        rejects(check_bm, _shifted(constants_json, key, lambda e: ref + 6 * e["std_error"]))
    for key, (lo, hi) in checks.brownian_bounds().items():
        rejects(check_bm, _shifted(constants_json, key, lambda e: hi + 6 * e["std_error"]))
