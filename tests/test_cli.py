"""CLI contracts: CSV/JSON schemas, exit codes, determinism, round trips."""

import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from hullwalk import cli
from hullwalk.cli import main


def _strip_timestamp(text: str) -> str:
    return "\n".join(l for l in text.splitlines() if not l.startswith("# timestamp"))


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_writes_csv(tmp_path):
    out = tmp_path / "r.csv"
    code = main(
        ["simulate", "--model", "pr:0.2,0", "--steps", "500", "--replicates", "50",
         "--seed", "42", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == cli.CSV_COLUMNS
    rows = [l for l in lines if not l.startswith("#")][1:]
    assert len(rows) >= 2
    # checkpoints ascend and every value parses as a float
    ns = [int(r.split(",")[0]) for r in rows]
    assert ns == sorted(ns) and ns[-1] == 500
    for r in rows:
        assert len(r.split(",")) == 10
        [float(v) for v in r.split(",")]
    assert any(l.startswith("# model: pr:0.2,0") for l in lines)


def test_simulate_deterministic_modulo_timestamp(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--model", "lattice", "--steps", "300", "--replicates", "64", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert _strip_timestamp(a.read_text()) == _strip_timestamp(b.read_text())


def test_simulate_heavy_tail_flag(tmp_path):
    out = tmp_path / "p.csv"
    assert main(["simulate", "--model", "pareto:1.5", "--steps", "200", "--replicates", "32",
                 "--seed", "1", "--out", str(out)]) == 0
    assert "# heavy_tail: true" in out.read_text()


def test_simulate_rejects_bad_covariance(capsys):
    assert main(["simulate", "--model", "gauss:1,0,-1", "--steps", "10", "--replicates", "10"]) == 1
    assert "positive semidefinite" in capsys.readouterr().err


def test_simulate_budget_guard(monkeypatch, tmp_path, capsys):
    _forbid(monkeypatch, cli.montecarlo, "estimate")
    out = tmp_path / "x.csv"
    assert main(["simulate", "--model", "lattice", "--steps", "1000000", "--replicates", "100000",
                 "--out", str(out)]) == 1
    _assert_one_error_line(capsys, "steps * replicates = 100000000000 exceeds the budget guard 10000000000")
    assert not out.exists()


def test_numeric_failure_exit_code(monkeypatch, tmp_path):
    import hullwalk.montecarlo as mc

    def bad_estimate(model, n, sched, replicates, seed):
        return [mc.MonteCarloEstimate(n, s, float("nan"), 0.0)
                for s in ("meanL", "varL", "meanA", "varA", "meanR")]

    monkeypatch.setattr(cli.montecarlo, "estimate", bad_estimate)
    code = main(["simulate", "--model", "lattice", "--steps", "10", "--replicates", "10",
                 "--out", str(tmp_path / "z.csv")])
    assert code == 2


@pytest.mark.parametrize("exc", [MemoryError(), BrokenProcessPool("worker killed")])
def test_resource_failure_exit_code(monkeypatch, tmp_path, capsys, exc):
    def failing_estimate(*args):
        raise exc

    monkeypatch.setattr(cli.montecarlo, "estimate", failing_estimate)
    code = main(["simulate", "--model", "lattice", "--steps", "10", "--replicates", "10",
                 "--out", str(tmp_path / "z.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# limits
# ---------------------------------------------------------------------------


def test_limits_json_drift(tmp_path):
    out = tmp_path / "l.json"
    assert main(["limits", "--model", "pr:0.2,0", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["4sigma2_mu"] == 2.0
    assert math.isclose(data["2norm_mu"], 0.4)


def test_limits_json_zero_drift(tmp_path):
    out = tmp_path / "l0.json"
    assert main(["limits", "--model", "pr", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert abs(data["pi_over_2_sqrt_det"] - math.pi / 4) < 1e-12


def test_limits_heavy_tail_drift_only(tmp_path):
    # an infinite-variance model has no limit constant beyond its drift rate
    out = tmp_path / "h.json"
    assert main(["limits", "--model", "pareto:1.5,1,0", "--out", str(out)]) == 0
    assert json.loads(out.read_text()) == {"model": "pareto:1.5,1,0", "norm_mu": 1.0, "2norm_mu": 2.0,
                                           "heavy_tail": True}


# ---------------------------------------------------------------------------
# clt
# ---------------------------------------------------------------------------


def test_clt_degenerate_and_zero_drift_exit_one(capsys):
    assert main(["clt", "--model", "st-binary", "--steps", "50", "--replicates", "50"]) == 1
    assert "orthogonal" in capsys.readouterr().err
    assert main(["clt", "--model", "pr", "--steps", "50", "--replicates", "50"]) == 1


def test_clt_heavy_tail_names_infinite_variance(capsys):
    # the variance is infinite, not zero along the drift
    assert main(["clt", "--model", "pareto:1.5,1,0", "--steps", "50", "--replicates", "50"]) == 1
    _assert_one_error_line(capsys, "CLT check not applicable: the Gaussian perimeter limit needs a finite second moment")


def test_clt_pass_and_histogram(tmp_path):
    out = tmp_path / "v.json"
    code = main(["clt", "--model", "pr:0.2,0", "--steps", "1000", "--replicates", "1000",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    verdict = json.loads(out.read_text())
    assert set(verdict) >= {"D", "threshold", "pass"}
    assert verdict["pass"] is True
    # 64 bins on [-4, 4], in the same JSON
    edges, counts = verdict["bin_edges"], verdict["counts"]
    assert edges == [-4.0 + k / 8 for k in range(65)] and len(counts) == 64
    assert all(isinstance(c, int) for c in counts) and 990 <= sum(counts) <= 1000


def test_clt_samples_once(monkeypatch, tmp_path):
    # 100 replicates stay below two chunks, so sampling runs in this process
    calls = []
    collect = cli.montecarlo.collect_samples

    def counted(*args, **kwargs):
        calls.append(args)
        return collect(*args, **kwargs)

    monkeypatch.setattr(cli.montecarlo, "collect_samples", counted)
    assert main(["clt", "--model", "pr:0.2,0", "--steps", "100", "--replicates", "100",
                 "--out", str(tmp_path / "v.json")]) == 0
    assert len(calls) == 1


def _forbid(monkeypatch, module, name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} ran past the budget guard")

    monkeypatch.setattr(module, name, fail)


def _assert_one_error_line(capsys, text):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert text in err


def test_clt_budget_guard_before_sampling(monkeypatch, capsys):
    _forbid(monkeypatch, cli.montecarlo, "collect_samples")
    assert main(["clt", "--steps", "1000000", "--replicates", "100000"]) == 1
    _assert_one_error_line(capsys, "steps * replicates = 100000000000 exceeds the budget guard")


def test_clt_zero_steps_exit_one_before_sampling(monkeypatch, tmp_path, capsys):
    # zero steps give L = 0 on every path, so the standardised samples are 0/0
    _forbid(monkeypatch, cli.montecarlo, "collect_samples")
    out = tmp_path / "v.json"
    assert main(["clt", "--steps", "0", "--replicates", "50", "--out", str(out)]) == 1
    _assert_one_error_line(capsys, "n >= 1")
    assert not out.exists()


def test_clt_one_replicate_exit_one_before_sampling(monkeypatch, capsys):
    # one replicate gives no KS statistic, so the check refuses it before sampling
    _forbid(monkeypatch, cli.montecarlo, "collect_samples")
    assert main(["clt", "--steps", "1000", "--replicates", "1"]) == 1
    _assert_one_error_line(capsys, "replicates >= 2, got 1")


# Each input exits 1 with one error line that names what is wrong; a
# non-finite model argument is refused before any sampling.
@pytest.mark.parametrize(
    "argv, threads, forbidden, text",
    [
        (["simulate", "--model", "pr", "--steps", "100", "--replicates", "2", "--schedule", "geometric:10,inf"],
         None, "estimate", "bad schedule spec 'geometric:10,inf'"),
        (["exact", "--model", "lattice", "--steps", "100000"],
         None, "_enumerate_functionals", "support^100000 = 4^100000 exceeds the 10000000 budget"),
        (["simulate", "--model", "pr:nan,0", "--steps", "5000", "--replicates", "2", "--schedule", "explicit:100,5000"],
         None, "estimate", "non-finite argument in model spec 'pr:nan,0'"),
        (["clt", "--model", "gauss:1,0,1,inf,0", "--steps", "100", "--replicates", "10"],
         None, "collect_samples", "non-finite argument in model spec 'gauss:1,0,1,inf,0'"),
        (["simulate", "--model", "pr", "--steps", "10", "--replicates", "2"],
         "abc", None, "HULLWALK_THREADS must be an integer, got 'abc'"),
        # the schedule's start is beyond the float range, where c * ratio overflows
        (["simulate", "--model", "pr", "--steps", "9" * 401, "--replicates", "2",
          "--schedule", "geometric:" + "1" * 310 + ",2"],
         None, "estimate", "exceeds the budget guard 10000000000"),
    ],
    ids=["schedule-inf-ratio", "exact-huge-steps", "model-nan", "model-inf", "threads-not-int", "schedule-huge-start"],
)
def test_bad_input_exit_one(monkeypatch, capsys, argv, threads, forbidden, text):
    if threads is not None:
        monkeypatch.setenv("HULLWALK_THREADS", threads)
    if forbidden is not None:
        _forbid(monkeypatch, cli.montecarlo, forbidden)
    assert main(argv) == 1
    _assert_one_error_line(capsys, text)


# Philox keys on the seed modulo 2**64, so a seed outside [0, 2**64) would
# draw the replicates of one inside it (-1 those of 2**64 - 1).
@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
@pytest.mark.parametrize(
    "argv, module, forbidden",
    [
        (["simulate", "--model", "pr", "--steps", "50", "--replicates", "3"], "montecarlo", "estimate"),
        (["clt", "--steps", "50", "--replicates", "20"], "montecarlo", "collect_samples"),
        (["constants", "--grid", "64", "--replicates", "4"], "limits", "brownian_constant_estimates"),
    ],
    ids=["simulate", "clt", "constants"],
)
def test_seed_outside_key_space_exit_one_before_sampling(monkeypatch, capsys, argv, module, forbidden, seed):
    _forbid(monkeypatch, getattr(cli, module), forbidden)
    assert main(argv + ["--seed", str(seed)]) == 1
    _assert_one_error_line(capsys, f"seed must be in [0, 2**64), got {seed}")


def test_seed_key_space_ends_accepted(tmp_path):
    for seed in (0, 2**64 - 1):
        assert main(["simulate", "--model", "pr", "--steps", "50", "--replicates", "3", "--schedule", "explicit:50",
                     "--seed", str(seed), "--out", str(tmp_path / f"{seed}.csv")]) == 0


# A walk, a hull functional or an aggregate that leaves the float range is a
# numeric failure (exit 2), and a covariance too large for its root is
# refused when the model is built (exit 1); either way stderr holds one line
# and no numpy warning, and nothing is written.
@pytest.mark.parametrize(
    "argv, code, text",
    [
        (["simulate", "--model", "pr:1e308,0", "--steps", "5000", "--replicates", "2", "--schedule", "explicit:5000"],
         2, "numeric failure: overflow"),
        (["clt", "--model", "pr:1e308,0", "--steps", "100", "--replicates", "4"], 2, "numeric failure: overflow"),
        (["simulate", "--model", "gauss:1,0,1,1e308,0", "--steps", "100", "--replicates", "2"],
         2, "numeric failure: overflow"),
        (["simulate", "--model", "gauss:1e308,0,1e308", "--steps", "100", "--replicates", "2"],
         1, "error: covariance too large"),
        (["limits", "--model", "gauss:1e308,0,1e308"], 1, "error: covariance too large"),
        (["limits", "--model", "gauss:1,1e200,1"], 1, "error: covariance too large"),
        # Var A_n, about 4e313, leaves the float range
        (["simulate", "--model", "pr:1e155,0", "--steps", "100", "--replicates", "4", "--schedule", "explicit:100"],
         2, "numeric failure: overflow"),
        # Var L_n leaves the float range
        (["simulate", "--model", "pr:1e306,0", "--steps", "100", "--replicates", "2"], 2, "numeric failure: overflow"),
        # the perimeters themselves are infinite
        (["clt", "--model", "pr:1e306,1", "--steps", "100", "--replicates", "4"],
         2, "numeric failure: sample values must be finite"),
        # coordinates past 1e154, where the hull prefilter's products overflowed
        (["simulate", "--model", "pr:1e303,0", "--steps", "5000", "--replicates", "2", "--schedule", "explicit:5000"],
         2, "numeric failure: overflow"),
    ],
    ids=["simulate-pr", "clt-pr", "simulate-gauss-mean", "simulate-gauss-cov", "limits-gauss-cov", "limits-gauss-offdiag",
         "simulate-var-se", "simulate-var", "clt-functional", "simulate-prefilter"],
)
def test_overflow_one_stderr_line(tmp_path, capsys, argv, code, text):
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.startswith(text) and err.count("\n") == 1
    assert not out.exists()


def test_aggregates_in_range_do_not_overflow(tmp_path):
    # Var A_n is about 4e159 and its standard error about 2e159; the fourth
    # powers behind that error, about 1e324, are taken in power-of-two units
    out = tmp_path / "o.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--model", "pr:1e78,0", "--steps", "100", "--replicates", "4",
                     "--schedule", "explicit:100", "--out", str(out)]) == 0
    row = dict(zip(*[line.split(",") for line in out.read_text().splitlines()[-2:]]))
    assert 1e159 < float(row["var_A"]) < 1e160 and 1e158 < float(row["se_varA"]) < 1e160


def test_bad_schedule_spec_names_the_spec(capsys):
    argv = ["simulate", "--model", "pr", "--steps", "10", "--replicates", "2", "--schedule"]
    for spec in ("geometric:1", "geometric:2,x", "linear:1,2"):
        assert main([*argv, spec]) == 1
        _assert_one_error_line(capsys, f"bad schedule spec {spec!r}")


def test_constants_budget_guard_before_sampling(monkeypatch, capsys):
    _forbid(monkeypatch, cli.limits, "_brownian_block")
    assert main(["constants", "--grid", "1000000000", "--replicates", "100"]) == 1
    _assert_one_error_line(capsys, "grid * replicates = 100000000000 exceeds the budget guard")


# 4e9 steps times 2 replicates passes the 1e10 product guard, but one such
# path would take about 180 GB.
@pytest.mark.parametrize(
    "argv, module, name, label",
    [
        (["simulate", "--model", "pr", "--steps", "4000000000", "--replicates", "2"],
         "montecarlo", "estimate", "steps per path"),
        (["clt", "--steps", "4000000000", "--replicates", "2"], "montecarlo", "collect_samples", "steps per path"),
        (["constants", "--grid", "4000000000", "--replicates", "2"], "limits", "_brownian_block",
         "grid steps per path"),
    ],
    ids=["simulate", "clt", "constants"],
)
def test_path_length_guard_before_sampling(monkeypatch, capsys, argv, module, name, label):
    _forbid(monkeypatch, getattr(cli, module), name)
    assert main(argv) == 1
    _assert_one_error_line(capsys, f"{label} = 4000000000 exceeds the budget guard {cli.MAX_PATH_STEPS}")


# The options that were retired are refused like any unknown option, before
# any work: usage, then one error line.
@pytest.mark.parametrize(
    "argv, flag",
    [
        (["simulate", "--model", "pr", "--steps", "4000000000", "--replicates", "2", "--force"], "--force"),
        (["simulate", "--model", "pr", "--steps", "10", "--replicates", "2", "--budget", "5"], "--budget 5"),
        (["limits", "--model", "pareto:1.5", "--allow-heavy"], "--allow-heavy"),
        (["clt", "--steps", "10", "--replicates", "10", "--hist-out", "x"], "--hist-out x"),
        (["report", "--in", "x", "--limits", "x"], "--limits x"),
    ],
    ids=["simulate-force", "simulate-budget", "limits-allow-heavy", "clt-hist-out", "report-limits"],
)
def test_retired_flag_exit_one(monkeypatch, capsys, argv, flag):
    for name in ("estimate", "collect_samples"):
        _forbid(monkeypatch, cli.montecarlo, name)
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: hullwalk") and err[-1] == f"error: unrecognized arguments: {flag}"


def test_parser_options():
    (sub,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    options = {name: [o for a in p._actions for o in a.option_strings if o not in ("-h", "--help")]
               for name, p in sub.choices.items()}
    assert options == {
        "simulate": ["--model", "--steps", "--replicates", "--seed", "--schedule", "--out"],
        "limits": ["--model", "--out"],
        "clt": ["--model", "--steps", "--replicates", "--seed", "--out"],
        "constants": ["--grid", "--replicates", "--seed", "--out"],
        "exact": ["--model", "--steps", "--out"],
        "report": ["--in", "--out"],
    }
    assert not any(a.nargs == 0 for p in sub.choices.values() for a in p._actions if a.dest != "help")


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--model", "lattice", "--steps", "20", "--replicates", "4"],
        ["limits", "--model", "pr"],
        ["clt", "--steps", "20", "--replicates", "20"],
        ["constants", "--grid", "64", "--replicates", "4"],
        ["exact", "--model", "lattice", "--steps", "2"],
        ["report"],
    ],
    ids=lambda argv: argv[0],
)
def test_command_writes_only_its_out(monkeypatch, tmp_path, argv):
    csv_p = tmp_path / "r.csv"
    assert main(["simulate", "--model", "pr:0.2,0", "--steps", "50", "--replicates", "4", "--out", str(csv_p)]) == 0
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    if argv == ["report"]:
        argv = ["report", "--in", str(csv_p)]
    assert main([*argv, "--out", "out"]) == 0
    assert os.listdir(cwd) == ["out"]


def test_simulate_empty_schedule_exit_one_before_sampling(monkeypatch, tmp_path, capsys):
    _forbid(monkeypatch, cli.montecarlo, "estimate")
    out = tmp_path / "e.csv"
    argv = ["simulate", "--model", "pr", "--steps", "10", "--replicates", "2", "--schedule", "explicit:"]
    assert main([*argv, "--out", str(out)]) == 1
    _assert_one_error_line(capsys, "schedule 'explicit:' gives no checkpoints")
    assert not out.exists()


# ---------------------------------------------------------------------------
# exact / constants
# ---------------------------------------------------------------------------


def test_exact_lattice(tmp_path):
    out = tmp_path / "e.json"
    assert main(["exact", "--model", "lattice", "--steps", "2", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert abs(data["EL"] - 3.2071) < 1e-4
    assert data["EA"] == 0.25
    assert data["mdiff_check"] == "ok"


def test_exact_rejects_continuous_support(capsys):
    assert main(["exact", "--model", "pr", "--steps", "2"]) == 1


def test_negative_steps_and_single_replicate_exit_one(capsys):
    assert main(["exact", "--model", "lattice", "--steps", "-1"]) == 1
    assert "nonnegative" in capsys.readouterr().err
    assert main(["constants", "--grid", "64", "--replicates", "1"]) == 1
    assert "replicates >= 2" in capsys.readouterr().err


def _count_enumerations(monkeypatch) -> list:
    calls = []
    enumerate_functionals = cli.montecarlo._enumerate_functionals

    def counted(*args):
        calls.append(args)
        return enumerate_functionals(*args)

    monkeypatch.setattr(cli.montecarlo, "_enumerate_functionals", counted)
    return calls


def test_exact_enumerates_once(monkeypatch, tmp_path):
    calls = _count_enumerations(monkeypatch)
    out = tmp_path / "e.json"
    assert main(["exact", "--model", "hex6", "--steps", "3", "--out", str(out)]) == 0
    assert len(calls) == 1
    data = json.loads(out.read_text())
    assert data["VarL"] == data["mdiff_lhs"]
    assert data["mdiff_check"] == "ok"


def _outputs_under_blas_threads(argv) -> list[str]:
    """stdout of ``python -m hullwalk *argv`` at OPENBLAS_NUM_THREADS 1 and 2, timestamp removed.

    OpenBLAS splits long dot products across threads and rounds per split, so
    a sum that goes through it differs between the two.
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "hullwalk", *argv], env=env, capture_output=True,
                              text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr[-2000:]
        outputs.append(_strip_timestamp(proc.stdout))
    return outputs


def test_exact_independent_of_blas_threads():
    outputs = _outputs_under_blas_threads(["exact", "--model", "hex6", "--steps", "6"])
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["mdiff_check"] == "ok"


def test_simulate_variance_independent_of_blas_threads():
    # at 20000 replicates the variance's sum over replicates is long enough to split
    outputs = _outputs_under_blas_threads(["simulate", "--model", "gauss", "--steps", "20", "--replicates", "20000",
                                           "--seed", "3", "--schedule", "explicit:20"])
    assert outputs[0] == outputs[1]


def test_exact_budget_checked_before_enumerating(monkeypatch, capsys):
    calls = _count_enumerations(monkeypatch)
    assert main(["exact", "--model", "hex6", "--steps", "8"]) == 1
    assert capsys.readouterr().err == "error: support^9 = 10077696 exceeds the 10000000 budget\n"
    assert calls == []


@pytest.mark.parametrize("command", ["constants", "exact"])
def test_json_with_nan_exit_two(monkeypatch, tmp_path, capsys, command):
    # the whole JSON document is checked: here a NaN standard error, or a NaN
    # right-hand side of the martingale check
    if command == "constants":
        def nan_se(*args):
            return {q: cli.montecarlo.MonteCarloEstimate(8, q, 1.0, math.nan)
                    for q, _, _ in cli.limits.brownian_reference_values()}

        monkeypatch.setattr(cli.limits, "brownian_constant_estimates", nan_se)
        argv = ["constants", "--grid", "8", "--replicates", "2"]
    else:
        check = cli.montecarlo.martingale_decomposition_check
        monkeypatch.setattr(cli.montecarlo, "martingale_decomposition_check",
                            lambda *a: cli.montecarlo.MartingaleCheck(check(*a).moments, math.nan))
        argv = ["exact", "--model", "lattice", "--steps", "2"]
    out = tmp_path / "o.json"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "numeric failure: NaN or infinity in results\n"
    assert not out.exists()


# Work enough for two workers, so HULLWALK_THREADS=2 runs a pool and 1 does not.
@pytest.mark.parametrize(
    "argv",
    [["constants", "--grid", "4096", "--replicates", "48", "--seed", "9"], ["exact", "--model", "lattice", "--steps", "8"]],
    ids=["constants", "exact"],
)
def test_output_independent_of_threads_through_the_pool(monkeypatch, pool_sizes, tmp_path, argv):
    monkeypatch.setattr(cli.montecarlo.os, "cpu_count", lambda: 2)
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("HULLWALK_THREADS", threads)
        out = tmp_path / f"t{threads}.json"
        assert main([*argv, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert pool_sizes == [2]
    assert outputs[0] == outputs[1]


def test_constants_small_run(tmp_path):
    out = tmp_path / "c.json"
    assert main(["constants", "--grid", "4096", "--replicates", "48", "--seed", "9",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert abs(data["estimates"]["E_l1"]["value"] - math.sqrt(8 * math.pi)) < 0.5
    verdicts = {r["quantity"]: r["verdict"] for r in data["report"]}
    assert set(verdicts.values()) <= {"consistent", "violated", "untested"}


# ---------------------------------------------------------------------------
# report pipeline
# ---------------------------------------------------------------------------


# gauss:1e+20,0,1 needs its E|Y| to a tolerance relative to the covariance
@pytest.mark.parametrize("model", ["pr:0.2,0", "pr", "gauss:1e+20,0,1"])
def test_report_pipeline(tmp_path, model):
    csv_p, rep_p = tmp_path / "r.csv", tmp_path / "rep.json"
    assert main(["simulate", "--model", model, "--steps", "4000", "--replicates", "300",
                 "--seed", "2", "--out", str(csv_p)]) == 0
    assert main(["report", "--in", str(csv_p), "--out", str(rep_p)]) == 0
    rep = json.loads(rep_p.read_text())
    assert (rep["source"], rep["model"], rep["n"]) == (str(csv_p), model, 4000)
    for row in rep["report"]:
        assert row["verdict"] in ("consistent", "violated", "untested")
    # the big-picture check: nothing contradicts the theory on a healthy run
    assert all(row["verdict"] != "violated" for row in rep["report"])


def _simulate(tmp_path, model="pr:0.2,0", steps=1000, seed=4) -> Path:
    csv_p = tmp_path / "r.csv"
    assert main(["simulate", "--model", model, "--steps", str(steps), "--replicates", "100", "--seed", str(seed),
                 "--out", str(csv_p)]) == 0
    return csv_p


def _report_rows(csv_p, tmp_path) -> list[dict]:
    rep_p = tmp_path / "rep.json"
    assert main(["report", "--in", str(csv_p), "--out", str(rep_p)]) == 0
    return json.loads(rep_p.read_text())["report"]


def test_report_tiny_covariance(tmp_path):
    # det Sigma = 1e-610 is below the float range, but (pi/2) sqrt(det Sigma)
    # and the squares behind each standard error are not
    rows = _report_rows(_simulate(tmp_path, model="gauss:1e-300,0,1e-310", seed=1), tmp_path)
    assert [(r["quantity"], r["verdict"]) for r in rows] == [
        ("4E_norm_Y", "consistent"), ("pi_over_2_sqrt_det", "consistent"), ("u0_like", "consistent"),
        ("ss_bound", "consistent"),
    ]
    assert all(r["std_error"] > 0.0 for r in rows)
    assert math.isclose(rows[1]["theoretical"], 0.5 * math.pi * 1e-305, rel_tol=1e-12)


def test_report_snyder_steele_row(tmp_path):
    csv_p, lim_p = _simulate(tmp_path), tmp_path / "l.json"
    assert main(["limits", "--model", "pr:0.2,0", "--out", str(lim_p)]) == 0
    row = _report_rows(csv_p, tmp_path)[-1]
    ss = json.loads(lim_p.read_text())["ss_bound"]
    assert (row["quantity"], row["bound_low"], row["bound_high"]) == ("ss_bound", 0.0, ss)
    assert row["verdict"] == "consistent"
    # inflate the final Var L_n past the bound
    lines = csv_p.read_text().splitlines()
    cols = lines[-1].split(",")
    cols[3] = repr(10.0 * ss * float(cols[0]))
    csv_p.write_text("\n".join(lines[:-1] + [",".join(cols)]) + "\n")
    row = _report_rows(csv_p, tmp_path)[-1]
    assert (row["quantity"], row["verdict"]) == ("ss_bound", "violated")


def test_report_heavy_tail(tmp_path, capsys):
    # zero drift: no row applies; drift: the 2|mu| row alone
    csv_p = _simulate(tmp_path, "pareto:1.5")
    assert main(["report", "--in", str(csv_p)]) == 1
    _assert_one_error_line(capsys, "model 'pareto:1.5' has no quantity to report")
    csv_p = _simulate(tmp_path, "pareto:1.5,1,0")
    assert [r["quantity"] for r in _report_rows(csv_p, tmp_path)] == ["2norm_mu"]


def test_report_heavy_tail_rows_untested(tmp_path):
    # Pareto(1.5) steps have infinite variance, so no standard error holds
    csv_p = _simulate(tmp_path, "pareto:1.5,1,0", 2000, 2)
    (row,) = _report_rows(csv_p, tmp_path)
    assert row["quantity"] == "2norm_mu" and row["verdict"] == "untested"
    # the estimate, 4.7 standard errors from 2|mu| = 2, is still reported
    assert math.isclose(row["estimate"], 2.1749, abs_tol=1e-4)
    assert math.isclose(row["std_error"], 0.0371, abs_tol=1e-4)
    # the model line alone decides: the heavy_tail line is not read
    text = csv_p.read_text()
    csv_p.write_text(text.replace("# heavy_tail: true\n", ""))
    assert _report_rows(csv_p, tmp_path) == [row]
    csv_p = _simulate(tmp_path, "pr:1,0", 2000, 2)
    assert "consistent" in {r["verdict"] for r in _report_rows(csv_p, tmp_path)}


def test_report_judges_the_csv_model(tmp_path):
    # the same rows, relabelled with another model, are judged against that
    # model's constants: Var L_n / n is near 4 sigma2_mu = 2 for pr:0.2,0, but
    # 4 sigma2_mu = 4 for gauss:1,0,1,0.2,0
    csv_p = _simulate(tmp_path, steps=4000, seed=2)
    rows = {r["quantity"]: r for r in _report_rows(csv_p, tmp_path)}
    assert rows["4sigma2_mu"]["verdict"] == "consistent"
    csv_p.write_text(csv_p.read_text().replace("# model: pr:0.2,0", "# model: gauss:1,0,1,0.2,0"))
    rows = {r["quantity"]: r for r in _report_rows(csv_p, tmp_path)}
    assert rows["4sigma2_mu"]["theoretical"] == 4.0 and rows["4sigma2_mu"]["verdict"] == "violated"


def test_report_needs_model_line(tmp_path, capsys):
    csv_p = _simulate(tmp_path)
    no_model = tmp_path / "no_model.csv"
    no_model.write_text("".join(l for l in csv_p.read_text().splitlines(True) if not l.startswith("# model:")))
    assert main(["report", "--in", str(no_model)]) == 1
    _assert_one_error_line(capsys, f"{no_model} has no '# model:' line")


def test_report_malformed_inputs_exit_one(tmp_path, capsys):
    csv_p = _simulate(tmp_path, "pr")
    bad_model = tmp_path / "bad_model.csv"
    bad_model.write_text(csv_p.read_text().replace("# model: pr", "# model: walk"))
    assert main(["report", "--in", str(bad_model)]) == 1
    _assert_one_error_line(capsys, "unknown model spec 'walk'")
    # drop the se_L column from the header and from every row
    lines = [l if l.startswith("#") else ",".join(l.split(",")[:2] + l.split(",")[3:])
             for l in csv_p.read_text().splitlines()]
    no_se = tmp_path / "no_se.csv"
    no_se.write_text("\n".join(lines) + "\n")
    assert main(["report", "--in", str(no_se)]) == 1
    _assert_one_error_line(capsys, "se_L")
    # simulate never writes these: checkpoints out of order, a checkpoint that
    # is not an integer, and a negative standard error (se_L)
    *head, prev, last = csv_p.read_text().splitlines()
    cols = last.split(",")
    for name, rows, text in [
        ("decreasing", [last, prev], "checkpoints are not strictly increasing at n ="),
        ("fractional", [prev, ",".join([cols[0] + ".5"] + cols[1:])],
         "checkpoint n = 1000.5 is not a nonnegative integer"),
        ("negative_se", [prev, ",".join(cols[:2] + ["-" + cols[2]] + cols[3:])],
         "a data row has a negative standard error"),
    ]:
        bad = tmp_path / f"{name}.csv"
        bad.write_text("\n".join(head + rows) + "\n")
        assert main(["report", "--in", str(bad)]) == 1
        _assert_one_error_line(capsys, f"{bad}: {text}")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_report_refuses_non_finite_csv(tmp_path, capsys, bad):
    csv_p, rep_p = _simulate(tmp_path), tmp_path / "rep.json"
    # the final mean_L and se_varL, which feed 2norm_mu, 4sigma2_mu and ss_bound
    lines = csv_p.read_text().splitlines()
    cols = lines[-1].split(",")
    cols[1] = cols[4] = bad
    csv_p.write_text("\n".join(lines[:-1] + [",".join(cols)]) + "\n")
    assert main(["report", "--in", str(csv_p), "--out", str(rep_p)]) == 1
    _assert_one_error_line(capsys, f"{csv_p}: a data row holds a NaN or infinity")
    assert not rep_p.exists()


def test_inradius_exact_zero_on_flat_walk(tmp_path):
    # a walk on the x axis: its hull is a segment through the origin, so r = 0
    out = tmp_path / "flat.csv"
    assert main(["simulate", "--model", "gauss:1,0,0", "--steps", "30", "--replicates", "2",
                 "--out", str(out)]) == 0
    _, rows = cli._read_simulate_csv(str(out))
    assert [row["mean_r"] for row in rows] == [0.0] * len(rows)


def test_csv_round_trip_parse(tmp_path):
    csv_p = tmp_path / "r.csv"
    main(["simulate", "--model", "hex6", "--steps", "200", "--replicates", "40",
          "--seed", "5", "--out", str(csv_p)])
    meta, rows = cli._read_simulate_csv(str(csv_p))
    assert meta["model"] == "hex6"
    assert int(meta["replicates"]) == 40
    assert rows[-1]["n"] == 200.0


def test_unknown_subcommand_is_config_error():
    assert main(["frobnicate"]) == 1
