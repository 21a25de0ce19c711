"""CLI contracts: CSV/JSON schemas, exit codes, determinism, round trips."""

import json
import math
import os
import subprocess
import sys
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


def test_simulate_budget_guard(tmp_path):
    assert main(["simulate", "--model", "lattice", "--steps", "1000000", "--replicates", "100000",
                 "--out", str(tmp_path / "x.csv")]) == 1
    small = ["simulate", "--model", "lattice", "--steps", "100", "--replicates", "10",
             "--budget", "500", "--out", str(tmp_path / "y.csv")]
    assert main(small) == 1
    assert main(small + ["--force"]) == 0


def test_numeric_failure_exit_code(monkeypatch, tmp_path):
    import hullwalk.montecarlo as mc

    def bad_estimate(model, n, sched, replicates, seed):
        return [mc.MonteCarloEstimate(n, s, float("nan"), 0.0, replicates)
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


def test_limits_heavy_tail_gate(tmp_path, capsys):
    assert main(["limits", "--model", "pareto:1.5"]) == 1
    assert main(["limits", "--model", "pareto:1.5", "--allow-heavy", "--out",
                 str(tmp_path / "h.json")]) == 0
    data = json.loads((tmp_path / "h.json").read_text())
    assert data["heavy_tail"] is True


# ---------------------------------------------------------------------------
# clt
# ---------------------------------------------------------------------------


def test_clt_degenerate_and_zero_drift_exit_one(capsys):
    assert main(["clt", "--model", "st-binary", "--steps", "50", "--replicates", "50"]) == 1
    assert "orthogonal" in capsys.readouterr().err
    assert main(["clt", "--model", "pr", "--steps", "50", "--replicates", "50"]) == 1


def test_clt_pass_and_histogram(tmp_path):
    hist = tmp_path / "h.csv"
    out = tmp_path / "v.json"
    code = main(["clt", "--model", "pr:0.2,0", "--steps", "1000", "--replicates", "1000",
                 "--seed", "3", "--hist-out", str(hist), "--out", str(out)])
    assert code == 0
    verdict = json.loads(out.read_text())
    assert set(verdict) >= {"D", "threshold", "pass"}
    assert verdict["pass"] is True
    rows = hist.read_text().splitlines()
    assert rows[0] == "bin_left,bin_right,count"
    assert len(rows) == 65  # 64 bins on [-4, 4]
    lefts = [float(r.split(",")[0]) for r in rows[1:]]
    assert math.isclose(lefts[0], -4.0) and len(lefts) == 64


def test_clt_samples_once(monkeypatch, tmp_path):
    # 100 replicates stay below two chunks, so sampling runs in this process
    calls = []
    collect = cli.montecarlo.collect_samples

    def counted(*args, **kwargs):
        calls.append(args)
        return collect(*args, **kwargs)

    monkeypatch.setattr(cli.montecarlo, "collect_samples", counted)
    assert main(["clt", "--model", "pr:0.2,0", "--steps", "100", "--replicates", "100",
                 "--hist-out", str(tmp_path / "h.csv"), "--out", str(tmp_path / "v.json")]) == 0
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
    hist = tmp_path / "hist.csv"
    assert main(["clt", "--steps", "0", "--replicates", "50", "--hist-out", str(hist)]) == 1
    _assert_one_error_line(capsys, "n >= 1")
    assert not hist.exists()


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
    ],
    ids=["schedule-inf-ratio", "exact-huge-steps", "model-nan", "model-inf", "threads-not-int"],
)
def test_bad_input_exit_one(monkeypatch, capsys, argv, threads, forbidden, text):
    if threads is not None:
        monkeypatch.setenv("HULLWALK_THREADS", threads)
    if forbidden is not None:
        _forbid(monkeypatch, cli.montecarlo, forbidden)
    assert main(argv) == 1
    _assert_one_error_line(capsys, text)


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


def test_simulate_force_overrides_path_length_guard(monkeypatch):
    _forbid(monkeypatch, cli.montecarlo, "estimate")
    argv = ["simulate", "--model", "pr", "--steps", "4000000000", "--replicates", "2", "--force"]
    with pytest.raises(AssertionError, match="ran past the budget guard"):
        main(argv)


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


def test_exact_independent_of_blas_threads():
    # OpenBLAS splits long dot products across threads and rounds per split;
    # exact's sums must not go through it
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "hullwalk", "exact", "--model", "hex6", "--steps", "6"],
                              env=env, capture_output=True, timeout=600)
        assert proc.returncode == 0, proc.stderr[-2000:]
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["mdiff_check"] == "ok"


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
            return {q: cli.montecarlo.MonteCarloEstimate(8, q, 1.0, math.nan, 2)
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


@pytest.mark.parametrize("model", ["pr:0.2,0", "pr"])
def test_report_pipeline(tmp_path, model):
    csv_p, lim_p, rep_p = tmp_path / "r.csv", tmp_path / "l.json", tmp_path / "rep.json"
    assert main(["simulate", "--model", model, "--steps", "4000", "--replicates", "300",
                 "--seed", "2", "--out", str(csv_p)]) == 0
    assert main(["limits", "--model", model, "--out", str(lim_p)]) == 0
    assert main(["report", "--in", str(csv_p), "--limits", str(lim_p), "--out", str(rep_p)]) == 0
    rep = json.loads(rep_p.read_text())
    assert rep["n"] == 4000
    for row in rep["report"]:
        assert row["verdict"] in ("consistent", "violated", "untested")
    # the big-picture check: nothing contradicts the theory on a healthy run
    assert all(row["verdict"] != "violated" for row in rep["report"])


def _report(tmp_path, lim_args, sim_args=("--model", "pr:0.2,0")):
    csv_p, lim_p, rep_p = tmp_path / "r.csv", tmp_path / "l.json", tmp_path / "rep.json"
    assert main(["simulate", *sim_args, "--steps", "1000", "--replicates", "100", "--seed", "4",
                 "--out", str(csv_p)]) == 0
    assert main(["limits", *lim_args, "--out", str(lim_p)]) == 0
    return csv_p, lim_p, rep_p


def test_report_snyder_steele_row(tmp_path):
    csv_p, lim_p, rep_p = _report(tmp_path, ["--model", "pr:0.2,0"])
    assert main(["report", "--in", str(csv_p), "--limits", str(lim_p), "--out", str(rep_p)]) == 0
    row = json.loads(rep_p.read_text())["report"][-1]
    ss = json.loads(lim_p.read_text())["ss_bound"]
    assert (row["quantity"], row["bound_low"], row["bound_high"]) == ("ss_bound", 0.0, ss)
    assert row["verdict"] == "consistent"
    # inflate the final Var L_n past the bound
    lines = csv_p.read_text().splitlines()
    cols = lines[-1].split(",")
    cols[3] = repr(10.0 * ss * float(cols[0]))
    csv_p.write_text("\n".join(lines[:-1] + [",".join(cols)]) + "\n")
    assert main(["report", "--in", str(csv_p), "--limits", str(lim_p), "--out", str(rep_p)]) == 0
    row = json.loads(rep_p.read_text())["report"][-1]
    assert (row["quantity"], row["verdict"]) == ("ss_bound", "violated")


def test_report_heavy_tail(tmp_path, capsys):
    # zero drift: no row applies; drift: the 2|mu| row alone
    csv_p, lim_p, rep_p = _report(tmp_path, ["--model", "pareto:1.5", "--allow-heavy"],
                                  ("--model", "pareto:1.5"))
    assert main(["report", "--in", str(csv_p), "--limits", str(lim_p)]) == 1
    _assert_one_error_line(capsys, "no quantity")
    csv_p, lim_p, rep_p = _report(tmp_path, ["--model", "pareto:1.5,1,0", "--allow-heavy"],
                                  ("--model", "pareto:1.5,1,0"))
    assert main(["report", "--in", str(csv_p), "--limits", str(lim_p), "--out", str(rep_p)]) == 0
    assert [r["quantity"] for r in json.loads(rep_p.read_text())["report"]] == ["2norm_mu"]


def test_report_heavy_tail_rows_untested(tmp_path):
    # Pareto(1.5) steps have infinite variance, so no standard error holds;
    # the CSV header alone, or the limits file alone, marks the run as heavy
    files = {}
    for model in ("pareto:1.5,1,0", "pr:1,0"):
        csv_p, lim_p = tmp_path / f"{model}.csv", tmp_path / f"{model}.json"
        assert main(["simulate", "--model", model, "--steps", "2000", "--replicates", "100",
                     "--seed", "2", "--out", str(csv_p)]) == 0
        assert main(["limits", "--model", model, "--allow-heavy", "--out", str(lim_p)]) == 0
        files[model] = (csv_p, lim_p)

    def report(csv_model, lim_model):
        rep_p = tmp_path / "rep.json"
        assert main(["report", "--in", str(files[csv_model][0]), "--limits", str(files[lim_model][1]),
                     "--out", str(rep_p)]) == 0
        return json.loads(rep_p.read_text())["report"]

    (row,) = report("pareto:1.5,1,0", "pareto:1.5,1,0")
    assert row["quantity"] == "2norm_mu" and row["verdict"] == "untested"
    # the estimate, 4.7 standard errors from 2|mu| = 2, is still reported
    assert math.isclose(row["estimate"], 2.1749, abs_tol=1e-4)
    assert math.isclose(row["std_error"], 0.0371, abs_tol=1e-4)
    for csv_model, lim_model in (("pareto:1.5,1,0", "pr:1,0"), ("pr:1,0", "pareto:1.5,1,0")):
        rows = report(csv_model, lim_model)
        assert rows and all(r["verdict"] == "untested" and r["std_error"] > 0 for r in rows)
    assert "consistent" in {r["verdict"] for r in report("pr:1,0", "pr:1,0")}


def test_report_malformed_inputs_exit_one(tmp_path, capsys):
    csv_p, lim_p, _ = _report(tmp_path, ["--model", "pr"], ("--model", "pr"))
    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]\n")
    assert main(["report", "--in", str(csv_p), "--limits", str(not_object)]) == 1
    _assert_one_error_line(capsys, "JSON object")
    wrong_type = tmp_path / "str.json"
    wrong_type.write_text('{"norm_mu": "0.4"}\n')
    assert main(["report", "--in", str(csv_p), "--limits", str(wrong_type)]) == 1
    _assert_one_error_line(capsys, "wrong type")
    # drop the se_L column from the header and from every row
    lines = [l if l.startswith("#") else ",".join(l.split(",")[:2] + l.split(",")[3:])
             for l in csv_p.read_text().splitlines()]
    no_se = tmp_path / "no_se.csv"
    no_se.write_text("\n".join(lines) + "\n")
    assert main(["report", "--in", str(no_se), "--limits", str(lim_p)]) == 1
    _assert_one_error_line(capsys, "se_L")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_report_refuses_non_finite_csv(tmp_path, capsys, bad):
    csv_p, lim_p, rep_p = _report(tmp_path, ["--model", "pr:0.2,0"])
    # the final mean_L and se_varL, which feed 2norm_mu, 4sigma2_mu and ss_bound
    lines = csv_p.read_text().splitlines()
    cols = lines[-1].split(",")
    cols[1] = cols[4] = bad
    csv_p.write_text("\n".join(lines[:-1] + [",".join(cols)]) + "\n")
    assert main(["report", "--in", str(csv_p), "--limits", str(lim_p), "--out", str(rep_p)]) == 1
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
