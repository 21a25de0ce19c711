"""Command-line interface: simulate | limits | clt | constants | exact | report.

The commands parse their options, guard their inputs, call the library and
write what it returns; every reference value, bound and verdict rule comes
from ``limits`` or ``montecarlo``.  Each command reads its options and at
most one input file, and writes one output, to --out or stdout.  Simulation
output is CSV with a '#'-prefixed metadata header; everything else is JSON.
``report`` rebuilds the model from the CSV's '# model:' line and checks the
run's final checkpoint against ``limits.model_references`` for that model.
simulate, clt and constants refuse, before any sampling, a run over 10^10
steps in all, a path over 2^25 steps, or a seed outside [0, 2^64), which the
random streams would alias to one inside; no option overrides these guards.
Exit codes: 0 success; 1 a configuration or validation error (a ValueError,
or an OSError on a file); 2 a numeric failure (a FloatingPointError: a NaN or
infinity in results, or a walk, a hull functional or an aggregate that
overflows the float range), memory exhaustion or a worker process that died.
The HULLWALK_THREADS environment variable caps the worker processes (at most
one per CPU) without changing any output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures.process import BrokenProcessPool
from datetime import datetime, timezone

import numpy as np

from . import __version__, limits, montecarlo
from .hullstream import CheckpointSchedule
from .walkgen import DEFAULT_BROWNIAN_GRID, parse_model

MAX_WORK = 10**10  # steps (or grid points) times replicates
# One path peaks at 40-50 bytes a step (its draws, positions and hull series),
# so the longest path allowed needs under 2 GB.
MAX_PATH_STEPS = 2**25

# The CSV columns after n: (column, montecarlo.estimate statistic, attribute).
_CSV_FIELDS = (
    ("mean_L", "meanL", "value"),
    ("se_L", "meanL", "std_error"),
    ("var_L", "varL", "value"),
    ("se_varL", "varL", "std_error"),
    ("mean_A", "meanA", "value"),
    ("se_A", "meanA", "std_error"),
    ("var_A", "varA", "value"),
    ("se_varA", "varA", "std_error"),
    ("mean_r", "meanR", "value"),
)
CSV_COLUMNS = ",".join(["n"] + [column for column, _, _ in _CSV_FIELDS])
_SE_COLUMNS = [column for column, _, attr in _CSV_FIELDS if attr == "std_error"]


def _guard_work(label: str, work: int, limit: int):
    """Refuse a run whose work exceeds ``limit``, before any sampling."""
    if work > limit:
        raise ValueError(f"{label} = {work} exceeds the budget guard {limit}")


def _check_seed(seed: int):
    """Refuse a seed outside [0, 2**64): Philox keys on it modulo 2**64, so it would alias one inside."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="hullwalk", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="Monte Carlo estimates along a checkpoint schedule")
    sim.add_argument("--model", required=True, help="increment model spec")
    sim.add_argument("--steps", type=int, required=True)
    sim.add_argument("--replicates", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--schedule", default=CheckpointSchedule.geometric().spec_string())
    sim.add_argument("--out", default="-", help="CSV output path, '-' for stdout")

    lim = sub.add_parser("limits", help="limit constants and variance bounds for a model")
    lim.add_argument("--model", required=True)
    lim.add_argument("--out", default="-")

    clt = sub.add_parser("clt", help="KS normality check of the scaled perimeter")
    clt.add_argument("--model", default="pr:0.2,0")
    clt.add_argument("--steps", type=int, default=5000)
    clt.add_argument("--replicates", type=int, default=10000)
    clt.add_argument("--seed", type=int, default=0)
    clt.add_argument("--out", default="-")

    con = sub.add_parser("constants", help="Monte Carlo estimates of the Brownian hull constants")
    con.add_argument("--grid", type=int, default=DEFAULT_BROWNIAN_GRID)
    con.add_argument("--replicates", type=int, default=2000)
    con.add_argument("--seed", type=int, default=0)
    con.add_argument("--out", default="-")

    ext = sub.add_parser("exact", help="exact enumeration of E L_n, Var L_n, E A_n at small n")
    ext.add_argument("--model", required=True)
    ext.add_argument("--steps", type=int, required=True)
    ext.add_argument("--out", default="-")

    rep = sub.add_parser("report", help="match a simulate CSV against its model's limits")
    rep.add_argument("--in", dest="csv_in", required=True, help="simulate CSV")
    rep.add_argument("--out", default="-")
    return p


def _write_text(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_json(path: str, doc: dict):
    """Write ``doc`` as indented JSON; a NaN or infinity anywhere is a FloatingPointError."""
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as exc:
        raise FloatingPointError("NaN or infinity in results") from exc
    _write_text(path, text + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    model = parse_model(args.model)
    sched = CheckpointSchedule.parse(args.schedule)
    if args.steps < 0:
        raise ValueError(f"steps must be nonnegative, got {args.steps}")
    if args.replicates < 2:
        raise ValueError(f"replicates must be >= 2, got {args.replicates}")
    _guard_work("steps * replicates", args.steps * args.replicates, MAX_WORK)
    _guard_work("steps per path", args.steps, MAX_PATH_STEPS)
    _check_seed(args.seed)
    checkpoints = sched.resolve(args.steps)
    if not checkpoints:
        raise ValueError(f"schedule {sched.spec_string()!r} gives no checkpoints")
    ests = montecarlo.estimate(model, args.steps, sched, args.replicates, args.seed)
    if not np.isfinite([(e.value, e.std_error) for e in ests]).all():
        raise FloatingPointError("NaN or infinity in results")
    by_key = {(e.n, e.statistic): e for e in ests}

    heavy = not model.moments().finite_variance
    lines = [
        f"# hullwalk simulate v{__version__}",
        f"# timestamp: {datetime.now(timezone.utc).isoformat()}",
        f"# model: {model.spec_string()}",
        f"# seed: {args.seed}",
        f"# steps: {args.steps}",
        f"# replicates: {args.replicates}",
        f"# schedule: {sched.spec_string()}",
    ]
    if heavy:
        lines.append("# heavy_tail: true")
    lines.append(CSV_COLUMNS)
    for n in checkpoints:
        row = [format(getattr(by_key[n, stat], attr), ".17g") for _, stat, attr in _CSV_FIELDS]
        lines.append(",".join([str(n)] + row))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_limits(args) -> int:
    _write_json(args.out, limits.model_limits(parse_model(args.model)))
    return 0


def cmd_clt(args) -> int:
    model = parse_model(args.model)
    _guard_work("steps * replicates", args.steps * args.replicates, MAX_WORK)
    _guard_work("steps per path", args.steps, MAX_PATH_STEPS)
    _check_seed(args.seed)
    try:
        result = montecarlo.clt_test(model, args.steps, args.replicates, args.seed)
    except ValueError as exc:
        raise ValueError(f"CLT check not applicable: {exc}") from exc
    counts, edges = np.histogram(result.z, bins=64, range=(-4.0, 4.0))
    verdict = {
        "D": result.D,
        "threshold": result.threshold,
        "pass": result.passed,
        "model": model.spec_string(),
        "steps": args.steps,
        "replicates": args.replicates,
        "bin_edges": edges.tolist(),
        "counts": counts.tolist(),
    }
    _write_json(args.out, verdict)
    return 0


def cmd_constants(args) -> int:
    _guard_work("grid * replicates", args.grid * args.replicates, MAX_WORK)
    _guard_work("grid steps per path", args.grid, MAX_PATH_STEPS)
    _check_seed(args.seed)
    ests = limits.brownian_constant_estimates(args.grid, args.replicates, args.seed)
    report = limits.assemble_report(limits.brownian_reference_values(), ests)
    out = {
        "grid": args.grid,
        "replicates": args.replicates,
        "seed": args.seed,
        "estimates": {k: {"value": e.value, "std_error": e.std_error} for k, e in ests.items()},
        "report": [r.to_dict() for r in report],
    }
    _write_json(args.out, out)
    return 0


def cmd_exact(args) -> int:
    model = parse_model(args.model)
    check = montecarlo.martingale_decomposition_check(model, args.steps)
    ex = check.moments
    out = {
        "model": model.spec_string(),
        "steps": args.steps,
        "EL": ex.EL,
        "VarL": ex.VarL,
        "EA": ex.EA,
        "mdiff_lhs": check.lhs,
        "mdiff_rhs": check.rhs,
        "mdiff_check": "ok" if check.holds else "mismatch",
    }
    _write_json(args.out, out)
    return 0


def _read_simulate_csv(path: str) -> tuple[dict, list[dict]]:
    meta: dict = {}
    rows: list[dict] = []
    header: list[str] | None = None
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if ":" in body:
                    key, _, val = body.partition(":")
                    meta[key.strip()] = val.strip()
                continue
            if header is None:
                header = line.split(",")
                missing = [c for c in CSV_COLUMNS.split(",") if c not in header]
                if missing:
                    raise ValueError(f"{path} lacks columns: {','.join(missing)}")
                continue
            parts = line.split(",")
            if len(parts) != len(header):
                raise ValueError(f"{path}: a data row has {len(parts)} fields, not {len(header)}")
            row = {k: float(v) for k, v in zip(header, parts)}
            if not all(map(math.isfinite, row.values())):
                raise ValueError(f"{path}: a data row holds a NaN or infinity")
            if row["n"] < 0 or not row["n"].is_integer():
                raise ValueError(f"{path}: checkpoint n = {row['n']!r} is not a nonnegative integer")
            if rows and row["n"] <= rows[-1]["n"]:
                raise ValueError(f"{path}: checkpoints are not strictly increasing at n = {int(row['n'])}")
            if min(row[c] for c in _SE_COLUMNS) < 0.0:
                raise ValueError(f"{path}: a data row has a negative standard error")
            rows.append(row)
    if header is None or not rows:
        raise ValueError(f"{path} contains no data rows")
    return meta, rows


def cmd_report(args) -> int:
    meta, rows = _read_simulate_csv(args.csv_in)
    if "model" not in meta:
        raise ValueError(f"{args.csv_in} has no '# model:' line")
    model = parse_model(meta["model"])
    n = rows[-1]["n"]
    if n < 1:
        raise ValueError("final checkpoint must be at least 1")
    final = {(stat, attr): rows[-1][column] for column, stat, attr in _CSV_FIELDS}
    report = limits.model_report(model, n, final)
    out = {
        "source": args.csv_in,
        "model": model.spec_string(),
        "n": int(n),
        "report": [r.to_dict() for r in report],
    }
    _write_json(args.out, out)
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "limits": cmd_limits,
    "clt": cmd_clt,
    "constants": cmd_constants,
    "exact": cmd_exact,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FloatingPointError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except BrokenProcessPool as exc:
        print(f"error: a worker process died: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
