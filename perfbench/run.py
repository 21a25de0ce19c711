"""Benchmark of the hullwalk CLI: four workloads, each checked against independent references.

Run from the repository root:

    python3 perfbench/run.py --workload drift-long --seed 1 --seconds 28 --trace 0

With ``--trace 0`` it times whole ``python -m hullwalk`` commands as a user runs
them (HULLWALK_THREADS=2) and reports the end-to-end metrics.  With
``--trace 1`` it runs the same command in this process (HULLWALK_THREADS=1),
untraced, with every module boundary wrapped, and untraced again, and reports
the per-layer metrics and the tracing overhead.  Every output is checked by
``checks.py``.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

E2E_THREADS = 2  # nproc of the reference machine
SETUP_REPEATS = 2  # before the first command; one more precedes each command
IMPORTTIME_REPEATS = 3
POOL_REPEATS = 3
INVOCATION_TIMEOUT_S = 150.0

HEX6_STEPS = ((1, 0), (-1, 0), (0, 1), (0, -1), (-1, 1), (1, -1))


@dataclass(frozen=True)
class Workload:
    command: tuple[str, ...]  # CLI arguments, without --seed and --out
    seeded: bool  # whether the command takes --seed
    points: int  # walk positions one invocation folds into hulls
    replicates: int  # replicate count handed to the pool (0: no pool)
    check: Callable[[str], None]


DRIFT_STEPS, DRIFT_REPS = 100_000, 200
DIFF_STEPS, DIFF_REPS = 1000, 1000
EXACT_STEPS = 7
BROWN_GRID, BROWN_REPS = 131072, 50

WORKLOADS = {
    "drift-long": Workload(
        ("simulate", "--model", "pr:0.4,0", "--steps", str(DRIFT_STEPS), "--replicates", str(DRIFT_REPS)),
        True,
        DRIFT_REPS * (DRIFT_STEPS + 1),
        DRIFT_REPS,
        functools.partial(
            checks.check_drift, steps=DRIFT_STEPS, replicates=DRIFT_REPS, drift=0.4, sigma2=1.0, sigma2_perp=0.5
        ),
    ),
    "diffusive-short": Workload(
        ("simulate", "--model", "gauss", "--steps", str(DIFF_STEPS), "--replicates", str(DIFF_REPS)),
        True,
        DIFF_REPS * (DIFF_STEPS + 1),
        DIFF_REPS,
        functools.partial(checks.check_diffusive, steps=DIFF_STEPS, replicates=DIFF_REPS),
    ),
    "exact-enum": Workload(
        ("exact", "--model", "hex6", "--steps", str(EXACT_STEPS)),
        False,
        len(HEX6_STEPS) ** EXACT_STEPS * (EXACT_STEPS + 1),
        0,
        functools.partial(checks.check_exact, steps=HEX6_STEPS, n=EXACT_STEPS),
    ),
    "brownian": Workload(
        ("constants", "--grid", str(BROWN_GRID), "--replicates", str(BROWN_REPS)),
        True,
        BROWN_REPS * 3 * (BROWN_GRID + 1),
        BROWN_REPS,
        functools.partial(checks.check_brownian, grid=BROWN_GRID, replicates=BROWN_REPS),
    ),
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "points_per_s": "points/s", "peak_rss_mb": "MB"}


class Run:
    """Operation counts and the correctness verdict of one benchmark run."""

    def __init__(self, name: str, seed: int, trace: int):
        self.name, self.seed = name, seed
        self.workload = WORKLOADS[name]
        self.attempted = self.failed = 0
        self.correct = True
        self.records: list[dict] = []
        OUT_DIR.mkdir(exist_ok=True)
        self.prefix = OUT_DIR / f"{name}-seed{seed}-trace{trace}"

    def argv(self, i: int, tag: str = "") -> tuple[list[str], Path]:
        """CLI arguments of invocation i; its seed derives from the run's seed."""
        out = Path(f"{self.prefix}-{i}{tag}.out")
        args = list(self.workload.command)
        if self.workload.seeded:
            args += ["--seed", str(self.seed * 1000 + i)]
        return args + ["--out", str(out)], out

    def verify(self, code: int, out: Path, record: dict):
        self.attempted += 1
        record["exit"] = code
        if code != 0:
            self.failed += 1
            return
        try:
            self.workload.check(out.read_text())
        except (checks.CheckFailed, KeyError, ValueError) as exc:
            self.correct = False
            record["check"] = f"{type(exc).__name__}: {exc}"
            print(f"check failed ({out.name}): {exc}", file=sys.stderr)

    def finish(self, metrics: dict[str, tuple[float, str]], detail: dict):
        detail = dict(detail, records=self.records, attempted=self.attempted, failed=self.failed)
        Path(f"{self.prefix}.json").write_text(json.dumps(detail, indent=1) + "\n")
        result = {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        print(json.dumps(result))
        return 0 if self.correct else 1


def cli_env(threads: int) -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), HULLWALK_THREADS=str(threads))


def run_child(args: list[str], env: dict, out) -> tuple[int, float, resource.struct_rusage]:
    """(exit code, wall s, resource usage) of one Python child process.

    The child is reaped with a blocking wait4, so the wall time has no polling
    step (subprocess's own wait polls every 50 ms once a timeout is set), and
    the usage covers the child plus every descendant it reaped.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], env=env, cwd=ROOT, stdout=out, stderr=out)
    killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def import_wall(env: dict) -> float:
    """Wall seconds of a fresh interpreter importing hullwalk.cli."""
    code, wall, _ = run_child(["-c", "import hullwalk.cli"], env, subprocess.DEVNULL)
    if code != 0:
        raise RuntimeError(f"importing hullwalk.cli exited with code {code}")
    return wall


def invoke(argv: list[str], env: dict, log: Path) -> tuple[int, float, float, float]:
    """(exit code, wall s, user+sys CPU s, peak RSS MiB) of one CLI command and its workers.

    CPU time covers the pool workers, and the RSS is the largest of the tree.
    """
    with open(log, "w") as fh:
        code, wall, usage = run_child(["-m", "hullwalk", *argv], env, fh)
    return code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def run_end_to_end(run: Run, seconds: float) -> int:
    env = cli_env(E2E_THREADS)
    import_wall(env)  # compiles the bytecode once, as an installed package would have it
    # Set-up is sampled before every command, so it sees the same machine as they do.
    imports = [import_wall(env) for _ in range(SETUP_REPEATS)]
    start = time.perf_counter()
    i = 0
    while True:
        imports.append(import_wall(env))
        argv, out = run.argv(i)
        code, wall, cpu, rss = invoke(argv, env, Path(f"{out}.log"))
        record = {"argv": argv, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss}
        run.records.append(record)
        run.verify(code, out, record)
        i += 1
        elapsed = time.perf_counter() - start
        # End within half an invocation of `seconds`, so a workload of few long
        # invocations does not lose most of one to rounding down.
        if elapsed + elapsed / (2 * i) > seconds:
            break
    setup_s = statistics.median(imports)
    ok = [r for r in run.records if r["exit"] == 0] or run.records

    def med(key: str) -> float:
        return statistics.median(r[key] for r in ok)

    metrics = {
        "setup_s": setup_s,
        "wall_s": med("wall_s"),
        "cpu_s": med("cpu_s"),
        "points_per_s": statistics.median(run.workload.points / (r["wall_s"] - setup_s) for r in ok),
        "peak_rss_mb": med("peak_rss_mb"),
    }
    return run.finish(
        {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
        {"workload": run.name, "seed": run.seed, "imports_s": imports, "threads": E2E_THREADS},
    )


def run_traced(run: Run, seconds: float) -> int:
    os.environ["HULLWALK_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import hullwalk.cli

    import tracing

    env = cli_env(1)
    imports = [tracing.import_seconds(env) for _ in range(IMPORTTIME_REPEATS)]
    pool_s = 0.0
    if run.workload.replicates:
        pool_s = statistics.median(
            tracing.pool_seconds(run.workload.replicates, E2E_THREADS) for _ in range(POOL_REPEATS)
        )

    def timed(i: int, tag: str, tracer: tracing.Tracer | None) -> float:
        argv, out = run.argv(i, tag)
        t0 = time.perf_counter()
        if tracer is None:
            code = hullwalk.cli.main(argv)
        else:
            with tracing.traced(tracer):
                code = hullwalk.cli.main(argv)
        wall = time.perf_counter() - t0
        record = {"argv": argv, "wall_s": wall, "traced": tracer is not None}
        if tracer is not None:
            record["spans"] = tracer.spans
            record["counts"] = dict(tracer.counts)
        run.records.append(record)
        run.verify(code, out, record)
        return wall

    # A round runs the same inputs untraced, traced, untraced: the untraced pair
    # brackets the traced run, so drift in machine speed and first-call costs
    # largely cancel from the overhead.
    rounds = []  # (mean untraced wall, traced wall, layer metrics)
    start = time.perf_counter()
    while True:
        i = len(rounds)
        tracer = tracing.Tracer()
        before = timed(i, "a", None)
        wrapped = timed(i, "t", tracer)
        after = timed(i, "b", None)
        rounds.append(((before + after) / 2, wrapped, tracing.layer_metrics(tracer)))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > seconds:
            break
    metrics = {
        name: (statistics.median_low(r[2][name] for r in rounds), _layer_unit(name)) for name in rounds[0][2]
    }
    metrics["montecarlo.pool_s"] = (pool_s, "s")
    metrics["cli.import_s"] = (statistics.median(a for a, _ in imports), "s")
    metrics["cli.import_scipy_s"] = (statistics.median(b for _, b in imports), "s")
    metrics["trace.untraced_s"] = (statistics.median_low(r[0] for r in rounds), "s")
    metrics["trace.overhead_s"] = (statistics.median_low(r[1] - r[0] for r in rounds), "s")
    return run.finish(metrics, {"workload": run.name, "seed": run.seed, "threads": 1})


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ns_per_step"):
        return "ns"
    if name.endswith("_keep"):
        return "fraction"
    return "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measurement time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "hullwalk" / "cli.py").is_file():
        print(f"error: no hullwalk sources under {SRC}; run from a hullwalk checkout", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.trace)
    if args.trace:
        return run_traced(run, args.seconds)
    return run_end_to_end(run, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
