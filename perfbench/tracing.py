"""Per-layer tracing of one in-process CLI run.

Wraps the functions each hullwalk module exposes to the next, at the name the
caller looks up, so no file of the package changes.  A span per wrapped call
records its duration and the part of it covered by child spans; spans are
folded into per-name totals as they close (exact enumeration makes about a
million calls, too many to keep one by one).
"""

from __future__ import annotations

import contextlib
import os
import re
import subprocess
import sys
import time
from collections import Counter

import numpy as np


class Tracer:
    """Per-name span totals [calls, seconds, seconds in child spans] and counters."""

    def __init__(self):
        self.spans: dict[str, list] = {}
        self.counts: Counter = Counter()
        self._open: list[float] = []  # child seconds of each open span

    def wrap(self, name: str, fn, count=None):
        totals = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack, counts, clock = self._open, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                totals[0] += 1
                totals[1] += dt
                totals[2] += stack.pop()
                if stack:
                    stack[-1] += dt
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0,))[0]

    def total(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0))[1]

    def self_time(self, name: str) -> float:
        _, total, child = self.spans.get(name, (0, 0.0, 0.0))
        return total - child


def _count_steps(c, args, result):
    c["steps"] += args[1]


def _count_hull(c, args, result):
    c["hull_points"] += len(args[0])
    c["carry_vertices"] += len(result)


def _count_prefilter(c, args, result):
    c["prefilter_in"] += len(args[0])
    c["prefilter_out"] += len(result)


def _count_paths(c, args, result):
    c["enum_paths"] += len(result[0])


def _count_chain(c, args, result):
    c["chain_points"] += len(args[0])


# (module, attribute looked up by the caller, span name, counter)
BOUNDARIES = (
    ("montecarlo", "sample_path", "walkgen.sample_path", _count_steps),
    ("walkgen", "RngStream.generator", "walkgen.generator", None),
    ("montecarlo", "_series_block", "montecarlo.block", None),
    ("montecarlo", "_terminal_block", "montecarlo.block", None),
    ("montecarlo", "_series_arrays", "hullstream.series", None),
    ("montecarlo", "_mean_se", "montecarlo.aggregate", None),
    ("montecarlo", "_var_se", "montecarlo.aggregate", None),
    ("montecarlo", "_enumerate_functionals", "montecarlo.enum", _count_paths),
    ("montecarlo", "martingale_decomposition_check", "montecarlo.mdiff", None),
    ("hullstream", "hull_vertices", "hullstream.hull", _count_hull),
    ("hullstream", "_prefilter", "hullstream.prefilter", _count_prefilter),
    ("hullstream", "_QhullConvexHull", "hullstream.qhull", None),
    ("hullstream", "_functionals_from_vertices", "hullstream.functionals", None),
    ("geom2d", "convex_hull", "hullstream.chain_fallback", None),
    ("geom2d", "_chain", "geom2d.chain", _count_chain),
    ("geom2d", "_orient2d_exact", "geom2d.exact_orient", None),
    ("limits", "_brownian_block", "limits.block", None),
    ("limits", "hull_vertices", "hullstream.hull", _count_hull),
    ("limits", "_functionals_from_vertices", "hullstream.functionals", None),
    ("limits", "_mean_se", "montecarlo.aggregate", None),
    ("limits", "_var_se", "montecarlo.aggregate", None),
    ("limits", "brownian_reference_values", "limits.reference", None),
    ("limits", "assemble_report", "limits.report", None),
)


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore the originals."""
    import hullwalk

    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    try:
        for module, attr, name, count in BOUNDARIES:
            owner = getattr(hullwalk, module)
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            patch(owner, attr, tracer.wrap(name, getattr(owner, attr), count))
        simpson = hullwalk.limits.adaptive_simpson

        def counted_simpson(f, *args, **kwargs):
            def g(x):
                tracer.counts["quadrature_evals"] += 1
                return f(x)

            return simpson(g, *args, **kwargs)

        patch(hullwalk.limits, "adaptive_simpson", counted_simpson)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced run (zero where the layer did not run)."""
    c = t.counts
    sample_s = t.total("walkgen.sample_path")
    return {
        "walkgen.sample_s": sample_s,
        "walkgen.ns_per_step": 1e9 * sample_s / c["steps"] if c["steps"] else 0.0,
        "walkgen.stream_s": t.total("walkgen.generator"),
        "hullstream.prefilter_s": t.total("hullstream.prefilter"),
        "hullstream.prefilter_keep": c["prefilter_out"] / c["prefilter_in"] if c["prefilter_in"] else 0.0,
        "hullstream.qhull_s": t.total("hullstream.qhull"),
        "hullstream.hull_s": t.total("hullstream.hull"),
        "hullstream.hull_calls": t.calls("hullstream.hull"),
        "hullstream.hull_points": c["hull_points"],
        "hullstream.carry_vertices": c["carry_vertices"],
        "hullstream.series_self_s": t.self_time("hullstream.series"),
        "hullstream.functionals_s": t.total("hullstream.functionals"),
        "hullstream.chain_fallbacks": t.calls("hullstream.chain_fallback"),
        "montecarlo.block_self_s": t.self_time("montecarlo.block"),
        "montecarlo.aggregate_s": t.total("montecarlo.aggregate"),
        "montecarlo.enum_s": t.total("montecarlo.enum"),
        "montecarlo.enum_paths": c["enum_paths"],
        "montecarlo.mdiff_s": t.self_time("montecarlo.mdiff"),
        "geom2d.chain_s": t.total("geom2d.chain"),
        "geom2d.chain_calls": t.calls("geom2d.chain"),
        "geom2d.chain_points": c["chain_points"],
        "geom2d.exact_orient_calls": t.calls("geom2d.exact_orient"),
        "limits.block_self_s": t.self_time("limits.block"),
        "limits.reference_s": t.total("limits.reference"),
        "limits.report_s": t.total("limits.report"),
        "quadrature.evals": c["quadrature_evals"],
    }


def _noop_block(lo: int, hi: int) -> np.ndarray:
    return np.zeros(hi - lo)


def pool_seconds(replicates: int, workers: int) -> float:
    """Wall time of montecarlo's replicate dispatch on a no-op block.

    This is pool start-up, submission and result collection at the given
    replicate count; below two chunks' worth the dispatcher runs inline.
    """
    from hullwalk import montecarlo

    before = os.environ.get(montecarlo.THREADS_ENV_VAR)
    os.environ[montecarlo.THREADS_ENV_VAR] = str(workers)
    try:
        t0 = time.perf_counter()
        montecarlo._map_replicates(_noop_block, replicates, ())
        return time.perf_counter() - t0
    finally:
        if before is None:
            del os.environ[montecarlo.THREADS_ENV_VAR]
        else:
            os.environ[montecarlo.THREADS_ENV_VAR] = before


_IMPORTTIME = re.compile(r"import time:\s+\d+ \|\s+(\d+) \| *(\S+)")


def import_seconds(env: dict) -> tuple[float, float]:
    """(hullwalk.cli, scipy.spatial) cumulative import seconds in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import hullwalk.cli"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    found = {}
    for m in _IMPORTTIME.finditer(proc.stderr):
        found.setdefault(m.group(2), int(m.group(1)) * 1e-6)
    return found["hullwalk.cli"], found.get("scipy.spatial", 0.0)
