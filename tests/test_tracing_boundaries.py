"""The benchmark's per-layer tracer still finds every name it wraps.

``perfbench/tracing.py`` wraps functions at the names callers look up in
their own module's globals.  A refactor that renames such a function, or
calls it some other way, would leave ``--trace 1`` silently reporting zeros,
so these tests load the tracer by path, unchanged, and check both that each
boundary resolves and that a few small CLI runs pass through every one.
"""

import importlib.util
from pathlib import Path

import pytest

import hullwalk
from hullwalk import cli

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_resolves(tracing):
    assert tracing.BOUNDARIES
    for module, attr, _, _ in tracing.BOUNDARIES:
        owner = getattr(hullwalk, module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{attr}"


# Small CLI runs and the spans each must pass through.  Spans shared by
# several callers (hullstream.functionals from hullstream and limits) are
# checked per run, so each caller's own lookup is covered.
RUNS = [
    (
        # the enumeration's batched hull makes no geom2d._chain call
        ["exact", "--model", "hex6", "--steps", "3"],
        {"montecarlo.enum", "montecarlo.mdiff"},
    ),
    (
        # a walk on a line is flat, so Qhull leaves it to the exact chain, and
        # its collinear turns at non-integer positions reach the exact stage
        ["simulate", "--model", "gauss:1,0,0", "--steps", "30", "--replicates", "2"],
        {
            "walkgen.sample_path", "walkgen.generator", "montecarlo.block", "montecarlo.aggregate",
            "hullstream.series", "hullstream.hull", "hullstream.qhull", "hullstream.functionals",
            "hullstream.chain_fallback", "geom2d.chain", "geom2d.exact_orient",
        },
    ),
    (
        # 4097-point paths go through the prefilter
        ["constants", "--grid", "4096", "--replicates", "2"],
        {
            "walkgen.generator", "limits.block", "hullstream.hull", "hullstream.prefilter",
            "hullstream.qhull", "hullstream.functionals", "montecarlo.aggregate",
            "limits.reference", "limits.report",
        },
    ),
]


def test_runs_cover_every_span(tracing):
    assert {name for _, _, name, _ in tracing.BOUNDARIES} == set().union(*(spans for _, spans in RUNS))


@pytest.mark.parametrize("argv, spans", RUNS, ids=[argv[0] for argv, _ in RUNS])
def test_small_run_passes_its_boundaries(tracing, argv, spans, tmp_path, monkeypatch):
    monkeypatch.setenv("HULLWALK_THREADS", "1")
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert {name for name in spans if tracer.calls(name) == 0} == set()
