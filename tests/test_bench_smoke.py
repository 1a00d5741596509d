"""The benchmark runs end to end, and its tracer still sees the scalars
and the series.

Two tiny traced passes (about 2 s each).  A change to the scalar or series
classes that unhooks the tracer's wrappers reads as zero scalar or series
multiplications and fails here.  Series products convolve inside the ring
without ``ExactScalar.__mul__``, so the series counts are checked on their
own, on the ``verify`` pass: its full series, divisions and vertex walk
multiply series, while the ``manifest`` rows read single coefficients and
need next to none.  The ``verify`` pass runs one polytope report, so the
polytope counts and the reconstruction's time must read above zero there.
Those passes run no hierarchy check, so a third test traces one in
process.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction

from latticesums import hierarchy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _traced_smoke_pass(workload):
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1", "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["correct"] is True
    assert report["failed"] == 0
    return report["metrics"]


def test_traced_manifest_smoke_pass():
    metrics = _traced_smoke_pass("manifest")
    assert metrics["scalar.mul.calls"]["value"] > 0


def test_traced_verify_smoke_pass():
    metrics = _traced_smoke_pass("verify")
    assert metrics["series.mul.calls"]["value"] > 0
    assert metrics["series.mul.term_pairs"]["value"] > 0
    # the polytope walk calls `vertices` and `adjacency` through the module
    # globals, and the report reconstructs through `genfun_via_polytopes`
    for name in ("polytope.vertices.calls", "polytope.adjacency.calls",
                 "polytope.m_count", "polytope.genfun_via_polytopes.time_s"):
        assert metrics[name]["value"] > 0, name


def test_tracer_sees_the_hierarchy_operators(a1_alpha1, monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "benchmark"))
    import tracing
    tracer = tracing.Tracer()
    tracing.install(tracer)
    tracer.active = True
    try:
        rep = hierarchy.check_hierarchy(a1_alpha1, [1, 2],
                                        (Fraction(0),), 4)
    finally:
        tracer.active = False
        tracer.uninstall()
    assert rep["max_discrepancy"] == 0
    metrics = tracing.layer_metrics(tracer)
    assert metrics["hierarchy.apply_Dg_summand.calls"] > 0
    assert metrics["hierarchy.check_hierarchy.time_s"] > 0
