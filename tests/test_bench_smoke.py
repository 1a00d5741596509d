"""The benchmark runs end to end, and its tracer still sees the scalars.

One tiny traced pass of the ``manifest`` workload (about 2 s).  A change
to the scalar or series classes that unhooks the tracer's wrappers reads
as zero scalar or series multiplications and fails here.  Series products
convolve inside the ring without ``ExactScalar.__mul__``, so the series
counts are checked on their own.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_manifest_smoke_pass():
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "manifest",
         "--seed", "1", "--seconds", "0", "--trace", "1", "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["correct"] is True
    assert report["failed"] == 0
    metrics = report["metrics"]
    assert metrics["scalar.mul.calls"]["value"] > 0
    assert metrics["series.mul.calls"]["value"] > 0
    assert metrics["series.mul.term_pairs"]["value"] > 0
