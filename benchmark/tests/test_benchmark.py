"""Self-tests of the benchmark: run with `python3 -m pytest benchmark/tests`
from the root of the repository."""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import hostspeed
import run
import workloads
from conftest import BENCH_DIR, ROOT

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    MANIFEST = json.load(fh)


# -- inputs ------------------------------------------------------------------


def _labels(name, seed):
    return [op.label for op in workloads.build(name, seed).operations]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_inputs_are_deterministic_in_the_seed(name):
    assert _labels(name, 7) == _labels(name, 7)


def test_the_seed_draws_new_random_cases():
    assert _labels("generic", 7) != _labels("generic", 8)


def test_the_seed_orders_the_functionals_only():
    def unordered(seed):
        return [(sorted(zip(slot.directions, slot.weights, consts)), y)
                for slot, consts, y in workloads.generic_cases(seed)]
    assert unordered(7) == unordered(8)


def test_verify_does_not_move_with_the_seed():
    labels = _labels("verify", 7)
    assert labels == _labels("verify", 8)
    assert sum(label.startswith("hierarchy random") for label in labels) == 8


def test_generic_covers_the_range_of_cyclotomic_orders():
    from latticesums.genfun import cyclotomic_order
    orders = [cyclotomic_order(workloads._arrangement(slot.directions, c), y)
              for slot, c, y in workloads.generic_cases(5)]
    assert min(orders) < 50 and max(orders) > 20000


def test_manifest_rows_run_in_manifest_order():
    labels = _labels("manifest", 7)
    assert labels == _labels("manifest", 8)
    assert len(labels) == 14 and labels[0] == "S((2,2,2),0) shift 1"


def test_random_cases_follow_the_schedule():
    for slot, consts, y in workloads.generic_cases(5)[:-1]:
        assert [c.denominator for c in consts] == \
            list(slot.constant_denominators)
        assert tuple(v.denominator for v in y) == slot.shift_denominators
        assert workloads.singular_triples(slot.directions, consts) == 0
    slot, consts, _ = workloads.SINGULAR_CASE
    assert workloads.singular_triples(slot.directions, consts) == 1


def test_singular_triples_on_hand_made_constants():
    dirs = ((1, 0), (0, 1), (1, 1))
    assert workloads.singular_triples(dirs, [1, 2, 3]) == 1
    assert workloads.singular_triples(dirs, [1, 2, 4]) == 0


# -- report arithmetic ---------------------------------------------------------


def test_numeric_bits():
    assert workloads.numeric_bits(1, 1) == 128
    assert workloads.numeric_bits(1 + 2.0 ** -40, 1) == pytest.approx(40)
    # relative to |exact| once it exceeds one
    assert workloads.numeric_bits(1024 + 2.0 ** -20, 1024) \
        == pytest.approx(30)
    # absolute below one
    assert workloads.numeric_bits(2.0 ** -30, 0) == pytest.approx(30)
    assert workloads.numeric_bits(complex(1, 2.0 ** -10), 1) \
        == pytest.approx(10)
    assert workloads.numeric_bits(1 + 2.0 ** -60, 1, cap=50) == 50


def test_fail_ratio():
    assert run.fail_ratio(0, 42) == 0
    assert run.fail_ratio(3, 132) == pytest.approx(3 / 132)
    with pytest.raises(ValueError):
        run.fail_ratio(0, 0)
    with pytest.raises(ValueError):
        run.fail_ratio(5, 4)


def test_tail_latency():
    samples = [float(i) for i in range(42)]
    value, percentile, n = run.tail_latency(reversed(samples))
    assert (value, n) == (31.0, 42)
    assert sum(s > value for s in samples) == run.TAIL_BEYOND
    assert percentile == pytest.approx(100 * 32 / 42)
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_host_scale_is_the_median_probe_around_an_operation():
    host = hostspeed.Sampler()
    host.at = [float(t) for t in range(20)]
    host.probe_s = [hostspeed.REFERENCE_PROBE_S * (2 if t < 10 else 4)
                    for t in range(20)]
    # enough probes inside the interval: only those count
    assert host.scale(10.0, 19.0) == pytest.approx(0.25)
    # too few inside: the nearest ones to the middle
    assert host.scale(4.0, 4.5) == pytest.approx(0.5)
    # seven of the nine nearest to 12.25 are slow ones
    assert host.scale(12.0, 12.5) == pytest.approx(0.25)


def test_pass_count_fills_the_run():
    passes = run.pass_count(MANIFEST["run_seconds"])
    assert passes >= 3
    assert passes * run.PASS_S <= MANIFEST["run_seconds"] * 1.2


# -- run.py end to end ---------------------------------------------------------


def _drive(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "benchmark", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _smoke(name, trace):
    proc = _drive("--workload", name, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_pass_prints_every_metric(name, trace):
    text, result = _smoke(name, trace)
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in MANIFEST[section]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    for k, v in result["metrics"].items():
        assert math.isfinite(v["value"])
        assert any(line.strip().startswith(f"{k} = ") for line in text)


def test_traced_counts_repeat():
    counts = []
    for _ in range(2):
        _, result = _smoke("generic", 1)
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["genfun.evals"] == 2


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _drive("--workload", "manifest", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
