"""Measure a baseline: every workload over a range of seeds, then one traced
run per workload, summarised into one JSON file.

    python3 benchmark/baseline.py --seeds 1-10 --out benchmark/baseline.json

Run from the root of a checkout.  For every end-to-end metric the summary
gives the median over seeds, the quartiles (statistics.quantiles, n=4) and
their distance as a share of the median; it also lists every failed
operation and the fewest correct bits of the numeric evaluations.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

import run


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def drive(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.monotonic()
    runner = run.Runner(workload, seed, smoke=False)
    try:
        if trace:
            result = run.per_layer(runner, run.spans_path(workload, seed))
        else:
            result = run.end_to_end(runner, seconds)
    except run.BenchError as exc:
        raise SystemExit(f"{workload} seed {seed}: {exc}")
    return {
        "seed": seed,
        "wall_s": time.monotonic() - t0,
        "metrics": result.metrics,
        "attempted": result.attempted,
        "failed": result.failed,
        "wrong": result.wrong,
        "failures": [f"x{count}: {line}"
                     for line, count in sorted(result.reasons.items())],
        "numeric_bits": {"min": result.bits, "scored": result.scored},
    }


def summarise(runs, metrics) -> dict:
    out = {}
    for m in metrics:
        values = [r["metrics"][m["name"]] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1,
                          "q3": q3, "spread": (q3 - q1) / med,
                          "bound": m["bound"], "values": values}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=None,
                    help="comma-separated; default: all in BENCHMARK.json")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    with open("BENCHMARK.json") as fh:
        manifest = json.load(fh)
    names = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in manifest["workloads"]]
    seconds = manifest["run_seconds"]
    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "run_seconds": seconds,
        "seeds": args.seeds,
        "workloads": {},
    }
    for name in names:
        runs = []
        for seed in _seeds(args.seeds):
            runs.append(drive(name, seed, seconds, 0))
            print(f"{name} seed {seed}: {runs[-1]['wall_s']:.1f} s",
                  file=sys.stderr)
        traced = drive(name, _seeds(args.seeds)[0], seconds, 1)
        failures = sorted({f for r in runs for f in r["failures"]})
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        bits = [r["numeric_bits"]["min"] for r in runs
                if r["numeric_bits"]["scored"]]
        report["workloads"][name] = {
            "end_to_end": summarise(runs, manifest["end_to_end"]),
            "fail_ratio": failed / attempted,
            "attempted": attempted,
            "failed": failed,
            "failures": failures,
            "numeric_bits.min": {"per_seed": bits,
                                 "min": min(bits) if bits else None},
            "wall_s": [r["wall_s"] for r in runs],
            "traced_seed": traced["seed"],
            "per_layer": traced["metrics"],
        }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
