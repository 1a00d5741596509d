"""Benchmark runner for latticesums.

    python3 benchmark/run.py --workload {manifest,generic,verify}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ./src.
Each pass runs in a fresh interpreter (benchmark/passrun.py), started one
at a time, as a closed loop with one client: the next operation starts
when the previous one has returned and been checked.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
one traced pass together with the tracing overhead.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  See NOTES.md for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
PASS_SCRIPT = os.path.join(BENCH_DIR, "passrun.py")
WORKLOADS = ("manifest", "generic", "verify")

# Wall time of one untraced pass of the longest workload, manifest, with
# the interpreter start and the checks, on a 2-CPU x86-64 box with Python
# 3.11.  The pass count is fixed from this and --seconds, so that two runs
# with the same arguments pool the same number of samples.
PASS_S = 13.0
SETUP_SAMPLES = 9        # start-ups measured per run, passes included
TAIL_BEYOND = 10         # samples that must lie beyond the tail percentile
PRECISION_BITS = 128     # library default; caps numeric_bits.min
DEADLINE_S = 170.0       # whole run, so that it exits within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "eval_s.p50": "s",
    "eval_s.tail": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


# ---------------------------------------------------------------------------
# report arithmetic
# ---------------------------------------------------------------------------


def tail_latency(samples: Sequence[float]) -> Tuple[float, float, int]:
    """The sample at the highest percentile that still has TAIL_BEYOND
    samples above it: (value, percentile, sample count).  With too few
    samples it is the maximum, at percentile 100."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    index = n - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / n, n


def fail_ratio(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("no operation attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie between 0 and attempted")
    return failed / attempted


def pass_count(seconds: float) -> int:
    return max(1, round(seconds / PASS_S))


def fewest_bits(passes: List[dict]) -> Tuple[float, int]:
    """numeric_bits.min over the passes and the number of numeric
    evaluations scored; with none it is the cap, the working precision."""
    bits = [b for p in passes for b in p["numeric_bits"]]
    return min(bits, default=float(PRECISION_BITS)), len(bits)


# ---------------------------------------------------------------------------
# running passes
# ---------------------------------------------------------------------------


class Runner:
    def __init__(self, workload: str, seed: int, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.started = time.monotonic()
        self.env = dict(os.environ, PYTHONHASHSEED="0")

    def spawn(self, *flags: str) -> dict:
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("out of time before the next pass")
        cmd = [sys.executable, PASS_SCRIPT, "--workload", self.workload,
               "--seed", str(self.seed), *flags]
        if self.smoke:
            cmd.append("--smoke")
        t_spawn = time.monotonic()
        try:
            # run() kills the child and waits for it when the timeout expires
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  env=self.env, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError("a pass did not finish within the deadline")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"pass exited with code {proc.returncode}")
        out = json.loads(lines[-1])
        out["setup_wall_s"] = out["ready"] - t_spawn
        out["setup_s"] = out["setup_wall_s"] * out["setup_scale"]
        return out


@dataclass
class Result:
    """What one run measured, before it is printed."""

    metrics: Dict[str, float]
    units: Dict[str, str]
    attempted: int
    failed: int
    wrong: int                 # failed operations whose output was wrong
    reasons: Dict[str, int]    # "kind: label: reason" -> times seen
    bits: float                # numeric_bits.min
    scored: int                # numeric evaluations behind it
    notes: List[str]


def _failures(passes: List[dict]):
    attempted = failed = wrong = 0
    reasons: Dict[str, int] = {}
    for p in passes:
        for op in p["ops"]:
            attempted += 1
            if op["failure"]:
                failed += 1
                wrong += op["failure"] == "wrong"
                line = f"{op['failure']}: {op['label']}: {op['reason']}"
                reasons[line] = reasons.get(line, 0) + 1
    return attempted, failed, wrong, reasons


def end_to_end(runner: Runner, seconds: float) -> Result:
    runner.spawn("--setup-only")  # compiles bytecode; not measured
    passes = [runner.spawn() for _ in range(pass_count(seconds))]
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.spawn("--setup-only")["setup_s"])

    durations = [op["seconds"] for p in passes for op in p["ops"]]
    tail, percentile, n = tail_latency(durations)
    # every pass runs the same operations in the same order
    per_operation = [statistics.median(times) for times in
                     zip(*[[op["seconds"] for op in p["ops"]]
                           for p in passes])]
    bits, scored = fewest_bits(passes)
    attempted, failed, wrong, reasons = _failures(passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(sum(op["seconds"] for op in p["ops"])
                                   for p in passes),
        "eval_s.p50": statistics.median(per_operation),
        "eval_s.tail": tail,
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] / 1024
                                         for p in passes),
        "ok_ratio": 1 - fail_ratio(failed, attempted),
    }
    scales = [op["scale"] for p in passes for op in p["ops"]]
    wall_run = statistics.median(sum(op["wall_s"] for op in p["ops"])
                                 for p in passes)
    notes = [
        f"{len(passes)} passes, {attempted} operations, {len(setups)} "
        f"start-ups",
        f"times in reference seconds; as measured, run_s = {wall_run:.4f} "
        f"s; host scale {min(scales):.3f}-{max(scales):.3f}, median "
        f"{statistics.median(scales):.3f}",
        f"eval_s.tail is p{percentile:.1f} of {n} samples",
        f"fail_ratio = {fail_ratio(failed, attempted):.6f} "
        f"({failed} of {attempted}; {wrong} wrong outputs)",
        f"numeric_bits.min = {bits:.4f} bits over {scored} numeric "
        f"evaluations (a per-layer metric)",
    ]
    return Result(metrics, dict(END_TO_END_UNITS), attempted, failed, wrong,
                  reasons, bits, scored, notes)


def per_layer(runner: Runner, spans_path: str) -> Result:
    runner.spawn("--setup-only")  # compiles bytecode; not measured
    plain = runner.spawn()
    traced = runner.spawn("--trace", "--spans", spans_path)
    run_plain = sum(op["seconds"] for op in plain["ops"])
    run_traced = sum(op["seconds"] for op in traced["ops"])
    bits, scored = fewest_bits([traced])
    metrics = dict(traced["layers"])
    metrics["numeric_bits.min"] = bits
    metrics["trace.run_s"] = run_traced
    metrics["trace.overhead_s"] = run_traced - run_plain
    attempted, failed, wrong, reasons = _failures([plain, traced])
    notes = [f"untraced run_s = {run_plain:.4f} s, traced run_s = "
             f"{run_traced:.4f} s", f"spans written to {spans_path}"]
    units = {name: layer_unit(name) for name in metrics}
    return Result(metrics, units, attempted, failed, wrong, reasons, bits,
                  scored, notes)


def spans_path(workload: str, seed: int) -> str:
    """Where a traced run writes its spans (benchmark/out/)."""
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, f"spans-{workload}-{seed}.json")


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("numeric_bits."):
        return "bits"
    return "ratio" if name.endswith("_ratio") else "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one tiny pass, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "latticesums", "__init__.py")):
        print("run from the root of a latticesums checkout: "
              "src/latticesums is missing", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed, args.smoke)
    seconds = 0 if args.smoke else args.seconds
    try:
        if args.trace:
            result = per_layer(runner, spans_path(args.workload, args.seed))
        else:
            result = end_to_end(runner, seconds)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3

    print(f"workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    for line in result.notes:
        print(f"  {line}")
    for line, count in sorted(result.reasons.items()):
        print(f"  failed x{count}: {line}")
    for name, value in result.metrics.items():
        print(f"  {name} = {value:.6g} {result.units[name]}")
    print(json.dumps({
        "correct": result.wrong == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": result.units[name]}
                    for name, value in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
