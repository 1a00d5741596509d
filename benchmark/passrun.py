"""One benchmark pass in a fresh interpreter.

run.py starts this script once per pass, one at a time, from the root of
the checkout, and reads the JSON object it prints as its last line:

    python3 benchmark/passrun.py --workload manifest --seed 1 [--trace]
        [--spans PATH] [--setup-only] [--smoke]

``ready`` is the ``time.monotonic()`` reading (system-wide on Linux) when
the inputs are built and the first operation can start; run.py subtracts
the reading it took just before starting the interpreter.

Times are in reference seconds: wall times scaled by the speed of the
host around each operation, which hostspeed.py samples while the pass runs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

import hostspeed


def _import_package(src: str):
    sys.path.insert(0, src)
    import latticesums
    where = os.path.dirname(os.path.abspath(latticesums.__file__))
    if os.path.dirname(where) != src:
        raise SystemExit(f"latticesums imported from {where}, not from {src}")


def run_pass(work, tracer=None) -> dict:
    """Run every operation once, timing the call and checking the output
    outside the timed region.  ``seconds`` is in reference seconds,
    ``wall_s`` as measured, less the time the host probes took."""
    ops = []
    with hostspeed.Sampler() as host:
        for op in work.operations:
            if tracer is not None:
                tracer.active = True
            spent = host.spent
            t0 = time.perf_counter()
            try:
                out = op.call()
                raised = None
            except Exception as exc:  # a failed operation is counted
                raised = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            wall = t1 - t0 - (host.spent - spent)
            if tracer is not None:
                tracer.active = False
            ops.append({"label": op.label, "wall_s": wall, "t0": t0,
                        "t1": t1, "failure": None, "reason": None})
            if raised is not None:
                ops[-1].update(failure="raised", reason=raised)
                continue
            try:
                reason = op.check(out)
            except Exception as exc:
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason is not None:
                ops[-1].update(failure="wrong", reason=reason)
    # the probes taken after an operation count for its scale too
    for op in ops:
        op["scale"] = host.scale(op.pop("t0"), op.pop("t1"))
        op["seconds"] = op["wall_s"] * op["scale"]
    return {"ops": ops, "numeric_bits": work.numeric_bits}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    _import_package(os.path.join(os.getcwd(), "src"))
    import workloads
    work = workloads.build(args.workload, args.seed, args.smoke)
    ready = time.monotonic()
    # run.py scales the set-up time by this
    setup_scale = hostspeed.scale_now()
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_scale": setup_scale}))
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    result = run_pass(work, tracer)
    result["ready"] = ready
    result["setup_scale"] = setup_scale
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracing.layer_metrics(tracer)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
