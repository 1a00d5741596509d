"""Print the output of every benchmark operation, one line each.

    python3 tools/dump_outputs.py [--root CHECKOUT] > dump.txt

Each line is the workload, the seed, the operation's label and the
``repr`` of what its call returned, or ``raised Type: message``, tab
separated.  The operations are every one of the manifest, generic and
verify workloads on seeds 1-3, from ``benchmark/workloads.py`` of the
checkout at --root (default: the one holding this script), run against
that checkout's ``src``; the workloads file is imported, not changed, and
no check or timing runs.  Two checkouts print the same outputs exactly
when their dumps compare equal:

    python3 tools/dump_outputs.py --root ../parent > parent.txt
    python3 tools/dump_outputs.py > change.txt
    cmp parent.txt change.txt
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=HERE,
                    help="checkout whose src and benchmark are run")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"),
                    os.path.join(root, "benchmark")]
    import workloads
    for name in ("manifest", "generic", "verify"):
        for seed in (1, 2, 3):
            for op in workloads.build(name, seed).operations:
                try:
                    shown = repr(op.call())
                except Exception as exc:
                    shown = f"raised {type(exc).__name__}: {exc}"
                print(f"{name}\t{seed}\t{op.label}\t{shown}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
