"""Print the output of every benchmark operation, one line each.

    python3 tools/dump_outputs.py [--root CHECKOUT] > dump.txt

Each line is the workload, the seed, the operation's label and the
``repr`` of what its call returned, or ``raised Type: message``, tab
separated.  The operations are every one of the manifest, generic and
verify workloads on seeds 1-3, from ``benchmark/workloads.py`` of the
checkout at --root (default: the one holding this script), run against
that checkout's ``src``; the workloads file is imported, not changed, and
no check or timing runs.  A fourth group, ``series``, prints the exact
full series (``generating_function(...).dump()``, its lines joined by
`` | ``) through order 4 of arrangements with singular summands, which
no workload builds: MIXED (directions e1, e2, (1,1), (1,2) with
constants 0, 1/3, 0, 1/3) at (1/7, 1/11), a2_directions at (0, 0) and
at (1/7, 2/11), and B2 and A2 at (1/3, 1/4).  Two checkouts print the
same outputs exactly when their dumps compare equal:

    python3 tools/dump_outputs.py --root ../parent > parent.txt
    python3 tools/dump_outputs.py > change.txt
    cmp parent.txt change.txt

and ``tools/compare_dumps.py parent.txt change.txt`` lists the exact
lines that differ and how far the printed floats moved.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

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
    from latticesums import generating_function
    for name in ("manifest", "generic", "verify"):
        for seed in (1, 2, 3):
            for op in workloads.build(name, seed).operations:
                _show(name, seed, op.label, lambda: repr(op.call()))
    for label, arr, y in _series_cases():
        _show("series", "-", label, lambda: generating_function(
            arr, y, 4, mode="exact").dump().replace("\n", " | "))
    return 0


def _show(name, seed, label, call) -> None:
    try:
        shown = call()
    except Exception as exc:
        shown = f"raised {type(exc).__name__}: {exc}"
    print(f"{name}\t{seed}\t{label}\t{shown}", flush=True)


def _series_cases():
    """(label, arrangement, y) of the ``series`` group."""
    from latticesums.families import a2_directions, root_system
    from latticesums.lattice import Arrangement, make_functional
    third = Fraction(1, 3)
    mixed = Arrangement(2, [make_functional(d, c) for d, c in zip(
        ((1, 0), (0, 1), (1, 1), (1, 2)), (0, third, 0, third))])
    shift = (third, Fraction(1, 4))
    return [("MIXED y 1/7,1/11", mixed, (Fraction(1, 7), Fraction(1, 11))),
            ("a2_directions y 0,0", a2_directions(), (0, 0)),
            ("a2_directions y 1/7,2/11", a2_directions(),
             (Fraction(1, 7), Fraction(2, 11))),
            ("B2 y 1/3,1/4", root_system("B2"), shift),
            ("A2 y 1/3,1/4", root_system("A2"), shift)]


if __name__ == "__main__":
    sys.exit(main())
