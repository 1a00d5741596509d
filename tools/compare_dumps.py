"""Compare two dumps of ``tools/dump_outputs.py``, line by line.

    python3 tools/compare_dumps.py PARENT CHANGE

PARENT and CHANGE are dump files, written by ``tools/dump_outputs.py`` in
two checkouts.  Lines are matched by their workload, seed and label.  The
script prints:

* every exact line whose output differs (``exact differs``), and every
  line that only one dump holds (``only in ...``);
* for the float-bearing lines, the ``generic`` numeric-mode lines and the
  ``verify`` oracle lines, the largest relative move of any float they
  print, per line that moved and over all of them (``largest move``).

A float's relative move is |a - b| / max(|a|, |b|), taken in exact
decimal arithmetic from the printed digits; floats are paired in the
order they are printed, and a line whose count of floats changed is
listed as differing.  The exit status is 1 when an exact line differs, a
line is missing or a line's count of floats changed, else 0, however far
the floats moved.
"""

from __future__ import annotations

import argparse
import re
import sys
from decimal import Decimal
from typing import Dict, List, Optional, Tuple

# a printed float: digits with a point or an exponent, perhaps quoted
_FLOAT = re.compile(r"-?\d+\.\d*(?:[eE][-+]?\d+)?|-?\d+[eE][-+]?\d+")


def floats_printed(workload: str, label: str) -> bool:
    """Whether the output of the line prints floats that may move: the
    generic numeric-mode values and the oracle rows."""
    if workload == "generic":
        return label.startswith("numeric ")
    return workload == "verify" and label.startswith("oracle ")


def read_dump(path: str) -> Dict[Tuple[str, str, str], str]:
    """{(workload, seed, label): output} of one dump."""
    out = {}
    with open(path) as fh:
        for line in fh:
            workload, seed, label, shown = line.rstrip("\n").split("\t", 3)
            out[workload, seed, label] = shown
    return out


def largest_move(a: str, b: str) -> Optional[Decimal]:
    """The largest relative move between the floats of two outputs, None
    when they print different counts of floats."""
    xs, ys = _FLOAT.findall(a), _FLOAT.findall(b)
    if len(xs) != len(ys):
        return None
    top = Decimal(0)
    for x, y in zip(xs, ys):
        x, y = Decimal(x), Decimal(y)
        size = max(abs(x), abs(y))
        if size:
            top = max(top, abs(x - y) / size)
    return top


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="dump of the parent checkout")
    ap.add_argument("change", help="dump of the changed checkout")
    args = ap.parse_args(argv)
    parent, change = read_dump(args.parent), read_dump(args.change)
    bad = 0
    for key in parent.keys() - change.keys():
        print("only in parent\t" + "\t".join(key))
        bad += 1
    for key in change.keys() - parent.keys():
        print("only in change\t" + "\t".join(key))
        bad += 1
    moves: List[Tuple[Decimal, Tuple[str, str, str]]] = []
    exact = float_lines = 0
    for key in sorted(parent.keys() & change.keys()):
        a, b = parent[key], change[key]
        if not floats_printed(key[0], key[2]):
            exact += 1
            if a != b:
                print("exact differs\t" + "\t".join(key))
                bad += 1
            continue
        float_lines += 1
        move = largest_move(a, b)
        if move is None:
            print("floats differ in count\t" + "\t".join(key))
            bad += 1
        elif move:
            moves.append((move, key))
            print(f"moved {float(move):.3e}\t" + "\t".join(key))
    print(f"{exact} exact lines, {bad} differing or missing; "
          f"{float_lines} float-bearing lines, {len(moves)} moved")
    if moves:
        move, key = max(moves)
        print(f"largest move {float(move):.3e}\t" + "\t".join(key))
    else:
        print("largest move 0")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
