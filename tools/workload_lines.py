"""Print the statement lines of ``src`` that no benchmark operation runs.

    python3 tools/workload_lines.py [--root CHECKOUT] > lines.txt

The operations are every one of the manifest, generic and verify
workloads on seeds 1-3, from ``benchmark/workloads.py`` of the checkout at
--root (default: the one holding this script), run against that
checkout's ``src`` under ``sys.settrace``; the workloads file is
imported, not changed, as ``tools/dump_outputs.py`` does.  Only the
operations' calls are traced: building the workloads, importing the
package and checking the outputs (the oracle sums of ``generic``) are
not.  Each line printed is one function of the package, as

    path:first line<TAB>qualified name<TAB>lines that never ran

with ``never called`` for a function none of whose lines ran.  The
lines of a function are those of its code, and of the comprehensions,
generator expressions and lambdas inside it, less its ``def`` line;
nested functions are listed on their own.  A line counts as run when
any statement on it ran.  The last line counts the statement lines and
the ones that ran.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import types
from typing import Dict, List, Set, Tuple

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# code objects whose lines belong to the function that holds them
_FOLDED = ("<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>",
           "<lambda>")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=HERE,
                    help="checkout whose src and benchmark are run")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    package = os.path.join(root, "src", "latticesums")
    sys.path[:0] = [os.path.join(root, "src"),
                    os.path.join(root, "benchmark")]
    import workloads
    files = sorted(os.path.join(package, name)
                   for name in os.listdir(package) if name.endswith(".py"))
    ran = _run_traced(workloads, set(files))
    total = done = 0
    for path in files:
        for first, name, lines in _functions(path):
            missing = sorted(lines - ran[path])
            total += len(lines)
            done += len(lines) - len(missing)
            if missing:
                shown = "never called" if len(missing) == len(lines) \
                    else _ranges(missing)
                print(f"{os.path.relpath(path, root)}:{first}\t{name}\t"
                      f"{shown}")
    print(f"{done} of {total} statement lines ran")
    return 0


def _run_traced(workloads, files: Set[str]) -> Dict[str, Set[int]]:
    """{path: lines run} over the calls of every operation."""
    ran: Dict[str, Set[int]] = {path: set() for path in files}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    for name in ("manifest", "generic", "verify"):
        for seed in (1, 2, 3):
            for op in workloads.build(name, seed).operations:
                sys.settrace(calls)
                try:
                    op.call()
                finally:
                    sys.settrace(None)
    return ran


def _functions(path: str) -> List[Tuple[int, str, Set[int]]]:
    """(first line, qualified name, statement lines) per function of the
    module at `path`, in line order."""
    with open(path) as fh:
        module = compile(fh.read(), path, "exec")
    out = []

    def walk(code: types.CodeType, inside: bool) -> Set[int]:
        """The lines of `code` and of the folded code inside it, after
        listing each function found below it; `inside` is false for a
        module or class body, whose folded code runs on import."""
        lines = {line for _, _, line in code.co_lines() if line is not None}
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            if const.co_name in _FOLDED:
                if inside:
                    lines |= walk(const, True)
            elif not const.co_flags & inspect.CO_OPTIMIZED:
                walk(const, False)  # a class body, listed by its methods
            else:
                own = walk(const, True)
                own.discard(const.co_firstlineno)
                out.append((const.co_firstlineno,
                            getattr(const, "co_qualname", const.co_name),
                            own))
        return lines

    walk(module, False)
    return sorted(out)


def _ranges(lines: List[int]) -> str:
    """Sorted line numbers as ``a-b, c``."""
    out, start = [], lines[0]
    for prev, line in zip(lines, lines[1:] + [None]):
        if line != prev + 1:
            out.append(str(start) if start == prev else f"{start}-{prev}")
            start = line
    return ", ".join(out)


if __name__ == "__main__":
    sys.exit(main())
