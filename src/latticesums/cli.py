"""Command-line front end.

Commands:

* ``eval``                evaluate S(k, y) for an arrangement file
* ``reproduce-examples``  run the bundled fixture table and report pass/fail
* ``verify oracle``       truncated-sum scan against the exact value
* ``verify polytope``     polytope reconstruction vs the direct series
* ``verify hierarchy``    operator-removal identity check

Each command reads argparse's namespace and makes, before any evaluation,
only the checks that neither argparse nor the library makes: the
precision and series order (``_check_settings``) and the oracle's windows
(``_oracle_windows``).  ``verify polytope`` and ``verify hierarchy`` share
one report tail (``_finish_report``).  Every other rule is the library's.

Exit codes: 0 ok, 1 I/O or usage (argparse's own errors included, a
``--y`` of the wrong length, kept functionals that no longer span the
space, and a ``verify polytope`` shift on the singular locus), 2 excluded
point, 3 internal consistency failure (a non-divisible sum, a non-simple
polytope off the singular locus, or an exact scalar that cannot be
inverted), 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import importlib.resources as resources
import json
import math
import sys
import time
from fractions import Fraction
from typing import List

from .errors import (ExcludedPoint, NonDivisible, NotInvertible, NotSimple,
                     RankDrop)
from .genfun import lattice_sum_value, zeta_from_S
from .hierarchy import check_hierarchy
from .lattice import arrangement_from_json, load_arrangement
from .oracle import convergence_scan
from .polytope import polytope_report
from .scalar import MIN_PRECISION, format_scalar


def _fixture_text(name: str) -> str:
    return resources.files("latticesums.fixtures").joinpath(name).read_text()


def _load_arr(path: str):
    try:
        return load_arrangement(path)
    except FileNotFoundError:
        try:
            return arrangement_from_json(_fixture_text(path))
        except FileNotFoundError:
            raise FileNotFoundError(f"no such arrangement file or fixture: "
                                    f"{path}")


def _parse_k(text: str):
    return [int(x) for x in text.split(",")]


def _parse_y(text: str):
    try:
        return [Fraction(x) for x in text.split(",")]
    except ZeroDivisionError:
        raise ValueError(f"--y {text}: a shift with denominator 0") from None


def _check_settings(precision: int, order: int = 0) -> None:
    # in both modes, though only numeric mode reads the precision
    if precision < MIN_PRECISION:
        raise ValueError(f"precision must be at least {MIN_PRECISION} bits")
    if order < 0:
        raise ValueError("series order must be nonnegative")


def _oracle_windows(text: str, y, has_target: bool) -> List[int]:
    """The --N windows, refused unless the scan can compare them."""
    windows = [int(x) for x in text.split(",")]
    # errors against a target fall monotonically only between two
    # windows; without one, the differences need three
    need = 2 if has_target else 3
    if len(windows) < need:
        raise ValueError(f"the scan needs at least {need} windows "
                         f"{'with' if has_target else 'without'} an exact "
                         f"target")
    if any(n < 1 for n in windows):
        raise ValueError("window sizes must be at least 1")
    if any(b <= a for a, b in zip(windows, windows[1:])):
        raise ValueError("window sizes must be increasing")
    # for a shift of denominator q the box error oscillates with N mod q,
    # so only windows of one class can show it falling
    q = math.lcm(*(v.denominator for v in y))
    first = windows[0]
    if any((n - first) % q for n in windows):
        raise ValueError(f"windows must be in one residue class mod {q}; "
                         f"the first, {first}, is {first % q} mod {q}")
    return windows


def _write_out(path, rows, fmt, headers=None):
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump(rows, fh, indent=1)
            fh.write("\n")
    else:
        with open(path, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=headers)
            w.writeheader()
            for row in rows:
                w.writerow(row)


def cmd_eval(args) -> int:
    k, y = _parse_k(args.k), _parse_y(args.y)
    _check_settings(args.precision)
    arr = _load_arr(args.arrangement)
    record = lattice_sum_value(arr, y, k, mode=args.mode,
                               precision=args.precision).to_json()
    print(json.dumps(record, indent=1))
    if args.out:
        if args.format == "csv":
            _write_out(args.out, [record], "csv",
                       ["S", "C", "mode", "order", "N_cyclotomic",
                        "timing_ms"])
        else:
            _write_out(args.out, record, "json")
    return 0


def cmd_reproduce_examples(args) -> int:
    manifest = json.loads(_fixture_text("manifest.json"))
    failures = 0
    rows = []
    width = max(len(r["label"]) for r in manifest["rows"])
    for row in manifest["rows"]:
        arr = arrangement_from_json(_fixture_text(row["arrangement"]))
        y = [Fraction(v) for v in row["y"]]
        k = row["k"]
        t0 = time.perf_counter()
        if row["kind"] == "S":
            value = lattice_sum_value(arr, y, k).value
        else:
            value = zeta_from_S(arr, k, row["symmetry_factor"])
        got = format_scalar(value)
        ok = got == row["expect"]
        failures += 0 if ok else 1
        dt = time.perf_counter() - t0
        print(f"{'PASS' if ok else 'FAIL'}  {row['label']:<{width}}  "
              f"{got}  ({dt:.2f}s)")
        rows.append({"label": row["label"], "pass": ok, "value": got,
                     "expect": row["expect"], "seconds": round(dt, 3)})
    print(f"{len(rows) - failures}/{len(rows)} rows reproduced")
    if args.out:
        _write_out(args.out, rows, args.format,
                   ["label", "pass", "value", "expect", "seconds"])
    return 0 if failures == 0 else 4


def cmd_verify_oracle(args) -> int:
    arr = _load_arr(args.arrangement)
    k, y = _parse_k(args.k), _parse_y(args.y)
    _check_settings(args.precision)
    # numeric mode evaluates any constants, exact mode real rational ones
    has_target = args.mode == "numeric" or arr.is_exact
    Ns = _oracle_windows(args.N, y, has_target)
    target = None
    if has_target:
        target = lattice_sum_value(arr, y, k, mode=args.mode,
                                   precision=args.precision).value
        shown = format_scalar(target) if args.mode == "exact" else target
        print(f"target S = {shown}")
    rows = convergence_scan(arr, k, y, Ns, precision=args.precision,
                            target=target)
    print("N,ReZ,ImZ,diff_prev,err")
    out_rows = [dict(row, err=row.get("err")) for row in rows]
    for row in out_rows:
        print(f"{row['N']},{row['re']!r},{row['im']!r},"
              f"{row['diff_prev']!r},{row['err']!r}")
    if args.out:
        _write_out(args.out, out_rows, args.format,
                   ["N", "re", "im", "diff_prev", "err"])
    if target is not None:
        errs = [row["err"] for row in rows]
        decreasing = all(b < a for a, b in zip(errs, errs[1:]))
        print(f"errors monotone decreasing: {decreasing}; "
              f"final err = {errs[-1]:.3e}")
        return 0 if decreasing else 4
    diffs = [row["diff_prev"] for row in rows[1:]]
    return 0 if all(b < a for a, b in zip(diffs, diffs[1:])) else 4


def _finish_report(args, record, shown, discrepancy) -> int:
    """The tail of ``verify polytope`` and ``verify hierarchy``: print the
    report and its discrepancy as `shown`, write the report to --out, and
    pass on an exact zero, or in numeric mode on a `discrepancy` below
    2^(-precision/2)."""
    print(json.dumps(record, indent=1))
    print(f"max discrepancy: {shown}")
    if args.out:
        _write_out(args.out, record, "json")
    ok = shown == "0 (exact)" if args.mode == "exact" \
        else discrepancy < 2.0 ** (-args.precision / 2)
    return 0 if ok else 4


def cmd_verify_polytope(args) -> int:
    y = _parse_y(args.y)
    _check_settings(args.precision, args.order)
    arr = _load_arr(args.arrangement)
    report = polytope_report(arr, y, args.order, mode=args.mode,
                             precision=args.precision)
    disc = report["max_discrepancy"]
    return _finish_report(args, report, disc, disc)


def cmd_verify_hierarchy(args) -> int:
    y = _parse_y(args.y)
    _check_settings(args.precision, args.order)
    arr = _load_arr(args.arrangement)
    tokens = [tok.strip() for tok in args.remove.split(",")]
    removed = [int(tok[1:]) if tok.startswith("f") else int(tok)
               for tok in tokens if tok]
    unknown = [i for i in removed if i not in range(arr.size)]
    if unknown:
        raise ValueError(f"no functionals {unknown} in an arrangement of "
                         f"{arr.size}")
    if len(set(removed)) != len(removed):
        raise ValueError(f"functionals removed twice: {sorted(removed)}")
    keep = [i for i in range(arr.size) if i not in removed]
    report = check_hierarchy(arr, keep, y, args.order, mode=args.mode,
                             precision=args.precision)
    record = {k: v for k, v in report.items() if k != "steps"}
    record["steps"] = [
        {"removed": st.removed,
         # a Gaussian constant as the arrangement file writes it
         "constant": str(st.constant) if isinstance(st.constant, Fraction)
         else {"re": str(st.constant.re), "im": str(st.constant.im)},
         "direction": list(st.direction)}
        for st in report["steps"]]
    return _finish_report(args, record, report["max_discrepancy_str"],
                          report["max_discrepancy"])


def _common_eval_flags(p, need_k=True):
    p.add_argument("--arrangement", required=True,
                   help="arrangement JSON path or bundled fixture name")
    if need_k:
        p.add_argument("--k", required=True, help="weights, e.g. 2,2,2")
    p.add_argument("--y", required=True, help="rational vector, e.g. 0,1/3")
    p.add_argument("--mode", choices=["exact", "numeric"], default="exact")
    p.add_argument("--precision", type=int, default=128)
    p.add_argument("--out", default=None)


def _format_flag(p):
    p.add_argument("--format", choices=["json", "csv"], default="json")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors, in every subcommand, raise
    ValueError: ``main`` reports them with the other usage errors and
    returns 1, where argparse would exit with 2, the code of an excluded
    point."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="latticesums",
        description="Exact and numeric lattice-sum special values")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate S(k, y) for an arrangement")
    _common_eval_flags(p)
    _format_flag(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("reproduce-examples",
                       help="evaluate the bundled reference table")
    p.add_argument("--out", default=None)
    _format_flag(p)
    p.set_defaults(fn=cmd_reproduce_examples)

    pv = sub.add_parser("verify", help="verification suites")
    vsub = pv.add_subparsers(dest="suite", required=True)

    p = vsub.add_parser("oracle", help="truncated-sum convergence scan")
    _common_eval_flags(p)
    _format_flag(p)
    p.add_argument("--N", default="250,500,1000,2000",
                   help="increasing window sizes, in one residue class mod "
                   "the shift's denominator")
    p.set_defaults(fn=cmd_verify_oracle)

    p = vsub.add_parser("polytope", help="polytope reconstruction check")
    _common_eval_flags(p, need_k=False)
    p.add_argument("--order", type=int, default=4)
    p.set_defaults(fn=cmd_verify_polytope)

    p = vsub.add_parser("hierarchy", help="operator-removal identity check")
    _common_eval_flags(p, need_k=False)
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--remove", required=True,
                   help="functionals to remove, e.g. f0 or 0,2")
    p.set_defaults(fn=cmd_verify_hierarchy)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except ExcludedPoint as exc:
        print(f"excluded point: {exc}", file=sys.stderr)
        return 2
    except (NonDivisible, NotSimple, NotInvertible) as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, json.JSONDecodeError, ValueError, RankDrop) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
