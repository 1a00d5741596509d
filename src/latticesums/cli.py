"""Command-line front end.

Commands:

* ``eval``                evaluate S(k, y) for an arrangement file
* ``reproduce-examples``  run the bundled fixture table and report pass/fail
* ``verify oracle``       truncated-sum scan against the exact value
* ``verify polytope``     polytope reconstruction vs the direct series
* ``verify hierarchy``    operator-removal identity check

Exit codes: 0 ok, 1 I/O or usage (including kept functionals that no
longer span the space), 2 excluded point, 3 internal consistency failure (a
non-divisible sum, a non-simple polytope, or an exact scalar that cannot be
inverted), 4 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import importlib.resources as resources
import json
import sys
import time
from fractions import Fraction

from dataclasses import dataclass
from typing import List, Optional

from .errors import (ExcludedPoint, NonDivisible, NotInvertible, NotSimple,
                     RankDrop)
from .genfun import (EvaluationContext, coefficient, lattice_sum_value,
                     zeta_from_S)
from .hierarchy import check_hierarchy
from .lattice import arrangement_from_json, load_arrangement
from .oracle import convergence_scan
from .polytope import polytope_report
from .scalar import format_scalar


@dataclass
class JobConfig:
    """A validated evaluation job assembled from the command line."""

    arrangement: str
    k: Optional[List[int]] = None
    y: Optional[List[Fraction]] = None
    mode: str = "exact"
    precision: int = 128
    order: Optional[int] = None
    oracle_windows: Optional[List[int]] = None
    oracle_target: bool = True
    out: Optional[str] = None
    format: str = "json"

    def validate(self) -> "JobConfig":
        if self.mode not in ("exact", "numeric"):
            raise ValueError("mode must be exact or numeric")
        if self.precision < 24:
            raise ValueError("precision must be at least 24 bits")
        if self.k is not None and any(x < 0 for x in self.k):
            raise ValueError("weights must be nonnegative")
        if self.order is not None and self.order < 0:
            raise ValueError("series order must be nonnegative")
        if self.oracle_windows is not None:
            # errors against a target fall monotonically only between two
            # windows; without one, the differences need three
            need = 2 if self.oracle_target else 3
            if len(self.oracle_windows) < need:
                raise ValueError(
                    f"the scan needs at least {need} windows "
                    f"{'with' if self.oracle_target else 'without'} an "
                    f"exact target")
            if any(n < 1 for n in self.oracle_windows):
                raise ValueError("window sizes must be at least 1")
            if any(b <= a for a, b in zip(self.oracle_windows,
                                          self.oracle_windows[1:])):
                raise ValueError("window sizes must be increasing")
        if self.format not in ("json", "csv"):
            raise ValueError("format must be json or csv")
        return self


def _job_from_args(args, need_k=True, oracle_target=True) -> JobConfig:
    return JobConfig(
        arrangement=args.arrangement,
        k=_parse_k(args.k) if need_k else None,
        y=_parse_y(args.y),
        mode=getattr(args, "mode", "exact"),
        precision=getattr(args, "precision", 128),
        order=getattr(args, "order", None),
        oracle_windows=[int(x) for x in args.N.split(",")]
        if hasattr(args, "N") else None,
        oracle_target=oracle_target,
        out=getattr(args, "out", None),
        format=getattr(args, "format", "json"),
    ).validate()


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


def _write_out(path, rows, fmt, headers=None):
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump(rows, fh, indent=1)
            fh.write("\n")
    else:
        with open(path, "w", newline="") as fh:
            if headers is None:
                headers = sorted({k for row in rows for k in row})
            w = csv.DictWriter(fh, fieldnames=headers)
            w.writeheader()
            for row in rows:
                w.writerow(row)


def cmd_eval(args) -> int:
    job = _job_from_args(args)
    arr = _load_arr(job.arrangement)
    ctx = EvaluationContext(arr, job.y, job.mode, job.precision)
    rep = lattice_sum_value(arr, job.y, job.k, ctx=ctx)
    c_val = coefficient(arr, job.y, job.k, ctx=ctx)
    record = rep.to_json(include_C=c_val)
    print(json.dumps(record, indent=1))
    if job.out:
        if job.format == "csv":
            _write_out(job.out, [record], "csv",
                       ["S", "C", "mode", "order", "N_cyclotomic",
                        "timing_ms"])
        else:
            _write_out(job.out, record, "json")
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
    # the shift is read as rationals, so exact constants give a target
    job = _job_from_args(args, oracle_target=arr.is_exact)
    y, k, Ns = job.y, job.k, job.oracle_windows
    target = None
    if job.oracle_target:
        rep = lattice_sum_value(arr, y, k)
        target = rep.value
        print(f"target S = {format_scalar(rep.value)}")
    rows = convergence_scan(arr, k, y, Ns, precision=job.precision,
                            target=target)
    print("N,ReZ,ImZ,diff_prev,err")
    out_rows = []
    for row in rows:
        err = row.get("err")
        print(f"{row['N']},{row['re']!r},{row['im']!r},"
              f"{row['diff_prev']!r},{err!r}")
        out_rows.append({"N": row["N"], "re": row["re"], "im": row["im"],
                         "diff_prev": row["diff_prev"], "err": err})
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


def cmd_verify_polytope(args) -> int:
    job = _job_from_args(args, need_k=False)
    arr = _load_arr(job.arrangement)
    y = job.y
    report = polytope_report(arr, y, args.order, mode=args.mode,
                             precision=args.precision)
    text = json.dumps(report, indent=1)
    print(text)
    print(f"max discrepancy: {report['max_discrepancy']}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    ok = report["max_discrepancy"] == "0 (exact)" if args.mode == "exact" \
        else report["max_discrepancy"] < 2.0 ** (-args.precision / 2)
    return 0 if ok else 4


def cmd_verify_hierarchy(args) -> int:
    job = _job_from_args(args, need_k=False)
    arr = _load_arr(job.arrangement)
    y = job.y
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
    record["steps"] = [{"removed": st.removed, "constant": str(st.constant),
                        "direction": list(st.direction)}
                       for st in report["steps"]]
    print(json.dumps(record, indent=1))
    print(f"max discrepancy: {report['max_discrepancy_str']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    ok = report["max_discrepancy"] == 0 if args.mode == "exact" \
        else report["max_discrepancy"] < 2.0 ** (-args.precision / 2)
    return 0 if ok else 4


def _common_eval_flags(p, need_k=True):
    p.add_argument("--arrangement", required=True,
                   help="arrangement JSON path or bundled fixture name")
    if need_k:
        p.add_argument("--k", required=True, help="weights, e.g. 2,2,2")
    p.add_argument("--y", required=True, help="rational vector, e.g. 0,1/3")
    p.add_argument("--mode", choices=["exact", "numeric"], default="exact")
    p.add_argument("--precision", type=int, default=128)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="latticesums",
        description="Exact and numeric lattice-sum special values")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate S(k, y) for an arrangement")
    _common_eval_flags(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("reproduce-examples",
                       help="evaluate the bundled reference table")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(fn=cmd_reproduce_examples)

    pv = sub.add_parser("verify", help="verification suites")
    vsub = pv.add_subparsers(dest="suite", required=True)

    p = vsub.add_parser("oracle", help="truncated-sum convergence scan")
    _common_eval_flags(p)
    p.add_argument("--N", default="250,500,1000,2000",
                   help="increasing window sizes; for a shift with "
                   "denominator q, give windows in one residue class mod q")
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
    args = build_parser().parse_args(argv)
    try:
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
