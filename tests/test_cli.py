import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from latticesums.cli import main
from latticesums.scalar import ExactRing, parse_scalar
from reference import pi_pow


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(args):
    """The CLI in a fresh interpreter that imports this checkout's package,
    installed or not."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC if not path
               else SRC + os.pathsep + path)
    proc = subprocess.run([sys.executable, "-m", "latticesums.cli"] + args,
                          capture_output=True, text=True, timeout=600,
                          env=env)
    return proc


def test_module_entry_point():
    proc = run_cli(["eval", "--arrangement", "a1_alpha1.json",
                    "--k", "2,2,2", "--y", "0"])
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    assert record["S"] == "pi^2/2 - 39/8"
    assert record["mode"] == "exact"
    assert record["N_cyclotomic"] == 4


def test_eval_result_roundtrip(tmp_path):
    out = tmp_path / "result.json"
    rc = main(["eval", "--arrangement", "a1_alpha2.json", "--k", "2,2,2",
               "--y", "0", "--out", str(out)])
    assert rc == 0
    record = json.loads(out.read_text())
    ring = ExactRing(record["N_cyclotomic"])
    value = parse_scalar(ring, record["S"])
    assert value == pi_pow(ring, 2) * ring.from_fraction(Fraction(1, 32)) \
        - ring.from_fraction(Fraction(39, 512))


def test_eval_numeric_mode(capsys):
    rc = main(["eval", "--arrangement", "a1_alpha1.json", "--k", "2,2,2",
               "--y", "0", "--mode", "numeric", "--precision", "128"])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    # at least 30 correct digits against the exact value
    from mpmath.ctx_mp import MPContext
    ctx = MPContext()
    ctx.prec = 200
    got = ctx.mpmathify(record["S"].replace(" ", ""))
    ring = ExactRing(4)
    want = (pi_pow(ring, 2) * ring.from_fraction(Fraction(1, 2))
            - ring.from_fraction(Fraction(39, 8))).embed(ctx)
    assert abs(got - want) < ctx.mpf(10) ** -30


def test_eval_rejects_a_zero_denominator_in_y():
    # Fraction("1/0") raises ZeroDivisionError, which escaped as a
    # traceback
    proc = run_cli(["eval", "--arrangement", "a1_alpha1.json",
                    "--k", "2,2,2", "--y", "1/0"])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


def test_eval_has_no_order_flag(capsys):
    # S and C are read at k; a full series to another order changes nothing
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--arrangement", "a1_alpha1.json", "--k", "2,2,2",
              "--y", "0", "--order", "6"])
    assert exc.value.code == 2
    assert "--order" in capsys.readouterr().err


def test_job_config_validation():
    from latticesums.cli import JobConfig
    with pytest.raises(ValueError):
        JobConfig("x.json", mode="fancy").validate()
    with pytest.raises(ValueError):
        JobConfig("x.json", k=[-1]).validate()
    with pytest.raises(ValueError):
        JobConfig("x.json", oracle_windows=[100, 100]).validate()
    with pytest.raises(ValueError):
        JobConfig("x.json", oracle_windows=[100]).validate()
    with pytest.raises(ValueError):
        JobConfig("x.json", oracle_windows=[0, 100]).validate()
    with pytest.raises(ValueError):
        JobConfig("x.json", oracle_windows=[100, 200],
                  oracle_target=False).validate()
    assert JobConfig("x.json", oracle_windows=[100, 200]).validate()
    assert JobConfig("x.json", oracle_windows=[100, 200, 400],
                     oracle_target=False).validate()
    assert JobConfig("x.json", k=[2], y=[Fraction(0)]).validate()


def test_exit_code_missing_file():
    assert main(["eval", "--arrangement", "definitely_missing.json",
                 "--k", "1", "--y", "0"]) == 1


def test_exit_code_excluded_point():
    # indispensable functional with weight 1 at an excluded point
    import json as _json
    import tempfile
    blob = {"rank": 2, "functionals": [
        {"direction": [1, 0], "constant": 0},
        {"direction": [0, 1], "constant": 0},
        {"direction": [0, 2], "constant": 1}]}
    with tempfile.NamedTemporaryFile("w", suffix=".json",
                                     delete=False) as fh:
        _json.dump(blob, fh)
        path = fh.name
    assert main(["eval", "--arrangement", path, "--k", "1,2,2",
                 "--y", "0,1/3"]) == 2


def test_reproduce_examples_table(tmp_path, capsys):
    out = tmp_path / "table.csv"
    rc = main(["reproduce-examples", "--out", str(out), "--format", "csv"])
    text = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in text
    assert "14/14 rows reproduced" in text
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 15  # header + 14 rows


def test_verify_oracle(tmp_path):
    out = tmp_path / "scan.csv"
    rc = main(["verify", "oracle", "--arrangement", "a1_alpha1.json",
               "--k", "2,2,2", "--y", "0", "--N", "100,200,400",
               "--precision", "96", "--out", str(out), "--format", "csv"])
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "N,re,im,diff_prev,err"
    assert len(rows) == 4


def test_verify_oracle_rational_shift_windows_in_one_class():
    # for a shift of denominator q = 3 the box error oscillates with N mod
    # 3; windows that share one residue class mod 3 decrease monotonically
    assert main(["verify", "oracle", "--arrangement", "a1_alpha_half.json",
                 "--k", "2,2,2", "--y", "1/3",
                 "--N", "240,480,960,1920"]) == 0


@pytest.mark.parametrize("windows", ["250", "-5,10", "0,10", "10,10"])
def test_verify_oracle_rejects_vacuous_windows(windows, monkeypatch,
                                               capsys):
    # one window compares no errors; a window below 1 sums nothing.  Both
    # are refused before the exact target is computed.
    import latticesums.cli as cli

    def no_target(*args, **kwargs):
        raise AssertionError("evaluated before the windows were checked")

    monkeypatch.setattr(cli, "lattice_sum_value", no_target)
    assert main(["verify", "oracle", "--arrangement", "a1_alpha1.json",
                 "--k", "2,2,2", "--y", "0", f"--N={windows}"]) == 1
    assert "window" in capsys.readouterr().err


def test_verify_oracle_without_target_needs_three_windows(tmp_path, capsys):
    # float constants give no exact target; two windows give one
    # difference, which falls by nothing
    path = tmp_path / "float.json"
    path.write_text(json.dumps({"rank": 1, "functionals": [
        {"direction": [1], "constant": 0.25}]}))
    assert main(["verify", "oracle", "--arrangement", str(path),
                 "--k", "2", "--y", "1/3", "--N", "50,100"]) == 1
    assert "at least 3 windows" in capsys.readouterr().err
    assert main(["verify", "oracle", "--arrangement", str(path),
                 "--k", "2", "--y", "1/3", "--N", "50,100,200",
                 "--precision", "64"]) == 0


def test_verify_polytope(capsys):
    rc = main(["verify", "polytope", "--arrangement", "a1_alpha_half.json",
               "--y", "1/3", "--order", "4"])
    assert rc == 0
    assert "max discrepancy: 0 (exact)" in capsys.readouterr().out


def test_verify_hierarchy(capsys):
    rc = main(["verify", "hierarchy", "--arrangement", "a1_alpha1.json",
               "--y", "0", "--order", "4", "--remove", "f0"])
    assert rc == 0
    assert "max discrepancy: 0 (exact)" in capsys.readouterr().out


@pytest.mark.parametrize("remove", ["f9", "f0,f0", ""])
def test_verify_hierarchy_rejects_bad_removal(remove, capsys):
    # an unknown id, a repeated id, and no id at all: each used to pass
    # without removing anything, or is not a removal set
    rc = main(["verify", "hierarchy", "--arrangement", "a1_alpha1.json",
               "--y", "1/3", "--order", "3", "--remove", remove])
    assert rc == 1
    assert "max discrepancy" not in capsys.readouterr().out


def test_verify_hierarchy_rank_drop_exits_1():
    # removing f0 and f1 from the triangle leaves one functional in rank 2
    proc = run_cli(["verify", "hierarchy", "--arrangement",
                    "triangle_rational.json", "--y", "1/7,2/11",
                    "--order", "3", "--remove", "f0,f1"])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1


def test_verify_hierarchy_mutated_operator_exits_4(monkeypatch, capsys):
    import latticesums.hierarchy as hierarchy
    from latticesums.series import RationalForm
    real = hierarchy.apply_Dg_summand

    def negated(ctx, state, g, order):
        new = real(ctx, state, g, order)
        if new is None:
            return None
        bidx, form = new
        return bidx, RationalForm(-form.numerator, form.denominators)

    monkeypatch.setattr(hierarchy, "apply_Dg_summand", negated)
    rc = main(["verify", "hierarchy", "--arrangement", "a1_alpha1.json",
               "--y", "1/3", "--order", "3", "--remove", "f0"])
    assert rc == 4
    assert "max discrepancy: 1" in capsys.readouterr().out


@pytest.mark.parametrize("mode", ["exact", "numeric"])
def test_verify_hierarchy_stray_removed_variable_exits_4(mode, monkeypatch,
                                                         capsys):
    # every coefficient the sub-arrangement has is right, but terms in the
    # removed t0 are left over: numeric mode used to pass them
    import latticesums.hierarchy as hierarchy
    from latticesums.series import TruncatedSeries
    from reference import series_variable
    real = hierarchy.sum_rational_forms

    def with_stray_terms(forms):
        total = real(forms)
        one = TruncatedSeries.one(total.ring, total.vars, total.trunc)
        t0 = series_variable(total.ring, total.vars, total.trunc, "t0")
        return total * (one + t0)

    monkeypatch.setattr(hierarchy, "sum_rational_forms", with_stray_terms)
    rc = main(["verify", "hierarchy", "--arrangement", "a1_alpha1.json",
               "--y", "1/3", "--order", "3", "--remove", "f0",
               "--mode", mode])
    assert rc == 4
    record = json.loads(capsys.readouterr().out.rsplit("\nmax discrepancy",
                                                       1)[0])
    assert record["stray_variable_terms"] > 0


def test_deterministic_output_bytes():
    args = ["eval", "--arrangement", "triangle_rational.json",
            "--k", "1,2,2", "--y", "1/7,1/11"]
    outs = set()
    for _ in range(2):
        proc = run_cli(args)
        record = json.loads(proc.stdout)
        record.pop("timing_ms")
        outs.add(json.dumps(record, sort_keys=True))
    assert len(outs) == 1
