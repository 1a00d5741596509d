import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest

from latticesums.cli import _load_arr, main
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


def test_module_entry_point_help_exits_0():
    proc = run_cli(["--help"])
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: latticesums")
    assert proc.stderr == ""


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
    assert main(["eval", "--arrangement", "a1_alpha1.json", "--k", "2,2,2",
                 "--y", "0", "--order", "6"]) == 1
    assert "--order" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["eval", "--arrangement", "a1_alpha1.json", "--k", "2,2,2", "--y", "0",
      "--precision", "8"], "error: precision must be at least 24 bits"),
    (["verify", "polytope", "--arrangement", "a1_alpha_half.json", "--y",
      "1/3", "--order", "-1"], "error: series order must be nonnegative"),
    (["verify", "hierarchy", "--arrangement", "a1_alpha1.json", "--y", "1/3",
      "--order", "-1", "--remove", "f0"],
     "error: series order must be nonnegative"),
    (["eval", "--arrangement", "a1_alpha1.json", "--k=-1,2,2", "--y", "0"],
     "error: weights must be nonnegative"),
    (["eval", "--arrangement", "a1_alpha1.json", "--k", "2,2,2", "--y", "0",
      "--mode", "fancy"], "error: argument --mode: invalid choice: 'fancy'"),
    (["eval", "--arrangement", "a1_alpha1.json", "--y", "0"],
     "error: the following arguments are required: --k"),
    (["eval", "--arrangement", "a1_alpha1.json", "--k", "2,2,2", "--y", "0",
      "--bogus"], "error: unrecognized arguments: --bogus"),
    ([], "error: the following arguments are required: command"),
])
def test_usage_errors_exit_1(argv, message, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [[], ["eval"], ["verify", "oracle"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: latticesums")


def test_verify_polytope_refuses_a_shift_of_the_wrong_length(capsys):
    # zipped against the normals, (1/7,) would lie on the singular locus
    assert main(["verify", "polytope", "--arrangement",
                 "triangle_rational.json", "--y", "1/7"]) == 1
    assert capsys.readouterr().err == ("error: y must have one entry per "
                                       "dimension\n")


class Evaluated(Exception):
    pass


@pytest.mark.parametrize("windows, message", [
    ("10,20", "windows must be in one residue class mod 6; the first, 10, "
     "is 4 mod 6"),
    ("10,22", None),
])
def test_verify_oracle_windows_in_one_class_mod_the_common_denominator(
        windows, message, monkeypatch, capsys):
    # y = (1/2, 1/3) oscillates with N mod 6; two windows in one class
    # suffice against a target, and the scan goes on to evaluate it
    import latticesums.cli as cli

    def evaluated(*args, **kwargs):
        raise Evaluated

    monkeypatch.setattr(cli, "lattice_sum_value", evaluated)
    argv = ["verify", "oracle", "--arrangement", "triangle_rational.json",
            "--k", "1,2,2", "--y", "1/2,1/3", "--N", windows]
    if message is None:
        with pytest.raises(Evaluated):
            main(argv)
    else:
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


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


def test_exit_code_fractional_direction(tmp_path, capsys):
    # read with int(), these directions were a1_alpha1's and exited 0
    blob = {"rank": 1, "functionals": [
        {"direction": [-1.5], "constant": 1},
        {"direction": [1], "constant": 0},
        {"direction": [1.9], "constant": 1}]}
    path = tmp_path / "fractional.json"
    path.write_text(json.dumps(blob))
    assert main(["eval", "--arrangement", str(path), "--k", "2,2,2",
                 "--y", "0"]) == 1
    assert "direction entries must be integers" in capsys.readouterr().err


@pytest.mark.parametrize("blob, message", [
    ({"rank": 1}, "the arrangement has no 'functionals' field"),
    ({"rank": 1, "functionals": [{"direction": 5, "constant": 0}]},
     "functional 0: direction must be a list of integers, got 5"),
    ({"rank": 1, "functionals": [{"constant": 0}]},
     "functional 0 has no 'direction' field"),
    ([{"direction": [1], "constant": 0}],
     "the arrangement must be a JSON object"),
    ({"rank": 2.7, "functionals": [{"direction": [1, 0], "constant": 0}]},
     "rank must be an integer, got 2.7"),
    ({"rank": True, "functionals": [{"direction": [1], "constant": 0}]},
     "rank must be an integer, got True"),
    ({"rank": 1, "functionals": [{"direction": [1]}]},
     "functional 0 has no 'constant' field"),
    ({"rank": 1, "functionals": [{"direction": [1], "constant": "1/0"}]},
     "functional 0: unreadable constant '1/0'"),
    ({"rank": 1, "functionals": [{"direction": [1], "constant": True}]},
     "functional 0: unreadable constant True"),
    ({"rank": 1, "functionals": [{"direction": [1],
                                  "constant": {"re": "1/2", "im": 0.5}}]},
     "functional 0: unreadable constant {'re': '1/2', 'im': 0.5}"),
    ({"rank": 1, "functionals": [{"direction": [1],
                                  "constant": {"re": 10 ** 400, "im": 0.5}}]},
     "functional 0: unreadable constant {'re': 1000"),
], ids=["no_functionals", "direction_5", "no_direction", "top_level_list",
        "rank_2.7", "rank_true", "no_constant", "constant_1/0",
        "constant_true", "constant_str_beside_float",
        "constant_float_overflow"])
def test_malformed_arrangement_file_exits_1(blob, message, tmp_path,
                                            capsys):
    # each escaped main with a traceback, or (the ranks and the bool
    # constant) was read as another integer and summed over another
    # arrangement
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(blob))
    assert main(["eval", "--arrangement", str(path), "--k", "2",
                 "--y", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1


ARRANGEMENT_FIXTURES = sorted(
    p.name for p in resources.files("latticesums.fixtures").iterdir()
    if p.name.endswith(".json") and p.name != "manifest.json")


@pytest.mark.parametrize("name", ARRANGEMENT_FIXTURES)
def test_every_bundled_fixture_loads(name):
    arr = _load_arr(name)
    assert arr.size >= arr.rank


def test_exit_code_internal_consistency_failure(monkeypatch, capsys):
    # a2_directions at y = 0 has singular summands, whose reads one degree
    # below zero must cancel; a sum that does not is an internal
    # inconsistency, exit code 3
    import latticesums.genfun as genfun
    from latticesums.errors import NonDivisible

    def not_holomorphic(ring, checks, size):
        assert checks
        raise NonDivisible("series is not divisible by the linear form")

    monkeypatch.setattr(genfun, "_check_holomorphy", not_holomorphic)
    monkeypatch.setattr(genfun, "_coefficient_table", {})
    assert main(["eval", "--arrangement", "a2_directions.json",
                 "--k", "2,2,2", "--y", "0,0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("internal consistency failure: series is not "
                            "divisible by the linear form\n")


def test_verify_polytope_refuses_the_singular_locus(monkeypatch, capsys):
    # y = 0 lies on the singular locus of a1_alpha1, where the polytopes
    # are not all simple: a usage error, which genfun_via_polytopes
    # refuses before any series is built
    import latticesums.genfun as genfun
    import latticesums.polytope as polytope

    def no_series(*args, **kwargs):
        raise AssertionError("built series before the shift was checked")

    monkeypatch.setattr(genfun, "generating_function", no_series)
    monkeypatch.setattr(polytope, "_walk", no_series)
    assert main(["verify", "polytope", "--arrangement", "a1_alpha1.json",
                 "--y", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: y = (0) lies on the singular locus")


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


def test_verify_oracle_rejects_windows_in_two_classes(monkeypatch, capsys):
    # at y = 1/3 the box errors of 250, 500, 1000 and 2000 (classes 1, 2,
    # 1, 2 mod 3) are true truncation errors that do not fall at every
    # window; the scan is refused before the exact target is computed
    import latticesums.cli as cli

    def no_target(*args, **kwargs):
        raise AssertionError("evaluated before the windows were checked")

    monkeypatch.setattr(cli, "lattice_sum_value", no_target)
    assert main(["verify", "oracle", "--arrangement", "a1_alpha_half.json",
                 "--k", "2,2,2", "--y", "1/3",
                 "--N", "250,500,1000,2000"]) == 1
    err = capsys.readouterr().err
    assert "one residue class mod 3" in err
    assert "the first, 250, is 1 mod 3" in err


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
    # windows in one class mod 3: 50, 110 and 200 are all 2 mod 3
    assert main(["verify", "oracle", "--arrangement", str(path),
                 "--k", "2", "--y", "1/3", "--N", "50,110,200",
                 "--precision", "64"]) == 0


def test_verify_oracle_numeric_target_for_gaussian_constants(tmp_path,
                                                             capsys):
    # exact mode has no target for a Gaussian-rational constant; numeric
    # mode used to ask for the exact one all the same, and exit 1 with
    # "... is not a real rational"
    path = tmp_path / "gaussian.json"
    path.write_text(json.dumps({"rank": 1, "functionals": [
        {"direction": [1], "constant": {"re": "1/2", "im": "1/3"}},
        {"direction": [1], "constant": 0}]}))
    assert main(["verify", "oracle", "--arrangement", str(path),
                 "--k", "2,2", "--y", "0", "--N", "100,200,400",
                 "--mode", "numeric"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("target S = (1.6235119685386498194")
    assert "errors monotone decreasing: True" in out


def test_verify_oracle_exact_mode_scans_gaussian_constants_without_target(
        tmp_path, capsys):
    # exact mode reads only real rational constants, so a Gaussian one
    # gives no target and the scan runs on its differences; it used to
    # ask for the target and exit 1 with "... is not a real rational"
    path = tmp_path / "gaussian.json"
    path.write_text(json.dumps({"rank": 1, "functionals": [
        {"direction": [1], "constant": {"re": "1/3", "im": "1/4"}}]}))
    args = ["verify", "oracle", "--arrangement", str(path), "--k", "2",
            "--y", "0", "--mode", "exact"]
    assert main(args + ["--N", "10,20,40"]) == 0
    out = capsys.readouterr().out
    assert "target S" not in out
    assert out.splitlines()[1].startswith("10,")
    # without a target, two windows give one difference and are refused
    assert main(args + ["--N", "10,20"]) == 1
    assert "at least 3 windows without an exact target" in \
        capsys.readouterr().err


@pytest.mark.parametrize("suite", ["polytope", "hierarchy"])
def test_verify_polytope_and_hierarchy_have_no_format_flag(suite, tmp_path,
                                                           capsys):
    # both write their JSON report to --out whatever --format said
    removal = ["--remove", "f0"] if suite == "hierarchy" else []
    assert main(["verify", suite, "--arrangement", "a1_alpha1.json", "--y",
                 "0", "--out", str(tmp_path / "p.csv"), "--format", "csv"]
                + removal) == 1
    assert "--format" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv, order", [
    (["polytope", "--arrangement", "a1_alpha_half.json", "--y", "1/3"], 1),
    (["polytope", "--arrangement", "triangle_rational.json",
      "--y", "1/7,2/11"], 2),
    (["hierarchy", "--arrangement", "a1_alpha1.json", "--y", "0",
      "--remove", "f0"], 0),
], ids=["polytope_a1_alpha_half", "polytope_triangle", "hierarchy_a1"])
def test_verify_refuses_an_order_that_compares_nothing(argv, order, capsys):
    # neither series has a nonzero coefficient through this order: the
    # check used to print "max discrepancy: 0 (exact)" and exit 0
    rc = main(["verify"] + argv + ["--order", str(order)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "max discrepancy" not in captured.out
    assert captured.err.startswith("error: ")
    assert f"through order {order}, so nothing is compared; raise the " \
        "order" in captured.err


def test_verify_polytope_compares_the_one_term_at_order_2(capsys):
    # the lowest order at which a1_alpha_half at y = 1/3 has a term
    rc = main(["verify", "polytope", "--arrangement", "a1_alpha_half.json",
               "--y", "1/3", "--order", "2"])
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


def test_verify_hierarchy_writes_a_gaussian_constant_exactly(tmp_path,
                                                              capsys):
    # the removed functional's constant 1/3 + i/2 is written as the
    # arrangement file writes it, where it was a rounded float pair; a
    # real constant keeps its string
    blob = {"rank": 2, "functionals": [
        {"direction": [1, 0], "constant": "1/2"},
        {"direction": [0, 1], "constant": "1/3"},
        {"direction": [1, 1], "constant": {"re": "1/3", "im": "1/2"}},
        {"direction": [1, 2], "constant": "2/5"}]}
    path = tmp_path / "gaussian.json"
    path.write_text(json.dumps(blob))
    rc = main(["verify", "hierarchy", "--arrangement", str(path),
               "--y", "1/7,2/11", "--order", "3", "--remove", "f2,f3",
               "--mode", "numeric"])
    assert rc == 0
    record = json.loads(capsys.readouterr().out.rsplit("\nmax discrepancy",
                                                       1)[0])
    assert [st["constant"] for st in record["steps"]] == [
        {"re": "1/3", "im": "1/2"}, "2/5"]


def _readme_cli_examples():
    """Each ``latticesums ...`` line of the fenced block under ``## CLI`` in
    README.md, as an argument list."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```", 2)[1]
    return [line.split()[1:] for line in block.splitlines()
            if line.startswith("latticesums ")]


def _command(argv):
    return " ".join(itertools.takewhile(lambda w: not w.startswith("-"),
                                        argv))


@pytest.mark.parametrize("argv", _readme_cli_examples(), ids=_command)
def test_readme_cli_examples_exit_0(argv, capsys):
    # the documented examples cannot drift from the parser
    assert main(argv) == 0


def test_readme_library_example(capsys):
    # the documented API cannot drift: the python block under ``## Library``
    # runs and prints what its comments say
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## Library\n", 1)[1].split("```python\n", 1)[1]
    exec(block.split("```", 1)[0], {})
    assert capsys.readouterr().out.splitlines() == ["pi^2/2 - 39/8", "4"]


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
