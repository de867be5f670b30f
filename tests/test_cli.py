"""Command-line interface: documents, grids, exit codes, determinism."""

import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from catafind.cli import main


FOLD_1D = """\
vars: x
params: a1 a0
eq: x^2 + a1
"""

SEC6_K0 = """\
vars: x y
params: a1 a2
eq: x + y^2
eq: x^2 + a1*x + a2 + y^2
"""


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, argv):
    rc, out, err = run(capsys, argv)
    assert rc == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# count-minors

def test_count_minors_document(capsys):
    doc = run_json(capsys, ["count-minors", "--dim", "2", "--codim", "5"])
    assert doc["schema"] == 1
    assert doc["tool"].startswith("catafind ")
    assert doc["command"][0] == "count-minors"
    counts = doc["counts"]
    assert counts["table_total"] == 26796
    assert counts["appendix_total"] == 26794
    assert counts["bg_condition_count"] == 7


def test_count_minors_explicit_sequence(capsys):
    doc = run_json(capsys, ["count-minors", "--dim", "3",
                            "--corank-seq", "1,1,1,1"])
    assert doc["counts"]["table_total"] == 41728


def test_count_minors_unprintable_count_is_a_usage_error(capsys):
    start = time.perf_counter()
    rc, out, err = run(capsys, ["count-minors", "--dim", "2", "--codim", "40"])
    assert time.perf_counter() - start < 1.0
    assert rc == 2 and out == ""
    assert err == "error: the stage-16 row count has more than 4300 digits, too many to print\n"


def test_count_minors_largest_printable_codim(capsys):
    # n = 2, corank 1: stage j adds C(rows so far, 2) minors
    cumulative = [2]
    for _ in range(15):
        cumulative.append(cumulative[-1] + math.comb(cumulative[-1], 2))
    doc = run_json(capsys, ["count-minors", "--dim", "2", "--codim", "15"])
    assert doc["counts"]["cumulative"] == cumulative
    assert doc["counts"]["table_total"] == cumulative[-1]
    assert len(str(cumulative[-1])) == 4227


def test_count_minors_takes_codim_or_corank_seq_not_both(capsys):
    rc, out, err = run(capsys, ["count-minors", "--dim", "3", "--codim", "5",
                                "--corank-seq", "1,1"])
    assert rc == 2 and out == ""
    assert "--corank-seq: not allowed with argument --codim" in err


# ---------------------------------------------------------------------------
# find

BUTTERFLY_ARGS = [
    "find", "--builtin", "rd", "--codim", "4", "--fix", "k1=1,k2=1",
    "--box=-1.2:1.2,-1.2:1.2,-1.2:1.2,-1.2:1.2,0:1.2,0:1.2",
]


def test_find_butterflies_document(capsys):
    doc = run_json(capsys, BUTTERFLY_ARGS)
    assert len(doc["reports"]) == 2
    third, s = 1.0 / 3.0, 16.0 / 27.0
    for rep, sign in zip(doc["reports"], (-1.0, 1.0)):
        assert rep["label"] == "butterfly" and rep["full"]
        assert rep["x"] == pytest.approx((sign * third, sign * third), abs=1e-9)
        assert rep["alpha"][:4] == pytest.approx(
            (-sign * s, -sign * s, 2 / 3, 2 / 3), abs=1e-9)
        assert rep["residual"] <= 1e-10
        assert len(rep["g_values"]) == 8
        assert rep["subrank"] == 1 and rep["subrank_ok"]


def test_check_agrees_with_find_at_every_found_point(capsys):
    """check and find share one verification path: at each point find
    reports, check gives the same G values and scales, fullness, subrank
    and canonical B chain, bit for bit."""
    reports = run_json(capsys, BUTTERFLY_ARGS)["reports"]
    assert len(reports) == 2
    for rep in reports:
        names = rep["var_names"] + rep["param_names"]
        at = ",".join(f"{nm}={v!r}" for nm, v in zip(names, rep["x"] + rep["alpha"]))
        got = run_json(capsys, ["check", "--builtin", "rd", "--codim", "4",
                                "--at", at])["reports"][0]
        assert ([(g["value"], g["scale"]) for g in got["g_values"]]
                == [(g["value"], g["scale"]) for g in rep["g_values"]])
        assert (got["full"], got["subrank"], got["subrank_ok"]) == (
            rep["full"], rep["subrank"], rep["subrank_ok"])
        chain = [b["value"] for b in got["b_values"]
                 if b["index"] == [1] * (b["level"] - 1)]
        assert chain == rep["b_values"]


def test_find_output_is_byte_identical(capsys):
    rc1, out1, _ = run(capsys, BUTTERFLY_ARGS)
    rc2, out2, _ = run(capsys, BUTTERFLY_ARGS)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_find_empty_result_is_success(capsys, tmp_path):
    # strictly monotone 1-D field: no zero of the level determinant anywhere
    path = tmp_path / "mono.field"
    path.write_text("vars: x\nparams: a\neq: x + a\n")
    rc, out, err = run(capsys, ["find", str(path), "--codim", "1",
                                "--box=-1:1,-1:1"])
    assert rc == 0
    assert json.loads(out)["reports"] == []
    assert "warning" in err


def test_find_infinite_constant_is_an_empty_result(capsys, tmp_path):
    path = tmp_path / "inf.field"
    path.write_text("vars: x\nparams: a\neq: x^2 + a + 1e400\n")
    rc, out, err = run(capsys, ["find", str(path), "--codim", "1",
                                "--box=-1:1,-1:1"])
    assert rc == 0
    assert json.loads(out)["reports"] == []
    assert "warning" in err


@pytest.mark.parametrize("codim", [1, 2])
def test_find_on_a_field_whose_zero_set_is_a_curve(capsys, tmp_path, codim):
    # both equations vanish on the circle x^2 + y^2 = 1 - a*b: no isolated
    # root, so every seed ends short of converging
    path = tmp_path / "curve.field"
    path.write_text("vars: x y\nparams: a b\neq: x^2 + y^2 - 1 + a*b\n"
                    "eq: 2*x^2 + 2*y^2 - 2 + a*b\n")
    rc, out, err = run(capsys, ["find", str(path), "--codim", str(codim)])
    assert rc == 0
    assert json.loads(out)["reports"] == []
    assert err == "warning: no catastrophe points converged in the given box\n"


OVERFLOW_FIELD = "vars: x\nparams: a\neq: x^7 + a*x^9 + 1/(x - 3)\n"


def test_find_overflowing_seeds_end_without_traceback(capsys, tmp_path):
    path = tmp_path / "overflow.field"
    path.write_text(OVERFLOW_FIELD)
    rc, out, _err = run(capsys, ["find", str(path), "--codim", "1",
                                 "--box=-1e36:1e36,-1:1"])
    assert rc in (0, 3)
    if rc == 0:
        json.loads(out)


def test_check_overflow_is_a_numerical_failure(capsys, tmp_path):
    path = tmp_path / "overflow.field"
    path.write_text(OVERFLOW_FIELD)
    rc, _out, err = run(capsys, ["check", str(path), "--codim", "1",
                                 "--at", "x=1e40"])
    assert rc == 3 and "numerical" in err


SCAN_RD = ["scan", "--builtin", "rd", "--axes", "b,d", "--cells", "2,2"]
FIND_RD1 = ["find", "--builtin", "rd", "--codim", "1", "--seeds", "8"]


@pytest.mark.parametrize("argv", [
    ["find", "--builtin", "rd", "--codim", "1", "--fix", "k1=nan"],
    ["check", "--builtin", "rd", "--codim", "1", "--at", "u=inf"],
    ["boardman", "--builtin", "rd", "--at", "u=-inf"],
    ["find", "--builtin", "rd", "--codim", "1", "--box=-1:1,-1:nan,-1:1"],
    SCAN_RD + ["--range=-1:1,-1e400:1"],
    SCAN_RD + ["--range=-1:1,-1:1", "--box-x=-1:1,-1:inf"],
    FIND_RD1 + ["--tol-g", "nan"],
    FIND_RD1 + ["--tol-b", "inf"],
    SCAN_RD + ["--range=-1:1,-1:1", "--dedup-radius", "nan"],
    ["check", "--builtin", "rd", "--codim", "1", "--at", "u=0", "--tol-g", "inf"],
    ["boardman", "--builtin", "rd", "--tol-b", "nan"],
], ids=["fix", "at", "boardman-at", "box", "range", "box-x", "tol-g", "tol-b",
        "dedup-radius", "check-tol-g", "boardman-tol-b"])
def test_non_finite_flag_values_are_usage_errors(capsys, argv):
    rc, _out, err = run(capsys, argv)
    assert rc == 2 and "not a finite number" in err


@pytest.mark.parametrize("argv, message", [
    (FIND_RD1 + ["--box=1:0,-1:1,-1:1"], "empty seed interval [1.0, 0.0]"),
    (SCAN_RD + ["--range=0:1,0:1", "--box-x=1:0,0:1"],
     "empty state interval in box [(1.0, 0.0), (0.0, 1.0)]"),
    (SCAN_RD + ["--range=1:1,-1:1"], "empty --range interval [1.0, 1.0]"),
    (SCAN_RD + ["--range=-1:1,1:-1"], "empty --range interval [1.0, -1.0]"),
    (SCAN_RD + ["--range=-1e308:1e308,-1:1"],
     "--range interval [-1e+308, 1e+308] too wide for 2 cells"),
    (SCAN_RD[:-1] + ["3,1", "--range=-1e308:0,-1:1"],  # its third cell's value overflows
     "--range interval [-1e+308, 0.0] too wide for 3 cells"),
    (["find", "--builtin", "rd", "--codim", "2", "--box=-1e308:1e308,-1:1,-1:1,-1:1"],
     "seed interval [-1e+308, 1e+308] wider than the largest float"),
], ids=["find-box", "scan-box-x", "scan-range", "scan-range-reversed",
        "scan-range-overflows", "scan-cells-overflow", "find-box-overflows"])
def test_empty_intervals_are_usage_errors(capsys, tmp_path, argv, message):
    rc, out, err = run(capsys, argv)
    assert rc == 2 and message in err and out == ""  # not even a CSV header
    path = tmp_path / "out"
    rc, out, err = run(capsys, argv + ["--out", str(path)])
    assert rc == 2 and message in err and out == "" and not path.exists()


@pytest.mark.parametrize("argv, message", [
    (FIND_RD1 + ["--box="], "error: expected lo:hi, got ''\n"),
    (SCAN_RD + ["--range=-1:1,-1:1", "--box-x="], "error: expected lo:hi, got ''\n"),
    (FIND_RD1 + ["--unfold="], "error: --unfold: '' is not a declared parameter\n"),
    (FIND_RD1 + ["--box=-1:1"], "error: box needs 3 intervals (states, then the "
                                "unfolding parameters), got 1\n"),
    (SCAN_RD + ["--range=-1:1,-1:1", "--box-x=-1:1"],
     "error: box needs 2 intervals (one per state), got 1\n"),
    (FIND_RD1 + ["--fix", "zz=1"], "error: cannot fix 'zz': not a declared parameter\n"),
    (SCAN_RD + ["--range=-1:1,-1:1", "--fix", "zz=1"],
     "error: cannot fix 'zz': not a declared parameter\n"),
    (["boardman", "--builtin", "rd", "--fix", "zz=1"],
     "error: cannot fix 'zz': not a declared parameter\n"),
], ids=["find-empty-box", "scan-empty-box-x", "find-empty-unfold", "find-box-length",
        "scan-box-x-length", "find-fix-name", "scan-fix-name", "boardman-fix-name"])
def test_usage_errors_write_nothing(capsys, tmp_path, argv, message):
    # an empty flag value is no default; the library's own checks name the
    # box's layout and the undeclared name
    rc, out, err = run(capsys, argv)
    assert (rc, out, err) == (2, "", message)
    path = tmp_path / "out"
    rc, out, err = run(capsys, argv + ["--out", str(path)])
    assert (rc, out, err) == (2, "", message) and not path.exists()


SCAN_RD_RANGE = SCAN_RD[:-2] + ["--range=-1:1,-1:1"]


@pytest.mark.parametrize("argv, message", [
    (["boardman", "--builtin", "rd:x"], "builtin rd takes no options"),
    (["boardman", "--builtin", "primary:n"], "expected key=value in builtin spec, got 'n'"),
    (["boardman", "--builtin", "primary:n=x"], "bad numeric value in builtin spec"),
    (["boardman", "--builtin", "primary:foo=1"], "unknown primary options: foo"),
    (["find", "--builtin", "foo", "--codim", "1"], "unknown builtin 'foo'"),
    (["boardman", "{tmp}/rd.field", "--builtin", "rd"],
     "give either a field file or --builtin, not both"),
    (["boardman"], "a field file or --builtin is required"),
    (["boardman", "{tmp}/missing.field"], "cannot read "),
    (["find", "--builtin", "rd", "--codim", "0"], "codimension must be >= 1"),
    (["find", "--builtin", "rd", "--codim", "-1"], "codimension must be >= 1"),
    (["boardman", "--builtin", "rd", "--at", "b=1"], "--at: 'b' is not a state variable"),
    (["scan", "--builtin", "rd", "--axes", "b", "--range=-1:1,-1:1"],
     "--axes needs exactly two parameter names"),
    (SCAN_RD[:-2] + ["--range=-1:1"], "--range needs two intervals"),
    (SCAN_RD_RANGE + ["--cells", "x,2"], "bad --cells 'x,2'"),
    (SCAN_RD_RANGE + ["--cells", "0,2"], "--cells needs two positive integers"),
    (["count-minors", "--dim", "2", "--corank-seq", "1,x"], "bad --corank-seq '1,x'"),
    (["count-minors", "--dim", "2"], "need --codim or --corank-seq"),
], ids=["rd-options", "primary-no-value", "primary-bad-number", "primary-unknown-key",
        "unknown-builtin", "file-and-builtin", "no-field", "unreadable-field",
        "find-codim-0", "find-codim-negative", "boardman-at-parameter", "scan-one-axis",
        "scan-one-range", "scan-cells-not-int", "scan-cells-zero", "corank-seq-not-int",
        "count-minors-no-codim"])
def test_input_errors_exit_2_with_one_error_line(capsys, tmp_path, argv, message):
    rc, out, err = run(capsys, [a.replace("{tmp}", str(tmp_path)) for a in argv])
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_a_scan_failing_at_a_later_cell_writes_nothing(capsys, tmp_path, monkeypatch):
    from catafind import solver
    census, calls = solver.count_steady_states, []

    def third_cell_fails(*args, **kwargs):
        calls.append(args)
        if len(calls) == 3:
            raise ArithmeticError("third cell")
        return census(*args, **kwargs)

    monkeypatch.setattr(solver, "count_steady_states", third_cell_fails)
    argv = SCAN_RD + ["--range=-1:1,-1:1", "--fix", "a=0.2,g=0.2,k1=1,k2=1"]
    rc, out, err = run(capsys, argv)
    assert (rc, out) == (3, "") and len(calls) == 3
    assert err == "numerical failure: ArithmeticError: third cell\n"
    path = tmp_path / "grid.csv"
    calls.clear()
    rc, out, err = run(capsys, argv + ["--out", str(path)])
    assert (rc, out) == (3, "") and len(calls) == 3 and not path.exists()


@pytest.mark.parametrize("argv, flag", [
    (FIND_RD1 + ["--tol-g", "-1"], "--tol-g"),
    (FIND_RD1 + ["--tol-b", "0"], "--tol-b"),
    (FIND_RD1 + ["--dedup-radius", "-1"], "--dedup-radius"),
    (SCAN_RD + ["--range=-1:1,-1:1", "--tol-g", "0"], "--tol-g"),
    (["check", "--builtin", "rd", "--codim", "1", "--at", "u=0",
      "--tol-b=-1e-9"], "--tol-b"),
    (["boardman", "--builtin", "rd", "--tol-b", "0"], "--tol-b"),
], ids=["tol-g", "tol-b", "dedup-radius", "scan-tol-g", "check-tol-b",
        "boardman-tol-b"])
def test_tolerance_flags_out_of_range_are_usage_errors(capsys, argv, flag):
    # tolerances must be > 0, the dedup radius >= 0
    rc, out, err = run(capsys, argv)
    assert rc == 2 and out == "" and flag in err


@pytest.mark.parametrize("argv, flag", [
    (SCAN_RD + ["--range=-1:1,-1:1", "--tol-g", "0.9"], "--tol-g"),
    (["check", "--builtin", "rd", "--codim", "1", "--at", "u=0",
      "--dedup-radius", "1e-6"], "--dedup-radius"),
], ids=["scan-tol-g", "check-dedup-radius"])
def test_tolerance_flags_a_subcommand_does_not_read_are_usage_errors(
        capsys, argv, flag):
    # a scan computes no G, and check never deduplicates
    rc, out, err = run(capsys, argv)
    assert rc == 2 and out == "" and flag in err


def test_find_accepts_a_zero_dedup_radius(capsys):
    doc = run_json(capsys, FIND_RD1 + ["--dedup-radius", "0"])
    assert doc["reports"]


def test_find_codim_exceeds_parameters(capsys):
    rc, _out, err = run(capsys, ["find", "--builtin", "rd", "--codim", "9"])
    assert rc == 2 and err


def test_find_unfold_shorter_than_codim_is_a_usage_error_before_building(
        capsys, monkeypatch):
    from catafind import solver
    built = []
    monkeypatch.setattr(solver, "_system", lambda *args: built.append(args))
    rc, out, err = run(capsys, ["find", "--builtin", "rd", "--codim", "2",
                                "--unfold", "b", "--fix", "k1=1,k2=1"])
    assert (rc, out) == (2, "")
    assert err == "error: --unfold names 1 parameter(s), fewer than --codim 2\n"
    assert built == []


def test_check_unfold_shorter_than_codim_is_a_usage_error(capsys):
    rc, out, err = run(capsys, ["check", "--builtin", "rd", "--codim", "2",
                                "--unfold", "b", "--at", "k1=1"])
    assert (rc, out) == (2, "")
    assert err == "error: --unfold names 1 parameter(s), fewer than --codim 2\n"


@pytest.mark.parametrize("argv", [["find", "--fix", "k1=1,k2=1"], ["check", "--at", "k1=1"]])
def test_unfold_naming_a_parameter_twice_is_a_usage_error(capsys, argv):
    rc, out, err = run(capsys, argv + ["--builtin", "rd", "--codim", "2",
                                       "--unfold", "b, d,b"])
    assert (rc, out) == (2, "")
    assert err == "error: --unfold: 'b' is named twice\n"


def test_find_box_arity_checked(capsys):
    rc, _out, err = run(capsys, ["find", "--builtin", "rd", "--codim", "1",
                                 "--box=-1:1"])
    assert rc == 2 and "intervals" in err


def test_find_beyond_twelve_unknowns(capsys):
    # 13 unknowns: the Halton seeds need a 13th prime base
    doc = run_json(capsys, ["find", "--builtin", "primary:n=1,r=12",
                            "--codim", "12", "--seeds", "64"])
    assert len(doc["reports"]) == 1
    rep = doc["reports"][0]
    assert rep["label"] == "A_12" and rep["full"]
    assert max(abs(t) for t in rep["x"] + rep["alpha"]) <= 1e-9


def test_builtin_primary_fold(capsys):
    doc = run_json(capsys, ["find", "--builtin", "primary:n=2,r=1",
                            "--codim", "1", "--box=-1:1,-1:1,-1:1"])
    assert len(doc["reports"]) == 1
    rep = doc["reports"][0]
    assert rep["label"] == "fold" and rep["full"]
    assert max(abs(t) for t in rep["x"] + rep["alpha"]) <= 1e-9


@pytest.mark.parametrize("spec, message", [
    ("lam=nan,tau=1", "finite"),
    ("lam=1e400,tau=1", "finite"),  # parses as inf
    ("lam=1,tau=-inf", "finite"),
    ("lam=0,tau=1", "nonzero"),
], ids=["lam-nan", "lam-overflow", "tau-minus-inf", "lam-zero"])
def test_builtin_primary_bad_constant_is_a_usage_error(capsys, spec, message):
    rc, out, err = run(capsys, ["find", "--builtin", "primary:n=2,r=2," + spec,
                                "--codim", "2", "--seeds", "4"])
    assert rc == 2 and out == ""
    assert err == f"error: lambda and tau values must all be {message}\n"


def test_builtin_primary_repeated_key_is_a_usage_error(capsys):
    # --fix and --at reject a repeated name too; the last value does not win
    rc, out, err = run(capsys, ["find", "--builtin", "primary:n=2,r=2,tau=1,tau=2",
                                "--codim", "1", "--seeds", "4"])
    assert (rc, out) == (2, "")
    assert err == ("error: --builtin: duplicate key 'tau' in "
                   "'primary:n=2,r=2,tau=1,tau=2'\n")


# ---------------------------------------------------------------------------
# check

def test_check_butterfly_point(capsys):
    at = ("u=0.33333333333333331,v=0.33333333333333331,"
          "b=-0.59259259259259256,d=-0.59259259259259256,"
          "a=0.66666666666666663,g=0.66666666666666663,k1=1,k2=1")
    doc = run_json(capsys, ["check", "--builtin", "rd", "--codim", "4",
                            "--at", at])
    rep = doc["reports"][0]
    assert all(entry["zero"] for entry in rep["b_values"])
    assert all(entry["nonzero"] for entry in rep["g_values"])
    assert rep["full"] and rep["subrank"] == 1
    assert rep["verdict"] == "underlying catastrophe: butterfly (full)"


def test_check_degenerate_corank(capsys, tmp_path):
    path = tmp_path / "sec6.field"
    path.write_text(SEC6_K0)
    doc = run_json(capsys, ["check", str(path), "--codim", "2", "--at", "x=0"])
    rep = doc["reports"][0]
    by_key = {(e["level"], tuple(e["index"])): e for e in rep["b_values"]}
    assert by_key[(1, ())]["zero"]
    assert by_key[(2, (1,))]["zero"]
    assert not by_key[(2, (2,))]["zero"]
    assert rep["subrank"] == 0 and not rep["subrank_ok"]
    assert "not a valid underlying catastrophe" in rep["verdict"]


def test_check_no_singularity(capsys, tmp_path):
    path = tmp_path / "id.field"
    path.write_text("vars: x\nparams: a\neq: x + a\n")
    doc = run_json(capsys, ["check", str(path), "--codim", "1", "--at", "x=0"])
    assert doc["reports"][0]["verdict"] == "no singularity"


def test_check_a_fold_is_no_codimension_2_catastrophe(capsys):
    # x1^3 + a2*x1 + a1 at a1 = 2, a2 = -3 is (x1 - 1)^2 (x1 + 2): x1 = 1
    # is a fold, where F and B_1 vanish exactly and B_2 does not
    doc = run_json(capsys, ["check", "--builtin", "primary:n=2,r=2", "--codim", "2",
                            "--at", "x1=1,a1=2,a2=-3"])
    rep = doc["reports"][0]
    assert rep["f_values"] == [0, 0]
    by_key = {(e["level"], tuple(e["index"])): e for e in rep["b_values"]}
    assert by_key[(1, ())]["value"] == 0 and by_key[(1, ())]["zero"]
    assert not by_key[(2, (1,))]["zero"]
    assert rep["verdict"] == "no codimension-2 catastrophe"


@pytest.mark.parametrize("codim", ["0", "-1"])
def test_check_codimension_below_one_is_a_usage_error(capsys, codim):
    rc, out, err = run(capsys, ["check", "--builtin", "rd", "--codim", codim,
                                "--at", "u=0"])
    assert rc == 2 and out == ""
    assert "codimension must be >= 1" in err


def test_check_numerical_failure_exit_code(capsys, tmp_path):
    path = tmp_path / "sing.field"
    path.write_text("vars: x\nparams: a\neq: 1/x\n")
    rc, _out, err = run(capsys, ["check", str(path), "--codim", "1",
                                 "--at", "x=0"])
    assert rc == 3 and "numerical" in err


def test_check_numerical_failure_names_the_exception(capsys):
    rc, out, err = run(capsys, ["check", "--builtin", "rd", "--codim", "2",
                                "--at", "u=1e200"])
    assert (rc, out) == (3, "")
    assert "numerical failure: OverflowError" in err


def test_check_rejects_excess_codimension_before_building(capsys, monkeypatch):
    """A codimension above the unfolding parameters is a usage error before
    any determinant of the nest is built."""
    from catafind import determinants as det
    built = []
    build_B = det.DeterminantSet.build_B

    def counted_build_B(D, *args):
        built.append(args)
        return build_B(D, *args)

    monkeypatch.setattr(det.DeterminantSet, "build_B", counted_build_B)
    rc, out, err = run(capsys, ["check", "--builtin", "rd", "--codim", "7",
                                "--at", "u=0"])
    assert (rc, out) == (2, "")
    assert "codimension 7 exceeds the 6 available unfolding parameters" in err
    assert built == []


def compile_count(monkeypatch, capsys, argv):
    """compile_evaluator calls of one CLI run without the field's memo."""
    from catafind import expr, solver
    calls = []
    compile_evaluator = expr.compile_evaluator

    def counting_compile(exprs, *args, **kwargs):
        calls.append(len(exprs))
        return compile_evaluator(exprs, *args, **kwargs)

    monkeypatch.setattr(solver, "_memo", None)
    monkeypatch.setattr(expr, "compile_evaluator", counting_compile)
    assert run(capsys, argv)[0] == 0
    return len(calls)


PRIMARY_N3R6 = "primary:n=3,r=6,lam=1.3:-0.7,tau=0.9:-1.6"


@pytest.mark.parametrize("argv", [
    ["check", "--builtin", PRIMARY_N3R6, "--codim", "6",
     "--at", "x1=0.3,x2=-0.2,a1=0.1"],
    ["check", "--builtin", "rd", "--codim", "4",
     "--at", "u=0.3,v=0.3,b=-0.6,d=-0.6,a=0.7,g=0.7,k1=1,k2=1"],
])
def test_cold_check_compiles_one_level(capsys, monkeypatch, argv):
    assert compile_count(monkeypatch, capsys, argv) == 1


def test_cold_find_compiles_the_newton_system_and_one_level(capsys, monkeypatch):
    argv = ["find", "--builtin", PRIMARY_N3R6, "--codim", "6", "--seeds", "64"]
    assert compile_count(monkeypatch, capsys, argv) == 2


def test_cold_find_level_outputs_every_b(capsys, monkeypatch):
    """A find report's level, whose one function check calls too, outputs
    every B_{i,K} for G's complex-step rows, so it reads an off-chain B as
    it reads a chain one, with no further compile: 131 outputs, where the
    find's level with the symbolic rows of G had 178, and check's 254."""
    from catafind import determinants as det, expr, solver
    compiled = []
    compile_evaluator = expr.compile_evaluator

    def recording_compile(exprs, *args):
        compiled.append(set(exprs))
        return compile_evaluator(exprs, *args)

    monkeypatch.setattr(solver, "_memo", None)
    monkeypatch.setattr(expr, "compile_evaluator", recording_compile)
    argv = ["find", "--builtin", PRIMARY_N3R6, "--codim", "6", "--seeds", "64"]
    assert run(capsys, argv)[0] == 0 and len(compiled) == 2
    level, D = compiled[-1], solver._memo[1]
    chain = {D.build_B(i, (1,) * (i - 1)) for i in range(1, 7)}
    off_chain = {D.build_B(i, K) for i in range(1, 7)
                 for K in det.index_strings(3, i - 1)} - chain
    assert len(chain) == 6 and len(off_chain) == 76
    assert chain | off_chain <= level and len(level) == 131
    p = expr.Point((0.3, -0.2, 0.0), (0.1,) + (0.0,) * 5)
    assert D.level(6, p).b(3, (1, 1)) != D.level(6, p).b(3, (1, 2))
    assert len(compiled) == 2


ONE_PROCESS = """
import contextlib, io, json, sys
import catafind.cli as cli
runs = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out, \\
            contextlib.redirect_stderr(io.StringIO()) as err:
        rc = cli.main(argv)
    runs.append([out.getvalue() + "exit: %d\\n" % rc, err.getvalue()])
print(json.dumps({"runs": runs, "parsers": cli._build_parser.cache_info().misses}))
"""


def test_one_process_serves_a_usage_error_find_and_check_from_one_parser():
    """Calls of cli.main in one process share one argument parser, and each
    prints what it prints alone: a usage error (exit 2) the bytes of a fresh
    process, then the README find and check their golden documents."""
    root = Path(__file__).resolve().parents[1]
    golden = root / "tests" / "golden"
    commands = dict(line.split(maxsplit=1)
                    for line in (golden / "COMMANDS").read_text().splitlines())
    names = ["find-readme", "check-readme"]
    argvs = [["find", "--builtin", "rd"]] + [commands[n].split() for n in names]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", ONE_PROCESS, json.dumps(argvs)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["parsers"] == 1
    fresh = subprocess.run([sys.executable, "-m", "catafind.cli", *argvs[0]],
                           env=env, capture_output=True, text=True, timeout=120)
    usage_out, usage_err = got["runs"][0]
    assert usage_out == "exit: 2\n" and fresh.returncode == 2
    assert usage_err == fresh.stderr and "--codim" in usage_err
    for name, (text, err) in zip(names, got["runs"][1:]):
        assert text == (golden / f"{name}.out").read_text() and not err, name


def test_check_unknown_coordinate(capsys):
    rc, _out, err = run(capsys, ["check", "--builtin", "rd", "--codim", "1",
                                 "--at", "w=1"])
    assert rc == 2 and "unknown identifier" in err


def test_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.field"
    path.write_text("vars: x\nparams:\neq: x +* 2\n")
    rc, _out, err = run(capsys, ["check", str(path), "--codim", "1",
                                 "--at", "x=0"])
    assert rc == 2 and err


@pytest.mark.parametrize("divisions", [300, 1200])
def test_deep_division_chain_field(capsys, tmp_path, divisions):
    path = tmp_path / "chain.field"
    path.write_text(f"vars: x\nparams: a\neq: 1{'/x' * divisions} + a\n")
    rc, out, _err = run(capsys, ["check", str(path), "--codim", "1",
                                 "--at", "x=1.5"])
    assert rc == 0 and json.loads(out)["reports"]
    if divisions == 300:
        rc, out, _err = run(capsys, ["find", str(path), "--codim", "1",
                                     "--seeds", "4"])
        assert rc == 0 and "reports" in json.loads(out)


def test_nested_parentheses_are_a_parse_error(capsys, tmp_path):
    path = tmp_path / "nested.field"
    path.write_text(f"vars: x\nparams: a\neq: {'(' * 300}x{')' * 300} + a\n")
    rc, _out, err = run(capsys, ["check", str(path), "--codim", "1",
                                 "--at", "x=1.5"])
    assert rc == 2 and "line 3, col" in err and "nested" in err


def test_long_unary_minus_run(capsys, tmp_path):
    path = tmp_path / "minus.field"
    path.write_text(f"vars: x\nparams: a\neq: {'-' * 1200}x^2 + a\n")
    doc = run_json(capsys, ["find", str(path), "--codim", "1", "--seeds", "8",
                            "--box=-1:1,-1:1"])
    assert [rep["label"] for rep in doc["reports"]] == ["fold"]


TOKENS = ("x", "a", "y", "1", "2.5", "0", "1e400", " ", "+", "-", "*", "/",
          "^", "^2", "^-1", "(", ")", ".", ",", "#", "=", "eq:")


@st.composite
def field_bodies(draw):
    """Right-hand sides of one `eq:` line: random token soup, or a long run
    of one construct that used to exhaust the stack."""
    kind = draw(st.sampled_from(("tokens", "divisions", "parentheses", "minuses")))
    if kind == "tokens":
        return "".join(draw(st.lists(st.sampled_from(TOKENS), max_size=30)))
    k = draw(st.integers(0, 300 if kind == "parentheses" else 1500))
    if kind == "divisions":
        return "1" + "/x" * k + " + a"
    if kind == "parentheses":
        return "(" * k + "x" + ")" * draw(st.sampled_from((k, k + 1, k - 1))) + " + a"
    return "-" * k + "x + a"


FLAG_VALUES = st.one_of(
    st.floats().map(repr), st.integers(-5, 5).map(str),
    st.sampled_from(("", "1e400", "-0", "abc", "1:2", "=", "nan", "-inf")))


@settings(max_examples=80, deadline=None)
@given(body=field_bodies(), command=st.sampled_from(("find", "check")),
       value=FLAG_VALUES)
def test_every_field_text_ends_in_a_documented_exit_code(tmp_path_factory, body,
                                                          command, value):
    path = tmp_path_factory.mktemp("field") / "f.field"
    path.write_text(f"vars: x\nparams: a b\neq: {body}\n")
    argv = [command, str(path), "--codim", "1"]
    argv += (["--seeds", "2", "--fix", f"b={value}"] if command == "find"
             else ["--at", f"x={value}"])
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    assert rc in (0, 2, 3)


# ---------------------------------------------------------------------------
# scan

def test_scan_fold_counts(capsys, tmp_path):
    path = tmp_path / "fold.field"
    path.write_text(FOLD_1D)
    rc, out, _err = run(capsys, [
        "scan", str(path), "--axes", "a1,a0", "--range=-1:1,-1:1",
        "--cells", "3,1", "--box-x=-2:2", "--dedup-radius", "1e-5"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a1,a0,n_states,n_attracting"
    assert len(lines) == 1 + 3
    counts = [int(line.split(",")[2]) for line in lines[1:]]
    assert counts == [2, 1, 0]  # across the fold at a1 = 0
    attract = [int(line.split(",")[3]) for line in lines[1:]]
    assert all(a <= c for a, c in zip(attract, counts))


def test_scan_grid_shape_and_symmetry(capsys):
    argv = ["scan", "--builtin", "rd", "--axes", "b,d", "--range=-1:1,-1:1",
            "--cells", "4,4", "--fix", "a=0.2,g=0.2,k1=1,k2=1"]
    rc, out, _err = run(capsys, argv)
    assert rc == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 16
    grid = {(row[0], row[1]): (row[2], row[3]) for row in rows}
    # the field is symmetric under swapping the two equations when a=g, k1=k2
    for (b, d), cell in grid.items():
        assert grid[(d, b)] == cell


@pytest.mark.parametrize("text", [
    "vars: x y\nparams: a b\neq: x - y + a\neq: 2*x - 2*y + 2*a\n",
    "vars: x\nparams: a b\neq: a*x^2 + x - 1\n",
], ids=["curve", "diverging-path"])
def test_scan_warns_of_a_cell_with_a_lost_path(capsys, tmp_path, text):
    # every zero set of the first field is a line; at a = 0 the root -1/a of
    # the second has gone to infinity
    path = tmp_path / "f.field"
    path.write_text(text)
    rc, out, err = run(capsys, ["scan", str(path), "--axes", "a,b",
                                "--range=-1:1,-1:1", "--cells", "3,1"])
    assert rc == 0 and len(out.splitlines()) == 4
    assert "warning: cell a=0,b=0: " in err and "Traceback" not in err


def test_scan_output_is_deterministic(capsys):
    argv = ["scan", "--builtin", "rd", "--axes", "b,d", "--range=-1:1,-1:1",
            "--cells", "3,3", "--fix", "a=0.2,g=0.2,k1=1,k2=1"]
    _rc, out1, _ = run(capsys, argv)
    _rc, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_scan_axes_must_differ(capsys):
    rc, out, err = run(capsys, ["scan", "--builtin", "rd", "--axes", "b,b",
                                "--range=-1:1,-1:1", "--cells", "1,1"])
    assert rc == 2 and out == "" and "twice" in err


def test_fixing_a_solved_parameter_is_a_usage_error(capsys):
    rc, out, err = run(capsys, ["find", "--builtin", "rd", "--codim", "4",
                                "--fix", "b=5,k1=1,k2=1"])
    assert rc == 2 and out == "" and "'b'" in err and "unfolding" in err
    rc, out, err = run(capsys, ["scan", "--builtin", "rd", "--axes", "b,d",
                                "--range=-1:1,-1:1", "--cells", "1,1",
                                "--fix", "b=3,k1=1,k2=1"])
    assert rc == 2 and out == "" and "'b' is a scan axis" in err


def test_scan_axis_must_be_parameter(capsys):
    rc, _out, err = run(capsys, ["scan", "--builtin", "rd", "--axes", "u,d",
                                 "--range=-1:1,-1:1"])
    assert rc == 2 and "parameter" in err


# ---------------------------------------------------------------------------
# boardman

def test_boardman_cusp_symbol(capsys):
    doc = run_json(capsys, ["boardman", "--builtin", "primary:n=2,r=2"])
    b = doc["boardman"]
    assert b["symbol"] == [1, 1]
    assert b["stage_minor_counts"] == [1, 3]
    assert b["stage_sizes"] == [2, 3, 6]


def test_boardman_identity_symbol(capsys, tmp_path):
    path = tmp_path / "id2.field"
    path.write_text("vars: x y\nparams:\neq: x\neq: y\n")
    doc = run_json(capsys, ["boardman", str(path), "--at", "x=0.3,y=0.4"])
    assert doc["boardman"]["symbol"] == []
    assert doc["boardman"]["stage_sizes"] == [2]


def test_boardman_negative_max_depth_is_a_usage_error(capsys):
    # depth 0 would examine no stage and print the symbol of a regular point
    for depth in ("-1", "0"):
        rc, out, err = run(capsys, ["boardman", "--builtin", "primary:n=2,r=2",
                                    "--max-depth", depth])
        assert rc == 2 and out == ""
        assert "max depth must be >= 1" in err


def test_boardman_cap_exit_code(capsys):
    rc, _out, err = run(capsys, ["boardman", "--builtin", "primary:n=2,r=4",
                                 "--max-depth", "5", "--cap", "100"])
    assert rc == 2 and "cap" in err


@pytest.mark.parametrize("argv, symbol", [
    (["--builtin", "primary:n=3,r=4"], [1, 1, 1, 1]),
    (["--builtin", "primary:n=2,r=5", "--max-depth", "5"], [1, 1, 1, 1, 1]),
], ids=["n3r4", "n2r5-depth5"])
def test_boardman_caps_only_the_stages_it_reads(capsys, argv, symbol):
    # the stage after the last corank (41,728 and 26,796 rows) is never built
    doc = run_json(capsys, ["boardman", *argv])
    assert doc["boardman"]["symbol"] == symbol


# ---------------------------------------------------------------------------
# document plumbing

@pytest.mark.parametrize("argv", [
    ["count-minors", "--dim", "2", "--codim", "2"],
    ["find", "--builtin", "rd", "--codim", "1", "--seeds", "4"],
], ids=["count-minors", "find"])
def test_out_into_a_missing_directory_is_a_usage_error(capsys, tmp_path, argv):
    out = tmp_path / "missing" / "x.json"
    rc, stdout, err = run(capsys, argv + ["--out", str(out)])
    assert rc == 2 and stdout == ""
    assert err.startswith("error: ") and "x.json" in err


NUMPY_FREE_RUN = """
import contextlib, io, sys
import catafind.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = catafind.cli.main(["find", "--builtin", "rd", "--codim", "2"])
print(rc, "numpy" in sys.modules)
catafind.cli.main(["scan", "--builtin", "rd", "--axes", "b,d", "--cells", "3,3",
                   "--range=-1.5:1.5,-1.5:1.5", "--fix", "a=0.2,g=0.2,k1=1,k2=1"])
"""


def test_find_runs_without_numpy_and_scan_labels_still_work():
    """A fresh process imports the CLI and runs a find without loading
    numpy; only the scan's stability labels import it."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", NUMPY_FREE_RUN], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    first, header, *cells = proc.stdout.splitlines()
    assert first == "0 False"
    assert header == "b,d,n_states,n_attracting"
    assert len(cells) == 9
    # at b = d = 0 the origin, with Jacobian -[[1, 0.2], [0.2, 1]], is the
    # one attracting state of three
    assert cells[4] == "0,0,3,1"


HASH_FREE_RUN = """
import contextlib, io, sys
import catafind.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = catafind.cli.main(["count-minors", "--dim", "4", "--codim", "4"])
print(rc, "hashlib" in sys.modules)
"""


def test_count_minors_loads_no_hashlib():
    """A fresh process imports the CLI and counts minors without loading
    hashlib: only a document of an input hashes it, and the find golden
    documents pin that input_sha256."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", HASH_FREE_RUN], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 False\n"


REPEATED_FINDS = """
import contextlib, gc, io, json, sys, weakref
import catafind.cli, catafind.expr as ex, catafind.solver as solver
calls = {"systems": 0, "derivatives": 0}
init, differentiate = solver.NewtonSystem.__init__, ex.differentiate

def counted_init(*args):
    calls["systems"] += 1
    init(*args)

def counted_differentiate(*args):
    calls["derivatives"] += 1
    return differentiate(*args)

solver.NewtonSystem.__init__, ex.differentiate = counted_init, counted_differentiate
runs = []
for argv in json.loads(sys.argv[1]):
    before = dict(calls)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = catafind.cli.main(argv)
    runs.append([out.getvalue() + "exit: %d\\n" % rc,
                 {k: calls[k] - before[k] for k in calls}])
    if len(runs) == 1:
        first = weakref.ref(solver._memo[1])
gc.collect()
print(json.dumps({"runs": runs, "first_set_alive": first() is not None}))
"""


def test_repeated_finds_reuse_one_field_system():
    """In one process, a second find on an equal field builds no Newton
    system and takes no derivative; a find on another field drops the first
    field's set; every document keeps its golden bytes but one hash."""
    golden = Path(__file__).resolve().parent / "golden"
    commands = dict(line.split(maxsplit=1)
                    for line in (golden / "COMMANDS").read_text().splitlines())
    names = ["find-readme", "find-readme", "find-primary-n2r4", "find-readme"]
    argv = json.dumps([commands[name].split() for name in names])
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", REPEATED_FINDS, argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    for name, (text, _calls) in zip(names, got["runs"]):
        want = (golden / f"{name}.out").read_text()
        if name == "find-primary-n2r4":
            # term order follows what the process built before (here the
            # rd field), so the primary field's canonical input text, and
            # with it the input_sha256 line, differs from a fresh process's
            text, want = ([line for line in t.splitlines()
                           if '"input_sha256"' not in line] for t in (text, want))
        assert text == want, name
    calls = [c for _text, c in got["runs"]]
    assert calls[0]["systems"] == 1 and calls[0]["derivatives"] > 0
    assert calls[1] == {"systems": 0, "derivatives": 0}
    assert calls[2]["systems"] == 1 and calls[3]["systems"] == 1
    assert not got["first_set_alive"]


def test_out_flag_writes_file(capsys, tmp_path):
    out = tmp_path / "doc.json"
    rc, stdout, _err = run(capsys, ["count-minors", "--dim", "1",
                                    "--codim", "4", "--out", str(out)])
    assert rc == 0 and stdout == ""
    assert json.loads(out.read_text())["counts"]["table_total"] == 16


@pytest.mark.parametrize("argv", [
    FIND_RD1, SCAN_RD + ["--range=-1:1,-1:1"], ["count-minors", "--dim", "2", "--codim", "2"],
    ["check", "--builtin", "rd", "--codim", "1", "--at", "u=0"], ["boardman", "--builtin", "rd"],
], ids=["find", "scan", "count-minors", "check", "boardman"])
def test_an_empty_out_is_a_usage_error_before_any_solving(capsys, monkeypatch, argv):
    # "--out=" names no file; it is no request for stdout
    from catafind import solver

    def no_solving(*args, **kwargs):
        raise AssertionError("solved before the usage error")

    monkeypatch.setattr(solver, "find_catastrophes", no_solving)
    monkeypatch.setattr(solver, "count_steady_states", no_solving)
    assert run(capsys, argv + ["--out="]) == (2, "", "error: --out needs a file name, got ''\n")


def test_a_huge_codimension_is_rejected_without_a_box_of_its_size(capsys):
    # find's default box has one interval per unknown, so --codim 1000000
    # builds no million intervals before the library's own message
    tracemalloc.start()
    try:
        rc, out, err = run(capsys, ["find", "--builtin", "rd", "--codim", "1000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rc, out, err) == (2, "", "error: codimension 1000000 exceeds the field's 6 parameters\n")
    assert peak < 2 ** 20


def test_input_hash_is_stable(capsys):
    d1 = run_json(capsys, ["boardman", "--builtin", "rd", "--fix", "k1=1,k2=1"])
    d2 = run_json(capsys, ["boardman", "--builtin", "rd", "--fix", "k1=2,k2=2"])
    assert d1["input_sha256"] == d2["input_sha256"]  # same field text
    assert d1["command"] != d2["command"]


def test_floats_carry_17_significant_digits(capsys):
    rc, out, _err = run(capsys, BUTTERFLY_ARGS)
    assert rc == 0
    assert "0.33333333333333331" in out or "0.33333333333333337" in out


def _readme_commands():
    """The catafind lines of the README's "Command line" block, with
    backslash continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("catafind ")]


def test_readme_command_line_examples_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the scan example writes grid.csv
    commands = _readme_commands()
    assert [argv[0] for argv in commands] == [
        "find", "check", "scan", "count-minors", "boardman"]
    for argv in commands:
        if "--cells" in argv:  # a coarser grid keeps the suite fast
            argv[argv.index("--cells") + 1] = "3,3"
        rc, _out, err = run(capsys, argv)
        assert rc == 0, (argv, err)
