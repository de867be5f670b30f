"""Newton iteration, multistart catastrophe search, steady-state census."""

import collections
import functools
import gc
import importlib.util
import math
import operator
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import catafind.expr as ex
import catafind.determinants as det
import catafind.homotopy as homotopy
import catafind.solver as solver
from catafind.boardman import boardman_symbol
from catafind.scenarios import PrimaryFormSpec, make_primary_form
from catafind.solver import (NewtonSystem, SolveOptions, classify,
                             count_steady_states, find_catastrophes, halton,
                             stability_label)

from rd_reference import RdReference


try:  # a test dependency only; the package imports no numpy
    import numpy as np
except ImportError:
    np = None
needs_numpy = pytest.mark.skipif(np is None, reason="numpy is not installed")

RD_BOX_UNIT = [(-1.2, 1.2)] * 4 + [(0.0, 1.2)] * 2

def test_classify():
    assert classify(1) == "fold"
    assert classify(2) == "cusp"
    assert classify(3) == "swallowtail"
    assert classify(4) == "butterfly"
    assert classify(6) == "A_6"
    with pytest.raises(ValueError):
        classify(0)


def test_halton_deterministic_and_in_bounds():
    a = halton(3, 64)
    assert a == halton(3, 64)
    assert all(0.0 <= v < 1.0 for row in a for v in row)
    # low-discrepancy: each coordinate roughly fills the interval
    column = [row[0] for row in a]
    assert min(column) < 0.1 and max(column) > 0.9
    # the bases are the first dim primes, so a column does not depend on dim
    wide = halton(13, 64)
    assert [row[:3] for row in wide] == a
    assert wide[0][12] == pytest.approx(21 / 41, rel=1e-15)  # point 21, base 41


# ---------------------------------------------------------------------------
# newton_solve

def newton_solve(field, eqs, start):
    """Damped Newton iteration from a single start point, over the first
    len(eqs) states and parameters."""
    return NewtonSystem(det.DeterminantSet(field), eqs).solve(list(start.vals()))

def test_newton_linear_one_step():
    f = ex.parse_vector_field("vars: x\nparams:\neq: x - 2")
    res = newton_solve(f, f.components, ex.Point((0.0,), ()))
    assert res.ok and res.iterations <= 2
    assert res.point.x[0] == pytest.approx(2.0, abs=1e-12)


def test_newton_steady_state(rd_field):
    # beta=delta=0, alpha=gamma=-1, k1=k2=0: states are (i, j), i,j in {-1,0,1}
    alpha = (0.0, 0.0, -1.0, -1.0, 0.0, 0.0)
    start = ex.Point((0.9, 0.9), alpha)
    res = newton_solve(rd_field, rd_field.components, start)
    assert res.ok
    assert res.point.x == pytest.approx((1.0, 1.0), abs=1e-12)


def test_newton_butterfly_system(rd_field):
    D = det.DeterminantSet(rd_field)
    eqs = list(rd_field.components) + [
        D.build_B(i, (1,) * (i - 1)) for i in range(1, 5)]
    start = ex.Point((0.3, 0.3), (-0.5, -0.5, 0.7, 0.7, 1.0, 1.0))
    res = newton_solve(rd_field, eqs, start)  # unknowns u, v, b, d, a, g
    assert res.ok
    target = RdReference(1.0, 1.0).butterfly_point(+1)
    assert res.point.x == pytest.approx(target.x, abs=1e-10)
    assert res.point.alpha[:4] == pytest.approx(target.alpha[:4], abs=1e-10)


def test_newton_failure_is_diagnosed():
    # x^2 + 1 = 0 has no real root; the iteration must not crash
    f = ex.parse_vector_field("vars: x\nparams:\neq: x^2 + 1")
    res = newton_solve(f, f.components, ex.Point((0.7,), ()))
    assert not res.ok
    assert res.status in ("max-iterations", "singular-jacobian",
                          "step-underflow")


# ---------------------------------------------------------------------------
# find_catastrophes

def test_find_butterflies(rd_field):
    reports = find_catastrophes(rd_field, 4, RD_BOX_UNIT,
                                fixed={"k1": 1.0, "k2": 1.0})
    assert len(reports) == 2
    ref = RdReference(1.0, 1.0)
    for rep in reports:
        branch = +1 if rep.point.x[0] > 0 else -1
        target = ref.butterfly_point(branch)
        assert rep.point.x == pytest.approx(target.x, abs=1e-9)
        assert rep.point.alpha == pytest.approx(target.alpha, abs=1e-9)
        assert rep.label == "butterfly"
        assert rep.full and rep.subrank_ok and rep.subrank == 1
        assert rep.residual <= 1e-10
        assert len(rep.g_values) == 8
        assert all(abs(b) <= 1e-10 for b in rep.b_values)


def test_find_is_reseed_invariant(rd_field):
    """A different seed count gives the same deduplicated points."""
    a = find_catastrophes(rd_field, 4, RD_BOX_UNIT,
                          SolveOptions(seed_count=160),
                          fixed={"k1": 1.0, "k2": 1.0})
    b = find_catastrophes(rd_field, 4, RD_BOX_UNIT,
                          SolveOptions(seed_count=352),
                          fixed={"k1": 1.0, "k2": 1.0})
    pa = sorted(r.point.vals() for r in a if r.full)
    pb = sorted(r.point.vals() for r in b if r.full)
    assert len(pa) == len(pb) == 2
    for va, vb in zip(pa, pb):
        assert max(abs(x - y) for x, y in zip(va, vb)) <= 1e-6


def test_find_primary_cusp():
    f = make_primary_form(PrimaryFormSpec(2, 2))
    box = [(-1.0, 1.0)] * 4
    reports = find_catastrophes(f, 2, box, SolveOptions(seed_count=64))
    assert len(reports) == 1
    rep = reports[0]
    assert rep.label == "cusp" and rep.full and rep.subrank_ok
    assert max(abs(t) for t in rep.point.vals()) <= 1e-9


def test_find_primary_points_have_trivial_tail_states():
    f = make_primary_form(PrimaryFormSpec(3, 2, lambdas=(2.0, 0.5),
                                          taus=(1.0, -1.0)))
    box = [(-1.0, 1.0)] * 5
    reports = find_catastrophes(f, 2, box, SolveOptions(seed_count=64))
    assert reports
    for rep in reports:
        assert abs(rep.point.x[1]) <= 1e-9 and abs(rep.point.x[2]) <= 1e-9


def test_find_flags_degenerate_corank(corank_zero_field):
    box = [(-0.8, 0.8)] * 4
    reports = find_catastrophes(corank_zero_field, 2, box,
                                SolveOptions(seed_count=128))
    origin = [r for r in reports
              if max(abs(t) for t in r.point.vals()) <= 1e-8]
    assert origin, "expected a converged root at the origin"
    rep = origin[0]
    assert rep.subrank == 0 and not rep.subrank_ok


def test_find_valid_fold_in_second_parameter(corank_ok_field):
    box = [(-0.8, 0.8)] * 3
    reports = find_catastrophes(corank_ok_field, 1, box,
                                SolveOptions(seed_count=96),
                                param_order=(1,))
    assert reports
    assert any(r.full and r.subrank_ok for r in reports)


def test_find_folds_lie_on_closed_form_surface(rd_field):
    """Codim-1 roots with alpha, gamma fixed satisfy the closed-form fold
    relation alpha = k1 k2 / (gamma + 3u^2) - 3v^2."""
    box = [(-1.0, 1.0)] * 2 + [(-1.5, 1.5)]  # (u, v, beta)
    reports = find_catastrophes(rd_field, 1, box, SolveOptions(seed_count=96),
                                fixed={"a": 1.0, "g": 1.0, "k1": 1.0, "k2": 1.0})
    assert reports
    ref = RdReference(1.0, 1.0)
    for rep in reports:
        u, v = rep.point.x
        assert abs(ref.alpha_fold(u, v, 1.0) - 1.0) <= 1e-8


def test_find_rejects_excess_codimension(rd_field):
    with pytest.raises(ValueError):
        find_catastrophes(rd_field, 7, [(-1, 1)] * 9)


def test_find_rejects_unknown_fixed_name(rd_field):
    with pytest.raises(ValueError):
        find_catastrophes(rd_field, 1, [(-1, 1)] * 3, fixed={"zz": 1.0})


@pytest.mark.parametrize("fixed,param_order", [
    ({"b": 5.0, "k1": 1.0}, None),  # b is the first of the default order
    ({3: 5.0}, None),  # g, by index
    ({"a": 1.0}, (2, 3)),
    ({"k2": 1.0, 2: 1.0}, (2, 3)),
])
def test_find_rejects_fixing_an_unfolding_parameter(rd_field, fixed, param_order):
    with pytest.raises(ValueError, match="unfolding"):
        find_catastrophes(rd_field, 4 if param_order is None else 2,
                          [(-1, 1)] * (6 if param_order is None else 4),
                          fixed=fixed, param_order=param_order)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_find_rejects_a_non_finite_fixed_value(rd_field, bad):
    # every seed would end evaluation-error, and the find would return no
    # report, silently
    with pytest.raises(ValueError, match="'k1' is not a finite number"):
        find_catastrophes(rd_field, 4, RD_BOX_UNIT, fixed={"k1": bad, "k2": 1})


def test_find_rejects_codimension_zero_and_an_index_out_of_range(rd_field):
    with pytest.raises(ValueError, match="codimension must be >= 1"):
        find_catastrophes(rd_field, 0, [(-1, 1)] * 2)
    with pytest.raises(ValueError, match="parameter index 7 out of range"):
        find_catastrophes(rd_field, 4, RD_BOX_UNIT, fixed={7: 1.0})


def test_census_rejects_too_few_parameter_values(rd_field):
    with pytest.raises(ValueError, match="expected 6 parameter values"):
        count_steady_states(rd_field, (1.0, 1.0), [(-3.0, 3.0)] * 2)


def test_newton_system_rejects_more_equations_than_unknowns():
    f = ex.parse_vector_field("vars: x\nparams:\neq: x")
    with pytest.raises(ValueError, match="2 equations but only 1 states"):
        NewtonSystem(det.DeterminantSet(f), [ex.var(0)] * 2)


# ---------------------------------------------------------------------------
# steady states

def test_census_nine_states(rd_field):
    alpha = (0.0, 0.0, -1.0, -1.0, 0.0, 0.0)
    census = count_steady_states(rd_field, alpha, [(-2.0, 2.0)] * 2,
                                 SolveOptions(seed_count=256))
    assert census.count == 9
    expected = sorted((float(i), float(j)) for i in (-1, 0, 1)
                      for j in (-1, 0, 1))
    got = sorted(p.x for p, _label in census.states)
    for g, e in zip(got, expected):
        assert g == pytest.approx(e, abs=1e-10)


def test_census_attracting_origin(rd_field):
    alpha = (0.0, 0.0, 0.0, 0.0, 2.0, 2.0)
    census = count_steady_states(rd_field, alpha, [(-1.5, 1.5)] * 2,
                                 SolveOptions(seed_count=128))
    origin = [(p, lab) for p, lab in census.states
              if max(abs(t) for t in p.x) < 1e-8]
    assert origin and origin[0][1] == "attracting"


def test_census_one_dimensional():
    f = ex.parse_vector_field("vars: x\nparams:\neq: x")
    census = count_steady_states(f, (), [(-1.0, 1.0)],
                                 SolveOptions(seed_count=32))
    assert census.count == 1
    assert census.states[0][0].x[0] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("a, b, want", [(0.5, 1.0, 2), (0.5, -2.0, 2), (2.0, 0.3, 1)])
def test_census_of_a_sum_of_fractions_with_different_denominators(a, b, want):
    # the homotopy clears 1/(x - a) + 1/(x + 1) - b to the quadratic
    # -b x^2 + (2 - b(1 - a)) x + 1 - a + ab, whose real roots in (-3, 3)
    # are the states
    f = ex.parse_vector_field("vars: x\nparams: a b\neq: 1/(x - a) + 1/(x + 1) - b")
    census = count_steady_states(f, (a, b), [(-3.0, 3.0)])
    p, q, c = -b, 2.0 - b * (1.0 - a), 1.0 - a + a * b
    disc = math.sqrt(q * q - 4.0 * p * c)
    roots = sorted(x for x in ((-q - disc) / (2.0 * p), (-q + disc) / (2.0 * p)) if -3 < x < 3)
    assert census.count == len(roots) == want
    assert all(path == "regular" for path in census.paths)
    for (point, _label), x in zip(census.states, roots):
        assert point.x[0] == pytest.approx(x, abs=1e-12)


@pytest.mark.parametrize("box", [[(1.0, 0.0), (0.0, 1.0)], [(0.0, 1.0), (0.5, 0.5)],
                                 [(0.0, 1.0), (-1.0, math.nan)]])
def test_census_rejects_an_empty_state_interval(rd_field, box):
    # as find_catastrophes rejects an empty seed interval; the census would
    # read 0 states in every cell of such a box
    with pytest.raises(ValueError, match="empty state interval"):
        count_steady_states(rd_field, (0.0, 0.0, 0.0, 0.0, 1.0, 1.0), box)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_census_rejects_a_non_finite_parameter_value(rd_field, bad):
    # such a cell would track no path to its end and read 0 states, silently
    for pos in (0, 5):
        alpha = [0.0, 0.0, 0.2, 0.2, 1.0, 1.0]
        alpha[pos] = bad
        with pytest.raises(ValueError, match="not all finite"):
            count_steady_states(rd_field, alpha, [(-3.0, 3.0)] * 2)


def test_census_seed_order_invariance(rd_field):
    alpha = (0.1, -0.2, 0.3, 0.4, 1.0, 1.0)
    a = count_steady_states(rd_field, alpha, [(-2.0, 2.0)] * 2,
                            SolveOptions(seed_count=128))
    b = count_steady_states(rd_field, alpha, [(-2.0, 2.0)] * 2,
                            SolveOptions(seed_count=128))
    assert a == b


def test_census_of_the_degenerate_cell(rd_field, monkeypatch):
    # a = g = -1, b = d = 0: a triple root at the origin and two saddles.
    # The three singular paths lie in one cycle, so the first one's Cauchy
    # loops visit the other two, which take its end (231 tracks when each
    # path looped on its own)
    _census_cell(rd_field)  # the roots at p*, tracked outside the count
    tracks = []
    track = homotopy._track

    def counted_track(*args):
        tracks.append(args)
        return track(*args)

    monkeypatch.setattr(homotopy, "_track", counted_track)
    census = count_steady_states(rd_field, [0, 0, -1, -1, 1, 1], [(-3.0, 3.0)] * 2)
    assert len(tracks) <= 100
    attracting = sum(label == "attracting" for _p, label in census.states)
    assert (census.count, attracting) == (3, 0)
    assert census.paths.count("singular") == 3
    assert max(map(abs, census.states[1][0].x)) < 1e-12


@pytest.mark.parametrize("spec, alpha, paths", [
    (None, [0.6, -0.6, -1, -1, 1, 1], 9),  # degrees (3, 3)
    (PrimaryFormSpec(3, 6), [0.1, -0.2, 0.3, -0.4, 0.5, -0.6], 7),  # (7, 1, 1)
], ids=["rd", "primary-n3r6"])
def test_every_start_path_finishes(rd_field, spec, alpha, paths):
    field = make_primary_form(spec) if spec else rd_field
    census = count_steady_states(field, alpha, [(-3.0, 3.0)] * field.n)
    assert census.paths == ("regular",) * paths


def test_census_drops_the_poles_of_a_rational_field():
    f = ex.parse_vector_field("vars: x\nparams: a\neq: (x^2 - a)/(x - 2)")
    ones = count_steady_states(f, [1.0], [(-3.0, 3.0)])
    assert sorted(p.x[0] for p, _label in ones.states) == pytest.approx([-1.0, 1.0])
    pole = count_steady_states(f, [4.0], [(-3.0, 3.0)])  # x = 2 is a pole
    assert [p.x[0] for p, _label in pole.states] == pytest.approx([-2.0])


def test_a_cell_with_a_bad_path_is_retracked_with_the_second_gamma(monkeypatch):
    # at a = 0 the root -1/a of a*x^2 + x - 1 has gone to infinity
    f = ex.parse_vector_field("vars: x\nparams: a\neq: a*x^2 + x - 1")
    count_steady_states(f, [0.5], [(-3.0, 3.0)])
    gammas = []
    path = homotopy._path

    def counted_path(fns, x, tail, cycles, shared):
        gammas.append(tail[0])
        return path(fns, x, tail, cycles, shared)

    monkeypatch.setattr(homotopy, "_path", counted_path)
    assert count_steady_states(f, [0.5], [(-3.0, 3.0)]).paths == ("regular",) * 2
    assert gammas == [1.0, 1.0]
    census = count_steady_states(f, [0.0], [(-3.0, 3.0)])
    assert sorted(census.paths) == ["diverged", "regular"]
    assert [p.x[0] for p, _label in census.states] == pytest.approx([1.0])
    assert gammas[2:] == [1.0, 1.0] + [homotopy._GAMMAS[1]] * 2


def test_census_matches_the_exact_oracle_on_both_workload_slices(rd_field):
    pytest.importorskip("sympy")
    pytest.importorskip("numpy")  # the oracle's, not the census's
    spec = importlib.util.spec_from_file_location(
        "bench_oracles", Path(__file__).resolve().parents[1] / "bench" / "oracles.py")
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    centres = [-1.5 + (k + 0.5) * 3.0 / 7 for k in range(7)]
    box = ((-3.0, 3.0), (-3.0, 3.0))
    for a in (0.2, -1.0):
        for b in centres:
            for d in centres:
                census = count_steady_states(rd_field, [b, d, a, a, 1, 1], box)
                got = census.count, sum(label == "attracting"
                                        for _p, label in census.states)
                assert got == oracles.rd_census(1, 1, a, a, b, d, box), (a, b, d)


def _rd_slice_cells():
    # the parameters of every cell of both 5x5 scan-rd workload slices,
    # (b, d, a, g, k1, k2), slice a = g = 0.2 first
    centres = [-1.5 + (k + 0.5) * 3.0 / 5 for k in range(5)]
    return [[b, d, a, a, 1, 1] for a in (0.2, -1.0) for b in centres for d in centres]


def test_a_plane_start_gives_the_census_of_the_start_at_p_star(rd_field):
    # a scan over (b, d) tracks each cell from p* with a, g, k1 and k2 set
    # to the cell's: the same states and labels, though by shorter paths
    box = [(-3.0, 3.0)] * 2
    for alpha in _rd_slice_cells():
        want = count_steady_states(rd_field, alpha, box)
        got = count_steady_states(rd_field, alpha, box, axes=(0, 1))
        assert got.count == want.count, alpha
        for (p, label), (q, want_label) in zip(got.states, want.states):
            assert p.alpha == q.alpha and label == want_label, alpha
            assert max(map(abs, map(operator.sub, p.x, q.x))) <= 1e-9, alpha
    census = solver._memo[2]["census"]
    assert census._plane[1] is not None  # the a = g = -1 plane's start was kept
    # axes that cover every parameter start at p*, with no plane stage
    census._plane = None
    assert count_steady_states(rd_field, alpha, box, axes=range(5, -1, -1)) == want
    assert census._plane is None


@pytest.mark.parametrize("axes", [(0, 6), (-1,), (1, 1), (0, 2, 0)])
def test_a_scan_axis_out_of_range_or_repeated_is_rejected(rd_field, axes):
    with pytest.raises(ValueError, match="repeated or not a parameter index below 6"):
        count_steady_states(rd_field, [0.1, 0.2, 0.2, 0.2, 1, 1], [(-3.0, 3.0)] * 2,
                            axes=axes)


def test_a_plane_singular_at_its_start_is_tracked_from_p_star(tmp_path, monkeypatch):
    # at a1 = 0, (x - a2)^2 + a1*x + a1*a3 has one double root on the whole
    # (a2, a3) plane, so both paths to the plane's start end singular and
    # every cell starts at p*: the CSV of the start at p*, byte for byte.
    # That CSV reads 1 or 2 states per cell, not 1: the census refinement
    # accepts a point near a double root on its residual alone, ROADMAP
    # item 1's defect, which the start does not change
    import catafind.cli as cli
    path = tmp_path / "double.field"
    path.write_text("vars: x\nparams: a1 a2 a3\neq: (x - a2)^2 + a1*x + a1*a3\n")
    argv = ["scan", str(path), "--axes", "a2,a3", "--range=-1:1,-1:1", "--cells", "3,3",
            "--fix", "a1=0", "--out"]
    assert cli.main(argv + [str(tmp_path / "plane.csv")]) == 0
    assert solver._memo[2]["census"]._plane[1] is None
    census = solver.count_steady_states
    monkeypatch.setattr(solver, "count_steady_states",
                        lambda *args, axes: census(*args))
    assert cli.main(argv + [str(tmp_path / "p_star.csv")]) == 0
    csv = (tmp_path / "plane.csv").read_bytes()
    assert csv == (tmp_path / "p_star.csv").read_bytes() and csv.count(b"\n") == 10


def test_a_slice_scanned_again_after_another_prints_its_first_bytes(capsys, monkeypatch):
    # the plane's start is kept one plane at a time: scan-rd-positive, then
    # scan-rd-negative, then scan-rd-positive again in one process each
    # print the golden document of a fresh process
    import catafind.cli as cli
    monkeypatch.setattr(solver, "_memo", None)
    golden = Path(__file__).resolve().parent / "golden"
    commands = dict(line.split(maxsplit=1)
                    for line in (golden / "COMMANDS").read_text().splitlines())
    for name in ("scan-rd-positive", "scan-rd-negative", "scan-rd-positive"):
        rc = cli.main(commands[name].split())
        out, err = capsys.readouterr()
        assert out + f"exit: {rc}\n" == (golden / f"{name}.out").read_text() and not err


@pytest.mark.xfail(strict=True, reason=(
    "within about 1e-8 of a fold the Cauchy loops enclose both close real "
    "roots, whose midpoint does not refine (ROADMAP item 6)"))
def test_a_cell_next_to_a_fold_counts_both_roots():
    f = ex.parse_vector_field("vars: x\nparams: a1 a0\neq: x^2 + a1")
    census = count_steady_states(f, [-1e-8, 0.0], [(-3.0, 3.0)])
    assert census.count == 2


@pytest.mark.xfail(strict=True, reason=(
    "a root that stays singular for every parameter value is singular at p* "
    "too, so the total-degree stage loses it and every cell reads its two "
    "paths as failed (ROADMAP item 6)"))
def test_a_root_singular_at_every_parameter_value_is_counted():
    f = ex.parse_vector_field("vars: x\nparams: a\neq: x^2")
    census = count_steady_states(f, [0.5], [(-3.0, 3.0)])
    assert census.count == 1


# ---------------------------------------------------------------------------
# the generated path tracker against a plain loop over lists

def _plain_fns(hs, n):
    # the corrector (H, then the flat row-major H_x), the slope (H_x, then
    # H_s) and the speed (H_s) of H = hs in the unknowns x and s, the
    # variable at index n: compile_evaluator functions of (*x, s, *tail)
    memo: dict = {}
    grads = [[ex.differentiate(e, ex.var(j), memo) for j in range(n + 1)] for e in hs]
    h_x, h_s = [g[j] for g in grads for j in range(n)], [g[n] for g in grads]
    return tuple(ex.compile_evaluator(out, n + 1) for out in (list(hs) + h_x, h_x + h_s, h_s))


def _plain_track(fns, step, x, a, b, tail, h=homotopy._FIRST_STEP):
    # homotopy._track's loop over lists: fns is _plain_fns's (corrector,
    # slope, speed), each called on (*x, s, *tail), and step solves each
    # linear system; an accepted step's next first slope is solved from
    # the last correction's H_x and the speed's H_s at its argument
    corrector, slope_fn, speed = fns
    n = len(x)
    ds, nn = b - a, n * n

    def slope(v):  # ds * dx/dt at the argument v
        out = slope_fn(v)
        return [ds * w for w in step(out[nn:], out[:nn])]

    def at(y, t):  # the argument at y and t in [0, 1]
        return (*y, b if t == 1.0 else a + t * ds, *tail)

    u, k1 = 0.0, None
    for _ in range(homotopy._MAX_STEPS):
        if u == 1.0:
            return "regular", x
        t = min(u + h, 1.0)
        h, y = t - u, None
        try:
            k1 = k1 or slope(at(x, u))
            k2 = slope(at([v + h / 2 * k for v, k in zip(x, k1)], u + h / 2))
            k3 = slope(at([v + h / 2 * k for v, k in zip(x, k2)], u + h / 2))
            k4 = slope(at([v + h * k for v, k in zip(x, k3)], t))
            y = [v + h / 6 * (p + 2 * q + 2 * w + z)
                 for v, p, q, w, z in zip(x, k1, k2, k3, k4)]
            for it in range(homotopy._CORRECTIONS):
                arg = at(y, t)
                out = corrector(arg)
                dy = step(out[:n], out[n:])
                y = [v + d for v, d in zip(y, dy)]
                scale = 1.0 + max(map(abs, y))
                err = max(map(abs, dy)) / scale
                first = err if it == 0 else first
                if err <= homotopy._TRACK_TOL:
                    break
            else:
                y = None
        except (ZeroDivisionError, OverflowError):
            y = k1 = None
        if y is None:
            h /= 2
            if h < homotopy._LEAST_STEP:
                return "failed", None
        elif not scale <= homotopy._DIVERGED:
            return "diverged", None
        else:
            x, u = y, t
            k1 = [ds * w for w in step(speed(arg), out[n:])]
            h *= min(2.0, 0.8 * (homotopy._PREDICT_TOL / max(first, 1e-300)) ** 0.2)
    return "failed", None


def _track_bits(end):
    status, x = end
    return status, x and [(v.real.hex(), v.imag.hex()) for v in x]


def _logged(fns, log):  # fns, logging each call as (its index in fns, argument)
    def logger(k, fn):
        def logged_fn(v):
            log.append((k, v))
            return fn(v)
        return logged_fn
    return tuple(logger(k, fn) for k, fn in enumerate(fns))


def _recorded(fn, raised):  # fn, adding the type of each error it raises to raised
    def recorded_fn(*args):
        try:
            return fn(*args)
        except ArithmeticError as err:
            raised.add(type(err))
            raise
    return recorded_fn


class _TwinTracks:
    """Keeps H of every tracker that homotopy._tracker generates, runs
    every homotopy._track call through the plain loop too, on _plain_fns
    of the same H, and asserts the same status and endpoint bits.  Counts
    statuses per number of unknowns, the plain loop's corrector (0), slope
    (1) and speed (2) calls, which are the generated tracker's evaluations
    of H, and the types of the errors raised in the plain loop's steps."""

    def __init__(self, monkeypatch):
        self.seen: dict = {}
        self.calls: collections.Counter = collections.Counter()
        self.raised: set = set()
        plain: dict = {}
        tracker, track = homotopy._tracker, homotopy._track

        def twin_tracker(hs, n):
            fn = tracker(hs, n)
            plain[fn] = _plain_fns(hs, n)
            return fn

        def twin_track(fn, x, a, b, tail, h=homotopy._FIRST_STEP):
            log: list = []
            fns = [_recorded(f, self.raised) for f in _logged(plain[fn], log)]
            want = _plain_track(fns, _recorded(_plain_step, self.raised), x, a, b, tail, h)
            got = track(fn, x, a, b, tail, h)
            assert _track_bits(got) == _track_bits(want), (x, a, b, tail, h)
            self.calls.update(k for k, _v in log)
            key = len(x), got[0]
            self.seen[key] = self.seen.get(key, 0) + 1
            return got

        monkeypatch.setattr(homotopy, "_tracker", twin_tracker)
        monkeypatch.setattr(homotopy, "_track", twin_track)


def test_generated_tracker_matches_plain_loop_on_rd_slices(rd_field, monkeypatch):
    twins = _TwinTracks(monkeypatch)
    census = homotopy.Homotopy(rd_field)  # the total-degree stage to p*
    # both 5x5 workload slices, with the b = d = 0 cell's endgame chords
    for alpha in _rd_slice_cells():
        census.track(alpha)
    # 9 paths to p* and 9 per cell, but at b = d = 0 three of them fail;
    # there the first singular path tracks 2 segments to its loops and 72
    # chords, and the other two of its cycle one segment each
    assert twins.seen == {(2, "regular"): 9 + 49 * 9 + 6 + 2 + 72 + 2,
                          (2, "failed"): 3}


def test_tracker_evaluations_on_the_rd_workload_slices(rd_field, monkeypatch):
    # the evaluations of H, H_x and H_s that track both 5x5 workload
    # slices, as the plain twin's corrector, slope and speed calls: an
    # accepted step's next first slope is one speed (1620 of them), where
    # the loop before took a slope.  The generated tracker evaluates them
    # inline: it calls no Python function, so no function named _step
    # either
    called = []

    def profile(frame, event, _arg):
        caller = frame.f_back and frame.f_back.f_code
        if event == "call" and caller and (caller.co_name, caller.co_filename) == (
                "_track", "<string>"):
            called.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        calls = _slice_tracker_calls(rd_field, monkeypatch, None)
    finally:
        sys.setprofile(None)
    accepted = 1620
    assert calls == {0: 4295, 1: 7783 - accepted, 2: accepted}
    assert not called


def _slice_tracker_calls(rd_field, monkeypatch, axes):
    # the plain twin's corrector (0), slope (1) and speed (2) calls that
    # track both 5x5 workload slices, the total-degree stage to p* left out
    twins = _TwinTracks(monkeypatch)
    census = homotopy.Homotopy(rd_field)
    twins.calls.clear()
    for alpha in _rd_slice_cells():
        census.track(alpha, axes)
    return twins.calls


def test_tracker_evaluations_from_the_scan_plane_start(rd_field, monkeypatch):
    # the same slices with (b, d) as the scan's axes: each slice's plane
    # stage from p* (287 evaluations for both), then shorter paths per
    # cell; 10,963 evaluations in all against 12,078 from p*
    calls = _slice_tracker_calls(rd_field, monkeypatch, (0, 1))
    assert calls == {0: 3799, 1: 5668, 2: 1496}


def test_generated_tracker_matches_plain_loop_on_other_sizes(monkeypatch):
    twins = _TwinTracks(monkeypatch)
    field = make_primary_form(PrimaryFormSpec(3, 6))
    assert homotopy.Homotopy(field).track([0.1, -0.2, 0.3, -0.4, 0.5, -0.6])[0] == [
        "regular"] * 7
    one_dimensional = [
        ("vars: x\nparams:\neq: x", [()]),
        ("vars: x\nparams: a\neq: (x^2 - a)/(x - 2)", [[1.0], [4.0]]),
        ("vars: x\nparams: a\neq: a*x^2 + x - 1", [[0.5], [0.0]]),  # diverges
        ("vars: x\nparams: a1 a0\neq: x^2 + a1", [[-1e-8, 0.0], [0.0, 0.0]])]
    for text, alphas in one_dimensional:
        census = homotopy.Homotopy(ex.parse_vector_field(text))
        for alpha in alphas:
            census.track(alpha)
    assert twins.seen[1, "failed"] >= 6  # halvings below _LEAST_STEP, then endgames
    # H = s*x - 1 from x = 1 at s = 1 towards s = 1e-12: x = 1/s passes 1e8
    track = homotopy._tracker([ex.sub(ex.mul(ex.var(1), ex.var(0)), ex.ONE)], 1)
    assert homotopy._track(track, [1 + 0j], 1.0, 1e-12, ()) == ("diverged", None)
    assert {n for n, _status in twins.seen} == {1, 3}


@pytest.mark.parametrize("error, power, x, a, status, calls", [
    # H = x^2 - s from x = 0: H_x is 0 at every step's start, so the
    # elimination after the first slope divides by zero until the step
    # halves below _LEAST_STEP: one slope per halving, and nothing else
    (ZeroDivisionError, 2, 0j, 0.0, "failed", {1: 19}),
    # H = x^100 - s from s = 1e-6, where dx/ds is about 8.7e3: the first
    # step's midpoint lies beyond |x| = 1.3e3, where x^99 overflows, so
    # its slope raises until the step has halved enough; then the path
    # reaches its root at s = 1
    (OverflowError, 100, 1e-6 ** 0.01 + 0j, 1e-6, "regular", None),
], ids=["ZeroDivisionError", "OverflowError"])
def test_generated_tracker_matches_plain_loop_when_an_evaluation_raises(
        monkeypatch, error, power, x, a, status, calls):
    twins = _TwinTracks(monkeypatch)
    track = homotopy._tracker([ex.sub(ex.pow_(ex.var(0), power), ex.var(1))], 1)
    assert homotopy._track(track, [x], a, 1.0, ())[0] == status
    assert twins.raised == {error}
    assert calls is None or twins.calls == calls


@pytest.mark.parametrize("n", [1, 2, 3])
def test_emitted_evaluation_on_hoisted_nodes_matches_one_compile(n):
    # H_i = x_i^3 s + p0 x_{i+1} - (1 - s) p1 x_i^2 + s^2 / (1 + x_0 s): the
    # nodes of H, H_x and H_s free of x (homotopy._frontier) emitted first,
    # then H, H_x and H_s emitted on them, as the tracker does once per s,
    # give the bits of one compile_evaluator function of H, H_x and H_s
    x, s = [ex.var(i) for i in range(n)], ex.var(n)
    hs = [ex.add(ex.mul(ex.pow_(x[i], 3), s), ex.mul(ex.par(0), x[(i + 1) % n]),
                 ex.neg(ex.mul(ex.sub(ex.ONE, s), ex.par(1), ex.pow_(x[i], 2))),
                 ex.div(ex.pow_(s, 2), ex.add(ex.ONE, ex.mul(x[0], s))))
          for i in range(n)]
    memo: dict = {}
    grads = [[ex.differentiate(e, ex.var(j), memo) for j in range(n + 1)] for e in hs]
    outs = hs + [g[j] for g in grads for j in range(n)] + [g[n] for g in grads]
    on_x: dict = {}
    for node in ex._postorder(outs, on_x):
        on_x[node] = node in x or any(on_x[c] for c in node.children)
    front = homotopy._frontier(outs, on_x)
    assert front and not any(on_x[node] or node.kind == ex.NEG for node in front)
    consts: dict = {}
    leaves = {s: "s", ex.par(0): "p0", ex.par(1): "p1"}
    hoisted = {node: f"S{k}" for k, node in enumerate(front)}
    lines, values = ex.emit(front, consts, leaves)
    lines += [f"{hoisted[node]} = {value}" for node, value in zip(front, values)]
    more, values = ex.emit(outs, consts, {**leaves, **hoisted, **{
        v: f"x{i}" for i, v in enumerate(x)}})
    args = ", ".join([f"x{i}" for i in range(n)] + ["s", "p0", "p1"])
    exec("\n    ".join([f"def hoisted({args}):", *lines, *more,
                        f"return ({', '.join(values)},)"]), consts)
    combined = ex.compile_evaluator(outs, n + 1)
    rng = random.Random(n)

    def bits(values):
        return [(v.real.hex(), v.imag.hex()) for v in values]

    for _ in range(20):
        v = tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n + 3))
        assert bits(consts["hoisted"](*v)) == bits(combined(v))


# ---------------------------------------------------------------------------
# stability labels

@needs_numpy
def test_stability_labels():
    assert stability_label(np.diag([-1.0, -2.0])) == "attracting"
    assert stability_label(np.diag([1.0, 2.0])) == "repelling"
    assert stability_label(np.diag([-1.0, 2.0])) == "saddle"
    rotation = np.array([[0.0, -1.0], [1.0, 0.0]])
    assert stability_label(rotation) == "center"
    assert stability_label(np.zeros((2, 2))) == "degenerate"
    # rows as lists, as the census passes them; a non-finite J is a
    # numerical failure
    assert stability_label([[-1.0, 0.0], [0.0, -2.0]]) == "attracting"
    # eigenvalues 1 and -1/2 +- i sqrt(3)/2: the Francis shifts stall on
    # this cyclic permutation until the exceptional shift after 10 steps
    assert stability_label([[0, 0, 1], [1, 0, 0], [0, 1, 0]]) == "saddle"
    with pytest.raises(ArithmeticError):
        stability_label([[math.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ArithmeticError):
        stability_label([[1.0, 0.0, 0.0], [0.0, -math.inf, 0.0], [0.0, 0.0, 1.0]])


def _numpy_label(eig, tol):  # stability_label's rules on numpy's eigenvalues
    re, im = eig.real, eig.imag
    if np.all(re < -tol):
        return "attracting"
    if np.all(re > tol):
        return "repelling"
    if np.any(re > tol) and np.any(re < -tol):
        return "saddle"
    if np.any((np.abs(re) <= tol) & (np.abs(im) > tol)):
        return "center"
    return "degenerate"


@needs_numpy
def test_stability_labels_match_numpy_eigvals():
    # random matrices of order 1 to 6: Gaussian, small-integer, badly
    # scaled, and similar to a block diagonal with chosen eigenvalues (real
    # parts 0 among them, so that a larger tol gives centers and degenerate
    # states).  Kept where every eigenvalue's real part, and where that is
    # within tol its imaginary part, lies at least 1e-6 from +-tol
    rng = random.Random(7)
    seen: dict = {}
    for trial in range(1200):
        n, tol = rng.randint(1, 6), (1e-8, 1e-3)[trial % 2]
        kind = trial // 2 % 4
        if kind == 3:
            blocks, i = np.zeros((n, n)), 0
            while i < n:
                re = rng.choice([0.0, rng.gauss(0, 1)])
                if i + 1 < n and rng.random() < 0.5:
                    im = rng.uniform(0.1, 2.0)
                    blocks[i:i + 2, i:i + 2] = [[re, im], [-im, re]]
                    i += 2
                else:
                    blocks[i, i] = re
                    i += 1
            v = np.array([[rng.gauss(0, 1) for _ in range(n)] for _ in range(n)])
            J = v @ blocks @ np.linalg.inv(v)
        else:
            J = np.array([[(rng.gauss(0, 1), float(rng.randint(-3, 3)),
                            rng.gauss(0, 1) * 10 ** rng.uniform(-4, 4))[kind]
                           for _ in range(n)] for _ in range(n)])
        eig = np.linalg.eigvals(J)
        if np.any(np.abs(np.abs(eig.real) - tol) < 1e-6) or np.any(
                (np.abs(eig.real) <= tol) & (np.abs(np.abs(eig.imag) - tol) < 1e-6)):
            continue
        want = _numpy_label(eig, tol)
        assert stability_label(J.tolist(), tol) == want, (J.tolist(), tol)
        seen[want] = seen.get(want, 0) + 1
    assert set(seen) == {"attracting", "repelling", "saddle", "center", "degenerate"}
    assert sum(seen.values()) >= 600, seen


def test_solve_options_validation():
    # the CLI's checks and messages for --tol-b, --tol-g and --dedup-radius,
    # under the field names
    for kwargs, message in (
            ({"seed_count": 0}, "counts must be >= 1"),
            # a float would fail inside halton's range(), and True run one seed
            ({"seed_count": 2.5}, "seed_count must be an int, got 2.5"),
            ({"seed_count": True}, "seed_count must be an int, got True"),
            ({"tol_g": math.nan}, "bad tol_g: not a finite number"),
            ({"tol_b": math.inf}, "bad tol_b: not a finite number"),
            ({"dedup_radius": -math.inf}, "bad dedup_radius: not a finite number"),
            ({"tol_b": 0.0}, "tol_b must be > 0, got 0.0"),
            ({"tol_g": -1e-9}, "tol_g must be > 0, got -1e-09"),
            ({"dedup_radius": -1.0}, "dedup_radius must be >= 0, got -1.0")):
        with pytest.raises(ValueError) as info:
            SolveOptions(**kwargs)
        assert str(info.value) == message
    assert SolveOptions(dedup_radius=0.0).dedup_radius == 0.0


# ---------------------------------------------------------------------------
# Newton trajectories: the cost of a step may change, the step may not

class _NewtonCounters:
    """Counting wrappers around NewtonSystem's evaluations and solves."""

    def __init__(self, monkeypatch):
        self.fj = self.iterations = 0
        self.statuses: dict = {}
        self.trial_types: set = set()
        residual_and_jacobian = NewtonSystem.residual_and_jacobian
        solve = NewtonSystem.solve

        def counted_residual_and_jacobian(system, vals):
            self.fj += 1
            self.trial_types.update(type(v) for v in vals)
            return residual_and_jacobian(system, vals)

        def counted_solve(system, vals, boxes=()):
            result = solve(system, vals, boxes)
            self.statuses[result.status] = self.statuses.get(result.status, 0) + 1
            self.iterations += result.iterations
            return result

        monkeypatch.setattr(NewtonSystem, "residual_and_jacobian",
                            counted_residual_and_jacobian)
        monkeypatch.setattr(NewtonSystem, "solve", counted_solve)


def _readme_box_find(rd_field):
    return find_catastrophes(rd_field, 4, RD_BOX_UNIT, fixed={"k1": 1, "k2": 1})


def _census_cell(rd_field):
    return count_steady_states(rd_field, [0.6, -0.6, -1, -1, 1, 1],
                               [(-3.0, 3.0)] * 2)


def test_readme_box_newton_counters(rd_field, monkeypatch):
    counters = _NewtonCounters(monkeypatch)
    _readme_box_find(rd_field)
    assert counters.statuses == {"converged": 254, "step-underflow": 2}
    assert counters.iterations == 1432
    assert counters.fj == 1980


def test_line_search_is_bounded_on_a_dense_field(dense_field, monkeypatch):
    """One F+J call per seed and at most _line_search_trials() per line
    search, which each iteration runs, and so does the last one of a seed
    whose step underflows, and the dense field's two full swallowtails are
    still found."""
    counters = _NewtonCounters(monkeypatch)
    reports = find_catastrophes(dense_field, 3, [(-1.5, 1.5)] * 6, SolveOptions(seed_count=64))
    assert _line_search_trials() == 9
    underflows = counters.statuses["step-underflow"]
    assert underflows > 0
    seeds = sum(counters.statuses.values())
    assert counters.fj <= seeds + 9 * (counters.iterations + underflows)
    full = [(rep.point.x, rep.point.alpha[:3]) for rep in reports if rep.full]
    assert full == [
        (pytest.approx((-1.9536524003744844, 0.09419416362684509, 1.1141597637203982)),
         pytest.approx((7.907317477930161, 1.492798467466468, 0.31906122618147154))),
        (pytest.approx((1.8662028896638327, -0.10349429189383619, -0.561663081728542)),
         pytest.approx((-9.109119555587998, 1.4138848658580268, -0.25937926212871926)))]
    assert all(rep.label == "swallowtail" and rep.subrank_ok
               for rep in reports if rep.full)


def test_accepted_full_steps_make_one_call_per_iteration(monkeypatch):
    """Where every full step is accepted, the F+J of each trial serves
    the next iteration: one F+J per seed and one per iteration."""
    counters = _NewtonCounters(monkeypatch)
    field = make_primary_form(PrimaryFormSpec(3, 6, (1.3, -0.7), (0.9, -1.6)))
    reports = find_catastrophes(field, 6, [(-1.5, 1.5)] * 9, SolveOptions(seed_count=64))
    assert len(reports) == 1 and reports[0].full
    assert counters.statuses == {"converged": 64}
    assert (counters.iterations, counters.fj) == (131, 131 + 64)


def test_a_trial_whose_jacobian_overflows_is_rejected(monkeypatch):
    """From x = 2^-500 the full step lands near 2^-520, where F is finite
    but J's x^-2 overflows: that trial's F+J raises and is rejected like
    one that does not decrease F, and t = 1/2 is accepted.  So each
    iteration halves x, until near 2^-512 every trial's J overflows and
    the step underflows, in the generated solve as in the plain loop."""
    twins = _TwinSolves(monkeypatch)
    f = ex.parse_vector_field("vars: x\nparams:\neq: 2^480*x - 2^-40 + 2^-600*x^-1")
    result = NewtonSystem(det.DeterminantSet(f), f.components).solve([2.0 ** -500])
    assert (result.status, result.iterations, result.residual) == (
        "step-underflow", 12, 2.328304216092647e-10)
    # per twin: F+J at the seed, two trials in each of the 12 iterations,
    # the first raising, and the last line search's nine, all raising
    assert _line_search_trials() == 9
    assert twins.calls == {"fj": 2 * (1 + 2 * 12 + 9), "ZeroDivisionError": 0,
                           "OverflowError": 2 * (12 + 9)}


def test_census_cell_newton_counters(rd_field, monkeypatch):
    # the homotopy's paths and the refinement of each real endpoint in the
    # box, which do not depend on what the process built before
    counters = _NewtonCounters(monkeypatch)
    census = _census_cell(rd_field)
    assert census.paths == ("regular",) * 9
    assert census.count == 3
    assert [label for _p, label in census.states] == [
        "saddle", "attracting", "saddle"]
    assert counters.statuses == {"converged": 3}


def test_newton_unknowns_stay_python_floats(rd_field, monkeypatch):
    counters = _NewtonCounters(monkeypatch)
    _readme_box_find(rd_field)
    _census_cell(rd_field)
    assert counters.trial_types == {float}


def test_census_builds_one_system_per_field(monkeypatch):
    monkeypatch.setattr(solver, "_memo", None)
    f = ex.parse_vector_field("vars: x\nparams: a\neq: x^2 - a")
    builds = []
    init = NewtonSystem.__init__

    def counted_init(system, *args):
        builds.append(args[0])
        init(system, *args)

    monkeypatch.setattr(NewtonSystem, "__init__", counted_init)
    opts = SolveOptions(seed_count=16)
    counts = [count_steady_states(f, (a,), [(-2.0, 2.0)], opts).count
              for a in (1.0, 0.25, -1.0)]
    assert counts == [2, 2, 0]
    count_steady_states(f, (1.0,), [(-3.0, 3.0)], opts)  # another box
    count_steady_states(f, (1.0,), [(-3.0, 3.0)], SolveOptions(seed_count=8))
    g = ex.parse_vector_field("vars: x\nparams: a\neq: x^2 - a")
    assert g == f and g is not f
    count_steady_states(g, (1.0,), [(-3.0, 3.0)], opts)  # an equal field
    assert len(builds) == 1 and builds[0].field is f
    h = ex.parse_vector_field("vars: x\nparams: a\neq: x^2 - 2*a")
    assert count_steady_states(h, (1.0,), [(-3.0, 3.0)], opts).count == 2
    assert len(builds) == 2 and builds[1].field is h


# ---------------------------------------------------------------------------
# the generated Newton solve: the same trials as a plain per-trial loop

def _reference_solve(system, start_vals):
    """NewtonSystem.solve written as a plain loop with a per-trial line
    search: each trial copies the value vector, adds t*d at each unknown's
    slot, calls F+J, and is accepted when each component of its F is below
    the max-norm in absolute value; a trial whose F+J raises is rejected.
    An iteration solves its step from the F+J of the seed or of the trial
    last accepted, by the plain elimination with the system's split."""
    vals = [float(v) for v in start_vals]
    slots = system._slots
    n = system.field.n

    def as_point(v):
        return ex.Point(tuple(v[:n]), tuple(v[n:]))

    m = len(slots)
    try:
        FJ = system.residual_and_jacobian(vals)
    except (ZeroDivisionError, OverflowError):
        return solver.NewtonResult("evaluation-error", None, math.inf, 0)
    for it in range(solver._MAX_ITERATIONS):
        F, J = FJ[:m], FJ[m:]
        res = (max(map(abs, F)) if all(map(math.isfinite, F))
               else math.inf)  # Python's max drops a NaN that is not first
        if res == math.inf:
            return solver.NewtonResult("evaluation-error", None, math.inf, it)
        scale = 1.0 + max(abs(vals[s]) for s in slots)
        if res <= solver._RESIDUAL_TOL * scale:
            return solver.NewtonResult("converged", as_point(vals), res, it)
        try:
            step = _plain_step(F, J, system._split)
        except ZeroDivisionError:
            return solver.NewtonResult("singular-jacobian", as_point(vals), res, it)
        if not all(map(math.isfinite, step)):
            return solver.NewtonResult("singular-jacobian", as_point(vals), res, it)
        moves = tuple(zip(slots, step))
        t = 1.0
        while t >= solver._MIN_STEP:
            trial = vals[:]
            for s, d in moves:
                trial[s] += t * d
            try:
                G = system.residual_and_jacobian(trial)
            except (ZeroDivisionError, OverflowError):
                G = None
            if G is not None and all(abs(g) < res for g in G[:m]):  # no NaN, no infinity
                vals, FJ = trial, G
                break
            t *= solver._DAMPING
        else:
            return solver.NewtonResult("step-underflow", as_point(vals), res, it)
    res = max(map(abs, FJ[:m]))  # the last accepted trial's
    scale = 1.0 + max(abs(vals[s]) for s in slots)
    status = ("converged" if res <= solver._RESIDUAL_TOL * scale
              else "max-iterations")
    return solver.NewtonResult(status, as_point(vals), res, solver._MAX_ITERATIONS)


def _line_search_trials() -> int:
    """The most trials one iteration's line search makes: t = 1, then
    times _DAMPING while t >= _MIN_STEP."""
    t, trials = 1.0, 0
    while t >= solver._MIN_STEP:
        t, trials = t * solver._DAMPING, trials + 1
    return trials


def _outcome(result):
    """A result as status, iterations and the float.hex of the residual and
    of every point coordinate."""
    point = None if result.point is None else [
        float.hex(v) for v in result.point.vals()]
    return result.status, result.iterations, float.hex(result.residual), point


class _TwinSolves:
    """Replaces NewtonSystem.solve so that every seed also runs
    _reference_solve, and checks that both give the same outcome with the
    same number of residual_and_jacobian calls, and of ZeroDivisionError
    and OverflowError raises.  A solve given certified boxes runs once
    more with them, and may differ only by ending converged at a box's
    root in no more iterations; that outcome is the one returned.
    non_finite collects the positions of the non-finite components of each
    F, the first m entries of residual_and_jacobian."""

    def __init__(self, monkeypatch):
        self.calls = {"fj": 0, "ZeroDivisionError": 0, "OverflowError": 0}
        self.statuses: dict = {}
        self.non_finite: set = set()
        residual_and_jacobian = NewtonSystem.residual_and_jacobian
        solve = NewtonSystem.solve

        def counted_residual_and_jacobian(system, vals):
            self.calls["fj"] += 1
            try:
                FJ = residual_and_jacobian(system, vals)
            except (ZeroDivisionError, OverflowError) as e:
                self.calls[type(e).__name__] += 1
                raise
            self.non_finite.update(i for i, g in enumerate(FJ[:len(system._slots)])
                                   if not math.isfinite(g))
            return FJ

        def twin_solve(system, vals, boxes=()):
            before = dict(self.calls)
            want = _reference_solve(system, vals)
            mid = dict(self.calls)
            got = solve(system, vals)
            ref_calls = {k: mid[k] - before[k] for k in mid}
            new_calls = {k: self.calls[k] - mid[k] for k in mid}
            assert _outcome(got) == _outcome(want), list(vals)
            assert new_calls == ref_calls, list(vals)
            if boxes:
                stopped = solve(system, vals, boxes)
                if _outcome(stopped) != _outcome(got):
                    assert stopped.status == "converged", list(vals)
                    assert stopped.iterations <= got.iterations, list(vals)
                    assert stopped.point.vals() in [box[-2] for box in boxes], list(vals)
                got = stopped
            self.statuses[got.status] = self.statuses.get(got.status, 0) + 1
            return got

        monkeypatch.setattr(NewtonSystem, "residual_and_jacobian",
                            counted_residual_and_jacobian)
        monkeypatch.setattr(NewtonSystem, "solve", twin_solve)


def test_line_search_matches_plain_loop_on_rd_seeds(rd_field, monkeypatch):
    twins = _TwinSolves(monkeypatch)
    _readme_box_find(rd_field)
    assert twins.statuses == {"converged": 254, "step-underflow": 2}
    assert _census_cell(rd_field).count == 3  # the refinement's solves
    # 64 state seeds in (-3, 3)^2 per cell of a 5x5 (b, d) grid on the
    # cubic slice, with its degenerate b = d = 0 cell
    centres = [-1.5 + (k + 0.5) * 3.0 / 5 for k in range(5)]
    assert 0.0 in centres
    _D, system = solver._system(rd_field, r=0)
    twins.statuses.clear()
    for b in centres:
        for d in centres:
            for seed in halton(2, 64):
                system.solve([-3.0 + 6.0 * u for u in seed] + [b, d, -1, -1, 1, 1])
    assert twins.statuses["step-underflow"] > 0
    assert sum(twins.statuses.values()) == 25 * 64


def test_line_search_matches_plain_loop_on_edge_cases(rd_field, dense_field, monkeypatch):
    twins = _TwinSolves(monkeypatch)
    # from x = 3 the full step lands on the pole x = 2: that trial raises
    f = ex.parse_vector_field("vars: x\nparams:\neq: x - 1/(x - 2)")
    system = NewtonSystem(det.DeterminantSet(f), f.components)
    for x in (3.0, 2.5, 2.0, 1.0, 0.0, -4.0, 2.0 + 2.0 ** -40):
        system.solve([x])
    assert twins.calls["ZeroDivisionError"] >= 1
    assert twins.statuses == {"converged": 6, "evaluation-error": 1}  # x = 2
    # a singular Jacobian at the start, with a nonzero residual
    f = ex.parse_vector_field("vars: x y\nparams:\neq: x + y - 1\neq: 2*x + 2*y - 3")
    NewtonSystem(det.DeterminantSet(f), f.components).solve([0.0, 0.0])
    assert twins.statuses["singular-jacobian"] == 1
    # from x = 1 the full step lands on x = -1 with the same residual 4:
    # a tie is rejected, so t = 1/2 reaches x = 0, where J = 0
    f = ex.parse_vector_field("vars: x\nparams:\neq: x^2 + 3")
    result = NewtonSystem(det.DeterminantSet(f), f.components).solve([1.0])
    assert (result.status, result.point.x) == ("singular-jacobian", (0.0,))
    f = ex.parse_vector_field("vars: x\nparams:\neq: x^3 - 1")
    system = NewtonSystem(det.DeterminantSet(f), f.components)
    # x^3 overflows in F+J: an evaluation-error before any iteration
    result = system.solve([1e200])
    assert (result.status, result.iterations) == ("evaluation-error", 0)
    assert twins.calls["OverflowError"] == 2  # once per twin
    # J = 3e-220 gives a step near 3e219, whose cube overflows at every t
    # down to _MIN_STEP: all the trials raise, so the step underflows
    result = system.solve([1e-110])
    assert (result.status, result.iterations, result.residual) == (
        "step-underflow", 0, 1.0)
    assert twins.calls["OverflowError"] == 2 + 2 * _line_search_trials()
    # from x = 1e-3 the full step lands on x = -500, where 1e307*(x^2 + 1)
    # overflows: a trial whose F is NaN, +inf or -inf in one component only,
    # the first or the last, is rejected (Python's max drops a last NaN);
    # without the NaN, every trial down to _MIN_STEP overflows to inf
    for bad, outcome in (("y + 1e307*(x^2 + 1) - 1e307*x^2", ("converged", 2)),
                         ("y + 1e307*(x^2 + 1)", ("step-underflow", 0)),
                         ("y - 1e307*(x^2 + 1)", ("step-underflow", 0))):
        for eqs, pos in (([bad, "x^2 + 1"], 0), (["x^2 + 1", bad], 1)):
            f = ex.parse_vector_field(
                "vars: x y\nparams:\n" + "".join(f"eq: {e}\n" for e in eqs))
            twins.non_finite.clear()
            result = NewtonSystem(det.DeterminantSet(f), f.components).solve(
                [1e-3, 0.0])
            assert (result.status, result.iterations) == outcome
            assert twins.non_finite == {pos}
    # a dense field's codim-4 system wanders for all 100 iterations from
    # this start: 368 trials, each by F+J, and the max-norm after the
    # loop is the last accepted trial's, with no call of its own (its last
    # bits follow the term order, which the process's earlier fields set)
    _D, system = solver._system(dense_field, r=4)
    before = dict(twins.calls)
    result = system.solve([0.47, -0.94, -0.42, -1.32, 1.25, 0.36, -0.78, 0.0, 0.0])
    assert (result.status, result.iterations, result.residual) == (
        "max-iterations", 100, pytest.approx(1.399007523749e-4, rel=1e-9))
    assert twins.statuses["max-iterations"] == 1
    assert twins.calls["fj"] - before["fj"] == 2 * (1 + 368)  # the seed's, then the trials


def test_residual_and_jacobian_is_one_flat_tuple_led_by_the_residual(rd_field):
    """F+J is one tuple of m + m*m floats, F then the row-major J."""
    primary = make_primary_form(PrimaryFormSpec(3, 4, (1.3, -0.7), (0.9, -1.6)))
    for field, vals in ((rd_field, [0.3, -0.2, 0.1, 0.2, -1.0, -1.0, 1.0, 1.0]),
                        (primary, [0.3, -0.2, 0.1, 0.1, -0.4, 0.25, 0.5])):
        _D, system = solver._system(field, r=4)
        m = len(system._slots)
        out = system.residual_and_jacobian(vals)
        assert type(out) is tuple and len(out) == m + m * m


def test_find_boardman_and_compile_leave_no_cyclic_garbage():
    """What a find on a new field, boardman_symbol and compile_evaluator
    build is freed by reference counting alone: no reference cycles."""
    def field(lam):
        return make_primary_form(PrimaryFormSpec(3, 4, (lam, -0.7), (0.9, -1.6)))

    box, opts = [(-1.0, 1.0)] * 7, SolveOptions(seed_count=16)
    find_catastrophes(field(1.3), 4, box, opts)  # the one-time caches
    gc.collect()
    gc.disable()  # so that no automatic collection hides a cycle
    try:
        find_catastrophes(field(1.4), 4, box, opts)
        assert gc.collect() == 0
        boardman_symbol(field(1.5), ex.Point((0.0,) * 3, (0.0,) * 4))
        assert gc.collect() == 0
        ex.compile_evaluator(list(field(1.6).components), 3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_solve_rejects_a_start_vector_of_the_wrong_length(rd_field):
    D = det.DeterminantSet(rd_field)
    system = NewtonSystem(D, list(rd_field.components))
    for size in (0, 2, 7, 9):
        with pytest.raises(ValueError, match=f"has {size} values, not 8$"):
            system.solve([0.5] * size)
    assert system.solve([0.5] * 8).status == "converged"


# ---------------------------------------------------------------------------
# the generated elimination: partial-pivot elimination on Python floats

@functools.cache
def _generated_step(m, split=()):
    """solver._elimination's lines for size m and split as a function
    (F, J) -> x of a flat row-major m x m J, as the generated Newton solve
    and the tracker run them inline."""
    lines = [f"{', '.join(f'ea{i}_{j}' for i in range(m) for j in range(m))}, = J",
             f"{', '.join(f'eb{i}' for i in range(m))}, = F",
             *solver._elimination(m, "x", split=split)]
    namespace: dict = {}
    exec("def step(F, J):\n" + "".join(f"    {line}\n" for line in lines)
         + f"    return ({', '.join(f'x{k}' for k in range(m))},)\n", namespace)
    return namespace["step"]


def _plain_step(F, J, split=()):
    """J x = -F by the generated elimination's algorithm and operation
    order, written as plain loops over lists: the elimination on the rows
    and columns outside split, then each split (row i, column j) pair's
    x_j from row i."""
    size = len(F)
    rows = [i for i in range(size) if i not in dict(split)]
    cols = [j for j in range(size) if j not in dict(split).values()]
    a = [[J[i * size + j] for j in cols] for i in rows]
    b = [-F[i] for i in rows]
    m = len(rows)
    for k in range(m):
        p = k
        for i in range(k + 1, m):
            if abs(a[i][k]) > abs(a[p][k]):  # the first maximum
                p = i
        a[k], a[p] = a[p], a[k]
        b[k], b[p] = b[p], b[k]
        for i in range(k + 1, m):
            l = a[i][k] / a[k][k]
            for j in range(k + 1, m):
                a[i][j] -= l * a[k][j]
            b[i] -= l * b[k]
    x = [0.0] * size
    for k in reversed(range(m)):
        s = b[k]
        for j in range(k + 1, m):
            s -= a[k][j] * x[cols[j]]
        x[cols[k]] = s / a[k][k]
    for i, j in split:
        s = -F[i]
        for k in cols:
            s -= J[i * size + k] * x[k]
        x[j] = s / J[i * size + j]
    return tuple(x)


def _step_or_error(step, F, J):
    try:
        return step(F, J)
    except ZeroDivisionError:
        return "singular"


def _draw(kind, part):  # a float part(), or a complex of two parts
    return part() if kind is float else complex(part(), part())


def _systems(m, rng, kind=float):
    """Random systems of size m, of float entries or, for kind complex, of
    complex ones with each part drawn so: dense; with exact zeros and tied
    pivot candidates; and permuted, well-conditioned ones whose (0, 0)
    entry is at most 0.1 (0.15 complex) against at least 0.9 (1.2) below
    it, so the first step swaps."""
    draw = functools.partial(_draw, kind)
    for _ in range(6):
        yield [draw(lambda: rng.uniform(-1, 1)) for _ in range(m * m)], "dense"
    for _ in range(6):
        yield [draw(lambda: float(rng.choice((-2, -1, 0, 0, 0, 1, 1, 2))))
               for _ in range(m * m)], "ties"
    for _ in range(3):  # a permuted, well-conditioned matrix: J[i][perm[i]]
        perm = list(range(m))
        rng.shuffle(perm)
        while m > 1 and perm[0] == 0:
            rng.shuffle(perm)
        J = [0.0] * (m * m)
        for i in range(m):
            J[i * m + perm[i]] = draw(lambda: rng.choice((-1, 1)) * rng.uniform(1, 2))
            J[i * m + rng.randrange(m)] += draw(lambda: rng.uniform(-0.1, 0.1))
        yield J, "pivot"


def _bits(x):  # "singular", or the real and imaginary parts' hex of each entry
    return x if x == "singular" else [(complex(v).real.hex(), complex(v).imag.hex()) for v in x]


def test_generated_step_matches_plain_elimination_bit_for_bit():
    # complex systems too, since the tracker runs the same elimination on them
    for kind in (float, complex):
        rng = random.Random(7)
        kinds = {"dense": 0, "ties": 0, "pivot": 0, "singular": 0}
        for m in range(1, 13):
            step = _generated_step(m)
            for J, system in _systems(m, rng, kind):
                F = tuple(_draw(kind, lambda: rng.uniform(-1, 1)) for _ in range(m))
                got = _step_or_error(step, F, tuple(J))
                assert _bits(got) == _bits(_step_or_error(_plain_step, F, tuple(J))), (
                    kind, m, system)
                if got == "singular":
                    assert system == "ties"
                    kinds["singular"] += 1
                    continue
                kinds[system] += 1
                if system != "ties":  # well conditioned: the step solves J x = -F
                    for i in range(m):
                        row = sum(J[i * m + j] * got[j] for j in range(m))
                        assert row == pytest.approx(-F[i], abs=1e-9)
        assert kinds["singular"] and kinds["ties"] and kinds["pivot"] == 36, kind


@needs_numpy
def test_generated_step_pivots_on_the_first_largest_candidate():
    # a zero leading pivot needs a row swap; |-3| ties |3| and loses to it
    J = (0.0, 1.0, 0.0,
         3.0, 0.0, 1.0,
         -3.0, 1.0, 1.0)
    F = (-1.0, -2.0, -3.0)
    x = _generated_step(3)(F, J)
    assert x == _plain_step(F, J)
    assert x == pytest.approx(tuple(np.linalg.solve(np.reshape(J, (3, 3)),
                                                    np.negative(F))), abs=1e-15)


def test_generated_step_on_singular_and_nan_matrices():
    with pytest.raises(ZeroDivisionError):
        _generated_step(1)((1.0,), (0.0,))
    with pytest.raises(ZeroDivisionError):
        _generated_step(2)((1.0, 1.0), (1.0, 1.0, 2.0, 2.0))
    rng = random.Random(3)
    for m in range(1, 5):
        J = [rng.uniform(-1, 1) for _ in range(m * m)]
        F = tuple(rng.uniform(-1, 1) for _ in range(m))
        for pos in range(m * m):  # a NaN anywhere: never a finite step
            bad = list(J)
            bad[pos] = math.nan
            got = _step_or_error(_generated_step(m), F, tuple(bad))
            assert got == "singular" or not all(map(math.isfinite, got))


def test_singular_jacobian_with_nonzero_residual():
    f = ex.parse_vector_field("vars: x y\nparams:\neq: x + y - 1\neq: 2*x + 2*y - 3")
    res = newton_solve(f, f.components, ex.Point((0.0, 0.0), ()))
    assert (res.status, res.iterations, res.residual) == ("singular-jacobian", 0, 3.0)


@pytest.mark.parametrize("c", [1.0, 0.0])
def test_non_finite_jacobian_entry_is_singular(c):
    # dF0/dy = (a*b)*c is inf at a = b = 1e200 when c = 1, and NaN when
    # c = 0, while F0 = x + ((y*a)*b)*c - 1 stays finite
    f = ex.parse_vector_field(
        "vars: x y\nparams: a b c\neq: x + y*a*b*c - 1\neq: y - 0.25")
    system = NewtonSystem(det.DeterminantSet(f), f.components)
    vals = [0.5, 1e-300, 1e200, 1e200, c]
    FJ = system.residual_and_jacobian(vals)
    F, J = FJ[:2], FJ[2:]
    assert all(map(math.isfinite, F))
    assert not math.isfinite(J[1])
    res = system.solve(vals)
    assert (res.status, res.iterations) == ("singular-jacobian", 0)


def _unknowns(system):  # the names of a system's unknowns, in column order
    names = system.field.var_names + system.field.param_names
    return [names[s] for s in system._slots]


def test_additive_unfolding_parameters_are_split_off(rd_field):
    """rd's b and d enter F1 and F2 with the constant coefficient -1 and
    appear in no B; the primary form's a1 enters F1 alone; the census's
    F-only rd system has no constant column."""
    _D, system = solver._system(rd_field, r=4)
    assert _unknowns(system) == ["u", "v", "b", "d", "a", "g"]
    assert system._split == ((0, 2), (1, 3))
    _D, system = solver._system(rd_field, r=0)
    assert system._split == ()
    primary = make_primary_form(PrimaryFormSpec(3, 6, (1.3, -0.7), (0.9, -1.6)))
    _D, system = solver._system(primary, r=6)
    assert _unknowns(system)[3] == "a1" and system._split == ((0, 3),)


def test_a_second_constant_column_on_a_used_row_stays_eliminated(monkeypatch):
    """x and y each have one constant entry, both on row 0: x is split off,
    y stays in the 1 x 1 system of row 1, whose zero pivot ends the solve
    singular-jacobian at once, as with no split."""
    twins = _TwinSolves(monkeypatch)
    f = ex.parse_vector_field("vars: x y\nparams:\neq: x + y - 1\neq: 3")
    system = NewtonSystem(det.DeterminantSet(f), f.components)
    assert system._split == ((0, 0),)
    result = system.solve([0.0, 0.0])
    assert (result.status, result.iterations, result.residual) == (
        "singular-jacobian", 0, 3.0)
    assert twins.statuses == {"singular-jacobian": 1}


def test_an_infinite_constant_column_is_not_split(monkeypatch):
    # split off, x's step would be some number over inf, a finite 0
    twins = _TwinSolves(monkeypatch)
    f = ex.parse_vector_field("vars: x y\nparams:\neq: 1e400*x + y - 1\neq: y - 0.5")
    system = NewtonSystem(det.DeterminantSet(f), f.components)
    assert system._split == ()
    for start in ([0.0, 0.0], [1.0, 0.5]):
        assert system.solve(start).status == "evaluation-error"
    assert twins.statuses == {"evaluation-error": 2}


@st.composite
def _split_systems(draw):
    """(F, J, split): a random m x m J in which each split (row i, column
    j) pair's column is a nonzero constant on row i and 0 elsewhere, with
    distinct rows and the pairs in column order, as _split_columns gives
    them; entries are often exactly 0, so J may be singular."""
    m = draw(st.integers(1, 7))
    k = draw(st.integers(0, m))
    rows = draw(st.permutations(range(m)))[:k]
    cols = sorted(draw(st.permutations(range(m)))[:k])
    entry = st.sampled_from((0.0, 1.0, -2.0)) | st.floats(-1.0, 1.0, allow_subnormal=False)
    J = [draw(entry) for _ in range(m * m)]
    for i, j in zip(rows, cols):
        for row in range(m):
            J[row * m + j] = 0.0
        J[i * m + j] = draw(st.floats(0.25, 4.0) | st.floats(-4.0, -0.25))
    F = tuple(draw(st.floats(-1.0, 1.0, allow_subnormal=False)) for _ in range(m))
    return F, tuple(J), tuple(zip(rows, cols))


@needs_numpy
@settings(max_examples=300, deadline=None)
@given(_split_systems())
def test_split_step_matches_the_plain_twin_and_lapack(case):
    """The generated step with split columns gives the plain twin's bits,
    and a finite step solves J x = -F with a backward error within Gaussian
    elimination's bound, as numpy.linalg.solve's solution does."""
    F, J, split = case
    m = len(F)
    got = _step_or_error(_generated_step(m, split), F, J)
    assert _bits(got) == _bits(_step_or_error(
        functools.partial(_plain_step, split=split), F, J))
    if got == "singular" or not all(map(math.isfinite, got)):
        return
    A, b = np.reshape(J, (m, m)), -np.array(F)

    def backward_bound(x):  # m 2^m eps (|A| |x| + |b|) in max-norms, growth included
        norm = np.max(np.sum(np.abs(A), axis=1)) * np.max(np.abs(x)) + np.max(np.abs(b))
        return m * 2.0 ** m * 2.0 ** -52 * norm + 1e-300

    x = np.array(got)
    assert np.max(np.abs(A @ x - b)) <= backward_bound(x)
    if np.linalg.cond(A, np.inf) < 1e8:
        want = np.linalg.solve(A, b)
        assert np.max(np.abs(A @ want - b)) <= backward_bound(want)
        # x - want = A^-1 (r_x - r_want), each r within its bound
        gap = np.linalg.norm(np.linalg.inv(A), np.inf) * (backward_bound(x) + backward_bound(want))
        assert np.max(np.abs(x - want)) <= 2.0 * gap


@needs_numpy
def test_newton_iteration_makes_no_lapack_call(rd_field, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    assert len(_readme_box_find(rd_field)) == 2
    assert _census_cell(rd_field).count == 3
