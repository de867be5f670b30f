"""Outward-rounded intervals against exact rationals, Krawczyk's test, and
the multistart stop that certified boxes drive."""

import math
import operator
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import catafind.determinants as det
import catafind.expr as ex
import catafind.solver as solver
from catafind.interval import Interval, bind
from catafind.solver import NewtonSystem, SolveOptions, find_catastrophes

from rd_reference import RdReference

RD_BOX_UNIT = [(-1.2, 1.2)] * 4 + [(0.0, 1.2)] * 2

finite = st.floats(allow_nan=False, allow_infinity=False)


def _operand(draw_three):
    """An interval from three floats: the least and the greatest are its
    endpoints, and all three are its points to try."""
    points = sorted(draw_three)
    return Interval(points[0], points[-1]), points


intervals = st.lists(finite, min_size=3, max_size=3).map(_operand)


def _contains(iv, exact: Fraction) -> bool:
    return ((iv.lo == -math.inf or Fraction(iv.lo) <= exact)
            and (iv.hi == math.inf or exact <= Fraction(iv.hi)))


@settings(max_examples=300, deadline=None)
@given(intervals, intervals)
def test_arithmetic_encloses_the_exact_rational_result(x, y):
    (X, xs), (Y, ys) = x, y
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        if op is operator.truediv and Y.lo <= 0.0 <= Y.hi:
            with pytest.raises(ZeroDivisionError):
                X / Y
            continue
        got = op(X, Y)
        assert got.lo <= got.hi
        for a in xs:
            for b in ys:
                assert _contains(got, op(Fraction(a), Fraction(b))), (op, a, b, got)
    neg = -X
    assert (neg.lo, neg.hi) == (-X.hi, -X.lo)


def _steps(x: float, k: int, to: float) -> float:
    for _ in range(k):
        x = math.nextafter(x, to)
    return x


@settings(max_examples=500, deadline=None)
@given(intervals, intervals)
def test_a_product_is_the_rational_hull_rounded_out_by_at_most_two_steps(x, y):
    """An enclosure alone would pass a rule that picks the wrong products
    but still encloses, or that widens by more than rounding needs."""
    (X, _xs), (Y, _ys) = x, y
    products = [Fraction(a) * Fraction(b) for a in (X.lo, X.hi) for b in (Y.lo, Y.hi)]
    assume(all(math.isfinite(float(a) * float(b)) for a in (X.lo, X.hi) for b in (Y.lo, Y.hi)))
    got = X * Y
    lo, hi = min(products), max(products)  # the last step out may reach an infinity
    assert _contains(Interval(got.lo, _steps(got.lo, 2, math.inf)), lo), (X, Y, got)
    assert _contains(Interval(_steps(got.hi, 2, -math.inf), got.hi), hi), (X, Y, got)


@settings(max_examples=300, deadline=None)
@given(intervals, st.integers(-12, 12) | st.integers(101, 260) | st.integers(-260, -101))
def test_integer_powers_enclose_the_exact_rational_power(x, k):
    """Through compile_evaluator's source with its constants bound to
    intervals: above |k| = 100 the source calls pow, which takes the
    interval's own power."""
    X, xs = x
    fn = bind(ex.compile_evaluator([ex.pow_(ex.var(0), k)], 1))
    if k < 0:
        divisor = X ** -k  # holds 0 when X does, or when a bound underflows
        if divisor.lo <= 0.0 <= divisor.hi or not -math.inf < divisor.lo <= divisor.hi < math.inf:
            with pytest.raises(ZeroDivisionError if divisor.lo <= 0.0 <= divisor.hi
                               else OverflowError):
                fn([X])
            return
    got, = fn([X])
    assert got.lo <= got.hi
    for a in xs:
        assert _contains(got, Fraction(a) ** k), (a, k, got)
    if k > 0 and k % 2 == 0 and X.lo <= 0.0 <= X.hi:
        assert got.lo == 0.0  # an even power of an interval that holds 0 starts at 0


def test_a_non_finite_operand_raises_instead_of_dropping_a_nan():
    for bad in (Interval(-math.inf, 1.0), Interval(1.0, math.nan), Interval(math.nan, math.nan)):
        with pytest.raises(OverflowError):
            bad * Interval(0.0, 2.0)
        with pytest.raises(OverflowError):
            bad / Interval(1.0, 2.0)
        with pytest.raises(OverflowError):
            bad ** 2


def test_importing_the_package_compiles_no_interval_module():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = "import sys, catafind.cli; sys.exit('catafind.interval' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


# ---------------------------------------------------------------------------
# Krawczyk's test

def _system(field, r):
    return solver._system(field, None, r)[1]


def test_both_readme_butterflies_certify_around_their_closed_form(rd_field):
    reports = find_catastrophes(rd_field, 4, RD_BOX_UNIT, fixed={"k1": 1, "k2": 1})
    assert len(reports) == 2
    system = _system(rd_field, 4)
    for rep, branch in zip(reports, (-1, +1)):
        bounds = system.certify(rep.point.vals())
        assert bounds is not None
        target = RdReference(1.0, 1.0).butterfly_point(branch).vals()
        unknowns = [target[s] for s in system._slots]
        assert all(lo <= t <= hi for t, lo, hi in zip(unknowns, bounds[::2], bounds[1::2]))


def test_no_singular_codimension_3_report_certifies(rd_field):
    # the golden find-rd-codim3 command: k1 = k2 = 0, where the roots of
    # the codimension-3 system pile up at the corank-2 origin
    reports = find_catastrophes(rd_field, 3, [(-1.5, 1.5)] * 5)
    assert len(reports) == 38
    system = _system(rd_field, 3)
    assert [system.certify(rep.point.vals()) for rep in reports] == [None] * 38


def test_a_box_holding_two_roots_or_none_does_not_certify():
    f = ex.parse_vector_field("vars: x\nparams:\neq: x^2 - 1e-8")
    system = NewtonSystem(det.DeterminantSet(f), f.components)
    assert system.certify([1e-4]) is None  # the box of half-width 1e-3 holds -1e-4 too
    f = ex.parse_vector_field("vars: x\nparams:\neq: x^2 - 1")
    system = NewtonSystem(det.DeterminantSet(f), f.components)
    lo, hi = system.certify([1.0])
    assert lo < 1.0 < hi and hi - lo < 4.1e-3  # half-width 1e-3 * (1 + |x|)
    assert system.certify([1.01]) is None  # J is regular there, but the box holds no root


def test_a_pole_in_the_box_gives_no_certificate():
    f = ex.parse_vector_field("vars: x\nparams:\neq: x - 1e-4 + 1e-12/(x - 3e-4)")
    system = NewtonSystem(det.DeterminantSet(f), f.components)
    result = system.solve([0.0])
    assert result.ok and system.certify(list(result.point.vals())) is None


# ---------------------------------------------------------------------------
# the stop: reports as without it

def _reference_reports(field, box, fixed, opts):
    """find_catastrophes's points, from a loop that solves every seed
    without boxes and then deduplicates."""
    system = _system(field, 4)
    template = list((0.0,) * field.n + solver._resolve_fixed(field, fixed))
    hits = []
    for seed in solver._seed_values(box, opts.seed_count):
        vals = list(template)
        for s, v in zip(system._slots, seed):
            vals[s] = v
        result = system.solve(vals)
        if result.ok:
            hits.append((result.point.vals(), result.residual))
    return [vals for vals, _res in solver._dedup(hits, opts.dedup_radius)]


@settings(max_examples=8, deadline=None)
@given(st.floats(0.5, 2.0), st.floats(0.5, 2.0))
def test_the_stop_keeps_the_reports_of_a_loop_without_boxes(rd_field, k1, k2):
    span = 1.5 * max(1.0, k1, k2)
    box = [(-span, span)] * 4 + [(0.0, span)] * 2
    fixed, opts = {"k1": k1, "k2": k2}, SolveOptions()
    certified = []
    certify = NewtonSystem.certify

    def counted_certify(system, vals):
        bounds = certify(system, vals)
        certified.append(bounds is not None)
        return bounds

    try:
        NewtonSystem.certify = counted_certify
        got = [rep.point.vals() for rep in find_catastrophes(rd_field, 4, box, opts, fixed=fixed)]
    finally:
        NewtonSystem.certify = certify
    want = _reference_reports(rd_field, box, fixed, opts)
    assume(any(certified))  # a run with no box compares nothing new
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert all(abs(p - q) <= 1e-12 * (1.0 + abs(q)) for p, q in zip(a, b)), (a, b)
