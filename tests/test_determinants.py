"""Level determinants, extended determinants, subrank, numeric thresholds."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import catafind.expr as ex
import catafind.determinants as det
from catafind.scenarios import (PrimaryFormSpec, make_primary_form,
                                make_reaction_diffusion)

from rd_reference import RdReference, rd_catastrophe_point


def rd_point(rng, span=2.0):
    return ex.Point((rng.uniform(-span, span), rng.uniform(-span, span)),
                    tuple(rng.uniform(-span, span) for _ in range(4))
                    + (rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)))


def rd_closed_forms(p):
    """Hand-transcribed closed forms of the first four level determinants."""
    u, v = p.x
    b, d, a_, g, k1, k2 = p.alpha
    a = a_ + 3 * v ** 2
    c = g + 3 * u ** 2
    return (
        k1 * k2 - a * c,
        6 * (k2 * u * a - v * c ** 2),
        6 * (18 * k2 * u * v * c - k2 ** 2 * a - c ** 3),
        72 * k2 * (3 * u * c ** 2 - 2 * k2 * v * c - 9 * k2 * u ** 2 * v),
    )


# ---------------------------------------------------------------------------
# jacobian / sym_det

def test_jacobian_reaction_diffusion(rd_field):
    J = det.DeterminantSet(rd_field).b_matrix(1)
    rng = random.Random(5)
    for _ in range(20):
        p = rd_point(rng)
        u, v = p.x
        b, d, a_, g, k1, k2 = p.alpha
        expect = [[-k1, -(a_ + 3 * v ** 2)], [-(g + 3 * u ** 2), -k2]]
        for i in range(2):
            for j in range(2):
                assert ex.evaluate(J[i][j], p) == pytest.approx(
                    expect[i][j], rel=1e-14, abs=1e-14)


def test_jacobian_identity():
    f = ex.parse_vector_field("vars: x y\nparams:\neq: x\neq: y")
    J = det.DeterminantSet(f).b_matrix(1)
    assert J[0][0] is ex.ONE and J[1][1] is ex.ONE
    assert J[0][1] is ex.ZERO and J[1][0] is ex.ZERO


def test_sym_det_one_by_one():
    e = ex.add(ex.var(0), ex.const(2.0))
    assert det.sym_det([[e]]) is e


def lu_det(A):
    """Partial-pivot LU determinant, written out as an independent oracle."""
    A = np.array(A, dtype=float)
    n = A.shape[0]
    sign = 1.0
    for k in range(n):
        piv = k + int(np.argmax(np.abs(A[k:, k])))
        if A[piv, k] == 0.0:
            return 0.0
        if piv != k:
            A[[k, piv]] = A[[piv, k]]
            sign = -sign
        A[k + 1:, k:] -= np.outer(A[k + 1:, k] / A[k, k], A[k, k:])
    return sign * float(np.prod(np.diag(A)))


def test_sym_det_matches_lu_oracle():
    rng = random.Random(42)
    for _ in range(25):
        M = [[rng.uniform(-2, 2) for _ in range(4)] for _ in range(4)]
        e = det.sym_det([[ex.const(v) for v in row] for row in M])
        expected = lu_det(M)
        assert ex.evaluate(e, ex.Point((), ())) == pytest.approx(
            expected, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# level determinants

def test_b1_closed_form(rd_dets):
    B1 = rd_dets.build_B(1)
    rng = random.Random(9)
    for _ in range(100):
        p = rd_point(rng)
        expect = rd_closed_forms(p)[0]
        assert ex.evaluate(B1, p) == pytest.approx(expect, rel=1e-12, abs=1e-12)


def test_b2_through_b4_closed_forms(rd_dets):
    exprs = [rd_dets.build_B(i, (1,) * (i - 1)) for i in (2, 3, 4)]
    rng = random.Random(10)
    for _ in range(100):
        p = rd_point(rng)
        closed = rd_closed_forms(p)
        for e, expect in zip(exprs, closed[1:]):
            assert ex.evaluate(e, p) == pytest.approx(
                expect, rel=1e-11, abs=1e-10)


def test_index_string_validation(rd_dets):
    with pytest.raises(IndexError):
        rd_dets.build_B(2, (3,))   # entry outside 1..n
    with pytest.raises(IndexError):
        rd_dets.build_B(3, (1,))   # wrong length
    with pytest.raises(IndexError):
        rd_dets.build_B(0)         # level below 1
    p = ex.Point((0.1, 0.2), (0.3, -0.4, 0.5, 0.6, 1.0, 1.0))
    level = rd_dets.level(3, p)
    with pytest.raises(IndexError):
        level.b(2, (3,))           # entry outside 1..n
    with pytest.raises(IndexError):
        level.g((0, 1))
    with pytest.raises(IndexError):
        level.b(3, (1,))           # wrong length
    with pytest.raises(IndexError):
        level.g((1,))
    with pytest.raises(IndexError):
        level.b(0, ())             # level below 1
    with pytest.raises(IndexError):
        level.b(4, (1, 1, 1))      # above the level's codimension
    with pytest.raises(IndexError):
        rd_dets.level(-1, p)       # codimension below 0
    with pytest.raises(IndexError):  # more codimensions than parameters
        det.DeterminantSet(rd_dets.field, param_order=(0, 1)).level(3, p).g((1, 1))


def test_canonical_reduction(rd_field):
    """B_i with the all-1s string matches an independently assembled
    determinant that replaces the first component at every level."""
    D = det.DeterminantSet(rd_field)
    comps = list(rd_field.components)
    prev = comps[0]
    rng = random.Random(12)
    pts = [rd_point(rng) for _ in range(20)]
    for i in range(1, 5):
        rows = [prev] + comps[1:]
        direct = det.sym_det([[ex.differentiate(e, ex.var(j)) for j in range(2)]
                              for e in rows])
        built = D.build_B(i, (1,) * (i - 1))
        for p in pts:
            assert ex.evaluate(built, p) == pytest.approx(
                ex.evaluate(direct, p), rel=1e-12, abs=1e-10)
        prev = direct


# ---------------------------------------------------------------------------
# extended determinants

def test_g1_of_translation_field_vanishes():
    f = ex.parse_vector_field("vars: x\nparams: a\neq: x + a")
    D = det.DeterminantSet(f)
    # B1 is constant 1, so the extended determinant row is zero everywhere
    value, _scale = D.level(1, ex.Point((0.3,), (0.7,))).g(())
    assert value == 0.0


def test_g1_nonzero_on_fold_sheet(rd_dets):
    ref = RdReference(1.0, 1.0)
    p = rd_catastrophe_point(ref, "fold", u=0.2, v=0.1, gamma=1.0)
    level = rd_dets.level(1, p)
    value, scale = level.g(())
    assert det.is_nonzero(value, scale)
    bval, bscale = level.b(1, ())
    assert det.is_zero(bval, bscale)


def g_matrix(D, r, K):
    """The (n + r) x (n + r) extended matrix of G_{r,K}: the gradients of
    the components, then of B_1, B_{2,K[:1]}, ..., B_{r,K[:r-1]}."""
    nodes = [*D.field.components,
             *(D.build_B(i, K[:i - 1]) for i in range(1, r + 1))]
    return [D.row(e, D.field.n + r) for e in nodes]


def assert_g_matches_sym_det(D, r, points):
    """G read from a level (elimination of the evaluated matrix) against
    the expanded symbolic determinant of the same matrix, for every index
    string."""
    levels = [D.level(r, p) for p in points]
    for K in det.index_strings(D.field.n, r - 1):
        G = det.sym_det(g_matrix(D, r, K))
        for level in levels:
            p = level.p
            value, scale = level.g(K)
            expect = ex.evaluate(G, p)
            assert abs(value - expect) <= 1e-12 * max(1.0, scale), (r, K, p)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_g_at_matches_symbolic_determinant_rd(rd_dets, r):
    rng = random.Random(40 + r)
    assert_g_matches_sym_det(rd_dets, r, [rd_point(rng) for _ in range(20)])


def test_g_at_matches_symbolic_determinant_primary():
    D = det.DeterminantSet(make_primary_form(PrimaryFormSpec(3, 3)))
    rng = random.Random(45)
    points = [ex.Point(tuple(rng.uniform(-1.5, 1.5) for _ in range(3)),
                       tuple(rng.uniform(-1.5, 1.5) for _ in range(3)))
              for _ in range(20)]
    assert_g_matches_sym_det(D, 3, points)


@pytest.mark.parametrize("spec, minors", [
    (None, [(0, 0), (0, 1), (1, 0), (1, 1)]),
    (PrimaryFormSpec(3, 4, (1.3, -0.7), (0.9, -1.6)), [(0, 0), (1, 0), (2, 0)]),
], ids=["rd", "primary-n3r4"])
def test_trie_walk_returns_the_objects_of_build_B(monkeypatch, spec, minors):
    """The nest of level 4, one walk over the prefix trie, holds the very
    object that build_B(i, K) returns for every (i, K), in index_strings
    order, also on a set whose build_B recursion built them; it takes one
    sym_det for B_1 and one per minor M_kj of DF that a term reads (the
    primary form's B do not depend on x2 and x3, so only column 0's), and
    one expansion per distinct (replaced row, parent): 30 for the 39 nodes
    above B_1 of the primary form."""
    field = make_reaction_diffusion() if spec is None else make_primary_form(spec)
    n, dets = field.n, []
    sym_det = det.sym_det

    def counting_sym_det(M):
        dets.append(M)
        return sym_det(M)

    monkeypatch.setattr(det, "sym_det", counting_sym_det)
    D, E = det.DeterminantSet(field), det.DeterminantSet(field)
    nest = D._nest(4)
    walked = len(dets)
    keys = [(i, K) for i in range(1, 5) for K in det.index_strings(n, i - 1)]
    assert len(nest) == len(keys)
    for b, (i, K) in zip(nest, keys):
        assert b is D.build_B(i, K) is E.build_B(i, K), (i, K)
    assert walked == 1 + len(minors) and sorted(D._minors) == minors
    assert len(D._expanded) == len({(K[-1], D.build_B(i - 1, K[:-1]))
                                    for i, K in keys if i >= 2})
    DF = D.b_matrix(1)
    for (k, j), m in D._minors.items():
        assert m is sym_det([row[:j] + row[j + 1:] for row in DF[:k] + DF[k + 1:]])


def to_sympy(e, symbols, memo):
    """e as a sympy expression with each constant as its exact rational."""
    import sympy as sp
    got = memo.get(e)
    if got is None:
        kids = [to_sympy(c, symbols, memo) for c in e.children]
        got = memo[e] = {
            ex.CONST: lambda: sp.Rational(e.value),
            ex.VAR: lambda: symbols[0][e.index],
            ex.PAR: lambda: symbols[1][e.index],
            ex.SUM: lambda: sp.Add(*kids),
            ex.PROD: lambda: sp.Mul(*kids),
            ex.NEG: lambda: -kids[0],
            ex.QUOT: lambda: kids[0] / kids[1],
            ex.POW: lambda: kids[0] ** e.exponent,
        }[e.kind]()
    return got


@pytest.mark.parametrize("spec", [None, PrimaryFormSpec(3, 4, (2.0, -3.0), (1.0, -2.0))],
                         ids=["rd", "primary-n3r4"])
def test_replaced_row_expansion_is_the_determinant_of_b_matrix(spec):
    """Every B_{i,K} up to level 4, expanded along its replaced row over
    DF's minors, equals sym_det(b_matrix(i, K)) as an exact polynomial
    (integer lambda and tau, so every constant is exact in binary64); on
    the chain B_{i,(1,...,1)} both are the same node."""
    sp = pytest.importorskip("sympy")
    field = make_reaction_diffusion() if spec is None else make_primary_form(spec)
    D, n = det.DeterminantSet(field), field.n
    symbols = (sp.symbols(f"x:{n}"), sp.symbols(f"a:{field.r}"))
    memo = {}
    for i in range(1, 5):
        for K in det.index_strings(n, i - 1):
            direct = det.sym_det(D.b_matrix(i, K))
            if K == (1,) * (i - 1):
                assert D.build_B(i, K) is direct, (i, K)
            diff = to_sympy(D.build_B(i, K), symbols, memo) - to_sympy(direct, symbols, memo)
            assert sp.expand(diff) == 0, (i, K)


def test_one_level_serves_every_lower_read(rd_field):
    """One level(4, p) gives F, the subrank and every B value and scale of
    levels 1..4 with the bits that each lower level gives on its own; it
    holds no level above 4."""
    D = det.DeterminantSet(rd_field)
    for p in (RdReference(1.0, 2.0).butterfly_point(+1),
              ex.Point((0.3, -0.7), (0.1, 0.2, -0.4, 0.5, 1.0, 2.0))):
        top = D.level(4, p)
        assert top.field() == D.level(0, p).field()
        assert top.subrank() == D.level(0, p).subrank()
        for i in range(1, 5):
            alone = D.level(i, p)
            for K in det.index_strings(2, i - 1):
                assert top.b(i, K) == alone.b(i, K), (i, K, p)
        with pytest.raises(IndexError):
            top.b(5, (1, 1, 1, 1))


def count_level_calls(monkeypatch):
    """(codimension, input type) of each call of a level function from now
    on: float, or complex for a complex step."""
    calls = []
    level_fn = det.DeterminantSet._level_fn

    def counting_level_fn(D, r):
        fn, step, exprs, at = level_fn(D, r)

        def counting(f):
            def counted(vals):
                calls.append((r, complex if any(isinstance(v, complex) for v in vals)
                              else float))
                return f(vals)
            return counted
        return counting(fn), counting(step), exprs, at

    monkeypatch.setattr(det.DeterminantSet, "_level_fn", counting_level_fn)
    return calls


def test_cold_report_and_check_each_evaluate_one_level(monkeypatch, capsys,
                                                       rd_field):
    """With no field memo, each find report and a check call the level-r
    function once on floats, then once on complex inputs per unknown of G's
    rows (n + r of them)."""
    from catafind import cli, solver
    monkeypatch.setattr(solver, "_memo", None)
    calls = count_level_calls(monkeypatch)
    box = [(-1.2, 1.2)] * 4 + [(0.0, 1.2)] * 2
    reports = solver.find_catastrophes(rd_field, 4, box,
                                       fixed={"k1": 1.0, "k2": 1.0})
    one = [(4, float)] + [(4, complex)] * (2 + 4)
    assert len(reports) >= 2 and calls == one * len(reports)
    monkeypatch.setattr(solver, "_memo", None)
    calls.clear()
    assert cli.main(["check", "--builtin", "rd", "--codim", "3",
                     "--at", "u=0.2,v=0.1,b=0.3,k1=1,k2=1"]) == 0
    capsys.readouterr()
    assert calls == [(3, float)] + [(3, complex)] * (2 + 3)


def test_a_point_holding_negative_zeros_reads_them_back():
    """The component y and B_1 = x carry the sign of the point's zeros."""
    D = det.DeterminantSet(
        ex.parse_vector_field("vars: x y\nparams: a\neq: x^2/2 + a\neq: y"))
    plus, minus = ex.Point((0.0, 0.0), (0.0,)), ex.Point((-0.0, -0.0), (0.0,))
    assert plus == minus
    for p, sign in ((plus, 1.0), (minus, -1.0), (plus, 1.0)):
        level = D.level(1, p)
        assert math.copysign(1.0, level.field()[1]) == sign
        assert math.copysign(1.0, level.b(1, ())[0]) == sign


def evaluated(matrix, n_vars, p):
    """Rows of a matrix of expressions at p, through their own compiled
    function."""
    exprs = [e for row in matrix for e in row]
    flat = [float(v) for v in ex.compile_evaluator(exprs, n_vars)(p.vals())]
    size = len(matrix[0])
    return [flat[k:k + size] for k in range(0, len(flat), size)]


def assert_g_matches_symbolic_rows(level, D, r, K):
    """G_{r,K} read from level r, over its complex-step rows, within 1e-15
    of the Hadamard scale of eliminating the symbolic g_matrix evaluated at
    the level's point, and its scale within 1e-13 of that scale; returns
    that evaluated matrix."""
    M = evaluated(g_matrix(D, r, K), D.field.n, level.p)
    value, scale = level.g(K)
    expect = det.hadamard_bound(M)
    assert abs(value - det._eliminate(M)[1]) <= 1e-15 * expect, (K, level.p)
    assert abs(scale - expect) <= 1e-13 * expect, (K, level.p)
    return M


def assert_level_values_are_exact(D, r, points):
    """B read from level r, one evaluation, gives the same bits as
    evaluating each determinant and matrix on its own; G, one elimination
    over the prefix trie of complex-step rows, is within 1e-15 of scale of
    eliminating the symbolic matrix alone, and within 1e-12 of scale of
    LAPACK's determinant."""
    n = D.field.n
    for p in points:
        level = D.level(r, p)
        for i in range(1, r + 1):
            for K in det.index_strings(n, i - 1):
                [[value]] = evaluated([[D.build_B(i, K)]], n, p)
                M = evaluated(D.b_matrix(i, K), n, p)
                assert level.b(i, K) == (value, det.hadamard_bound(M)), (i, K, p)
        for K in det.index_strings(n, r - 1):
            M = assert_g_matches_symbolic_rows(level, D, r, K)
            value, scale = level.g(K)
            assert abs(value - np.linalg.det(M)) <= 1e-12 * scale, (K, p)


def test_stacked_level_values_are_exact_rd(rd_dets):
    rng = random.Random(47)
    points = [RdReference(1.0, 2.0).butterfly_point(+1),
              rd_point(rng), rd_point(rng)]
    assert_level_values_are_exact(rd_dets, 4, points)


def test_stacked_level_values_are_exact_primary():
    D = det.DeterminantSet(make_primary_form(PrimaryFormSpec(3, 4)))
    rng = random.Random(48)
    points = [ex.Point(tuple(rng.uniform(-1.5, 1.5) for _ in range(3)),
                       tuple(rng.uniform(-1.5, 1.5) for _ in range(4)))
              for _ in range(3)]
    assert_level_values_are_exact(D, 4, points)


@pytest.mark.parametrize("power", [101, -101])
def test_complex_step_rows_of_powers_above_100_at_a_negative_base(power):
    """Above |k| = 100 CPython's complex ** leaves repeated multiplication
    for log and exp, which at a negative base loses the imaginary part of a
    complex step; the level's step takes such a power by the power rule, so
    G at x < 0 still matches the symbolic rows."""
    D = det.DeterminantSet(ex.parse_vector_field(
        f"vars: x y\nparams: a b c\neq: x^{power} + a*y + b*x*y\neq: y^2 - x + c*x^2"))
    for p in (ex.Point((-1.01, 0.3), (0.2, -0.4, 0.7)),
              ex.Point((-0.97, -0.5), (0.1, 0.3, -0.2))):
        level = D.level(3, p)
        for K in det.index_strings(2, 2):
            assert_g_matches_symbolic_rows(level, D, 3, K)


def test_complex_step_rows_on_a_dense_field(dense_field):
    """Every one of the 81 G_{5,K} of a field with every monomial up to
    degree 3 matches the symbolic rows."""
    D, rng = det.DeterminantSet(dense_field), random.Random(49)
    level = D.level(5, ex.Point(tuple(rng.uniform(-1.5, 1.5) for _ in range(3)),
                                tuple(rng.uniform(-1.5, 1.5) for _ in range(6))))
    for K in det.index_strings(3, 4):
        assert_g_matches_symbolic_rows(level, D, 5, K)


def test_one_report_differentiates_each_pair_and_expands_each_matrix_once(
        monkeypatch):
    """A cold fullness report at n=3, r=6 differentiates each (expression,
    target) pair once, 132 of them: the state columns of the components and
    of each B below level 6, which the nest expands, and none for G, whose
    rows come by complex step.  It expands by sym_det only B_1 and each
    minor of DF that a level determinant reads, once each.  A whole find on
    the same field, on a set of its own, differentiates those 132 and the
    57 more of its Newton Jacobian (the parameter columns of the components
    and the chain, and B_6's row), each once."""
    from catafind import solver
    pairs, matrices = [], []
    differentiate, sym_det = ex.differentiate, det.sym_det

    def counting_differentiate(e, wrt, _memo=None):
        pairs.append((e, wrt))
        return differentiate(e, wrt, _memo)

    def counting_sym_det(M):
        matrices.append(M)
        return sym_det(M)

    monkeypatch.setattr(ex, "differentiate", counting_differentiate)
    monkeypatch.setattr(det, "sym_det", counting_sym_det)
    field = make_primary_form(PrimaryFormSpec(3, 6, (1.3, -0.7), (0.9, -1.6)))
    D = det.DeterminantSet(field)
    rep = solver.build_report(D.level(6, ex.Point((0.0,) * 3, (0.0,) * 6)), 0.0)
    assert rep.full
    assert len(matrices) == 4  # B_1 and the minors M_00, M_10, M_20 of DF
    assert len(pairs) == 132 and len(set(pairs)) == 132
    pairs.clear()
    reps = solver.find_catastrophes(field, 6, [(-1.5, 1.5)] * 9,
                                    solver.SolveOptions(seed_count=64))
    assert [r.full for r in reps] == [True]
    assert len(pairs) == 189 and len(set(pairs)) == 189


# ---------------------------------------------------------------------------
# vanishing structure on the catastrophe sets

def test_cusp_set_kills_both_level2_strings(rd_dets):
    """Where the first two level determinants vanish, the alternative
    level-2 string vanishes as well (scaled threshold)."""
    rng = random.Random(21)
    for _ in range(50):
        u = rng.uniform(0.05, 1.0)
        v = u * rng.uniform(0.1, 3.0)  # same sign keeps the domain valid
        ref = RdReference(rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0))
        level = rd_dets.level(2, rd_catastrophe_point(ref, "cusp", u=u, v=v))
        for (i, K) in ((1, ()), (2, (1,)), (2, (2,))):
            value, scale = level.b(i, K)
            assert abs(value) <= 1e-8 * scale, (i, K, value, scale)


def test_butterfly_kills_every_index_string(rd_dets):
    ref = RdReference(1.0, 2.0)
    for branch in (+1, -1):
        level = rd_dets.level(4, ref.butterfly_point(branch))
        for i in range(1, 5):
            for K in det.index_strings(2, i - 1):
                value, scale = level.b(i, K)
                assert abs(value) <= 1e-9 * scale, (i, K, value)


# ---------------------------------------------------------------------------
# subrank and rank

def test_subrank_reaction_diffusion_origin(rd_field):
    p = ex.Point((0.0, 0.0), (0.0, 0.0, 0.0, 0.0, 1.0, 1.0))
    assert det.DeterminantSet(rd_field).level(0, p).subrank(1e-8) == 1


def test_subrank_corank_collapse(corank_zero_field):
    p = ex.Point((0.0, 0.0), (0.0, 0.0))
    assert det.DeterminantSet(corank_zero_field).level(0, p).subrank(1e-8) == 0


def test_subrank_identity_3d():
    f = ex.parse_vector_field("vars: x y z\nparams:\neq: x\neq: y\neq: z")
    p = ex.Point((0.4, -0.2, 1.1), ())
    assert det.DeterminantSet(f).level(0, p).subrank(1e-8) == 2


def test_numeric_rank():
    assert det.numeric_rank(np.eye(3)) == 3
    assert det.numeric_rank(np.zeros((2, 2))) == 0
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert det.numeric_rank(A) == 1
    B = np.array([[1.0, 0.0], [0.0, 1e-12]])
    assert det.numeric_rank(B) == 1  # scaled threshold kills the tiny pivot


def test_numeric_rank_reveals_a_rank_that_row_pivoting_overstates():
    """Pivoting row by row takes 6.76e-4 as the first row's pivot and
    counts three rows; its third singular value is 6.0e-10, 1e-12 of the
    largest row norm, so at tol 1e-8 the rank is 2."""
    A = [(0, 0, 0, 0, 0, 6.76e-4), (0, 0, 0, 0, 598, 0),
         (0, 0, 0, 6.1e-5, 0, 69)] + [(0,) * 6] * 3
    sigma = np.linalg.svd(np.array(A, dtype=float), compute_uv=False)
    assert sigma[2] < 1e-8 * 598 < sigma[1]
    assert np.linalg.matrix_rank(np.array(A, dtype=float), tol=1e-8 * 598) == 2
    assert det.numeric_rank(A, 1e-8) == 2
    assert det.numeric_rank(A[::-1], 1e-8) == 2


# dyadic entries: exact in binary, and nonzero ones within a factor 64
DYADIC = st.integers(-64, 64).map(lambda k: k / 8)
EXPONENTS = st.integers(-30, 30)  # a power-of-two scale, exact too


def _matrix(draw, rows, cols, entries=DYADIC):
    return draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


@st.composite
def square_matrices(draw):
    """m x m, 1 <= m <= 6, of full or any lower rank: B @ C with B m x k and
    C k x m, or a matrix drawn whole, times 2^e."""
    m, scale = draw(st.integers(1, 6)), 2.0 ** draw(EXPONENTS)
    if draw(st.booleans()):
        return [[scale * v for v in row] for row in _matrix(draw, m, m)]
    k = draw(st.integers(0, m - 1))
    B = np.array(_matrix(draw, m, k)).reshape(m, k)
    C = np.array(_matrix(draw, k, m)).reshape(k, m)
    return (scale * (B @ C)).tolist()


@settings(max_examples=300, deadline=None)
@given(A=square_matrices())
def test_elimination_determinant_matches_lapack(A):
    value, scale = det._eliminate(A)[1], det.hadamard_bound(A)
    assert abs(value - np.linalg.det(np.array(A))) <= 1e-12 * scale
    assert abs(value) <= scale * (1 + 1e-12)


@st.composite
def rank_k_matrices(draw):
    """(A, k): A = 2^e B Q, B an m x j matrix of integers in -3..3 of rank
    k <= j <= m, Q j orthonormal rows.  A's nonzero singular values are
    B's, at least about 5e-4 of its largest row norm, and the others are
    rounding, so A is well separated from a 1e-8 threshold."""
    m, scale = draw(st.integers(1, 6)), 2.0 ** draw(EXPONENTS)
    j = draw(st.integers(0, m))
    B = np.array(_matrix(draw, m, j, st.integers(-3, 3)), dtype=float).reshape(m, j)
    Q = np.linalg.qr(np.array(_matrix(draw, m, m)))[0][:j]
    k = int(np.linalg.matrix_rank(B)) if j else 0
    return (scale * (B @ Q)).tolist(), k


@settings(max_examples=300, deadline=None)
@given(case=rank_k_matrices())
def test_elimination_rank_matches_lapack_when_well_separated(case):
    A, k = case
    tol = 1e-8
    scale = max(math.hypot(*row) for row in A)
    assert det.numeric_rank(A, tol) == k
    assert np.linalg.matrix_rank(np.array(A), tol=tol * scale) == k
    assert det.numeric_rank(A + [A[0]], tol) == k  # a copied row adds nothing


def test_eliminate_signs_and_zeros():
    def value(A):
        return det._eliminate(A)[1]
    # column pivots (1, 0, 2) are one transposition: the sign flips once
    assert value([[0.0, 2.0, 0.0], [3.0, 1.0, 0.0], [0.0, 0.0, 5.0]]) == -30.0
    assert value([[1.0, 2.0], [2.0, 4.0]]) == 0.0
    assert value([[0.0, 0.0], [1.0, 1.0]]) == 0.0
    assert math.isnan(value([[1.0, math.nan], [1.0, 1.0]]))
    assert value([]) == 1.0


def test_hadamard_bound_dominates_det():
    rng = random.Random(33)
    for _ in range(25):
        A = np.array([[rng.uniform(-3, 3) for _ in range(3)] for _ in range(3)])
        assert abs(np.linalg.det(A)) <= det.hadamard_bound(A) + 1e-12


# ---------------------------------------------------------------------------
# verdict scale invariance

def test_verdicts_survive_component_rescaling(rd_field):
    """Multiplying a component by a constant changes values, not verdicts."""
    scaled_text = """\
vars: u v
params: b d a g k1 k2
eq: -(k1*u + b + a*v + v^3)
eq: -7*(k2*v + d + g*u + u^3)
"""
    scaled = ex.parse_vector_field(scaled_text)
    D = det.DeterminantSet(rd_field)
    Ds = det.DeterminantSet(scaled)
    ref = RdReference(1.0, 1.0)
    pts = [ref.butterfly_point(+1),
           rd_catastrophe_point(ref, "fold", u=0.2, v=0.1, gamma=1.0),
           ex.Point((0.5, 0.5), (0.1, 0.2, 0.3, 0.4, 1.0, 1.0))]
    for p in pts:
        level, scaled_level = D.level(4, p), Ds.level(4, p)
        for i in range(1, 5):
            for K in det.index_strings(2, i - 1):
                v1, s1 = level.b(i, K)
                v2, s2 = scaled_level.b(i, K)
                assert det.is_zero(v1, s1) == det.is_zero(v2, s2), (i, K, p)
        for K in det.index_strings(2, 3):
            v1, s1 = level.g(K)
            v2, s2 = scaled_level.g(K)
            assert det.is_nonzero(v1, s1) == det.is_nonzero(v2, s2), (K, p)
