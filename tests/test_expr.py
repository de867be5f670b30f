"""Expression core: parsing, differentiation, evaluation, simplification."""

import collections
import math
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

import catafind.expr as ex


RD_TEXT = """\
vars: u v
params: a b g d k1 k2
eq: -(k1*u + b + a*v + v^3)
eq: -(k2*v + d + g*u + u^3)
"""


def rand_point(rng, n, r, span=2.0):
    return ex.Point(tuple(rng.uniform(-span, span) for _ in range(n)),
                    tuple(rng.uniform(-span, span) for _ in range(r)))


# ---------------------------------------------------------------------------
# parsing

def test_parse_reaction_diffusion_shape():
    f = ex.parse_vector_field(RD_TEXT)
    assert f.n == 2 and f.r == 6
    assert f.var_names == ("u", "v")
    assert f.param_names == ("a", "b", "g", "d", "k1", "k2")
    p = ex.Point((0.7, -0.3), (1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
    u, v = p.x
    a, b, g, d, k1, k2 = p.alpha
    assert ex.evaluate(f.components[0], p) == pytest.approx(
        -(k1 * u + b + a * v + v ** 3), rel=1e-14)
    assert ex.evaluate(f.components[1], p) == pytest.approx(
        -(k2 * v + d + g * u + u ** 3), rel=1e-14)


def test_parse_identity_field():
    f = ex.parse_vector_field("vars: x\nparams:\neq: x")
    assert f.n == 1 and f.r == 0
    assert ex.evaluate(f.components[0], ex.Point((3.5,), ())) == 3.5


def test_parse_comments_and_literals():
    f = ex.parse_vector_field(
        "# leading comment\nvars: x\nparams: a\n# another\neq: 2.5e-1*x - a/4\n")
    assert ex.evaluate(f.components[0], ex.Point((4.0,), (2.0,))) == pytest.approx(0.5)


@pytest.mark.parametrize("text", [
    "vars: x\nparams:\n",                       # no components
    "vars: x x\nparams:\neq: x",                # duplicate identifier
    "vars: x\nparams: x\neq: x",                # var/param collision
    "vars: x\nparams:\neq: y",                  # unknown identifier
    "vars: x\nparams:\neq: x +* 2",             # syntax error
    "eq: x\nvars: x\nparams:",                  # eq before declarations
    "vars: x\nparams:\neq: x^a",                # non-integer exponent
])
def test_parse_errors(text):
    with pytest.raises(ex.ParseError):
        ex.parse_vector_field(text)


def test_parse_error_carries_location():
    try:
        ex.parse_vector_field("vars: x\nparams:\neq: x + )")
    except ex.ParseError as err:
        assert err.line == 3
        assert err.col is not None
    else:
        pytest.fail("expected a ParseError")


def test_parenthesis_depth_is_bounded():
    limit = ex._MAX_PAREN_DEPTH
    inside = "(" * limit + "x" + ")" * limit
    assert ex.parse_vector_field(f"vars: x\nparams:\neq: {inside}").components[0] \
        is ex.var(0)
    with pytest.raises(ex.ParseError) as info:
        ex.parse_vector_field(f"vars: x\nparams:\neq: {'(' * 300}x{')' * 300}")
    # the error points at the first "(" past the limit
    assert info.value.line == 3 and info.value.col == len("eq: ") + limit + 1


def test_long_unary_minus_runs():
    f = ex.parse_vector_field(
        f"vars: x y\nparams:\neq: {'-' * 1200}x\neq: {'- ' * 1201}x^2")
    x = ex.var(0)
    assert f.components == (x, ex.neg(ex.pow_(x, 2)))


def test_roundtrip_print_parse():
    rng = random.Random(7)
    f = ex.parse_vector_field(RD_TEXT)
    f2 = ex.parse_vector_field(ex.format_vector_field(f))
    for _ in range(50):
        p = rand_point(rng, f.n, f.r)
        for c, c2 in zip(f.components, f2.components):
            assert ex.evaluate(c, p) == pytest.approx(ex.evaluate(c2, p), rel=1e-14)


# ---------------------------------------------------------------------------
# differentiation

def test_derivative_of_jacobian_entry():
    # d/dv of (a*v + v^3) is a + 3 v^2
    a, v = ex.par(0), ex.var(1)
    e = ex.add(ex.mul(a, v), ex.pow_(v, 3))
    de = ex.differentiate(e, v)
    rng = random.Random(1)
    for _ in range(20):
        p = rand_point(rng, 2, 1)
        assert ex.evaluate(de, p) == pytest.approx(
            p.alpha[0] + 3 * p.x[1] ** 2, rel=1e-14)


def test_derivative_of_constant_is_zero():
    assert ex.differentiate(ex.const(5.0), ex.var(0)) is ex.ZERO


def test_quartic_derivative_value():
    # d/dx1 of x1^4 + a2 x1^2 at (x1, a2) = (1, 2) is 4 + 4 = 8
    x1, a2 = ex.var(0), ex.par(1)
    e = ex.add(ex.pow_(x1, 4), ex.mul(a2, ex.pow_(x1, 2)))
    de = ex.differentiate(e, x1)
    p = ex.Point((1.0,), (0.0, 2.0))
    assert ex.evaluate(de, p) == pytest.approx(8.0, rel=1e-14)
    # against a central finite difference
    h = 1e-6
    fd = (ex.evaluate(e, ex.Point((1.0 + h,), p.alpha))
          - ex.evaluate(e, ex.Point((1.0 - h,), p.alpha))) / (2 * h)
    assert abs(fd - 8.0) <= 1e-6 * 8.0


def test_quotient_rule():
    x, y = ex.var(0), ex.var(1)
    e = ex.div(x, ex.add(ex.const(1.0), ex.pow_(y, 2)))
    dx = ex.differentiate(e, x)
    dy = ex.differentiate(e, y)
    rng = random.Random(3)
    for _ in range(20):
        p = rand_point(rng, 2, 0)
        xv, yv = p.x
        assert ex.evaluate(dx, p) == pytest.approx(1 / (1 + yv ** 2), rel=1e-13)
        assert ex.evaluate(dy, p) == pytest.approx(
            -2 * yv * xv / (1 + yv ** 2) ** 2, rel=1e-12, abs=1e-13)


def test_parameter_derivative():
    a = ex.par(0)
    e = ex.mul(a, ex.pow_(a, 2))  # a^3
    da = ex.differentiate(e, a)
    p = ex.Point((), (1.5,))
    assert ex.evaluate(da, p) == pytest.approx(3 * 1.5 ** 2, rel=1e-14)


def random_expression(rng, n_vars=2, n_params=2, depth=3):
    """Random smooth expression: polynomial operations plus quotients whose
    denominators are bounded away from zero by construction."""
    if depth == 0 or rng.random() < 0.3:
        kind = rng.randrange(3)
        if kind == 0:
            return ex.const(round(rng.uniform(-3, 3), 3))
        if kind == 1:
            return ex.var(rng.randrange(n_vars))
        return ex.par(rng.randrange(n_params))
    op = rng.randrange(5)
    a = random_expression(rng, n_vars, n_params, depth - 1)
    if op == 0:
        return ex.add(a, random_expression(rng, n_vars, n_params, depth - 1))
    if op == 1:
        return ex.mul(a, random_expression(rng, n_vars, n_params, depth - 1))
    if op == 2:
        return ex.pow_(a, rng.randrange(1, 4))
    if op == 3:
        return ex.neg(a)
    den = ex.add(ex.const(rng.uniform(1.5, 3.0)),
                 ex.pow_(random_expression(rng, n_vars, n_params, 1), 2))
    return ex.div(a, den)


def test_finite_difference_property():
    """evaluate(differentiate(e, v)) vs central differences, 1000 trials."""
    rng = random.Random(20240817)
    checked = 0
    trials = 0
    while checked < 1000 and trials < 4000:
        trials += 1
        e = random_expression(rng)
        wrt_var = rng.random() < 0.5
        idx = rng.randrange(2)
        wrt = ex.var(idx) if wrt_var else ex.par(idx)
        p = rand_point(rng, 2, 2, span=1.5)
        base = p.x[idx] if wrt_var else p.alpha[idx]
        h = 1e-6 * (abs(base) + 1.0)

        def at(t):
            if wrt_var:
                x = list(p.x)
                x[idx] = t
                return ex.Point(tuple(x), p.alpha)
            al = list(p.alpha)
            al[idx] = t
            return ex.Point(p.x, tuple(al))

        try:
            sym = ex.evaluate(ex.differentiate(e, wrt), p)
            hi = ex.evaluate(e, at(base + h))
            lo = ex.evaluate(e, at(base - h))
        except ex.EvaluationError:
            continue
        if max(abs(hi), abs(lo), abs(sym)) > 1e4:
            continue  # steep region: finite differences lose accuracy
        fd = (hi - lo) / (2 * h)
        assert abs(fd - sym) <= 1e-5 * (1.0 + abs(sym)), ex.to_str(e)
        checked += 1
    assert checked == 1000


# ---------------------------------------------------------------------------
# evaluation

def test_evaluate_product():
    e = ex.mul(ex.var(0), ex.var(1))
    assert ex.evaluate(e, ex.Point((2.0, 3.0), ())) == 6.0


def test_evaluate_division_by_zero():
    e = ex.div(ex.const(1.0), ex.var(0))
    with pytest.raises(ex.EvaluationError):
        ex.evaluate(e, ex.Point((0.0,), ()))


def test_evaluate_dimension_mismatch():
    with pytest.raises(ex.EvaluationError):
        ex.evaluate(ex.var(1), ex.Point((1.0,), ()))


def test_evaluate_parameter_count_mismatch():
    with pytest.raises(ex.EvaluationError):
        ex.evaluate(ex.par(1), ex.Point((1.0,), (5.0,)))


def test_evaluate_does_not_read_a_parameter_for_a_missing_variable():
    # var(1) must not fall through to the first parameter slot
    with pytest.raises(ex.EvaluationError):
        ex.evaluate(ex.var(1), ex.Point((1.0,), (5.0,)))


def test_evaluate_deep_expression():
    # a continued fraction nested 2,000 nodes deep; its value tends to
    # sqrt(2) - 1 from any start x >= 0
    e = ex.var(0)
    for _ in range(1000):
        e = ex.div(ex.ONE, ex.add(e, ex.const(2.0)))
    assert ex.evaluate(e, ex.Point((1.0,), ())) == pytest.approx(
        math.sqrt(2.0) - 1.0, rel=1e-15)


def test_deep_expression_walks():
    # the continued fraction above, 2,000 nodes deep, with a parameter leaf
    x, a = ex.var(0), ex.par(0)
    e = ex.add(x, a)
    for _ in range(1000):
        e = ex.div(ex.ONE, ex.add(e, ex.const(2.0)))
    assert ex.to_str(e) == "1/(" * 1000 + "x1 + a1" + " + 2)" * 1000
    p = ex.Point((0.5,), (0.25,))
    de = ex.differentiate(e, x)
    h = 1e-6
    fd = (ex.evaluate(e, ex.Point((0.5 + h,), (0.25,)))
          - ex.evaluate(e, ex.Point((0.5 - h,), (0.25,)))) / (2 * h)
    assert ex.evaluate(de, p) == pytest.approx(fd, rel=1e-6, abs=1e-12)
    assert ex.differentiate(e, a) is ex.differentiate(e, x)  # x, a enter as x + a


def test_postorder_visits_children_first_left_to_right_once():
    x, y = ex.var(0), ex.var(1)
    shared = ex.mul(x, y)
    e = ex.add(shared, ex.div(shared, ex.add(x, ex.ONE)))
    done: set = set()
    order = []
    for node in ex._postorder([e, shared], done):
        assert all(c in done for c in node.children)
        done.add(node)
        order.append(node)
    assert len(order) == len(set(order)) and order[-1] is e
    assert order[:3] == [x, y, shared]


def test_compile_evaluator_wide_sum_and_product():
    # one operator chain of 3,000 operands overflows CPython's compiler
    x = ex.var(0)
    shifts = [k * 1e-6 for k in range(1, 3001)]
    wide_sum = ex.add(*[ex.pow_(x, k) for k in range(1, 3001)])
    wide_prod = ex.mul(*[ex.add(x, ex.const(c)) for c in shifts])
    assert len(wide_sum.children) == len(wide_prod.children) == 3000
    total, product = ex.compile_evaluator([wide_sum, wide_prod], 1)([1.0])
    assert total == 3000.0
    assert product == pytest.approx(math.prod(1.0 + c for c in shifts), rel=1e-12)


def test_compile_evaluator_checks_variable_indices():
    with pytest.raises(ex.ExprError):
        ex.compile_evaluator([ex.add(ex.var(0), ex.var(2))], 2)


def test_compile_evaluator_of_no_expressions():
    assert ex.compile_evaluator([], 2)([1.0, 2.0]) == ()


def test_compile_evaluator_non_finite_constants():
    inf = ex.const(float("inf"))
    fn = ex.compile_evaluator([ex.add(ex.var(0), inf), ex.mul(ex.var(0), inf),
                               ex.add(inf, ex.neg(inf))], 1)
    plus, times, nan = fn([-2.0])
    assert plus == math.inf and times == -math.inf and math.isnan(nan)
    # the same constant arises from folding
    folded = ex.mul(ex.const(1e200), ex.const(1e200))
    assert ex.evaluate(folded, ex.Point((), ())) == math.inf


def test_non_finite_constants_print():
    assert repr(ex.const(float("inf"))) == "<expr inf>"
    assert ex.to_str(ex.const(float("-inf"))) == "-inf"
    assert ex.to_str(ex.add(ex.var(0), ex.const(float("nan")))) == "x1 + nan"


def test_compile_evaluator_matches_evaluate():
    rng = random.Random(11)
    exprs = [random_expression(rng) for _ in range(8)]
    fn = ex.compile_evaluator(exprs, 2)
    for _ in range(50):
        p = rand_point(rng, 2, 2, span=1.5)
        vals = list(p.x) + list(p.alpha)
        got = fn(vals)
        for e, g in zip(exprs, got):
            assert g == pytest.approx(ex.evaluate(e, p), rel=1e-13, abs=1e-13)


def _reference(e, vals, n_vars, memo):
    """The value of e by a plain walk in Python floats: each node's own
    operation on its children's values, operands left to right, and a
    negation as its own step.  Iterative, so any depth walks."""
    for node in ex._postorder((e,), memo):
        cs = [memo[c] for c in node.children]
        k = node.kind
        if k == ex.CONST:
            out = node.value
        elif k == ex.VAR:
            out = vals[node.index]
        elif k == ex.PAR:
            out = vals[n_vars + node.index]
        elif k in (ex.SUM, ex.PROD):
            out = cs[0]
            for c in cs[1:]:
                out = out + c if k == ex.SUM else out * c
        elif k == ex.NEG:
            out = -cs[0]
        elif k == ex.QUOT:
            out = cs[0] / cs[1]
        else:
            out = cs[0] ** node.exponent
        memo[node] = out
    return memo[e]


def _same_bits(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class _Counted(float):
    """A float whose +, -, *, / and ** count themselves in _Counted.ops, by
    kind, and return a _Counted, as its negation does, uncounted."""

    ops: collections.Counter = collections.Counter()

    def __neg__(self):
        return _Counted(-float(self))


for _kind, _name in (("sum", "add"), ("sum", "sub"), ("mul", "mul"),
                     ("div", "truediv"), ("pow", "pow")):
    for _swap in (False, True):
        def _op(self, other, kind=_kind, fn=getattr(operator, _name), swap=_swap):
            _Counted.ops[kind] += 1
            a, b = (other, float(self)) if swap else (float(self), other)
            return _Counted(fn(float(a), b))
        setattr(_Counted, f"__{'r' * _swap}{_name}__", _op)


def _op_counts(fn, vals):
    """The arithmetic that fn does on vals, counted by kind; operations on
    constants alone are not counted."""
    _Counted.ops = collections.Counter()
    fn([_Counted(t) for t in vals])
    return _Counted.ops


def _assert_bit_exact(exprs, n_vars, points):
    """fn's values are a plain walk's, bit for bit, and fn does the walk's
    arithmetic, each node's once; where the walk raises, fn raises too."""
    fn = ex.compile_evaluator(exprs, n_vars)

    def walk(vals):
        memo: dict = {}
        return [_reference(e, vals, n_vars, memo) for e in exprs]

    for vals in points:
        try:
            want = walk(vals)
        except ArithmeticError:  # division by zero, or a power overflowed
            with pytest.raises(ArithmeticError):
                fn(vals)
            continue
        assert all(map(_same_bits, fn(vals), want)), vals
        assert _op_counts(fn, vals) == _op_counts(walk, vals), vals


def _points(rng, size, count=200):
    """Random points, with +-0.0 and small integers mixed in."""
    special = (0.0, -0.0, 1.0, -1.0)
    return [[rng.choice(special) if rng.random() < 0.3 else rng.uniform(-2, 2)
             for _ in range(size)] for _ in range(count)]


def test_compile_evaluator_is_bit_exact_on_newton_and_g_systems():
    from catafind import make_primary_form, make_reaction_diffusion
    from catafind.determinants import DeterminantSet, index_strings
    from catafind.scenarios import PrimaryFormSpec
    rng = random.Random(5)
    rd = make_reaction_diffusion()
    D = DeterminantSet(rd)
    eqs = list(rd.components) + [D.build_B(i, (1,) * (i - 1)) for i in range(1, 5)]
    jac = [d for e in eqs for d in D.row(e, len(eqs))]  # NewtonSystem(D, eqs)'s rows
    _assert_bit_exact(eqs + jac, rd.n, _points(rng, rd.n + rd.r))
    _assert_bit_exact(eqs + jac, rd.n, [[0.0, -0.0] * 4, [-0.0] * 8])
    primary = make_primary_form(PrimaryFormSpec(3, 4))
    P = DeterminantSet(primary)
    # each G_{4,K}'s nodes, then their 7-wide rows, as the G matrices list them
    entries = [e for K in index_strings(3, 3)
               for node in [*primary.components,
                            *(P.build_B(i, K[:i - 1]) for i in range(1, 5))]
               for e in P.row(node, 7)]
    _assert_bit_exact(entries, 3, _points(rng, 3 + 4, 50))


def test_compile_evaluator_is_bit_exact_on_negations():
    x, y, z = ex.var(0), ex.var(1), ex.par(0)
    mostly_negated = ex.add(*[ex.neg(ex.pow_(x, k)) for k in range(1, 8)], y)
    wide = ex.add(*[ex.neg(ex.mul(ex.pow_(x, k), y)) if k % 3 else ex.pow_(y, k)
                    for k in range(1, 251)])
    shared = ex.neg(ex.mul(x, y))
    cases = [
        mostly_negated,
        ex.add(*[ex.neg(ex.pow_(y, k)) for k in range(1, 6)]),  # every term
        wide,
        ex.add(shared, z),  # a negation read by a sum and by a product,
        # built directly: mul() folds a negation into its coefficient
        ex._node(ex.PROD, children=(shared, ex.add(x, z))),
        ex.div(shared, ex.add(ex.pow_(z, 2), ex.const(1.0))),
        shared,  # a negation that is itself an output
        ex.neg(x),
        ex.add(ex.neg(x), ex.neg(y)),
    ]
    assert len(wide.children) == 250
    assert sum(c.kind == ex.NEG for c in mostly_negated.children) == 7
    points = _points(random.Random(6), 3)
    points += [[a, b, c] for a in (0.0, -0.0) for b in (0.0, -0.0) for c in (0.0, -0.0)]
    _assert_bit_exact(cases, 2, points)
    for e in cases:  # each on its own, so the negation's readers differ
        _assert_bit_exact([e], 2, points[:20])


def test_compile_evaluator_bounds_the_nesting_of_a_line():
    # Every node below has one reader, so each would be written inside the
    # next.  Built directly: the constructors would fold most of them.
    x, a = ex.var(0), ex.par(0)
    chain = ex._node(ex.SUM, children=(x, a))
    for k in range(1250):  # 5,000 nodes: y -> 3 - 2/y, which tends to 2
        chain = ex._node(ex.QUOT, children=(chain, ex.const(2.0)))
        chain = ex._node(ex.POW, children=(chain,), exponent=-1)
        chain = ex._node(ex.NEG, children=(chain,))
        chain = ex._node(ex.SUM, children=(chain, ex.const(3.0)))
    # 10,000 products, each read by the sum alone
    wide = ex.add(*[ex.mul(ex.const(k + 1.0), ex.pow_(x, k // 100 + 1),
                           ex.pow_(a, k % 100 + 1)) for k in range(10000)])
    # 60 levels of 100-operand chains, each level the first operand of the
    # next, so that one line's chains nest as deep as its parentheses
    nest = x
    for level in range(60):
        fresh = [ex._node(ex.SUM, children=(ex.ONE, ex._node(ex.QUOT, children=(
            ex.par(k % 3), ex.const(100.0 + k + level / 64))))) for k in range(99)]
        nest = ex._node(ex.PROD if level % 2 else ex.SUM, children=(nest, *fresh))
    assert len(wide.children) == 10000
    assert all(c.kind == ex.PROD for c in wide.children)
    points = _points(random.Random(7), 4, 3) + [[0.5, 0.25, -0.0, 1.0]]
    _assert_bit_exact([chain, wide, nest], 1, points)


# ---------------------------------------------------------------------------
# simplification by the constructors

def test_simplify_identities():
    x, y = ex.var(0), ex.var(1)
    e = ex.add(ex.mul(ex.const(0.0), x), ex.mul(ex.const(1.0), ex.add(y, ex.const(0.0))))
    assert e is y


def test_simplify_cancellation():
    x = ex.var(0)
    assert ex.add(x, ex.neg(x)) is ex.ZERO


def test_hash_consing_shares_structure():
    a = ex.add(ex.var(0), ex.pow_(ex.var(1), 2))
    b = ex.add(ex.pow_(ex.var(1), 2), ex.var(0))
    assert a is b  # canonical ordering makes both spellings one node


@st.composite
def expressions(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    return random_expression(rng)


@settings(max_examples=200, deadline=None)
@given(expressions(), st.integers(0, 2 ** 32 - 1))
def test_print_parse_roundtrip_property(e, pseed):
    rng = random.Random(pseed)
    p = rand_point(rng, 2, 2, span=1.5)
    env = {"x0": ex.var(0), "x1": ex.var(1), "p0": ex.par(0), "p1": ex.par(1)}
    text = ex.to_str(e, var_names=("x0", "x1"), param_names=("p0", "p1"))
    e2 = ex.parse_expression(text, env)
    try:
        v = ex.evaluate(e, p)
    except ex.EvaluationError:
        return
    assert ex.evaluate(e2, p) == pytest.approx(v, rel=1e-12, abs=1e-12)


@st.composite
def output_lists(draw):
    """Outputs over three random expressions a, b, c that share the subtree
    a*b, hold it twice and beside outputs that read it; a prefix drawn from
    the same pool adds more repeats, and single readers that are inlined."""
    a, b, c = draw(expressions()), draw(expressions()), draw(expressions())
    # built directly, since mul() and neg() would flatten and fold them
    ab = ex._node(ex.PROD, children=(a, b))
    minus_ab = ex._node(ex.NEG, children=(ab,))
    exponent = draw(st.sampled_from((-3, -1, 2, 3)))
    pool = [a, b, c, ab, minus_ab,
            ex._node(ex.SUM, children=(c, minus_ab)),
            ex._node(ex.QUOT, children=(ab, c)),
            ex._node(ex.POW, children=(minus_ab,), exponent=exponent),
            ex._node(ex.PROD, children=(minus_ab, a))]
    prefix = draw(st.lists(st.sampled_from(pool), max_size=6))
    # b/c is read through one negation only, which two nodes read
    minus_bc = ex._node(ex.NEG, children=(ex._node(ex.QUOT, children=(b, c)),))
    return prefix + [ab, ex._node(ex.SUM, children=(ab, c)), ab,
                     ex._node(ex.SUM, children=(a, minus_bc)),
                     ex._node(ex.PROD, children=(minus_bc, c))]


@settings(max_examples=200, deadline=None)
@given(output_lists(), st.integers(0, 2 ** 32 - 1))
def test_compile_evaluator_is_bit_exact_property(exprs, pseed):
    points = _points(random.Random(pseed), 4, 20)
    _assert_bit_exact(exprs, 2, points + [[0.0, -0.0, -0.0, 0.0], [-0.0] * 4])
