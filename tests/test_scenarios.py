"""Built-in fields and their closed-form reference parameterizations."""

import math
import random

import pytest

import catafind.expr as ex
import catafind.determinants as det
from catafind.scenarios import DomainError, PrimaryFormSpec, make_primary_form

from rd_reference import RD_KINDS, RdReference, rd_catastrophe_point


# ---------------------------------------------------------------------------
# primary form

def test_primary_form_minimal():
    f = make_primary_form(PrimaryFormSpec(1, 1))
    # single component x1^2 + a1
    p = ex.Point((0.7,), (0.3,))
    assert ex.evaluate(f.components[0], p) == pytest.approx(0.7 ** 2 + 0.3)


def test_primary_form_cusp_components():
    f = make_primary_form(PrimaryFormSpec(2, 2))
    rng = random.Random(2)
    for _ in range(20):
        x1, x2 = rng.uniform(-2, 2), rng.uniform(-2, 2)
        a1, a2 = rng.uniform(-2, 2), rng.uniform(-2, 2)
        p = ex.Point((x1, x2), (a1, a2))
        assert ex.evaluate(f.components[0], p) == pytest.approx(
            x1 ** 3 + a2 * x1 + a1 + x2, rel=1e-13, abs=1e-13)
        assert ex.evaluate(f.components[1], p) == pytest.approx(x2)


def test_primary_form_jacobian_structure():
    f = make_primary_form(PrimaryFormSpec(3, 1, lambdas=(2.0, 3.0),
                                          taus=(1.0, -1.0)))
    J = det.DeterminantSet(f).b_matrix(1)
    p = ex.Point((0.5, 0.1, -0.3), (0.2,))
    assert ex.evaluate(J[0][1], p) == pytest.approx(1.0)
    assert ex.evaluate(J[0][2], p) == pytest.approx(-1.0)
    assert ex.evaluate(J[1][1], p) == pytest.approx(2.0)
    assert ex.evaluate(J[2][2], p) == pytest.approx(3.0)
    assert ex.evaluate(J[1][0], p) == 0.0
    assert ex.evaluate(J[2][1], p) == 0.0


@pytest.mark.parametrize("kwargs", [
    dict(n=0, r=1),
    dict(n=2, r=0),
    dict(n=2, r=1, lambdas=(0.0,)),
    dict(n=2, r=1, taus=(0.0,)),
    dict(n=3, r=1, lambdas=(1.0,)),  # wrong arity
    dict(n=2, r=1, lambdas=(math.nan,)),
    dict(n=2, r=1, taus=(math.inf,)),
    dict(n=3, r=2, lambdas=(1.0, -math.inf), taus=(2.0, 3.0)),
])
def test_primary_form_validation(kwargs):
    with pytest.raises(DomainError):
        PrimaryFormSpec(**kwargs)


def poly_derivative(x1, alpha, r, order):
    """Direct evaluator of f^(order) for f = x1^(r+1) + sum alpha_i x1^(i-1)."""
    total = math.prod(range(r + 2 - order, r + 2)) * x1 ** (r + 1 - order)
    for i in range(1, r + 1):
        k = i - 1  # power of the alpha_i term
        if k >= order:
            total += alpha[i - 1] * math.prod(range(k - order + 1, k + 1)) \
                * x1 ** (k - order)
    return total


def test_primary_form_level_determinant_identity():
    """B_r collapses to (prod lambda)^r f^(r)(x1) for the primary form."""
    rng = random.Random(77)
    for n in range(1, 5):
        for r in range(1, 5):
            lams = tuple(rng.choice([-1, 1]) * rng.uniform(0.5, 2.0)
                         for _ in range(n - 1))
            taus = tuple(rng.choice([-1, 1]) * rng.uniform(0.5, 2.0)
                         for _ in range(n - 1))
            f = make_primary_form(PrimaryFormSpec(n, r, lams, taus))
            D = det.DeterminantSet(f)
            Br = D.build_B(r, (1,) * (r - 1))
            scale = math.prod(lams) ** r if lams else 1.0
            for _ in range(5):
                p = ex.Point(tuple(rng.uniform(-1.5, 1.5) for _ in range(n)),
                             tuple(rng.uniform(-1.5, 1.5) for _ in range(r)))
                expect = scale * poly_derivative(p.x[0], p.alpha, r, r)
                got = ex.evaluate(Br, p)
                assert abs(got - expect) <= 1e-9 * (1.0 + abs(expect)), (n, r)


# ---------------------------------------------------------------------------
# reaction-diffusion parameterizations

def test_rd_declared_parameter_order(rd_field):
    assert rd_field.param_names == ("b", "d", "a", "g", "k1", "k2")


def test_rd_fold_point_example():
    ref = RdReference(1.0, 1.0)
    p = rd_catastrophe_point(ref, "fold", u=0.0, v=0.0, gamma=1.0)
    beta, delta, alpha, gamma = p.alpha[:4]
    assert (beta, delta) == (0.0, 0.0)
    assert alpha == pytest.approx(1.0)
    assert gamma == pytest.approx(1.0)
    # B1 = k1 k2 - (alpha + 3v^2)(gamma + 3u^2) = 1 - 1 = 0
    a = alpha + 3 * p.x[1] ** 2
    c = gamma + 3 * p.x[0] ** 2
    assert 1.0 * 1.0 - a * c == pytest.approx(0.0, abs=1e-14)


def test_rd_butterfly_unit_constants():
    ref = RdReference(1.0, 1.0)
    p = ref.butterfly_point(+1)
    third, s = 1.0 / 3.0, 16.0 / 27.0
    assert p.x == pytest.approx((third, third))
    assert p.alpha == pytest.approx((-s, -s, 2.0 / 3.0, 2.0 / 3.0, 1.0, 1.0))
    m = ref.butterfly_point(-1)
    assert m.x == pytest.approx((-third, -third))
    assert m.alpha == pytest.approx((s, s, 2.0 / 3.0, 2.0 / 3.0, 1.0, 1.0))


def test_rd_butterfly_general_constants():
    k1, k2 = 1.3, 0.7
    ref = RdReference(k1, k2)
    p = ref.butterfly_point(+1)
    assert p.x[0] == pytest.approx((k1 * k2 ** 3) ** 0.125 / 3.0)
    assert p.x[1] == pytest.approx((k1 ** 3 * k2) ** 0.125 / 3.0)
    assert p.alpha[2] == pytest.approx(2.0 / 3.0 * (k1 ** 3 * k2) ** 0.25)
    assert p.alpha[3] == pytest.approx(2.0 / 3.0 * (k1 * k2 ** 3) ** 0.25)
    assert p.alpha[0] == pytest.approx(-16.0 / 27.0 * (k1 ** 3 * k2) ** 0.375)
    assert p.alpha[1] == pytest.approx(-16.0 / 27.0 * (k1 * k2 ** 3) ** 0.375)


def random_rd_point(rng, ref, kind):
    if kind == "fold":
        return rd_catastrophe_point(ref, "fold",
                                    u=rng.uniform(-1, 1), v=rng.uniform(-1, 1),
                                    gamma=rng.uniform(0.2, 2.0))
    if kind == "cusp":
        u = rng.choice([-1, 1]) * rng.uniform(0.05, 1.0)
        v = u * rng.uniform(0.1, 3.0)
        return rd_catastrophe_point(ref, "cusp", u=u, v=v)
    if kind == "swallowtail":
        return rd_catastrophe_point(ref, "swallowtail",
                                    p=rng.uniform(0.2, 3.0),
                                    branch=rng.choice([+1, -1]))
    return rd_catastrophe_point(ref, "butterfly", branch=rng.choice([+1, -1]))


@pytest.mark.parametrize("kind", RD_KINDS)
def test_parameterized_sets_annihilate_level_determinants(kind, rd_dets):
    m = RD_KINDS.index(kind) + 1
    rng = random.Random(hash(kind) & 0xFFFF)
    for _ in range(60):
        ref = RdReference(rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0))
        level = rd_dets.level(m, random_rd_point(rng, ref, kind))
        for i in range(1, m + 1):
            value, scale = level.b(i, (1,) * (i - 1))
            assert abs(value) <= 1e-9 * scale, (kind, i, value, scale)


def test_fold_points_generically_not_cusps(rd_dets):
    ref = RdReference(1.0, 1.0)
    p = rd_catastrophe_point(ref, "fold", u=0.2, v=0.1, gamma=1.0)
    v2, s2 = rd_dets.level(2, p).b(2, (1,))
    assert abs(v2) > 1e-6 * s2


def test_swallowtail_pq_consistency():
    rng = random.Random(55)
    for _ in range(100):
        ref = RdReference(rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0))
        pval = rng.uniform(0.1, 4.0)
        q = ref.q_swallowtail(pval)
        for branch in (+1, -1):
            u, v = ref.uv_from_pq(pval, q, branch)
            assert v / u == pytest.approx(pval, rel=1e-12)
            assert u * v == pytest.approx(q, rel=1e-12)


@pytest.mark.parametrize("call", [
    lambda ref: rd_catastrophe_point(ref, "cusp", u=1.0, v=-1.0),
    lambda ref: rd_catastrophe_point(ref, "cusp", u=1.0, v=0.0),
    lambda ref: rd_catastrophe_point(ref, "swallowtail", p=-0.5),
    lambda ref: rd_catastrophe_point(ref, "fold", u=0.0, v=0.0, gamma=0.0),
    lambda ref: rd_catastrophe_point(ref, "vertex"),
])
def test_domain_guards(call):
    ref = RdReference(1.0, 1.0)
    with pytest.raises(DomainError):
        call(ref)


def test_nonpositive_diffusion_rejected():
    with pytest.raises(DomainError):
        RdReference(0.0, 1.0)
    with pytest.raises(DomainError):
        RdReference(1.0, -2.0)


@pytest.mark.parametrize("k1, k2", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                                    (1.0, -math.inf)])
def test_non_finite_diffusion_rejected(k1, k2):
    with pytest.raises(DomainError, match="finite"):
        RdReference(k1, k2)


# ---------------------------------------------------------------------------
# extended-determinant structure at the butterfly

def g_closed_form(i, j, k, k1, k2):
    return (103680.0 * (-1.0) ** (i + k) * (k1 * k2) ** 4
            * (k1 / k2) ** (0.75 * (k + 2 * j + 3 * i - 9)))


def test_g_values_at_butterfly(rd_field):
    """The eight codimension-4 extended determinants at the butterfly follow
    the closed form, with unfolding order (a, b, g, d)."""
    D = det.DeterminantSet(rd_field, param_order=(2, 0, 3, 1))
    k1, k2 = 1.0, 2.0
    level = D.level(4, RdReference(k1, k2).butterfly_point(+1))
    for K in det.index_strings(2, 3):
        i, j, k = K
        value, _scale = level.g(K)
        expect = g_closed_form(i, j, k, k1, k2)
        assert value == pytest.approx(expect, rel=1e-6), K


def test_g_magnitudes_order_independent(rd_field):
    """Reordering the unfolding parameters flips at most the sign of each
    extended determinant, so the fullness verdict is unchanged."""
    D_decl = det.DeterminantSet(rd_field)                       # (b, d, a, g)
    D_paper = det.DeterminantSet(rd_field, param_order=(2, 0, 3, 1))
    p = RdReference(1.0, 2.0).butterfly_point(+1)
    decl, paper = D_decl.level(4, p), D_paper.level(4, p)
    for K in det.index_strings(2, 3):
        v1, s1 = decl.g(K)
        v2, s2 = paper.g(K)
        assert abs(v1) == pytest.approx(abs(v2), rel=1e-9)
        assert det.is_nonzero(v1, s1) and det.is_nonzero(v2, s2)
