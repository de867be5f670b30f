"""Minor counting, the stages of the extension chain, and singularity
symbols."""

import random

import pytest

import catafind.boardman as bo
import catafind.expr as ex
import catafind.determinants as det
from catafind.boardman import (CapExceededError, bg_condition_count,
                               boardman_symbol, minor_count)
from catafind.scenarios import (PrimaryFormSpec, make_primary_form,
                                make_reaction_diffusion)

from rd_reference import RdReference, rd_catastrophe_point


TABLE_TOP = {
    1: (2, 4, 8, 16, 32),
    2: (3, 6, 21, 231, 26796),
    3: (4, 8, 64, 41728, None),
    4: (5, 10, 220, 94967015, None),
}


def test_table_top_exact():
    for n, row in TABLE_TOP.items():
        for r, expected in enumerate(row, start=1):
            if expected is None:
                continue
            assert minor_count(n, (1,) * r).table_total == expected, (n, r)


def test_table_top_rounded_entries():
    # the two entries the table prints in rounded scientific form
    t35 = minor_count(3, (1,) * 5).table_total
    assert t35 == 12108775752704
    assert round(t35 / 10 ** 12) == 12
    t45 = minor_count(4, (1,) * 5).table_total
    assert round(t45 / 10 ** 30) == 3


def independent_count(n, corank_seq):
    """Same recurrence written directly with factorials, as an oracle."""
    def comb(a, b):
        if not 0 <= b <= a:
            return 0
        num, den = 1, 1
        for t in range(1, b + 1):
            num *= a - b + t
            den *= t
        return num // den
    cum, total = n, 0
    for i in corank_seq:
        s = n - i + 1
        nj = comb(n, s) * comb(cum, s)
        cum += nj
        total += nj
    return n + total


def test_recurrence_against_factorial_oracle():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 4)
        seq = tuple(sorted((rng.randint(1, n) for _ in range(rng.randint(1, 4))),
                           reverse=True))
        assert minor_count(n, seq).table_total == independent_count(n, seq)


def test_minor_count_fields():
    mc = minor_count(2, (1, 1, 1))
    assert mc.stage_counts == (1, 3, 15)
    assert mc.cumulative == (2, 3, 6, 21)
    assert mc.appendix_total == 19
    assert mc.table_total == 21


def test_minor_count_validation():
    with pytest.raises(ValueError):
        minor_count(0, (1,))
    with pytest.raises(ValueError):
        minor_count(2, (3,))
    with pytest.raises(ValueError):
        minor_count(2, (0,))


def test_bg_condition_count_table_bottom():
    for n in range(1, 5):
        for r in range(1, 6):
            assert bg_condition_count(n, r) == n + r
    with pytest.raises(ValueError):
        bg_condition_count(0, 1)


# ---------------------------------------------------------------------------
# chain stages, built as boardman_symbol builds them

def primary(n, r):
    return make_primary_form(PrimaryFormSpec(n, r))


def origin(r):
    """The primary form's codimension-r point: x = 0 at alpha = 0."""
    return ex.Point((0.0, 0.0), (0.0,) * r)


def chain_stages(field, corank_seq):
    """Stages 0..len(corank_seq) of the field's chain: stage j appends every
    (n - i_j + 1)-size minor of the state gradient of stage j-1, through
    the _stage_minors call that boardman_symbol makes for each stage."""
    D = det.DeterminantSet(field)
    stages = [tuple(field.components)]
    for i in corank_seq:
        stages.append(stages[-1] + tuple(
            bo._stage_minors(stages[-1], D, field.n - i + 1)))
    return stages


def assert_stage_sizes(field, seq, sizes):
    """The stage sizes are the counting recurrence's cumulative row counts."""
    got = tuple(map(len, chain_stages(field, seq)))
    assert got == minor_count(field.n, seq).cumulative == sizes


def test_chain_stage_sizes_match_prediction():
    # the declared field, parameters kept: stages differentiate in x only
    assert_stage_sizes(primary(2, 3), (1, 1, 1), (2, 3, 6, 21))


@pytest.mark.parametrize("make,seq,sizes", [
    (lambda: primary(3, 3), (2, 1), (3, 12, 232)),
    (make_reaction_diffusion, (2, 1), (2, 6, 21)),
], ids=["primary-3-3", "rd"])
def test_chain_stage_sizes_past_corank_1(make, seq, sizes):
    assert_stage_sizes(make(), seq, sizes)


def test_chain_first_stage_is_jacobian_determinant():
    f = primary(2, 1)
    appended = chain_stages(f, (1,))[1][-1]
    direct = det.sym_det(det.DeterminantSet(f).b_matrix(1))
    rng = random.Random(8)
    for _ in range(20):
        p = ex.Point((rng.uniform(-1, 1), rng.uniform(-1, 1)),
                     (rng.uniform(-1, 1),))
        assert ex.evaluate(appended, p) == pytest.approx(
            ex.evaluate(direct, p), rel=1e-12, abs=1e-12)


def test_chain_cusp_minors_match_level_determinants():
    """The three new stage-2 minors of the cusp chain agree, as a set of
    absolute values, with the level-2 determinant family and the Jacobian
    determinant, and all vanish at the cusp point."""
    full = primary(2, 2)
    stages = chain_stages(full, (1, 1))
    new_minors = stages[2][len(stages[1]):]
    assert len(new_minors) == 3

    D = det.DeterminantSet(full)
    dets = [D.build_B(1), D.build_B(2, (1,)), D.build_B(2, (2,))]
    rng = random.Random(14)
    for _ in range(20):
        p = ex.Point((rng.uniform(-1, 1), rng.uniform(-1, 1)),
                     (rng.uniform(-1, 1), rng.uniform(-1, 1)))
        got = sorted(abs(ex.evaluate(m, p)) for m in new_minors)
        expect = sorted(abs(ex.evaluate(e, p)) for e in dets)
        for g, e in zip(got, expect):
            assert g == pytest.approx(e, rel=1e-11, abs=1e-11)

    for m in new_minors:
        assert abs(ex.evaluate(m, origin(2))) <= 1e-12


def test_chain_cap():
    """The cap refuses the chain's fourth stage (231 rows for corank 1
    throughout) before building it, and reports the predicted size."""
    assert minor_count(2, (1, 1, 1, 1)).cumulative[-1] == 231
    with pytest.raises(CapExceededError) as err:
        boardman_symbol(primary(2, 4), origin(4), max_depth=5, cap=100)
    assert err.value.predicted == 231
    assert err.value.cap == 100


# ---------------------------------------------------------------------------
# symbols

def test_symbol_identity_field():
    f = ex.parse_vector_field("vars: x y\nparams:\neq: x\neq: y")
    assert boardman_symbol(f, ex.Point((0.4, -0.7), ())) == ()


@pytest.mark.parametrize("r", [1, 2, 3])
def test_symbol_of_primary_form_catastrophes(r):
    assert boardman_symbol(primary(2, r), origin(r)) == (1,) * r


def test_symbol_away_from_catastrophe():
    # f' = 4 x1^3 is nonzero here, so only the zero-set membership survives
    assert boardman_symbol(primary(2, 3), ex.Point((0.9, 0.0), (0.0,) * 3)) == ()


def test_symbol_at_fold_of_reaction_diffusion(rd_field, rd_dets):
    ref = RdReference(1.0, 1.0)
    p = rd_catastrophe_point(ref, "fold", u=0.2, v=0.1, gamma=1.0)
    # sanity: a genuine fold, not a cusp, at this sample
    v2, s2 = rd_dets.level(2, p).b(2, (1,))
    assert abs(v2) > 1e-6 * s2
    assert boardman_symbol(rd_field, p) == (1,)


def test_symbol_cap():
    # the fifth corank reads the 231-row stage, above the cap
    with pytest.raises(CapExceededError):
        boardman_symbol(primary(2, 4), origin(4), max_depth=5, cap=100)


def test_symbol_builds_no_stage_after_the_last_corank(monkeypatch):
    """At max_depth 4 the symbol reads stages 0..3 (21 rows) and the cap
    applies to them alone; no minor of the unread 231-row stage is built."""
    calls = []
    sym_det = det.sym_det

    def counting_sym_det(M):
        calls.append(len(M))
        return sym_det(M)

    monkeypatch.setattr(det, "sym_det", counting_sym_det)
    assert boardman_symbol(primary(2, 4), origin(4), max_depth=4,
                           cap=100) == (1, 1, 1, 1)
    assert len(calls) == 1 + 3 + 15


@pytest.mark.parametrize("x,alpha", [((0.0, 0.0), ()), ((0.0, 0.0), (0.0,) * 5),
                                     ((0.0,), (0.0,) * 6), ((0.0,) * 3, (0.0,) * 6)],
                         ids=["no-parameters", "five-parameters", "one-state", "three-states"])
def test_symbol_rejects_a_point_of_the_wrong_size(rd_field, x, alpha):
    with pytest.raises(ValueError, match="the point needs 2 states and 6 parameters"):
        boardman_symbol(rd_field, ex.Point(x, alpha))


# ---------------------------------------------------------------------------
# corank-1 equivalence at desk scale

@pytest.mark.parametrize("r", [1, 2, 3])
def test_symbol_matches_level_determinant_verdict(r):
    """Symbol (1,)*r at a point iff the first r level determinants vanish
    and the (r+1)-st does not, sampled over catastrophe and generic points."""
    full = primary(2, r)
    D = det.DeterminantSet(full)
    rng = random.Random(100 + r)
    # x1 = 0 is the codim-r point of f = x1^(r+1); generic x1 are regular
    samples = [0.0] + [rng.uniform(0.3, 1.0) for _ in range(5)]
    for x1 in samples:
        p = ex.Point((x1, 0.0), (0.0,) * r)
        symbol = boardman_symbol(full, p, max_depth=r + 1)
        zeros = []
        level = D.level(r + 1, p)
        for i in range(1, r + 2):
            value, scale = level.b(i, (1,) * (i - 1))
            zeros.append(abs(value) <= 1e-8 * scale)
        determinant_verdict = all(zeros[:r]) and not zeros[r]
        assert (symbol == (1,) * r) == determinant_verdict, (r, x1, symbol)
        if x1 == 0.0:
            assert symbol == (1,) * r and determinant_verdict
