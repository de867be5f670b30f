"""Acceptance gate: one test per headline claim, at the stated tolerances.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  The whole module is designed to finish in well under five
minutes on a laptop.
"""

import json
import random

import pytest

import catafind.expr as ex
import catafind.determinants as det
from catafind.boardman import bg_condition_count, boardman_symbol, minor_count
from catafind.cli import main as cli_main
from catafind.scenarios import (PrimaryFormSpec, make_primary_form,
                                make_reaction_diffusion)
from catafind.solver import (SolveOptions, count_steady_states,
                             find_catastrophes)

from rd_reference import RD_KINDS, RdReference
from test_boardman import TABLE_TOP
from test_expr import random_expression
from test_scenarios import g_closed_form, poly_derivative, random_rd_point


RD_BOX_UNIT = [(-1.2, 1.2)] * 4 + [(0.0, 1.2)] * 2


def test_criterion_01_minor_count_tables():
    """Table of minor counts reproduced exactly; determinant table is n+r."""
    for n, row in TABLE_TOP.items():
        for r, expected in enumerate(row, start=1):
            if expected is not None:
                assert minor_count(n, (1,) * r).table_total == expected, (n, r)
    t35 = minor_count(3, (1,) * 5).table_total
    assert round(t35 / 10 ** 12) == 12 and 10 ** 13 <= t35 < 1.3 * 10 ** 13
    for n in range(1, 5):
        for r in range(1, 6):
            assert bg_condition_count(n, r) == n + r


def test_criterion_02_butterfly_benchmark():
    """find at codim 4 recovers both closed-form butterfly points."""
    field = make_reaction_diffusion()
    # unit diffusion constants: the constants are simple rationals
    reports = find_catastrophes(field, 4, RD_BOX_UNIT,
                                fixed={"k1": 1.0, "k2": 1.0})
    assert len(reports) == 2
    third, s = 1.0 / 3.0, 16.0 / 27.0
    for rep, sign in zip(reports, (-1.0, +1.0)):
        assert rep.residual <= 1e-10 and rep.full
        assert rep.point.x == pytest.approx((sign * third, sign * third),
                                            abs=1e-10)
        assert rep.point.alpha[:4] == pytest.approx(
            (-sign * s, -sign * s, 2.0 / 3.0, 2.0 / 3.0), abs=1e-10)
    # unequal diffusion constants: compare against the general closed form
    k1, k2 = 1.0, 2.0
    box = [(-1.5, 1.5)] * 4 + [(0.0, 1.5)] * 2
    reports = find_catastrophes(field, 4, box, fixed={"k1": k1, "k2": k2})
    full = [rep for rep in reports if rep.full]
    assert len(full) == 2
    ref = RdReference(k1, k2)
    for rep in full:
        branch = +1 if rep.point.x[0] > 0 else -1
        target = ref.butterfly_point(branch)
        for got, want in zip(rep.point.vals(), target.vals()):
            assert abs(got - want) <= 1e-8 * (1.0 + abs(want))


def test_criterion_03_extended_determinant_formula():
    """All 8 codim-4 extended determinants match the closed form at the
    unequal-diffusion butterfly, with unfolding order (a, b, g, d)."""
    field = make_reaction_diffusion()
    D = det.DeterminantSet(field, param_order=(2, 0, 3, 1))
    k1, k2 = 1.0, 2.0
    level = D.level(4, RdReference(k1, k2).butterfly_point(+1))
    for K in det.index_strings(2, 3):
        value, _scale = level.g(K)
        expect = g_closed_form(*K, k1, k2)
        assert abs(value - expect) <= 1e-6 * abs(expect), K


def test_criterion_04_level_determinant_closed_forms():
    """B1..B4 agree with the printed closed forms at 1000 random points."""
    field = make_reaction_diffusion()
    D = det.DeterminantSet(field)
    exprs = [D.build_B(i, (1,) * (i - 1)) for i in range(1, 5)]
    fn = ex.compile_evaluator(exprs, 2)
    rng = random.Random(20240823)
    for _ in range(1000):
        u, v = rng.uniform(-2, 2), rng.uniform(-2, 2)
        b, d = rng.uniform(-2, 2), rng.uniform(-2, 2)
        a_, g = rng.uniform(-2, 2), rng.uniform(-2, 2)
        k1, k2 = rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)
        a = a_ + 3 * v ** 2
        c = g + 3 * u ** 2
        closed = (
            k1 * k2 - a * c,
            6 * (k2 * u * a - v * c ** 2),
            6 * (18 * k2 * u * v * c - k2 ** 2 * a - c ** 3),
            72 * k2 * (3 * u * c ** 2 - 2 * k2 * v * c - 9 * k2 * u ** 2 * v),
        )
        got = fn([u, v, b, d, a_, g, k1, k2])
        for gv, cv in zip(got, closed):
            assert abs(gv - cv) <= 1e-10 * (1.0 + abs(cv))


def test_criterion_05_primary_form_identity():
    """B_r / (lambda_2 ... lambda_n)^r equals f^(r)(x1), all n,r <= 4."""
    rng = random.Random(5150)
    for n in range(1, 5):
        for r in range(1, 5):
            for _ in range(10):
                lams = tuple(rng.choice([-1, 1]) * rng.uniform(0.5, 2.0)
                             for _ in range(n - 1))
                taus = tuple(rng.choice([-1, 1]) * rng.uniform(0.5, 2.0)
                             for _ in range(n - 1))
                f = make_primary_form(PrimaryFormSpec(n, r, lams, taus))
                Br = det.DeterminantSet(f).build_B(r, (1,) * (r - 1))
                scale = 1.0
                for lam in lams:
                    scale *= lam ** r
                p = ex.Point(tuple(rng.uniform(-1.5, 1.5) for _ in range(n)),
                             tuple(rng.uniform(-1.5, 1.5) for _ in range(r)))
                expect = poly_derivative(p.x[0], p.alpha, r, r)
                got = ex.evaluate(Br, p) / scale
                assert abs(got - expect) <= 1e-9 * (1.0 + abs(expect)), (n, r)


def test_criterion_06_parameterization_oracle():
    """200 random points per closed-form set annihilate B1..Bm (scaled)."""
    D = det.DeterminantSet(make_reaction_diffusion())
    for kind in RD_KINDS:
        m = RD_KINDS.index(kind) + 1
        rng = random.Random(60 + m)
        for _ in range(200):
            ref = RdReference(rng.uniform(0.3, 2.0), rng.uniform(0.3, 2.0))
            level = D.level(m, random_rd_point(rng, ref, kind))
            for i in range(1, m + 1):
                value, scale = level.b(i, (1,) * (i - 1))
                assert abs(value) <= 1e-9 * scale, (kind, i)


def test_criterion_07_symbol_equivalence_desk_scale():
    """For the n=2 primary forms of codim 1..3, the explicit-chain symbol is
    (1,)*r at the catastrophe point, and the symbol-length verdict coincides
    with the level-determinant verdict at every sampled point."""
    for r in (1, 2, 3):
        full = make_primary_form(PrimaryFormSpec(2, r))
        D = det.DeterminantSet(full)
        for x1 in (0.0, -0.8, 0.5, 1.1):
            p = ex.Point((x1, 0.0), (0.0,) * r)
            symbol = boardman_symbol(full, p, max_depth=r + 1)
            level = D.level(r + 1, p)
            zeros = [abs(v) <= 1e-8 * s for v, s in
                     (level.b(i, (1,) * (i - 1)) for i in range(1, r + 2))]
            verdict = all(zeros[:r]) and not zeros[r]
            assert (symbol == (1,) * r) == verdict, (r, x1)
            if x1 == 0.0:
                assert symbol == (1,) * r


def test_criterion_08_corank_counterexample(capsys, tmp_path):
    """Degenerate-subrank family: refused at k=0, a valid fold at k!=0."""
    path = tmp_path / "family0.field"
    path.write_text("vars: x y\nparams: a1 a2\n"
                    "eq: x + y^2\neq: x^2 + a1*x + a2 + y^2\n")
    rc = cli_main(["check", str(path), "--codim", "2", "--at", "x=0"])
    out = capsys.readouterr().out
    assert rc == 0
    rep = json.loads(out)["reports"][0]
    by_key = {(e["level"], tuple(e["index"])): e for e in rep["b_values"]}
    assert by_key[(1, ())]["zero"] and by_key[(2, (1,))]["zero"]
    assert not by_key[(2, (2,))]["zero"]
    assert rep["subrank"] == 0
    assert "not a valid underlying catastrophe" in rep["verdict"]

    fam = ex.parse_vector_field("vars: x y\nparams: a1 a2\n"
                                "eq: x + y^2\n"
                                "eq: x^2 + a1*x + a2 + y^2 + 0.5*x\n")
    reports = find_catastrophes(fam, 1, [(-0.8, 0.8)] * 3,
                                SolveOptions(seed_count=96),
                                param_order=(1,))  # unfold in the offset
    assert any(rep.full and rep.subrank_ok and rep.label == "fold"
               for rep in reports)


def test_criterion_09_steady_state_census():
    """Nine decoupled states in the cubic regime; attracting origin."""
    field = make_reaction_diffusion()
    census = count_steady_states(field, (0.0, 0.0, -1.0, -1.0, 0.0, 0.0),
                                 [(-2.0, 2.0)] * 2)
    assert census.count == 9
    expected = sorted((float(i), float(j)) for i in (-1, 0, 1)
                      for j in (-1, 0, 1))
    for (p, _label), want in zip(census.states, expected):
        assert max(abs(a - b) for a, b in zip(p.x, want)) <= 1e-10
    census2 = count_steady_states(field, (0.0, 0.0, 0.0, 0.0, 2.0, 2.0),
                                  [(-1.5, 1.5)] * 2)
    origin = [lab for p, lab in census2.states
              if max(abs(t) for t in p.x) < 1e-8]
    assert origin == ["attracting"]


def test_criterion_10_property_suites():
    """Derivatives vs finite differences, and reseeding determinism of the
    multistart search."""
    rng = random.Random(1010)
    checked = 0
    while checked < 200:
        e = random_expression(rng)
        idx = rng.randrange(2)
        wrt = ex.var(idx)
        p = ex.Point((rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)),
                     (rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)))
        h = 1e-6 * (abs(p.x[idx]) + 1.0)
        x_hi = list(p.x)
        x_hi[idx] += h
        x_lo = list(p.x)
        x_lo[idx] -= h
        try:
            sym = ex.evaluate(ex.differentiate(e, wrt), p)
            hi = ex.evaluate(e, ex.Point(tuple(x_hi), p.alpha))
            lo = ex.evaluate(e, ex.Point(tuple(x_lo), p.alpha))
        except ex.EvaluationError:
            continue
        if max(abs(hi), abs(lo), abs(sym)) > 1e4:
            continue
        assert abs((hi - lo) / (2 * h) - sym) <= 1e-5 * (1.0 + abs(sym))
        checked += 1

    field = make_reaction_diffusion()
    runs = [find_catastrophes(field, 4, RD_BOX_UNIT,
                              SolveOptions(seed_count=count),
                              fixed={"k1": 1.0, "k2": 1.0})
            for count in (160, 256)]
    points = [sorted(rep.point.vals() for rep in reports if rep.full)
              for reports in runs]
    assert len(points[0]) == len(points[1]) == 2
    for a, b in zip(*points):
        assert max(abs(x - y) for x, y in zip(a, b)) <= 1e-6
