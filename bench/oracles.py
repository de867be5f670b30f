"""Reference answers the benchmark grades catafind's outputs against.

Every oracle here is derived independently of the package under test: the
butterfly closed form is written out again, the steady-state census comes
from an exact real-root isolation of the eliminated polynomial, and the
primary-form `G` determinants are rebuilt in sympy.  Nothing here imports
catafind.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import sympy as sp

STABILITY_TOL = 1e-8  # the CLI's default --tol-b, used for stability labels


def _close(got: float, want: float, rel: float = 1e-8) -> bool:
    return abs(got - want) <= rel * (1.0 + abs(want))


# ---------------------------------------------------------------------------
# find-rd: the two codimension-4 (butterfly) points of the rd field

def butterfly_point(k1: float, k2: float, branch: int):
    """(u, v), (b, d, a, g, k1, k2) of the butterfly on the given branch."""
    s = 1.0 if branch >= 0 else -1.0
    u = s * (k1 * k2 ** 3) ** 0.125 / 3.0
    v = s * (k1 ** 3 * k2) ** 0.125 / 3.0
    a = 2.0 / 3.0 * (k1 ** 3 * k2) ** 0.25
    g = 2.0 / 3.0 * (k1 * k2 ** 3) ** 0.25
    b = -s * 16.0 / 27.0 * (k1 ** 3 * k2) ** 0.375
    d = -s * 16.0 / 27.0 * (k1 * k2 ** 3) ** 0.375
    return (u, v), (b, d, a, g, k1, k2)


def grade_butterflies(doc: dict, k1: float, k2: float) -> str | None:
    """None when the document holds exactly the two full butterflies."""
    reports = doc["reports"]
    if len(reports) != 2:
        return f"expected 2 reports, got {len(reports)}"
    branches = set()
    for rep in reports:
        if not (rep["full"] and rep["subrank_ok"]):
            return f"report at {rep['x']} is not full with subrank n-1"
        branch = 1 if rep["x"][0] >= 0 else -1
        branches.add(branch)
        want_x, want_alpha = butterfly_point(k1, k2, branch)
        got = list(rep["x"]) + list(rep["alpha"])
        want = list(want_x) + list(want_alpha)
        if not all(_close(g, w) for g, w in zip(got, want)):
            return f"branch {branch:+d} at {got}, closed form {want}"
    if branches != {1, -1}:
        return "both reports on the same branch"
    return None


# ---------------------------------------------------------------------------
# scan-rd: steady-state census of the rd field at fixed parameters

def rd_census(k1, k2, a, g, b, d, box) -> tuple[int, int]:
    """(number of steady states in the box, number attracting).

    Eliminating u = -(b + a v + v^3)/k1 from the rd field leaves a degree-9
    polynomial in v.  Its distinct real roots are isolated exactly over the
    rationals equal to the float inputs, and each is labelled attracting
    when both eigenvalues of the 2x2 Jacobian have real part below
    -STABILITY_TOL.
    """
    k1, k2, a, g, b, d = (sp.Rational(Fraction(float(t)))
                          for t in (k1, k2, a, g, b, d))
    v = sp.Symbol("v")
    u = -(b + a * v + v ** 3) / k1
    poly = sp.Poly(sp.expand(k2 * v + d + g * u + u ** 3), v, domain="QQ")
    (ulo, uhi), (vlo, vhi) = box
    states = attracting = 0
    for (lo, hi), _mult in poly.sqf_part().intervals(eps=sp.Rational(1, 10 ** 14)):
        vv = float((lo + hi) / 2)
        uu = -(float(b) + float(a) * vv + vv ** 3) / float(k1)
        if not (ulo <= uu <= uhi and vlo <= vv <= vhi):
            continue
        states += 1
        jac = np.array([[-float(k1), -(float(a) + 3 * vv ** 2)],
                        [-(float(g) + 3 * uu ** 2), -float(k2)]])
        if np.all(np.linalg.eigvals(jac).real < -STABILITY_TOL):
            attracting += 1
    return states, attracting


# ---------------------------------------------------------------------------
# verify-primary: the A_r point of the primary form at the origin

class PrimaryG:
    """Extended determinants G_{r,K} of the primary form at x = 0, a = 0,
    as exact functions of the lambda and tau constants.

    The field is (f + sum tau_i x_i, lam_2 x_2, ..., lam_n x_n) with
    f = x1^(r+1) + a_r x1^(r-1) + ... + a_2 x1 + a_1.  B_1 is the Jacobian
    determinant; B_{i,K} replaces component K[-1] with B_{i-1,K[:-1]} and
    takes the Jacobian determinant again; G_{r,K} is the determinant of
    the Jacobian of (F, B_1, B_{2,K[:1]}, ..., B_{r,K[:r-1]}) over the
    states then a_1..a_r.
    """

    def __init__(self, n: int, r: int):
        xs = sp.symbols(f"x1:{n + 1}")
        al = sp.symbols(f"a1:{r + 1}")
        self.lams = sp.symbols(f"lam2:{n + 1}")
        self.taus = sp.symbols(f"tau2:{n + 1}")
        f = xs[0] ** (r + 1) + sum(al[i - 1] * xs[0] ** (i - 1)
                                   for i in range(1, r + 1))
        comps = [f + sum(t * x for t, x in zip(self.taus, xs[1:]))]
        comps += [lam * x for lam, x in zip(self.lams, xs[1:])]
        cols = list(xs) + list(al)

        B: dict = {}

        def level(i, K):
            if (i, K) not in B:
                rows = list(comps)
                if i >= 2:
                    rows[K[-1] - 1] = level(i - 1, K[:-1])
                B[(i, K)] = sp.expand(sp.Matrix(rows).jacobian(xs).det())
            return B[(i, K)]

        def gradient_at_zero(e):
            # the derivatives at the origin are the linear coefficients
            poly = sp.Poly(e, *cols)
            return [poly.coeff_monomial(c) for c in cols]

        rows: dict = {}
        comp_rows = [gradient_at_zero(c) for c in comps]
        self.values = {}
        for K in itertools.product(range(1, n + 1), repeat=r - 1):
            keys = [(i, K[:i - 1]) for i in range(1, r + 1)]
            for key in keys:
                if key not in rows:
                    rows[key] = gradient_at_zero(level(*key))
            mat = sp.Matrix(comp_rows + [rows[key] for key in keys])
            self.values[K] = mat.det(method="lu")
        self._fn = sp.lambdify(self.lams + self.taus, list(self.values.values()))

    def at(self, lams, taus) -> dict:
        vals = self._fn(*lams, *taus)
        return {K: float(v) for K, v in zip(self.values, vals)}


def grade_primary(doc: dict, n: int, r: int, lams, taus, reference: PrimaryG,
                  g_rel: float = 1e-9) -> str | None:
    """None when the document holds exactly the full A_r point at the origin
    and every G value matches the sympy determinant."""
    reports = doc["reports"]
    if len(reports) != 1:
        return f"expected 1 report, got {len(reports)}"
    rep = reports[0]
    coords = list(rep["x"]) + list(rep["alpha"])
    if len(coords) != n + r or max(abs(c) for c in coords) > 1e-8:
        return f"report at {coords}, expected the origin"
    if not (rep["full"] and rep["subrank_ok"] and rep["label"] == f"A_{r}"):
        return (f"full={rep['full']} subrank_ok={rep['subrank_ok']} "
                f"label={rep['label']}")
    want = reference.at(lams, taus)
    got = {tuple(e["index"]): e["value"] for e in rep["g_values"]}
    if set(got) != set(want):
        return f"G index set has {len(got)} entries, expected {len(want)}"
    for K, w in want.items():
        if abs(got[K] - w) > g_rel * max(1.0, abs(w)):
            return f"G{K} = {got[K]!r}, sympy gives {w!r}"
    return None
