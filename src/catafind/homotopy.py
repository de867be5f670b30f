"""The steady-state census's parameter homotopy on complex values (Sommese
& Wampler, The Numerical Solution of Systems of Polynomial Equations, 2005,
ch. 7-8).  solver imports it on the first census, not with the package.
The path tracker is straight-line code generated once per homotopy system
(_tracker), the start system and the cell system.  It evaluates H, H_x and
H_s inline on locals, computes their terms free of the unknowns once per
value of s, and solves each linear system inline, by solver._elimination's
lines as solver's Newton iteration does.  One Cauchy loop ends every
singular path of its cycle.  A scan that fixes all but some parameters
starts each cell's paths on its own plane, at roots tracked there from p*
once per plane, so that they move only the scanned parameters.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator

from . import expr as ex
from .solver import _elimination, _first_max

_GAMMAS = (complex(0.6367, 0.7711), complex(-0.2839, 0.9589))  # fixed, generic
_TRACK_TOL = 1e-6  # a corrector's last step, relative to 1 + max |x|
_CORRECTIONS = 3  # Newton corrections per step
_PREDICT_TOL = 1e-3  # the first correction a step size aims at
_FIRST_STEP, _LEAST_STEP, _MAX_STEPS = 0.5, 1e-6, 2000  # segment lengths; per segment
_DIVERGED = 1e8  # max |x| at which a path diverges
_RADII = (0.1, 0.0125, 0.0015625)  # the Cauchy loops' radii around s = 1
_CHORDS = 12  # chords per loop
_REAL_TOL = 1e-6  # max |Im x| of a real endpoint, relative to 1 + max |x|


def as_fraction(e, env) -> tuple:
    """(numerator, denominator) of e: two expressions free of division,
    whose quotient equals e wherever the denominator is nonzero.  env maps
    variable and parameter nodes to the expressions put in their place."""
    out: dict = {}
    for node in ex._postorder((e,), out):
        k = node.kind
        parts = [out[c] for c in node.children]
        if k == ex.SUM:
            num, den = parts[0]
            for n, d in parts[1:]:
                num, den = ((ex.add(num, n), den) if d is den else
                            (ex.add(ex.mul(num, d), ex.mul(n, den)), ex.mul(den, d)))
        elif k == ex.PROD:
            num, den = ex.mul(*[p[0] for p in parts]), ex.mul(*[p[1] for p in parts])
        elif k == ex.NEG:
            num, den = ex.neg(parts[0][0]), parts[0][1]
        elif k == ex.QUOT:
            (nu, du), (nv, dv) = parts
            num, den = ex.mul(nu, dv), ex.mul(du, nv)
        elif k == ex.POW:
            num, den = parts[0][::1 if node.exponent > 0 else -1]
            num, den = ex.pow_(num, abs(node.exponent)), ex.pow_(den, abs(node.exponent))
        else:
            num, den = env.get(node, node), ex.ONE
        out[node] = num, den
    return out[e]


def degree(e, n_vars: int) -> int:
    """Total degree of a division-free e in the variables below n_vars."""
    out: dict = {}
    for node in ex._postorder((e,), out):
        ds = [out[c] for c in node.children]
        k = node.kind
        out[node] = (int(k == ex.VAR and node.index < n_vars) if not ds
                     else sum(ds) if k == ex.PROD
                     else ds[0] * node.exponent if k == ex.POW else max(ds))
    return out[e]


def _close(x, y, tol):
    return max(abs(v - w) for v, w in zip(x, y)) <= tol * (1.0 + max(map(abs, y)))


def _frontier(outs, on_x):
    """The nodes free of the unknowns that outs reads through nodes on
    them, outs itself included, negations replaced by what they negate and
    leaves left out: what a step computes once per value of s.  on_x maps
    each node to whether an unknown is among its leaves."""
    front: dict = {}
    seen, stack = set(), list(reversed(outs))
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            if on_x[node]:
                stack.extend(reversed(node.children))
            else:
                while node.kind == ex.NEG:
                    node = node.children[0]
                if node.children:
                    front[node] = None
    return list(front)


def _track(tracker, x, a, b, tail, h=_FIRST_STEP):
    """(status, x at b) for the root x of H(., a) = 0 as s runs along the
    segment a -> b of the complex plane; tracker is _tracker's for H, and
    tail holds the values of H's parameters.  A step is an RK4 prediction
    on dx/ds = -H_x^-1 H_s, each slope from H_x and H_s at its point (the
    first after an accepted step from H_s and the last correction's H_x),
    then up to _CORRECTIONS Newton corrections, each from H and H_x at its
    point; a failed one halves the step, and the first one's size sets the
    next.  status: "regular", "diverged" (max |x| beyond _DIVERGED) or
    "failed"."""
    return tracker(x, a, b, tail, h)


def _tracker(hs, n: int):
    """_track's loop for H = hs, in the unknowns x and s, the variable at
    index n: straight-line code on locals that evaluates H, H_x and H_s
    inline (expr.emit).  The locals are the unknowns x{i}; the RK4 slopes
    p, then q in turn at w, w and t, with k summing p + 2 q + 2 q'; the
    prediction y and the corrections d; max-norms over m{i} by
    solver._first_max; and after each evaluation solver._elimination's
    lines.  The tail's parameters are unpacked once per call.  The nodes
    free of x (_frontier) go to S{k} once per value of s: at u when the
    first slope is recomputed, at w for its two slopes, and at t for its
    slope, the corrections and the next first slope.  Each float operation
    is a plain loop's over lists (v + h / 2 * k per slope, v + h / 6 * (p +
    2*q + 2*r + z), each linear system by a plain elimination, H by
    compile_evaluator's functions), in its order, so both give bit-identical
    endpoints; the tests keep that loop as a twin.  Every node computed at
    s is one that the loop evaluates at s in the same step, inside the same
    try, so the same steps raise.  o holds the last correction's H_x and
    unknowns, from which, with H_s there, an accepted step's next first
    slope is solved."""
    memo: dict = {}
    grads = [[ex.differentiate(e, ex.var(j), memo) for j in range(n + 1)] for e in hs]
    h_x, h_s = [g[j] for g in grads for j in range(n)], [g[n] for g in grads]
    on_x: dict = {}
    for node in ex._postorder([*hs, *h_x, *h_s], on_x):
        on_x[node] = (node.kind == ex.VAR and node.index < n) or any(
            on_x[c] for c in node.children)
    slope_front = _frontier(h_x + h_s, on_x)  # it holds the speed's, H_s's
    front = list(dict.fromkeys(slope_front + _frontier([*hs, *h_x], on_x)))
    hoisted = {node: f"S{k}" for k, node in enumerate(front)}
    width = 1 + max((node.index for node in on_x if node.kind == ex.PAR), default=-1)
    known = {ex.var(n): "s", **{ex.par(k): f"P{k}" for k in range(width)}}
    ea = [f"ea{i}_{j}" for i in range(n) for j in range(n)]
    eb = [f"eb{i}" for i in range(n)]
    consts: dict = {}

    def each(fmt, sep="; "):  # fmt for every unknown i, on one line
        return sep.join(fmt.format(i=i) for i in range(n))

    def norm(fmt):  # mx = max(fmt over i), max()'s first maximum
        return each(f"m{{i}} = {fmt}") + "; " + _first_max("mx", [f"m{i}" for i in range(n)])

    def at_s(nodes):  # the hoisted nodes at s
        lines, outs = ex.emit(nodes, consts, known)
        return lines + [f"{hoisted[node]} = {out}" for node, out in zip(nodes, outs)]

    def values(exprs, targets, x):  # targets = exprs at the unknowns x{i} and s
        lines, outs = ex.emit(exprs, consts, {**known, **hoisted, **{
            ex.var(i): f"{x}{i}" for i in range(n)}})
        return lines + [f"{target} = {out}" for target, out in zip(targets, outs)]

    def solve(k, lines, by_ds=True):  # k{i} = -J^-1 F, J and F set by lines, times ds
        return [*lines, *_elimination(n, k)] + [each(f"{k}{{i}} = ds * {k}{{i}}")] * by_ds

    at_w, slope = at_s(slope_front), values(h_x + h_s, ea + eb, "X")  # slope at X{i} and s
    src = "\n".join([
        "def _track(x, a, b, tail, h):",
        *[f"    {', '.join(known[ex.par(k)] for k in range(width))}, *_ = tail"] * (width > 0),
        f"    {each('x{i}', ', ')}, = x",
        "    ds, u, have = b - a, 0.0, False",
        f"    for _ in range({_MAX_STEPS}):",
        "        if u == 1.0:",
        f"            return 'regular', [{each('x{i}', ', ')}]",
        "        t = u + h; t = 1.0 if 1.0 < t else t; h = t - u",
        "        try:",
        "            if not have:",  # u < 1.0 here
        *["                " + line for line in [
            "s = a + u * ds", *at_w, each("X{i} = x{i}"), *solve("p", slope)]],
        "                have = True",
        "            h2, h6 = h / 2, h / 6",
        "            w = u + h2; s = b if w == 1.0 else a + w * ds",
        *["            " + line for line in at_w],
        "            " + each("q{i} = k{i} = p{i}") + "; c = h2",
        "            for it in (0, 1, 2):",  # the slopes at w, w and t; k sums p + 2 q + 2 q'
        "                if it == 2:",
        *["                    " + line for line in [
            "s = b if t == 1.0 else a + t * ds", *at_s(front), "c = h"]],
        *["                " + line for line in [
            each("X{i} = x{i} + c * q{i}"), *solve("q", slope),
            "if it < 2: " + each("k{i} = k{i} + 2 * q{i}")]],
        "            " + each("y{i} = x{i} + h6 * (k{i} + q{i})"),
        f"            for it in {tuple(range(_CORRECTIONS))}:",  # until one is small enough
        *["                " + line for line in [
            *solve("d", [*values([*hs, *h_x], eb + ea, "y"),
                         f"o = {', '.join(ea)}, {each('y{i}', ', ')},"], False),
            each("y{i} = y{i} + d{i}"), norm("abs(y{i})") + "; scale = 1.0 + mx",
            norm("abs(d{i})") + "; err = mx / scale",
            "if not it: first = err",
            f"if err <= {_TRACK_TOL!r}: break"]],
        f"            ok = err <= {_TRACK_TOL!r}",
        "        except (ZeroDivisionError, OverflowError):",
        "            ok = have = False",
        "        if not ok:",
        "            h /= 2",
        f"            if h < {_LEAST_STEP!r}:",
        "                return 'failed', None",
        f"        elif not scale <= {_DIVERGED!r}:",
        "            return 'diverged', None",
        "        else:",
        f"            {each('x{i}', ', ')}, u = {each('y{i}', ', ')}, t",
        *["            " + line for line in solve("p", [
            f"{', '.join(ea)}, {each('v{i}', ', ')}, = o", *values(h_s, eb, "v")])],
        f"            g = 0.8 * ({_PREDICT_TOL!r} / (1e-300 if 1e-300 > first else first)) ** 0.2",
        "            h *= g if g < 2.0 else 2.0",
        "    return 'failed', None\n"])
    exec(src, consts)
    return consts.pop("_track")  # so the function and its globals form no cycle


def _path(tracker, x, tail, cycles, shared):
    """(status, x at s = 1 or None) for the path of H from x at s = 0,
    each segment by _track with tracker, _tracker's for H, and tail.  If
    tracking to s = 1 fails, a Cauchy endgame (Morgan, Sommese & Wampler,
    Numer. Math. 1992) loops on |s - 1| = rho from s = 1 - rho until the
    path closes, after c <= cycles loops at a root of cycle number c, and
    takes the mean of the c*_CHORDS vertices.  Two radii whose means agree
    end it "singular"; vertices that spread more at the smaller diverge.
    One loop serves its whole cycle: shared holds each singular path's
    (lap vertices, end), its points at s = 1 - _RADII[0] after each loop,
    and a path that reaches one of them there takes that end."""
    status, y = _track(tracker, x, 0.0, 1.0, tail)
    if status != "failed":
        return status, y
    s, estimate, spread, laps = 0.0, None, math.inf, None
    for rho in _RADII:
        status, x = _track(tracker, x, s, 1.0 - rho, tail)
        for vertices, end in shared if laps is None and status == "regular" else ():
            if any(_close(x, v, 1e-6) for v in vertices):
                return end
        points, y, s = [], x, 1.0 - rho
        for k in range(cycles * _CHORDS if status == "regular" else 0):
            a, b = (1.0 - rho * cmath.exp(2j * math.pi * j / _CHORDS) for j in (k, k + 1))
            status, y = _track(tracker, y, a, b, tail, 1.0)
            if status != "regular":
                return status, None
            points.append(y)
            if (k + 1) % _CHORDS == 0 and _close(y, x, 1e-6):
                break
        else:
            return "failed", None
        laps = laps or points[_CHORDS - 1::_CHORDS]
        mean = [sum(c) / len(points) for c in zip(*points)]
        width = max(abs(v - w) for y in points for v, w in zip(y, mean))
        if not width < spread:
            return "diverged", None
        if estimate is not None and _close(mean, estimate, 1e-6):
            shared.append((laps, ("singular", mean)))
            return "singular", mean
        estimate, spread = mean, width
    return "failed", None


class Homotopy:
    """A field's numerators N(x, p) and their roots at p*, found by the
    total-degree homotopy (1 - s) gamma (x_i^d_i - 1) + s N(x, p*), d_i the
    degree of N_i.  track(alpha) moves those roots along p = alpha + q (p*
    - alpha), q = (1 - s) / (1 + (gamma - 1) s), s from 0 to 1
    (coefficient-parameter continuation; Morgan & Sommese, Appl. Math.
    Comput. 1989): the segment p* -> alpha at gamma = 1, ending at
    p = alpha exactly.  A stage with a bad end, or with two regular paths
    at one root, runs again with the second gamma.

    With axes, the indices of the parameters that a scan varies, a cell's
    segment starts instead at the plane's start: p* with every other
    coordinate at the cell's value.  A generic point of the plane has its
    full count of finite roots (coefficient-parameter homotopy; Sommese &
    Wampler 2005, ch. 7), tracked there from p*'s once per plane by the
    same stage; if one ends anywhere but at a regular root of its own, the
    plane's cells start at p*."""

    def __init__(self, field: ex.VectorField):
        n, r = field.n, field.r
        s, gamma = ex.var(n), ex.par(0)  # then p* or p* - alpha, then alpha
        q = ex.div(ex.sub(ex.ONE, s), ex.add(ex.ONE, ex.mul(ex.sub(gamma, ex.ONE), s)))
        at_pstar, on_segment = ([as_fraction(e, {ex.par(k): p(k) for k in range(r)})
                                 for e in field.components] for p in (
            lambda k: ex.par(1 + k),
            lambda k: ex.add(ex.par(1 + r + k), ex.mul(q, ex.par(1 + k)))))
        degrees = [degree(num, n) for num, _den in at_pstar]
        start = [ex.add(ex.mul(ex.sub(ex.ONE, s), gamma,
                               ex.sub(ex.pow_(ex.var(i), d), ex.ONE)), ex.mul(s, num))
                 for i, ((num, _den), d) in enumerate(zip(at_pstar, degrees))]
        self._cell = _tracker([num for num, _den in on_segment], n)
        self._dens = ex.compile_evaluator([den for _num, den in at_pstar], n + 1)
        # p* on the unit circle at golden-ratio angles
        self._pstar = tuple(cmath.exp(2j * math.pi * (k * 0.6180339887498949 % 1))
                            for k in range(1, r + 1))
        starts = itertools.product(*[
            [cmath.exp(2j * math.pi * k / d) for k in range(d)] for d in degrees])
        _misses, ends = self._stage(_tracker(start, n), list(starts), self._pstar,
                                    _GAMMAS, ("failed", "singular"))
        self._roots = [x for status, x in ends if status == "regular"]
        self._lost = sum(status != "diverged" for status, _x in ends) - len(self._roots)
        self._plane = None  # (the last plane's start, its roots or None)

    def _stage(self, tracker, starts, tail, gammas, bad):
        """(misses, the (status, x) of each path from starts) with gammas[0],
        or with gammas[1] if that has fewer misses: ends whose status is in
        bad, and pairs of regular ends at one root."""
        best = None
        for gamma in gammas:
            shared: list = []  # the singular paths' laps, for _path
            ends = [_path(tracker, list(x), (gamma, *tail), len(starts), shared)
                    for x in starts]
            regular = [x for status, x in ends if status == "regular"]
            # _close(x, y, 1e-8) for each pair, y's bound computed once
            bounds = [1e-8 * (1.0 + max(map(abs, y))) for y in regular]
            misses = sum(status in bad for status, _x in ends) + sum(
                max(map(abs, map(operator.sub, x, y))) <= bound
                for i, x in enumerate(regular) for y, bound in zip(regular, bounds[:i]))
            if best is None or misses < best[0]:
                best = misses, ends
            if not misses:
                break
        return best

    def _segment(self, starts, start, end, bad):
        """_stage's (misses, ends) for the roots starts at the parameters
        start, moved along the segment start -> end."""
        return self._stage(self._cell, starts, (*map(operator.sub, start, end), *end),
                           (1.0, _GAMMAS[1]), bad)

    def _plane_start(self, alpha, axes):
        """(start, its roots) for a cell at alpha on the plane along axes:
        start is p* with every coordinate outside axes at alpha's, and its
        roots are p*'s tracked there, once per plane.  If one of them does
        not end regular and distinct, p* and its roots."""
        start = tuple(p if k in axes else a for k, (p, a) in enumerate(zip(self._pstar, alpha)))
        if self._plane is None or self._plane[0] != start:
            misses, ends = self._segment(self._roots, self._pstar, start,
                                         ("failed", "diverged", "singular"))
            self._plane = start, None if misses else [x for _status, x in ends]
        roots = self._plane[1]
        return (self._pstar, self._roots) if roots is None else (start, roots)

    def track(self, alpha, axes=None):
        """(the end of each path, a root lost at p* reading "failed"; the
        index and real part of each real endpoint at alpha where no
        denominator vanishes).  axes: the indices of the parameters that
        vary from call to call, None for all; a call whose other
        parameters equal the last call's reuses its plane's start."""
        start, roots = self._pstar, self._roots
        if axes is not None:
            if len(set(axes)) < len(axes) or not set(axes) <= set(range(len(start))):
                raise ValueError(f"axes {tuple(axes)!r}: an entry repeated or not a "
                                 f"parameter index below {len(start)}")
            if len(axes) < len(start):
                start, roots = self._plane_start(alpha, axes)
        _misses, ends = self._segment(roots, start, alpha, ("failed", "diverged"))
        real = []
        for i, (_status, x) in enumerate(ends):
            tol = _REAL_TOL * (1.0 + max(map(abs, x or [0.0])))
            if x and all(abs(v.imag) <= tol for v in x) and all(
                    abs(d) > tol for d in self._dens((*x, 1.0, 1.0, *alpha))):
                real.append((i, [v.real for v in x]))
        return [s for s, _x in ends] + ["failed"] * self._lost, real
