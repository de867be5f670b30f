"""Intervals with outward rounding, and Krawczyk's test that a box holds
exactly one root of a square system (Krawczyk, Computing 1969; Rump, Acta
Numerica 2010, section 13).  solver imports it on the first certificate,
not with the package.

An Interval is a closed [lo, hi] of floats.  Each of +, -, *, / and
integer powers runs the float operation, which IEEE arithmetic rounds to
nearest, so within half a step of the exact result, and then moves each
endpoint one step outward by math.nextafter: the result contains the exact
result of the operation on every pair of points of its operands.  Negation
is exact.  *, / and ** raise OverflowError on an infinite or NaN operand
endpoint, since min and max could drop a NaN, and dividing by an interval
that contains 0 raises ZeroDivisionError.  So compile_evaluator's source,
run on intervals with its constants bound to point intervals (bind), either
encloses the values of its expressions over a box, or raises, or returns an
infinite or NaN endpoint.
"""

from __future__ import annotations

import itertools
from math import inf, nextafter
from operator import add, lt, mul, sub, truediv

from . import expr as ex

_RHO = 1e-3  # a box's half-width in unknown j, relative to 1 + |y_j|
_U = 2.0 ** -53  # the unit roundoff of rounding to nearest
_ETA = 2.0 ** -1074  # the smallest subnormal float


class Interval:
    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        self.lo = lo
        self.hi = hi

    def __repr__(self):
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __add__(self, other):
        return Interval(nextafter(self.lo + other.lo, -inf), nextafter(self.hi + other.hi, inf))

    def __sub__(self, other):
        return Interval(nextafter(self.lo - other.hi, -inf), nextafter(self.hi - other.lo, inf))

    def __mul__(self, other):
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        if not (-inf < a and b < inf and -inf < c and d < inf):
            raise OverflowError("interval product of a non-finite endpoint")
        # by the signs of the endpoints: the two products that bound it
        if a >= 0.0:
            if c >= 0.0:
                lo, hi = a * c, b * d
            elif d <= 0.0:
                lo, hi = b * c, a * d
            else:
                lo, hi = b * c, b * d
        elif b <= 0.0:
            if c >= 0.0:
                lo, hi = a * d, b * c
            elif d <= 0.0:
                lo, hi = b * d, a * c
            else:
                lo, hi = a * d, a * c
        elif c >= 0.0:
            lo, hi = a * d, b * d
        elif d <= 0.0:
            lo, hi = b * c, a * c
        else:
            lo, hi = min(a * d, b * c), max(a * c, b * d)
        return Interval(nextafter(lo, -inf), nextafter(hi, inf))

    def __truediv__(self, other):
        a, b, c, d = self.lo, self.hi, other.lo, other.hi
        if c <= 0.0 <= d:
            raise ZeroDivisionError("interval division by an interval that contains 0")
        if not (-inf < a and b < inf and -inf < c and d < inf):
            raise OverflowError("interval quotient of a non-finite endpoint")
        p, q, r, s = a / c, a / d, b / c, b / d
        return Interval(nextafter(min(p, q, r, s), -inf), nextafter(max(p, q, r, s), inf))

    def __pow__(self, k: int):
        """self ** k for an int k: an even power of an interval that holds 0
        encloses from 0, and k < 0 is 1 / self ** -k."""
        if k < 0:
            return Interval(1.0, 1.0) / self ** -k
        if k == 0:
            return Interval(1.0, 1.0)
        a, b = self.lo, self.hi
        if not (-inf < a and b < inf):
            raise OverflowError("interval power of a non-finite endpoint")
        if k % 2:  # increasing
            return Interval(_down(a, k) if a >= 0.0 else -_up(-a, k),
                            _up(b, k) if b >= 0.0 else -_down(-b, k))
        if a >= 0.0:
            return Interval(_down(a, k), _up(b, k))
        if b <= 0.0:
            return Interval(_down(-b, k), _up(-a, k))
        return Interval(0.0, _up(max(-a, b), k))


def _up(x: float, k: int) -> float:
    """An upper bound of x ** k, for a float x >= 0 and an int k >= 1, by
    binary powering with each product rounded up."""
    out = None
    while True:
        if k & 1:
            out = x if out is None else nextafter(out * x, inf)
        k >>= 1
        if not k:
            return out
        x = nextafter(x * x, inf)


def _down(x: float, k: int) -> float:
    """A lower bound >= 0 of x ** k, as _up with each product rounded down."""
    out = None
    while True:
        if k & 1:
            out = x if out is None else max(nextafter(out * x, -inf), 0.0)
        k >>= 1
        if not k:
            return out
        x = max(nextafter(x * x, -inf), 0.0)


def bind(fn):
    """compile_evaluator's fn with its constants, its only float globals,
    bound to point intervals, so that each of its operations takes two
    intervals."""
    return ex.rebind(fn, **{name: Interval(value, value) for name, value
                            in fn.__globals__.items() if type(value) is float})


def krawczyk(ifn, fn, vals, slots):
    """(lo_0, hi_0, ..., lo_{m-1}, hi_{m-1}), the bounds of the box X of
    half-width _RHO*(1 + |y_j|) around y, the unknowns of the value vector
    vals at slots, when K(X) = y - C F(y) + (I - C J(X))(X - y) lies in the
    interior of X; else None.  Then X holds exactly one root of F, and J
    is nonsingular on X.  ifn and fn are the F+J function on intervals
    (bind) and on floats; F(y) and J(X) come from one interval run each,
    and C is the float inverse of J(y).

    The matrix products run on floats in midpoint-radius form (Rump, BIT
    1999).  A dot product of m terms rounded to nearest is within
    gamma_m * sum |a_k b_k| + m * eta of the exact one (Higham, Accuracy and
    Stability of Numerical Algorithms, 2002, section 3.1; eta for
    underflow), and g = 2(m + 2)u bounds gamma_m with room for the rounding
    of the bounds themselves; every other operation on a bound rounds it
    outward by nextafter.  An interval run that raises, an infinite or NaN
    endpoint, or a singular J(y) gives None, and so does a spread of
    (I - C J(X))(X - y) that leaves no room, before F(y) is run."""
    m = len(slots)
    y = [vals[s] for s in slots]
    lo = [v - _RHO * (1.0 + abs(v)) for v in y]
    hi = [v + _RHO * (1.0 + abs(v)) for v in y]
    box = [Interval(v, v) for v in vals]
    for s, a, b in zip(slots, lo, hi):
        box[s] = Interval(a, b)
    g = 2 * (m + 2) * _U
    up, down = itertools.repeat(inf), itertools.repeat(-inf)  # for map(nextafter, xs, up)

    def run(ivals, part):  # one interval run's enclosures of F or of J, or None
        try:
            out = ifn(ivals)[part]
        except (ZeroDivisionError, OverflowError):
            return None
        return out if all(-inf < e.lo and e.hi < inf for e in out) else None

    def bounds(sums):  # the exact sums whose float sums of products are sums, at least
        return map(nextafter, map(add, map(nextafter, map(mul, sums, itertools.repeat(1.0 + g)),
                                           up), itertools.repeat(4 * (m + 2) * _ETA)), up)

    def magnitudes(mids, sums):  # |mid| + bound(sum), at least, for the pairs
        return map(nextafter, map(add, map(nextafter, map(abs, mids), up), bounds(sums)), up)

    def mid_weight(enclosures):  # the midpoints, and each radius + g * |midpoint|, at least
        lows, highs = [e.lo for e in enclosures], [e.hi for e in enclosures]
        mid = list(map(mul, map(add, lows, highs), itertools.repeat(0.5)))
        rad = map(nextafter, map(max, map(sub, mid, lows), map(sub, highs, mid)), up)
        return mid, list(map(nextafter, map(add, rad, map(
            nextafter, map(mul, map(abs, mid), itertools.repeat(g)), up)), up))

    J = run(box, slice(m, None))
    if J is None:
        return None
    try:
        C = _inverse(fn(vals)[m:], m)
    except ZeroDivisionError:
        return None
    Jm, Jw = mid_weight(J)
    cols_m, cols_w = [Jm[j::m] for j in range(m)], [Jw[j::m] for j in range(m)]
    abs_c = [list(map(abs, c)) for c in C]
    s = [sum(map(mul, c, col)) for c in C for col in cols_m]  # C J(X) - I at the midpoints
    for i in range(m):
        s[i * m + i] -= 1.0
    # |I - C J(X)| entrywise, at least
    a = list(magnitudes(s, [sum(map(mul, c, col)) for c in abs_c for col in cols_w]))
    d = list(map(max, map(nextafter, map(sub, y, lo), up), map(nextafter, map(sub, hi, y), up)))
    # |(I - C J(X))(X - y)| <= spread, and |K_i - y_i| <= shift + spread must
    # fall strictly inside X_i - y_i
    spread = list(bounds([sum(map(mul, a[i:i + m], d)) for i in range(0, m * m, m)]))
    inner = list(map(min, map(nextafter, map(sub, y, lo), down),
                     map(nextafter, map(sub, hi, y), down)))
    if not all(map(lt, spread, inner)):  # no room left for C F(y): spare its run
        return None
    F = run([Interval(v, v) for v in vals], slice(m))
    if F is None:
        return None
    Fm, Fw = mid_weight(F)
    shift = magnitudes([sum(map(mul, c, Fm)) for c in C],  # of C F(y)
                       [sum(map(mul, c, Fw)) for c in abs_c])
    if all(map(lt, map(nextafter, map(add, shift, spread), up), inner)):
        return tuple(x for pair in zip(lo, hi) for x in pair)
    return None


def _inverse(J, m: int) -> list:
    """The rows of the inverse of the row-major m x m float matrix J, by
    Gauss-Jordan elimination with partial pivoting; a zero pivot raises
    ZeroDivisionError.  Any matrix serves as Krawczyk's C: a poor one only
    fails the test."""
    a = [list(J[i * m:i * m + m]) + [float(i == j) for j in range(m)] for i in range(m)]
    for k in range(m):
        p = max(range(k, m), key=lambda i: abs(a[i][k]))
        a[k], a[p] = a[p], a[k]
        row = a[k] = list(map(truediv, a[k], itertools.repeat(a[k][k])))
        for i in range(m):
            f = a[i][k]
            if i != k and f:
                a[i] = list(map(sub, a[i], map(mul, row, itertools.repeat(f))))
    return [r[m:] for r in a]
