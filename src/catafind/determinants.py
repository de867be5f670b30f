"""Nested determinant conditions for degenerate zeros of vector fields.

Builds, symbolically, the iterated Jacobian determinants in which a
chosen component of the field is replaced level by level with the
previous determinant, in one walk over the prefix trie of index strings.
B_1 is sym_det of the Jacobian DF; each deeper B_{i,K} is expanded
along its replaced row k = K[-1] - 1 over the minors M_kj of DF, built
once per DeterminantSet.  At k = 0 these are sym_det's own calls along
row 0, so each chain B_{i,(1,...,1)} is the node that expanding its
whole matrix gives.  Gradient rows are cached by expression and B by
(i, K); Newton systems and Boardman stages read the same rows.
Point values come from one compiled function per codimension r, cached
on the set: DeterminantSet.level(r, p) calls it on floats for F, each
B_{i,K} with i <= r and the state columns of B scales and the subrank,
then once per unknown by complex step for the rows of the extended
(states + unfolding parameters) determinants G_{r,K}, whose non-vanishing
makes the conditions solvable with isolated roots; no symbolic row of G
is built.  Rows are reduced on Python floats, row by row for determinants
(_push) and with complete pivoting for ranks (numeric_rank), so no value
depends on a BLAS build, and the set keeps no value of any point.  The
caches take no lock, nor does expr's intern table: use one
DeterminantSet per thread and build expressions on one thread only.
"""

from __future__ import annotations

import itertools
import math

from . import expr as ex
from .expr import Expression, Frozen, Point, VectorField

DEFAULT_TOL_B = 1e-8
DEFAULT_TOL_G = 1e-6
_STEP = 2.0 ** -600  # the complex step h of a level's G rows: h * h underflows to 0


def sym_det(M) -> Expression:
    """Determinant of a square matrix of expressions.

    Cofactor expansion with memoized sub-minors; entries are shared
    hash-consed trees so repeated sub-minors are built once.
    """
    M = [tuple(row) for row in M]
    size = len(M)
    if any(len(row) != size for row in M):
        raise ex.ExprError("sym_det needs a square matrix")
    if size == 0:
        return ex.ONE
    return _minor(M, {}, 0, tuple(range(size)))


def _minor(M, memo: dict, k: int, cols: tuple) -> Expression:
    """sym_det's minor of rows k, k+1, ... and columns cols, memoized (no
    closure: one that calls itself is a reference cycle)."""
    if len(cols) == 1:
        return M[k][cols[0]]
    got = memo.get((k, cols))
    if got is not None:
        return got
    terms = []
    for j, c in enumerate(cols):
        entry = M[k][c]
        if entry is ex.ZERO:
            continue
        sub = _minor(M, memo, k + 1, cols[:j] + cols[j + 1:])
        term = ex.mul(entry, sub)
        terms.append(term if j % 2 == 0 else ex.neg(term))
    out = ex.add(*terms) if terms else ex.ZERO
    memo[(k, cols)] = out
    return out


def index_strings(n: int, length: int):
    """All index strings of the given length with entries in 1..n."""
    return list(itertools.product(range(1, n + 1), repeat=length))


def _check_index_string(n: int, level: int, K) -> tuple:
    """K as a tuple, checked to hold level - 1 entries in 1..n (level >= 1)."""
    if level < 1:
        raise IndexError(f"level {level} is below 1")
    K = tuple(K)
    for k in K:
        if not 1 <= k <= n:
            raise IndexError(f"index string entry {k} outside 1..{n}")
    if len(K) != level - 1:
        raise IndexError(f"level {level} needs an index string of length {level - 1}")
    return K


class DeterminantSet:
    """Lazily built, cached expressions for the level determinants of a field,
    and their compiled evaluators.

    param_order selects which declared parameters act as the unfolding
    parameters (in order); by default the first r declared parameters.
    Produced expressions are immutable.
    """

    def __init__(self, field: VectorField, param_order=None):
        self.field = field
        if param_order is None:
            param_order = tuple(range(field.r))
        self.param_order = tuple(param_order)
        for j in self.param_order:
            if not 0 <= j < field.r:
                raise IndexError(f"parameter index {j} outside declared range")
        if len(set(self.param_order)) != len(self.param_order):
            raise ValueError("param_order has repeated entries")
        self._b: dict = {}
        self._fns: dict = {}
        self._diff_memo: dict = {}
        self._rows: dict = {}  # expression -> its gradient row so far
        self._expanded: dict = {}  # (k, parent B) -> _expand's B
        self._minors: dict = {}  # (k, j) -> minor M_kj of the Jacobian DF
        self._cols = (tuple(ex.var(j) for j in range(field.n))
                      + tuple(ex.par(j) for j in self.param_order))

    def row(self, e: Expression, width: int) -> tuple:
        """The first width entries of e's gradient over the state variables,
        then the unfolding parameters in order; each entry of a row is
        differentiated once, and a wider request only adds columns.  The
        package takes every derivative here but the census homotopy's."""
        if width > len(self._cols):
            raise IndexError(f"row width {width} exceeds the {len(self._cols)} columns")
        row = self._rows.get(e, ())
        if len(row) < width:
            row += tuple(ex.differentiate(e, c, self._diff_memo)
                         for c in self._cols[len(row):width])
            self._rows[e] = row
        return row[:width]

    # -- B determinants ----------------------------------------------------

    def b_matrix(self, i: int, K=()):
        """The n x n Jacobian under the level-i determinant (i >= 1)."""
        K = _check_index_string(self.field.n, i, K)
        comps = list(self.field.components)
        if i >= 2:
            comps[K[-1] - 1] = self.build_B(i - 1, K[:-1])
        return tuple(self.row(c, self.field.n) for c in comps)

    def build_B(self, i: int, K=()) -> Expression:
        """The level-i determinant B_{i,K} (i >= 1): the determinant of
        b_matrix(i, K).  B_1 is sym_det(DF); above, it is _expand's
        expansion along the replaced row K[-1] - 1."""
        K = _check_index_string(self.field.n, i, K)
        got = self._b.get((i, K))
        if got is None:
            got = self._b[i, K] = (sym_det(self.b_matrix(1)) if i == 1 else
                                   self._expand(K[-1] - 1, self.build_B(i - 1, K[:-1])))
        return got

    def _expand(self, k: int, parent: Expression) -> Expression:
        """The determinant of DF with row k replaced by parent's gradient
        row g, expanded along that row: the sum of g_j (-1)^(k+j) M_kj over
        the nonzero g_j, in sym_det's term order.  Memoized by (k, parent),
        since many index strings share an equal parent."""
        got = self._expanded.get((k, parent))
        if got is None:
            terms = []
            for j, g in enumerate(self.row(parent, self.field.n)):
                if g is ex.ZERO:
                    continue
                term = ex.mul(g, self._df_minor(k, j))
                terms.append(term if (k + j) % 2 == 0 else ex.neg(term))
            got = self._expanded[k, parent] = ex.add(*terms) if terms else ex.ZERO
        return got

    def _df_minor(self, k: int, j: int) -> Expression:
        """M_kj: sym_det of DF without row k and column j, built once."""
        got = self._minors.get((k, j))
        if got is None:
            rows = self.b_matrix(1)
            got = self._minors[k, j] = sym_det(
                [row[:j] + row[j + 1:] for row in rows[:k] + rows[k + 1:]])
        return got

    def _nest(self, r: int) -> list:
        """[B_{i,K} for i = 1..r, K in index_strings(n, i - 1)]: one walk
        over the prefix trie, in which build_B expands each node along its
        replaced row from its parent, which the walk has just built, and
        each distinct (row, parent) once."""
        return [self.build_B(i, K) for i in range(1, r + 1)
                for K in index_strings(self.field.n, i - 1)]

    # -- G determinants ----------------------------------------------------

    def _g_index(self, r: int, K) -> tuple:
        """K checked as the index string of a G_{r,K}, and r against the
        unfolding parameters."""
        K = _check_index_string(self.field.n, r, K)
        if r > len(self.param_order):
            raise IndexError(f"codimension {r} exceeds the {len(self.param_order)} "
                             "available unfolding parameters")
        return K

    # -- numeric evaluation with scale-aware thresholds ---------------------

    def _level_fn(self, r: int):
        """(fn, step, exprs, at): the compiled function of codimension r >= 0,
        fn for complex inputs, the expressions fn outputs, each once (the
        components, B_{i,K} for i = 1..r, and the state columns of the
        components and of each B below level r, which b_matrix and subrank
        read), and the output of each of G's rows, in index_strings order."""
        got = self._fns.get(r)
        if got is None:
            n = self.field.n
            nodes = list(self.field.components) + self._nest(r)  # level r's n^(r-1) last
            rows = [self.row(e, n) for e in nodes[:len(nodes) - (r and n ** (r - 1))]]
            exprs = list(dict.fromkeys(nodes + [e for row in rows for e in row]))
            fn, at = ex.compile_evaluator(exprs, n), {e: k for k, e in enumerate(exprs)}
            got = self._fns[r] = (fn, ex.rebind(fn, pow=_power), exprs, [at[e] for e in nodes])
        return got

    def level(self, r: int, p: Point) -> Level:
        """The values of codimension r >= 0 at p, from one call of its
        compiled function.  For 1 <= r <= the unfolding parameter count, a
        call per unknown x_j at x_j + i*h gives G's rows as Im/h (the complex
        step: Squire & Trapp, SIAM Rev. 1998; Martins, Sturdza & Alonso, ACM
        TOMS 2003): as h * h underflows, Im is h times the forward derivative
        of fn's float operations, exact to rounding above about 1e-127."""
        if r < 0:
            raise IndexError(f"codimension {r} is below 0")
        fn, step, exprs, at = self._level_fn(r)
        vals = p.vals()
        value = dict(zip(exprs, map(float, fn(vals))))
        g, n = None, self.field.n
        if 1 <= r <= len(self.param_order):
            cols = [[v.imag / _STEP for v in step(vals[:j] + (complex(vals[j], _STEP),)
                                                  + vals[j + 1:])]
                    for j in (*range(n), *(n + k for k in self.param_order[:r]))]
            g = _trie_dets([[col[k] for col in cols] for k in at], n, r)
        return Level(r, p, self, value, g)


def _power(z, k: int):
    """z ** k, as x ** k + i*k*x ** (k - 1)*b on a step x + i*b: above |k| =
    100 CPython's complex ** goes through log and exp, which loses b."""
    return complex(z.real ** k, k * z.real ** (k - 1) * z.imag) if type(z) is complex else z ** k


class Level(Frozen):
    """The values of codimension r at the point p, from one call of the
    level's compiled function: every read below but g comes from them, so a
    point holding -0.0 reads its own signed zeros.  Equal only to itself."""

    __slots__ = ("r", "p", "_set", "_value", "_g")
    __eq__, __hash__, __repr__ = object.__eq__, object.__hash__, object.__repr__

    def __init__(self, r: int, p: Point, _set: DeterminantSet, _value: dict,
                 _g: dict | None):
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_set", _set)
        object.__setattr__(self, "_value", _value)  # expression -> its float at p
        object.__setattr__(self, "_g", _g)  # K -> G_{r,K}'s (value, scale); None off 1..count

    def field(self) -> tuple:
        """Values of the field components at p."""
        return tuple(self._value[c] for c in self._set.field.components)

    def b(self, i: int, K=()):
        """(value, Hadamard scale) of B_{i,K} at p (1 <= i <= r); the scale
        is that of b_matrix(i, K) at p."""
        K = _check_index_string(self._set.field.n, i, K)
        if i > self.r:
            raise IndexError(f"level {i} is above the codimension {self.r}")
        M = [[self._value[e] for e in row] for row in self._set.b_matrix(i, K)]
        return self._value[self._set.build_B(i, K)], hadamard_bound(M)

    def g(self, K=()):
        """(value, Hadamard scale) of G_{r,K} at p; the value is the
        elimination (_push) of the complex-step extended matrix, row by row."""
        return self._g[self._set._g_index(self.r, K)]

    def subrank(self, tol: float = DEFAULT_TOL_B) -> int:
        """Least rank of the Jacobian at p over deletions of one component row."""
        if tol <= 0:
            raise ValueError("tol must be positive")
        J = [[self._value[e] for e in row] for row in self._set.b_matrix(1)]
        scale = max(math.hypot(*row) for row in J)
        return min(numeric_rank(J[:j] + J[j + 1:], tol, scale=scale)
                   for j in range(len(J)))


def _trie_dets(rows, n: int, r: int) -> dict:
    """{K: (value, Hadamard scale)} of G_{r,K} from the rows of level r.
    G_{r,K}'s rows are those of the components, B_1,
    B_{2,K[:1]}, ..., B_{r,K[:r-1]}, so the strings form a prefix trie: the
    first n + 1 rows are reduced once, and each trie node reduces the one
    row it adds, over the columns its parent's pivots left free (_push).
    Each value has the bits of _eliminate on its matrix."""
    states, at = [_eliminate(rows[:n + 1])], n + 1
    for depth in range(1, r):  # the node of prefix K holds B_{depth+1,K}
        states = [_push(states[j // n], row)
                  for j, row in enumerate(rows[at:at + n ** depth])]
        at += n ** depth
    return {K: s[1:3] for K, s in zip(index_strings(n, r - 1), states)}


def _push(state, row):
    """The elimination state (pivot rows, determinant, Hadamard product,
    free columns) after one more row: Gaussian elimination with partial
    pivoting on the transpose (Golub & Van Loan, Matrix Computations,
    section 3.4).  A pivot row is (j, l): its pivot's place j among the
    columns free when it was made, and l, the row over the columns left
    free after it, divided by the pivot, so |l| <= 1.  For each pivot row
    in turn, the incoming row drops entry j, t, and takes x -= t * l, so it
    reduces only the columns still free.  It then pivots on its first
    largest nonzero entry (a NaN wins, to reach the determinant), at place
    j of the free columns.  The pivot enters the determinant, negated when
    an odd number of pivot columns lie above its column free[j]: all
    pivots less the free[j] - j below it.  A row without a pivot zeroes
    the determinant."""
    pivots, value, scale, free = state
    scale *= math.hypot(*row)
    row = list(row)
    for j, l in pivots:
        t = row.pop(j)
        if t:
            row = [a - t * b for a, b in zip(row, l)]
    best, j = 0.0, -1
    for k, a in enumerate(row):
        if abs(a) > best or a != a:
            best, j = abs(a), k
    if j < 0:
        return pivots, value * 0.0, scale, free
    p = row.pop(j)
    value *= p
    if (len(pivots) - free[j] + j) % 2:
        value = -value
    return (pivots + ((j, [a / p for a in row]),), value, scale,
            free[:j] + free[j + 1:])


def _eliminate(A):
    """The elimination state of the rows of A, pushed in order."""
    # no pivot rows, determinant 1, Hadamard product 1, every column free
    state = ((), 1.0, 1.0, tuple(range(len(A[0]))) if A else ())
    for row in A:
        state = _push(state, row)
    return state


def hadamard_bound(A) -> float:
    """Product of row 2-norms; an upper bound for |det A|."""
    return math.prod(math.hypot(*row) for row in A)


def is_zero(value: float, scale: float, tol: float = DEFAULT_TOL_B) -> bool:
    return abs(value) <= tol * scale


def is_nonzero(value: float, scale: float, tol: float = DEFAULT_TOL_G) -> bool:
    return abs(value) > tol * scale


def numeric_rank(A, tol: float = DEFAULT_TOL_B,
                 scale: float | None = None) -> int:
    """Rank of a matrix given as rows: the count of pivots above tol x
    largest row norm in Gaussian elimination with complete pivoting (Golub
    & Van Loan, section 3.4.8; a NaN wins), which reveals the rank where
    _push's row-by-row pivots can overstate it.

    scale overrides the reference row norm; pass the norm of a parent matrix
    when ranking a modified copy so near-zero noise rows stay below threshold.
    """
    if scale is None:
        scale = max((math.hypot(*row) for row in A), default=0.0)
    rows, rank = list(A), 0
    while rows:
        best, i, col = tol * scale, -1, -1
        for k, row in enumerate(rows):
            for c, a in enumerate(row):
                if abs(a) > best or a != a:
                    best, i, col = abs(a), k, c
        if i < 0:
            return rank
        l = rows.pop(i)
        l = [a / l[col] for a in l]
        rows = [[a - row[col] * b for a, b in zip(row, l)] if row[col] else row
                for row in rows]
        rank += 1
    return rank
