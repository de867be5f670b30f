"""Singularity-symbol machinery: minor counting and singularity symbols.

The number of minors needed to pin down each successive symbol entry grows
superfactorially; the counting recurrence here is exact (arbitrary-precision
integers).  At desk scale boardman_symbol builds the chain of extended maps
stage by stage, each stage appending every full-size minor of the previous
stage's Jacobian, and reads the symbol off numerically.  A symbol
belongs to x -> F(x, alpha) at one alpha: the declared field's Jacobian
rows come from a DeterminantSet, in the states only, read at (x, alpha).
"""

from __future__ import annotations

import itertools
import math

from . import expr as ex
from .expr import Frozen, Point, VectorField
from . import determinants as det


class CapExceededError(RuntimeError):
    def __init__(self, predicted: int, cap: int):
        super().__init__(
            f"stage would hold {predicted} expressions, above the cap {cap}")
        self.predicted = predicted
        self.cap = cap


class ToleranceError(RuntimeError):
    pass


class MinorCount(Frozen):
    """Exact per-stage counts of new minors for a corank sequence."""

    __slots__ = ("n", "corank_seq", "stage_counts", "appendix_total", "table_total")

    def __init__(self, n: int, corank_seq: tuple, stage_counts: tuple,
                 appendix_total: int, table_total: int):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "corank_seq", corank_seq)
        object.__setattr__(self, "stage_counts", stage_counts)  # N_1 .. N_r
        object.__setattr__(self, "appendix_total", appendix_total)  # sum_{j>=1} N_j
        object.__setattr__(self, "table_total", table_total)  # n + sum_{j>=1} N_j

    @property
    def cumulative(self) -> tuple:
        """Row counts of each stage, starting with N_0 = n."""
        out = [self.n]
        for c in self.stage_counts:
            out.append(out[-1] + c)
        return tuple(out)


def minor_count(n: int, corank_seq) -> MinorCount:
    """Count the new minors per stage: each stage j takes the
    (n - i_j + 1)-size minors of the gradient of everything so far.  A row
    count past 4300 digits, which CPython will not print, is a ValueError."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    corank_seq = tuple(int(i) for i in corank_seq)
    for i in corank_seq:
        if not 1 <= i <= n:
            raise ValueError(f"corank entry {i} outside 1..{n}")
    counts = []
    cum = n
    for i in corank_seq:
        s = n - i + 1
        nj = math.comb(n, s) * math.comb(cum, s)
        counts.append(nj)
        cum += nj
        if cum >= 10 ** 4300:  # stop before the next stage squares it
            raise ValueError(f"the stage-{len(counts)} row count has more than "
                             "4300 digits, too many to print")
    total = sum(counts)
    return MinorCount(n, corank_seq, tuple(counts), total, n + total)


def bg_condition_count(n: int, r: int) -> int:
    """Conditions needed for a codimension-r degenerate zero via the level
    determinants: the n field components plus the r determinants."""
    if n < 1 or r < 1:
        raise ValueError("need n >= 1 and r >= 1")
    return n + r


def _stage_minors(stage, D: det.DeterminantSet, size: int):
    """Every size x size minor of the state gradient of the stage."""
    n = D.field.n
    rows = [D.row(c, n) for c in stage]
    minors = []
    for ridx in itertools.combinations(range(len(rows)), size):
        for cidx in itertools.combinations(range(n), size):
            sub = [[rows[i][j] for j in cidx] for i in ridx]
            minors.append(det.sym_det(sub))
    return minors


def _gradient_rows(exprs, D: det.DeterminantSet, p: Point) -> list:
    """Gradient rows of exprs evaluated at p, through one compiled function."""
    n = D.field.n
    flat = [e for c in exprs for e in D.row(c, n)]
    values = ex.compile_evaluator(flat, n)(p.vals())
    return [values[k:k + n] for k in range(0, len(values), n)]


def boardman_symbol(field: VectorField, p: Point, max_depth: int = 4,
                    cap: int = 10_000, tol: float = det.DEFAULT_TOL_B) -> tuple:
    """Corank sequence of the iterated extended maps of x -> F(x, p.alpha)
    at p.x, terminating at the first zero, over at most max_depth >= 1
    stages.  The sequence is non-increasing by construction; an increase is
    reported as a numerical-tolerance failure."""
    if len(p.x) != field.n or len(p.alpha) != field.r:
        raise ValueError(f"the point needs {field.n} states and {field.r} parameters")
    if max_depth < 1:
        raise ValueError(f"max depth must be >= 1, got {max_depth}")
    n = field.n
    D = det.DeterminantSet(field)
    stage = ()
    new = tuple(field.components)
    rows = []  # gradient rows of the stage, evaluated at p
    symbol = []
    for depth in range(1, max_depth + 1):
        stage += new
        rows += _gradient_rows(new, D, p)
        corank = n - det.numeric_rank(rows, tol)
        if corank == 0:
            break
        if symbol and corank > symbol[-1]:
            raise ToleranceError(
                f"symbol increased from {symbol[-1]} to {corank}; "
                "numerical tolerance failure")
        symbol.append(corank)
        if depth == max_depth:  # no stage after the last corank is read
            break
        predicted = minor_count(n, symbol).cumulative[-1]
        if predicted > cap:
            raise CapExceededError(predicted, cap)
        new = tuple(_stage_minors(stage, D, n - corank + 1))
    return tuple(symbol)
