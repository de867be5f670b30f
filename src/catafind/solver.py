"""Damped multistart Newton solver for degenerate-zero conditions.

Solves F = 0 together with the level determinants over states and unfolding
parameters, verifies fullness and subrank at each converged point,
classifies by codimension, and deduplicates roots.  Seeds come from a
deterministic Halton sequence (the first d primes as bases, first 20
points skipped), so repeated runs are reproducible without any RNG state.
Seeds, Newton iterations and reports are computed on Python floats: F
and J come from one compiled function, which also evaluates every
line-search trial, so that an accepted trial's F and J serve the next
iteration; and the damped Newton iteration, with F's max-norm, its
convergence tests, the step's partial-pivoting elimination and the line
search, from one function generated per layout of the unknowns, so their
bits depend on IEEE double arithmetic alone, not on a BLAS build.
find's multistart certifies each new root by Krawczyk's interval test
(module interval, imported on the first certificate), and a later seed
whose iterate enters a certified box ends there, at that box's root.
The steady-state census tracks roots by a parameter homotopy (module
homotopy), refines the real ones by the same Newton solve, and labels them
by the eigenvalues of a real Schur form, also computed on Python floats.
A call on a field equal to the last one's reuses its memo entry
(_system), so a scan's cells build it once; one field's work is kept, and
a fresh process has none.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from . import expr as ex
from .expr import Point, Record, VectorField
from . import determinants as det

LABELS = {1: "fold", 2: "cusp", 3: "swallowtail", 4: "butterfly"}

_MAX_ITERATIONS = 100  # Newton iterations per seed
_RESIDUAL_TOL = 1e-12  # scaled by (1 + max-norm of the unknowns)
_DAMPING = 0.5  # line-search step factor
_MIN_STEP = 2.0 ** -8  # smallest line-search step: at most 9 trials, t = 1 .. 2^-8
_HALTON_SKIP = 20  # leading Halton points left out
# The fewest iterations from a seed to a new root for which find certifies
# a box.  Later seeds reach such a root about as fast, and a stop comes
# only after an accepted trial, so below it a stop saves each seed at most
# two iterations, less than a certificate's two interval runs of F+J cost
_CERTIFY_ITERATIONS = 4
_EPS = 2.0 ** -52  # a subdiagonal entry's split threshold, relative
_QR_STEPS = 30  # QR steps per split before ArithmeticError


def classify(r: int) -> str:
    if r < 1:
        raise ValueError("codimension must be >= 1")
    return LABELS.get(r, f"A_{r}")


def _check_tolerances(opts, spell=str):
    """ValueError unless opts.tol_b and opts.tol_g are finite and > 0 and
    opts.dedup_radius is finite and >= 0, each where opts has it; the
    message names a field as spell(name) does."""
    for name, bound in (("tol_b", "> 0"), ("tol_g", "> 0"), ("dedup_radius", ">= 0")):
        value = getattr(opts, name, 1.0)  # no such field: nothing to check
        if not math.isfinite(value):
            raise ValueError(f"bad {spell(name)}: not a finite number")
        if value < 0 or (value == 0 and bound == "> 0"):
            raise ValueError(f"{spell(name)} must be {bound}, got {value!r}")


class SolveOptions(Record):
    """Seeds per find, the dedup radius and the B/G thresholds.  Each
    seed gets at most _MAX_ITERATIONS Newton iterations; the census reads
    no seed_count."""

    __slots__ = ("seed_count", "dedup_radius", "tol_b", "tol_g")

    def __init__(self, seed_count: int = 256, dedup_radius: float = 1e-6,
                 tol_b: float = det.DEFAULT_TOL_B, tol_g: float = det.DEFAULT_TOL_G):
        if isinstance(seed_count, bool) or not isinstance(seed_count, int):
            raise ValueError(f"seed_count must be an int, got {seed_count!r}")
        if seed_count < 1:
            raise ValueError("counts must be >= 1")
        self.seed_count = seed_count
        self.dedup_radius = dedup_radius  # max-norm over (x, alpha)
        self.tol_b = tol_b
        self.tol_g = tol_g
        _check_tolerances(self)


class NewtonResult(Record):
    __slots__ = ("status", "point", "residual", "iterations")

    def __init__(self, status: str, point: Point | None, residual: float, iterations: int):
        # converged | max-iterations | singular-jacobian | step-underflow | evaluation-error
        self.status = status
        self.point = point
        self.residual = residual
        self.iterations = iterations

    @property
    def ok(self) -> bool:
        return self.status == "converged"


class CatastropheReport(Record):
    __slots__ = ("point", "codim", "label", "residual", "b_values", "g_values",
                 "g_scales", "full", "subrank", "subrank_ok")

    def __init__(self, point: Point, codim: int, label: str, residual: float, b_values: tuple,
                 g_values: dict, g_scales: dict, full: bool, subrank: int, subrank_ok: bool):
        self.point = point
        self.codim = codim
        self.label = label
        self.residual = residual
        self.b_values = b_values
        self.g_values = g_values  # index string -> value
        self.g_scales = g_scales
        self.full = full
        self.subrank = subrank
        self.subrank_ok = subrank_ok


class SteadyStateCensus(Record):
    __slots__ = ("count", "states", "paths")

    def __init__(self, count: int, states: tuple, paths: tuple = ()):
        self.count = count
        self.states = states  # of (Point, stability label)
        self.paths = paths  # per homotopy path: regular | singular | diverged | failed


def halton(dim: int, count: int) -> list:
    """Deterministic low-discrepancy points in [0, 1)^dim, as count lists of
    dim floats: the Halton sequence in the first dim prime bases, from its
    point _HALTON_SKIP + 1 on."""
    out = [[0.0] * dim for _ in range(count)]
    primes = (k for k in itertools.count(2)
              if all(k % q for q in range(2, math.isqrt(k) + 1)))
    for d, base in zip(range(dim), primes):
        for i in range(count):
            n = _HALTON_SKIP + 1 + i
            f, x = 1.0, 0.0
            while n > 0:
                f /= base
                x += f * (n % base)
                n //= base
            out[i][d] = x
    return out


class NewtonSystem:
    """A square system of expressions with its symbolic Jacobian, compiled
    once for fast repeated evaluation over many seeds.  The m unknowns are
    the first m columns of the DeterminantSet D (states, then unfolding
    parameters in D.param_order), and the Jacobian rows are D's rows.

    solve takes a value vector of all n states and declared parameters and
    runs the Newton iteration generated per layout of the unknowns
    (_newton_solve), which calls residual_and_jacobian (one flat tuple of
    floats, F then the row-major J) at the seed and at each line-search
    trial; the next iteration solves its step inline from the F and J of
    the trial accepted.  Unknowns stay Python floats.  An unknown whose J
    column is a constant on one row and zero elsewhere, as an unfolding
    parameter that enters one component additively (rd's b and d), is split
    off (_split_columns): the step eliminates on the other rows and columns
    and recovers it by back-substitution."""

    def __init__(self, D: det.DeterminantSet, eqs):
        n, m = D.field.n, len(eqs)
        slots = tuple(range(n)) + tuple(n + j for j in D.param_order)
        if m > len(slots):
            raise ValueError(f"{m} equations but only {len(slots)} "
                             "states and unfolding parameters")
        self.field = D.field
        jac = [d for e in eqs for d in D.row(e, m)]
        self._fn = ex.compile_evaluator(list(eqs) + jac, n)
        self._slots = slots[:m]  # positions of the unknowns in a value vector
        self._width = n + D.field.r
        self._split = _split_columns(jac, m)
        self._solve = _newton_solve(self._slots, self._width, self._split)
        self._interval_fn = None  # F+J on intervals, bound on the first certify

    def residual_and_jacobian(self, vals):
        """One flat tuple of m + m*m floats: F, then the row-major m x m J."""
        return self._fn(vals)

    def solve(self, start_vals, boxes=()) -> NewtonResult:
        """boxes: certify's bounds, each followed by its root's value
        vector and residual; a seed whose iterate, after an accepted trial,
        lies in a box ends converged at the box's root, with its residual
        and the seed's own iteration count."""
        vals = list(map(float, start_vals))
        if len(vals) != self._width:
            raise ValueError(f"start vector has {len(vals)} values, not {self._width}")
        status, vals, res, iterations = self._solve(vals, self.residual_and_jacobian, boxes)
        n = self.field.n
        point = None if vals is None else Point(tuple(vals[:n]), tuple(vals[n:]))
        return NewtonResult(status, point, res, iterations)

    def certify(self, vals):
        """The bounds (lo, hi per unknown) of a box around the unknowns of
        the value vector vals that Krawczyk's test proves to hold exactly
        one root of the system (interval.krawczyk), or None."""
        from . import interval  # compiled on the first certificate, not on import
        if self._interval_fn is None:
            self._interval_fn = interval.bind(self._fn)
        return interval.krawczyk(self._interval_fn, self._fn, vals, self._slots)


def _split_columns(jac, m: int) -> tuple:
    """The (row, column) pairs of the m x m symbolic Jacobian jac (flat,
    row-major) whose column has one entry that is not the constant 0, a
    finite nonzero constant, on a row that no earlier pair holds; in column
    order.  Such a column's unknown meets the other rows nowhere, so J x =
    -F splits into the system without those rows and columns and one
    back-substitution per pair."""
    split, used = [], set()
    for j in range(m):
        nonzero = [i for i in range(m) if jac[i * m + j] is not ex.ZERO]
        if len(nonzero) == 1 and nonzero[0] not in used:
            i, e = nonzero[0], jac[nonzero[0] * m + j]
            if e.kind == ex.CONST and math.isfinite(e.value):
                split.append((i, j))
                used.add(i)
    return tuple(split)


def _elimination(m: int, x: str, split: tuple = ()) -> list:
    """Source lines that solve J x = -F for an m x m J: Gaussian
    elimination with partial pivoting (Golub & Van Loan, Matrix
    Computations, section 3.4) as straight-line code on locals, each line
    indented relative to the first.  J's entries come in the locals
    ea{i}_{j}, F's in eb{i}, and x{k} receives the solution; every name
    the lines bind but x's starts with e, and J and the eb{i} (b = -F) are
    overwritten.

    Step k pivots on the first maximum of abs(a_ik), i >= k, compared with
    strict >, and swaps rows k and p once; each row i > k then takes
    l = a_ik / a_kk, a_ij -= l*a_kj and b_i -= l*b_k, with b = -F.  Back
    substitution computes x_k = (b_k - a_k,k+1*x_k+1 - ...) / a_kk left to
    right.  A zero pivot raises ZeroDivisionError; a NaN in J gives a
    non-finite x.

    split: (row i, column j) pairs whose column j is zero off row i
    (_split_columns).  The elimination then runs on the other rows and
    columns alone, in their order, an exact submatrix of J, and each pair
    in order gives x_j = (-eb{i} - ea{i}_{k}*x_k - ...) / ea{i}_{j} over
    the other columns k left to right: the lines never write a split row's
    eb{i}, so it still holds F.  With no pair the lines are those of the
    full m x m elimination."""
    rows = [i for i in range(m) if i not in {si for si, _sj in split}]
    cols = [j for j in range(m) if j not in {sj for _si, sj in split}]
    a = [[f"ea{i}_{j}" for j in cols] for i in rows]
    b = [f"eb{i}" for i in rows]

    def swap(k, i):  # rows k and i from column k on, with their b
        pair = a[k][k:] + [b[k]], a[i][k:] + [b[i]]
        return f"{', '.join(pair[0] + pair[1])} = {', '.join(pair[1] + pair[0])}"

    lines = [f"{bi} = -{bi}" for bi in b]
    m = len(rows)  # the order of the system eliminated
    for k in range(m - 1):
        # ep stays 0 (no swap) unless a row i > k >= 0 wins
        lines += [f"es = abs({a[k][k]})", "ep = 0"]
        for i in range(k + 1, m):
            lines += [f"et = abs({a[i][k]})", f"if et > es: es = et; ep = {i}"]
        lines.append("if ep:")
        for i in range(k + 1, m):
            lines += [f"    {'if' if i == k + 1 else 'elif'} ep == {i}:", f"        {swap(k, i)}"]
        for i in range(k + 1, m):
            lines.append(f"el = {a[i][k]} / {a[k][k]}")
            lines += [f"{a[i][j]} -= el*{a[k][j]}" for j in range(k + 1, m)]
            lines.append(f"{b[i]} -= el*{b[k]}")
    for k in reversed(range(m)):
        terms = "".join(f" - {a[k][j]}*{x}{cols[j]}" for j in range(k + 1, m))
        lines.append(f"{x}{cols[k]} = ({b[k]}{terms}) / {a[k][k]}")
    for i, j in split:
        terms = "".join(f" - ea{i}_{k}*{x}{k}" for k in cols)
        lines.append(f"{x}{j} = (-eb{i}{terms}) / ea{i}_{j}")
    return lines


def _first_max(out, names) -> str:
    """A line that sets out = max(names) by max()'s strict >, so that out
    is the first maximum, as a chain of conditional expressions."""
    return "; ".join([f"{out} = {names[0]}"] + [
        f"{out} = {a} if {a} > {out} else {out}" for a in names[1:]])


@functools.cache  # one generated function per unknown layout and split
def _newton_solve(slots: tuple, width: int, split: tuple):
    """The function (vals, residual_and_jacobian, boxes) -> (status,
    vals or None, max-norm of F, iterations) that runs solve's damped
    Newton iteration for unknowns at slots of a value vector of this width,
    as straight-line code on locals: F+J unpacked into eb{i} and ea{i}_{j},
    and the step x{k} for slots[k] from _elimination's lines inline, which
    eliminate on the rows and columns outside split (_split_columns) and
    back-substitute each split unknown; the reduced matrix is an exact
    submatrix of J, so a singular J still raises ZeroDivisionError.
    Max-norms keep max()'s first maximum (_first_max) of a{i} = abs(eb{i});
    the step is finite when each component compares below inf, and so is
    the seed's F.  The line search tries [v0 + t*x0, ..., vj] at t = 1,
    1/2, ..., _MIN_STEP, at most nine trials (v0 + x0 at t = 1: exact, as
    x0 is finite), and accepts the first whose every a{i} is below the
    max-norm, which rejects NaN and inf, so an accepted F is finite; a
    trial whose F+J raises ZeroDivisionError or OverflowError is rejected
    too; with none accepted, step-underflow.  Each trial is evaluated by
    F+J, into the locals that the elimination has consumed, so the next
    pass needs no call; the pass after the last iteration only tests
    convergence, and ends max-iterations when that fails.  After each
    accepted trial the unknowns are compared with each box's bounds, and a
    seed inside one returns the box's root; with no boxes, no float
    operation changes."""
    vs = ", ".join(f"v{j}" for j in range(width))
    m = len(slots)
    trial = ", ".join(f"v{j} + {{t}}x{slots.index(j)}" if j in slots else f"v{j}"
                      for j in range(width))  # {t}: "" at t = 1, else "t*"
    step = "\n            ".join(_elimination(m, "x", split))
    fs = ", ".join(f"eb{i}" for i in range(m))
    ea = ", ".join(f"ea{i}_{j}" for i in range(m) for j in range(m))
    abs_f = "; ".join(f"a{i} = abs(eb{i})" for i in range(m))
    max_norm = _first_max("res", [f"a{i}" for i in range(m)])
    get_scale = "; ".join([f"w{s} = abs(v{s})" for s in slots] + [
        _first_max("scale", [f"w{s}" for s in slots])])
    inside = " and ".join(f"box[{2 * k}] <= v{s} <= box[{2 * k + 1}]" for k, s in enumerate(slots))
    src = f"""def _solve(vals, residual_and_jacobian, boxes):
    {vs}, = vals
    try:
        {fs}, {ea}, = residual_and_jacobian(vals)
    except (ZeroDivisionError, OverflowError):
        return "evaluation-error", None, inf, 0
    {abs_f}
    if not ({" and ".join(f"a{i} < inf" for i in range(m))}):
        return "evaluation-error", None, inf, 0
    for it in range({_MAX_ITERATIONS + 1}):
        {max_norm}
        {get_scale}
        if res <= {_RESIDUAL_TOL!r} * (1.0 + scale):
            return "converged", vals, res, it
        if it == {_MAX_ITERATIONS}:
            return "max-iterations", vals, res, it
        try:
            {step}
        except ZeroDivisionError:
            return "singular-jacobian", vals, res, it
        if not ({" and ".join(f"-inf < x{k} < inf" for k in range(m))}):
            return "singular-jacobian", vals, res, it
        t = 1.0
        trial = [{trial.format(t="")}]
        while True:
            try:
                {fs}, {ea}, = residual_and_jacobian(trial)
                if {" and ".join(f"(a{i} := abs(eb{i})) < res" for i in range(m))}:
                    break
            except (ZeroDivisionError, OverflowError):
                pass
            t *= {_DAMPING!r}
            if t < {_MIN_STEP!r}:
                return "step-underflow", vals, res, it
            trial = [{trial.format(t="t*")}]
        {vs}, = vals = trial
        for box in boxes:
            if {inside}:
                return "converged", box[{2 * m}], box[{2 * m + 1}], it + 1
"""
    namespace: dict = {"inf": math.inf}
    exec(src, namespace)
    return namespace["_solve"]


def _dedup(solutions, radius):
    """Sort lexicographically then merge points within max-norm radius,
    keeping the smaller residual per cluster."""
    kept = []
    for vals, res in sorted(solutions, key=lambda s: tuple(s[0])):
        for i, (kvals, kres) in enumerate(kept):
            if max(map(abs, map(operator.sub, vals, kvals))) <= radius:
                if res < kres:
                    kept[i] = (vals, res)
                break
        else:
            kept.append((vals, res))
    kept.sort(key=lambda s: tuple(s[0]))
    return kept


# One field's work, reused by calls on an equal field (compared by value, so
# a rebuilt or re-parsed field hits): (key, DeterminantSet, a dict of the
# NewtonSystem per codimension r, 0 being the census's F alone, and the
# census's Homotopy under "census").  Dropped before another field's is
# built.
_memo = None


def _system(field: VectorField, param_order=None, r: int | None = None):
    """(D, the NewtonSystem of F, B_1, ..., B_{r,(1,...,1)}) from the memo;
    the system is None when r is None."""
    global _memo
    key = (field, tuple(range(field.r)) if param_order is None else tuple(param_order))
    if _memo is None or _memo[0] != key:
        _memo = None
        _memo = (key, det.DeterminantSet(field, param_order=key[1]), {})
    _key, D, cache = _memo
    if r is not None and r not in cache:
        cache[r] = NewtonSystem(D, list(field.components) + [
            D.build_B(i, (1,) * (i - 1)) for i in range(1, r + 1)])
    return D, cache.get(r)


@functools.cache  # once per process: every field's seeds scale the same points
def _unit_points(dim: int, count: int) -> tuple:
    return tuple(map(tuple, halton(dim, count)))


def _seed_values(box, count):
    """The seeds of box, scaled from the unit Halton points."""
    box = [(float(lo), float(hi)) for lo, hi in box]
    for lo, hi in box:
        if not lo < hi:
            raise ValueError(f"empty seed interval [{lo}, {hi}]")
        if hi - lo == math.inf:  # the seeds would overflow to inf
            raise ValueError(f"seed interval [{lo}, {hi}] wider than the largest float")
    return [[lo + x * (hi - lo) for x, (lo, hi) in zip(pt, box)]
            for pt in _unit_points(len(box), count)]


def find_catastrophes(field: VectorField, r: int, box,
                      opts: SolveOptions | None = None, *,
                      fixed: dict | None = None,
                      param_order=None) -> list:
    """Multistart Newton on (F, B_1, ..., B_r) over (x, unfolding alphas).

    box: (lo, hi) per unknown, variables first then the r unfolding
    parameters.  fixed: values for the non-unfolding parameters (by name or
    index; unlisted ones stay at 0; naming an unfolding one is a
    ValueError).  Non-full solutions are returned flagged, not discarded.
    A seed that converges in at least _CERTIFY_ITERATIONS iterations, with
    no earlier root within opts.dedup_radius, runs NewtonSystem.certify, and
    each certified box stops the later seeds that enter it
    (NewtonSystem.solve's boxes).
    """
    opts = opts or SolveOptions()
    if r < 1:
        raise ValueError("codimension must be >= 1")
    if r > field.r:
        raise ValueError(
            f"codimension {r} exceeds the field's {field.r} parameters")
    if len(box) != field.n + r:
        raise ValueError(f"box needs {field.n + r} intervals (states, then the "
                         f"unfolding parameters), got {len(box)}")
    solved = tuple(range(field.r) if param_order is None else param_order)[:r]
    for key in fixed or ():
        if _param_index(field, key) in solved:
            raise ValueError(f"parameter {key!r} is one of the {r} unfolding "
                             "parameters, which are solved for, not fixed")
    alpha0 = _resolve_fixed(field, fixed)
    D, system = _system(field, param_order, r)
    template = list(tuple(0.0 for _ in range(field.n)) + alpha0)
    slots = system._slots

    hits, roots, boxes = [], [], []
    for seed in _seed_values(box, opts.seed_count):
        vals = list(template)
        for s, v in zip(slots, seed):
            vals[s] = v
        result = system.solve(vals, boxes)
        if result.ok:
            y = result.point.vals()
            hits.append((y, result.residual))
            # a new root: certified, its box stops the seeds that enter it
            if result.iterations >= _CERTIFY_ITERATIONS and not any(
                    max(map(abs, map(operator.sub, y, root))) <= opts.dedup_radius
                    for root in roots):
                roots.append(y)
                bounds = system.certify(y)
                if bounds is not None:
                    boxes.append(bounds + (y, result.residual))

    reports = []
    for vals, res in _dedup(hits, opts.dedup_radius):
        p = Point(tuple(vals[:field.n]), tuple(vals[field.n:]))
        reports.append(build_report(D.level(r, p), res, opts))
    return reports


def build_report(level: det.Level, residual: float,
                 opts: SolveOptions | None = None) -> CatastropheReport:
    """Evaluate every fullness and degeneracy check of a solved point, all
    read from its level."""
    opts = opts or SolveOptions()
    r, n = level.r, len(level.p.x)
    g_values = {}
    g_scales = {}
    for K in det.index_strings(n, r - 1):
        g_values[K], g_scales[K] = level.g(K)
    b_values = tuple(level.b(i, (1,) * (i - 1))[0] for i in range(1, r + 1))
    full = all(
        det.is_nonzero(g_values[K], g_scales[K], opts.tol_g) for K in g_values)
    sr = level.subrank(opts.tol_b)
    return CatastropheReport(
        point=level.p, codim=r, label=classify(r), residual=residual,
        b_values=b_values, g_values=g_values, g_scales=g_scales,
        full=full, subrank=sr, subrank_ok=(sr == n - 1))


def _param_index(field: VectorField, key) -> int:
    """The declared index of a parameter given by name or index."""
    if isinstance(key, str):
        if key not in field.param_names:
            raise ValueError(f"cannot fix {key!r}: not a declared parameter")
        return field.param_names.index(key)
    idx = int(key)
    if not 0 <= idx < field.r:
        raise ValueError(f"parameter index {idx} out of range")
    return idx


def _resolve_fixed(field: VectorField, fixed) -> tuple:
    alpha = [0.0] * field.r
    for key, value in (fixed or {}).items():
        idx, value = _param_index(field, key), float(value)
        if not math.isfinite(value):
            raise ValueError(f"fixed value of {key!r} is not a finite number: {value!r}")
        alpha[idx] = value
    return tuple(alpha)


# ---------------------------------------------------------------------------
# steady states and stability

def stability_label(J, tol: float = det.DEFAULT_TOL_B) -> str:
    """A steady state's label from the eigenvalues of its Jacobian J (rows
    of numbers); a J with a NaN or an infinity, or whose QR iteration does
    not converge, raises ArithmeticError, a numerical failure for the CLI."""
    a = [[float(v) for v in row] for row in J]
    if not all(map(math.isfinite, itertools.chain.from_iterable(a))):
        raise ArithmeticError("eigenvalues: the Jacobian is not finite")
    eig = _eigenvalues(a)
    if all(e.real < -tol for e in eig):
        return "attracting"
    if all(e.real > tol for e in eig):
        return "repelling"
    if any(e.real > tol for e in eig) and any(e.real < -tol for e in eig):
        return "saddle"
    if any(abs(e.real) <= tol and abs(e.imag) > tol for e in eig):
        return "center"
    return "degenerate"


def _eigenvalues(a) -> list:
    """The eigenvalues of the square matrix a (rows of floats, overwritten)
    from its real Schur form (Golub & Van Loan, Matrix Computations,
    sections 7.4-7.5): Householder reduction to Hessenberg form, then
    Francis double-shift QR steps on the window a[l..h][l..h] below which
    everything has split off, until a 1x1 or 2x2 block splits off its end
    and gives its eigenvalues in closed form (_block).  A subdiagonal entry
    splits when it is at most eps times its two diagonal neighbours.  Only
    the window is updated, since no Schur vectors are wanted; at order
    n <= 2 the matrix splits at once, with no QR step."""
    n = len(a)
    for k in range(n - 2):  # zero column k below row k + 1
        _reflect(a, [a[i][k] for i in range(k + 1, n)], k + 1, range(k, n), range(n))
    norm = max((sum(map(abs, row)) for row in a), default=0.0)  # for a zero diagonal
    eig, h, its = [], n - 1, 0
    while h >= 0:
        l = h
        while l and abs(a[l][l - 1]) > _EPS * ((abs(a[l - 1][l - 1]) + abs(a[l][l])) or norm):
            l -= 1
        if l >= h - 1:
            eig += _block(a[l][l], a[l][h], a[h][l], a[h][h]) if l < h else [complex(a[h][h])]
            h, its = l - 1, 0
            continue
        if its == _QR_STEPS:
            raise ArithmeticError("eigenvalues: the QR iteration did not converge")
        its += 1
        if its % 10:  # the shifts are the last 2x2 block's eigenvalues
            tr = a[h - 1][h - 1] + a[h][h]
            dt = a[h - 1][h - 1] * a[h][h] - a[h - 1][h] * a[h][h - 1]
        else:  # an exceptional shift, after 10 and 20 steps without a split
            w = abs(a[h][h - 1]) + abs(a[h - 1][h - 2])
            tr, dt = 1.5 * w + 2.0 * a[h][h], (0.75 * w + a[h][h]) ** 2 + 0.4375 * w * w
        # the first column of (A - s1 I)(A - s2 I), then the bulge it makes
        x = a[l][l] * a[l][l] + a[l][l + 1] * a[l + 1][l] - tr * a[l][l] + dt
        y = a[l + 1][l] * (a[l][l] + a[l + 1][l + 1] - tr)
        z = a[l + 1][l] * a[l + 2][l + 1]
        for k in range(l, h - 1):
            _reflect(a, [x, y, z], k, range(max(l, k - 1), h + 1), range(l, min(k + 3, h) + 1))
            x, y = a[k + 1][k], a[k + 2][k]
            z = a[k + 3][k] if k < h - 2 else 0.0
        _reflect(a, [x, y], h - 1, range(h - 2, h + 1), range(l, h + 1))
    return eig


def _reflect(a, v, lo, cols, rows):
    """a <- P a P, P the Householder reflection on indices lo .. lo +
    len(v) - 1 that maps v to a multiple of its first unit vector: P a on
    the given columns, then a P on the given rows; nothing if v is 0."""
    alpha = math.copysign(math.hypot(*v), v[0])
    if alpha == 0.0:
        return
    v = [v[0] + alpha, *v[1:]]
    beta = 1.0 / (alpha * v[0])  # 2 / (v . v)
    hi = lo + len(v)
    reflected = a[lo:hi]
    for j in cols:
        f = beta * sum([vi * row[j] for vi, row in zip(v, reflected)])
        for vi, row in zip(v, reflected):
            row[j] -= f * vi
    for i in rows:
        row = a[i]
        f = beta * sum(map(operator.mul, v, row[lo:hi]))
        row[lo:hi] = [w - f * vi for vi, w in zip(v, row[lo:hi])]


def _block(a, b, c, d) -> list:
    """The eigenvalues of [[a, b], [c, d]]: d + p +- sqrt(p^2 + bc), p =
    (a - d) / 2, a real pair as d + z and d - bc / z, z = p + sign(p)
    sqrt(p^2 + bc), so that neither cancels."""
    p = 0.5 * (a - d)
    disc = p * p + b * c
    if disc < 0.0:
        w = complex(d + p, math.sqrt(-disc))
        return [w, w.conjugate()]
    z = p + math.copysign(math.sqrt(disc), p)
    return [complex(d + z), complex(d - b * c / z if z else d)]


def count_steady_states(field: VectorField, alpha, box,
                        opts: SolveOptions | None = None, *,
                        axes=None) -> SteadyStateCensus:
    """The states in box where F = 0 at parameters alpha: the real ends of
    homotopy.Homotopy's paths, refined by NewtonSystem.solve on F, with
    stability labels from the Jacobian eigenvalues.  census.paths says how
    each path ended; a state may be missing where one diverged or failed.
    axes: the declared indices of the parameters that vary from call to
    call (None: all of them); a sweep that fixes the others tracks each
    call's paths from one start on its own plane (Homotopy.track)."""
    opts = opts or SolveOptions()
    alpha = tuple(float(a) for a in alpha)
    if len(alpha) != field.r:
        raise ValueError(f"expected {field.r} parameter values")
    if not all(map(math.isfinite, alpha)):
        raise ValueError(f"parameter values {alpha} are not all finite numbers")
    if len(box) != field.n:
        raise ValueError(f"box needs {field.n} intervals (one per state), got {len(box)}")
    if not all(lo < hi for lo, hi in box):
        raise ValueError(f"empty state interval in box {box}")
    from . import homotopy  # compiled on the first census, not on import
    _D, system = _system(field, r=0)
    if "census" not in _memo[2]:
        _memo[2]["census"] = homotopy.Homotopy(field)
    paths, ends = _memo[2]["census"].track(alpha, axes)
    hits = []
    for i, x in ends:
        result = system.solve(x + list(alpha))
        if result.ok:
            x = result.point.x
            if all(lo - 10 * opts.dedup_radius <= xi <= hi + 10 * opts.dedup_radius
                   for xi, (lo, hi) in zip(x, box)):
                hits.append((x, result.residual))
        elif paths[i] == "singular":
            paths[i] = "failed"  # the endgame's estimate is no root of F
    states = []
    for x, _res in _dedup(hits, opts.dedup_radius):
        p = Point(tuple(x), alpha)
        m = len(x)
        J = system.residual_and_jacobian(p.vals())[m:]
        rows = [J[k:k + m] for k in range(0, m * m, m)]
        states.append((p, stability_label(rows, opts.tol_b)))
    return SteadyStateCensus(count=len(states), states=tuple(states), paths=tuple(paths))
