"""Outside-in layer tracing for the benchmark's traced runs.

The tracer wraps the public functions of each catafind module from the
benchmark's own files; nothing under src/ knows about it.  Every wrapper is
installed where the name is looked up:

- module attributes that callers reach through the module (`solver.build_report`,
  `det.subrank`, `numpy.linalg.solve`, `cli.main`);
- class attributes for methods (`NewtonSystem.solve`, `DeterminantSet.build_B`);
- names a module bound by `from ... import` (`cli.make_reaction_diffusion`);
- the `ex` alias in each consumer module for the recursive `expr` functions.
  The alias points at a copy of the `expr` namespace with wrapped entries,
  so the recursion inside `expr` keeps calling the originals and only the
  outermost call of `differentiate` or `evaluate` is recorded.

Spans are kept in memory as (name, id, parent id, start, end, info) and
summarized when the run ends.  The Newton loop's per-iteration calls (F+J,
residual, linear solve) are "leaf" spans: they are only counted and timed
per parent span, which keeps the tracing overhead low.  Scan cells that run
on the CLI's worker threads are recorded with the span that submitted them
as their parent.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
import types

_clock = time.perf_counter


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []  # open span ids, innermost last
        self.root = None  # parent id for spans opened on a pool thread
        self.outer = set()  # outermost-only span names open on this thread
        self.leaf = None  # (name, parent id) -> [count, seconds]


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._state = _ThreadState()
        self._leaf_tables = []
        self._lock = threading.Lock()
        self._undo = []

    # -- recording ---------------------------------------------------------

    def current(self):
        st = self._state
        return st.stack[-1] if st.stack else st.root

    def span(self, name, fn, *, outermost=False, info=None):
        """Wrap fn so that each call records a span named `name`.  With
        outermost=True, calls made while one is open on the same thread
        go straight to fn.  info(result) is stored with the span."""
        def wrapper(*args, **kwargs):
            st = self._state
            if outermost:
                if name in st.outer:
                    return fn(*args, **kwargs)
                st.outer.add(name)
            sid = next(self._ids)
            parent = st.stack[-1] if st.stack else st.root
            st.stack.append(sid)
            t0 = _clock()
            result = extra = None
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    extra = info(result)
                return result
            finally:
                t1 = _clock()
                st.stack.pop()
                if outermost:
                    st.outer.discard(name)
                self.spans.append((name, sid, parent, t0, t1, extra))
        return wrapper

    def leaf(self, name, fn):
        """Wrap a high-frequency call: count and time it per parent span."""
        def wrapper(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                st = self._state
                table = st.leaf
                if table is None:
                    table = st.leaf = {}
                    with self._lock:
                        self._leaf_tables.append(table)
                key = (name, st.stack[-1] if st.stack else st.root)
                row = table.get(key)
                if row is None:
                    table[key] = [1, dt]
                else:
                    row[0] += 1
                    row[1] += dt
        return wrapper

    def _adopt(self, parent, fn, *args, **kwargs):
        st = self._state
        st.root = parent
        try:
            return fn(*args, **kwargs)
        finally:
            st.root = None

    def pool_class(self, base):
        """A subclass of the executor class `base` whose tasks record their
        spans under the span that submitted them."""
        tracer = self

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer._adopt, tracer.current(), fn,
                                      *args, **kwargs)
        return TracedPool

    # -- installing --------------------------------------------------------

    def replace(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def patch(self, owner, attr, name, *, leaf=False, **kwargs):
        """Wrap owner.attr in place; a name the program no longer has is
        skipped, and its metrics read 0."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        wrapped = self.leaf(name, fn) if leaf else self.span(name, fn, **kwargs)
        self.replace(owner, attr, wrapped)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def leaf_rows(self):
        with self._lock:
            tables = list(self._leaf_tables)
        for table in tables:
            for (name, parent), (count, seconds) in list(table.items()):
                yield name, parent, count, seconds


def _compiled_nodes(fn):
    # one local per computed interior node, plus the argument vector
    code = getattr(fn, "__code__", None)
    return code.co_nlocals - 1 if code is not None else 0


def _newton_outcome(result):
    return (result.status, result.iterations)


def install(tracer: Tracer):
    """Wrap every traced catafind function; undo with tracer.restore()."""
    import numpy.linalg
    from catafind import cli, expr, scenarios, solver
    from catafind import determinants as det

    view = types.SimpleNamespace(**vars(expr))
    view.differentiate = tracer.span("expr.differentiate", expr.differentiate)
    view.evaluate = tracer.span("expr.evaluate", expr.evaluate)
    view.compile_evaluator = tracer.span("expr.compile", expr.compile_evaluator,
                                         info=_compiled_nodes)
    view.parse_vector_field = tracer.span("expr.parse", expr.parse_vector_field)
    for module in (cli, det, scenarios, solver):
        if hasattr(module, "ex"):
            tracer.replace(module, "ex", view)

    tracer.patch(cli, "main", "cli.main")
    tracer.patch(cli, "make_reaction_diffusion", "scenarios.build")
    tracer.patch(cli, "make_primary_form", "scenarios.build")
    if hasattr(cli, "ThreadPoolExecutor"):
        tracer.replace(cli, "ThreadPoolExecutor",
                       tracer.pool_class(cli.ThreadPoolExecutor))

    tracer.patch(solver, "find_catastrophes", "solver.find")
    tracer.patch(solver, "count_steady_states", "solver.census")
    tracer.patch(solver, "build_report", "solver.report")
    tracer.patch(solver, "stability_label", "solver.stability")
    system = getattr(solver, "NewtonSystem", None)
    if system is not None:
        tracer.patch(system, "__init__", "solver.system_build")
        tracer.patch(system, "solve", "solver.solve", info=_newton_outcome)
        tracer.patch(system, "residual_and_jacobian", "solver.fj", leaf=True)
        tracer.patch(system, "residual", "solver.residual", leaf=True)
    tracer.patch(numpy.linalg, "solve", "solver.linsolve", leaf=True)

    dset = getattr(det, "DeterminantSet", None)
    if dset is not None:
        tracer.patch(dset, "build_B", "determinants.build_B", outermost=True)
        tracer.patch(dset, "g_matrix", "determinants.g_matrix")
        tracer.patch(dset, "build_G", "determinants.build_G")
        tracer.patch(dset, "g_at", "determinants.g_at")
        tracer.patch(dset, "b_at", "determinants.b_at")
    tracer.patch(det, "subrank", "determinants.subrank")


# ---------------------------------------------------------------------------
# summary

NEWTON_STATUSES = ("converged", "step-underflow", "max-iterations",
                   "singular-jacobian", "evaluation-error")

# (metric, unit, better); every metric is reported on every workload
LAYER_METRICS = (
    ("solver.seeds", "count", "lower"),
    ("solver.iterations", "count", "lower"),
    *((f"solver.status.{s}", "count", "higher" if s == "converged" else "lower")
      for s in NEWTON_STATUSES),
    ("solver.converged_ratio", "ratio", "higher"),
    ("solver.fj_evals", "count", "lower"),
    ("solver.fj_s", "s", "lower"),
    ("solver.residual_evals", "count", "lower"),
    ("solver.residual_s", "s", "lower"),
    ("solver.linsolve_s", "s", "lower"),
    ("solver.solve_s", "s", "lower"),
    ("solver.wasted_eval_share", "ratio", "lower"),
    ("solver.system_builds", "count", "lower"),
    ("solver.system_build_s", "s", "lower"),
    ("expr.differentiate_s", "s", "lower"),
    ("expr.differentiate_calls", "count", "lower"),
    ("expr.compile_s", "s", "lower"),
    ("expr.compile_calls", "count", "lower"),
    ("expr.compiled_nodes", "count", "lower"),
    ("solver.census_s", "s", "lower"),
    ("solver.stability_s", "s", "lower"),
    ("cli.scan_cell_p50_s", "s", "lower"),
    ("cli.scan_cell_p90_s", "s", "lower"),
    ("cli.scan_concurrency", "ratio", "higher"),
    ("determinants.build_B_s", "s", "lower"),
    ("determinants.build_B_calls", "count", "lower"),
    ("determinants.g_matrix_s", "s", "lower"),
    ("determinants.build_G_s", "s", "lower"),
    ("determinants.g_dets", "count", "lower"),
    ("determinants.g_at_s", "s", "lower"),
    ("determinants.b_at_s", "s", "lower"),
    ("determinants.subrank_s", "s", "lower"),
    ("expr.evaluate_s", "s", "lower"),
    ("expr.evaluate_calls", "count", "lower"),
    ("solver.report_s", "s", "lower"),
    ("solver.report_share", "ratio", "lower"),
    ("determinants.build_B_share", "ratio", "lower"),
    ("cli.self_s", "s", "lower"),
    ("expr.parse_s", "s", "lower"),
    ("scenarios.build_s", "s", "lower"),
    ("expr.intern_nodes", "count", "lower"),
    ("op_traced_s", "s", "lower"),
)

# Counters that must repeat exactly between two traced runs of one input.
EXACT = tuple(name for name, unit, _ in LAYER_METRICS
              if unit == "count" or name in ("solver.converged_ratio",
                                             "solver.wasted_eval_share"))


def _covered(start, end, intervals) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def summarize(tracer: Tracer, intern_nodes: int) -> dict:
    """Layer metrics per op.  An op is a scan cell when the run scanned,
    else a CLI call.  Counts and seconds are totals divided by the op count;
    ratios and the cell percentiles are not, and expr.intern_nodes is the
    table's size at the end.  Seconds include nested spans, except
    solver.census_s and cli.self_s, which are self times."""
    by_name: dict = {}
    children: dict = {}
    for span in tracer.spans:
        by_name.setdefault(span[0], []).append(span)
        children.setdefault(span[2], []).append((span[3], span[4]))
    leaf_count: dict = {}
    leaf_seconds: dict = {}
    evals_under: dict = {}
    for name, parent, count, seconds in tracer.leaf_rows():
        leaf_count[name] = leaf_count.get(name, 0) + count
        leaf_seconds[name] = leaf_seconds.get(name, 0.0) + seconds
        if name in ("solver.fj", "solver.residual"):
            evals_under[parent] = evals_under.get(parent, 0) + count

    def spans(name):
        return by_name.get(name, [])

    def seconds(name):
        return sum(s[4] - s[3] for s in spans(name))

    def self_seconds(name):
        return sum(s[4] - s[3] - _covered(s[3], s[4], children.get(s[1], ()))
                   for s in spans(name))

    cells = spans("solver.census")
    ops = len(cells) or len(spans("cli.main")) or 1
    solves = spans("solver.solve")
    outcomes = [s[5] for s in solves if s[5] is not None]
    status = {st: sum(1 for o in outcomes if o[0] == st) for st in NEWTON_STATUSES}
    evals = sum(evals_under.get(s[1], 0) for s in solves)
    wasted = sum(evals_under.get(s[1], 0) for s in solves
                 if s[5] is None or s[5][0] != "converged")
    cell_times = sorted(s[4] - s[3] for s in cells)
    scan_wall = sum(s[4] - s[3] for s in spans("cli.main")) if cells else 0.0
    op_s = seconds("cli.main")

    def pct(q):
        if not cell_times:
            return 0.0
        return statistics.quantiles(cell_times, n=100, method="inclusive")[q - 1] \
            if len(cell_times) > 1 else cell_times[0]

    out = {
        "solver.seeds": len(solves),
        "solver.iterations": sum(o[1] for o in outcomes),
        **{f"solver.status.{st}": n for st, n in status.items()},
        "solver.converged_ratio": status["converged"] / len(solves) if solves else 0.0,
        "solver.fj_evals": leaf_count.get("solver.fj", 0),
        "solver.fj_s": leaf_seconds.get("solver.fj", 0.0),
        "solver.residual_evals": leaf_count.get("solver.residual", 0),
        "solver.residual_s": leaf_seconds.get("solver.residual", 0.0),
        "solver.linsolve_s": leaf_seconds.get("solver.linsolve", 0.0),
        "solver.solve_s": seconds("solver.solve"),
        "solver.wasted_eval_share": wasted / evals if evals else 0.0,
        "solver.system_builds": len(spans("solver.system_build")),
        "solver.system_build_s": seconds("solver.system_build"),
        "expr.differentiate_s": seconds("expr.differentiate"),
        "expr.differentiate_calls": len(spans("expr.differentiate")),
        "expr.compile_s": seconds("expr.compile"),
        "expr.compile_calls": len(spans("expr.compile")),
        "expr.compiled_nodes": sum(s[5] or 0 for s in spans("expr.compile")),
        "solver.census_s": self_seconds("solver.census"),
        "solver.stability_s": seconds("solver.stability"),
        "cli.scan_cell_p50_s": pct(50),
        "cli.scan_cell_p90_s": pct(90),
        "cli.scan_concurrency": (sum(cell_times) / scan_wall) if scan_wall else 0.0,
        "determinants.build_B_s": seconds("determinants.build_B"),
        "determinants.build_B_calls": len(spans("determinants.build_B")),
        "determinants.g_matrix_s": seconds("determinants.g_matrix"),
        "determinants.build_G_s": seconds("determinants.build_G"),
        "determinants.g_dets": len(spans("determinants.build_G")),
        "determinants.g_at_s": seconds("determinants.g_at"),
        "determinants.b_at_s": seconds("determinants.b_at"),
        "determinants.subrank_s": seconds("determinants.subrank"),
        "expr.evaluate_s": seconds("expr.evaluate"),
        "expr.evaluate_calls": len(spans("expr.evaluate")),
        "solver.report_s": seconds("solver.report"),
        "solver.report_share": seconds("solver.report") / op_s if op_s else 0.0,
        "determinants.build_B_share": (seconds("determinants.build_B") / op_s
                                       if op_s else 0.0),
        "cli.self_s": self_seconds("cli.main"),
        "expr.parse_s": seconds("expr.parse"),
        "scenarios.build_s": seconds("scenarios.build"),
        "op_traced_s": op_s,
    }
    whole = {name for name, unit, _ in LAYER_METRICS if unit == "ratio"}
    whole |= {"cli.scan_cell_p50_s", "cli.scan_cell_p90_s"}
    out = {k: (v if k in whole else v / ops) for k, v in out.items()}
    out["expr.intern_nodes"] = intern_nodes
    out["ops"] = ops
    return out
