"""Command-line front end.

Subcommands: `find` (multistart catastrophe search), `check` (pointwise
determinant/subrank verdicts), `scan` (parameter-plane steady-state census
as CSV), `count-minors` (exact minor-counting recurrence), and `boardman`
(singularity symbol of a field with parameters fixed).

Reports are JSON with a `"schema": 1` field; grids are CSV.  All floats are
printed with 17 significant digits and results are sorted before emission,
so identical commands on identical inputs produce byte-identical output.
Exit codes: 0 success (including empty result sets), 2 usage or parse
error, 3 numerical failure.  A document is written once, whole, so a
failed command writes nothing.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from json.encoder import encode_basestring_ascii as _json_str  # = json.dumps(str)

from . import __version__
from . import expr as ex
from . import determinants as det
from . import solver
from . import boardman as bo
from .scenarios import PrimaryFormSpec, make_primary_form, make_reaction_diffusion


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# deterministic serialization

def _fmt_float(v: float) -> str:
    return "%.17g" % v if math.isfinite(v) else "null"


def _to_json(value, pad: str = "\n") -> str:
    """value as JSON indented by two spaces a level; pad is a newline and
    the current indent."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, str):
        return _json_str(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [_json_str(str(k)) + ": " + _to_json(v, inner)
                 for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_to_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _emit(text: str, out: str | None):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _document(argv, input_text, **payload) -> dict:
    if input_text is not None:
        import hashlib  # here, not at start-up: scan and count-minors hash nothing
        input_text = hashlib.sha256(input_text.encode("utf-8")).hexdigest()
    doc = {
        "schema": 1,
        "tool": f"catafind {__version__}",
        "input_sha256": input_text,
        "command": list(argv),
    }
    doc.update(payload)
    return doc


# ---------------------------------------------------------------------------
# flag parsing helpers

def _finite(text: str, message: str) -> float:
    """A flag's number; nan and inf are usage errors, like non-numbers."""
    try:
        value = float(text)
    except ValueError:
        raise UsageError(message) from None
    if not math.isfinite(value):
        raise UsageError(f"{message}: not a finite number")
    return value


def _parse_pairs(text: str | None) -> dict:
    """\"a=1,b=-2.5\" -> {\"a\": 1.0, \"b\": -2.5}"""
    out: dict = {}
    if not text:
        return out
    for item in text.split(","):
        name, sep, value = item.partition("=")
        name = name.strip()
        if not sep or not name:
            raise UsageError(f"expected name=value, got {item!r}")
        if name in out:
            raise UsageError(f"duplicate assignment for {name!r}")
        out[name] = _finite(value, f"bad numeric value in {item!r}")
    return out


def _parse_intervals(text: str) -> list:
    """\"-1:1,0:2\" -> [(-1.0, 1.0), (0.0, 2.0)]"""
    out = []
    for item in text.split(","):
        lo, sep, hi = item.partition(":")
        if not sep:
            raise UsageError(f"expected lo:hi, got {item!r}")
        bad = f"bad interval {item!r}"
        out.append((_finite(lo, bad), _finite(hi, bad)))
    return out


def _make_builtin(spec: str):
    name, _, rest = spec.partition(":")
    if name == "rd":
        if rest:
            raise UsageError("builtin rd takes no options")
        return make_reaction_diffusion()
    if name == "primary":
        opts = {}
        for item in (rest.split(",") if rest else []):
            k, sep, v = item.partition("=")
            if not sep:
                raise UsageError(f"expected key=value in builtin spec, got {item!r}")
            k = k.strip()
            if k in opts:
                raise UsageError(f"--builtin: duplicate key {k!r} in {spec!r}")
            opts[k] = v
        try:
            n = int(opts.pop("n", "2"))
            r = int(opts.pop("r", "2"))
            lam = tuple(float(t) for t in opts.pop("lam").split(":")) if "lam" in opts else ()
            tau = tuple(float(t) for t in opts.pop("tau").split(":")) if "tau" in opts else ()
        except ValueError:
            raise UsageError(f"bad numeric value in builtin spec {spec!r}") from None
        if opts:
            raise UsageError(f"unknown primary options: {', '.join(sorted(opts))}")
        return make_primary_form(PrimaryFormSpec(n, r, lam, tau))
    raise UsageError(f"unknown builtin {name!r} (expected rd or primary:...)")


def _load_field(args):
    """Returns (field, canonical input text)."""
    if args.builtin and args.field:
        raise UsageError("give either a field file or --builtin, not both")
    if args.builtin:
        field = _make_builtin(args.builtin)
        return field, ex.format_vector_field(field)
    if args.field:
        try:
            with open(args.field, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise UsageError(f"cannot read {args.field}: {e}") from None
        name = os.path.splitext(os.path.basename(args.field))[0]
        return ex.parse_vector_field(text, name=name), text
    raise UsageError("a field file or --builtin is required")


def _parse_unfold(field: ex.VectorField, text: str | None, codim: int):
    if text is None:
        return None
    order = []
    for name in text.split(","):
        name = name.strip()
        if name not in field.param_names:
            raise UsageError(f"--unfold: {name!r} is not a declared parameter")
        index = field.param_names.index(name)
        if index in order:
            raise UsageError(f"--unfold: {name!r} is named twice")
        order.append(index)
    if len(order) < codim:
        raise UsageError(f"--unfold names {len(order)} parameter(s), fewer than --codim {codim}")
    return tuple(order)


def _solve_options(args) -> solver.SolveOptions:
    """SolveOptions from the flags the subcommand has, defaults for the rest."""
    names = ("seed_count", "dedup_radius", "tol_b", "tol_g")
    return solver.SolveOptions(**{k: getattr(args, k) for k in names if hasattr(args, k)})


def _parse_point(field: ex.VectorField, text: str | None) -> ex.Point:
    vals = _parse_pairs(text)
    known = set(field.var_names) | set(field.param_names)
    for name in vals:
        if name not in known:
            raise UsageError(f"--at: unknown identifier {name!r}")
    return ex.Point(tuple(vals.get(nm, 0.0) for nm in field.var_names),
                    tuple(vals.get(nm, 0.0) for nm in field.param_names))


# ---------------------------------------------------------------------------
# report serialization

def _report_json(field: ex.VectorField, rep: solver.CatastropheReport) -> dict:
    return {
        "x": list(rep.point.x),
        "alpha": list(rep.point.alpha),
        "var_names": list(field.var_names),
        "param_names": list(field.param_names),
        "codim": rep.codim,
        "label": rep.label,
        "residual": rep.residual,
        "b_values": list(rep.b_values),
        "g_values": [
            {"index": list(K), "value": rep.g_values[K],
             "scale": rep.g_scales[K]}
            for K in rep.g_values
        ],
        "full": rep.full,
        "subrank": rep.subrank,
        "subrank_ok": rep.subrank_ok,
    }


# ---------------------------------------------------------------------------
# subcommands

def cmd_find(args) -> int:
    field, text = _load_field(args)
    unfold = _parse_unfold(field, args.unfold, args.codim)
    # no more default intervals than unknowns, so that the library judges --codim
    box = (_parse_intervals(args.box) if args.box is not None
           else [(-1.5, 1.5)] * (field.n + min(args.codim, field.r)))
    reports = solver.find_catastrophes(field, args.codim, box, _solve_options(args),
                                       fixed=_parse_pairs(args.fix), param_order=unfold)
    doc = _document(args._argv, text,
                    reports=[_report_json(field, rep) for rep in reports])
    _emit(_to_json(doc) + "\n", args.out)
    if not reports:
        print("warning: no catastrophe points converged in the given box",
              file=sys.stderr)
    return 0


def _check_verdict(canonical_zero, full, subrank_ok, b1_zero, r, n) -> str:
    if canonical_zero:
        label = solver.classify(r)
        if not subrank_ok:
            return (f"degenerate: subrank below {n - 1}, "
                    "not a valid underlying catastrophe")
        if full:
            return f"underlying catastrophe: {label} (full)"
        return f"underlying catastrophe: {label} (not full)"
    if not b1_zero:
        return "no singularity"
    return f"no codimension-{r} catastrophe"


def cmd_check(args) -> int:
    if args.codim < 1:
        raise UsageError("codimension must be >= 1")
    field, text = _load_field(args)
    p = _parse_point(field, args.at)
    r = args.codim
    unfold = _parse_unfold(field, args.unfold, r)
    D = solver._system(field, unfold)[0]
    # one level serves the report, every B and F (printed, not a residual);
    # r above the unfolding parameters fails before any of it is built
    D._g_index(r, (1,) * (r - 1))
    level = D.level(r, p)
    rep = solver.build_report(level, math.nan, _solve_options(args))
    b_entries = []
    for i in range(1, r + 1):
        for K in det.index_strings(field.n, i - 1):
            value, scale = level.b(i, K)
            b_entries.append({"level": i, "index": list(K), "value": value,
                              "scale": scale,
                              "zero": det.is_zero(value, scale, args.tol_b)})
    g_entries = [{"index": list(K), "value": value, "scale": rep.g_scales[K],
                  "nonzero": det.is_nonzero(value, rep.g_scales[K], args.tol_g)}
                 for K, value in rep.g_values.items()]
    canonical_zero = all(e["zero"] for e in b_entries
                         if e["index"] == [1] * (e["level"] - 1))
    verdict = _check_verdict(canonical_zero, rep.full, rep.subrank_ok,
                             b_entries[0]["zero"], r, field.n)
    report = {
        "x": list(p.x),
        "alpha": list(p.alpha),
        "codim": r,
        "f_values": list(level.field()),
        "b_values": b_entries,
        "g_values": g_entries,
        "full": rep.full,
        "subrank": rep.subrank,
        "subrank_ok": rep.subrank_ok,
        "verdict": verdict,
    }
    doc = _document(args._argv, text, reports=[report])
    _emit(_to_json(doc) + "\n", args.out)
    return 0


def cmd_scan(args) -> int:
    field, text = _load_field(args)
    axes = [a.strip() for a in args.axes.split(",")]
    if len(axes) != 2:
        raise UsageError("--axes needs exactly two parameter names")
    if axes[0] == axes[1]:
        raise UsageError(f"--axes names {axes[0]!r} twice")
    fixed = _parse_pairs(args.fix)
    for a in axes:
        if a not in field.param_names:
            raise UsageError(f"--axes: {a!r} is not a declared parameter")
        if a in fixed:
            raise UsageError(f"--fix: {a!r} is a scan axis, swept over its range")
    ranges = _parse_intervals(args.range)
    if len(ranges) != 2:
        raise UsageError("--range needs two intervals lo:hi,lo:hi")
    for lo, hi in ranges:
        if not lo < hi:
            raise UsageError(f"empty --range interval [{lo}, {hi}]")
    try:
        cells = tuple(int(t) for t in args.cells.split(","))
    except ValueError:
        raise UsageError(f"bad --cells {args.cells!r}") from None
    if len(cells) != 2 or min(cells) < 1:
        raise UsageError("--cells needs two positive integers")
    for (lo, hi), count in zip(ranges, cells):
        if (count - 0.5) * (hi - lo) == math.inf:  # cell_value at the last cell
            raise UsageError(f"--range interval [{lo}, {hi}] too wide for {count} cells")
    box = (_parse_intervals(args.box_x) if args.box_x is not None
           else [(-3.0, 3.0)] * field.n)
    opts = _solve_options(args)
    idx = [field.param_names.index(a) for a in axes]
    base_alpha = solver._resolve_fixed(field, fixed)

    def cell_value(axis: int, k: int) -> float:
        lo, hi = ranges[axis]
        return lo + (k + 0.5) * (hi - lo) / cells[axis]

    rows = [f"{axes[0]},{axes[1]},n_states,n_attracting\n"]
    for i in range(cells[0]):
        for j in range(cells[1]):
            alpha = list(base_alpha)
            alpha[idx[0]] = v1 = cell_value(0, i)
            alpha[idx[1]] = v2 = cell_value(1, j)
            census = solver.count_steady_states(field, alpha, box, opts, axes=idx)
            n_attracting = sum(1 for _p, label in census.states
                               if label == "attracting")
            lost = sum(s in ("diverged", "failed") for s in census.paths)
            if lost:
                print(f"warning: cell {axes[0]}={_fmt_float(v1)},{axes[1]}="
                      f"{_fmt_float(v2)}: {lost} of {len(census.paths)} homotopy "
                      "paths diverged or failed; states may be missing", file=sys.stderr)
            rows.append(f"{_fmt_float(v1)},{_fmt_float(v2)},"
                        f"{census.count},{n_attracting}\n")
    _emit("".join(rows), args.out)
    return 0


def cmd_count_minors(args) -> int:
    if args.corank_seq:
        try:
            seq = tuple(int(t) for t in args.corank_seq.split(","))
        except ValueError:
            raise UsageError(f"bad --corank-seq {args.corank_seq!r}") from None
    elif args.codim is not None:
        seq = (1,) * args.codim
    else:
        raise UsageError("need --codim or --corank-seq")
    try:
        mc = bo.minor_count(args.dim, seq)
    except ValueError as e:
        raise UsageError(str(e)) from None
    doc = _document(args._argv, None, counts={
        "dim": mc.n,
        "corank_seq": list(mc.corank_seq),
        "stage_counts": list(mc.stage_counts),
        "cumulative": list(mc.cumulative),
        "appendix_total": mc.appendix_total,
        "table_total": mc.table_total,
        "bg_condition_count": bo.bg_condition_count(args.dim, len(seq)),
    })
    _emit(_to_json(doc) + "\n", args.out)
    return 0


def cmd_boardman(args) -> int:
    field, text = _load_field(args)
    alpha = solver._resolve_fixed(field, _parse_pairs(args.fix))
    at = _parse_pairs(args.at)
    for name in at:
        if name not in field.var_names:
            raise UsageError(f"--at: {name!r} is not a state variable")
    p = ex.Point(tuple(at.get(nm, 0.0) for nm in field.var_names), alpha)
    symbol = bo.boardman_symbol(field, p, max_depth=args.max_depth,
                                cap=args.cap, tol=args.tol_b)
    mc = bo.minor_count(field.n, symbol) if symbol else None
    doc = _document(args._argv, text, boardman={
        "x": list(p.x),
        "alpha": list(alpha),
        "symbol": list(symbol),
        "stage_minor_counts": list(mc.stage_counts) if mc else [],
        "stage_sizes": list(mc.cumulative) if mc else [field.n],
    })
    _emit(_to_json(doc) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing

@functools.cache  # parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catafind",
        description="Locate and classify degenerate zeros of parameterized "
                    "vector fields via nested determinant conditions.")
    parser.add_argument("--version", action="version",
                        version=f"catafind {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    field_p = argparse.ArgumentParser(add_help=False)
    field_p.add_argument("field", nargs="?",
                         help="vector-field definition file")
    field_p.add_argument("--builtin",
                         help="built-in field: rd | "
                              "primary:n=N,r=R[,lam=v:..,tau=v:..]")

    # one parent per tolerance flag, so each subcommand takes the ones it reads
    tol_b_p = argparse.ArgumentParser(add_help=False)
    tol_b_p.add_argument("--tol-b", type=float, default=det.DEFAULT_TOL_B,
                         help="zero threshold. find, check: level determinants "
                              "(scaled) and subrank pivots (relative to the largest "
                              "row norm); boardman: rank pivots (relative); scan: "
                              "eigenvalue real parts for stability labels (absolute)")
    tol_g_p = argparse.ArgumentParser(add_help=False)
    tol_g_p.add_argument("--tol-g", type=float, default=det.DEFAULT_TOL_G,
                         help="scaled nonzero threshold for extended determinants")
    dedup_p = argparse.ArgumentParser(add_help=False)
    dedup_p.add_argument("--dedup-radius", type=float, default=1e-6,
                         help="max-norm radius for merging converged roots")

    out_p = argparse.ArgumentParser(add_help=False)
    out_p.add_argument("--out", help="output file (default stdout)")

    p = sub.add_parser("find", parents=[field_p, tol_b_p, tol_g_p, dedup_p, out_p],
                       help="multistart search for codimension-r points")
    p.add_argument("--codim", type=int, required=True)
    p.add_argument("--box",
                   help="seed box lo:hi,... over states then unfolding "
                        "parameters (default -1.5:1.5 each)")
    p.add_argument("--seeds", type=int, default=256, dest="seed_count")
    p.add_argument("--fix", help="fixed parameter values name=value,...")
    p.add_argument("--unfold",
                   help="comma-separated unfolding parameter names, in order")
    p.set_defaults(func=cmd_find)

    p = sub.add_parser("check", parents=[field_p, tol_b_p, tol_g_p, out_p],
                       help="evaluate all determinant conditions at a point")
    p.add_argument("--at", required=True,
                   help="point name=value,... (unlisted coordinates are 0)")
    p.add_argument("--codim", type=int, required=True)
    p.add_argument("--unfold",
                   help="comma-separated unfolding parameter names, in order")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("scan", parents=[field_p, tol_b_p, dedup_p, out_p],
                       help="steady-state census over a parameter-plane grid")
    p.add_argument("--axes", required=True,
                   help="two parameter names, comma-separated")
    p.add_argument("--range", required=True, help="lo:hi,lo:hi per axis")
    p.add_argument("--cells", default="21,21", help="grid size c1,c2")
    p.add_argument("--fix", help="fixed parameter values name=value,...")
    p.add_argument("--box-x",
                   help="state seed box lo:hi,... (default -3:3 each)")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("count-minors", parents=[out_p],
                       help="exact minor-counting recurrence")
    p.add_argument("--dim", type=int, required=True)
    codim = p.add_mutually_exclusive_group()
    codim.add_argument("--codim", type=int)
    codim.add_argument("--corank-seq", help="explicit corank sequence i1,i2,...")
    p.set_defaults(func=cmd_count_minors)

    p = sub.add_parser("boardman", parents=[field_p, tol_b_p, out_p],
                       help="singularity symbol at a point, parameters fixed")
    p.add_argument("--at", help="state values name=value,... (default origin)")
    p.add_argument("--fix", help="parameter values name=value,...")
    p.add_argument("--max-depth", type=int, default=4)
    p.add_argument("--cap", type=int, default=10_000)
    p.set_defaults(func=cmd_boardman)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    args._argv = argv
    try:
        solver._check_tolerances(args, lambda name: "--" + name.replace("_", "-"))
        if getattr(args, "out", None) == "":  # "--out=" names no file and means no stdout
            raise UsageError("--out needs a file name, got ''")
        return args.func(args)
    except (bo.ToleranceError, ArithmeticError) as e:  # zero division, overflow, FP errors
        print(f"numerical failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 3
    except (bo.CapExceededError, ValueError, IndexError,
            OSError) as e:  # OSError: an --out path
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
