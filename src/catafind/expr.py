"""Immutable symbolic expression trees over declared variables and parameters.

Expressions are hash-consed: structurally identical subtrees are the same
object, so equality and hashing are identity-based and subtree sharing is
maximal.  Sums and products are kept flattened and sorted in a canonical
order, with like terms and like factors merged, which keeps the nested
determinant constructions from swelling.

The grammar is restricted to polynomial/rational operations with integer
powers; there are no transcendental functions.  The intern table takes no
lock: build expressions on one thread only.
"""

from __future__ import annotations

import operator
import re

CONST = "const"
VAR = "var"
PAR = "par"
SUM = "sum"
PROD = "prod"
NEG = "neg"
QUOT = "quot"
POW = "pow"


class ExprError(ValueError):
    pass


class ParseError(ExprError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class EvaluationError(ExprError):
    """Raised when evaluation hits a singular subexpression (division by zero)."""

    def __init__(self, message: str, subexpr: "Expression"):
        super().__init__(message)
        self.subexpr = subexpr


class Expression:
    """A node of an immutable expression tree.

    Instances must be created through the module-level constructors
    (const, var, par, add, mul, neg, div, pow_), never directly; the
    constructors intern nodes and maintain canonical form.
    """

    __slots__ = ("kind", "value", "index", "children", "exponent", "order_id")

    kind: str
    value: float  # CONST only
    index: int  # VAR / PAR only
    children: tuple
    exponent: int  # POW only

    def __repr__(self):
        return f"<expr {to_str(self)}>"


_intern_table: dict = {}


def _node(kind, value=None, index=None, children=(), exponent=None) -> Expression:
    key = (kind, value, index, children, exponent)
    node = _intern_table.get(key)
    if node is None:
        node = object.__new__(Expression)
        node.kind = kind
        node.value = value
        node.index = index
        node.children = children
        node.exponent = exponent
        node.order_id = len(_intern_table)
        _intern_table[key] = node
    return node


def const(v) -> Expression:
    return _node(CONST, value=float(v))


def var(i: int) -> Expression:
    if i < 0:
        raise ExprError(f"negative variable index {i}")
    return _node(VAR, index=i)


def par(i: int) -> Expression:
    if i < 0:
        raise ExprError(f"negative parameter index {i}")
    return _node(PAR, index=i)


ZERO = const(0.0)
ONE = const(1.0)


def _coeff_core(t: Expression):
    """Split a term into (numeric coefficient, non-constant core or None)."""
    if t.kind == CONST:
        return t.value, None
    if t.kind == NEG:
        c, core = _coeff_core(t.children[0])
        return -c, core
    if t.kind == PROD and t.children[0].kind == CONST:
        rest = t.children[1:]
        core = rest[0] if len(rest) == 1 else _node(PROD, children=rest)
        return t.children[0].value, core
    return 1.0, t


def _scale(c: float, core: Expression) -> Expression:
    if c == 1.0:
        return core
    if c == -1.0:
        return _node(NEG, children=(core,))
    if core.kind == PROD:
        return _node(PROD, children=(const(c),) + core.children)
    return _node(PROD, children=(const(c), core))


def add(*terms: Expression) -> Expression:
    const_acc = 0.0
    coeffs: dict = {}
    stack = list(terms)
    stack.reverse()
    while stack:
        t = stack.pop()
        if t.kind == SUM:
            stack.extend(reversed(t.children))
            continue
        c, core = _coeff_core(t)
        if core is None:
            const_acc += c
        else:
            coeffs[core] = coeffs.get(core, 0.0) + c
    out = []
    for core in sorted(coeffs, key=lambda e: e.order_id):
        c = coeffs[core]
        if c != 0.0:
            out.append(_scale(c, core))
    if const_acc != 0.0 or not out:
        out.append(const(const_acc))
    if len(out) == 1:
        return out[0]
    return _node(SUM, children=tuple(out))


def neg(e: Expression) -> Expression:
    if e.kind == CONST:
        return const(-e.value)
    if e.kind == NEG:
        return e.children[0]
    if e.kind == SUM:
        return add(*[neg(c) for c in e.children])
    if e.kind == PROD:
        return mul(const(-1.0), e)
    return _node(NEG, children=(e,))


def _pow_node(base: Expression, k: int) -> Expression:
    return base if k == 1 else _node(POW, children=(base,), exponent=k)


def mul(*factors: Expression) -> Expression:
    const_acc = 1.0
    powers: dict = {}
    stack = list(factors)
    stack.reverse()
    while stack:
        f = stack.pop()
        if f.kind == PROD:
            stack.extend(reversed(f.children))
        elif f.kind == CONST:
            const_acc *= f.value
        elif f.kind == NEG:
            const_acc = -const_acc
            stack.append(f.children[0])
        elif f.kind == POW:
            powers[f.children[0]] = powers.get(f.children[0], 0) + f.exponent
        else:
            powers[f] = powers.get(f, 0) + 1
    if const_acc == 0.0:
        return ZERO
    parts = []
    for base in sorted(powers, key=lambda e: e.order_id):
        k = powers[base]
        if k != 0:
            parts.append(_pow_node(base, k))
    if not parts:
        return const(const_acc)
    body = parts[0] if len(parts) == 1 else _node(PROD, children=tuple(parts))
    return _scale(const_acc, body)


def pow_(base: Expression, k: int) -> Expression:
    if int(k) != k:
        raise ExprError(f"non-integer exponent {k!r}")
    k = int(k)
    if k == 1:
        return base
    if k == 0:
        return ONE
    if base.kind == CONST:
        if base.value == 0.0 and k < 0:
            return _node(POW, children=(base,), exponent=k)
        return const(base.value ** k)
    if base.kind == POW:
        return pow_(base.children[0], base.exponent * k)
    if base.kind == NEG:
        inner = pow_(base.children[0], k)
        return inner if k % 2 == 0 else neg(inner)
    if base.kind == PROD:
        return mul(*[pow_(c, k) for c in base.children])
    return _node(POW, children=(base,), exponent=k)


def div(num: Expression, den: Expression) -> Expression:
    if den.kind == CONST:
        if den.value != 0.0:
            return mul(num, const(1.0 / den.value))
        return _node(QUOT, children=(num, den))
    if num.kind == CONST and num.value == 0.0:
        return ZERO
    if num is den:
        return ONE
    return _node(QUOT, children=(num, den))


def sub(a: Expression, b: Expression) -> Expression:
    return add(a, neg(b))


def _postorder(roots, done):
    """Yield every node reachable from roots that is not in done, once each:
    children before parents, siblings left to right.  The caller must add
    each yielded node to done (a set or a memo dict) before asking for the
    next one.  Iterative, so tree depth is bounded only by memory."""
    stack = list(roots)
    stack.reverse()
    while stack:
        node = stack.pop()
        if node is None:  # marker: the node below it has all children done
            yield stack.pop()
        elif node not in done:
            stack.append(node)
            stack.append(None)
            for c in reversed(node.children):
                if c not in done:
                    stack.append(c)


def differentiate(e: Expression, wrt: Expression, _memo=None) -> Expression:
    """Exact symbolic derivative of e with respect to a var/par node."""
    if wrt.kind not in (VAR, PAR):
        raise ExprError("differentiation target must be a variable or parameter node")
    if _memo is None:
        _memo = {}
    memo = _memo.get(wrt)  # one derivative memo per target
    if memo is None:
        memo = _memo[wrt] = {}
    got = memo.get(e)
    if got is not None:
        return got
    for node in _postorder((e,), memo):
        k = node.kind
        cs = node.children
        if k == CONST:
            out = ZERO
        elif k in (VAR, PAR):
            out = ONE if node is wrt else ZERO
        elif k == SUM:
            out = add(*[memo[c] for c in cs])
        elif k == NEG:
            out = neg(memo[cs[0]])
        elif k == PROD:
            terms = []
            for i, c in enumerate(cs):
                dc = memo[c]
                if dc is not ZERO:
                    terms.append(mul(*cs[:i], dc, *cs[i + 1:]))
            out = add(*terms) if terms else ZERO
        elif k == QUOT:
            u, v = cs
            out = div(sub(mul(memo[u], v), mul(u, memo[v])), pow_(v, 2))
        elif k == POW:
            b = cs[0]
            out = mul(const(node.exponent), pow_(b, node.exponent - 1), memo[b])
        else:  # pragma: no cover
            raise ExprError(f"unknown node kind {k!r}")
        memo[node] = out
    return memo[e]


class Record:
    """Base of the package's records.  A record's __slots__ name its fields,
    two or more, in the order of its __init__ parameters; == compares the
    class and the fields, repr shows them, and pickle and copy call the
    class on them.  Unhashable, as a mutable dataclass is."""

    __slots__ = ()

    def __init_subclass__(cls):
        if cls.__slots__:
            cls._astuple = operator.attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple(self) == self._astuple(other)
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._astuple(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._astuple(self)


class Frozen(Record):
    """A hashable Record whose fields only __init__ sets, through object.__setattr__."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._astuple(self))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__


class VectorField(Frozen):
    """n component expressions over declared variable and parameter names."""

    __slots__ = ("name", "var_names", "param_names", "components")

    def __init__(self, name: str, var_names: tuple, param_names: tuple, components: tuple):
        if len(components) != len(var_names):
            raise ExprError(f"field has {len(var_names)} variables but "
                            f"{len(components)} components")
        if len(var_names) < 1:
            raise ExprError("a vector field needs at least one variable")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "var_names", var_names)
        object.__setattr__(self, "param_names", param_names)
        object.__setattr__(self, "components", components)

    @property
    def n(self) -> int:
        return len(self.var_names)

    @property
    def r(self) -> int:
        return len(self.param_names)


class Point(Frozen):
    __slots__ = ("x", "alpha")

    def __init__(self, x: tuple, alpha: tuple):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "alpha", alpha)

    def vals(self) -> tuple:
        return self.x + self.alpha


def evaluate(e: Expression, p: Point) -> float:
    """IEEE double value of e at p, through compile_evaluator; raises
    EvaluationError on division by zero or when p does not cover e."""
    try:
        fn = compile_evaluator([e], len(p.x))
    except ExprError as err:
        raise EvaluationError(str(err), e) from None
    try:
        return fn(p.vals())[0]
    except ZeroDivisionError:
        raise EvaluationError("division by zero", e) from None
    except IndexError:
        raise EvaluationError(
            f"point has too few values ({len(p.alpha)} parameters)", e) from None


# ---------------------------------------------------------------------------
# parsing

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUM_RE = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_INT_RE = re.compile(r"[+-]?\d+")

# The parser recurses through five frames per level of parentheses, so it
# bounds the nesting well inside Python's default recursion limit.
_MAX_PAREN_DEPTH = 100


class _ExprParser:
    def __init__(self, text: str, line: int, col_offset: int, env: dict):
        self.text = text
        self.line = line
        self.col_offset = col_offset
        self.env = env
        self.pos = 0
        self.depth = 0

    def error(self, msg, pos=None):
        p = self.pos if pos is None else pos
        raise ParseError(msg, self.line, self.col_offset + p + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> Expression:
        e = self.parse_sum()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(f"unexpected character {self.text[self.pos]!r}")
        return e

    def parse_sum(self) -> Expression:
        terms = [self.parse_term()]
        while True:
            c = self.peek()
            if c == "+":
                self.pos += 1
                terms.append(self.parse_term())
            elif c == "-":
                self.pos += 1
                terms.append(neg(self.parse_term()))
            else:
                return add(*terms)

    def parse_term(self) -> Expression:
        e = self.parse_unary()
        while True:
            c = self.peek()
            if c == "*":
                self.pos += 1
                e = mul(e, self.parse_unary())
            elif c == "/":
                self.pos += 1
                e = div(e, self.parse_unary())
            else:
                return e

    def parse_unary(self) -> Expression:
        minuses = 0
        while self.peek() == "-":
            self.pos += 1
            minuses += 1
        e = self.parse_power()
        for _ in range(minuses):
            e = neg(e)
        return e

    def parse_power(self) -> Expression:
        base = self.parse_atom()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            m = _INT_RE.match(self.text, self.pos)
            if not m:
                self.error("expected an integer exponent after '^'")
            self.pos = m.end()
            return pow_(base, int(m.group()))
        return base

    def parse_atom(self) -> Expression:
        c = self.peek()
        if c == "(":
            if self.depth == _MAX_PAREN_DEPTH:
                self.error(f"parentheses nested deeper than {_MAX_PAREN_DEPTH}")
            self.depth += 1
            self.pos += 1
            e = self.parse_sum()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            self.depth -= 1
            return e
        m = _NUM_RE.match(self.text, self.pos)
        if m:
            self.pos = m.end()
            return const(float(m.group()))
        m = _IDENT_RE.match(self.text, self.pos)
        if m:
            name = m.group()
            node = self.env.get(name)
            if node is None:
                self.error(f"unknown identifier {name!r}", m.start())
            self.pos = m.end()
            return node
        if c == "":
            self.error("unexpected end of expression")
        self.error(f"unexpected character {c!r}")


def parse_expression(text: str, env: dict, line: int = 1, col_offset: int = 0) -> Expression:
    return _ExprParser(text, line, col_offset, env).parse()


def parse_vector_field(text: str, name: str = "field") -> VectorField:
    """Parse the line-oriented vector-field file format.

    `#` starts a comment; one `vars:` line and one `params:` line precede
    the `eq:` lines (one per component, in order).
    """
    decls: dict = {}  # "vars" and "params" -> their names
    eq_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        hash_pos = raw.find("#")
        line = raw if hash_pos < 0 else raw[:hash_pos]
        stripped = line.strip()
        if not stripped:
            continue
        key, colon, rest = stripped.partition(":")
        if colon and key in ("vars", "params"):
            if key in decls:
                raise ParseError(f"duplicate '{key}:' line", lineno, 1)
            if eq_lines:
                raise ParseError(f"'{key}:' must precede all 'eq:' lines", lineno, 1)
            decls[key] = rest.split()
        elif stripped.startswith("eq:"):
            body_start = line.index("eq:") + len("eq:")
            eq_lines.append((lineno, body_start, line[body_start:]))
        else:
            raise ParseError(f"unrecognized line {stripped.split()[0]!r}", lineno, 1)
    for key in ("vars", "params"):
        if key not in decls:
            raise ParseError(f"missing '{key}:' line", 1, 1)
    var_names, param_names = decls["vars"], decls["params"]
    if not eq_lines:
        raise ParseError("no 'eq:' lines (component count is zero)", 1, 1)

    seen = set()
    for nm in list(var_names) + list(param_names):
        if not _IDENT_RE.fullmatch(nm):
            raise ParseError(f"invalid identifier {nm!r}", 1, 1)
        if nm in seen:
            raise ParseError(f"duplicate identifier {nm!r}", 1, 1)
        seen.add(nm)

    env = {nm: var(i) for i, nm in enumerate(var_names)}
    env.update({nm: par(i) for i, nm in enumerate(param_names)})
    eqs = [parse_expression(body, env, lineno, col) for lineno, col, body in eq_lines]
    if len(eqs) != len(var_names):
        raise ParseError(
            f"{len(var_names)} variables but {len(eqs)} 'eq:' lines", 1, 1)
    return VectorField(name, tuple(var_names), tuple(param_names), tuple(eqs))


# ---------------------------------------------------------------------------
# printing

def _fmt_const(v: float) -> str:
    if abs(v) < 1e16 and v == int(v):  # false for inf and nan
        return str(int(v))
    return repr(v)


def to_str(e: Expression, var_names=None, param_names=None) -> str:
    def wrapped(node, kinds):
        return f"({out[node]})" if node.kind in kinds else out[node]

    out: dict = {}
    for node in _postorder((e,), out):
        k = node.kind
        cs = node.children
        if k == CONST:
            s = _fmt_const(node.value)
        elif k == VAR:
            s = var_names[node.index] if var_names else f"x{node.index + 1}"
        elif k == PAR:
            s = param_names[node.index] if param_names else f"a{node.index + 1}"
        elif k == SUM:
            parts = [out[cs[0]]]
            for c in cs[1:]:
                t = out[c]
                parts.append(" - " + t[1:] if t.startswith("-") else " + " + t)
            s = "".join(parts)
        elif k == PROD:
            s = "*".join(wrapped(c, (SUM,)) for c in cs)
        elif k == NEG:
            s = "-" + wrapped(cs[0], (SUM,))
        elif k == QUOT:
            s = f"{wrapped(cs[0], (SUM,))}/{wrapped(cs[1], (SUM, PROD, QUOT))}"
        elif k == POW:
            b = cs[0]
            s = out[b]
            if b.kind not in (VAR, PAR) and not (b.kind == CONST and b.value >= 0):
                s = f"({s})"
            s = f"{s}^{node.exponent}"
        else:  # pragma: no cover
            raise ExprError(f"unknown node kind {k!r}")
        out[node] = s
    return out[e]


def format_vector_field(field: VectorField) -> str:
    lines = [
        "vars: " + " ".join(field.var_names),
        "params: " + " ".join(field.param_names),
    ]
    for comp in field.components:
        lines.append("eq: " + to_str(comp, field.var_names, field.param_names))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# compiled evaluation

_LINE_OPERANDS = 100
# Parenthesis levels of one line, each inlined node's pair, a subscript and
# a power's pair round its base counted.  CPython's tokenizer allows 200, but
# its compiler recurses through each level's chain of _LINE_OPERANDS operands.
_LINE_NESTING = 12


def compile_evaluator(exprs, n_vars: int):
    """Compile a list of expressions into one fast function of a flat value
    vector (variables first, then parameters), returning their values as a
    tuple: emit's lines and outputs, with every variable and parameter read
    from the vector.  A variable index at or above n_vars raises ExprError
    here, division by zero ZeroDivisionError when it runs."""
    consts: dict = {}
    lines, outs = emit(exprs, consts, n_vars=n_vars)
    values = f"({', '.join(outs)},)" if exprs else "()"
    src = "def _compiled(v):\n" + "\n".join("    " + line for line in lines) + (
        f"\n    return {values}\n")
    exec(src, consts)
    return consts.pop("_compiled")  # so the function and its globals form no cycle


def emit(exprs, consts: dict, known=None, n_vars: int = 0):
    """(lines, outs): source lines, unindented, that compute exprs on
    locals, and each expression's source text, which reads those locals.

    Each node's floating-point operation runs once, on the operand values
    of a plain tree walk, so the values are bit-identical to the walk's.
    known maps nodes already computed (leaves, locals of earlier lines) to
    their names; the lines read those and walk none of their children.
    Other variables and parameters are read from the vector v: variable j
    at v[j], an index at or above n_vars raising ExprError, parameter k at
    v[n_vars + k].  A node with one reader (an output position counts as
    one) is written inline in that reader, in parentheses, and a vector
    entry with one reader is read there: CPython evaluates operands left
    to right and an operator after both.  Shared nodes, and outputs read
    elsewhere too, get a local t{i}.  A negation gets none: a sum
    subtracts its child (IEEE defines x - y as x + (-y), signed zeros
    included), and any other reader negates inline, which is exact.  A
    node nested past _LINE_NESTING parentheses gets its own line, and a
    chain continues on further lines every _LINE_OPERANDS operands.
    Constants are bound by name in consts, the globals the caller execs
    the lines in, and a power of exponent above 100 is the builtin pow's,
    so inf and nan compile and one source runs on other number types
    (rebind)."""
    known = known or {}
    readers = dict.fromkeys(known, 0)  # known nodes are read, not walked
    for node in _postorder(exprs, readers):
        readers[node] = 0
    for e in exprs:
        readers[e] += 1
    for node in reversed(readers):  # each reader before the nodes it reads
        if node not in known:  # a negation's readers read its child
            for c in node.children:
                readers[c] += readers[node] if node.kind == NEG else 1
    names = dict(known)
    depth = dict.fromkeys(readers, 0)  # parenthesis levels of names[node]
    lines = []
    for i, node in enumerate(readers):
        if node in known:
            continue
        k = node.kind
        cs = node.children
        if k == CONST:
            names[node] = f"c{len(consts)}"
            consts[names[node]] = node.value
            continue
        if k in (VAR, PAR):
            if k == VAR and node.index >= n_vars:
                raise ExprError(
                    f"variable index {node.index} outside the {n_vars} "
                    "declared variables")
            j = node.index if k == VAR else n_vars + node.index
            if readers[node] == 1:
                names[node], depth[node] = f"v[{j}]", 1
            else:
                names[node] = f"v{j}"
                lines.append(f"v{j} = v[{j}]")
            continue
        if k == NEG:  # the only names that start with "-"
            names[node], depth[node] = "-" + names[cs[0]], depth[cs[0]]
            continue
        nm = f"t{i}"
        d = max(depth[c] for c in cs)
        if k in (SUM, PROD):
            # CPython compiles an operator chain recursively, so long sums
            # and products continue on further lines, in the same order
            first, *rest = [names[c] for c in cs]
            ops = ["*" + a if k == PROD else " - " + a[1:] if a[0] == "-"
                   else " + " + a for a in rest]
            rhs = first + "".join(ops[:_LINE_OPERANDS - 1])
            for j in range(_LINE_OPERANDS - 1, len(ops), _LINE_OPERANDS):
                lines.append(f"{nm} = {rhs}")
                rhs = nm + "".join(ops[j:j + _LINE_OPERANDS])
        elif k == QUOT:
            rhs = f"{names[cs[0]]}/{names[cs[1]]}"
        elif k == POW:
            rhs = (f"({names[cs[0]]})**{node.exponent}" if abs(node.exponent) <= 100
                   else f"pow({names[cs[0]]}, {node.exponent})")
            d += 1
        else:  # pragma: no cover
            raise ExprError(f"unknown node kind {k!r}")
        if readers[node] == 1 and d < _LINE_NESTING and len(cs) <= _LINE_OPERANDS:
            names[node], depth[node] = f"({rhs})", d + 1
        else:
            lines.append(f"{nm} = {rhs}")
            names[node] = nm
    return lines, [names[e] for e in exprs]


def rebind(fn, **names):
    """compile_evaluator's fn with the named globals (c0, c1, ..., pow) bound."""
    return type(fn)(fn.__code__, {**fn.__globals__, **names})
