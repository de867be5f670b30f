"""Built-in model fields.

Two families are provided: the primary form, for which the level
determinants collapse to scalar derivative conditions on a one-variable
polynomial, and a two-species reaction-diffusion steady-state field whose
fold/cusp/swallowtail/butterfly sets have closed-form parameterizations
(the tests hold those, in tests/rd_reference.py).
"""

from __future__ import annotations

import math

from . import expr as ex
from .expr import Frozen, VectorField


class DomainError(ValueError):
    pass


class PrimaryFormSpec(Frozen):
    __slots__ = ("n", "r", "lambdas", "taus")

    def __init__(self, n: int, r: int, lambdas: tuple = (), taus: tuple = ()):
        if n < 1 or r < 1:
            raise DomainError("primary form needs n >= 1 and r >= 1")
        lams = tuple(float(v) for v in (lambdas or (1.0,) * (n - 1)))
        tas = tuple(float(v) for v in (taus or (1.0,) * (n - 1)))
        if len(lams) != n - 1 or len(tas) != n - 1:
            raise DomainError(f"need {n - 1} lambda and tau values")
        if any(v == 0.0 for v in lams) or any(v == 0.0 for v in tas):
            raise DomainError("lambda and tau values must all be nonzero")
        if not all(map(math.isfinite, lams + tas)):
            raise DomainError("lambda and tau values must all be finite")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "lambdas", lams)  # lambda_2 .. lambda_n, floats
        object.__setattr__(self, "taus", tas)  # tau_2 .. tau_n


def make_primary_form(spec: PrimaryFormSpec) -> VectorField:
    """Field (f(x1, a) + tau.x, lam_2 x2, ..., lam_n xn) with
    f = x1^(r+1) + a_r x1^(r-1) + ... + a_2 x1 + a_1."""
    n, r = spec.n, spec.r
    x1 = ex.var(0)
    terms = [ex.pow_(x1, r + 1)]
    for i in range(1, r + 1):  # a_i x1^(i-1)
        terms.append(ex.mul(ex.par(i - 1), ex.pow_(x1, i - 1)))
    for i in range(2, n + 1):
        terms.append(ex.mul(ex.const(spec.taus[i - 2]), ex.var(i - 1)))
    comps = [ex.add(*terms)]
    for i in range(2, n + 1):
        comps.append(ex.mul(ex.const(spec.lambdas[i - 2]), ex.var(i - 1)))
    var_names = tuple(f"x{i}" for i in range(1, n + 1))
    param_names = tuple(f"a{i}" for i in range(1, r + 1))
    return VectorField(f"primary_n{n}_r{r}", var_names, param_names, tuple(comps))


_RD_TEXT = """\
# two-species reaction-diffusion homogeneous steady-state field
vars: u v
params: b d a g k1 k2
eq: -(k1*u + b + a*v + v^3)
eq: -(k2*v + d + g*u + u^3)
"""


def make_reaction_diffusion() -> VectorField:
    """The two-species cubic reaction-diffusion field, parameters declared in
    the order (b, d, a, g, k1, k2) so unfolding prefixes match usage."""
    return ex.parse_vector_field(_RD_TEXT, name="rd")
