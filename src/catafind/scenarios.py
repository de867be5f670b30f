"""Built-in model fields and their closed-form reference solutions.

Two families are provided: the primary form, for which the level
determinants collapse to scalar derivative conditions on a one-variable
polynomial, and a two-species reaction-diffusion steady-state field whose
fold/cusp/swallowtail/butterfly sets have closed-form parameterizations.
The fractional-power evaluators here are plain numeric functions with
explicit domain guards; they live outside the expression grammar.
"""

from __future__ import annotations

import math

from . import expr as ex
from .expr import Frozen, Point, VectorField


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


RD_KINDS = ("fold", "cusp", "swallowtail", "butterfly")


class RdReference(Frozen):
    """Closed-form parameterizations of the reaction-diffusion catastrophe
    sets, for given positive finite diffusion constants."""

    __slots__ = ("k1", "k2")

    def __init__(self, k1: float, k2: float):
        if not (math.isfinite(k1) and math.isfinite(k2)):
            raise DomainError("diffusion constants must be finite")
        if k1 <= 0 or k2 <= 0:
            raise DomainError("diffusion constants must be positive")
        object.__setattr__(self, "k1", k1)
        object.__setattr__(self, "k2", k2)

    def steady_state(self, u, v, alpha, gamma):
        """(beta, delta) putting (u, v) on the steady-state family."""
        beta = -self.k1 * u - alpha * v - v ** 3
        delta = -self.k2 * v - gamma * u - u ** 3
        return beta, delta

    def alpha_fold(self, u, v, gamma):
        c = gamma + 3 * u ** 2
        if c == 0:
            raise DomainError("fold parameterization needs gamma + 3u^2 != 0")
        return self.k1 * self.k2 / c - 3 * v ** 2

    def gamma_cusp(self, u, v):
        if v == 0 or u / v <= 0:
            raise DomainError("cusp parameterization needs u/v > 0")
        return (self.k1 * self.k2 ** 2 * u / v) ** (1.0 / 3.0) - 3 * u ** 2

    def q_swallowtail(self, p):
        if p <= 0:
            raise DomainError("swallowtail parameterization needs p > 0")
        return ((self.k1 * self.k2) ** (1.0 / 3.0) / 18.0
                * (self.k2 ** (1.0 / 3.0) * p ** (2.0 / 3.0)
                   + self.k1 ** (1.0 / 3.0) * p ** (-2.0 / 3.0)))

    def uv_from_pq(self, p, q, branch=+1):
        if p <= 0 or q <= 0:
            raise DomainError("need p > 0 and q > 0 to reconstruct (u, v)")
        s = 1.0 if branch >= 0 else -1.0
        return s * (q / p) ** 0.5, s * (p * q) ** 0.5

    def butterfly_point(self, branch=+1) -> Point:
        s = 1.0 if branch >= 0 else -1.0
        k1, k2 = self.k1, self.k2
        u = s * (k1 * k2 ** 3) ** 0.125 / 3.0
        v = s * (k1 ** 3 * k2) ** 0.125 / 3.0
        alpha = 2.0 / 3.0 * (k1 ** 3 * k2) ** 0.25
        gamma = 2.0 / 3.0 * (k1 * k2 ** 3) ** 0.25
        beta = -s * 16.0 / 27.0 * (k1 ** 3 * k2) ** 0.375
        delta = -s * 16.0 / 27.0 * (k1 * k2 ** 3) ** 0.375
        return Point((u, v), (beta, delta, alpha, gamma, k1, k2))


def rd_catastrophe_point(ref: RdReference, kind: str, *, u=None, v=None,
                         gamma=None, p=None, branch=+1) -> Point:
    """Compose the closed-form parameterizations into a full point
    (u, v; beta, delta, alpha, gamma, k1, k2) with the first `m` level
    determinants vanishing by construction (m = 1..4 by kind).

    Free coordinates: fold (u, v, gamma); cusp (u, v) with u/v > 0;
    swallowtail (p > 0, sign branch); butterfly (sign branch only).
    """
    if kind not in RD_KINDS:
        raise DomainError(f"unknown catastrophe kind {kind!r}")
    if kind == "butterfly":
        return ref.butterfly_point(branch)
    if kind == "swallowtail":
        q = ref.q_swallowtail(p)
        u, v = ref.uv_from_pq(p, q, branch)
        gamma = ref.gamma_cusp(u, v)
    elif kind == "cusp":
        gamma = ref.gamma_cusp(u, v)
    alpha = ref.alpha_fold(u, v, gamma)
    beta, delta = ref.steady_state(u, v, alpha, gamma)
    return Point((u, v), (beta, delta, alpha, gamma, ref.k1, ref.k2))
