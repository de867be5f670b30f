"""Closed-form parameterizations of the reaction-diffusion catastrophe sets.

The tests grade the solver against these: a point composed here has its
first m level determinants vanishing by construction (m = 1..4 by kind).
The fractional-power evaluators are plain numeric functions with explicit
domain guards; they live outside the expression grammar and outside the
package.
"""

from __future__ import annotations

import math

from catafind.expr import Frozen, Point
from catafind.scenarios import DomainError


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
