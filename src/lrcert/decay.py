"""Decay-function calculus: profiles, derived space constants, and series tails.

A decay profile F maps distances to positive weights, is non-increasing, and
controls how interaction strength falls off.  All sums here are evaluated
exactly over the finite universe; nothing is truncated against an infinite
lattice.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .geometry import FiniteMetricSpace, Site, _require_nonempty


class DecayError(ValueError):
    pass


@dataclass(frozen=True)
class FFunction:
    """Positive non-increasing radial profile.

    ``kind`` is one of ``power`` (params: alpha), ``weighted`` (params: a,
    plus a base profile) or ``table``.  The power-law exponent is exposed for
    the evaluators that are only stated for power-law decay.
    """

    kind: str
    alpha: Optional[float] = None
    a: Optional[float] = None
    base: Optional["FFunction"] = None
    grid: Optional[tuple] = None
    values: Optional[tuple] = None

    @classmethod
    def power(cls, alpha: float) -> "FFunction":
        if not (math.isfinite(alpha) and alpha > 0):
            raise DecayError(f"power-law exponent must be finite and positive, got {alpha}")
        return cls(kind="power", alpha=float(alpha))

    @classmethod
    def weighted(cls, a: float, base: "FFunction") -> "FFunction":
        if not (math.isfinite(a) and a >= 0):
            raise DecayError(f"exponential weight must be finite and nonnegative, got {a}")
        return cls(kind="weighted", a=float(a), base=base)

    @classmethod
    def table(cls, grid, values) -> "FFunction":
        g = tuple(float(r) for r in grid)
        v = tuple(float(x) for x in values)
        if len(g) != len(v) or not g:
            raise DecayError("table needs matching nonempty grids")
        if not all(map(math.isfinite, g + v)):
            raise DecayError("table grid and values must be finite")
        if any(g[i] >= g[i + 1] for i in range(len(g) - 1)):
            raise DecayError("table grid must be strictly increasing")
        if any(x <= 0 for x in v):
            raise DecayError("profile must be strictly positive")
        if any(v[i] < v[i + 1] - 1e-15 for i in range(len(v) - 1)):
            raise DecayError("profile must be non-increasing")
        return cls(kind="table", grid=g, values=v)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if self.kind == "power":
            out = (1.0 + r) ** (-self.alpha)
        elif self.kind == "weighted":
            out = np.exp(-self.a * r) * self.base(r)
        elif self.kind == "table":
            out = np.interp(r, self.grid, self.values)
        else:  # pragma: no cover
            raise DecayError(f"unknown profile kind {self.kind!r}")
        return out if out.shape else float(out)

    @property
    def power_exponent(self) -> Optional[float]:
        """alpha when the profile is a pure power law, else None."""
        return self.alpha if self.kind == "power" else None


def _f_matrix(f: Callable, space: FiniteMetricSpace) -> np.ndarray:
    fm = np.asarray(f(space.dist), dtype=float)
    if np.min(fm) <= 0:
        raise DecayError("profile must be strictly positive on the space")
    return fm


def f_norm(f: Callable, space: FiniteMetricSpace) -> float:
    """sup over x of the row sum of F(d(x, .)), including the F(0) diagonal term."""
    return float(np.max(_f_matrix(f, space).sum(axis=1)))


def conv_constant(f: Callable, space: FiniteMetricSpace) -> float:
    """Smallest C with sum_z F(d(x,z)) F(d(z,y)) <= C F(d(x,y)) for all pairs,
    evaluated exactly as the max pair ratio on the finite universe."""
    fm = _f_matrix(f, space)
    return float(np.max((fm @ fm) / fm))


def tail_g(f: Callable, space: FiniteMetricSpace, r: float) -> float:
    """sup over x of the row sum of F restricted to distances > r; zero once
    r reaches the space diameter, non-increasing in r."""
    fm = _f_matrix(f, space)
    masked = np.where(space.dist > r, fm, 0.0)
    return float(np.max(masked.sum(axis=1)))


def pair_sum(f: Callable, space: FiniteMetricSpace, xs: Iterable[Site],
             ys: Iterable[Site]) -> float:
    """Double sum of F(d(x, y)) over x in xs, y in ys."""
    xi = space.indices(_require_nonempty(space, xs))
    yi = space.indices(_require_nonempty(space, ys))
    return float(np.asarray(f(space.dist[np.ix_(xi, yi)]), dtype=float).sum())


def exp_tail(t: float, k: float) -> float:
    """Tail sum over n >= ceil(k) of t**n / n!.

    Evaluated by forward summation of the (all-positive) tail terms with
    compensated accumulation, so there is no cancellation in either the
    k << t or k >> t regime.  Relative error is well under 1e-12.  A term or
    a partial sum past the double range raises ``OverflowError``.
    """
    if t < 0:
        raise DecayError("exp_tail needs t >= 0")
    if k < 0:
        raise DecayError("exp_tail needs k >= 0")
    m = int(math.ceil(k))
    if m == 0:
        return math.exp(t)
    if t == 0.0:
        return 0.0
    term = _leading_term(t, m)
    if term == 0.0:
        return 0.0
    total = 0.0
    comp = 0.0
    n = m
    while True:
        y = term - comp
        s = total + y
        comp = (s - total) - y
        total = s
        n += 1
        term *= t / n
        if math.isinf(term) or math.isinf(total):
            raise OverflowError(f"exp_tail({t}, {k}) exceeds the double range")
        if term == 0.0 or (n > 2.0 * t and term < total * 2.5e-17):
            break
    return total


def _leading_term(t: float, m: int) -> float:
    # t**m / m!; log-space when direct products would overflow on the way up.
    if t > 300.0 or m > 1000:
        expo = m * math.log(t) - math.lgamma(m + 1)
        return math.exp(expo) if expo > -745.0 else 0.0
    term = 1.0
    for i in range(1, m + 1):
        term *= t / i
        if term == 0.0:
            return 0.0
    return term


# Bernoulli numbers B_2, B_4, ..., B_18 as (numerator, denominator).
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
              (-3617, 510), (43867, 798))
# Euler–Maclaurin coefficients B_2j / (2j)!, each rounded once from exact integers.
_EM_COEFFS = tuple(p / (q * math.factorial(2 * j)) for j, (p, q) in enumerate(_BERNOULLI, 1))
# Where the Euler–Maclaurin tail starts; the terms before it are summed directly.
_EM_N = 17


def c_epsilon(eps: float) -> float:
    """C_eps = sum over n >= 0 of (1+n)**-(1+eps) = zeta(1+eps): the midpoint
    of :func:`c_epsilon_bracket`, within 3e-14 relative of the true value."""
    return c_epsilon_bracket(eps)[0]


def c_epsilon_bracket(eps: float) -> tuple:
    """``(midpoint, half_width)`` with zeta(1+eps) within ``half_width`` of
    ``midpoint``, for every eps > 0.

    Euler–Maclaurin with s = 1+eps and N = 17: the first 16 terms m**-s, the
    tail integral N**(1-s)/(s-1), the half term N**-s / 2 and the corrections
    T_j = B_2j/(2j)! s(s+1)...(s+2j-2) N**(-s-2j+1) for j = 1..8, added by
    ``math.fsum``.  Because m**-s is completely monotone, the remainder has
    the sign of the first omitted term T_9 and is no larger (Olver,
    *Asymptotics and Special Functions*, ch. 8; Graham, Knuth and Patashnik,
    *Concrete Mathematics*, sec. 9.5), so the value lies between the sum S_8
    and S_8 + T_9.  The midpoint is S_8 + T_9/2; the half width is |T_9|/2
    (below 3e-22, while zeta(1+eps) > 1) plus a rounding allowance of
    8 (n + 4) 2**-53 times the midpoint for the n = 27 summands, each computed
    to a few ulps.  The cost is fixed: no array, whatever eps.
    """
    if not eps > 0:
        raise DecayError("divergent series")
    s = 1.0 + eps
    tail = _EM_N ** -eps
    # m**-eps / m, not m**-s: rounding 1 + eps would cost up to 1/eps ulps
    terms = [m ** -eps / m for m in range(1, _EM_N)]
    terms += [tail / eps, 0.5 * tail / _EM_N]
    power = s * tail / _EM_N ** 2  # s(s+1)...(s+2j-2) N**(-s-2j+1) at j = 1
    for j, coeff in enumerate(_EM_COEFFS, 1):
        terms.append(coeff * power)
        power *= (s + 2 * j - 1) * (s + 2 * j) / _EM_N ** 2
    omitted = terms.pop()
    terms.append(0.5 * omitted)
    mid = math.fsum(terms)
    return mid, 0.5 * abs(omitted) + 8 * (len(terms) + 4) * 2.0 ** -53 * mid
