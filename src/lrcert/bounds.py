"""Analytic right-hand sides of the certified inequalities, and the report record.

Each evaluator is a pure function of model constants and geometry returning a
float, a ``WindowedValue`` or (``surface_sum_check``) the lhs and rhs; only
``harness.THEOREMS`` builds ``BoundReport`` rows.  Every bound is stated on
one volume Lambda, the interaction's space, which the evaluators read off the
constants (``ModelConstants.space``); a caller passes only the supports and
the grid point.  Exponent or hypothesis
windows never raise during sweeps: out-of-window points come back as values
flagged invalid, so a parameter sweep records rather than aborts.  The two
fixed-point evaluators raise on violated hypotheses instead, since they are
single-point checks by construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

from . import decay, geometry
from .decay import FFunction, c_epsilon, exp_tail
from .geometry import FiniteMetricSpace, Site
from .model import DissipativeInteraction, interaction_f_norm

SLACK_RTOL = 1e-9


class BoundsError(ValueError):
    pass


@dataclass(frozen=True)
class ModelConstants:
    """All scalar constants a bound evaluator needs, computed once per model.

    The volume Lambda every bound is stated on is the interaction's space
    (``space``), and ``r0`` is its range.  ``v = l_fnorm * conv`` is the
    velocity used by every evaluator.
    """

    f: FFunction
    interaction: DissipativeInteraction
    nu: float
    kappa: float
    fnorm: float
    conv: float
    l_fnorm: float

    @classmethod
    def from_model(cls, f: FFunction, interaction: DissipativeInteraction,
                   nu: float = 1.0) -> "ModelConstants":
        space = interaction.space
        return cls(
            f=f,
            interaction=interaction,
            nu=float(nu),
            kappa=geometry.nu_regularity(space, nu),
            fnorm=decay.f_norm(f, space),
            conv=decay.conv_constant(f, space),
            l_fnorm=interaction_f_norm(interaction, f),
        )

    @property
    def space(self) -> FiniteMetricSpace:
        return self.interaction.space

    @property
    def r0(self) -> float:
        return self.interaction.range_r0

    @property
    def v(self) -> float:
        return self.l_fnorm * self.conv

    def tail(self, r: float) -> float:
        return decay.tail_g(self.f, self.space, r)

    def pairs(self, xs: Iterable[Site], ys) -> float:
        ys = frozenset(ys)
        if not ys:
            return 0.0
        return decay.pair_sum(self.f, self.space, xs, ys)

    def growth_integral(self, t: float) -> float:
        """Closed form of the integral of (e^{v s} - 1) over [0, t]."""
        return _growth_integral(self.v, t)


def _growth_integral(v: float, t: float) -> float:
    if t < 0:
        raise BoundsError("negative time")
    x = v * t
    if x < 1e-4:
        # series in v t; the closed form cancels catastrophically here
        return t * x * (0.5 + x * (1.0 / 6.0 + x / 24.0))
    return math.expm1(x) / v - t


@dataclass(frozen=True)
class BoundReport:
    """One certified inequality instance.

    ``passes()`` requires every validity flag and a slack of at least
    ``-SLACK_RTOL * max(1, rhs)``; rows with ``valid == False`` are recorded
    but never count as violations.  It is the one pass predicate, at the one
    tolerance, behind the CSV and JSON ``pass`` column, the manifest tallies
    and the CLI exit code.
    """

    theorem: str
    params: dict
    lhs: float
    rhs: float
    flags: dict = field(default_factory=dict)

    @property
    def valid(self) -> bool:
        return all(self.flags.values())

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    def passes(self) -> bool:
        return self.valid and self.slack >= -SLACK_RTOL * max(1.0, self.rhs)


@dataclass(frozen=True)
class WindowedValue:
    """An evaluator output together with its hypothesis-window flags."""

    value: float
    flags: dict

    @property
    def valid(self) -> bool:
        return all(self.flags.values())


# -- quasi-locality family ------------------------------------------------------


def rhs_finite_range_lrb(c: ModelConstants, k_cb: float, a_norm: float,
                         xs: Iterable[Site], ys: Iterable[Site], t: float,
                         R: float) -> float:
    """Bound for the range-R dynamics: prefactor times the exponential-series
    tail at index d(X, Y) / R."""
    xs, ys = frozenset(xs), frozenset(ys)
    if xs & ys:
        raise BoundsError("supports must be disjoint")
    if R <= 0:
        raise BoundsError("range must be positive")
    d = geometry.set_distance(c.space, xs, ys)
    return (k_cb * a_norm / c.conv) * exp_tail(c.v * t, d / R) * c.pairs(xs, ys)


def rhs_full_lrb(c: ModelConstants, k_cb: float, a_norm: float,
                 xs: Iterable[Site], ys: Iterable[Site], t: float) -> float:
    """Static bound for the full dynamics: (e^{v t} - 1) profile sum."""
    xs, ys = frozenset(xs), frozenset(ys)
    if xs & ys:
        raise BoundsError("supports must be disjoint")
    return (k_cb * a_norm / c.conv) * math.expm1(c.v * t) * c.pairs(xs, ys)


def rhs_strong_lrb(c: ModelConstants, k_cb: float, a_norm: float, x_size: int,
                   d: float, t: float) -> float:
    """Finite-range strong-decay bound with m = ceil(d / R0) hops."""
    if c.r0 <= 0:
        raise BoundsError("interaction has zero range")
    if d <= 0:
        raise BoundsError("needs positive separation")
    m = math.ceil(d / c.r0)
    evt = math.e * c.v * t
    if evt == 0.0:
        return 0.0
    return (k_cb * a_norm * x_size * c.fnorm / c.conv) * evt ** m * math.exp(
        -m * math.log(m) + c.v * t)


def rhs_range_truncation(c: ModelConstants, a_norm: float, xs: Iterable[Site],
                         t: float, r: float, R: float) -> float:
    """Bound on full-vs-truncated dynamics via the uniform tail G(R/2) and a
    buffer region of radius r around the observable support."""
    if R <= 0:
        raise BoundsError("range must be positive")
    if r < 0 or t < 0:
        raise BoundsError("needs r >= 0 and t >= 0")
    if c.l_fnorm == 0.0:
        return 0.0
    xs = frozenset(xs)
    inflated = geometry.inflate(c.space, xs, r)
    outside = c.space.all_sites() - inflated
    tail = c.tail(R / 2.0)
    if tail == 0.0:
        return 0.0
    series = exp_tail(c.v * t, 1.0 + r / R) / (c.v * c.conv) * c.pairs(xs, outside) \
        if outside else 0.0
    return a_norm * c.l_fnorm * tail * (t * len(inflated) + series)


def rhs_composite_lrb(c: ModelConstants, k_cb: float, a_norm: float,
                      xs: Iterable[Site], t: float, r: float, R: float,
                      head: float) -> float:
    """Quasi-locality of the full dynamics through its range-R approximant:
    ``head``, the range-R dynamics' term (its exact norm, or
    ``rhs_finite_range_lrb``), plus k_cb times the truncation bracket."""
    return head + k_cb * rhs_range_truncation(c, a_norm, xs, t, r, R)


# -- power-law family -----------------------------------------------------------


def power_law_window(c: ModelConstants, eps: float, delta: float) -> tuple:
    """(alpha_eps, flags) for the power-law hypotheses shared by the
    power-law evaluators; alpha_eps is NaN when the profile is not power-law."""
    alpha = c.f.power_exponent
    flags = {"power_law_profile": alpha is not None}
    if alpha is None:
        return float("nan"), flags
    alpha_eps = alpha - c.nu - 1.0 - eps
    flags["alpha_window"] = alpha > 2.0 * c.nu + 1.0
    flags["epsilon_window"] = 0.0 < eps < alpha - 2.0 * c.nu - 1.0
    flags["delta_window"] = 0.0 < delta < 1.0
    flags["exponent_window"] = (1.0 - delta) * alpha_eps > c.nu
    return alpha_eps, flags


def _power_law_value(c: ModelConstants, eps: float, delta: float, window: str,
                     x: float, t: float, prefactor: Callable[[], float]) -> WindowedValue:
    """``prefactor() * t / (1 + x)**((1 - delta) alpha_eps - nu)`` at the scale x
    (a distance or a buffer radius), flagged by the power-law windows, by
    ``window`` (x >= 1) and by the time window e v t <= x**delta.  The value is
    NaN unless every flag but the time window holds."""
    alpha_eps, flags = power_law_window(c, eps, delta)
    flags[window] = x >= 1.0
    flags["time_window"] = all(flags.values()) and 0.0 <= math.e * c.v * t <= x ** delta
    if not all(f for k, f in flags.items() if k != "time_window"):
        return WindowedValue(float("nan"), flags)
    return WindowedValue(
        prefactor() * t / (1.0 + x) ** ((1.0 - delta) * alpha_eps - c.nu), flags)


def power_law_lrb_constant(c: ModelConstants, eps: float, delta: float) -> float:
    """kappa C_eps |L|_F (e + 2^{2 a_eps} 2^{1-delta} (C_eps + C_F) / C_F)."""
    alpha_eps, flags = power_law_window(c, eps, delta)
    if not all(flags.values()):
        raise BoundsError("power-law hypotheses violated")
    ce = c_epsilon(eps)
    return c.kappa * ce * c.l_fnorm * (
        math.e + 2.0 ** (2.0 * alpha_eps) * 2.0 ** (1.0 - delta) * (ce + c.conv) / c.conv)


def rhs_power_law_lrb(c: ModelConstants, k_cb: float, a_norm: float, x_size: int,
                      d: float, t: float, eps: float, delta: float) -> WindowedValue:
    """Linear-in-time power-law bound, valid while e v t <= d**delta."""
    return _power_law_value(c, eps, delta, "distance_window", d, t, lambda: (
        power_law_lrb_constant(c, eps, delta) * k_cb * a_norm * x_size))


def local_approx_constant(c: ModelConstants, eps: float, delta: float) -> float:
    """(kappa C_eps / C_F)(kappa 2^{2 a_eps} 2^{1-delta}(C_eps + C_F) + e (C_F + |F|))."""
    alpha_eps, flags = power_law_window(c, eps, delta)
    if not all(flags.values()):
        raise BoundsError("power-law hypotheses violated")
    ce = c_epsilon(eps)
    return (c.kappa * ce / c.conv) * (
        c.kappa * 2.0 ** (2.0 * alpha_eps) * 2.0 ** (1.0 - delta) * (ce + c.conv)
        + math.e * (c.conv + c.fnorm))


def rhs_local_approx_power_law(c: ModelConstants, a_norm: float, x_size: int,
                               r: float, t: float, eps: float,
                               delta: float) -> WindowedValue:
    """Power-law strictly-local approximation bound in the buffer radius r."""
    return _power_law_value(c, eps, delta, "radius_window", r, t, lambda: (
        local_approx_constant(c, eps, delta) * a_norm * x_size * c.l_fnorm))


def rhs_correlation_power_law(c: ModelConstants, a_norm: float, b_norm: float,
                              x_size: int, y_size: int, r: float, t: float,
                              eps: float, delta: float) -> WindowedValue:
    """Power-law bound on the dynamically generated correlation quantity."""
    return _power_law_value(c, eps, delta, "radius_window", r, t, lambda: (
        3.0 * local_approx_constant(c, eps, delta) * a_norm * b_norm * (x_size + y_size)
        * c.l_fnorm))


# -- strictly local approximation ------------------------------------------------


def surface_sum_check(c: ModelConstants, xs: Iterable[Site], r: float, x: Site) -> tuple:
    """(lhs, rhs) of the anchored surface-term sum against its profile-tail bound.

    LHS sums cb_upper over interaction supports that straddle the boundary of
    the r-inflation of xs while avoiding xs; RHS is
    |L|_F (C_F + |F|) times the anchored tail sum outside the inflation.
    """
    xs = frozenset(xs)
    if x not in xs:
        raise BoundsError("anchor site must lie in the localization region")
    space = c.space
    inflated = geometry.inflate(space, xs, r)
    outside = space.all_sites() - inflated
    lhs = 0.0
    for term in c.interaction.terms:
        z = term.support
        if not (z & inflated) or not (z & outside) or (z & xs):
            continue
        lhs += term.cb_upper * sum(float(c.f(space.d(x, z_site))) for z_site in z)
    rhs = c.l_fnorm * (c.conv + c.fnorm) * sum(
        float(c.f(space.d(x, y))) for y in outside)
    return lhs, rhs


def rhs_local_approx(c: ModelConstants, a_norm: float, xs: Iterable[Site],
                     t: float, r: float) -> WindowedValue:
    """Strictly-local approximation bound; stated for buffer radius r >= 1,
    smaller radii are reported but flagged."""
    xs = frozenset(xs)
    flags = {"radius_window": r >= 1.0}
    outside = c.space.all_sites() - geometry.inflate(c.space, xs, r)
    if not outside:
        return WindowedValue(0.0, flags)
    bracket = t + (c.conv + c.fnorm) / c.conv * c.growth_integral(t)
    value = a_norm * c.l_fnorm * bracket * c.pairs(xs, outside)
    return WindowedValue(value, flags)


# -- correlation decay ----------------------------------------------------------


def rhs_correlation_general(c: ModelConstants, a_norm: float, b_norm: float,
                            xs: Iterable[Site], ys: Iterable[Site], t: float,
                            r: float) -> WindowedValue:
    """Bound on the dynamically generated correlations between two regions."""
    xs, ys = frozenset(xs), frozenset(ys)
    vol = c.space.all_sites()
    flags = {"radius_window": r >= 1.0}
    out_x = vol - geometry.inflate(c.space, xs, r)
    out_y = vol - geometry.inflate(c.space, ys, r)
    sums = (c.pairs(xs, out_x) if out_x else 0.0) + (c.pairs(ys, out_y) if out_y else 0.0)
    bracket = t + (c.conv + c.fnorm) / c.conv * c.growth_integral(t)
    return WindowedValue(2.0 * a_norm * b_norm * c.l_fnorm * bracket * sums, flags)


def rhs_dynamic_correlation(c: ModelConstants, a_norm: float, b_norm: float,
                            xs: Iterable[Site], ys: Iterable[Site], r: float,
                            governance: Callable[[float, float, float], float],
                            defect: float) -> WindowedValue:
    """|A| |B| governance(|X_r|, |Y_r|, d(X_r, Y_r)) of the r-inflations plus the
    localization ``defect`` (``c_ab``).  The factorization behind it needs
    2r < d(X, Y); the boundary case 2r = d(X, Y) is evaluated but flagged."""
    d = geometry.set_distance(c.space, xs, ys)
    flags = {"separation_window": d >= 2.0, "radius_window": 2.0 * r >= 2.0,
             "factorization_strict": 2.0 * r < d}
    xr, yr = geometry.inflate(c.space, xs, r), geometry.inflate(c.space, ys, r)
    gov = float(governance(len(xr), len(yr), geometry.set_distance(c.space, xr, yr)))
    return WindowedValue(a_norm * b_norm * gov + defect, flags)


# -- fixed-point correlation bounds ----------------------------------------------


def rhs_fixed_point_exponential(c_a: ModelConstants, f0_norm: float, a_norm: float,
                                b_norm: float, x_size: int, y_size: int, d: float,
                                g: Callable[[float], float]) -> float:
    """Exponential fixed-point clustering bound.

    ``c_a`` must be built with an exponentially weighted profile; the weight
    sets the evaluation time t_a = a d / (4 v_a).  ``g`` is the convergence
    governance handle (values in [0, 2]).
    """
    if d <= 2:
        raise BoundsError("separation must exceed 2")
    if c_a.f.kind != "weighted":
        raise BoundsError("needs constants built with a weighted profile")
    a_weight = c_a.f.a
    if a_weight is None or a_weight <= 0:
        raise BoundsError("weight must be positive")
    v_a = c_a.v
    if v_a == 0.0:
        raise BoundsError("empty interaction")
    t_a = a_weight * d / (4.0 * v_a)
    bracket = t_a + (c_a.conv + c_a.fnorm) / c_a.conv * c_a.growth_integral(t_a)
    first = 2.0 * a_norm * b_norm * (x_size + y_size) * c_a.l_fnorm * f0_norm \
        * bracket * math.exp(-a_weight * d / 2.0)
    return first + 3.0 * a_norm * b_norm * float(g(t_a))


def rhs_fixed_point_power_law(c: ModelConstants, a_norm: float, b_norm: float,
                              x_size: int, y_size: int, d: float, eps: float,
                              delta: float, eta_exp: float,
                              g: Callable[[float], float]) -> float:
    """Power-law fixed-point clustering bound with free exponent eta_exp."""
    if d <= 2:
        raise BoundsError("separation must exceed 2")
    alpha_eps, flags = power_law_window(c, eps, delta)
    if not all(flags.values()):
        raise BoundsError("power-law hypotheses violated")
    exponent = (1.0 - delta) * alpha_eps - c.nu
    if not (0.0 < eta_exp < min(delta, exponent)):
        raise BoundsError("eta outside its admissible window")
    if c.v == 0.0:
        raise BoundsError("empty interaction")
    const2 = local_approx_constant(c, eps, delta)
    c_prime = (3.0 * const2 / (math.e * c.v)) * 2.0 ** (exponent - eta_exp)
    first = c_prime * a_norm * b_norm * (x_size + y_size) * c.l_fnorm \
        / (1.0 + d) ** (exponent - eta_exp)
    t_point = d ** eta_exp / (math.e * c.v * 2.0 ** eta_exp)
    return first + 3.0 * a_norm * b_norm * float(g(t_point))
