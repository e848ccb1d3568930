"""Analytic evaluators against arbitrary-precision formula oracles and
exact-dynamics domination checks."""
import math

import mpmath
import numpy as np
import pytest

import lrcert as lr
from lrcert import bounds, dynamics, geometry
from lrcert.bounds import BoundReport, BoundsError, ModelConstants
from lrcert.decay import FFunction

from conftest import mixed_field_chain
from test_decay import mp_exp_tail


@pytest.fixture(scope="module")
def chain4_model():
    space, f, inter = mixed_field_chain(4, alpha=3.0)
    consts = ModelConstants.from_model(f, inter, nu=1.0)
    a = lr.embed(lr.site_operator("Z", 0), space.points)
    k = lr.commutator_map(lr.site_operator("Z", 3))
    return space, f, inter, consts, a, k


@pytest.fixture(scope="module")
def power4_model():
    space, f, inter = mixed_field_chain(5, alpha=4.0, j=0.3, h=0.25, gamma=1.0)
    consts = ModelConstants.from_model(f, inter, nu=1.0)
    return space, f, inter, consts


def mp_growth_integral(v, t, dps=60):
    with mpmath.workdps(dps):
        if v == 0:
            return mpmath.mpf(0)
        v, t = mpmath.mpf(v), mpmath.mpf(t)
        return (mpmath.e ** (v * t) - 1) / v - t


class TestFiniteRangeLrb:
    def test_zero_at_time_zero(self, chain4_model):
        _, _, _, c, a, k = chain4_model
        assert bounds.rhs_finite_range_lrb(c, k.cb_upper, a.norm(), {0}, {3},
                                           0.0, 1.0) == 0.0

    def test_zero_observable(self, chain4_model):
        _, _, _, c, a, k = chain4_model
        assert bounds.rhs_finite_range_lrb(c, k.cb_upper, 0.0, {0}, {3},
                                           0.7, 1.0) == 0.0

    def test_overlap_rejected(self, chain4_model):
        _, _, _, c, a, k = chain4_model
        with pytest.raises(BoundsError):
            bounds.rhs_finite_range_lrb(c, 1.0, 1.0, {0, 1}, {1, 3}, 0.5, 1.0)

    def test_formula_oracle(self):
        space, f, inter = mixed_field_chain(4, alpha=3.0)
        c = ModelConstants.from_model(f, inter, nu=1.0)
        t, R = 0.5, 1.0
        got = bounds.rhs_finite_range_lrb(c, 2.0, 1.0, {0}, {3}, t, R)
        with mpmath.workdps(60):
            pair = mpmath.mpf(f(3.0))
            want = 2.0 * 1.0 / mpmath.mpf(c.conv) * mp_exp_tail(c.v * t, 3.0 / R) * pair
        assert got == pytest.approx(float(want), rel=1e-12)

    def test_dominated_by_full_bound(self, chain4_model):
        _, _, _, c, a, k = chain4_model
        for t in (0.1, 0.4, 1.2):
            full = bounds.rhs_full_lrb(c, k.cb_upper, a.norm(), {0}, {3}, t)
            for R in (0.5, 1.0, 2.0, 3.0, 10.0):
                fr = bounds.rhs_finite_range_lrb(c, k.cb_upper, a.norm(), {0}, {3}, t, R)
                assert fr <= full * (1 + 1e-12)


class TestFullLrb:
    def test_zero_at_time_zero(self, chain4_model):
        _, _, _, c, a, k = chain4_model
        assert bounds.rhs_full_lrb(c, k.cb_upper, a.norm(), {0}, {3}, 0.0) == 0.0

    def test_formula_oracle(self, chain4_model):
        space, f, _, c, a, k = chain4_model
        t = 0.6
        got = bounds.rhs_full_lrb(c, k.cb_upper, a.norm(), {0}, {3}, t)
        with mpmath.workdps(60):
            want = mpmath.mpf(k.cb_upper) * a.norm() / c.conv \
                * (mpmath.e ** (mpmath.mpf(c.v) * t) - 1) * mpmath.mpf(f(3.0))
        assert got == pytest.approx(float(want), rel=1e-12)


class TestStrongLrb:
    def test_zero_at_time_zero(self, chain4_model):
        _, _, _, c, a, k = chain4_model
        assert bounds.rhs_strong_lrb(c, k.cb_upper, a.norm(), 1, 3.0, 0.0) == 0.0

    def test_single_hop_arithmetic(self, chain4_model):
        # m = 1: value is (e v t) e^{v t} times the prefactor (log 1 = 0)
        _, _, _, c, a, k = chain4_model
        t = 0.3
        d = c.r0 * 0.5
        got = bounds.rhs_strong_lrb(c, k.cb_upper, a.norm(), 1, d, t)
        pref = k.cb_upper * a.norm() * 1 * c.fnorm / c.conv
        assert got == pytest.approx(pref * (math.e * c.v * t) * math.exp(c.v * t),
                                    rel=1e-12)

    def test_hop_count_and_oracle(self, chain4_model):
        _, _, _, c, a, k = chain4_model
        t = 0.4
        d = 3.0
        m = math.ceil(d / c.r0)
        got = bounds.rhs_strong_lrb(c, k.cb_upper, a.norm(), 1, d, t)
        with mpmath.workdps(60):
            evt = mpmath.e * mpmath.mpf(c.v) * t
            want = mpmath.mpf(k.cb_upper) * a.norm() * c.fnorm / c.conv \
                * evt ** m * mpmath.e ** (-m * mpmath.log(m) + mpmath.mpf(c.v) * t)
        assert got == pytest.approx(float(want), rel=1e-12)

    def test_dominates_exact_dynamics(self, chain4_model):
        space, _, inter, c, a, k = chain4_model
        dyn = lr.Dynamics(inter)
        for t in (0.05, 0.2, 0.5):
            lhs = dyn.quasi_locality(t, a, k)
            rhs = bounds.rhs_strong_lrb(c, k.cb_upper, a.norm(), 1, 3.0, t)
            assert lhs <= rhs * (1 + 1e-9)

    def test_nearest_neighbour_three_hops(self):
        # unit-range interaction at separation 3: the bound uses m = 3 hops
        space = lr.FiniteMetricSpace.chain(4)
        inter = lr.tfim_dissipative(space, j=0.4, h=0.3, gamma=1.0)
        f = FFunction.power(3.0)
        c = ModelConstants.from_model(f, inter, nu=1.0)
        assert c.r0 == 1.0
        a = lr.embed(lr.site_operator("Z", 0), space.points)
        k = lr.commutator_map(lr.site_operator("Z", 3))
        t = 0.3
        got = bounds.rhs_strong_lrb(c, k.cb_upper, a.norm(), 1, 3.0, t)
        with mpmath.workdps(60):
            evt = mpmath.e * mpmath.mpf(c.v) * t
            want = mpmath.mpf(k.cb_upper) * a.norm() * c.fnorm / c.conv \
                * evt ** 3 * mpmath.e ** (-3 * mpmath.log(3) + mpmath.mpf(c.v) * t)
        assert got == pytest.approx(float(want), rel=1e-12)
        assert lr.Dynamics(inter).quasi_locality(t, a, k) <= got * (1 + 1e-9)


class TestRangeTruncation:
    def test_zero_at_time_zero(self, chain4_model):
        _, _, _, c, a, _ = chain4_model
        assert bounds.rhs_range_truncation(c, a.norm(), {0}, 0.0, 1.0, 1.0) == 0.0

    def test_zero_when_tail_vanishes(self, chain4_model):
        space, _, _, c, a, _ = chain4_model
        assert bounds.rhs_range_truncation(c, a.norm(), {0}, 0.7, 1.0,
                                           2.0 * space.diam) == 0.0

    def test_formula_oracle(self, chain4_model):
        space, f, _, c, a, _ = chain4_model
        t, r, R = 0.45, 1.0, 2.0
        got = bounds.rhs_range_truncation(c, a.norm(), {0}, t, r, R)
        inflated = geometry.inflate(space, {0}, r)
        outside = space.all_sites() - inflated
        with mpmath.workdps(60):
            pair = mpmath.mpf(sum(f(space.d(0, y)) for y in outside))
            tail = mpmath.mpf(c.tail(R / 2.0))
            series = mp_exp_tail(c.v * t, 1.0 + r / R) / (mpmath.mpf(c.v) * c.conv)
            want = a.norm() * mpmath.mpf(c.l_fnorm) * tail * (
                t * len(inflated) + series * pair)
        assert got == pytest.approx(float(want), rel=1e-12)

    def test_dominates_exact_truncation(self, chain4_model):
        _, _, inter, c, a, _ = chain4_model
        dyn = lr.Dynamics(inter)
        for t in (0.2, 0.6):
            for R in (1.0, 2.0):
                lhs = dyn.truncation_error(t, a, R)
                for r in (0.0, 1.0, 2.0):
                    rhs = bounds.rhs_range_truncation(c, a.norm(), {0}, t, r, R)
                    assert lhs <= rhs * (1 + 1e-9)


class TestCompositeLrb:
    # the range-R term is the exact norm in the runner; its analytic bound
    # rhs_finite_range_lrb gives the composite bound's fully analytic form
    def test_zero_at_time_zero_analytic(self, chain4_model):
        _, _, _, c, a, k = chain4_model
        head = bounds.rhs_finite_range_lrb(c, k.cb_upper, a.norm(), {0}, {3}, 0.0, 1.0)
        got = bounds.rhs_composite_lrb(c, k.cb_upper, a.norm(), {0}, 0.0, 1.0, 1.0, head)
        assert got == 0.0

    def test_analytic_dominates_exact_mode(self, chain4_model):
        _, _, inter, c, a, k = chain4_model
        dyn = lr.Dynamics(inter)
        for t in (0.2, 0.5):
            for R in (1.0, 2.0):
                head = dyn.quasi_locality(t, a, k, R)
                exact = bounds.rhs_composite_lrb(c, k.cb_upper, a.norm(), {0}, t, 1.0, R, head)
                analytic = bounds.rhs_composite_lrb(
                    c, k.cb_upper, a.norm(), {0}, t, 1.0, R,
                    bounds.rhs_finite_range_lrb(c, k.cb_upper, a.norm(), {0}, {3}, t, R))
                assert exact <= analytic * (1 + 1e-12)

    def test_recovery_of_static_bound(self, chain4_model):
        # once the tail is empty, the composite bound collapses to the
        # finite-range bound, which the static bound dominates
        space, _, _, c, a, k = chain4_model
        R = 2.0 * space.diam
        for t in np.linspace(0.0, 1.5, 7):
            fr = bounds.rhs_finite_range_lrb(c, k.cb_upper, a.norm(), {0}, {3}, t, R)
            comp = bounds.rhs_composite_lrb(c, k.cb_upper, a.norm(), {0}, t, 1.0, R, fr)
            full = bounds.rhs_full_lrb(c, k.cb_upper, a.norm(), {0}, {3}, t)
            assert comp == fr  # exact equality: the additive bracket is zero
            assert fr <= full * (1 + 1e-12) + 1e-300


class TestPowerLawLrb:
    def test_window_arithmetic(self, power4_model):
        _, _, _, c = power4_model
        alpha_eps, flags = bounds.power_law_window(c, eps=0.5, delta=0.3)
        assert alpha_eps == pytest.approx(1.5)
        assert all(flags.values())
        assert (1 - 0.3) * alpha_eps - c.nu == pytest.approx(0.05)

    def test_window_violations_flag_not_raise(self, power4_model):
        _, _, _, c = power4_model
        wv = bounds.rhs_power_law_lrb(c, 2.0, 1.0, 1, 4.0, 0.1, eps=2.5, delta=0.3)
        assert not wv.valid and not wv.flags["epsilon_window"]
        wv = bounds.rhs_power_law_lrb(c, 2.0, 1.0, 1, 4.0, 1e6, eps=0.5, delta=0.3)
        assert not wv.valid and not wv.flags["time_window"]
        wv = bounds.rhs_power_law_lrb(c, 2.0, 1.0, 1, 0.5, 0.0, eps=0.5, delta=0.3)
        assert not wv.valid and not wv.flags["distance_window"]

    def test_non_power_profile_flagged(self, chain4_model):
        space, _, inter, _, _, _ = chain4_model
        f = FFunction.weighted(0.5, FFunction.power(4.0))
        c = ModelConstants.from_model(f, inter, nu=1.0)
        wv = bounds.rhs_power_law_lrb(c, 2.0, 1.0, 1, 3.0, 0.1, 0.5, 0.3)
        assert not wv.flags["power_law_profile"]

    def test_constant_oracle(self, power4_model):
        _, _, _, c = power4_model
        eps, delta = 0.5, 0.3
        got = bounds.power_law_lrb_constant(c, eps, delta)
        with mpmath.workdps(60):
            ce = mpmath.zeta(1 + mpmath.mpf(eps))
            a_eps = mpmath.mpf(1.5)
            want = c.kappa * ce * c.l_fnorm * (
                mpmath.e + 2 ** (2 * a_eps) * mpmath.mpf(2) ** (1 - delta)
                * (ce + c.conv) / c.conv)
        assert got == pytest.approx(float(want), rel=1e-10)

    def test_value_formula(self, power4_model):
        _, _, _, c = power4_model
        eps, delta, d, t = 0.5, 0.3, 4.0, 0.01
        wv = bounds.rhs_power_law_lrb(c, 2.0, 1.5, 1, d, t, eps, delta)
        assert wv.valid
        const = bounds.power_law_lrb_constant(c, eps, delta)
        want = const * 2.0 * 1.5 * 1 * t / (1 + d) ** 0.05
        assert wv.value == pytest.approx(want, rel=1e-12)

    def test_dominates_exact_dynamics_in_window(self, power4_model):
        space, _, inter, c = power4_model
        dyn = lr.Dynamics(inter)
        a = lr.embed(lr.site_operator("Z", 0), space.points)
        k = lr.commutator_map(lr.site_operator("Z", 4))
        d = 4.0
        t_max = d ** 0.3 / (math.e * c.v)
        for t in np.linspace(0.0, t_max, 4):
            wv = bounds.rhs_power_law_lrb(c, k.cb_upper, a.norm(), 1, d, t, 0.5, 0.3)
            assert wv.valid
            lhs = dyn.quasi_locality(t, a, k)
            assert lhs <= wv.value * (1 + 1e-9) + 1e-300


def surface_row(c, xs, r, x):
    """The surface_sum row the theorem table builds from the (lhs, rhs) pair."""
    return BoundReport("surface_sum", {}, *bounds.surface_sum_check(c, xs, r, x))


class TestSurfaceSum:
    def test_full_inflation_both_sides_zero(self, chain4_model):
        _, _, _, c, _, _ = chain4_model
        rep = surface_row(c, {0}, r=5.0, x=0)
        assert rep.lhs == 0.0 and rep.rhs == 0.0 and rep.passes()

    def test_no_surface_terms(self):
        space = lr.FiniteMetricSpace.chain(3)
        from lrcert.model import DissipativeInteraction
        inter = DissipativeInteraction(space, ())
        f = FFunction.power(2.0)
        c = ModelConstants.from_model(f, inter, nu=1.0)
        rep = surface_row(c, {0}, r=1.0, x=0)
        assert rep.lhs == 0.0 and rep.passes()

    def test_anchor_outside_region_rejected(self, chain4_model):
        _, _, _, c, _, _ = chain4_model
        with pytest.raises(BoundsError):
            bounds.surface_sum_check(c, {0}, r=1.0, x=3)

    def test_exhaustive_oracle_on_long_range_model(self):
        space = lr.FiniteMetricSpace.chain(5)
        inter = lr.long_range_zz(space, 0.6, 3.0, 1.0)
        f = FFunction.power(3.0)
        c = ModelConstants.from_model(f, inter, nu=1.0)
        xs, r, x = {0}, 1.0, 0
        rep = surface_row(c, xs, r, x)
        # oracle: the supports that meet both the inflation and its complement
        inflated = geometry.inflate(space, xs, r)
        straddling = [t.support for t in inter.terms
                      if t.support & inflated and t.support - inflated]
        lhs = 0.0
        for t in inter.terms:
            if t.support in straddling and not (t.support & xs):
                lhs += t.cb_upper * sum(f(space.d(x, z)) for z in t.support)
        assert rep.lhs == pytest.approx(lhs, rel=1e-13)
        assert rep.lhs <= rep.rhs * (1 + 1e-12)
        assert rep.passes()


class TestLocalApprox:
    def test_zero_at_time_zero(self, chain4_model):
        _, _, _, c, a, _ = chain4_model
        wv = bounds.rhs_local_approx(c, a.norm(), {0}, 0.0, 1.0)
        assert wv.value == 0.0 and wv.valid

    def test_full_inflation_is_zero(self, chain4_model):
        _, _, _, c, a, _ = chain4_model
        wv = bounds.rhs_local_approx(c, a.norm(), {0}, 0.8, 5.0)
        assert wv.value == 0.0

    def test_small_radius_flagged(self, chain4_model):
        _, _, _, c, a, _ = chain4_model
        wv = bounds.rhs_local_approx(c, a.norm(), {0}, 0.5, 0.5)
        assert not wv.valid and not wv.flags["radius_window"]

    def test_formula_oracle(self, chain4_model):
        space, f, _, c, a, _ = chain4_model
        t, r = 0.5, 1.0
        wv = bounds.rhs_local_approx(c, a.norm(), {0}, t, r)
        outside = space.all_sites() - geometry.inflate(space, {0}, r)
        with mpmath.workdps(60):
            pair = mpmath.mpf(sum(f(space.d(0, y)) for y in outside))
            bracket = t + (c.conv + c.fnorm) / mpmath.mpf(c.conv) \
                * mp_growth_integral(c.v, t)
            want = a.norm() * c.l_fnorm * bracket * pair
        assert wv.value == pytest.approx(float(want), rel=1e-12)

    def test_dominates_exact_local_error(self, chain4_model):
        _, _, inter, c, a, _ = chain4_model
        dyn = lr.Dynamics(inter)
        for t in (0.2, 0.5):
            for r in (1.0, 2.0):
                lhs = dyn.local_error(t, a, r)
                wv = bounds.rhs_local_approx(c, a.norm(), {0}, t, r)
                assert lhs <= wv.value * (1 + 1e-9)

    def test_growth_integral_small_argument(self):
        # series form agrees with the closed form at the switch point
        from lrcert.bounds import _growth_integral
        for v in (1e-9, 1e-8, 2e-8, 5e-5, 1e-4, 2e-4, 1.0):
            t = 1.0
            got = _growth_integral(v, t)
            want = float(mp_growth_integral(v, t))
            assert got == pytest.approx(want, rel=1e-10, abs=1e-25)


class TestLocalApproxPowerLaw:
    def test_constant_oracle(self, power4_model):
        _, _, _, c = power4_model
        eps, delta = 0.5, 0.3
        got = bounds.local_approx_constant(c, eps, delta)
        with mpmath.workdps(60):
            ce = mpmath.zeta(1 + mpmath.mpf(eps))
            a_eps = mpmath.mpf(1.5)
            want = (c.kappa * ce / c.conv) * (
                c.kappa * 2 ** (2 * a_eps) * mpmath.mpf(2) ** (1 - delta)
                * (ce + c.conv) + mpmath.e * (c.conv + c.fnorm))
        assert got == pytest.approx(float(want), rel=1e-10)

    def test_spec_style_arithmetic(self):
        # direct arithmetic of the constant from raw ingredient values
        with mpmath.workdps(60):
            kappa, ce, cf, fn = map(mpmath.mpf, (2.0, 1.645, 3.0, 2.0))
            a_eps, delta = mpmath.mpf(1.5), mpmath.mpf(0.3)
            want = (kappa * ce / cf) * (kappa * 2 ** (2 * a_eps) * 2 ** (1 - delta)
                                        * (ce + cf) + mpmath.e * (cf + fn))
        got = (2.0 * 1.645 / 3.0) * (2.0 * 2 ** 3.0 * 2 ** 0.7 * (1.645 + 3.0)
                                     + math.e * (3.0 + 2.0))
        assert got == pytest.approx(float(want), rel=1e-12)

    def test_domination_in_window(self, power4_model):
        space, _, inter, c = power4_model
        a = lr.embed(lr.site_operator("Z", 0), space.points)
        dyn = lr.Dynamics(inter)
        for r in (1.0, 2.0):
            t = r ** 0.3 / (math.e * c.v) * 0.9
            wv = bounds.rhs_local_approx_power_law(c, a.norm(), 1, r, t, 0.5, 0.3)
            assert wv.valid
            lhs = dyn.local_error(t, a, r)
            assert lhs <= wv.value * (1 + 1e-9)


class TestCorrelationEvaluators:
    def test_general_zero_at_time_zero(self, chain4_model):
        _, _, _, c, a, k = chain4_model
        wv = bounds.rhs_correlation_general(c, 1.0, 1.0, {0}, {3}, 0.0, 1.0)
        assert wv.value == 0.0

    def test_general_empty_complements(self, chain4_model):
        _, _, _, c, _, _ = chain4_model
        wv = bounds.rhs_correlation_general(c, 1.0, 1.0, {0}, {3}, 0.6, 4.0)
        assert wv.value == 0.0

    def test_general_formula_oracle(self, chain4_model):
        space, f, _, c, _, _ = chain4_model
        t, r = 0.4, 1.0
        wv = bounds.rhs_correlation_general(c, 1.5, 0.5, {0}, {3}, t, r)
        out_x = space.all_sites() - geometry.inflate(space, {0}, r)
        out_y = space.all_sites() - geometry.inflate(space, {3}, r)
        with mpmath.workdps(60):
            sums = mpmath.mpf(sum(f(space.d(0, y)) for y in out_x)
                              + sum(f(space.d(3, y)) for y in out_y))
            bracket = t + (c.conv + c.fnorm) / mpmath.mpf(c.conv) \
                * mp_growth_integral(c.v, t)
            want = 2 * 1.5 * 0.5 * c.l_fnorm * bracket * sums
        assert wv.value == pytest.approx(float(want), rel=1e-12)

    def test_power_law_structural_ratio(self, power4_model):
        _, _, _, c = power4_model
        eps, delta, r, t = 0.5, 0.3, 2.0, 0.01
        cor = bounds.rhs_correlation_power_law(c, 2.0, 3.0, 1, 2, r, t, eps, delta)
        loc = bounds.rhs_local_approx_power_law(c, 1.0, 1, r, t, eps, delta)
        assert cor.valid and loc.valid
        # cor = 3 (|X| + |Y|) a b  x  (local with unit norm and unit region size)
        assert cor.value == pytest.approx(3.0 * (1 + 2) * 2.0 * 3.0 * loc.value,
                                          rel=1e-12)


class TestFixedPointEvaluators:
    def make_weighted_consts(self, a_weight=1.0):
        space, f, inter = mixed_field_chain(4, alpha=3.0)
        fa = FFunction.weighted(a_weight, f)
        c_a = ModelConstants.from_model(fa, inter, nu=1.0)
        f0_norm = lr.f_norm(f, space)
        return c_a, f0_norm

    def test_zero_observable(self):
        c_a, f0 = self.make_weighted_consts()
        got = bounds.rhs_fixed_point_exponential(c_a, f0, 0.0, 1.0, 1, 1, 3.0,
                                                 lambda t: 2.0)
        assert got == 0.0

    def test_trivial_governance_additive_term(self):
        c_a, f0 = self.make_weighted_consts()
        with_g = bounds.rhs_fixed_point_exponential(c_a, f0, 1.0, 1.0, 1, 1, 3.0,
                                                    lambda t: 2.0)
        without = bounds.rhs_fixed_point_exponential(c_a, f0, 1.0, 1.0, 1, 1, 3.0,
                                                     lambda t: 0.0)
        assert with_g - without == pytest.approx(6.0, rel=1e-12)

    def test_close_separation_rejected(self):
        c_a, f0 = self.make_weighted_consts()
        got = bounds.rhs_fixed_point_exponential(c_a, f0, 1.0, 1.0, 1, 1, 2.0,
                                                 lambda t: 2.0)
        assert math.isnan(got.value) and got.flags == {"hypothesis": False}

    def test_exponential_formula_oracle(self):
        c_a, f0 = self.make_weighted_consts(a_weight=0.8)
        d = 3.0
        got = bounds.rhs_fixed_point_exponential(c_a, f0, 1.2, 0.7, 1, 2, d,
                                                 lambda t: 0.25)
        with mpmath.workdps(60):
            v_a = mpmath.mpf(c_a.v)
            t_a = mpmath.mpf(0.8) * d / (4 * v_a)
            bracket = t_a + (c_a.conv + c_a.fnorm) / mpmath.mpf(c_a.conv) \
                * ((mpmath.e ** (v_a * t_a) - 1) / v_a - t_a)
            first = 2 * 1.2 * 0.7 * (1 + 2) * c_a.l_fnorm * f0 * bracket \
                * mpmath.e ** (-mpmath.mpf(0.8) * d / 2)
            want = first + 3 * 1.2 * 0.7 * 0.25
        assert got == pytest.approx(float(want), rel=1e-12)

    def test_power_law_constant_oracle(self, power4_model):
        _, _, _, c = power4_model
        eps, delta, eta = 0.5, 0.3, 0.02
        d = 4.0
        got = bounds.rhs_fixed_point_power_law(c, 1.0, 1.0, 1, 1, d, eps, delta, eta,
                                               lambda t: 0.0)
        with mpmath.workdps(60):
            const2 = mpmath.mpf(bounds.local_approx_constant(c, eps, delta))
            expo = mpmath.mpf(0.7) * mpmath.mpf(1.5) - 1
            c_prime = 3 * const2 / (mpmath.e * mpmath.mpf(c.v)) * 2 ** (expo - eta)
            want = c_prime * (1 + 1) * c.l_fnorm / (1 + d) ** (expo - eta)
        assert got == pytest.approx(float(want), rel=1e-10)

    def test_c_prime_arithmetic(self):
        # standalone arithmetic of the derived constant from raw values
        with mpmath.workdps(60):
            c2, v, delta, a_eps, nu, eta = map(
                mpmath.mpf, (10.0, 2.0, 0.3, 1.5, 1.0, 0.02))
            expo = (1 - delta) * a_eps - nu
            want = 3 * c2 / (mpmath.e * v) * 2 ** (expo - eta)
        got = 3 * 10.0 / (math.e * 2.0) * 2 ** (0.7 * 1.5 - 1.0 - 0.02)
        assert got == pytest.approx(float(want), rel=1e-12)

    def test_eta_window_rejected(self, power4_model):
        _, _, _, c = power4_model
        got = bounds.rhs_fixed_point_power_law(c, 1.0, 1.0, 1, 1, 4.0, 0.5, 0.3,
                                               0.2, lambda t: 0.0)
        assert math.isnan(got.value) and got.flags == {"hypothesis": False}


class TestReports:
    def test_pass_rule(self):
        rep = bounds.BoundReport("x", {}, lhs=1.0, rhs=1.0)
        assert rep.passes() and rep.slack == 0.0
        rep = bounds.BoundReport("x", {}, lhs=1.0 + 1e-11, rhs=1.0)
        assert rep.passes()  # inside the roundoff allowance
        rep = bounds.BoundReport("x", {}, lhs=1.1, rhs=1.0)
        assert not rep.passes()
        rep = bounds.BoundReport("x", {}, lhs=0.0, rhs=1.0, flags={"w": False})
        assert not rep.valid and not rep.passes()

    def test_monotone_rhs_in_time(self, chain4_model):
        _, _, _, c, a, k = chain4_model
        ts = np.linspace(0.0, 2.0, 9)
        for fn in (
            lambda t: bounds.rhs_full_lrb(c, k.cb_upper, a.norm(), {0}, {3}, t),
            lambda t: bounds.rhs_finite_range_lrb(c, k.cb_upper, a.norm(), {0}, {3},
                                                  t, 1.0),
            lambda t: bounds.rhs_range_truncation(c, a.norm(), {0}, t, 1.0, 1.0),
            lambda t: bounds.rhs_local_approx(c, a.norm(), {0}, t, 1.0).value,
        ):
            vals = [fn(t) for t in ts]
            assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:]))
