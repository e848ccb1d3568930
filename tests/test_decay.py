"""Decay-function calculus: frozen values from direct-summation oracles and
high-precision series oracles (mpmath)."""
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lrcert as lr
from lrcert.decay import DecayError, FFunction, c_epsilon_bracket


def oracle_f_norm(f, space):
    return max(sum(f(space.d(x, y)) for y in space.points) for x in space.points)


def oracle_conv(f, space):
    best = 0.0
    for x in space.points:
        for y in space.points:
            num = sum(f(space.d(x, z)) * f(space.d(z, y)) for z in space.points)
            best = max(best, num / f(space.d(x, y)))
    return best


def oracle_tail(f, space, r):
    return max(sum(f(space.d(x, y)) for y in space.points if space.d(x, y) > r)
               for x in space.points)


def mp_exp_tail(t, k, dps=200):
    with mpmath.workdps(dps):
        t = mpmath.mpf(t)
        m = int(mpmath.ceil(k))
        term = t ** m / mpmath.factorial(m)
        total = mpmath.mpf(0)
        n = m
        while True:
            total += term
            n += 1
            term *= t / n
            if term < mpmath.mpf(10) ** (-dps - 10) * max(total, mpmath.mpf(1)):
                break
        return total


class TestFNorm:
    def test_single_site(self):
        space = lr.FiniteMetricSpace.chain(1)
        f = FFunction.power(2.0)
        assert lr.f_norm(f, space) == pytest.approx(1.0)

    def test_chain_frozen_value(self, chain6):
        f = FFunction.power(2.0)
        got = lr.f_norm(f, chain6)
        assert got == pytest.approx(oracle_f_norm(f, chain6), rel=1e-14)
        # attained at the two central sites: 1 + 2/4 + 2/9 + 1/16
        assert got == pytest.approx(1.0 + 0.5 + 2.0 / 9.0 + 1.0 / 16.0, rel=1e-14)

    def test_dominates_diagonal_term(self, chain6, grid22):
        for space in (chain6, grid22):
            for alpha in (1.0, 2.5, 4.0):
                f = FFunction.power(alpha)
                assert lr.f_norm(f, space) >= f(0.0)


class TestConvConstant:
    def test_single_site(self):
        space = lr.FiniteMetricSpace.chain(1)
        assert lr.conv_constant(FFunction.power(2.0), space) == pytest.approx(1.0)

    def test_two_site_brute_force(self):
        space = lr.FiniteMetricSpace.chain(2)
        f = FFunction.power(1.0)
        got = lr.conv_constant(f, space)
        assert got == pytest.approx(oracle_conv(f, space), rel=1e-14)
        assert got == pytest.approx(2.0)

    def test_power_law_envelope(self, chain6):
        # convexity bound for power-law profiles: C_F <= 2^alpha |F|
        for alpha in (2.0, 3.0, 4.0):
            f = FFunction.power(alpha)
            assert lr.conv_constant(f, chain6) <= 2 ** alpha * lr.f_norm(f, chain6) + 1e-12

    def test_certificate(self, chain6):
        f = FFunction.power(3.0)
        c = lr.conv_constant(f, chain6)
        for x in chain6.points:
            for y in chain6.points:
                lhs = sum(f(chain6.d(x, z)) * f(chain6.d(z, y)) for z in chain6.points)
                assert lhs <= c * f(chain6.d(x, y)) * (1 + 1e-12)


class TestTailG:
    def test_zero_beyond_diameter(self, chain6):
        f = FFunction.power(2.0)
        assert lr.tail_g(f, chain6, chain6.diam) == 0.0
        assert lr.tail_g(f, chain6, 7.3) == 0.0

    def test_r_zero_excludes_diagonal(self, chain6):
        f = FFunction.power(2.0)
        got = lr.tail_g(f, chain6, 0.0)
        expected = max(sum(f(chain6.d(x, y)) for y in chain6.points if y != x)
                       for x in chain6.points)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_frozen_value(self, chain6):
        f = FFunction.power(2.0)
        got = lr.tail_g(f, chain6, 2.0)
        assert got == pytest.approx(oracle_tail(f, chain6, 2.0), rel=1e-14)
        assert got == pytest.approx(1 / 16 + 1 / 25 + 1 / 36, rel=1e-14)

    def test_non_increasing(self, chain6):
        f = FFunction.power(2.0)
        vals = [lr.tail_g(f, chain6, r) for r in np.linspace(0, 6, 25)]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))


class TestGRegularBound:
    # the tail is at most the ball-growth envelope
    # kappa * sum over integer n in [floor(r), ceil(diam)) of (1+n)**nu F(n)
    # with kappa the space's nu-regularity constant
    @pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0])
    def test_dominates_tail(self, chain6, alpha):
        f = FFunction.power(alpha)
        kappa = lr.nu_regularity(chain6, 1.0)
        for r in np.linspace(0, 6, 13):
            ns = range(int(math.floor(r)), int(math.ceil(chain6.diam)))
            envelope = kappa * sum((1.0 + n) * f(float(n)) for n in ns)
            assert envelope >= lr.tail_g(f, chain6, r) - 1e-12


class TestPairSum:
    def test_single_pair_same_site(self, chain6):
        f = FFunction.power(2.0)
        assert lr.pair_sum(f, chain6, {2}, {2}) == pytest.approx(1.0)

    def test_single_pair_distance_three(self, chain6):
        f = FFunction.power(2.0)
        assert lr.pair_sum(f, chain6, {0}, {3}) == pytest.approx(1 / 16)

    def test_block_sum(self, chain6):
        f = FFunction.power(2.0)
        got = lr.pair_sum(f, chain6, {0, 1}, {4, 5})
        assert got == pytest.approx(f(4) + f(5) + f(3) + f(4), rel=1e-14)


class TestExpTail:
    def test_full_series(self):
        assert lr.exp_tail(1.0, 0.0) == pytest.approx(math.e, rel=1e-15)

    def test_zero_time(self):
        assert lr.exp_tail(0.0, 2.0) == 0.0

    def test_e_minus_two(self):
        assert lr.exp_tail(1.0, 2.0) == pytest.approx(math.e - 2.0, rel=1e-13)

    def test_negative_time_rejected(self):
        with pytest.raises(DecayError):
            lr.exp_tail(-0.1, 1.0)

    def test_overflow_raises(self):
        # the terms t**n / n! peak near n = t, past the double range at t = 800
        assert lr.exp_tail(700.0, 2) == 1.0142320547350051e+304
        with pytest.raises(OverflowError):
            lr.exp_tail(800.0, 2)

    @pytest.mark.parametrize("t", [0.01, 0.5, 1.0, 3.7, 10.0])
    @pytest.mark.parametrize("k", [0, 1, 2, 5, 13, 20])
    def test_against_mpmath(self, t, k):
        got = lr.exp_tail(t, k)
        want = float(mp_exp_tail(t, k))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)

    @given(t=st.floats(0, 30), k=st.floats(0, 40))
    @settings(max_examples=80, deadline=None)
    def test_recurrence(self, t, k):
        # k + 1 must shift the ceiling by exactly one in float arithmetic
        assume(math.ceil(k + 1) == math.ceil(k) + 1)
        m = math.ceil(k)
        term = t ** m / math.factorial(m)
        whole = lr.exp_tail(t, k)
        assert whole == pytest.approx(lr.exp_tail(t, k + 1) + term, rel=1e-12,
                                      abs=1e-280)

    @given(t=st.floats(0, 20), k1=st.floats(0, 30), k2=st.floats(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_k(self, t, k1, k2):
        lo, hi = min(k1, k2), max(k1, k2)
        assert lr.exp_tail(t, hi) <= lr.exp_tail(t, lo) * (1 + 1e-12) + 1e-300

    @given(k=st.floats(0, 30), t1=st.floats(0, 20), t2=st.floats(0, 20))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_t(self, k, t1, t2):
        lo, hi = min(t1, t2), max(t1, t2)
        assert lr.exp_tail(lo, k) <= lr.exp_tail(hi, k) * (1 + 1e-12) + 1e-300

    def test_stirling_envelope(self):
        # tail <= t^k e^{-k ln k + k + t} for integer k >= 1
        for t in (0.1, 0.7, 2.0, 6.0, 12.0):
            for k in range(1, 25):
                envelope = t ** k * math.exp(-k * math.log(k) + k + t)
                assert lr.exp_tail(t, k) <= envelope * (1 + 1e-12)


class TestCEpsilon:
    def test_basel(self):
        assert lr.c_epsilon(1.0) == pytest.approx(math.pi ** 2 / 6, rel=1e-10)

    def test_fourth_power(self):
        assert lr.c_epsilon(3.0) == pytest.approx(math.pi ** 4 / 90, rel=1e-10)

    @pytest.mark.parametrize("eps", [0.4, 0.5, 1.0, 2.0, 3.5])
    def test_against_mpmath_zeta(self, eps):
        with mpmath.workdps(50):
            want = float(mpmath.zeta(1 + eps))
        assert lr.c_epsilon(eps) == pytest.approx(want, rel=1e-10)

    def test_monotone_decreasing(self):
        vals = [lr.c_epsilon(e) for e in (0.5, 0.8, 1.0, 2.0, 3.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_divergent_rejected(self):
        with pytest.raises(DecayError, match="divergent"):
            lr.c_epsilon(0.0)
        with pytest.raises(DecayError, match="divergent"):
            lr.c_epsilon(-1.0)

    def test_bracket_contains_truth(self):
        for eps in (0.01, 0.02, 0.1, 0.3, 0.5, 1.0, 2.0, 3.5, 10.0, 50.0):
            mid, half = c_epsilon_bracket(eps)
            with mpmath.workdps(50):
                truth = mpmath.zeta(1 + mpmath.mpf(eps))
                assert abs(mpmath.mpf(mid) - truth) <= half, eps
            assert half <= 1e-12 * mid, eps

    def test_frozen_value(self):
        assert lr.c_epsilon(0.5) == 2.612375348685488

    def test_bracket_allocates_no_array(self):
        tracemalloc.start()
        try:
            c_epsilon_bracket(0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestWeightedProfile:
    def test_norm_contract(self, chain6):
        base = FFunction.power(2.0)
        for a in (0.0, 0.3, 1.0, 2.5):
            fa = FFunction.weighted(a, base)
            assert lr.f_norm(fa, chain6) <= lr.f_norm(base, chain6) + 1e-12
            assert lr.conv_constant(fa, chain6) <= lr.conv_constant(base, chain6) + 1e-12

    def test_pointwise(self):
        base = FFunction.power(2.0)
        fa = FFunction.weighted(0.7, base)
        rs = np.linspace(0, 5, 11)
        np.testing.assert_allclose(fa(rs), np.exp(-0.7 * rs) * base(rs), rtol=1e-15)

    def test_table_round_trip(self):
        f = FFunction.table([0.0, 1.0, 2.0], [1.0, 0.5, 0.25])
        assert f(1.0) == pytest.approx(0.5)
        with pytest.raises(DecayError):
            FFunction.table([0.0, 1.0], [0.5, 1.0])  # increasing
