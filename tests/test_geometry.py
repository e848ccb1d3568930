"""Geometry primitives against brute-force oracles."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrcert as lr
from lrcert.geometry import GeometryError


def brute_set_distance(space, xs, ys):
    return min(space.d(x, y) for x in xs for y in ys)


def brute_diameter(space, xs):
    return max(space.d(x, y) for x in xs for y in xs)


def brute_ball(space, x, radius):
    return {p for p in space.points if space.d(x, p) <= radius}


class TestSetDistance:
    def test_overlapping_sets(self, chain6):
        assert lr.set_distance(chain6, {0}, {0}) == 0.0

    def test_nearest_pair(self, chain6):
        assert lr.set_distance(chain6, {0, 1}, {4, 5}) == 3.0

    def test_grid_exhaustive(self, grid22):
        xs, ys = {(0, 0)}, {(1, 1)}
        assert lr.set_distance(grid22, xs, ys) == brute_set_distance(grid22, xs, ys) == 2.0

    def test_empty_set_rejected(self, chain6):
        with pytest.raises(GeometryError, match="empty site set"):
            lr.set_distance(chain6, set(), {0})

    def test_zero_iff_intersecting(self, chain6):
        rng = np.random.default_rng(5)
        pts = list(chain6.points)
        for _ in range(40):
            xs = set(rng.choice(pts, size=rng.integers(1, 4), replace=False).tolist())
            ys = set(rng.choice(pts, size=rng.integers(1, 4), replace=False).tolist())
            assert (lr.set_distance(chain6, xs, ys) == 0.0) == bool(xs & ys)


class TestDiameter:
    def test_singleton(self, chain6):
        assert lr.diameter(chain6, {3}) == 0.0

    def test_chain_endpoints(self, chain6):
        assert lr.diameter(chain6, {0, 5}) == 5.0

    def test_grid_exhaustive(self, grid22):
        all_sites = set(grid22.points)
        assert lr.diameter(grid22, all_sites) == brute_diameter(grid22, all_sites) == 2.0

    def test_empty_rejected(self, chain6):
        with pytest.raises(GeometryError):
            lr.diameter(chain6, set())


class TestBall:
    # the r-inflation of one site is its closed r-ball
    def test_radius_zero(self, chain6):
        assert lr.inflate(chain6, {2}, 0) == {2}

    def test_radius_one(self, chain6):
        assert lr.inflate(chain6, {2}, 1) == {1, 2, 3}

    def test_saturates(self, chain6):
        assert lr.inflate(chain6, {0}, 10) == set(chain6.points)


class TestInflate:
    def test_zero_radius_identity(self, chain6):
        assert lr.inflate(chain6, {1, 4}, 0) == {1, 4}

    def test_interior_point(self, chain6):
        assert lr.inflate(chain6, {2}, 2) == {0, 1, 2, 3, 4}

    def test_union_of_balls(self, chain6):
        expected = brute_ball(chain6, 0, 1) | brute_ball(chain6, 5, 1)
        assert lr.inflate(chain6, {0, 5}, 1) == expected == {0, 1, 4, 5}

    @given(xs=st.sets(st.integers(0, 5), min_size=1),
           r1=st.floats(0, 6), r2=st.floats(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_radius(self, xs, r1, r2):
        space = lr.FiniteMetricSpace.chain(6)
        lo, hi = min(r1, r2), max(r1, r2)
        assert lr.inflate(space, xs, lo) <= lr.inflate(space, xs, hi)

    @given(xs=st.sets(st.integers(0, 5), min_size=1), r=st.floats(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_complement_farther_than_radius(self, xs, r):
        space = lr.FiniteMetricSpace.chain(6)
        rest = set(space.points) - lr.inflate(space, xs, r)
        if rest:
            assert lr.set_distance(space, xs, rest) > r


class TestNuRegularity:
    def brute(self, space, nu):
        best = 0.0
        for n in range(int(np.ceil(space.diam)) + 1):
            for x in space.points:
                size = len(brute_ball(space, x, n + 1))
                best = max(best, size / (n + 1) ** nu)
        return best

    def test_single_site(self):
        assert lr.nu_regularity(lr.FiniteMetricSpace.chain(1), 1.0) == 1.0

    def test_chain_ten_exhaustive(self):
        space = lr.FiniteMetricSpace.chain(10)
        kappa = lr.nu_regularity(space, 1.0)
        assert kappa == pytest.approx(self.brute(space, 1.0), rel=1e-14)
        assert kappa == pytest.approx(3.0)

    def test_monotone_in_nu(self):
        space = lr.FiniteMetricSpace.chain(10)
        assert lr.nu_regularity(space, 2.0) <= lr.nu_regularity(space, 1.0)

    def test_bound_certificate(self, grid22):
        nu = 2.0
        kappa = lr.nu_regularity(grid22, nu)
        for n in range(int(np.ceil(grid22.diam)) + 1):
            for x in grid22.points:
                assert len(brute_ball(grid22, x, n + 1)) <= kappa * (n + 1) ** nu + 1e-12


class TestValidation:
    def test_triangle_violation_rejected(self):
        bad = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        with pytest.raises(GeometryError, match="triangle"):
            lr.FiniteMetricSpace([0, 1, 2], bad)

    def test_asymmetry_rejected(self):
        bad = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(GeometryError, match="symmetric"):
            lr.FiniteMetricSpace([0, 1], bad)

    def test_duplicate_points_rejected(self):
        with pytest.raises(GeometryError, match="duplicate"):
            lr.FiniteMetricSpace([0, 0], np.zeros((2, 2)))

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(GeometryError, match="diagonal"):
            lr.FiniteMetricSpace([0, 1], np.array([[0.5, 1.0], [1.0, 0.0]]))

    def test_empty_rejected(self):
        with pytest.raises(GeometryError):
            lr.FiniteMetricSpace([], np.zeros((0, 0)))
