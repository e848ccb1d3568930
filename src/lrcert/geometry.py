"""Finite metric spaces and the set-geometric primitives the bounds quantify over.

All objects are immutable after construction, so they are safe to share
between concurrent evaluations.  Metric axioms are validated eagerly with
absolute tolerance 1e-12; a violation is an error, not a warning.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

import numpy as np

Site = Hashable

METRIC_ATOL = 1e-12


class GeometryError(ValueError):
    """Raised for malformed spaces, empty site sets, or containment violations."""


def _as_frozen(space: "FiniteMetricSpace", sites: Iterable[Site]) -> frozenset:
    members = frozenset(sites)
    unknown = [s for s in members if s not in space._index]
    if unknown:
        raise GeometryError(f"sites not in space: {sorted(map(repr, unknown))}")
    return members


@dataclass(frozen=True, eq=False)
class FiniteMetricSpace:
    """A finite set of sites with an explicit, validated distance table.

    ``points`` fixes a canonical site order used everywhere downstream
    (tensor-factor order, report ordering).  ``dist`` is indexed by position
    in ``points``.  Spaces compare by identity, as do the other types that
    hold arrays: ``==`` on an array has no single truth value.
    """

    points: tuple
    dist: np.ndarray
    descriptor: str = "explicit"
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        points = tuple(self.points)
        if not points:
            raise GeometryError("space needs at least one site")
        if len(set(points)) != len(points):
            raise GeometryError("duplicate sites")
        d = np.array(self.dist, dtype=float)
        n = len(points)
        if d.shape != (n, n):
            raise GeometryError(f"distance table shape {d.shape} != ({n}, {n})")
        if np.max(np.abs(np.diag(d))) > METRIC_ATOL:
            raise GeometryError("nonzero diagonal in distance table")
        if np.max(np.abs(d - d.T)) > METRIC_ATOL:
            raise GeometryError("distance table not symmetric")
        off = d[~np.eye(n, dtype=bool)]
        if n > 1 and np.min(off) <= 0:
            raise GeometryError("distinct sites at non-positive distance")
        for k in range(n):
            if np.min(d[:, k, None] + d[None, k, :] - d) < -METRIC_ATOL:
                raise GeometryError("triangle inequality violated")
        d.flags.writeable = False
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "dist", d)
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(points)})

    # -- factories ---------------------------------------------------------

    @classmethod
    def chain(cls, n: int) -> "FiniteMetricSpace":
        """Sites 0..n-1 with distance |i-j|."""
        if n < 1:
            raise GeometryError("chain needs n >= 1")
        idx = np.arange(n)
        return cls(tuple(range(n)), np.abs(idx[:, None] - idx[None, :]).astype(float),
                   descriptor=f"chain({n})")

    @classmethod
    def grid(cls, nx: int, ny: int) -> "FiniteMetricSpace":
        """An nx-by-ny grid with the l1 (taxicab) metric; sites are (i, j) tuples."""
        if nx < 1 or ny < 1:
            raise GeometryError("grid needs nx, ny >= 1")
        pts = tuple(itertools.product(range(nx), range(ny)))
        coords = np.array(pts, dtype=float)
        d = np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2)
        return cls(pts, d, descriptor=f"grid({nx},{ny})")

    @classmethod
    def explicit(cls, points: Sequence[Site], dist) -> "FiniteMetricSpace":
        return cls(tuple(points), np.asarray(dist, dtype=float))

    # -- basic queries -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.points)

    def index(self, site: Site) -> int:
        try:
            return self._index[site]
        except KeyError:
            raise GeometryError(f"site {site!r} not in space") from None

    def indices(self, sites: Iterable[Site]) -> np.ndarray:
        return np.array([self.index(s) for s in sites], dtype=int)

    def d(self, x: Site, y: Site) -> float:
        return float(self.dist[self.index(x), self.index(y)])

    def ordered(self, sites: Iterable[Site]) -> tuple:
        """The given sites in canonical (point-list) order."""
        members = _as_frozen(self, sites)
        return tuple(p for p in self.points if p in members)

    @property
    def diam(self) -> float:
        return float(np.max(self.dist))

    def all_sites(self) -> frozenset:
        return frozenset(self.points)


# -- set operations -----------------------------------------------------------


def set_distance(space: FiniteMetricSpace, xs: Iterable[Site], ys: Iterable[Site]) -> float:
    """min over pairs of d(x, y); zero exactly when the sets intersect."""
    xi = space.indices(_require_nonempty(space, xs))
    yi = space.indices(_require_nonempty(space, ys))
    return float(np.min(space.dist[np.ix_(xi, yi)]))


def diameter(space: FiniteMetricSpace, xs: Iterable[Site]) -> float:
    """max over pairs of d(x, y); zero for singletons."""
    xi = space.indices(_require_nonempty(space, xs))
    return float(np.max(space.dist[np.ix_(xi, xi)]))


def ball(space: FiniteMetricSpace, x: Site, radius: float) -> frozenset:
    """Closed ball {y : d(x, y) <= radius}; always contains x for radius >= 0."""
    if radius < 0:
        raise GeometryError("radius must be nonnegative")
    row = space.dist[space.index(x)]
    return frozenset(p for p, dd in zip(space.points, row) if dd <= radius + METRIC_ATOL)


def inflate(space: FiniteMetricSpace, xs: Iterable[Site], r: float) -> frozenset:
    """Union of closed r-balls around the set; monotone in r and contains the set."""
    members = _as_frozen(space, xs)
    if r < 0:
        raise GeometryError("inflation radius must be nonnegative")
    if not members:
        return frozenset()
    xi = space.indices(members)
    keep = np.min(space.dist[xi, :], axis=0) <= r + METRIC_ATOL
    return frozenset(p for p, k in zip(space.points, keep) if k)


def complement(space: FiniteMetricSpace, xs: Iterable[Site]) -> frozenset:
    return space.all_sites() - _as_frozen(space, xs)


def surface_sets(space: FiniteMetricSpace, lam: Iterable[Site], xs: Iterable[Site],
                 candidate_supports: Sequence[Iterable[Site]]) -> list:
    """Candidates Z inside lam that meet both xs and its complement in lam."""
    lam_set = _as_frozen(space, lam)
    x_set = _as_frozen(space, xs)
    if not x_set <= lam_set:
        raise GeometryError("surface sets require X contained in the volume")
    outside = lam_set - x_set
    out = []
    for cand in candidate_supports:
        z = _as_frozen(space, cand)
        if z <= lam_set and z & x_set and z & outside:
            out.append(z)
    return out


def nu_regularity(space: FiniteMetricSpace, nu: float) -> float:
    """Smallest kappa with |b_x(n+1)| <= kappa * (n+1)**nu for all sites x and
    integer n from 0 up to ceil(diam); exact on the finite universe."""
    if nu <= 0:
        raise GeometryError("nu must be positive")
    kappa = 0.0
    for n in range(int(np.ceil(space.diam)) + 1):
        radius = n + 1
        sizes = np.sum(space.dist <= radius + METRIC_ATOL, axis=1)
        kappa = max(kappa, float(np.max(sizes)) / radius**nu)
    return kappa


def nu_surface_regularity(space: FiniteMetricSpace, nu: float) -> float:
    """Diagnostic analogue of :func:`nu_regularity` for annulus sizes,
    |b_x(n+1) \\ b_x(n)| <= kappa * (n+1)**(nu-1).  Not used by any evaluator."""
    if nu <= 1:
        raise GeometryError("surface regularity needs nu > 1")
    kappa = 0.0
    for n in range(int(np.ceil(space.diam)) + 1):
        inner = np.sum(space.dist <= n + METRIC_ATOL, axis=1)
        outer = np.sum(space.dist <= n + 1 + METRIC_ATOL, axis=1)
        kappa = max(kappa, float(np.max(outer - inner)) / (n + 1) ** (nu - 1.0))
    return kappa


def _require_nonempty(space: FiniteMetricSpace, sites: Iterable[Site]) -> frozenset:
    members = _as_frozen(space, sites)
    if not members:
        raise GeometryError("empty site set")
    return members
