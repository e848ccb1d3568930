"""Semigroup propagation and the exact left-hand sides of the approximation bounds.

A left-hand side needs the semigroup only through its action on a few
observables, so ``Dynamics`` holds the CSR generators of one interaction on its
space, one per selected term set (full, range-R truncated, subvolume), and
applies exp(t L) to vectorized observables with scipy's ``expm_multiply``
(Al-Mohy and Higham, SIAM J. Sci. Comput. 33, 2011), never forming the
propagator.  Every exact left-hand side is a ``Dynamics`` method or built from
its evolutions: the quasi-locality norm, the truncation error and the local
approximation error here, the correlation quantities in ``correlations``.
The module-level ``evolve`` acts the same way with a dense generator.  Dense
exponentials remain for ``propagator``, whose whole map the Choi checks
consume, and the fixed-point suite; both go through ``Superoperator.exp``,
the one dense ``expm``.  Dense generators cap at
``model.MAX_DENSE_DIM`` (six qubits); the action path has no ceiling of its
own, and an observation map acts on its own sites (``qalgebra.apply_map``).
"""
from __future__ import annotations

import hashlib
from typing import Iterable, Optional

import numpy as np
import scipy.sparse.linalg

from . import geometry, model
from .geometry import Site
from .model import DissipativeInteraction, Superoperator
from .qalgebra import ObservableOp, ObservationMap, apply_map, devectorize, op_norm, vectorize


class DynamicsError(ValueError):
    pass


def _action(matrix, t: float, vec: np.ndarray) -> np.ndarray:
    """exp(t * matrix) @ vec without forming the exponential; t = 0 returns a
    copy of ``vec``, exactly.  A CSR matrix is scaled with its index arrays
    shared, not copied, which lowers the peak allocation of a call."""
    if t < 0:
        raise DynamicsError("propagation time must be nonnegative")
    if t == 0.0:
        return vec.copy()
    if getattr(matrix, "format", None) == "csr":
        scaled = scipy.sparse.csr_matrix((t * matrix.data, matrix.indices, matrix.indptr),
                                         shape=matrix.shape)
    else:
        scaled = t * matrix
    return scipy.sparse.linalg.expm_multiply(scaled, vec)


class Dynamics:
    """The dynamics of one interaction on its whole space, for left-hand sides.

    Generators are assembled in CSR form on first use, one per selected term
    set (``model.select_terms``): a range-R truncation or a subvolume that
    keeps every term is the full generator itself, and two ranges or regions
    that keep the same terms share one matrix.  Evolved observables are kept
    by (generator, t, content), so every theorem of a run shares each
    evolution.  ``counters`` counts this work: generators assembled,
    evolutions computed, evolutions found kept, and ``expm_multiply`` calls.
    """

    def __init__(self, interaction: DissipativeInteraction):
        self.interaction = interaction
        self.sites = tuple(interaction.space.points)
        self._site_set = frozenset(self.sites)
        self.dims = model.volume_dims(self.sites, None, *interaction.terms)
        self._generators: dict = {}
        self._evolved: dict = {}
        self.counters = {"generators": 0, "evolutions": 0, "evolution_hits": 0,
                         "expm_multiply": 0}

    def generator(self, mode: str = "full", R: Optional[float] = None,
                  region: Optional[Iterable[Site]] = None):
        """CSR generator of a mode of ``model.generator``, keyed by the terms
        the mode selects (by identity: the interaction holds them)."""
        terms = model.select_terms(self.interaction, self._site_set, mode, R, region)
        key = tuple(map(id, terms))
        if key not in self._generators:
            self._generators[key] = model.assemble(terms, self.sites, self.dims)
            self.counters["generators"] += 1
        return self._generators[key]

    def evolve(self, t: float, a: ObservableOp, mode: str = "full",
               R: Optional[float] = None,
               region: Optional[Iterable[Site]] = None) -> ObservableOp:
        """exp(t L) applied to ``a``, with L the generator of the mode."""
        if tuple(a.sites) != self.sites or tuple(a.dims) != self.dims:
            raise DynamicsError("observable volume differs from the generator volume")
        gen = self.generator(mode, R=R, region=region)
        vec = vectorize(a)
        key = (id(gen), float(t), hashlib.blake2b(vec.tobytes(), digest_size=16).digest())
        if key in self._evolved:
            self.counters["evolution_hits"] += 1
        else:
            self._evolved[key] = devectorize(_action(gen, t, vec), a.sites, a.dims)
            self.counters["evolutions"] += 1
            self.counters["expm_multiply"] += int(t > 0)
        return self._evolved[key]

    def quasi_locality(self, t: float, a: ObservableOp, k: ObservationMap,
                       R: Optional[float] = None) -> float:
        """opnorm of K applied to ``a`` evolved by the full dynamics, or by the
        range-R truncated one when ``R`` is given.  The supports of K and
        ``a`` must be disjoint; the quasi-locality statements are vacuous
        otherwise."""
        if frozenset(k.sites) & a.support:
            raise DynamicsError("observation map and observable supports overlap")
        evolved = self.evolve(t, a, "full" if R is None else "truncated", R=R)
        return op_norm(apply_map(k, evolved))

    def truncation_error(self, t: float, a: ObservableOp, R: float) -> float:
        """opnorm of (full - range-R truncated) evolution of ``a``."""
        return op_norm(self.evolve(t, a) - self.evolve(t, a, "truncated", R=R))

    def local_error(self, t: float, a: ObservableOp, xs: Iterable[Site], r: float) -> float:
        """opnorm of (full - strictly local on the r-inflation of ``xs``)
        evolution of ``a``, which must be supported in ``xs``; the local
        dynamics stays embedded in the volume."""
        xs = frozenset(xs)
        if not a.support <= xs:
            raise DynamicsError("observable must be supported in the localization region")
        region = geometry.inflate(self.interaction.space, xs, r)
        return op_norm(self.evolve(t, a) - self.evolve(t, a, "subvolume", region=region))


def propagator(gen: Superoperator, t: float) -> Superoperator:
    """exp(t * gen); defined for t >= 0 only (semigroup, not a group), by
    ``Superoperator.exp``."""
    if t < 0:
        raise DynamicsError("propagation time must be nonnegative")
    return Superoperator(gen.exp(t), gen.sites, gen.dims, picture=gen.picture)


def evolve(gen: Superoperator, t: float, a: ObservableOp) -> ObservableOp:
    """Apply the time-t propagator of ``gen`` to one observable, by its action."""
    if tuple(a.sites) != tuple(gen.sites) or tuple(a.dims) != tuple(gen.dims):
        raise DynamicsError("observable volume differs from the generator volume")
    return devectorize(_action(gen.matrix, t, vectorize(a)), a.sites, a.dims)


def apply_superop(sup: Superoperator, a: ObservableOp) -> ObservableOp:
    if tuple(a.sites) != tuple(sup.sites):
        raise DynamicsError("observable volume differs from the map volume")
    return devectorize(sup.matrix @ vectorize(a), a.sites, a.dims)


def choi_matrix(sup: Superoperator) -> np.ndarray:
    """Choi representative in the column-stacking convention.

    For the Schroedinger-picture propagator of a Lindblad semigroup this is
    positive semidefinite up to roundoff.
    """
    d2 = sup.matrix.shape[0]
    d = int(round(np.sqrt(d2)))
    if d * d != d2:
        raise DynamicsError("superoperator is not square over a Hilbert space")
    return sup.matrix.reshape(d, d, d, d).swapaxes(0, 3).reshape(d2, d2)


def choi_min_eigenvalue(sup: Superoperator) -> float:
    c = choi_matrix(sup)
    c = 0.5 * (c + c.conj().T)
    return float(np.min(np.linalg.eigvalsh(c)))
