"""Semigroup propagation and the exact left-hand sides of the approximation bounds.

A left-hand side needs the semigroup only through its action on a few
observables, so ``Dynamics`` holds the CSR generators of one interaction on its
space and local dimensions (``DissipativeInteraction.dims``), one per term
set, and applies exp(t L) to vectorized observables by Al-Mohy and Higham's
truncated Taylor algorithm (SIAM J. Sci. Comput. 33, 2011, algorithm 3.2),
never forming the propagator: ``_action`` is scipy's ``expm_multiply`` at one
time point, the same arithmetic in the same order without its per-call
wrapper.  A generator is its term set
(``DissipativeInteraction.terms_for``): every term, the terms of diameter at
most R (the range-R approximant) or the terms inside a region (the strictly
local dynamics; ``local_error`` reads its region, the r-inflation of the
observable's support, off the observable).  Every exact left-hand side but
the fixed-point group's (the analysis' block maps) is a ``Dynamics`` method
or built from its evolutions: the quasi-locality norm, the truncation and
local approximation errors here, ``correlations.correlation`` and ``c_ab``.
Each evolution is the module-level ``evolve``'s, kept by ``Dynamics.evolve``.
Every generator is a Heisenberg ``Superoperator``, one CSR
matrix (``model.assemble``).  The one dense map left is ``propagator``'s, the
read-only array ``Superoperator.exp``: the package's one dense exponential,
``model.expm_blocks``, of the generator's invariant blocks, scattered into
the whole map; the fixed-point analysis keeps the blocks instead.  The
runner's analysis is handed the full generator held here and reads it block
by block, never densifying it.  Dense work caps at ``model.MAX_DENSE_DIM``
(six qubits); the action path has no ceiling of its own, and an observation
map acts on its own sites (``qalgebra.apply_map``).
"""
from __future__ import annotations

import hashlib
from typing import Iterable, Optional

import numpy as np
import scipy.sparse.linalg

from . import geometry, model
from .model import DissipativeInteraction, LindbladTerm, Superoperator
from .qalgebra import ObservableOp, ObservationMap, apply_map, devectorize, op_norm, vectorize


class DynamicsError(ValueError):
    pass


# theta_m of Al-Mohy and Higham: m Taylor terms of exp(A) meet the double
# precision tolerance while the 1-norm of A is at most theta_m.  m = 1..30 is
# Higham's "Computing Matrix Functions", table A.3, and m = 35..55 is table 3.1
# of the algorithm's paper; ascending in m, as scipy lists them.
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3, 6: 9.07e-3,
    7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1, 11: 2.14e-1, 12: 3.00e-1,
    13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1, 16: 7.81e-1, 17: 9.31e-1, 18: 1.09,
    19: 1.26, 20: 1.44, 21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
# Condition (3.13) with m_max = 55, p_max = 8, ell = 2 and one vector, in the
# order of scipy's arithmetic: below it the exact 1-norm picks (m*, s).
_NORM_3_13 = 2 * 2 * 8 * (8 + 3) * (_THETA[55] / 55.0)
# the seed of numpy's global random state while ``onenormest`` draws from it
_ESTIMATE_SEED = 0


def _degree_and_steps(a: scipy.sparse.csr_matrix, norm: float) -> tuple:
    """(m*, s): the Taylor degree and the number of steps for exp(a), the
    first minimum of m * s over the tabulated m (code fragment 3.1).  Beyond
    (3.13) the 1-norm is replaced by alpha_p = max(d_p, d_p+1), with d_p the
    p-th root of ``onenormest`` of a^p (3.11), which draws from numpy's global
    random state: the estimates run from ``_ESTIMATE_SEED``, so a long time
    gives one result, and the caller's state is restored afterwards."""
    if norm == 0:
        return 0, 1
    if norm <= _NORM_3_13:
        costs = [(m, int(np.ceil(norm / theta))) for m, theta in _THETA.items()]
    else:
        state = np.random.get_state()
        np.random.seed(_ESTIMATE_SEED)
        try:
            d = {p: scipy.sparse.linalg.onenormest(scipy.sparse.linalg.aslinearoperator(a) ** p)
                 ** (1.0 / p) for p in range(2, 10)}
        finally:
            np.random.set_state(state)
        costs = [(m, int(np.ceil(max(d[p], d[p + 1]) / theta)))
                 for p in range(2, 9) for m, theta in _THETA.items() if m >= p * (p - 1) - 1]
    m, s = min(costs, key=lambda cost: cost[0] * cost[1])
    return m, max(s, 1)


def _action(matrix: scipy.sparse.csr_matrix, t: float, vec: np.ndarray) -> np.ndarray:
    """exp(t * matrix) @ vec without forming the exponential; t = 0 returns a
    copy of ``vec``, exactly.  Otherwise this is scipy's ``expm_multiply`` of
    the t-scaled matrix on ``vec``, operation for operation, so the result is
    the same to the bit: shift by mu = trace / n, pick (m*, s) from the exact
    1-norm of the shifted matrix, then s steps of at most m* Taylor terms, each
    stopped once two terms fall below the unit roundoff times the partial sum,
    and scaled by exp(mu / s).  The CSR matrix is scaled with its index arrays
    shared, not copied, and the shift is one CSR subtraction, as scipy's."""
    if t < 0:
        raise DynamicsError("propagation time must be nonnegative")
    if t == 0.0:
        return vec.copy()
    n = matrix.shape[0]
    scaled = scipy.sparse.csr_matrix((t * matrix.data, matrix.indices, matrix.indptr),
                                     shape=matrix.shape)
    mu = scaled.trace() / float(n)
    diagonal = np.arange(n + 1, dtype=matrix.indptr.dtype)
    a = scaled - scipy.sparse.csr_matrix((np.full(n, mu), diagonal[:-1], diagonal),
                                         shape=matrix.shape)
    m, s = _degree_and_steps(a, np.bincount(a.indices, weights=np.abs(a.data),
                                            minlength=n).max())
    tol = 2.0 ** -53
    f = b = vec
    eta = np.exp(mu / float(s))
    for _ in range(s):
        c1 = np.abs(b).max()
        for j in range(m):
            b = 1.0 / float(s * (j + 1)) * (a @ b)
            c2 = np.abs(b).max()
            f = f + b
            if c1 + c2 <= tol * np.abs(f).max():
                break
            c1 = c2
        f = eta * f
        b = f
    return f


class Dynamics:
    """The dynamics of one interaction on its whole space, for left-hand sides.

    A generator is the sum of a set of the interaction's terms, assembled in
    CSR form on first use and keyed by the terms' identities: a range or a
    region that keeps every term is the full generator itself, and two that
    keep the same terms share one matrix.  Evolved observables are kept by
    (generator, t, volume, content), so every theorem of a run shares each evolution.
    ``counters`` counts this work: generators assembled, evolutions computed,
    evolutions found kept, and ``expm_multiply`` calls.
    """

    def __init__(self, interaction: DissipativeInteraction):
        self.interaction = interaction
        self.sites = tuple(interaction.space.points)
        self.dims = interaction.dims
        self._generators: dict = {}
        self._evolved: dict = {}
        self.counters = {"generators": 0, "evolutions": 0, "evolution_hits": 0,
                         "expm_multiply": 0}

    def generator(self, terms: Optional[Iterable[LindbladTerm]] = None) -> Superoperator:
        """The generator of ``terms``, terms of the interaction (every term
        by default), keyed by their identities: the interaction holds them."""
        terms = tuple(self.interaction.terms if terms is None else terms)
        key = tuple(map(id, terms))
        if key not in self._generators:
            self._generators[key] = model.assemble(terms, self.sites, self.dims)
            self.counters["generators"] += 1
        return self._generators[key]

    def evolve(self, t: float, a: ObservableOp,
               terms: Optional[Iterable[LindbladTerm]] = None) -> ObservableOp:
        """exp(t L) applied to ``a`` by ``evolve``, L the generator of ``terms``."""
        gen = self.generator(terms)
        key = (id(gen), float(t), a.sites, a.dims,
               hashlib.blake2b(a.matrix.tobytes(), digest_size=16).digest())
        if key in self._evolved:
            self.counters["evolution_hits"] += 1
        else:
            self._evolved[key] = evolve(gen, t, a)
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
        evolved = self.evolve(t, a, None if R is None else self._within(R))
        return op_norm(apply_map(k, evolved))

    def truncation_error(self, t: float, a: ObservableOp, R: float) -> float:
        """opnorm of (full - range-R truncated) evolution of ``a``."""
        within = self._within(R)
        return op_norm(self.evolve(t, a) - self.evolve(t, a, within))

    def _within(self, R: float) -> list:
        """The terms of the range-R approximant: support diameter at most R > 0."""
        if not R > 0:
            raise DynamicsError(f"range-R dynamics needs R > 0, got {R}")
        return self.interaction.terms_for(self.interaction.space.all_sites(), max_diam=R)

    def local_error(self, t: float, a: ObservableOp, r: float) -> float:
        """opnorm of (full - strictly local) evolution of ``a``, the local
        dynamics being the terms inside the r-inflation of a's support; it
        stays embedded in the volume."""
        region = geometry.inflate(self.interaction.space, a.support, r)
        return op_norm(self.evolve(t, a) - self.evolve(t, a, self.interaction.terms_for(region)))


def propagator(gen: Superoperator, t: float) -> np.ndarray:
    """exp(t * gen) as a read-only dense array (``Superoperator.exp``);
    defined for t >= 0 only (semigroup, not a group)."""
    if t < 0:
        raise DynamicsError("propagation time must be nonnegative")
    return gen.exp(t)


def evolve(gen: Superoperator, t: float, a: ObservableOp) -> ObservableOp:
    """Apply the time-t propagator of ``gen`` to one observable, by its action."""
    if tuple(a.sites) != tuple(gen.sites) or tuple(a.dims) != tuple(gen.dims):
        raise DynamicsError("observable volume differs from the generator volume")
    return devectorize(_action(gen.matrix, t, vectorize(a)), a.sites, a.dims)


def apply_superop(m: np.ndarray, a: ObservableOp) -> ObservableOp:
    """The dense map ``m``, such as a ``propagator``, applied to ``a``; a map
    whose shape does not fit a's volume is refused."""
    vec = vectorize(a)
    if m.shape != (vec.size, vec.size):
        raise DynamicsError(f"map shape {m.shape} does not fit the observable volume")
    return devectorize(m @ vec, a.sites, a.dims)
