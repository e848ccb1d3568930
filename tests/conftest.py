"""Shared fixtures: spaces, models, and the seeded acceptance pool."""
import math

import numpy as np
import pytest
import scipy.linalg

import lrcert as lr
from lrcert import bounds, harness
from lrcert.model import DissipativeInteraction, LindbladTerm
from lrcert.qalgebra import PAULI, _choi, from_matrix


@pytest.fixture(scope="session")
def chain6():
    return lr.FiniteMetricSpace.chain(6)


@pytest.fixture(scope="session")
def chain4():
    return lr.FiniteMetricSpace.chain(4)


@pytest.fixture(scope="session")
def grid22():
    return lr.FiniteMetricSpace.grid(2, 2)


def damping_interaction(space, gamma=1.0, j=0.0):
    """On-site amplitude damping, optional nearest-neighbour ZZ."""
    return lr.tfim_dissipative(space, j=j, h=0.0, gamma=gamma)


def dense_local_error(inter, t, a, region):
    """opnorm of a evolved by every term minus a evolved by the terms inside
    ``region``, each by a dense ``scipy.linalg.expm`` of its generator: a
    reference for ``Dynamics.local_error`` that shares none of its code."""
    sites, vec = inter.space.points, a.matrix.flatten(order="F")

    def evolved(terms):
        gen = lr.model.assemble(terms, sites, inter.dims).matrix.toarray()
        return (scipy.linalg.expm(t * gen) @ vec).reshape(a.matrix.shape, order="F")

    return lr.op_norm(evolved(inter.terms) - evolved(inter.terms_for(region)))


def choi_min_eigenvalue(m):
    """Least eigenvalue of the Hermitian part of the Choi matrix of the dense
    map ``m`` in ``qalgebra._choi``'s column-stacking convention: a dense
    reference for complete positivity, nonnegative up to roundoff for the
    Schroedinger propagator of a Lindblad semigroup."""
    c = _choi(m)
    c = 0.5 * (c + c.conj().T)
    return float(np.min(np.linalg.eigvalsh(c)))


def csr_arrays(m):
    return m.indptr, m.indices, m.data


def single_qubit_damping(gamma=1.0):
    space = lr.FiniteMetricSpace.chain(1)
    k = from_matrix(math.sqrt(gamma) * PAULI["M"], (0,), frozenset([0]))
    term = LindbladTerm(frozenset([0]), None, (k,))
    return space, DissipativeInteraction(space, (term,))


def mixed_field_chain(n, alpha, j=0.4, h=0.3, gamma=1.0):
    """Chain with transverse field + damping on sites and power-law ZZ pairs.

    Gives genuinely non-commuting dynamics (unlike a purely diagonal model),
    so quasi-locality left-hand sides are nonzero.
    """
    space = lr.FiniteMetricSpace.chain(n)
    f = lr.FFunction.power(alpha)
    terms = []
    for s in space.points:
        ham = from_matrix(h * PAULI["X"], (s,), frozenset([s]))
        kraus = (from_matrix(math.sqrt(gamma) * PAULI["M"], (s,), frozenset([s])),)
        terms.append(LindbladTerm(frozenset([s]), ham, kraus, label=f"site{s}"))
    for i, x in enumerate(space.points):
        for y in space.points[i + 1:]:
            amp = j * float(f(space.d(x, y)))
            ham = from_matrix(amp * np.kron(PAULI["Z"], PAULI["Z"]), (x, y), frozenset([x, y]))
            terms.append(LindbladTerm(frozenset([x, y]), ham, (), label=f"zz{x}{y}"))
    return space, f, DissipativeInteraction(space, tuple(terms))


POOL_SEED = 20260810
POOL_SIZE = 50


@pytest.fixture(scope="session")
def model_pool():
    """The seeded random-model pool used by the acceptance suite (sizes 2..4)."""
    models = []
    for k in range(POOL_SIZE):
        n = (2, 3, 4)[k % 3]
        models.append(harness.random_model(POOL_SEED + k, n_sites=n))
    return models


@pytest.fixture(scope="session")
def pool_constants(model_pool):
    return [bounds.ModelConstants.from_model(m.f, m.interaction, nu=1.0)
            for m in model_pool]
