"""Finite-dimensional operator algebra: embeddings, vectorization, observation maps.

Conventions fixed here and asserted by the test suite:

* Tensor-factor order follows the ordered site tuple of an operator's volume;
  the first site is the slowest-varying index (leftmost Kronecker factor).
* Vectorization is column stacking, ``vec(A) = A.flatten(order="F")``, so
  ``vec(X A Y) = (Y.T kron X) vec(A)``.
* A ``dims`` argument is one local dimension per site, in the order of the
  sites it comes with; None means a qubit at every site.

An observation map is stored as its matrix on its own sites, never embedded:
``apply_map`` contracts it into the legs of an operator on any larger volume.
Completely-bounded norms of observation maps are never computed exactly;
each map carries a certified bracket ``[cb_lower, cb_upper]`` and every
analytic bound consumes ``cb_upper``, which only loosens the right-hand side.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from .geometry import Site

EMBED_ATOL = 1e-12

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "P": np.array([[0, 0], [1, 0]], dtype=complex),   # |1><0|, raising
    "M": np.array([[0, 1], [0, 0]], dtype=complex),   # |0><1|, lowering
}


class AlgebraError(ValueError):
    pass


def _resolve_dims(sites: Sequence[Site], dims: Optional[Sequence[int]]) -> tuple:
    if dims is None:
        return (2,) * len(sites)
    if not isinstance(dims, Sequence):
        raise AlgebraError(f"dims must be a sequence in site order, got {type(dims).__name__}")
    out = tuple(int(d) for d in dims)
    if len(out) != len(sites):
        raise AlgebraError("dims length does not match sites")
    return out


@dataclass(frozen=True, eq=False)
class ObservableOp:
    """A dense operator on the Hilbert space of an ordered site tuple.

    ``support`` records where the operator may act non-trivially; it is a
    subset of ``sites`` (the embedding volume).
    """

    matrix: np.ndarray
    sites: tuple
    support: frozenset
    dims: tuple

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        sites = tuple(self.sites)
        dims = tuple(self.dims)
        total = int(np.prod(dims)) if dims else 1
        if m.shape != (total, total):
            raise AlgebraError(f"matrix shape {m.shape} != ({total}, {total})")
        if not frozenset(self.support) <= set(sites):
            raise AlgebraError("support must lie inside the volume")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "support", frozenset(self.support))
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def norm(self) -> float:
        return op_norm(self)

    def __add__(self, other: "ObservableOp") -> "ObservableOp":
        self._check_compatible(other)
        return ObservableOp(self.matrix + other.matrix, self.sites,
                            self.support | other.support, self.dims)

    def __sub__(self, other: "ObservableOp") -> "ObservableOp":
        self._check_compatible(other)
        return ObservableOp(self.matrix - other.matrix, self.sites,
                            self.support | other.support, self.dims)

    def __matmul__(self, other: "ObservableOp") -> "ObservableOp":
        self._check_compatible(other)
        return ObservableOp(self.matrix @ other.matrix, self.sites,
                            self.support | other.support, self.dims)

    def __mul__(self, scalar) -> "ObservableOp":
        return ObservableOp(self.matrix * scalar, self.sites, self.support, self.dims)

    __rmul__ = __mul__

    def _check_compatible(self, other: "ObservableOp"):
        if self.sites != other.sites or self.dims != other.dims:
            raise AlgebraError("operators live on different volumes")


def identity(sites: Sequence[Site], dims=None) -> ObservableOp:
    dims_t = _resolve_dims(tuple(sites), dims)
    total = int(np.prod(dims_t)) if dims_t else 1
    return ObservableOp(np.eye(total, dtype=complex), tuple(sites), frozenset(), dims_t)


def from_matrix(matrix, sites: Sequence[Site], support=None, dims=None) -> ObservableOp:
    sites = tuple(sites)
    if support is None:
        support = frozenset(sites)
    return ObservableOp(np.asarray(matrix, dtype=complex), sites, frozenset(support),
                        _resolve_dims(sites, dims))


def site_operator(name_or_matrix, site: Site) -> ObservableOp:
    """A single-site operator, from a named Pauli-type letter or a 2x2 matrix."""
    if isinstance(name_or_matrix, str):
        try:
            m = PAULI[name_or_matrix.upper()]
        except KeyError:
            raise AlgebraError(f"unknown operator letter {name_or_matrix!r}") from None
    else:
        m = np.asarray(name_or_matrix, dtype=complex)
    return ObservableOp(m, (site,), frozenset([site]), (m.shape[0],))


def _basis_permutation(src_sites: tuple, dst_sites: tuple, dst_dims: tuple) -> np.ndarray:
    """Index map sigma with M_dst[i, j] = M_src[sigma[i], sigma[j]]: the source
    basis, one axis per source site, transposed into the destination's order."""
    by_site = dict(zip(dst_sites, dst_dims))
    basis = np.arange(int(np.prod(dst_dims))).reshape([by_site[s] for s in src_sites])
    return basis.transpose([src_sites.index(s) for s in dst_sites]).ravel()


def embed(op: ObservableOp, sites: Sequence[Site], dims=None) -> ObservableOp:
    """Kronecker embedding of ``op`` into a larger ordered volume.

    New sites carry identity factors; the result respects the target site
    order regardless of how the source volume interleaves with it.
    """
    sites = tuple(sites)
    dims_t = _resolve_dims(sites, dims)
    by_site = dict(zip(sites, dims_t))
    missing = [s for s in op.sites if s not in by_site]
    if missing:
        raise AlgebraError(f"operator sites {missing!r} not in target volume")
    for s, d in zip(op.sites, op.dims):
        if by_site[s] != d:
            raise AlgebraError(f"local dimension mismatch at site {s!r}")
    if sites == op.sites:
        return ObservableOp(op.matrix, sites, op.support, dims_t)
    rest = [s for s in sites if s not in set(op.sites)]
    rest_dim = int(np.prod([by_site[s] for s in rest])) if rest else 1
    m0 = np.kron(op.matrix, np.eye(rest_dim, dtype=complex))
    sigma = _basis_permutation(tuple(op.sites) + tuple(rest), sites, dims_t)
    return ObservableOp(m0[np.ix_(sigma, sigma)], sites, op.support, dims_t)


def op_norm(op: Union[ObservableOp, np.ndarray]) -> float:
    """Operator (largest-singular-value) norm."""
    m = op.matrix if isinstance(op, ObservableOp) else np.asarray(op)
    if m.size == 1:
        return float(abs(m.reshape(())))
    return float(np.linalg.norm(m, 2))


def vectorize(op: Union[ObservableOp, np.ndarray]) -> np.ndarray:
    """Column stacking: vec of [[a, b], [c, d]] is (a, c, b, d)."""
    m = op.matrix if isinstance(op, ObservableOp) else np.asarray(op)
    return m.flatten(order="F")


def devectorize(vec: np.ndarray, sites: Sequence[Site], dims=None) -> ObservableOp:
    sites = tuple(sites)
    dims_t = _resolve_dims(sites, dims)
    total = int(np.prod(dims_t)) if dims_t else 1
    v = np.asarray(vec, dtype=complex).reshape(-1)
    if v.size != total * total:
        raise AlgebraError(f"vector length {v.size} != {total * total}")
    m = v.reshape((total, total), order="F")
    return ObservableOp(m, sites, frozenset(sites), dims_t)


def left_right_superop(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Matrix of A -> left @ A @ right on column-stacked vectors."""
    return np.kron(right.T, left)


@dataclass(frozen=True, eq=False)
class ObservationMap:
    """A linear map on observables that kills the identity, stored as its
    matrix on its own ordered ``sites``, which are its support.

    ``matrix`` acts on column-stacked operators of ``sites``, in the leg
    order of ``model.local_superop`` (column legs, then row legs); on a larger
    volume the map acts as the identity off ``sites`` (``apply_map``).
    """

    matrix: np.ndarray
    sites: tuple
    dims: tuple
    cb_upper: float
    cb_lower: float

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        total = int(np.prod(self.dims))
        if m.shape != (total * total,) * 2:
            raise AlgebraError(f"observation map shape {m.shape} != {(total * total,) * 2}")
        if self.cb_lower > self.cb_upper + 1e-12:
            raise AlgebraError("cb_lower exceeds cb_upper")
        ident = np.eye(total, dtype=complex).flatten(order="F")
        residual = np.linalg.norm(m @ ident)
        if residual > EMBED_ATOL * max(1.0, float(np.linalg.norm(m))):
            raise AlgebraError("observation map must annihilate the identity")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "sites", tuple(self.sites))
        object.__setattr__(self, "dims", tuple(self.dims))


def commutator_map(b: ObservableOp, probe_seed: int = 2024) -> ObservationMap:
    """The map A -> [B, A] on B's sites, with certified cb bracket.

    ``cb_upper`` is 2 * opnorm(B); ``cb_lower`` is ``probed_cb_lower``.
    """
    m = left_right_superop(b.matrix, np.eye(b.dim)) - left_right_superop(np.eye(b.dim), b.matrix)
    upper = 2.0 * op_norm(b)
    return ObservationMap(m, b.sites, b.dims, upper,
                          probed_cb_lower(m, b.dims, probe_seed, upper))


def general_map(matrix, sites: Sequence[Site], dims=None,
                cb_upper: Optional[float] = None, cb_lower: Optional[float] = None,
                probe_seed: int = 2024) -> ObservationMap:
    """Wrap an explicit super-matrix on the ordered ``sites`` as an observation map.

    When no cb bracket is supplied, the upper bound comes from a Choi-type
    factorization (sum of sigma_k * |U_k| * |V_k| over the singular pieces),
    which is valid for every linear map; the lower bound from probes.
    """
    sites = tuple(sites)
    k = ObservationMap(matrix, sites, _resolve_dims(sites, dims), math.inf, 0.0)
    upper = _factorization_cb_upper(k.matrix) if cb_upper is None else float(cb_upper)
    lower = probed_cb_lower(k.matrix, k.dims, probe_seed, upper) \
        if cb_lower is None else float(cb_lower)
    return replace(k, cb_upper=upper, cb_lower=lower)


def apply_map(k: ObservationMap, a: ObservableOp) -> ObservableOp:
    """K(A) for ``a`` on any volume that contains k's sites with the same local
    dimensions: k's column and row legs of vec(A) are contracted with its
    matrix and the other legs are left alone, so no superoperator on a's
    volume is formed."""
    by_site = dict(zip(a.sites, a.dims))
    if any(by_site.get(s) != d for s, d in zip(k.sites, k.dims)):
        raise AlgebraError("map sites are not in the operator's volume")
    n, m = len(a.sites), len(k.sites)
    pos = [a.sites.index(s) for s in k.sites]
    legs = pos + [n + p for p in pos]
    out = np.tensordot(k.matrix.reshape(k.dims * 4), vectorize(a).reshape(a.dims * 2),
                       axes=(range(2 * m, 4 * m), legs))
    return devectorize(np.moveaxis(out, range(2 * m), legs).reshape(-1), a.sites, a.dims)


def probed_cb_lower(matrix: np.ndarray, dims: tuple, seed: int, upper: float) -> float:
    """A lower bound on the cb norm of the map with ``matrix`` on its own
    sites, of local dimensions ``dims``: the best ratio |K(P)| / |P| over the
    probes of ``_probe_stack``, all taken in one batched product and one
    batched norm.

    A ratio above ``upper`` by more than roundoff (1e-12, relative once
    ``upper`` exceeds 1) refutes ``upper`` as a cb bound and raises
    ``AlgebraError``; within roundoff the ratio is capped at ``upper``."""
    probes, norms = _probe_stack(tuple(dims), seed)
    count, n = probes.shape[:2]
    images = (matrix @ probes.reshape(count, n * n, 1)).reshape(probes.shape)
    best = float(np.max(np.linalg.norm(images, 2, axis=(2, 1)) / norms))
    if best > upper + 1e-12 * max(1.0, upper):
        raise AlgebraError(f"a probe reaches {best:.6g}, above cb_upper {upper:.6g}")
    return min(best, upper)


@functools.cache
def _probe_stack(dims: tuple, seed: int) -> tuple:
    """Identity-excluded probes P_k on sites of local dimensions ``dims`` and
    their operator norms, read-only: the single-site Pauli letters, then four
    seeded Haar unitaries.  The stack holds the transposes P_k.T, so entry k
    read in rows is vec(P_k) and axes (2, 1) are P_k's row and column axes.
    Built once per (dims, seed)."""
    sites = tuple(range(len(dims)))
    probes = [embed(site_operator(letter, s), sites, dims).matrix
              for s, d in zip(sites, dims) if d == 2 for letter in ("X", "Y", "Z")]
    dim = int(np.prod(dims))
    rng = np.random.default_rng(seed)
    for _ in range(4):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, r = np.linalg.qr(g)
        probes.append(q * (np.diag(r) / np.abs(np.diag(r))))
    stack = np.array([p.T for p in probes])
    norms = np.linalg.norm(stack, 2, axis=(2, 1))
    stack.flags.writeable = False
    norms.flags.writeable = False
    return stack, norms


def _choi(superop: np.ndarray) -> np.ndarray:
    """The Choi matrix J = sum_ij E_ij kron Phi(E_ij), input factor first, of
    the map Phi whose matrix ``superop`` acts on column-stacked operators of
    a d-dimensional space."""
    d2 = superop.shape[0]
    d = int(round(math.sqrt(d2)))
    return superop.reshape(d, d, d, d).swapaxes(0, 3).reshape(d2, d2)


def _factorization_cb_upper(superop: np.ndarray) -> float:
    d2 = superop.shape[0]
    d = int(round(math.sqrt(d2)))
    u, s, vh = np.linalg.svd(_choi(superop))
    total = 0.0
    for k, sigma in enumerate(s):
        if sigma < 1e-14 * s[0]:
            break
        lk = u[:, k].reshape((d, d), order="F")
        rk = vh[k, :].conj().reshape((d, d), order="F")
        total += sigma * op_norm(lk) * op_norm(rk)
    return float(total)
