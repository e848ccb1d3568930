"""Dissipative interactions in Lindblad form and their generator assembly.

An interaction is a list of local terms, each with a self-adjoint Hamiltonian
part and a family of Kraus operators on a finite support.  Exact
completely-bounded norms are out of scope; every term carries the certified
surrogate ``cb_upper = 2 |H| + 2 sum_j |K_j|^2`` (triangle inequality over
the three Lindblad pieces) together with a probed lower bound, and all
analytic bounds consume ``cb_upper``.

A generator is its term set: L = sum_Z L_Z over every term (the full
dynamics), the terms with diam Z <= R (the range-R approximant) or the terms
inside a region (the strictly local dynamics), as ``terms_for`` selects them.
Each term builds its superoperator on its own support once
(``LindbladTerm.superop``); ``local_superop`` embeds it into a volume by index
arithmetic alone, every entry an entry of that matrix, and ``assemble`` sums
the embedded terms in their stored order, so a caller that keys its
generators by their terms (``dynamics.Dynamics``) builds one per distinct set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Optional

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph

from . import geometry
from .geometry import FiniteMetricSpace, Site
from .qalgebra import (
    ObservableOp,
    embed,
    _basis_permutation,
    from_matrix,
    left_right_superop,
    op_norm,
    probed_cb_lower,
)

HERMITICITY_ATOL = 1e-12
MAX_DENSE_DIM = 4096  # largest vectorized dimension assembled as a dense matrix


class ModelError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Superoperator:
    """Dense linear map on the vectorized observable algebra of a volume.

    Its O(n^3) work runs on its invariant coordinate blocks (``_blocks``),
    the connected components of the nonzero pattern of M + M^H.  A block of
    coordinates that neither M nor M^H leaves is invariant, so M is
    block-diagonal over the blocks, and its exponentials, eigenvalues and
    singular values are those of its blocks: the symmetry reduction of Buca
    and Prosen (New J. Phys. 14, 073007, 2012), read off the sparsity pattern.
    Blocks of one size are stacked, so each step is one batched LAPACK call
    per block size; a map that does not split is one block and runs the same
    calls on its whole matrix.
    """

    matrix: np.ndarray
    sites: tuple
    dims: tuple
    picture: str  # "heisenberg" | "schrodinger"

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        total = int(np.prod(self.dims))
        if m.shape != (total * total, total * total):
            raise ModelError(f"superoperator shape {m.shape} inconsistent with volume")
        if self.picture not in ("heisenberg", "schrodinger"):
            raise ModelError(f"unknown picture {self.picture!r}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "sites", tuple(self.sites))
        object.__setattr__(self, "dims", tuple(self.dims))

    @cached_property
    def _blocks(self) -> tuple:
        """The invariant coordinate blocks as (k, n) index stacks, one per
        block size n, ascending; a row holds one block's indices in ascending
        order, and rows follow their least index.  The blocks are the weakly
        connected components of the pattern of M, each coordinate labelled
        by the least index of its component."""
        _, component = scipy.sparse.csgraph.connected_components(
            scipy.sparse.csr_matrix(self.matrix != 0), connection="weak")
        _, least = np.unique(component, return_index=True)
        label = least[component]
        order = np.argsort(label, kind="stable")
        _, starts, sizes = np.unique(label[order], return_index=True, return_counts=True)
        return tuple(order[starts[sizes == n][:, None] + np.arange(n)]
                     for n in np.unique(sizes))

    def _gather(self, m: np.ndarray) -> list:
        """The invariant blocks of ``m``, a matrix on this map's coordinates:
        one (k, n, n) stack per size group of ``_blocks``."""
        return [m[idx[:, :, None], idx[:, None, :]] for idx in self._blocks]

    def _scatter(self, stacks: list) -> np.ndarray:
        """The read-only dense matrix that is ``stacks`` on the invariant
        blocks and zero off them."""
        size = self.matrix.shape[0]
        out = np.zeros((size, size), dtype=complex)
        for idx, s in zip(self._blocks, stacks):
            out[idx[:, :, None], idx[:, None, :]] = s
        out.flags.writeable = False
        return out

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Every eigenvalue, block by block in ``_blocks`` order, read-only.
        One batched ``eig`` per size group, shared by every spectral question
        asked of the map."""
        w = np.concatenate([np.linalg.eig(s)[0].ravel() for s in self._gather(self.matrix)])
        w.flags.writeable = False
        return w

    @cached_property
    def adjoint(self) -> "Superoperator":
        """The trace-pairing adjoint, in the other picture; built once per map.
        M^H + M is the pattern of both, so the adjoint shares ``_blocks``."""
        flipped = "schrodinger" if self.picture == "heisenberg" else "heisenberg"
        adjoint = Superoperator(self.matrix.conj().T, self.sites, self.dims, picture=flipped)
        adjoint.__dict__["_blocks"] = self._blocks
        return adjoint

    def exp(self, t: float) -> np.ndarray:
        """exp(t M) for t >= 0, read-only: ``_exp_blocks`` scattered into
        the dense map."""
        return self._scatter(self._exp_blocks(t))

    def _exp_blocks(self, t: float) -> list:
        """exp(t M) on the invariant blocks, one (k, n, n) stack per size
        group: the identity at t = 0, else one call of scipy's ``expm`` per
        group, the package's dense exponential."""
        t = float(t)
        if t < 0:
            raise ModelError("propagation time must be nonnegative")
        if t == 0.0:
            return [np.broadcast_to(np.eye(n, dtype=complex), (k, n, n))
                    for k, n in (idx.shape for idx in self._blocks)]
        stacks = self._gather(self.matrix)
        for s in stacks:
            s *= t
        return [scipy.linalg.expm(s) for s in stacks]


@dataclass(frozen=True)
class LindbladTerm:
    """One local generator piece: i[H, .] plus Kraus dissipators on a support."""

    support: frozenset
    hamiltonian: Optional[ObservableOp]
    kraus: tuple
    label: str = ""
    cb_upper: float = field(init=False)
    cb_lower: float = field(init=False)
    superop: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        support = frozenset(self.support)
        if not support:
            raise ModelError("term needs nonempty support")
        h = self.hamiltonian
        if h is not None:
            if frozenset(h.sites) != support:
                raise ModelError("hamiltonian volume must equal the term support")
            if op_norm(h.matrix - h.matrix.conj().T) > HERMITICITY_ATOL * max(1.0, op_norm(h)):
                raise ModelError("hamiltonian part must be self-adjoint")
        kraus = tuple(self.kraus)
        for k in kraus:
            if frozenset(k.sites) != support:
                raise ModelError("kraus operator volume must equal the term support")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "kraus", kraus)
        h_norm = op_norm(h) if h is not None else 0.0
        k_norms = [op_norm(k) for k in kraus]
        object.__setattr__(self, "cb_upper", 2.0 * h_norm + 2.0 * sum(x * x for x in k_norms))
        own = own_superop(self)
        own.flags.writeable = False
        object.__setattr__(self, "superop", own)
        object.__setattr__(self, "cb_lower", probed_cb_lower(own, self._dims(), 99,
                                                             self.cb_upper))

    def _site_order(self) -> tuple:
        ref = self.hamiltonian if self.hamiltonian is not None else self.kraus[0] if self.kraus else None
        if ref is None:
            return tuple(sorted(self.support, key=repr))
        return tuple(ref.sites)

    def _dims(self) -> tuple:
        ref = self.hamiltonian if self.hamiltonian is not None else self.kraus[0] if self.kraus else None
        return tuple(ref.dims) if ref is not None else (2,) * len(self.support)


def own_superop(term: LindbladTerm) -> np.ndarray:
    """Dense Heisenberg-picture matrix of the term on its own support:
    A -> i[H, A] + sum_j K_j* A K_j - (1/2){K_j* K_j, A}.  Built once per
    term, as ``term.superop``."""
    sites, dims = term._site_order(), term._dims()
    total = int(np.prod(dims))
    eye = np.eye(total, dtype=complex)
    out = np.zeros((total * total, total * total), dtype=complex)
    if term.hamiltonian is not None:
        h = embed(term.hamiltonian, sites, dims).matrix
        out += 1j * (left_right_superop(h, eye) - left_right_superop(eye, h))
    for k in term.kraus:
        km = embed(k, sites, dims).matrix
        kdag = km.conj().T
        kk = kdag @ km
        out += left_right_superop(kdag, km)
        out -= 0.5 * (left_right_superop(kk, eye) + left_right_superop(eye, kk))
    return out


def local_superop(term: LindbladTerm, sites: tuple, dims: tuple) -> scipy.sparse.csr_matrix:
    """The term on the volume ``sites`` in CSR form: ``term.superop``
    tensored with the identity on the rest of the volume, legs permuted into
    the volume's column-stacking order.  Every stored entry is an entry of
    ``term.superop``, and the column indices of each row are sorted.

    A vec index of the volume is a sum of per-leg offsets, so with sigma the
    leg permutation the entry (p, q) of the term meets the rest-of-volume
    index k at row inv(p rest^2 + k) = f(p) + g(k) and column f(q) + g(k),
    where f(p) = inv(p rest^2) and g(k) = inv(k).  Row i of the result is
    therefore row p = sigma(i) // rest^2 of the term, shifted by i - f(p);
    sorting each term row by f once sorts every row of the result."""
    own = term._site_order()
    by_site = dict(zip(sites, dims))
    if any(by_site.get(s) != d for s, d in zip(own, term._dims())):
        raise ModelError("term dimensions do not match the volume")
    rest = tuple(s for s in sites if s not in term.support)
    rest2 = int(np.prod([by_site[s] for s in rest], dtype=int)) ** 2
    # a vec index runs over column sites (slowest), then row sites
    legs = tuple((leg, s) for part in (own, rest) for leg in ("col", "row") for s in part)
    target = tuple((leg, s) for leg in ("col", "row") for s in sites)
    sigma = _basis_permutation(legs, target, tuple(dims) * 2)
    n, m = sigma.size, term.superop.shape[0]
    inv = np.empty_like(sigma)
    inv[sigma] = np.arange(n)
    offset = inv[np.arange(m) * rest2]
    p, q = np.nonzero(term.superop)
    order = np.lexsort((offset[q], p))
    p, q = p[order], q[order]
    values, shift = term.superop[p, q], offset[q]
    counts = np.bincount(p, minlength=m)
    row_term = sigma // rest2
    per_row = counts[row_term]
    indptr = np.concatenate(([0], np.cumsum(per_row)))
    src = np.repeat(np.cumsum(counts)[row_term] - per_row - indptr[:-1], per_row) \
        + np.arange(indptr[-1])
    indices = np.repeat(np.arange(n) - offset[row_term], per_row) + shift[src]
    out = scipy.sparse.csr_matrix((values[src], indices, indptr), shape=(n, n))
    out.has_sorted_indices = True
    return out


@dataclass(frozen=True)
class DissipativeInteraction:
    """A family of Lindblad terms indexed by finite supports of a space."""

    space: FiniteMetricSpace
    terms: tuple

    def __post_init__(self):
        terms = tuple(self.terms)
        universe = self.space.all_sites()
        for t in terms:
            if not t.support <= universe:
                raise ModelError("term support outside the space")
        object.__setattr__(self, "terms", terms)

    @property
    def sup_norm(self) -> float:
        """Uniform bound: max over supports of the summed cb_upper surrogates
        (terms sharing a support are merged, matching a single map per region)."""
        by_support: dict = {}
        for t in self.terms:
            by_support[t.support] = by_support.get(t.support, 0.0) + t.cb_upper
        return max(by_support.values(), default=0.0)

    @cached_property
    def diameters(self) -> tuple:
        """Support diameter of each term, in stored order."""
        return tuple(geometry.diameter(self.space, t.support) for t in self.terms)

    @property
    def range_r0(self) -> float:
        """Largest support diameter; zero for purely on-site interactions."""
        return max(self.diameters, default=0.0)

    def terms_for(self, volume: frozenset, max_diam: Optional[float] = None) -> list:
        """A generator's term set: the terms inside ``volume`` (of diameter <= ``max_diam``)."""
        return [t for t, diam in zip(self.terms, self.diameters)
                if t.support <= volume and (max_diam is None or diam <= max_diam + 1e-12)]


def generator(interaction: DissipativeInteraction) -> Superoperator:
    """The full generator on the interaction's space, the densified ``assemble``
    of every term; a volume whose vectorized dimension exceeds ``MAX_DENSE_DIM``
    is refused before any matrix is allocated."""
    vol_sites = interaction.space.points
    dims_t = volume_dims(vol_sites, *interaction.terms)
    _check_dense(dims_t)
    return Superoperator(assemble(interaction.terms, vol_sites, dims_t).toarray(), vol_sites,
                         dims_t, picture="heisenberg")


def _check_dense(dims: tuple) -> None:
    """Refuse a dense superoperator over ``MAX_DENSE_DIM``, before allocating it."""
    d2 = int(np.prod(dims)) ** 2
    if d2 > MAX_DENSE_DIM:
        raise ModelError(f"vectorized dimension {d2} exceeds the dense ceiling "
                         f"model.MAX_DENSE_DIM = {MAX_DENSE_DIM}")


def assemble(terms: Iterable[LindbladTerm], vol_sites: tuple,
             dims: tuple) -> scipy.sparse.csr_matrix:
    """The embedded terms summed in their stored order, for reproducibility."""
    total = int(np.prod(dims))
    acc = scipy.sparse.csr_matrix((total * total, total * total), dtype=complex)
    for t in terms:
        acc = acc + local_superop(t, vol_sites, dims)
    return acc


def interaction_f_norm(interaction: DissipativeInteraction, f: Callable) -> float:
    """Smallest M with sum over terms containing both anchors x, y of cb_upper
    <= M F(d(x,y)), maximized over all anchor pairs (including x = y) of the
    interaction's space."""
    space = interaction.space
    n = len(space)
    anchored = np.zeros((n, n))
    for t in interaction.terms:
        idx = space.indices(t.support)
        anchored[np.ix_(idx, idx)] += t.cb_upper
    fm = np.asarray(f(space.dist), dtype=float)
    if np.min(fm) <= 0:
        raise ModelError("profile must be positive on the space")
    return float(np.max(anchored / fm))


def finite_range_fnorm_bound(interaction: DissipativeInteraction, f: Callable,
                             kappa: float, nu: float) -> float:
    """Counting bound for uniformly bounded finite-range interactions:
    sup_norm * 2**(kappa * R0**nu - 2) / F(R0)."""
    r0 = interaction.range_r0
    if r0 <= 0:
        raise ModelError("finite-range bound needs R0 > 0")
    sup = interaction.sup_norm
    if sup == 0.0:
        return 0.0
    return sup * 2.0 ** (kappa * r0 ** nu - 2.0) / float(f(r0))


def volume_dims(vol_sites: tuple, *terms: LindbladTerm) -> tuple:
    """Local dimensions of a volume, read off the terms (2 at sites no term
    covers)."""
    by_site = {}
    for t in terms:
        for s, d in zip(t._site_order(), t._dims()):
            prev = by_site.setdefault(s, d)
            if prev != d:
                raise ModelError(f"inconsistent local dimension at site {s!r}")
    return tuple(by_site.get(s, 2) for s in vol_sites)


# -- named interaction families -------------------------------------------------

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
LOWERING = np.array([[0, 1], [0, 0]], dtype=complex)  # |0><1|


def tfim_dissipative(space: FiniteMetricSpace, j: float, h: float,
                     gamma: float) -> DissipativeInteraction:
    """Nearest-neighbour ZZ couplings, transverse X field, on-site amplitude
    damping.  One term per support: field and damping share each site term."""
    terms = []
    for s in space.points:
        ham = from_matrix(h * PAULI_X, (s,), frozenset([s])) if h != 0.0 else None
        kraus = ()
        if gamma != 0.0:
            kraus = (from_matrix(math.sqrt(gamma) * LOWERING, (s,), frozenset([s])),)
        if ham is not None or kraus:
            terms.append(LindbladTerm(frozenset([s]), ham, kraus, label=f"site{s!r}"))
    if j != 0.0:
        for x, y in _nearest_neighbour_pairs(space):
            ham = _two_site_zz(space, x, y, j)
            terms.append(LindbladTerm(frozenset([x, y]), ham, (), label=f"zz{(x, y)!r}"))
    return DissipativeInteraction(space, tuple(terms))


def long_range_zz(space: FiniteMetricSpace, j: float, alpha_int: float,
                  gamma: float) -> DissipativeInteraction:
    """All-to-all ZZ pairs with amplitude j / (1 + d)**alpha_int, plus on-site
    amplitude damping at rate gamma."""
    terms = []
    for s in space.points:
        if gamma != 0.0:
            k = from_matrix(math.sqrt(gamma) * LOWERING, (s,), frozenset([s]))
            terms.append(LindbladTerm(frozenset([s]), None, (k,), label=f"damp{s!r}"))
    if j != 0.0:
        pts = space.points
        for i, x in enumerate(pts):
            for y in pts[i + 1:]:
                amp = j / (1.0 + space.d(x, y)) ** alpha_int
                terms.append(LindbladTerm(frozenset([x, y]), _two_site_zz(space, x, y, amp),
                                          (), label=f"zz{(x, y)!r}"))
    return DissipativeInteraction(space, tuple(terms))


def _two_site_zz(space: FiniteMetricSpace, x: Site, y: Site, amp: float) -> ObservableOp:
    sites = space.ordered([x, y])
    return from_matrix(amp * np.kron(PAULI_Z, PAULI_Z), sites, frozenset(sites))


def _nearest_neighbour_pairs(space: FiniteMetricSpace) -> list:
    if len(space) < 2:
        return []
    off = space.dist[~np.eye(len(space), dtype=bool)]
    nn_dist = float(np.min(off))
    pairs = []
    pts = space.points
    for i, x in enumerate(pts):
        for y in pts[i + 1:]:
            if abs(space.d(x, y) - nn_dist) <= 1e-12:
                pairs.append((x, y))
    return pairs
