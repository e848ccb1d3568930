"""Dissipative interactions in Lindblad form and their generator assembly.

An interaction is a list of local terms, each with a self-adjoint Hamiltonian
part and a family of Kraus operators on a finite support.  Exact
completely-bounded norms are out of scope; every term carries the certified
surrogate ``cb_upper = 2 |H| + 2 sum_j |K_j|^2`` (triangle inequality over
the three Lindblad pieces) together with a probed lower bound, and all
analytic bounds consume ``cb_upper``.

An interaction names the volume's shape once: its space and its local
dimensions (``DissipativeInteraction.dims``, read off its terms' own operators).

A generator is its term set: L = sum_Z L_Z over every term (the full
dynamics), the terms with diam Z <= R (the range-R approximant) or the terms
inside a region (the strictly local dynamics), as ``terms_for`` selects them.
Each term builds its superoperator on its own support once
(``LindbladTerm.superop``); ``local_superop`` embeds it into a volume by one
transpose of its legs and one sort of its entries, every entry an entry of
that matrix, and ``assemble`` sums the embedded terms in their stored order
into a Heisenberg ``Superoperator``, one CSR matrix, so a caller that keys its
generators by their terms (``dynamics.Dynamics``) builds one per distinct set.
No generator is dense; ``generator`` refuses, over ``MAX_DENSE_DIM``, a volume
too large for the dense block work that reads the full generator.
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

from . import decay, geometry
from .geometry import FiniteMetricSpace, Site
from .qalgebra import (
    PAULI,
    ObservableOp,
    embed,
    _basis_permutation,
    from_matrix,
    left_right_superop,
    op_norm,
    probed_cb_lower,
)

HERMITICITY_ATOL = 1e-12
MAX_DENSE_DIM = 4096  # largest vectorized dimension of the dense work on a generator


class ModelError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Superoperator:
    """The Heisenberg generator L of a volume, a linear map on its vectorized
    observable algebra, its matrix M held in canonical CSR form: sorted
    indices, no duplicates and no stored zeros.  Any other input is converted
    once; a canonical CSR input with no stored zero, such as ``assemble``'s,
    is kept as it is, not copied.

    Its O(n^3) work runs on its invariant coordinate blocks (``_blocks``),
    the connected components of the nonzero pattern of M + M^H.  A block of
    coordinates that neither M nor M^H leaves is invariant, so M is
    block-diagonal over the blocks, and its exponentials, eigenvalues and
    singular values are those of its blocks: the symmetry reduction of Buca
    and Prosen (New J. Phys. 14, 073007, 2012), read off the sparsity pattern.
    The pattern is that of M^H as well, so the Schroedinger generator
    L_s = L^H, the CSR conjugate transpose of M, has the same blocks, and
    ``_gather`` reads either matrix's blocks off its stored entries: the map
    is never densified.  Blocks of one size are stacked, so each step is one
    batched LAPACK call per block size; a map that does not split is one
    block and runs the same calls on its whole matrix.  A dense map
    scattered from its blocks (``dynamics.propagator``) is read-only.
    """

    matrix: scipy.sparse.csr_matrix
    sites: tuple
    dims: tuple

    def __post_init__(self):
        m = self.matrix
        if not (scipy.sparse.issparse(m) and m.format == "csr" and m.has_canonical_format
                and np.all(m.data != 0)):
            m = scipy.sparse.csr_matrix(m, dtype=complex, copy=True)
            m.sum_duplicates()
            m.eliminate_zeros()
        total = int(np.prod(self.dims))
        if m.shape != (total * total, total * total):
            raise ModelError(f"superoperator shape {m.shape} inconsistent with volume")
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
        csr = self.matrix
        pattern = scipy.sparse.csr_matrix(
            (np.ones(csr.nnz, dtype=bool), csr.indices, csr.indptr), shape=csr.shape)
        _, component = scipy.sparse.csgraph.connected_components(pattern, connection="weak")
        _, least = np.unique(component, return_index=True)
        label = least[component]
        order = np.argsort(label, kind="stable")
        _, starts, sizes = np.unique(label[order], return_index=True, return_counts=True)
        return tuple(order[starts[sizes == n][:, None] + np.arange(n)]
                     for n in np.unique(sizes))

    def _gather(self, matrix: Optional[scipy.sparse.csr_matrix] = None) -> list:
        """The invariant blocks of ``matrix`` (the map's own or its conjugate
        transpose), one writable (k, n, n) stack per size group of ``_blocks``:
        one COO scatter of its stored entries per group, each at its place."""
        csr = self.matrix if matrix is None else matrix
        group, block, place = (np.empty(csr.shape[0], dtype=np.intp) for _ in range(3))
        for g, idx in enumerate(self._blocks):
            group[idx] = g
            block[idx] = np.arange(idx.shape[0])[:, None]
            place[idx] = np.arange(idx.shape[1])
        rows = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
        row_group = group[rows]
        stacks = []
        for g, (k, n) in enumerate(idx.shape for idx in self._blocks):
            mine = row_group == g
            r, c = rows[mine], csr.indices[mine]
            s = np.zeros((k, n, n), dtype=complex)
            s[block[r], place[r], place[c]] = csr.data[mine]
            stacks.append(s)
        return stacks

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
        w = np.concatenate([np.linalg.eig(s)[0].ravel() for s in self._gather()])
        w.flags.writeable = False
        return w


def expm_blocks(stacks: list, t: float) -> list:
    """exp(t M) of each (k, n, n) stack of blocks M, the package's one dense
    exponential: the identity at t = 0, else M scaled by t in place and one
    call of scipy's ``expm`` per stack."""
    if t < 0:
        raise ModelError("propagation time must be nonnegative")
    if t == 0.0:
        return [np.broadcast_to(np.eye(s.shape[-1], dtype=complex), s.shape) for s in stacks]
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
    sites: tuple = field(init=False)
    dims: tuple = field(init=False)
    cb_upper: float = field(init=False)
    cb_lower: float = field(init=False)
    superop: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        support = frozenset(self.support)
        if not support:
            raise ModelError("term needs nonempty support")
        h = self.hamiltonian
        h_norm = op_norm(h) if h is not None else 0.0
        if h is not None:
            if frozenset(h.sites) != support:
                raise ModelError("hamiltonian volume must equal the term support")
            if op_norm(h.matrix - h.matrix.conj().T) > HERMITICITY_ATOL * max(1.0, h_norm):
                raise ModelError("hamiltonian part must be self-adjoint")
        kraus = tuple(self.kraus)
        for k in kraus:
            if frozenset(k.sites) != support:
                raise ModelError("kraus operator volume must equal the term support")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "kraus", kraus)
        # the ordered sites and local dimensions of the term's own operators
        ref = h if h is not None else kraus[0] if kraus else None
        object.__setattr__(self, "sites", tuple(ref.sites) if ref is not None
                           else tuple(sorted(support, key=repr)))
        object.__setattr__(self, "dims", tuple(ref.dims) if ref is not None
                           else (2,) * len(support))
        k_norms = [op_norm(k) for k in kraus]
        object.__setattr__(self, "cb_upper", 2.0 * h_norm + 2.0 * sum(x * x for x in k_norms))
        own = own_superop(self)
        own.flags.writeable = False
        object.__setattr__(self, "superop", own)
        object.__setattr__(self, "cb_lower", probed_cb_lower(own, self.dims, 99,
                                                             self.cb_upper))


def own_superop(term: LindbladTerm) -> np.ndarray:
    """Dense Heisenberg generator of the term on its own support:
    A -> i[H, A] + sum_j K_j* A K_j - (1/2){K_j* K_j, A}.  Built once per
    term, as ``term.superop``."""
    total = int(np.prod(term.dims))
    eye = np.eye(total, dtype=complex)
    out = np.zeros((total * total, total * total), dtype=complex)
    if term.hamiltonian is not None:
        h = embed(term.hamiltonian, term.sites, term.dims).matrix
        out += 1j * (left_right_superop(h, eye) - left_right_superop(eye, h))
    for k in term.kraus:
        km = embed(k, term.sites, term.dims).matrix
        kdag = km.conj().T
        kk = kdag @ km
        out += left_right_superop(kdag, km)
        out -= 0.5 * (left_right_superop(kk, eye) + left_right_superop(eye, kk))
    return out


def local_superop(term: LindbladTerm, sites: tuple, dims: tuple) -> scipy.sparse.csr_matrix:
    """The term on the volume ``sites`` in CSR form: ``term.superop``
    tensored with the identity on the rest of the volume, legs permuted into
    the volume's column-stacking order, each row's column indices sorted.
    With inv the leg permutation from the term-then-rest order into the
    volume's, entry (p, q) of the term meets rest-of-volume index k at row
    inv(p rest^2 + k) and column inv(q rest^2 + k): every stored entry is an
    entry of ``term.superop``, and sorted by position they are the CSR arrays."""
    by_site = dict(zip(sites, dims))
    if any(by_site.get(s) != d for s, d in zip(term.sites, term.dims)):
        raise ModelError("term dimensions do not match the volume")
    rest = tuple(s for s in sites if s not in term.support)
    rest2 = int(np.prod([by_site[s] for s in rest], dtype=int)) ** 2
    # a vec index runs over column sites (slowest), then row sites
    legs = tuple((leg, s) for part in (term.sites, rest) for leg in ("col", "row") for s in part)
    target = tuple((leg, s) for leg in ("col", "row") for s in sites)
    inv = _basis_permutation(target, legs, tuple(by_site[s] for _, s in legs))
    n, k = inv.size, np.arange(rest2)
    p, q = np.nonzero(term.superop)
    rows = inv[p[:, None] * rest2 + k].ravel()
    cols = inv[q[:, None] * rest2 + k].ravel()
    order = np.argsort(rows * n + cols)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    values = term.superop[p, q][order // rest2]
    out = scipy.sparse.csr_matrix((values, cols[order], indptr), shape=(n, n))
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
        self.dims  # refuses inconsistent local dimensions here, once

    @cached_property
    def dims(self) -> tuple:
        """The local dimension at each of ``space.points``, read off the terms'
        own operators (``LindbladTerm.sites``/``dims``); 2 where no term acts."""
        by_site: dict = {}
        for t in self.terms:
            for s, d in zip(t.sites, t.dims):
                if by_site.setdefault(s, d) != d:
                    raise ModelError(f"inconsistent local dimension at site {s!r}")
        return tuple(by_site.get(s, 2) for s in self.space.points)

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
    """The full generator on the interaction's space, ``assemble`` of every
    term.  It feeds dense block work (the fixed-point analysis,
    ``dynamics.propagator``), so a volume whose vectorized dimension exceeds
    ``MAX_DENSE_DIM`` is refused before any matrix is built."""
    _check_dense(interaction.dims)
    return assemble(interaction.terms, interaction.space.points, interaction.dims)


def _check_dense(dims: tuple) -> None:
    """Refuse a dense superoperator over ``MAX_DENSE_DIM``, before allocating it."""
    d2 = int(np.prod(dims)) ** 2
    if d2 > MAX_DENSE_DIM:
        raise ModelError(f"vectorized dimension {d2} exceeds the dense ceiling "
                         f"model.MAX_DENSE_DIM = {MAX_DENSE_DIM}")


def assemble(terms: Iterable[LindbladTerm], vol_sites: tuple, dims: tuple) -> Superoperator:
    """The Heisenberg generator of ``terms`` on the volume: the embedded terms
    summed in their stored order, for reproducibility."""
    total = int(np.prod(dims))
    acc = scipy.sparse.csr_matrix((total * total, total * total), dtype=complex)
    for t in terms:
        acc = acc + local_superop(t, vol_sites, dims)
    return Superoperator(acc, vol_sites, dims)


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
    return float(np.max(anchored / decay._f_matrix(f, space)))


# -- named interaction families -------------------------------------------------

def tfim_dissipative(space: FiniteMetricSpace, j: float, h: float,
                     gamma: float) -> DissipativeInteraction:
    """Nearest-neighbour ZZ couplings, transverse X field, on-site amplitude
    damping.  One term per support: field and damping share each site term."""
    _check_family(gamma, j=j, h=h)
    terms = []
    for s in space.points:
        ham = from_matrix(h * PAULI["X"], (s,), frozenset([s])) if h != 0.0 else None
        kraus = ()
        if gamma != 0.0:
            kraus = (from_matrix(math.sqrt(gamma) * PAULI["M"], (s,), frozenset([s])),)
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
    _check_family(gamma, j=j, alpha_int=alpha_int)
    terms = []
    for s in space.points:
        if gamma != 0.0:
            k = from_matrix(math.sqrt(gamma) * PAULI["M"], (s,), frozenset([s]))
            terms.append(LindbladTerm(frozenset([s]), None, (k,), label=f"damp{s!r}"))
    if j != 0.0:
        pts = space.points
        for i, x in enumerate(pts):
            for y in pts[i + 1:]:
                amp = j / (1.0 + space.d(x, y)) ** alpha_int
                terms.append(LindbladTerm(frozenset([x, y]), _two_site_zz(space, x, y, amp),
                                          (), label=f"zz{(x, y)!r}"))
    return DissipativeInteraction(space, tuple(terms))


def _check_family(gamma: float, **args: float) -> None:
    """Refuse, by name, a non-finite argument of a family or a negative damping rate."""
    for name, x in args.items():
        if not math.isfinite(x):
            raise ModelError(f"{name} must be finite, got {float(x)}")
    if not (math.isfinite(gamma) and gamma >= 0):
        raise ModelError(f"gamma must be finite and >= 0, got {float(gamma)}")


def _two_site_zz(space: FiniteMetricSpace, x: Site, y: Site, amp: float) -> ObservableOp:
    sites = space.ordered([x, y])
    return from_matrix(amp * np.kron(PAULI["Z"], PAULI["Z"]), sites, frozenset(sites))


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
