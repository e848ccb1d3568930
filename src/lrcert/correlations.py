"""States, exact correlation functionals, dynamical fixed points, and mixing.

Nothing here builds a report row: the rows its values enter are built only
by the theorem table, ``harness.THEOREMS``.

The fixed-point analysis certifies brackets, not exact values.  A trace-norm
supremum sup_rho |T(rho) - rho_pi|_1 is bounded above by sqrt(dim) times the
spectral norm of the vectorized map difference, and below by its value at an
explicit pure state: the objective is convex, so pure states attain the
supremum, and a linearisation ascent from tilted basis starts and seeded
starts moves each start to the top eigenvector of
T^dagger(sign(T(psi psi^*) - rho_pi)), a step that cannot decrease the
objective.  The reported lower value is the exact trace norm recomputed at
the best state found, so it is attained, not estimated.

``analyze_fixed_point`` is the one fixed-point analysis; every fixed-point
question reads the ``FixedPointAnalysis`` it returns.  It builds rho_pi
(``stationary_state``, which alone decides that it is unique), checks mixing
on ``periodic_points``, reads the gap gamma off the generator's spectrum
(``Superoperator.spectrum``), and builds the Schroedinger maps exp(tL_s) of
its grid as one dict (``_semigroup``, a sum of two earlier times being their
maps' product) and the fixed projection P.  Its checks read T_t - P: the
growth-bound identity at t = 1 and the upper bracket of each grid time,
under the envelope c e^{-gamma t}.  The generator is the Heisenberg
``Superoperator`` L, one CSR matrix, and L_s = L^H its CSR conjugate
transpose: every O(n^3) step runs on their shared invariant blocks
(``Superoperator._blocks``), gathered from the stored entries, one batched
LAPACK call per block size, so neither is densified; only the ascent reads a
dense map.  The analysis runs no ascent: ``convergence_envelope`` and
``mixing_eta`` read its maps for the lower brackets, and ``spectral_gap`` is
its gap on an empty grid.
``correlation`` evolves observables through ``Dynamics``, and ``c_ab``
localizes them there, each to the inflation of its own support; the
fixed-point rows' first term w(T_t(A B_t)) is ``covariance`` at w evolved by
the analysis' maps instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from .dynamics import Dynamics
from .geometry import Site
from .model import Superoperator, expm_blocks
from .qalgebra import (
    ObservableOp,
    _resolve_dims,
    devectorize,
    op_norm,
)

PSD_ATOL = 1e-12
TRACE_ATOL = 1e-12
NULL_RTOL = 1e-10
RANK_GAP_RATIO = 1e3
PERIODIC_ATOL = 1e-9
ASCENT_RTOL = 1e-13     # a start stops once a step gains less than this, relatively
ASCENT_MAX_STEPS = 64   # and after at most this many steps
ASCENT_TILT = 1e-6      # weight of the seeded component added to each basis start


class CorrelationsError(ValueError):
    pass


class DegenerateFixedPointError(CorrelationsError):
    def __init__(self, dimension: int):
        super().__init__(f"non-unique fixed point (null-space dimension {dimension})")
        self.dimension = dimension


class AmbiguousRankError(CorrelationsError):
    pass


class NotMixingError(CorrelationsError):
    pass


SINGLE_SITE_DENSITIES = {
    "0": np.array([[1, 0], [0, 0]], dtype=complex),
    "1": np.array([[0, 0], [0, 1]], dtype=complex),
    "+": np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex),
    "-": np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex),
    "mixed": np.eye(2, dtype=complex) / 2.0,
}


def product_governance(nx: float, ny: float, d: float) -> float:
    """Valid spatial-correlation governance for any product state."""
    return 0.0 if d > 0 else 2.0


@dataclass(frozen=True, eq=False)
class StateFunctional:
    """A state on the observable algebra of a volume, given by a density matrix.

    ``governance``, when present, bounds static correlations:
    |w(AB) - w(A) w(B)| <= |A| |B| governance(|X|, |Y|, d(X, Y)).
    """

    density: np.ndarray
    sites: tuple
    dims: tuple
    governance: Optional[Callable[[float, float, float], float]] = None

    def __post_init__(self):
        rho = np.asarray(self.density, dtype=complex)
        total = int(np.prod(self.dims))
        if rho.shape != (total, total):
            raise CorrelationsError("density matrix shape inconsistent with volume")
        if op_norm(rho - rho.conj().T) > 1e-10:
            raise CorrelationsError("density matrix must be hermitian")
        if abs(np.trace(rho).real - 1.0) > TRACE_ATOL or abs(np.trace(rho).imag) > TRACE_ATOL:
            raise CorrelationsError("density matrix must have unit trace")
        if float(np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)))) < -PSD_ATOL:
            raise CorrelationsError("density matrix must be positive semidefinite")
        rho.flags.writeable = False
        object.__setattr__(self, "density", rho)
        object.__setattr__(self, "sites", tuple(self.sites))
        object.__setattr__(self, "dims", tuple(self.dims))

    @classmethod
    def product(cls, sites: Sequence[Site], site_states: Union[str, Mapping],
                dims=None) -> "StateFunctional":
        sites = tuple(sites)
        dims_t = _resolve_dims(sites, dims)
        rho = np.array([[1.0 + 0j]])
        for s, d in zip(sites, dims_t):
            label = site_states if isinstance(site_states, str) else site_states[s]
            local = SINGLE_SITE_DENSITIES[label] if isinstance(label, str) \
                else np.asarray(label, dtype=complex)
            if local.shape != (d, d):
                raise CorrelationsError(f"site density at {s!r} has wrong dimension")
            rho = np.kron(rho, local)
        return cls(rho, sites, dims_t, governance=product_governance)

    @classmethod
    def maximally_mixed(cls, sites: Sequence[Site], dims=None) -> "StateFunctional":
        sites = tuple(sites)
        dims_t = _resolve_dims(sites, dims)
        total = int(np.prod(dims_t))
        return cls(np.eye(total, dtype=complex) / total, sites, dims_t,
                   governance=product_governance)

    def expect(self, a: ObservableOp) -> complex:
        if (a.sites, a.dims) != (self.sites, self.dims):
            raise CorrelationsError("observable volume differs from the state volume")
        return complex(np.trace(self.density @ a.matrix))


# -- exact correlation quantities -------------------------------------------------


def correlation(omega: StateFunctional, dynamics: Dynamics, t: float,
                a: ObservableOp, b: ObservableOp) -> complex:
    """w(T_t(AB)) - w(T_t(A)) w(T_t(B)), all three evolutions exact; as
    T_t(1) = 1, it is also w(T_t(A B_t)) with B_t = B - w(T_t(B)) 1."""
    return (omega.expect(dynamics.evolve(t, a @ b))
            - omega.expect(dynamics.evolve(t, a)) * omega.expect(dynamics.evolve(t, b)))


def covariance(density: np.ndarray, a: ObservableOp, b: ObservableOp) -> complex:
    """tr(rho AB) - tr(rho A) tr(rho B) at the density matrix ``density``."""
    e_ab, e_a, e_b = (complex(np.trace(density @ x.matrix)) for x in (a @ b, a, b))
    return e_ab - e_a * e_b


def c_ab(dynamics: Dynamics, r: float, t: float, a: ObservableOp, b: ObservableOp) -> float:
    """The three-term localization defect that controls dynamic correlations:
    B, A and AB, each localized to the r-inflation of its own support, Y, X
    and X | Y."""
    return (op_norm(a) * dynamics.local_error(t, b, r)
            + op_norm(b) * dynamics.local_error(t, a, r)
            + dynamics.local_error(t, a @ b, r))


# -- fixed points and spectra ------------------------------------------------------


def stationary_state(gen: Superoperator) -> StateFunctional:
    """The unique density matrix annihilated by L_s = L^H, ``gen`` being L.

    Null vectors are singular vectors below ``1e-10 * |L|``; the rank decision
    additionally demands a 1e3 gap ratio to the first retained singular value.
    Both read the union of the singular values of L_s on the invariant blocks
    (one batched SVD per block size), and the null vector is its block's
    singular vector, zero off the block.  The state stays zero off that
    block: the roundoff of its positive-semidefinite clip is dropped there,
    so the fixed projection lies in one block (``_fixed_projection``).
    """
    svds = [np.linalg.svd(m) for m in gen._gather(gen.matrix.conj().T.tocsr())]
    flat = np.concatenate([sv[1].ravel() for sv in svds])
    s = np.sort(flat)[::-1]
    scale = s[0] if s[0] > 0 else 1.0
    tol = NULL_RTOL * scale
    null_count = int(np.sum(s <= tol))
    if null_count == 0:
        raise CorrelationsError("no fixed point within tolerance")
    largest_null = s[-null_count]
    smallest_kept = s[-null_count - 1] if null_count < len(s) else np.inf
    if largest_null > 0 and smallest_kept / largest_null < RANK_GAP_RATIO:
        raise AmbiguousRankError(
            f"ambiguous rank: singular values {smallest_kept:.3e} vs {largest_null:.3e}")
    if null_count != 1:
        raise DegenerateFixedPointError(null_count)
    g = int(np.argmin([sv[1].min() for sv in svds]))
    b, j = np.unravel_index(np.argmin(svds[g][1]), svds[g][1].shape)
    vec = np.zeros(flat.size, dtype=complex)
    vec[gen._blocks[g][b]] = svds[g][2][b, j].conj()
    rho = devectorize(vec, gen.sites, gen.dims).matrix
    in_block = np.zeros(rho.size, dtype=bool)
    in_block[gen._blocks[g][b]] = True
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho)
    if abs(tr) < 1e-12:
        raise CorrelationsError("null vector is traceless; not a state")
    rho = rho / tr
    vals, vecs = np.linalg.eigh(rho)
    if float(np.min(vals)) < -1e-10:
        raise CorrelationsError(f"fixed point not PSD (min eigenvalue {np.min(vals):.3e})")
    rho = (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T
    rho[~in_block.reshape(rho.shape, order="F")] = 0.0
    rho = rho / np.trace(rho).real
    return StateFunctional(rho, gen.sites, gen.dims)


def periodic_points(gen: Superoperator) -> list:
    """Purely imaginary spectrum of the generator: [(imag part, multiplicity)].

    Eigenvalues with |Re| <= 1e-9 count; imaginary parts are clustered at the
    same tolerance.  ``analyze_fixed_point`` reads it for its mixing check.
    """
    eigs = gen.spectrum
    imags = sorted(float(ev.imag) for ev in eigs if abs(ev.real) <= PERIODIC_ATOL)
    clusters = []
    for im in imags:
        if clusters and abs(im - clusters[-1][0]) <= PERIODIC_ATOL:
            lam, count = clusters[-1]
            clusters[-1] = (lam, count + 1)
        else:
            clusters.append((im, 1))
    return clusters


def spectral_gap(gen: Superoperator) -> tuple:
    """(gamma, omega0) with gamma the least decay rate off the fixed subspace
    and omega0 = -gamma: the gap of ``analyze_fixed_point`` on an empty grid.

    Requires a unique fixed point and no oscillatory periodic points.  The
    growth-bound identity rad(exp(L_s) - P) = exp(omega0) is verified to
    1e-8 relative accuracy.
    """
    gap = analyze_fixed_point(gen, ()).gap
    return gap, -gap


def _semigroup(gen: Superoperator, times: Iterable[float]) -> dict:
    """{t: exp(t L_s)} over ``times``, with L_s = L^H and L = ``gen``, each map
    on the invariant blocks (one read-only (k, n, n) stack per block size,
    ``model.expm_blocks`` of L_s gathered for that time).  The maps are built
    in ascending order, and a time that equals the sum of two earlier ones
    exactly (in floating point) is the product of their maps, the semigroup
    law exp((s + u) L) = exp(s L) exp(u L) that is also the squaring step of
    scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 2005); any
    other time is exponentiated.  No dense map is formed; the ascent
    scatters the one it reads (``FixedPointAnalysis.lower_bracket``)."""
    maps: dict = {}
    for t in sorted(set(map(float, times))):
        s = next((u for u in sorted(maps, reverse=True) if t - u in maps and u + (t - u) == t),
                 None)
        if s is None:
            maps[t] = expm_blocks(gen._gather(gen.matrix.conj().T.tocsr()), t)
        else:
            maps[t] = [x @ y for x, y in zip(maps[s], maps[t - s])]
        for m in maps[t]:
            m.flags.writeable = False
    return maps


def _fixed_projection(gen: Superoperator, rho_pi: np.ndarray) -> list:
    """The fixed projection P = vec(rho_pi) vec(1)^T of the Schroedinger maps
    on the invariant blocks of ``gen``, one (k, n, n) stack per block size.

    P lies in one block when the zero eigenvalue is simple.  L_s is
    block-diagonal, so its spectrum is the union of its blocks' spectra, and
    the simple zero eigenvalue belongs to one block B.  A right null vector
    such as vec(rho_pi) is then supported in B, since its part on any other
    block would be a null vector of that block, and so is the left null
    vector vec(1) of a trace-preserving L_s.  So P, and with it T_t - P, is
    block-diagonal on the same blocks as T_t.  Raises unless vec(rho_pi) and
    vec(1) do lie in one block, since P off its block would be dropped.
    """
    r = rho_pi.flatten(order="F")
    one = np.eye(rho_pi.shape[0], dtype=complex).flatten(order="F")
    support = (r != 0) | (one != 0)
    touched = sum(int(np.count_nonzero(support[idx].any(axis=1))) for idx in gen._blocks)
    if touched != 1:
        raise CorrelationsError(
            f"the fixed projection spans {touched} invariant blocks of the generator, not one")
    return [r[idx][:, :, None] * one[idx][:, None, :] for idx in gen._blocks]


def trace_norm(m: np.ndarray) -> float:
    h = 0.5 * (m + m.conj().T)
    if np.linalg.norm(m - h) <= 1e-12 * max(1.0, np.linalg.norm(m)):
        return float(np.sum(np.abs(np.linalg.eigvalsh(h))))
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


@dataclass(frozen=True)
class FixedPointAnalysis:
    """The certificate the fixed-point bounds read: the stationary state, the
    gap gamma, the upper bracket sqrt(dim) |T_t - P|_2 of each grid time
    (``uppers``) and the least c >= 1 with c e^{-gamma t} above every one;
    and the grid's ``_semigroup`` maps on the invariant blocks of the
    Heisenberg ``generator`` it analysed, which the lower brackets read."""

    rho_pi: StateFunctional
    gap: float
    envelope_c: float
    uppers: Mapping = field(repr=False)
    maps: Mapping = field(compare=False, repr=False)
    generator: Superoperator = field(compare=False, repr=False)

    def governance(self) -> Callable[[float], float]:
        """g(t) = min(2, c e^{-gamma t}), valid whenever the envelope holds."""
        c, gamma = self.envelope_c, self.gap
        return lambda t: min(2.0, c * math.exp(-gamma * t))

    def evolve(self, t: float, density: np.ndarray) -> np.ndarray:
        """exp(t L_s)(rho) at a grid time t, one batched matvec per block size."""
        vec = density.flatten(order="F")
        out = np.empty(vec.shape, dtype=complex)
        for idx, m in zip(self.generator._blocks, self._map(t)):
            out[idx] = (m @ vec[idx][:, :, None])[:, :, 0]
        return out.reshape(density.shape, order="F")

    def lower_bracket(self, t: float, n_starts: int, seed: int) -> float:
        """|T_t(psi psi^*) - rho_pi|_1 at the best pure state the ascent finds
        at a grid time t, with the map T_t scattered into the dense map the
        ascent reads.  ``n_starts`` below 1 is refused before any ascent."""
        _check_starts(n_starts)
        dense = self.generator._scatter(self._map(t))
        return _multistart_state_distance(dense, self.rho_pi.density, n_starts, seed)[0]

    def _map(self, t: float) -> list:
        if float(t) not in self.maps:
            raise CorrelationsError(
                f"t = {t!r} is not on the analysis grid {sorted(self.maps)}")
        return self.maps[float(t)]


def convergence_envelope(analysis: FixedPointAnalysis, n_starts: int = 16,
                         seed: int = 11) -> tuple:
    """Per-time brackets of the distance of evolved states to the fixed projection
    over the grid of ``analysis``.

    Returns ``(c, gamma, samples)``, the analysis' envelope and, per grid
    time, samples (t, lower, upper): the ascent's lower bracket and the
    analysis' upper bracket, with ``upper <= c * exp(-gamma t)`` by
    construction of c.  ``n_starts`` below 1 is refused before any ascent.
    """
    _check_starts(n_starts)
    samples = tuple((t, analysis.lower_bracket(t, n_starts, seed), upper)
                    for t, upper in analysis.uppers.items())
    return analysis.envelope_c, analysis.gap, samples


def mixing_eta(analysis: FixedPointAnalysis, t: float, n_starts: int = 64,
               seed: int = 23) -> tuple:
    """Bracket (lower, upper) for the mixing coefficient at a grid time t of
    ``analysis``: half its lower bracket, the trace distance at the best pure
    initial state the ascent finds (pure states attain the supremum over
    density matrices), and half its upper bracket.  ``n_starts`` below 1 is
    refused before any ascent, and a time off the grid raises
    ``CorrelationsError``."""
    return (0.5 * analysis.lower_bracket(t, n_starts, seed),
            0.5 * analysis.uppers[float(t)])


def _check_starts(n_starts: int) -> None:
    if n_starts < 1:
        raise CorrelationsError("the ascent needs at least one start")


def _multistart_state_distance(prop: np.ndarray, rho_pi: np.ndarray,
                               n_starts: int, seed: int) -> tuple:
    """(value, psi): a lower bound on the max over pure states of
    |T(psi psi^*) - rho_pi|_1 and the unit vector psi that attains it.

    Every start is evaluated, then ascends by the linearisation step until a
    step gains less than ``ASCENT_RTOL`` relatively or ``ASCENT_MAX_STEPS``
    pass; all starts go through each step together.  The value is the exact
    trace norm recomputed at the best state.  A map that splits into
    invariant blocks can hold the step at a basis state: on the damped
    chains' blocks, T(|k><k|) - rho_pi and its sign stay diagonal, and so
    does the step's eigenvector.  So the basis starts are tilted off their
    axes by a seeded component of weight ``ASCENT_TILT``.
    """
    dim = rho_pi.shape[0]
    rng = np.random.default_rng(seed)
    psi = np.zeros((n_starts, dim), dtype=complex)
    for k in range(n_starts):
        if k < dim:
            psi[k, k] = 1.0
        else:
            x = rng.normal(size=2 * dim)
            psi[k] = x[:dim] + 1j * x[dim:]
    basis = min(n_starts, dim)
    x = rng.normal(size=(basis, 2 * dim))
    psi[:basis] += ASCENT_TILT * (x[:, :dim] + 1j * x[:, dim:])
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    value, sign = _distances_and_signs(prop, rho_pi, psi)
    prop_conj = prop.conj()
    active = np.arange(n_starts)
    for _ in range(ASCENT_MAX_STEPS):
        if active.size == 0:
            break
        # top eigenvectors of T^dagger(S): the states maximizing tr(S T(rho))
        adjoint = _unvec_rows(_vec_rows(sign[active]) @ prop_conj)
        step = np.linalg.eigh(_hermitian_part(adjoint))[1][:, :, -1]
        new_value, new_sign = _distances_and_signs(prop, rho_pi, step)
        gain = new_value - value[active]
        rose = gain > 0
        moved = active[rose]
        psi[moved], value[moved], sign[moved] = step[rose], new_value[rose], new_sign[rose]
        active = active[gain > ASCENT_RTOL * value[active]]
    best = psi[int(np.argmax(value))]
    return trace_norm(_images(prop, best[None])[0] - rho_pi), best


def _images(prop: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """T(psi psi^*) for each row psi, by one product with the column-stacked
    map ``prop``."""
    return _unvec_rows(_vec_rows(psi[:, :, None] * psi.conj()[:, None, :]) @ prop.T)


def _distances_and_signs(prop: np.ndarray, rho_pi: np.ndarray, psi: np.ndarray) -> tuple:
    """For each row psi: |T(psi psi^*) - rho_pi|_1 and the sign of that
    difference, by one batched ``eigh``."""
    diff = _images(prop, psi) - rho_pi
    lam, u = np.linalg.eigh(_hermitian_part(diff))
    sign = (u * np.sign(lam)[:, None, :]) @ u.conj().transpose(0, 2, 1)
    return np.abs(lam).sum(axis=1), sign


def _vec_rows(m: np.ndarray) -> np.ndarray:
    """Column-stacked vectorization of a stack of square matrices, one per row."""
    return m.transpose(0, 2, 1).reshape(m.shape[0], -1)


def _unvec_rows(v: np.ndarray) -> np.ndarray:
    dim = math.isqrt(v.shape[1])
    return v.reshape(-1, dim, dim).transpose(0, 2, 1)


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().transpose(0, 2, 1))


def analyze_fixed_point(gen: Superoperator, t_grid: Sequence[float]) -> FixedPointAnalysis:
    """The stationary state, the gap and the envelope c e^{-gamma t} over ``t_grid``.

    ``gen`` is the Heisenberg generator L, kept as the analysis' ``generator``.
    Uniqueness is ``stationary_state``'s rank decision, and mixing is read off
    ``periodic_points``: the one periodic point must be simple and at 0.  Any
    other point off 0 raises ``NotMixingError`` for oscillation, and a zero
    point of multiplicity above 1 or a growing mode for a spectrum reaching
    the imaginary axis.  gamma is the least -Re lambda over the eigenvalues
    off the axis, |Re lambda| > ``PERIODIC_ATOL``.

    One ``_semigroup`` dict holds the maps of ``t_grid`` and of t = 1, and
    every check reads T_t - P, with P the fixed projection of rho_pi
    (``_fixed_projection``), block-diagonal on the generator's invariant
    blocks like T_t.  At t = 1 the growth-bound identity
    rad(T_1 - P) = e^{-gamma} is verified to 1e-8 relative accuracy: P
    removes the eigenvalue 1 of T_1 and keeps every other, as vec(1) is a
    left eigenvector of T_1.  Each grid time gets the upper bracket
    sqrt(dim) |T_t - P|_2, the largest of its blocks' norms.  Only the grid's
    maps are kept and no ascent runs; the lower brackets come from
    ``convergence_envelope`` and ``mixing_eta``.
    """
    rho_pi = stationary_state(gen)
    points = periodic_points(gen)
    if any(abs(im) > PERIODIC_ATOL for im, _ in points):
        raise NotMixingError("not mixing: oscillatory periodic points present")
    re = gen.spectrum.real
    decay = -re[np.abs(re) > PERIODIC_ATOL]
    if [n for _, n in points] != [1] or np.min(decay) <= 0:
        raise NotMixingError("not mixing: spectrum reaches the imaginary axis")
    gamma = float(np.min(decay))
    t_grid = tuple(map(float, t_grid))
    maps = _semigroup(gen, [*t_grid, 1.0])
    proj = _fixed_projection(gen, rho_pi.density)

    def minus_p(t: float) -> list:
        return [m - p for m, p in zip(maps[t], proj)]

    rad = max(float(np.max(np.abs(np.linalg.eigvals(d)))) for d in minus_p(1.0))
    expected = math.exp(-gamma)
    if abs(rad - expected) > 1e-8 * expected:
        raise CorrelationsError(
            f"growth-bound identity violated: rad {rad:.12e} vs exp(omega0) {expected:.12e}")
    scale = math.sqrt(rho_pi.density.shape[0])
    uppers = {t: scale * max(float(np.max(np.linalg.norm(d, 2, axis=(1, 2))))
                             for d in minus_p(t))
              for t in t_grid}
    c = max([1.0, *(upper * math.exp(gamma * t) for t, upper in uppers.items())])
    return FixedPointAnalysis(rho_pi, gamma, c, uppers, {t: maps[t] for t in t_grid}, gen)
