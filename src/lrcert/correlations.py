"""States, exact correlation functionals, dynamical fixed points, and mixing.

The fixed-point analysis certifies brackets, not exact values.  A trace-norm
supremum sup_rho |T(rho) - rho_pi|_1 is bounded above by sqrt(dim) times the
spectral norm of the vectorized map difference, and below by its value at an
explicit pure state: the objective is convex, so pure states attain the
supremum, and a linearisation ascent from basis and seeded starts moves each
start to the top eigenvector of T^dagger(sign(T(psi psi^*) - rho_pi)), a
step that cannot decrease the objective.  The reported lower value is the
exact trace norm recomputed at the best state found, so it is attained, not
estimated.  Each generator's spectrum is decomposed once
(``Superoperator.spectrum``) and shared by the gap, the growth-bound check
and the periodic points.  An analysis builds the dense Schroedinger-picture
maps exp(tL) of all its times as one dict (``_semigroup``), in ascending
order, so a time that is the sum of two earlier ones is composed from their
maps by the semigroup law rather than exponentiated; the envelope, the
mixing brackets and the growth-bound check read that dict, and each
distinct time gets one upper bracket.  ``analyze_fixed_point`` computes the
upper brackets only; the lower brackets, which need the ascent and which no
report reads, are built when first read, from the same maps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np

from . import geometry
from .bounds import BoundReport
from .dynamics import Dynamics
from .geometry import Site
from .model import Superoperator
from .qalgebra import (
    ObservableOp,
    _resolve_dims,
    devectorize,
    identity,
    op_norm,
)

PSD_ATOL = 1e-12
TRACE_ATOL = 1e-12
NULL_RTOL = 1e-10
RANK_GAP_RATIO = 1e3
PERIODIC_ATOL = 1e-9
ASCENT_RTOL = 1e-13     # a start stops once a step gains less than this, relatively
ASCENT_MAX_STEPS = 64   # and after at most this many steps


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


def trivial_governance(nx: float, ny: float, d: float) -> float:
    return 2.0


@dataclass(frozen=True)
class StateFunctional:
    """A state on the observable algebra of a volume, given by a density matrix.

    ``governance``, when present, bounds static correlations:
    |w(AB) - w(A) w(B)| <= |A| |B| governance(|X|, |Y|, d(X, Y)).
    """

    density: np.ndarray
    sites: tuple
    dims: tuple
    kind: str = "explicit"
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
        return cls(rho, sites, dims_t, kind="product", governance=product_governance)

    @classmethod
    def maximally_mixed(cls, sites: Sequence[Site], dims=None) -> "StateFunctional":
        sites = tuple(sites)
        dims_t = _resolve_dims(sites, dims)
        total = int(np.prod(dims_t))
        return cls(np.eye(total, dtype=complex) / total, sites, dims_t,
                   kind="product", governance=product_governance)

    def expect(self, a: ObservableOp) -> complex:
        if tuple(a.sites) != self.sites:
            raise CorrelationsError("observable volume differs from the state volume")
        return complex(np.trace(self.density @ a.matrix))


# -- exact correlation quantities -------------------------------------------------


def correlation(omega: StateFunctional, dynamics: Dynamics, t: float,
                a: ObservableOp, b: ObservableOp) -> complex:
    """w(T_t(AB)) - w(T_t(A)) w(T_t(B)), all three evolutions exact."""
    return (omega.expect(dynamics.evolve(t, a @ b))
            - omega.expect(dynamics.evolve(t, a)) * omega.expect(dynamics.evolve(t, b)))


def c_ab(dynamics: Dynamics, xs: Iterable[Site], ys: Iterable[Site], r: float, t: float,
         a: ObservableOp, b: ObservableOp) -> float:
    """The three-term localization defect that controls dynamic correlations."""
    xs, ys = frozenset(xs), frozenset(ys)
    if not a.support <= xs:
        raise CorrelationsError("first observable not supported in its region")
    if not b.support <= ys:
        raise CorrelationsError("second observable not supported in its region")
    return (op_norm(a) * dynamics.local_error(t, b, ys, r)
            + op_norm(b) * dynamics.local_error(t, a, xs, r)
            + dynamics.local_error(t, a @ b, xs | ys, r))


def check_dynamic_correlation(omega: StateFunctional, dynamics: Dynamics,
                              xs: Iterable[Site], ys: Iterable[Site], r: float, t: float,
                              a: ObservableOp, b: ObservableOp,
                              defect: Optional[float] = None) -> BoundReport:
    """Evolved correlations against governance of the inflated regions plus
    the localization defect.

    The factorization step behind the bound needs 2r strictly below d(X, Y);
    the boundary case 2r = d(X, Y) is evaluated but flagged.  ``defect`` is
    ``c_ab`` at (r, t) when the caller already has it.
    """
    if omega.governance is None:
        raise CorrelationsError("state carries no correlation governance")
    space = dynamics.interaction.space
    xs, ys = frozenset(xs), frozenset(ys)
    d = geometry.set_distance(space, xs, ys)
    flags = {
        "separation_window": d >= 2.0,
        "radius_window": 2.0 * r >= 2.0,
        "factorization_strict": 2.0 * r < d,
    }
    lhs = abs(correlation(omega, dynamics, t, a, b))
    if defect is None:
        defect = c_ab(dynamics, xs, ys, r, t, a, b)
    xr = geometry.inflate(space, xs, r)
    yr = geometry.inflate(space, ys, r)
    gov = float(omega.governance(len(xr), len(yr), geometry.set_distance(space, xr, yr)))
    rhs = op_norm(a) * op_norm(b) * gov + defect
    return BoundReport(
        theorem="dynamic_correlation",
        params={"t": t, "r": r, "R": None, "d": d},
        lhs=lhs, rhs=rhs, flags=flags)


# -- fixed points and spectra ------------------------------------------------------


def stationary_state(gen: Superoperator) -> StateFunctional:
    """The unique density matrix annihilated by the Schroedinger generator.

    Null vectors are singular vectors below ``1e-10 * |L|``; the rank decision
    additionally demands a 1e3 gap ratio to the first retained singular value.
    """
    gen_s = _schrodinger(gen)
    u, s, vh = np.linalg.svd(gen_s.matrix)
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
    rho = devectorize(vh[-1].conj(), gen_s.sites, gen_s.dims).matrix
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho)
    if abs(tr) < 1e-12:
        raise CorrelationsError("null vector is traceless; not a state")
    rho = rho / tr
    vals, vecs = np.linalg.eigh(rho)
    if float(np.min(vals)) < -1e-10:
        raise CorrelationsError(f"fixed point not PSD (min eigenvalue {np.min(vals):.3e})")
    rho = (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T
    rho = rho / np.trace(rho).real
    return StateFunctional(rho, gen_s.sites, gen_s.dims, kind="stationary")


def periodic_points(gen: Superoperator) -> list:
    """Purely imaginary spectrum of the generator: [(imag part, multiplicity)].

    Eigenvalues with |Re| <= 1e-9 count; imaginary parts are clustered at the
    same tolerance.
    """
    eigs = gen.spectrum[0]
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
    """(gamma, omega0) with gamma the least decay rate off the fixed subspace.

    Requires a unique fixed point and no oscillatory periodic points.  The
    growth-bound identity rad(exp(L restricted)) = exp(omega0) is verified at
    t = 1 to 1e-8 relative accuracy.
    """
    return _spectral_gap(gen, _schrodinger(gen).exp(1.0))


def _spectral_gap(gen: Superoperator, prop: np.ndarray) -> tuple:
    """``spectral_gap`` with ``prop`` the Schroedinger map exp(L_s) at t = 1
    (its conjugate transpose is used for a Heisenberg generator)."""
    w, v = gen.spectrum
    zero = np.abs(w) <= PERIODIC_ATOL
    n_zero = int(np.sum(zero))
    if n_zero != 1:
        raise DegenerateFixedPointError(n_zero)
    periodic = (np.abs(w.real) <= PERIODIC_ATOL) & ~zero
    if np.any(periodic):
        raise NotMixingError("not mixing: oscillatory periodic points present")
    gamma = float(np.min(-w.real[~zero]))
    if gamma <= 0:
        raise NotMixingError("not mixing: spectrum reaches the imaginary axis")
    omega0 = -gamma
    proj = np.outer(v[:, zero][:, 0], np.linalg.inv(v)[zero, :][0, :])
    if gen.picture == "heisenberg":
        prop = prop.conj().T
    restricted = prop @ (np.eye(prop.shape[0]) - proj)
    rad = float(np.max(np.abs(np.linalg.eigvals(restricted))))
    expected = math.exp(omega0)
    if abs(rad - expected) > 1e-8 * expected:
        raise CorrelationsError(
            f"growth-bound identity violated: rad {rad:.12e} vs exp(omega0) {expected:.12e}")
    return gamma, omega0


def _schrodinger(gen: Superoperator) -> Superoperator:
    return gen if gen.picture == "schrodinger" else gen.adjoint


def _semigroup(gen: Superoperator, times: Iterable[float]) -> dict:
    """{t: exp(t L_s)} over ``times``, with L_s the Schroedinger generator of
    ``gen``, each map read-only.  The maps are built in ascending order, and a
    time that equals the sum of two earlier ones exactly (in floating point)
    is the product of their maps, the semigroup law exp((s + u) L) =
    exp(s L) exp(u L) that is also the squaring step of scaling and squaring
    (Higham, SIAM J. Matrix Anal. Appl. 26, 2005); any other time is
    ``Superoperator.exp``."""
    gen_s = _schrodinger(gen)
    maps: dict = {}
    for t in sorted(set(map(float, times))):
        s = next((u for u in sorted(maps, reverse=True) if t - u in maps and u + (t - u) == t),
                 None)
        if s is None:
            maps[t] = gen_s.exp(t)
        else:
            maps[t] = maps[s] @ maps[t - s]
            maps[t].flags.writeable = False
    return maps


def _upper_brackets(maps: dict, rho_pi: StateFunctional, times: Iterable[float]) -> dict:
    """{t: sqrt(dim) |T_t - P|_2} over ``times``, each bounding
    sup_rho |T_t(rho) - rho_pi|_1 from above."""
    proj = _fixed_projector_matrix(rho_pi.density)
    scale = math.sqrt(rho_pi.density.shape[0])
    return {t: scale * op_norm(maps[t] - proj) for t in set(times)}


def _fixed_projector_matrix(rho_pi: np.ndarray) -> np.ndarray:
    dim = rho_pi.shape[0]
    return np.outer(rho_pi.flatten(order="F"),
                    np.eye(dim, dtype=complex).flatten(order="F"))


def trace_norm(m: np.ndarray) -> float:
    h = 0.5 * (m + m.conj().T)
    if np.linalg.norm(m - h) <= 1e-12 * max(1.0, np.linalg.norm(m)):
        return float(np.sum(np.abs(np.linalg.eigvalsh(h))))
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


@dataclass(frozen=True)
class FixedPointAnalysis:
    """Certified convergence data for a mixing model.

    ``gap``, ``envelope_c`` and the upper brackets are computed when the
    analysis is built.  ``samples`` and ``eta_samples`` carry the lower
    brackets too, which need the pure-state ascent; they are built on first
    read, from the dense maps rebuilt over the analysis' own times, so they
    equal what an eager computation gives bit for bit, and every thread that
    fills them stores the same values.
    """

    rho_pi: StateFunctional
    gap: float
    growth_bound: float
    envelope_c: float
    periodic_spectrum: tuple
    # what the lower brackets are built from: the generator, the (t, upper)
    # pairs of the two grids, and the ascent's (n_starts, seed)
    _gen: Superoperator = field(repr=False, compare=False)
    _uppers: tuple = field(repr=False, compare=False)
    _eta_uppers: tuple = field(repr=False, compare=False)
    _ascent: tuple = field(repr=False, compare=False)

    @property
    def samples(self) -> tuple:
        """(t, lower, upper) brackets of |T_t' - P'| in 1->1 norm."""
        return self._brackets[0]

    @property
    def eta_samples(self) -> tuple:
        """(t, lower, upper) brackets of the mixing coefficient."""
        return self._brackets[1]

    @cached_property
    def _brackets(self) -> tuple:
        """(samples, eta_samples), with the maps rebuilt over the same times."""
        n_starts, seed = self._ascent
        maps = _semigroup(self._gen, [t for t, _ in self._uppers + self._eta_uppers] + [1.0])
        samples = tuple((t, _lower_bracket(maps[t], self.rho_pi, n_starts, seed), upper)
                        for t, upper in self._uppers)
        eta_samples = tuple(
            (t, 0.5 * _lower_bracket(maps[t], self.rho_pi, max(n_starts, 16), seed), upper)
            for t, upper in self._eta_uppers)
        return samples, eta_samples

    def governance(self) -> Callable[[float], float]:
        """g(t) = min(2, c e^{-gamma t}), valid whenever the envelope holds."""
        c, gamma = self.envelope_c, self.gap
        return lambda t: min(2.0, c * math.exp(-gamma * t))


def _envelope_c(uppers: dict, t_grid: Sequence[float], gamma: float) -> float:
    """The least c >= 1 with ``upper <= c * exp(-gamma t)`` on the grid."""
    return max([1.0, *(uppers[t] * math.exp(gamma * t) for t in t_grid)])


def _lower_bracket(prop: np.ndarray, rho_pi: StateFunctional, n_starts: int,
                   seed: int) -> float:
    """|T(psi psi^*) - rho_pi|_1 at the best pure state the ascent finds,
    with ``prop`` the Schroedinger map T."""
    return _multistart_state_distance(prop, rho_pi.density, n_starts, seed)[0]


def convergence_envelope(gen: Superoperator, rho_pi: StateFunctional,
                         t_grid: Sequence[float], n_starts: int = 16,
                         seed: int = 11) -> tuple:
    """Per-time brackets of the state-picture distance to the fixed projection.

    Returns ``(c, gamma, samples)`` where samples are (t, lower, upper) and
    ``upper <= c * exp(-gamma t)`` holds on the grid by construction of c.
    """
    t_grid = tuple(map(float, t_grid))
    maps = _semigroup(gen, [*t_grid, 1.0])
    gamma, _ = _spectral_gap(gen, maps[1.0])
    uppers = _upper_brackets(maps, rho_pi, t_grid)
    samples = tuple((t, _lower_bracket(maps[t], rho_pi, n_starts, seed), uppers[t])
                    for t in t_grid)
    return _envelope_c(uppers, t_grid, gamma), gamma, samples


def mixing_eta(gen: Superoperator, t: float, rho_pi: StateFunctional,
               n_starts: int = 64, seed: int = 23) -> tuple:
    """Bracket (lower, upper) for the mixing coefficient at time t.

    lower: half the trace distance at the best pure initial state that the
    ascent finds (the supremum over density matrices is attained at pure
    states);
    upper: half of sqrt(dim) times the spectral norm of the map difference,
    the envelope's upper bracket at t.
    """
    _require_mixing(gen)
    t = float(t)
    maps = _semigroup(gen, [t])
    return (0.5 * _lower_bracket(maps[t], rho_pi, n_starts, seed),
            0.5 * _upper_brackets(maps, rho_pi, [t])[t])


def _require_mixing(gen: Superoperator):
    pts = periodic_points(gen)
    nonzero = [(lam, m) for lam, m in pts if abs(lam) > PERIODIC_ATOL]
    if nonzero:
        raise NotMixingError(f"oscillatory periodic points present: {nonzero}")
    zero_mult = sum(m for lam, m in pts if abs(lam) <= PERIODIC_ATOL)
    if zero_mult != 1:
        raise DegenerateFixedPointError(zero_mult)


def _multistart_state_distance(prop: np.ndarray, rho_pi: np.ndarray,
                               n_starts: int, seed: int) -> tuple:
    """(value, psi): a lower bound on the max over pure states of
    |T(psi psi^*) - rho_pi|_1 and the unit vector psi that attains it.

    Every start is evaluated, then ascends by the linearisation step until a
    step gains less than ``ASCENT_RTOL`` relatively or ``ASCENT_MAX_STEPS``
    pass; all starts go through each step together.  The value is the exact
    trace norm recomputed at the best state.
    """
    if n_starts < 1:
        raise CorrelationsError("the ascent needs at least one start")
    dim = rho_pi.shape[0]
    rng = np.random.default_rng(seed)
    psi = np.zeros((n_starts, dim), dtype=complex)
    for k in range(n_starts):
        if k < dim:
            psi[k, k] = 1.0
        else:
            x = rng.normal(size=2 * dim)
            psi[k] = x[:dim] + 1j * x[dim:]
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


def analyze_fixed_point(gen: Superoperator, t_grid: Sequence[float],
                        eta_grid: Optional[Sequence[float]] = None,
                        n_starts: int = 16, seed: int = 11) -> FixedPointAnalysis:
    """Stationary state, gap, periodic spectrum, envelope, and mixing brackets.

    The dense maps of every time asked for (``t_grid``, ``eta_grid`` and the
    growth-bound check's t = 1) are built first, as one ``_semigroup`` dict,
    and each distinct grid time gets one upper bracket.  The lower
    brackets of ``samples`` and ``eta_samples`` are built on first read
    (``FixedPointAnalysis``), with ``n_starts`` ascent starts on ``t_grid``
    and at least 16 on ``eta_grid``.
    """
    if n_starts < 1:
        raise CorrelationsError("the ascent needs at least one start")
    rho_pi = stationary_state(gen)
    t_grid = tuple(map(float, t_grid))
    eta_grid = t_grid if eta_grid is None else tuple(map(float, eta_grid))
    maps = _semigroup(gen, [*t_grid, *eta_grid, 1.0])
    gamma, _ = _spectral_gap(gen, maps[1.0])
    uppers = _upper_brackets(maps, rho_pi, [*t_grid, *eta_grid])
    return FixedPointAnalysis(
        rho_pi=rho_pi, gap=gamma, growth_bound=-gamma,
        envelope_c=_envelope_c(uppers, t_grid, gamma),
        periodic_spectrum=tuple(periodic_points(gen)), _gen=gen,
        _uppers=tuple((t, uppers[t]) for t in t_grid),
        _eta_uppers=tuple((t, 0.5 * uppers[t]) for t in eta_grid),
        _ascent=(n_starts, seed))


def check_fixed_point_correlation(pi_state: StateFunctional, dynamics: Dynamics,
                                  a: ObservableOp, b: ObservableOp, t: float,
                                  omega: StateFunctional,
                                  g: Callable[[float], float]) -> BoundReport:
    """Fixed-point clustering through an auxiliary state omega:
    |pi(AB) - pi(A) pi(B)| against |omega(T_t(A B_t))| + 3 |A| |B| g(t),
    where B_t recenters B by its evolved omega-expectation, both evolutions
    by ``dynamics``.
    """
    if a.support & b.support:
        raise CorrelationsError("observables must have disjoint supports")
    lhs = abs(pi_state.expect(a @ b) - pi_state.expect(a) * pi_state.expect(b))
    b_centred = b - complex(omega.expect(dynamics.evolve(t, b))) * identity(b.sites, b.dims)
    first = abs(omega.expect(dynamics.evolve(t, a @ b_centred)))
    rhs = first + 3.0 * op_norm(a) * op_norm(b) * float(g(t))
    return BoundReport(
        theorem="fixed_point_correlation",
        params={"t": t, "r": None, "R": None,
                "d": None},
        lhs=lhs, rhs=rhs)
