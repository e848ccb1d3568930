"""States, exact correlation functionals, dynamical fixed points, and mixing.

The fixed-point analysis certifies brackets, not exact values: trace-norm
suprema are bounded below by multistart pure-state maximization (the
objective is convex, so pure states attain the supremum) and above by
sqrt(dim) times the spectral norm of the vectorized map difference.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

import numpy as np
import scipy.linalg
import scipy.optimize

from . import geometry
from .bounds import BoundReport
from .dynamics import Dynamics, apply_superop, evolve, propagator
from .geometry import Site
from .model import DissipativeInteraction, Superoperator, adjoint_generator
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


def correlation(omega: StateFunctional, gen: Superoperator, t: float,
                a: ObservableOp, b: ObservableOp) -> complex:
    """w(T_t(AB)) - w(T_t(A)) w(T_t(B)), all three evolutions exact."""
    return _connected(omega, evolve(gen, t, a @ b), evolve(gen, t, a), evolve(gen, t, b))


def _connected(omega: StateFunctional, ab_t: ObservableOp, a_t: ObservableOp,
               b_t: ObservableOp) -> complex:
    return omega.expect(ab_t) - omega.expect(a_t) * omega.expect(b_t)


def c_ab(interaction: DissipativeInteraction, volume: Iterable[Site],
         xs: Iterable[Site], ys: Iterable[Site], r: float, t: float,
         a: ObservableOp, b: ObservableOp, dynamics: Optional[Dynamics] = None) -> float:
    """The three-term localization defect that controls dynamic correlations.

    ``dynamics`` is the caller's propagation layer for ``interaction`` on
    ``volume``, so that evolutions are shared; a fresh one is built otherwise.
    """
    space = interaction.space
    xs, ys = frozenset(xs), frozenset(ys)
    if not a.support <= xs:
        raise CorrelationsError("first observable not supported in its region")
    if not b.support <= ys:
        raise CorrelationsError("second observable not supported in its region")
    layer = dynamics if dynamics is not None else Dynamics(interaction, volume, dims=a.dims)

    def defect(op: ObservableOp, region: frozenset) -> float:
        return layer.local_error(t, op, geometry.inflate(space, region, r))

    return op_norm(a) * defect(b, ys) + op_norm(b) * defect(a, xs) + defect(a @ b, xs | ys)


def check_dynamic_correlation(omega: StateFunctional, interaction: DissipativeInteraction,
                              volume: Iterable[Site], xs: Iterable[Site],
                              ys: Iterable[Site], r: float, t: float,
                              a: ObservableOp, b: ObservableOp,
                              dynamics: Optional[Dynamics] = None,
                              defect: Optional[float] = None) -> BoundReport:
    """Evolved correlations against governance of the inflated regions plus
    the localization defect.

    The factorization step behind the bound needs 2r strictly below d(X, Y);
    the boundary case 2r = d(X, Y) is evaluated but flagged.  ``dynamics`` is
    passed on to ``c_ab``; ``defect`` is ``c_ab`` at (r, t) when the caller
    already has it.
    """
    if omega.governance is None:
        raise CorrelationsError("state carries no correlation governance")
    space = interaction.space
    xs, ys = frozenset(xs), frozenset(ys)
    d = geometry.set_distance(space, xs, ys)
    flags = {
        "separation_window": d >= 2.0,
        "radius_window": 2.0 * r >= 2.0,
        "factorization_strict": 2.0 * r < d,
    }
    layer = dynamics if dynamics is not None else Dynamics(interaction, volume, dims=a.dims)
    lhs = abs(_connected(omega, layer.evolve(t, a @ b), layer.evolve(t, a),
                         layer.evolve(t, b)))
    if defect is None:
        defect = c_ab(interaction, volume, xs, ys, r, t, a, b, dynamics=layer)
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
    gen_s = gen if gen.picture == "schrodinger" else adjoint_generator(gen)
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
    eigs = np.linalg.eigvals(gen.matrix)
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
    w, v = np.linalg.eig(gen.matrix)
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
    prop = scipy.linalg.expm(gen.matrix)
    restricted = prop @ (np.eye(prop.shape[0]) - proj)
    rad = float(np.max(np.abs(np.linalg.eigvals(restricted))))
    expected = math.exp(omega0)
    if abs(rad - expected) > 1e-8 * expected:
        raise CorrelationsError(
            f"growth-bound identity violated: rad {rad:.12e} vs exp(omega0) {expected:.12e}")
    return gamma, omega0


def _schrodinger(gen: Superoperator) -> Superoperator:
    return gen if gen.picture == "schrodinger" else adjoint_generator(gen)


def _fixed_projector_matrix(rho_pi: np.ndarray) -> np.ndarray:
    dim = rho_pi.shape[0]
    return np.outer(rho_pi.flatten(order="F"),
                    np.eye(dim, dtype=complex).flatten(order="F"))


def trace_norm(m: np.ndarray) -> float:
    h = 0.5 * (m + m.conj().T)
    if op_norm(m - h) <= 1e-12 * max(1.0, op_norm(m)):
        return float(np.sum(np.abs(np.linalg.eigvalsh(h))))
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


@dataclass(frozen=True)
class FixedPointAnalysis:
    """Certified convergence data for a mixing model."""

    rho_pi: StateFunctional
    gap: float
    growth_bound: float
    envelope_c: float
    samples: tuple      # (t, lower, upper) brackets of |T_t' - P'| in 1->1 norm
    eta_samples: tuple  # (t, lower, upper) brackets of the mixing coefficient
    periodic_spectrum: tuple

    def governance(self) -> Callable[[float], float]:
        """g(t) = min(2, c e^{-gamma t}), valid whenever the envelope holds."""
        c, gamma = self.envelope_c, self.gap
        return lambda t: min(2.0, c * math.exp(-gamma * t))


def convergence_envelope(gen: Superoperator, rho_pi: StateFunctional,
                         t_grid: Sequence[float], n_starts: int = 16,
                         seed: int = 11) -> tuple:
    """Per-time brackets of the state-picture distance to the fixed projection.

    Returns ``(c, gamma, samples)`` where samples are (t, lower, upper) and
    ``upper <= c * exp(-gamma t)`` holds on the grid by construction of c.
    """
    gamma, _ = spectral_gap(gen)
    gen_s = _schrodinger(gen)
    proj = _fixed_projector_matrix(rho_pi.density)
    dim = int(np.prod(gen_s.dims))
    samples = []
    c = 1.0
    for t in t_grid:
        prop = scipy.linalg.expm(t * gen_s.matrix)
        upper = math.sqrt(dim) * op_norm(prop - proj)
        lower = _multistart_state_distance(prop, rho_pi.density, n_starts, seed)
        samples.append((float(t), lower, upper))
        c = max(c, upper * math.exp(gamma * t))
    return c, gamma, tuple(samples)


def mixing_eta(gen: Superoperator, t: float, rho_pi: StateFunctional,
               n_starts: int = 64, seed: int = 23) -> tuple:
    """Bracket (lower, upper) for the mixing coefficient at time t.

    lower: half the best trace distance from multistart pure initial states
    (the supremum over density matrices is attained at pure states);
    upper: half of sqrt(dim) times the spectral norm of the map difference.
    """
    _require_mixing(gen)
    gen_s = _schrodinger(gen)
    prop = scipy.linalg.expm(t * gen_s.matrix)
    proj = _fixed_projector_matrix(rho_pi.density)
    dim = int(np.prod(gen_s.dims))
    upper = 0.5 * math.sqrt(dim) * op_norm(prop - proj)
    lower = 0.5 * _multistart_state_distance(prop, rho_pi.density, n_starts, seed)
    return lower, upper


def _require_mixing(gen: Superoperator):
    pts = periodic_points(gen)
    nonzero = [(lam, m) for lam, m in pts if abs(lam) > PERIODIC_ATOL]
    if nonzero:
        raise NotMixingError(f"oscillatory periodic points present: {nonzero}")
    zero_mult = sum(m for lam, m in pts if abs(lam) <= PERIODIC_ATOL)
    if zero_mult != 1:
        raise DegenerateFixedPointError(zero_mult)


def _multistart_state_distance(prop: np.ndarray, rho_pi: np.ndarray,
                               n_starts: int, seed: int) -> float:
    """max over pure states of |T'(psi) - rho_pi| in trace norm, certified
    from below by multistart Nelder-Mead over a real chart of the sphere."""
    dim = rho_pi.shape[0]

    def objective(x: np.ndarray) -> float:
        psi = x[:dim] + 1j * x[dim:]
        nrm = np.linalg.norm(psi)
        if nrm < 1e-12:
            return 0.0
        psi = psi / nrm
        out = prop @ np.outer(psi, psi.conj()).flatten(order="F")
        return -trace_norm(out.reshape((dim, dim), order="F") - rho_pi)

    rng = np.random.default_rng(seed)
    starts = []
    for k in range(min(dim, n_starts)):
        e = np.zeros(2 * dim)
        e[k] = 1.0
        starts.append(e)
    while len(starts) < n_starts:
        starts.append(rng.normal(size=2 * dim))
    best = 0.0
    for x0 in starts:
        best = max(best, -objective(x0))
        res = scipy.optimize.minimize(objective, x0, method="Nelder-Mead",
                                      options={"maxiter": 200, "fatol": 1e-12,
                                               "xatol": 1e-8})
        best = max(best, -float(res.fun))
    return best


def analyze_fixed_point(gen: Superoperator, t_grid: Sequence[float],
                        eta_grid: Optional[Sequence[float]] = None,
                        n_starts: int = 16, seed: int = 11) -> FixedPointAnalysis:
    """Bundle stationary state, gap, envelope, and mixing brackets."""
    rho_pi = stationary_state(gen)
    c, gamma, samples = convergence_envelope(gen, rho_pi, t_grid, n_starts, seed)
    eta_samples = []
    for t in (eta_grid if eta_grid is not None else t_grid):
        eta_samples.append((float(t), *mixing_eta(gen, t, rho_pi, n_starts=max(n_starts, 16),
                                                  seed=seed)))
    _, omega0 = spectral_gap(gen)
    return FixedPointAnalysis(
        rho_pi=rho_pi, gap=gamma, growth_bound=omega0, envelope_c=c,
        samples=samples, eta_samples=tuple(eta_samples),
        periodic_spectrum=tuple(periodic_points(gen)))


def check_fixed_point_correlation(pi_state: StateFunctional, gen: Superoperator,
                                  a: ObservableOp, b: ObservableOp, t: float,
                                  omega: StateFunctional,
                                  g: Callable[[float], float]) -> BoundReport:
    """Fixed-point clustering through an auxiliary state omega:
    |pi(AB) - pi(A) pi(B)| against |omega(T_t(A B_t))| + 3 |A| |B| g(t),
    where B_t recenters B by its evolved omega-expectation."""
    if a.support & b.support:
        raise CorrelationsError("observables must have disjoint supports")
    prop = propagator(gen if gen.picture == "heisenberg" else adjoint_generator(gen), t)
    lhs = abs(pi_state.expect(a @ b) - pi_state.expect(a) * pi_state.expect(b))
    b_centred = b - complex(omega.expect(apply_superop(prop, b))) * identity(b.sites, b.dims)
    first = abs(omega.expect(apply_superop(prop, a @ b_centred)))
    rhs = first + 3.0 * op_norm(a) * op_norm(b) * float(g(t))
    return BoundReport(
        theorem="fixed_point_correlation",
        params={"t": t, "r": None, "R": None,
                "d": None},
        lhs=lhs, rhs=rhs)
