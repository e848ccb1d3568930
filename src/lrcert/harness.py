"""Configuration-driven experiment runner.

A single JSON config names the space, decay profile, interaction, observables,
grids, and theorem selection using small string descriptors (documented in the
README).  Runs are deterministic in (config, seed): reports are sorted before
emission and serialized with fixed float formatting, so identical inputs give
byte-identical outputs.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from . import bounds, correlations, decay, dynamics, geometry, model, qalgebra
from .bounds import SLACK_RTOL, BoundReport, BoundsError, ModelConstants
from .correlations import StateFunctional
from .decay import FFunction
from .geometry import FiniteMetricSpace, GeometryError
from .model import DissipativeInteraction, LindbladTerm, Superoperator
from .qalgebra import ObservableOp, ObservationMap, commutator_map, embed, from_matrix

LRB_GROUP = ("finite_range_lrb", "full_lrb", "strong_lrb", "composite_lrb",
             "power_law_lrb")
TRUNCATION_GROUP = ("range_truncation",)
LOCAL_GROUP = ("surface_sum", "local_approx", "local_approx_power_law")
CORRELATION_GROUP = ("dynamic_correlation", "correlation_general",
                     "correlation_power_law")
FIXED_POINT_GROUP = ("fixed_point_correlation", "fixed_point_exponential",
                     "fixed_point_power_law")
STATE_THEOREMS = ("dynamic_correlation", "fixed_point_correlation")  # read cfg.state_desc
ALL_THEOREMS = LRB_GROUP + TRUNCATION_GROUP + LOCAL_GROUP + CORRELATION_GROUP \
    + FIXED_POINT_GROUP

DOMINATION_SUITE = ("finite_range_lrb", "full_lrb", "strong_lrb", "composite_lrb",
                    "range_truncation", "surface_sum", "local_approx",
                    "dynamic_correlation", "correlation_general")

DEFAULT_SWEEP_CEILING = 5
SINGLE_POINT_CEILING = 6


class ConfigError(ValueError):
    def __init__(self, where: str, message: str):
        super().__init__(f"{where}: {message}")
        self.where = where


# -- descriptor parsing -----------------------------------------------------------


def _parse_call(desc: str):
    """Split 'name(arg, arg, key=val)' into (name, positional, keyword)."""
    desc = desc.strip()
    if "(" not in desc:
        return desc, [], {}
    if not desc.endswith(")"):
        raise ValueError(f"malformed descriptor {desc!r}")
    name, _, rest = desc.partition("(")
    args, kwargs = [], {}
    body = rest[:-1].strip()
    depth, token, parts = 0, "", []
    for ch in body:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(token)
            token = ""
        else:
            token += ch
    if token.strip():
        parts.append(token)
    for part in parts:
        part = part.strip()
        if "=" in part and "(" not in part.split("=", 1)[0]:
            key, _, val = part.partition("=")
            kwargs[key.strip()] = val.strip()
        else:
            args.append(part)
    return name.strip(), args, kwargs


def parse_space(desc) -> FiniteMetricSpace:
    if isinstance(desc, Mapping):
        return FiniteMetricSpace.explicit([_site_from_json(p) for p in desc["points"]],
                                          desc["dist"])
    name, args, kwargs = _parse_call(str(desc))
    if name == "chain":
        return FiniteMetricSpace.chain(int(args[0]))
    if name == "grid":
        return FiniteMetricSpace.grid(int(args[0]), int(args[1]),
                                      metric=kwargs.get("metric", "l1"))
    raise ValueError(f"unknown space descriptor {desc!r}")


def parse_f_function(desc) -> FFunction:
    if isinstance(desc, Mapping):
        return FFunction.table(desc["grid"], desc["values"])
    name, args, _ = _parse_call(str(desc))
    if name == "power":
        return FFunction.power(float(args[0]))
    if name == "weighted":
        base = parse_f_function(",".join(args[1:]) if len(args) > 2 else args[1])
        return FFunction.weighted(float(args[0]), base)
    if name == "table":
        data = json.loads(Path(args[0]).read_text())
        return FFunction.table(data["grid"], data["values"])
    raise ValueError(f"unknown profile descriptor {desc!r}")


def _site_from_json(p):
    return tuple(p) if isinstance(p, list) else p


def _matrix_from_json(entries) -> np.ndarray:
    def scalar(v):
        if isinstance(v, (list, tuple)):
            return complex(v[0], v[1])
        return complex(v)
    return np.array([[scalar(v) for v in row] for row in entries], dtype=complex)


def parse_operator(desc, space: FiniteMetricSpace) -> ObservableOp:
    """An operator literal on its own support: 'Z0', 'Z0*X1', or an explicit
    matrix object {'matrix': ..., 'sites': [...]}."""
    if isinstance(desc, Mapping):
        sites = space.ordered([_site_from_json(s) for s in desc["sites"]])
        return from_matrix(_matrix_from_json(desc["matrix"]), sites)
    factors = {}
    for token in str(desc).split("*"):
        token = token.strip()
        letter, idx = token[0].upper(), token[1:]
        if letter not in qalgebra.PAULI or letter == "I":
            raise ValueError(f"unknown operator letter in {token!r}")
        if not idx:
            raise ValueError(f"operator literal {token!r} names no site")
        site = int(idx)
        if site in factors:
            raise ValueError(f"repeated site in {desc!r}")
        factors[site] = qalgebra.PAULI[letter]
    sites = space.ordered(factors)
    m = np.array([[1.0 + 0j]])
    for s in sites:
        m = np.kron(m, factors[s])
    return from_matrix(m, sites)


def parse_interaction(desc, space: FiniteMetricSpace) -> DissipativeInteraction:
    if isinstance(desc, Mapping):
        terms = []
        for i, td in enumerate(desc["terms"]):
            support = frozenset(_site_from_json(s) for s in td["support"])
            ordered = space.ordered(support)
            ham = None
            if td.get("h") is not None:
                op = parse_operator(td["h"], space)
                ham = embed(op, ordered) if frozenset(op.sites) != support else op
            kraus = []
            for kd in td.get("kraus", ()):
                op = parse_operator(kd, space)
                kraus.append(embed(op, ordered) if frozenset(op.sites) != support else op)
            terms.append(LindbladTerm(support, ham, tuple(kraus),
                                      label=td.get("label", f"term{i}")))
        return DissipativeInteraction(space, tuple(terms))
    name, args, _ = _parse_call(str(desc))
    if name == "tfim_dissipative":
        return model.tfim_dissipative(space, float(args[0]), float(args[1]), float(args[2]))
    if name == "long_range_zz":
        return model.long_range_zz(space, float(args[0]), float(args[1]), float(args[2]))
    raise ValueError(f"unknown interaction descriptor {desc!r}")


def _state_form(desc) -> tuple:
    """(form, argument) of a state descriptor, building nothing; ValueError
    for a descriptor ``parse_state`` cannot read."""
    if isinstance(desc, Mapping):
        for form in ("product", "density"):
            if form in desc:
                return form, desc[form]
        raise ValueError(f"unknown state object {desc!r}")
    name, args, _ = _parse_call(str(desc))
    if name == "product":
        label = args[0] if args else "0"
        if label not in correlations.SINGLE_SITE_DENSITIES:
            raise ValueError(f"unknown single-site state {label!r} in {desc!r}")
        return name, label
    if name in ("maximally_mixed", "stationary"):
        return name, None
    raise ValueError(f"unknown state descriptor {desc!r}")


def parse_state(desc, sites: tuple, dims) -> Optional[StateFunctional]:
    """None signals the stationary state, resolved against the model at run time."""
    form, arg = _state_form(desc)
    if form == "stationary":
        return None
    if form == "maximally_mixed":
        return StateFunctional.maximally_mixed(sites, dims)
    if form == "density":
        return StateFunctional(_matrix_from_json(arg), sites,
                               qalgebra._resolve_dims(sites, dims))
    if isinstance(arg, Mapping):
        arg = {_site_from_json_key(k): v for k, v in arg.items()}
    return StateFunctional.product(sites, arg, dims)


def _site_from_json_key(k):
    try:
        return int(k)
    except (TypeError, ValueError):
        return k


# -- configuration ----------------------------------------------------------------


@dataclass
class ExperimentConfig:
    """A validated experiment description plus the raw JSON it came from."""

    space: FiniteMetricSpace
    f: FFunction
    nu: float
    interaction: DissipativeInteraction
    a_local: ObservableOp
    b_local: ObservableOp
    x_sites: frozenset
    y_sites: frozenset
    k_descriptor: object
    t_grid: tuple
    big_r_grid: tuple
    r_grid: tuple
    theorems: tuple
    eps: float
    delta: float
    eta_exp: float
    a_weight: float
    state_desc: object
    seed: int
    raw: dict = field(repr=False)

    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True).encode()).hexdigest()


def load_config(path) -> ExperimentConfig:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError("file", f"parse error: {exc}") from exc
    return config_from_dict(raw)


def config_from_dict(raw: Mapping) -> ExperimentConfig:
    def section(where, fn, *args):
        try:
            return fn(*args)
        except (KeyError, ValueError, IndexError, GeometryError) as exc:
            raise ConfigError(where, str(exc)) from exc

    space = section("space", parse_space, raw.get("space", "chain(4)"))
    f = section("f_function", parse_f_function, raw.get("f_function", "power(3)"))
    nu = float(raw.get("nu", 1.0))
    interaction = section("interaction", parse_interaction,
                          raw.get("interaction", "tfim_dissipative(0.5,0.5,1.0)"),
                          space)
    obs = raw.get("observables", {})
    a_local = section("observables.a", parse_operator, obs.get("a", "Z0"), space)
    b_desc = obs.get("b")
    b_local = section("observables.b", parse_operator, b_desc, space) \
        if b_desc is not None else None
    theorems = tuple(raw.get("theorems", []))
    unknown = [t for t in theorems if t not in ALL_THEOREMS]
    if unknown:
        raise ConfigError("theorems", f"unknown theorem tags {unknown}")
    grids = raw.get("grids", {})
    t_grid = tuple(float(t) for t in grids.get("t", [0.0, 0.25, 0.5]))
    big_r_grid = tuple(float(x) for x in grids.get("R", [1.0, 2.0]))
    r_grid = tuple(float(x) for x in grids.get("r", [1.0]))
    for name, g in (("grids.t", t_grid), ("grids.R", big_r_grid), ("grids.r", r_grid)):
        if not g:
            raise ConfigError(name, "grid must be nonempty")
    if "seed" not in raw:
        raise ConfigError("seed", "seed is mandatory")
    poly = raw.get("poly", {})
    needs_b = set(theorems) & (set(LRB_GROUP) | set(CORRELATION_GROUP)
                               | set(FIXED_POINT_GROUP))
    if needs_b and b_local is None:
        raise ConfigError("observables.b", "selected theorems need a second observable")
    x_sites = frozenset(a_local.sites)
    y_sites = frozenset(b_local.sites) if b_local is not None else frozenset()
    if needs_b and x_sites & y_sites:
        raise ConfigError("observables", "observable supports must be disjoint")
    cfg = ExperimentConfig(
        space=space, f=f, nu=nu, interaction=interaction,
        a_local=a_local, b_local=b_local,
        x_sites=x_sites, y_sites=y_sites,
        k_descriptor=raw.get("k_map", "commutator"),
        t_grid=t_grid, big_r_grid=big_r_grid, r_grid=r_grid,
        theorems=theorems,
        eps=float(poly.get("epsilon", 0.5)),
        delta=float(poly.get("delta", 0.3)),
        eta_exp=float(poly.get("eta_exp", 0.02)),
        a_weight=float(poly.get("a_weight", 1.0)),
        state_desc=raw.get("state", "product(+)"),
        seed=int(raw["seed"]),
        raw=dict(raw),
    )
    if len(space) > SINGLE_POINT_CEILING:
        raise ConfigError("space", f"volume exceeds the {SINGLE_POINT_CEILING}-site ceiling")
    check_state(cfg)
    return cfg


def check_state(cfg: ExperimentConfig) -> None:
    """ConfigError unless the state descriptor is readable, whenever a selected
    theorem uses the state; the density itself is built on first use."""
    if set(cfg.theorems) & set(STATE_THEOREMS):
        try:
            _state_form(cfg.state_desc)
        except ValueError as exc:
            raise ConfigError("state", str(exc)) from exc


def serialize_config(cfg: ExperimentConfig) -> dict:
    return dict(cfg.raw)


# -- random models ----------------------------------------------------------------


@dataclass(frozen=True)
class RandomModel:
    space: FiniteMetricSpace
    f: FFunction
    interaction: DissipativeInteraction
    a_local: ObservableOp
    b_local: ObservableOp

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(self.space.descriptor.encode())
        h.update(self.f.describe().encode())
        for t in self.interaction.terms:
            h.update(repr(sorted(map(repr, t.support))).encode())
            if t.hamiltonian is not None:
                h.update(np.ascontiguousarray(t.hamiltonian.matrix).tobytes())
            for k in t.kraus:
                h.update(np.ascontiguousarray(k.matrix).tobytes())
        return h.hexdigest()


def random_model(seed: int, n_sites: int = 4, alpha: float = 3.0,
                 ceiling: int = DEFAULT_SWEEP_CEILING) -> RandomModel:
    """Seed-deterministic chain model: on-site fields and amplitude damping,
    plus two-site couplings with amplitudes tapered by the decay profile."""
    if n_sites > ceiling:
        raise ValueError(f"n_sites {n_sites} over the ceiling {ceiling}")
    rng = np.random.default_rng(seed)
    space = FiniteMetricSpace.chain(n_sites)
    f = FFunction.power(alpha)
    paulis = [qalgebra.PAULI[l] for l in ("X", "Y", "Z")]
    terms = []
    for s in space.points:
        coeffs = rng.uniform(0.1, 0.4, size=3)
        ham = from_matrix(sum(c * p for c, p in zip(coeffs, paulis)), (s,),
                          frozenset([s]))
        gamma = rng.uniform(0.5, 1.5)
        kraus = (from_matrix(math.sqrt(gamma) * model.LOWERING, (s,), frozenset([s])),)
        terms.append(LindbladTerm(frozenset([s]), ham, kraus, label=f"site{s}"))
    for i, x in enumerate(space.points):
        for y in space.points[i + 1:]:
            amp = rng.uniform(0.3, 0.8) * float(f(space.d(x, y)))
            kind = rng.integers(0, 3)
            basis = [np.kron(p, p) for p in paulis]
            ham = from_matrix(amp * basis[kind], space.ordered([x, y]),
                              frozenset([x, y]))
            terms.append(LindbladTerm(frozenset([x, y]), ham, (), label=f"pair{x}{y}"))
    interaction = DissipativeInteraction(space, tuple(terms))
    a_local = qalgebra.site_operator("Z", space.points[0])
    b_local = qalgebra.site_operator("Z", space.points[-1])
    return RandomModel(space, f, interaction, a_local, b_local)


# -- the runner -------------------------------------------------------------------


@dataclass
class RunManifest:
    config_hash: str
    versions: dict
    wall_time_s: float
    tallies: dict
    worst_slack: dict
    tightest: dict  # per theorem, max lhs/rhs over valid rows with rhs > 0

    def to_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "versions": self.versions,
            "wall_time_s": self.wall_time_s,
            "tallies": self.tallies,
            "worst_slack": self.worst_slack,
            "tightest": self.tightest,
        }


class NumericalFailure(RuntimeError):
    """A theorem check that failed numerically, naming the grid point."""

    def __init__(self, theorem: str, point: dict, cause: Exception):
        where = ", ".join(f"{axis}={point.get(axis)}" for axis in ("t", "R", "r"))
        super().__init__(f"{theorem} at {where}: {cause}")
        self.theorem = theorem
        self.point = dict(point)


class ExperimentRunner:
    """Executes the selected theorem checks for one config."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.space = cfg.space
        self.volume = self.space.points
        self.consts = ModelConstants.from_model(cfg.space, cfg.f, cfg.interaction, cfg.nu)
        self.a = embed(cfg.a_local, self.volume)
        self.b = embed(cfg.b_local, self.volume) if cfg.b_local is not None else None
        self.k_map = self._build_k_map()
        self._dynamics = None
        self._dense = None
        self._k_lhs: dict = {}
        self._defects: dict = {}
        self._point: dict = {}
        self._analysis = None
        self._state = None

    # dynamics -------------------------------------------------------------------

    @property
    def dynamics(self) -> dynamics.Dynamics:
        """The propagation layer every left-hand side goes through."""
        if self._dynamics is None:
            self._dynamics = dynamics.Dynamics(self.cfg.interaction, self.volume,
                                               dims=self.a.dims)
        return self._dynamics

    def dense_generator(self) -> Superoperator:
        """The full generator as a dense matrix, for the fixed-point suite and
        the stationary state, which consume the whole map."""
        if self._dense is None:
            self._dense = model.generator(self.cfg.interaction, self.volume)
        return self._dense

    def _build_k_map(self) -> Optional[ObservationMap]:
        desc = self.cfg.k_descriptor
        if self.b is None:
            return None
        if isinstance(desc, str) and _parse_call(desc)[0] == "commutator":
            _, args, _ = _parse_call(desc)
            target = self.b if not args else embed(
                parse_operator(args[0], self.space), self.volume)
            return commutator_map(target, probe_seed=self.cfg.seed)
        if isinstance(desc, Mapping):
            return qalgebra.general_map(
                _matrix_from_json(desc["matrix"]), self.volume,
                frozenset(_site_from_json(s) for s in desc["support"]),
                cb_upper=desc.get("cb_upper"), cb_lower=desc.get("cb_lower"),
                probe_seed=self.cfg.seed)
        raise ConfigError("k_map", f"unknown observation-map descriptor {desc!r}")

    def state(self) -> StateFunctional:
        if self._state is None:
            parsed = parse_state(self.cfg.state_desc, self.volume, None)
            if parsed is None:
                parsed = correlations.stationary_state(self.dense_generator())
            self._state = parsed
        return self._state

    def analysis(self) -> correlations.FixedPointAnalysis:
        if self._analysis is None:
            grid = [t for t in self.cfg.t_grid if t > 0] or [1.0]
            self._analysis = correlations.analyze_fixed_point(
                self.dense_generator(), self.cfg.t_grid, eta_grid=grid[-1:],
                n_starts=8, seed=self.cfg.seed)
        return self._analysis

    # per-theorem executors ----------------------------------------------------------

    def run(self) -> list:
        """Every selected check; a numerical failure is re-raised as a
        ``NumericalFailure`` naming the theorem and its grid point."""
        reports = []
        for theorem in self.cfg.theorems:
            self._point = {}
            try:
                reports.extend(getattr(self, f"_run_{theorem}")())
            except (ValueError, ArithmeticError) as exc:
                raise NumericalFailure(theorem, self._point, exc) from exc
        return sort_reports(reports)

    def _grid(self, *axes: str):
        """The product of the named grids ("t", "R", "r"), recording each
        point as the one in progress."""
        grids = {"t": self.cfg.t_grid, "R": self.cfg.big_r_grid, "r": self.cfg.r_grid}
        for values in itertools.product(*(grids[axis] for axis in axes)):
            self._point = dict(zip(axes, values))
            yield values

    def _lhs_k(self, t: float, R: Optional[float] = None) -> float:
        """opnorm of K on the evolved A; ``R`` selects the range-R dynamics."""
        key = (t, R)
        if key not in self._k_lhs:
            mode = "full" if R is None else "truncated"
            evolved = self.dynamics.evolve(t, self.a, mode, R=R)
            self._k_lhs[key] = qalgebra.op_norm(qalgebra.apply_map(self.k_map, evolved))
        return self._k_lhs[key]

    def _local_error(self, t: float, r: float) -> float:
        region = geometry.inflate(self.space, self.cfg.x_sites, r)
        return self.dynamics.local_error(t, self.a, region)

    def _c_ab(self, r: float, t: float) -> float:
        """The localization defect, computed once per (r, t) and shared by
        every correlation theorem."""
        if (r, t) not in self._defects:
            self._defects[(r, t)] = correlations.c_ab(
                self.cfg.interaction, self.volume, self.cfg.x_sites, self.cfg.y_sites,
                r, t, self.a, self.b, dynamics=self.dynamics)
        return self._defects[(r, t)]

    def _run_finite_range_lrb(self) -> list:
        c, cfg = self.consts, self.cfg
        d = geometry.set_distance(self.space, cfg.x_sites, cfg.y_sites)
        out = []
        for t, R in self._grid("t", "R"):
            rhs = bounds.rhs_finite_range_lrb(c, self.k_map.cb_upper, self.a.norm(),
                                              cfg.x_sites, cfg.y_sites, t, R)
            out.append(BoundReport("finite_range_lrb", {"t": t, "R": R, "r": None, "d": d},
                                   self._lhs_k(t, R), rhs))
        return out

    def _run_full_lrb(self) -> list:
        c, cfg = self.consts, self.cfg
        d = geometry.set_distance(self.space, cfg.x_sites, cfg.y_sites)
        out = []
        for t, in self._grid("t"):
            rhs = bounds.rhs_full_lrb(c, self.k_map.cb_upper, self.a.norm(),
                                      cfg.x_sites, cfg.y_sites, t)
            out.append(BoundReport("full_lrb", {"t": t, "R": None, "r": None, "d": d},
                                   self._lhs_k(t), rhs))
        return out

    def _run_strong_lrb(self) -> list:
        c, cfg = self.consts, self.cfg
        d = geometry.set_distance(self.space, cfg.x_sites, cfg.y_sites)
        out = []
        for t, in self._grid("t"):
            params = {"t": t, "R": None, "r": None, "d": d}
            if c.r0 <= 0:
                out.append(BoundReport("strong_lrb", params, float("nan"), float("nan"),
                                       flags={"finite_range": False}))
                continue
            rhs = bounds.rhs_strong_lrb(c, self.k_map.cb_upper, self.a.norm(),
                                        len(cfg.x_sites), d, t)
            out.append(BoundReport("strong_lrb", params, self._lhs_k(t), rhs))
        return out

    def _run_composite_lrb(self) -> list:
        c, cfg = self.consts, self.cfg
        d = geometry.set_distance(self.space, cfg.x_sites, cfg.y_sites)
        out = []
        for t, R, r in self._grid("t", "R", "r"):
            rhs = bounds.rhs_composite_lrb(
                c, self.k_map.cb_upper, self.a.norm(), cfg.x_sites, cfg.y_sites,
                self.volume, t, r, R, first_term="exact", exact_first=self._lhs_k(t, R))
            out.append(BoundReport("composite_lrb", {"t": t, "R": R, "r": r, "d": d},
                                   self._lhs_k(t), rhs))
        return out

    def _run_power_law_lrb(self) -> list:
        c, cfg = self.consts, self.cfg
        d = geometry.set_distance(self.space, cfg.x_sites, cfg.y_sites)
        out = []
        for t, in self._grid("t"):
            wv = bounds.rhs_power_law_lrb(c, self.k_map.cb_upper, self.a.norm(),
                                          len(cfg.x_sites), d, t, cfg.eps, cfg.delta)
            lhs = self._lhs_k(t) if wv.valid else float("nan")
            out.append(BoundReport("power_law_lrb",
                                   {"t": t, "R": None, "r": None, "d": d,
                                    "eps": cfg.eps, "delta": cfg.delta},
                                   lhs, wv.value, flags=wv.flags))
        return out

    def _run_range_truncation(self) -> list:
        c, cfg = self.consts, self.cfg
        out = []
        for t, R, r in self._grid("t", "R", "r"):
            lhs = self.dynamics.truncation_error(t, self.a, R)
            rhs = bounds.rhs_range_truncation(c, self.a.norm(), cfg.x_sites,
                                              self.volume, t, r, R)
            out.append(BoundReport("range_truncation", {"t": t, "R": R, "r": r, "d": None},
                                   lhs, rhs))
        return out

    def _run_surface_sum(self) -> list:
        out = []
        for r, in self._grid("r"):
            for x in sorted(self.cfg.x_sites, key=repr):
                out.append(bounds.surface_sum_check(self.consts, self.volume,
                                                    self.cfg.x_sites, r, x))
        return out

    def _run_local_approx(self) -> list:
        c, cfg = self.consts, self.cfg
        out = []
        for t, r in self._grid("t", "r"):
            wv = bounds.rhs_local_approx(c, self.a.norm(), cfg.x_sites, self.volume, t, r)
            out.append(BoundReport("local_approx", {"t": t, "R": None, "r": r, "d": None},
                                   self._local_error(t, r), wv.value, flags=wv.flags))
        return out

    def _run_local_approx_power_law(self) -> list:
        c, cfg = self.consts, self.cfg
        out = []
        for t, r in self._grid("t", "r"):
            wv = bounds.rhs_local_approx_power_law(c, self.a.norm(), len(cfg.x_sites),
                                                   r, t, cfg.eps, cfg.delta)
            lhs = self._local_error(t, r) if wv.valid else float("nan")
            out.append(BoundReport("local_approx_power_law",
                                   {"t": t, "R": None, "r": r, "d": None,
                                    "eps": cfg.eps, "delta": cfg.delta},
                                   lhs, wv.value, flags=wv.flags))
        return out

    def _run_dynamic_correlation(self) -> list:
        cfg = self.cfg
        out = []
        for t, r in self._grid("t", "r"):
            out.append(correlations.check_dynamic_correlation(
                self.state(), cfg.interaction, self.volume, cfg.x_sites, cfg.y_sites,
                r, t, self.a, self.b, dynamics=self.dynamics, defect=self._c_ab(r, t)))
        return out

    def _run_correlation_general(self) -> list:
        c, cfg = self.consts, self.cfg
        out = []
        for t, r in self._grid("t", "r"):
            wv = bounds.rhs_correlation_general(c, self.a.norm(), self.b.norm(),
                                                cfg.x_sites, cfg.y_sites, self.volume, t, r)
            out.append(BoundReport("correlation_general",
                                   {"t": t, "R": None, "r": r, "d": None},
                                   self._c_ab(r, t), wv.value, flags=wv.flags))
        return out

    def _run_correlation_power_law(self) -> list:
        c, cfg = self.consts, self.cfg
        out = []
        for t, r in self._grid("t", "r"):
            wv = bounds.rhs_correlation_power_law(
                c, self.a.norm(), self.b.norm(), len(cfg.x_sites),
                len(cfg.y_sites), r, t, cfg.eps, cfg.delta)
            lhs = self._c_ab(r, t) if wv.valid else float("nan")
            out.append(BoundReport("correlation_power_law",
                                   {"t": t, "R": None, "r": r, "d": None,
                                    "eps": cfg.eps, "delta": cfg.delta},
                                   lhs, wv.value, flags=wv.flags))
        return out

    def _run_fixed_point_correlation(self) -> list:
        analysis = self.analysis()
        omega = self.state()
        g = analysis.governance()
        out = []
        for t, in self._grid("t"):
            out.append(correlations.check_fixed_point_correlation(
                analysis.rho_pi, self.dense_generator(), self.a, self.b, t, omega, g))
        return out

    def _run_fixed_point_exponential(self) -> list:
        cfg = self.cfg
        d = geometry.set_distance(self.space, cfg.x_sites, cfg.y_sites)
        analysis = self.analysis()
        lhs = abs(analysis.rho_pi.expect(self.a @ self.b)
                  - analysis.rho_pi.expect(self.a) * analysis.rho_pi.expect(self.b))
        params = {"t": None, "R": None, "r": None, "d": d, "a": cfg.a_weight}
        try:
            weighted = FFunction.weighted(cfg.a_weight, cfg.f)
            c_a = ModelConstants.from_model(self.space, weighted, cfg.interaction, cfg.nu)
            rhs = bounds.rhs_fixed_point_exponential(
                c_a, self.consts.fnorm, self.a.norm(), self.b.norm(),
                len(cfg.x_sites), len(cfg.y_sites), d, analysis.governance())
        except BoundsError as exc:
            return [BoundReport("fixed_point_exponential", params, lhs, float("nan"),
                                flags={"hypothesis": False})]
        return [BoundReport("fixed_point_exponential", params, lhs, rhs)]

    def _run_fixed_point_power_law(self) -> list:
        cfg = self.cfg
        d = geometry.set_distance(self.space, cfg.x_sites, cfg.y_sites)
        analysis = self.analysis()
        lhs = abs(analysis.rho_pi.expect(self.a @ self.b)
                  - analysis.rho_pi.expect(self.a) * analysis.rho_pi.expect(self.b))
        params = {"t": None, "R": None, "r": None, "d": d,
                  "eps": cfg.eps, "delta": cfg.delta, "eta_exp": cfg.eta_exp}
        try:
            rhs = bounds.rhs_fixed_point_power_law(
                self.consts, self.a.norm(), self.b.norm(), len(cfg.x_sites),
                len(cfg.y_sites), d, cfg.eps, cfg.delta, cfg.eta_exp,
                analysis.governance())
        except BoundsError:
            return [BoundReport("fixed_point_power_law", params, lhs, float("nan"),
                                flags={"hypothesis": False})]
        return [BoundReport("fixed_point_power_law", params, lhs, rhs)]


# -- emission ----------------------------------------------------------------------


def sort_reports(reports: Iterable[BoundReport]) -> list:
    def key(rep: BoundReport):
        p = rep.params
        def num(v):
            return float("-inf") if v is None else float(v)
        return (rep.theorem, num(p.get("t")), num(p.get("R")), num(p.get("r")),
                str(p.get("x", "")))
    return sorted(reports, key=key)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def reports_to_csv(reports: Sequence[BoundReport], tolerance: float = SLACK_RTOL) -> str:
    lines = ["theorem,t,R,r,d,lhs,rhs,slack,valid,pass"]
    for rep in reports:
        p = rep.params
        slack = rep.slack if not math.isnan(rep.rhs) else float("nan")
        lines.append(",".join([
            rep.theorem, _fmt(p.get("t")), _fmt(p.get("R")), _fmt(p.get("r")),
            _fmt(p.get("d")), _fmt(rep.lhs), _fmt(rep.rhs), _fmt(slack),
            str(rep.valid).lower(), str(rep.passes(tolerance)).lower()]))
    return "\n".join(lines) + "\n"


def _json_safe(x):
    if isinstance(x, float) and (math.isnan(x) or math.isinf(x)):
        return None
    return x


def reports_to_json(reports: Sequence[BoundReport], tolerance: float = SLACK_RTOL) -> str:
    payload = []
    for rep in reports:
        payload.append({
            "theorem": rep.theorem,
            "params": {k: _json_safe(v) for k, v in rep.params.items()},
            "lhs": _json_safe(rep.lhs),
            "rhs": _json_safe(rep.rhs),
            "slack": _json_safe(rep.slack),
            "valid": rep.valid,
            "pass": rep.passes(tolerance),
            "flags": dict(rep.flags),
        })
    return json.dumps({"reports": payload}, indent=2, sort_keys=True) + "\n"


def build_manifest(cfg: ExperimentConfig, reports: Sequence[BoundReport],
                   wall_time_s: float, tolerance: float = SLACK_RTOL) -> RunManifest:
    import scipy

    from . import __version__

    tallies: dict = {}
    worst: dict = {}
    tightest: dict = {}
    for rep in reports:
        tally = tallies.setdefault(rep.theorem,
                                   {"rows": 0, "passed": 0, "failed": 0, "invalid": 0})
        tally["rows"] += 1
        if not rep.valid:
            tally["invalid"] += 1
        elif rep.passes(tolerance):
            tally["passed"] += 1
        else:
            tally["failed"] += 1
        if rep.valid and not math.isnan(rep.slack):
            worst[rep.theorem] = min(worst.get(rep.theorem, math.inf), rep.slack)
        if rep.valid and rep.rhs > 0 and not math.isnan(rep.lhs):
            tightest[rep.theorem] = max(tightest.get(rep.theorem, -math.inf),
                                        rep.lhs / rep.rhs)
    return RunManifest(
        config_hash=cfg.config_hash(),
        versions={"lrcert": __version__, "numpy": np.__version__,
                  "scipy": scipy.__version__},
        wall_time_s=wall_time_s,
        tallies=tallies,
        worst_slack={k: v for k, v in worst.items()},
        tightest=tightest,
    )


def run_experiment(cfg: ExperimentConfig, out_dir=None, formats=("csv", "json"),
                   tolerance: float = SLACK_RTOL):
    """Execute the configured checks; returns (reports, manifest).  The pass
    column and the tallies use ``BoundReport.passes(tolerance)``."""
    started = time.perf_counter()
    runner = ExperimentRunner(cfg)
    reports = runner.run()
    manifest = build_manifest(cfg, reports, time.perf_counter() - started, tolerance)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if "csv" in formats:
            (out / "reports.csv").write_text(reports_to_csv(reports, tolerance))
        if "json" in formats:
            (out / "reports.json").write_text(reports_to_json(reports, tolerance))
        (out / "manifest.json").write_text(
            json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n")
    return reports, manifest
