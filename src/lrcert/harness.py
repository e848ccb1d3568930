"""Configuration-driven experiment runner.

A single JSON config names the space, decay profile, interaction, observables,
grids, and theorem selection using small string descriptors (documented in the
README).  Runs are deterministic in (config, seed): reports are sorted before
emission and serialized with fixed float formatting, so identical inputs give
byte-identical outputs.

``THEOREMS`` is the one table of what the runner certifies and the only place
report rows are built: for each theorem its grid axes, how a grid point's rows
pair the exact left-hand side with the right-hand side ``bounds`` evaluates,
its CLI group, and whether it needs the second observable, reads the state or
its governance, or runs the fixed-point analysis.  ``ExperimentRunner.run`` is a
single loop over it; the CLI groups, the theorem lists and the config checks
are derived from it.  Adding a theorem means adding an entry.

``load_config`` and ``config_from_dict`` refuse unknown fields and descriptors
called with arguments they do not take, check each field and return a frozen
``ExperimentConfig``, which keeps only what it was given: its volume and its
local dimensions are its interaction's, its supports X and Y are its
observables', and its observation map K and its state are built from the
descriptors in ``raw`` on first read.  Whether its theorem selection can run
on it (``check_selection``) is checked once, by the ``ExperimentRunner`` that
runs it, so a caller that narrows the config (``dataclasses.replace``) is
checked on what it runs.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from dataclasses import asdict, dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from . import bounds, correlations, dynamics, geometry, model, qalgebra
from .bounds import BoundReport, BoundsError, ModelConstants
from .correlations import StateFunctional
from .decay import FFunction
from .geometry import FiniteMetricSpace, GeometryError
from .model import DissipativeInteraction, LindbladTerm, Superoperator
from .qalgebra import ObservableOp, ObservationMap, commutator_map, embed, from_matrix

DOMINATION_SUITE = ("finite_range_lrb", "full_lrb", "strong_lrb", "composite_lrb",
                    "range_truncation", "surface_sum", "local_approx",
                    "dynamic_correlation", "correlation_general")

FIELDS = ("space", "f_function", "nu", "interaction", "observables", "k_map", "theorems",
          "grids", "seed", "poly", "state")
POLY_DEFAULTS = {"epsilon": 0.5, "delta": 0.3, "eta_exp": 0.02, "a_weight": 1.0}

DEFAULT_SWEEP_CEILING = 5
SINGLE_POINT_CEILING = 8


class ConfigError(ValueError):
    def __init__(self, where: str, message: str):
        super().__init__(f"{where}: {message}")
        self.where = where


# -- descriptor parsing -----------------------------------------------------------


def _parse_call(desc, kind: str, signatures: Mapping[str, tuple]):
    """Split the ``kind`` descriptor 'name(arg, arg)' into (name, args): its
    name a key of ``signatures``, called with one of the argument counts its
    signature lists.  No descriptor takes a keyword argument."""
    desc = str(desc).strip()
    name, paren, rest = desc.partition("(")
    if paren and not desc.endswith(")"):
        raise ValueError(f"malformed descriptor {desc!r}")
    name = name.strip()
    if name not in signatures:
        raise ValueError(f"unknown {kind} descriptor {desc!r}")
    depth, parts = 0, [""]
    for ch in rest[:-1].strip():
        depth += (ch == "(") - (ch == ")")
        if ch == "," and depth == 0:
            parts.append("")
        else:
            parts[-1] += ch
    if not parts[-1].strip():
        parts.pop()
    args = [part.strip() for part in parts]
    for arg in args:
        key, eq, _ = arg.partition("=")
        if eq and "(" not in key:
            raise ValueError(f"{name} takes no keyword argument {key.strip()!r}")
    if len(args) not in signatures[name]:
        counts = " or ".join(map(str, signatures[name]))
        raise ValueError(f"{name} takes {counts} positional argument(s), got {len(args)}")
    return name, args


def parse_space(desc) -> FiniteMetricSpace:
    """The space a descriptor names, refused over ``SINGLE_POINT_CEILING`` points
    from its point count, before its O(n^3) distance-table check runs."""
    if isinstance(desc, Mapping):
        points = [_site_from_json(p) for p in desc["points"]]
        _within_ceiling(len(points))
        return FiniteMetricSpace.explicit(points, desc["dist"])
    name, args = _parse_call(desc, "space", {"chain": (1,), "grid": (2,)})
    if name == "chain":
        return FiniteMetricSpace.chain(_within_ceiling(int(args[0])))
    nx, ny = int(args[0]), int(args[1])
    _within_ceiling(max(nx, 0) * max(ny, 0))
    return FiniteMetricSpace.grid(nx, ny)


def _within_ceiling(n_points: int) -> int:
    if n_points > SINGLE_POINT_CEILING:
        raise ValueError(f"volume exceeds the {SINGLE_POINT_CEILING}-site ceiling")
    return n_points


def parse_f_function(desc) -> FFunction:
    if isinstance(desc, Mapping):
        return FFunction.table(desc["grid"], desc["values"])
    name, args = _parse_call(desc, "profile", {"power": (1,), "weighted": (2,),
                                               "table": (1,)})
    if name == "power":
        return FFunction.power(float(args[0]))
    if name == "weighted":
        return FFunction.weighted(float(args[0]), parse_f_function(args[1]))
    try:
        text = Path(args[0]).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read the table {args[0]}: {exc}") from exc
    data = json.loads(text)
    return FFunction.table(data["grid"], data["values"])


def _site_from_json(p):
    return tuple(p) if isinstance(p, list) else p


def _matrix_json(m) -> list:
    """A complex matrix as JSON entries [re, im], which ``_matrix_from_json`` reads."""
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


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


def parse_observation_map(desc, space: FiniteMetricSpace, b_local: Optional[ObservableOp],
                          seed: int) -> Optional[ObservationMap]:
    """The map K on its own sites: 'commutator' against the second observable
    (None without one), 'commutator(<operator>)', or an explicit matrix
    {'matrix': ..., 'support': [...]} on its support, like an operator
    literal, with an optional cb bracket 'cb_upper' / 'cb_lower'."""
    if isinstance(desc, Mapping):
        return qalgebra.general_map(
            _matrix_from_json(desc["matrix"]),
            space.ordered([_site_from_json(s) for s in desc["support"]]),
            cb_upper=desc.get("cb_upper"), cb_lower=desc.get("cb_lower"), probe_seed=seed)
    _, args = _parse_call(desc, "observation-map", {"commutator": (0, 1)})
    target = parse_operator(args[0], space) if args else b_local
    return commutator_map(target, probe_seed=seed) if target is not None else None


def parse_interaction(desc, space: FiniteMetricSpace) -> DissipativeInteraction:
    if isinstance(desc, Mapping):
        def on_support(d, support: frozenset) -> ObservableOp:
            op = parse_operator(d, space)
            return op if frozenset(op.sites) == support else embed(op, space.ordered(support))
        terms = []
        for i, td in enumerate(desc["terms"]):
            support = frozenset(_site_from_json(s) for s in td["support"])
            ham = on_support(td["h"], support) if td.get("h") is not None else None
            kraus = tuple(on_support(kd, support) for kd in td.get("kraus", ()))
            terms.append(LindbladTerm(support, ham, kraus, label=td.get("label", f"term{i}")))
        return DissipativeInteraction(space, tuple(terms))
    family = {"tfim_dissipative": model.tfim_dissipative, "long_range_zz": model.long_range_zz}
    name, args = _parse_call(desc, "interaction", dict.fromkeys(family, (3,)))
    return family[name](space, *map(float, args))


def parse_state(desc, sites: tuple, dims: tuple) -> Optional[StateFunctional]:
    """The state a descriptor names on ``sites`` of local dimensions ``dims``;
    None signals the stationary state, resolved against the model at run time."""
    if isinstance(desc, Mapping):
        if "product" in desc:
            arg = desc["product"]
            if isinstance(arg, Mapping):
                arg = {_site_from_json_key(k): _single_site(v, f"at site {k}")
                       for k, v in arg.items()}
            return StateFunctional.product(sites, _single_site(arg, f"in {desc!r}"), dims)
        if "density" in desc:
            return StateFunctional(_matrix_from_json(desc["density"]), sites, dims)
        raise ValueError(f"unknown state object {desc!r}")
    name, args = _parse_call(desc, "state", {"product": (0, 1), "maximally_mixed": (0,),
                                             "stationary": (0,)})
    if name == "product":
        label = _single_site(args[0] if args else "0", f"in {desc!r}")
        return StateFunctional.product(sites, label, dims)
    if name == "maximally_mixed":
        return StateFunctional.maximally_mixed(sites, dims)
    return None


def _single_site(label, where: str):
    """``label`` unless it is a string naming no single-site state."""
    if isinstance(label, str) and label not in correlations.SINGLE_SITE_DENSITIES:
        raise ValueError(f"unknown single-site state {label!r} {where}")
    return label


def _site_from_json_key(k):
    """A product-state key as a site: an integer, or a JSON array read as the
    tuple site ("[0, 0]"), as ``points`` and ``sites`` name it."""
    try:
        return int(k)
    except (TypeError, ValueError):
        return tuple(json.loads(k)) if isinstance(k, str) and k.startswith("[") else k


# -- configuration ----------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """An experiment description with every field checked, plus the raw JSON
    it came from; immutable (narrow it with ``dataclasses.replace``).  Whether
    its theorem selection can run is checked by ``ExperimentRunner``.
    ``space``, ``x_sites`` and ``y_sites`` are read off the interaction and
    the observables, and ``k_map`` and ``state`` are built from ``raw`` on
    first read, so a narrowed config cannot disagree with them: narrowing the
    map or the state means replacing ``raw``.  ``config_hash`` names what the
    config runs, so it reads the fields and those two descriptors."""

    f: FFunction
    nu: float
    interaction: DissipativeInteraction
    a_local: ObservableOp
    b_local: Optional[ObservableOp]
    t_grid: tuple
    big_r_grid: tuple
    r_grid: tuple
    theorems: tuple
    eps: float
    delta: float
    eta_exp: float
    a_weight: float
    seed: int
    raw: dict = field(repr=False)

    @property
    def space(self) -> FiniteMetricSpace:
        return self.interaction.space

    @property
    def x_sites(self) -> frozenset:
        return self.a_local.support

    @property
    def y_sites(self) -> frozenset:
        return self.b_local.support if self.b_local is not None else frozenset()

    @cached_property
    def k_map(self) -> Optional[ObservationMap]:
        """K on its own sites, from the file's descriptor against this config's
        ``b_local``; None for ``commutator`` without a second observable."""
        return parse_observation_map(self.raw.get("k_map", "commutator"), self.space,
                                     self.b_local, self.seed)

    @cached_property
    def state(self) -> Optional[StateFunctional]:
        """The state the file's descriptor names on the volume and its local
        dimensions; None for the stationary state, which the runner resolves
        against the model."""
        return parse_state(self.raw.get("state", "product(+)"), self.space.points,
                           self.interaction.dims)

    def config_hash(self) -> str:
        """SHA-256 of what this config runs: each field by value (the space
        as its points and distances, the interaction as its terms' supports
        and matrices, an observable as its sites and matrix) and the map and
        state descriptors of ``raw``.  A narrowed config hashes as the file
        that states its fields does."""
        space = self.space
        ran = {
            "space": {"points": list(space.points), "dist": space.dist.tolist()},
            "f_function": asdict(self.f),
            "nu": self.nu,
            "interaction": [{"support": list(space.ordered(t.support)),
                             "h": _operator_json(t.hamiltonian),
                             "kraus": [_operator_json(k) for k in t.kraus]}
                            for t in self.interaction.terms],
            "observables": {"a": _operator_json(self.a_local),
                            "b": _operator_json(self.b_local)},
            "k_map": self.raw.get("k_map", "commutator"),
            "state": self.raw.get("state", "product(+)"),
            "theorems": list(self.theorems),
            "grids": {"t": list(self.t_grid), "R": list(self.big_r_grid),
                      "r": list(self.r_grid)},
            "poly": dict(zip(POLY_DEFAULTS, (self.eps, self.delta, self.eta_exp, self.a_weight))),
            "seed": self.seed,
        }
        return hashlib.sha256(json.dumps(ran, sort_keys=True).encode()).hexdigest()


def _operator_json(op: Optional[ObservableOp]) -> Optional[dict]:
    """An operator as its sites and ``_matrix_json`` entries; None stays None."""
    return None if op is None else {"sites": list(op.sites), "matrix": _matrix_json(op.matrix)}


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("file", f"cannot read {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("file", f"parse error: {exc}") from exc
    return config_from_dict(raw)


def config_from_dict(raw: Mapping) -> ExperimentConfig:
    def section(where, fn, *args):
        try:
            return fn(*args)
        except (KeyError, ValueError, TypeError, IndexError, GeometryError) as exc:
            raise ConfigError(where, str(exc)) from exc

    if not isinstance(raw, Mapping):
        raise ConfigError("file", f"the top level must be a JSON object, "
                                  f"not {type(raw).__name__}")
    _object("", raw, FIELDS)
    space = section("space", parse_space, raw.get("space", "chain(4)"))
    f = section("f_function", parse_f_function, raw.get("f_function", "power(3)"))
    nu = section("nu", _positive, raw.get("nu", 1.0))
    interaction = section("interaction", parse_interaction,
                          raw.get("interaction", "tfim_dissipative(0.5,0.5,1.0)"),
                          space)
    obs = _object("observables", raw.get("observables", {}), ("a", "b"))
    a_local = section("observables.a", parse_operator, obs.get("a", "Z0"), space)
    b_desc = obs.get("b")
    b_local = section("observables.b", parse_operator, b_desc, space) \
        if b_desc is not None else None
    theorems = section("theorems", tuple, raw.get("theorems", []))
    unknown = [t for t in theorems if not isinstance(t, str) or t not in THEOREMS]
    if unknown:
        raise ConfigError("theorems", f"unknown theorem tags {unknown}")
    grids = _object("grids", raw.get("grids", {}), ("t", "R", "r"))
    t_grid = section("grids.t", _grid, grids.get("t", [0.0, 0.25, 0.5]))
    big_r_grid = section("grids.R", _grid, grids.get("R", [1.0, 2.0]), True)
    r_grid = section("grids.r", _grid, grids.get("r", [1.0]))
    if "seed" not in raw:
        raise ConfigError("seed", "seed is mandatory")
    seed = section("seed", _seed, raw["seed"])
    poly = _object("poly", raw.get("poly", {}), POLY_DEFAULTS)
    eps, delta, eta_exp, a_weight = (
        section(f"poly.{key}", _finite, poly.get(key, default), key == "a_weight")
        for key, default in POLY_DEFAULTS.items())
    cfg = ExperimentConfig(
        f=f, nu=nu, interaction=interaction, a_local=a_local, b_local=b_local,
        t_grid=t_grid, big_r_grid=big_r_grid, r_grid=r_grid,
        theorems=theorems,
        eps=eps, delta=delta, eta_exp=eta_exp, a_weight=a_weight,
        seed=seed,
        raw=dict(raw),
    )
    section("k_map", getattr, cfg, "k_map")  # built here once, so a bad map fails the load
    return cfg


def _object(where: str, value, keys) -> Mapping:
    """``value``, a JSON object whose keys are among ``keys``: a misspelled
    field is refused by name, not silently left at its default."""
    if not isinstance(value, Mapping):
        raise ConfigError(where, f"expected a JSON object, got {type(value).__name__}")
    for key in value:
        if key not in keys:
            raise ConfigError(f"{where}.{key}".lstrip("."),
                              f"unknown field; expected one of {', '.join(keys)}")
    return value


def _positive(value) -> float:
    x = float(value)
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"must be finite and > 0, got {x}")
    return x


def _finite(value, nonnegative: bool = False) -> float:
    x = float(value)
    if not (math.isfinite(x) and (x >= 0 or not nonnegative)):
        raise ValueError(f"must be finite{' and >= 0' if nonnegative else ''}, got {x}")
    return x


def _seed(value) -> int:
    """A nonnegative integer, the seeds numpy's generators accept."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"must be a nonnegative integer, got {value!r}")
    return value


def _grid(values, positive: bool = False) -> tuple:
    """A nonempty grid of finite values, each > 0 if ``positive``, else >= 0."""
    grid = tuple(float(x) for x in values)
    if not grid:
        raise ValueError("grid must be nonempty")
    rule = "> 0" if positive else ">= 0"
    bad = [x for x in grid if not (math.isfinite(x) and (x > 0 if positive else x >= 0))]
    if bad:
        raise ValueError(f"values must be finite and {rule}, got {bad}")
    return grid


def check_selection(cfg: ExperimentConfig) -> None:
    """ConfigError unless the selected theorems can run on this config: a
    second observable, and an observation map, on supports disjoint from the
    first wherever one is needed, a state that builds on the space wherever
    the state is read and carries correlation governance wherever that is
    read, and at most ``model.MAX_DENSE_DIM`` wherever the fixed-point
    analysis runs (for a ``dense`` theorem or the stationary state).  The map and
    the state are the config's own (``cfg.k_map``, ``cfg.state``), so the
    runner reads the ones checked here.  ``ExperimentRunner`` calls it on the
    theorems it runs."""
    selected = [THEOREMS[name] for name in cfg.theorems]
    if any(spec.needs_b for spec in selected):
        if cfg.b_local is None:
            raise ConfigError("observables.b", "selected theorems need a second observable")
        if cfg.x_sites & cfg.y_sites:
            raise ConfigError("observables", "observable supports must be disjoint")
        if cfg.x_sites & frozenset(cfg.k_map.sites):
            raise ConfigError("k_map", "observation map sites overlap the support of a")
    dense = any(spec.dense for spec in selected)
    governed = any(spec.reads_governance for spec in selected)
    if governed or any(spec.reads_state for spec in selected):
        try:
            state = cfg.state
        except KeyError as exc:
            raise ConfigError("state", f"no entry for {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError("state", str(exc)) from exc
        dense = dense or state is None
    if dense:
        try:
            model._check_dense(cfg.interaction.dims)
        except model.ModelError as exc:
            raise ConfigError("space", str(exc)) from exc
    if governed and (state is None or state.governance is None):
        raise ConfigError("state", "selected theorems read the state's correlation "
                                   "governance, which this state does not carry")


# -- random models ----------------------------------------------------------------


def random_model(seed: int, n_sites: int = 4) -> ExperimentConfig:
    """The random suite's seed-deterministic config on ``chain(n_sites)``: on-site
    fields and amplitude damping, plus two-site couplings with amplitudes
    tapered by the decay profile power(3), written as explicit terms; Z on the
    first and last sites, the domination suite on the R grid 1, 2, 3 and the r
    grid 1, and t = 0, which the suite replaces by a grid scaled to the
    model's velocity."""
    rng = np.random.default_rng(seed)
    space = FiniteMetricSpace.chain(n_sites)
    f = FFunction.power(3.0)
    paulis = [qalgebra.PAULI[l] for l in ("X", "Y", "Z")]
    terms = []
    for s in space.points:
        coeffs = rng.uniform(0.1, 0.4, size=3)
        ham = sum(c * p for c, p in zip(coeffs, paulis))
        gamma = rng.uniform(0.5, 1.5)
        terms.append({"support": [s], "label": f"site{s}",
                      "h": {"matrix": _matrix_json(ham), "sites": [s]},
                      "kraus": [{"matrix": _matrix_json(math.sqrt(gamma) * model.LOWERING),
                                 "sites": [s]}]})
    basis = [np.kron(p, p) for p in paulis]
    for i, x in enumerate(space.points):
        for y in space.points[i + 1:]:
            amp = rng.uniform(0.3, 0.8) * float(f(space.d(x, y)))
            kind = rng.integers(0, 3)
            terms.append({"support": [x, y], "label": f"pair{x}{y}",
                          "h": {"matrix": _matrix_json(amp * basis[kind]), "sites": [x, y]}})
    return config_from_dict({
        "space": space.descriptor,
        "f_function": f.describe(),
        "interaction": {"terms": terms},
        "observables": {"a": f"Z{space.points[0]}", "b": f"Z{space.points[-1]}"},
        "k_map": "commutator",
        "theorems": list(DOMINATION_SUITE),
        "grids": {"t": [0.0], "R": [1.0, 2.0, 3.0], "r": [1.0]},
        "state": "product(+)",
        "seed": seed,
    })


# -- the runner -------------------------------------------------------------------


@dataclass
class RunManifest:
    config_hash: str
    versions: dict
    wall_time_s: float
    tallies: dict
    worst_slack: dict
    tightest: dict  # per theorem, max lhs/rhs over valid rows with rhs > 0
    counters: dict  # propagation work, dense blocks
    theorem_wall_s: dict  # per selected theorem

    def to_dict(self) -> dict:
        return asdict(self)


class NumericalFailure(RuntimeError):
    """A theorem check that failed numerically, naming the grid point."""

    def __init__(self, theorem: str, point: dict, cause: Exception):
        where = ", ".join(f"{axis}={point.get(axis)}" for axis in ("t", "R", "r"))
        super().__init__(f"{theorem} at {where}: {cause}")
        self.theorem = theorem
        self.point = dict(point)


class ExperimentRunner:
    """Executes the selected theorem checks for one config.  Construction
    raises ``ConfigError`` when the selection cannot run on the config
    (``check_selection``), before any model work.  ``consts`` are the
    config's model constants when the caller has computed them already, as
    the random suite does for its time grid."""

    def __init__(self, cfg: ExperimentConfig, consts: Optional[ModelConstants] = None):
        check_selection(cfg)
        self.cfg = cfg
        self.consts = consts if consts is not None else ModelConstants.from_model(
            cfg.f, cfg.interaction, cfg.nu)
        sites, dims = cfg.space.points, cfg.interaction.dims
        self.a = embed(cfg.a_local, sites, dims)
        self.b = embed(cfg.b_local, sites, dims) if cfg.b_local is not None else None
        self.a_norm = cfg.a_local.norm()
        self.b_norm = cfg.b_local.norm() if cfg.b_local is not None else None
        self._k_lhs: dict = {}
        self._defects: dict = {}
        self.theorem_wall_s: dict = {}

    # dynamics -------------------------------------------------------------------

    @cached_property
    def dynamics(self) -> dynamics.Dynamics:
        """The propagation layer every left-hand side goes through."""
        return dynamics.Dynamics(self.cfg.interaction)

    @cached_property
    def analysis(self) -> correlations.FixedPointAnalysis:
        """The fixed-point analysis over the t grid, for the fixed-point suite
        and the stationary state, which consume the whole map.  Its generator
        is the propagation layer's CSR generator itself, read block by block,
        so a run assembles the generator once and never densifies it."""
        layer = self.dynamics
        model._check_dense(layer.dims)
        gen = Superoperator(layer.generator(), layer.sites, layer.dims, picture="heisenberg")
        return correlations.analyze_fixed_point(gen, self.cfg.t_grid)

    @cached_property
    def state(self) -> StateFunctional:
        """The config's state (``cfg.state``, parsed once and checked by
        ``check_selection``); the stationary one is the analysis' rho_pi."""
        return self.analysis.rho_pi if self.cfg.state is None else self.cfg.state

    def counters(self) -> dict:
        """The propagation layer's counters, and, for a run that builds the
        fixed-point analysis, its generator's number of invariant blocks
        (``dense_blocks``) and the size of the largest (``dense_block_max``)."""
        out = dict(self.dynamics.counters)
        if "analysis" in self.__dict__:
            blocks = self.analysis.generator._blocks
            out["dense_blocks"] = sum(idx.shape[0] for idx in blocks)
            out["dense_block_max"] = int(blocks[-1].shape[1])
        return out

    # the loop ----------------------------------------------------------------------

    def run(self) -> list:
        """Every selected check over its grid; a numerical failure is re-raised
        as a ``NumericalFailure`` naming the theorem and its grid point.  Each
        theorem's wall time goes to ``theorem_wall_s``; work shared between
        theorems counts for the first that asks for it."""
        cfg = self.cfg
        grids = {"t": cfg.t_grid, "R": cfg.big_r_grid, "r": cfg.r_grid}
        reports = []
        for name in cfg.theorems:
            started = time.perf_counter()
            spec = THEOREMS[name]
            point = {}
            try:
                d = geometry.set_distance(cfg.space, cfg.x_sites, spec.distance(self)) \
                    if spec.distance else None
                for values in itertools.product(*(grids[axis] for axis in spec.axes)):
                    point = dict(zip(spec.axes, values))
                    params = {"t": None, "R": None, "r": None, **point, "d": d}
                    reports.extend(spec.rows(self, name, params))
            except (ValueError, ArithmeticError) as exc:
                raise NumericalFailure(name, point, exc) from exc
            self.theorem_wall_s[name] = (self.theorem_wall_s.get(name, 0.0)
                                         + time.perf_counter() - started)
        return sort_reports(reports)

    # left-hand sides at a grid point, shared between theorems ---------------------------

    def _lhs_k(self, p: dict, R: Optional[float] = None) -> float:
        """opnorm of K on A evolved to p["t"]; ``R`` selects the range-R dynamics."""
        key = (p["t"], R)
        if key not in self._k_lhs:
            self._k_lhs[key] = self.dynamics.quasi_locality(p["t"], self.a, self.cfg.k_map, R)
        return self._k_lhs[key]

    def _local_error(self, p: dict) -> float:
        return self.dynamics.local_error(p["t"], self.a, p["r"])

    def _c_ab(self, p: dict) -> float:
        """The localization defect, computed once per (r, t) and shared by
        every correlation theorem."""
        r, t = p["r"], p["t"]
        if (r, t) not in self._defects:
            self._defects[(r, t)] = correlations.c_ab(self.dynamics, r, t, self.a, self.b)
        return self._defects[(r, t)]

    def _covariance(self, p: dict) -> float:
        """|pi(AB) - pi(A) pi(B)| in the fixed point pi."""
        return abs(correlations.covariance(self.analysis.rho_pi.density, self.a, self.b))


# -- the theorem table -----------------------------------------------------------------


@dataclass(frozen=True)
class Theorem:
    """One theorem as the runner certifies it: ``rows(runner, name, params)``
    gives the reports at one point of the product of the ``axes`` grids, where
    ``params`` holds t, R and r (None off the axes) and d (the distance from
    a's support to the region ``distance(runner)``, or None without one).
    ``group`` is the CLI subcommand that selects it; ``needs_b``,
    ``reads_state`` and ``reads_governance`` (the state's correlation
    governance, so the state too) say what the config must give, and
    ``dense`` that it reads the fixed-point analysis, whose dense work on the
    generator's blocks ``model.MAX_DENSE_DIM`` caps."""

    group: str
    axes: tuple
    rows: Callable
    distance: Optional[Callable] = None
    needs_b: bool = False
    reads_state: bool = False
    reads_governance: bool = False
    dense: bool = False


def _bound(rhs: Callable, lhs: Callable, nan_outside: bool = False,
           hypothesis: bool = False, **extra) -> Callable:
    """Rows of one report per point.  ``rhs(runner, params)`` is a float or a
    ``WindowedValue``, whose flags the report carries; with ``hypothesis`` a
    ``BoundsError`` from it flags the row instead.  ``lhs(runner, params)`` is
    evaluated after it, except that with ``nan_outside`` an out-of-window row
    records NaN.  ``extra`` maps further param keys to config fields."""
    def rows(run: ExperimentRunner, name: str, params: dict) -> list:
        params.update((key, getattr(run.cfg, attr)) for key, attr in extra.items())
        try:
            value = rhs(run, params)
        except BoundsError:
            if not hypothesis:
                raise
            value = _flagged("hypothesis")
        flags = {}
        if isinstance(value, bounds.WindowedValue):
            value, flags = value.value, value.flags
        out = nan_outside and not all(flags.values())
        return [BoundReport(name, params, float("nan") if out else lhs(run, params), value,
                            flags=flags)]
    return rows


def _flagged(flag: str) -> bounds.WindowedValue:
    return bounds.WindowedValue(float("nan"), {flag: False})


def _k_sites(run: ExperimentRunner) -> frozenset:
    """The sites the observation map acts on: Y of the Lieb-Robinson bounds."""
    return frozenset(run.cfg.k_map.sites)


def _b_sites(run: ExperimentRunner) -> frozenset:
    return run.cfg.y_sites


def _fixed_point_exponential(run: ExperimentRunner, p: dict) -> float:
    cfg = run.cfg
    weighted = FFunction.weighted(cfg.a_weight, cfg.f)
    c_a = ModelConstants.from_model(weighted, cfg.interaction, cfg.nu)
    return bounds.rhs_fixed_point_exponential(
        c_a, run.consts.fnorm, run.a_norm, run.b_norm, len(cfg.x_sites),
        len(cfg.y_sites), p["d"], run.analysis.governance())


_EPS_DELTA = {"eps": "eps", "delta": "delta"}

# theorem -> how it is certified; ALL_THEOREMS and the CLI groups keep this order
THEOREMS = {
    "finite_range_lrb": Theorem("certify-lrb", ("t", "R"), _bound(
        lambda run, p: bounds.rhs_finite_range_lrb(
            run.consts, run.cfg.k_map.cb_upper, run.a_norm, run.cfg.x_sites,
            _k_sites(run), p["t"], p["R"]),
        lambda run, p: run._lhs_k(p, p["R"])), distance=_k_sites, needs_b=True),
    "full_lrb": Theorem("certify-lrb", ("t",), _bound(
        lambda run, p: bounds.rhs_full_lrb(
            run.consts, run.cfg.k_map.cb_upper, run.a_norm, run.cfg.x_sites,
            _k_sites(run), p["t"]),
        ExperimentRunner._lhs_k), distance=_k_sites, needs_b=True),
    "strong_lrb": Theorem("certify-lrb", ("t",), _bound(
        lambda run, p: bounds.rhs_strong_lrb(
            run.consts, run.cfg.k_map.cb_upper, run.a_norm, len(run.cfg.x_sites), p["d"],
            p["t"]) if run.consts.r0 > 0 else _flagged("finite_range"),
        ExperimentRunner._lhs_k, nan_outside=True), distance=_k_sites, needs_b=True),
    "composite_lrb": Theorem("certify-lrb", ("t", "R", "r"), _bound(
        lambda run, p: bounds.rhs_composite_lrb(
            run.consts, run.cfg.k_map.cb_upper, run.a_norm, run.cfg.x_sites, p["t"],
            p["r"], p["R"], run._lhs_k(p, p["R"])),
        ExperimentRunner._lhs_k), distance=_k_sites, needs_b=True),
    "power_law_lrb": Theorem("certify-lrb", ("t",), _bound(
        lambda run, p: bounds.rhs_power_law_lrb(
            run.consts, run.cfg.k_map.cb_upper, run.a_norm, len(run.cfg.x_sites), p["d"],
            p["t"], run.cfg.eps, run.cfg.delta),
        ExperimentRunner._lhs_k, nan_outside=True, **_EPS_DELTA), distance=_k_sites,
        needs_b=True),
    "range_truncation": Theorem("certify-truncation", ("t", "R", "r"), _bound(
        lambda run, p: bounds.rhs_range_truncation(
            run.consts, run.a_norm, run.cfg.x_sites, p["t"], p["r"], p["R"]),
        lambda run, p: run.dynamics.truncation_error(p["t"], run.a, p["R"]))),
    "surface_sum": Theorem("certify-local", ("r",), lambda run, name, p: [
        BoundReport(name, {**p, "x": repr(x)}, *bounds.surface_sum_check(
            run.consts, run.cfg.x_sites, p["r"], x))
        for x in sorted(run.cfg.x_sites, key=repr)]),
    "local_approx": Theorem("certify-local", ("t", "r"), _bound(
        lambda run, p: bounds.rhs_local_approx(
            run.consts, run.a_norm, run.cfg.x_sites, p["t"], p["r"]),
        ExperimentRunner._local_error)),
    "local_approx_power_law": Theorem("certify-local", ("t", "r"), _bound(
        lambda run, p: bounds.rhs_local_approx_power_law(
            run.consts, run.a_norm, len(run.cfg.x_sites), p["r"], p["t"], run.cfg.eps,
            run.cfg.delta),
        ExperimentRunner._local_error, nan_outside=True, **_EPS_DELTA)),
    "dynamic_correlation": Theorem("certify-correlations", ("t", "r"), _bound(
        lambda run, p: bounds.rhs_dynamic_correlation(
            run.consts, run.a_norm, run.b_norm, run.cfg.x_sites, run.cfg.y_sites,
            p["r"], run.state.governance, run._c_ab(p)),
        lambda run, p: abs(correlations.correlation(
            run.state, run.dynamics, p["t"], run.a, run.b))),
        distance=_b_sites, needs_b=True, reads_governance=True),
    "correlation_general": Theorem("certify-correlations", ("t", "r"), _bound(
        lambda run, p: bounds.rhs_correlation_general(
            run.consts, run.a_norm, run.b_norm, run.cfg.x_sites, run.cfg.y_sites, p["t"],
            p["r"]),
        ExperimentRunner._c_ab), needs_b=True),
    "correlation_power_law": Theorem("certify-correlations", ("t", "r"), _bound(
        lambda run, p: bounds.rhs_correlation_power_law(
            run.consts, run.a_norm, run.b_norm, len(run.cfg.x_sites),
            len(run.cfg.y_sites), p["r"], p["t"], run.cfg.eps, run.cfg.delta),
        ExperimentRunner._c_ab, nan_outside=True, **_EPS_DELTA), needs_b=True),
    "fixed_point_correlation": Theorem("fixed-point", ("t",), _bound(
        lambda run, p: abs(correlations.covariance(
            run.analysis.evolve(p["t"], run.state.density), run.a, run.b))
        + 3.0 * run.a_norm * run.b_norm * float(run.analysis.governance()(p["t"])),
        ExperimentRunner._covariance),
        needs_b=True, reads_state=True, dense=True),
    "fixed_point_exponential": Theorem("fixed-point", (), _bound(
        _fixed_point_exponential, ExperimentRunner._covariance, hypothesis=True, a="a_weight"),
        distance=_b_sites, needs_b=True, dense=True),
    "fixed_point_power_law": Theorem("fixed-point", (), _bound(
        lambda run, p: bounds.rhs_fixed_point_power_law(
            run.consts, run.a_norm, run.b_norm, len(run.cfg.x_sites),
            len(run.cfg.y_sites), p["d"], run.cfg.eps, run.cfg.delta, run.cfg.eta_exp,
            run.analysis.governance()),
        ExperimentRunner._covariance, hypothesis=True, **_EPS_DELTA, eta_exp="eta_exp"),
        distance=_b_sites, needs_b=True, dense=True),
}

ALL_THEOREMS = tuple(THEOREMS)
# CLI subcommand -> its theorems
GROUPS = {spec.group: tuple(name for name, other in THEOREMS.items()
                            if other.group == spec.group) for spec in THEOREMS.values()}


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


def reports_to_csv(reports: Sequence[BoundReport]) -> str:
    lines = ["theorem,t,R,r,d,lhs,rhs,slack,valid,pass"]
    for rep in reports:
        p = rep.params
        slack = rep.slack if not math.isnan(rep.rhs) else float("nan")
        lines.append(",".join([
            rep.theorem, _fmt(p.get("t")), _fmt(p.get("R")), _fmt(p.get("r")),
            _fmt(p.get("d")), _fmt(rep.lhs), _fmt(rep.rhs), _fmt(slack),
            str(rep.valid).lower(), str(rep.passes()).lower()]))
    return "\n".join(lines) + "\n"


def _json_safe(x):
    if isinstance(x, float) and (math.isnan(x) or math.isinf(x)):
        return None
    return x


def reports_to_json(reports: Sequence[BoundReport]) -> str:
    payload = []
    for rep in reports:
        payload.append({
            "theorem": rep.theorem,
            "params": {k: _json_safe(v) for k, v in rep.params.items()},
            "lhs": _json_safe(rep.lhs),
            "rhs": _json_safe(rep.rhs),
            "slack": _json_safe(rep.slack),
            "valid": rep.valid,
            "pass": rep.passes(),
            "flags": dict(rep.flags),
        })
    return json.dumps({"reports": payload}, indent=2, sort_keys=True) + "\n"


def build_manifest(cfg: ExperimentConfig, reports: Sequence[BoundReport],
                   wall_time_s: float, counters: dict, theorem_wall_s: dict) -> RunManifest:
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
        elif rep.passes():
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
        counters=dict(counters),
        theorem_wall_s=dict(theorem_wall_s),
    )


def run_experiment(cfg: ExperimentConfig, out_dir=None):
    """Execute the configured checks; returns (reports, manifest), and with
    ``out_dir`` writes reports.csv, reports.json and manifest.json there.
    The pass column and the tallies use ``BoundReport.passes``; the
    manifest's ``counters`` are the runner's (``ExperimentRunner.counters``),
    and its ``theorem_wall_s`` the runner's time per theorem."""
    started = time.perf_counter()
    runner = ExperimentRunner(cfg)
    reports = runner.run()
    manifest = build_manifest(cfg, reports, time.perf_counter() - started,
                              runner.counters(), runner.theorem_wall_s)
    if out_dir is not None:
        out = write_reports(out_dir, reports)
        (out / "manifest.json").write_text(
            json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n")
    return reports, manifest


def write_reports(out_dir, reports: Sequence[BoundReport]) -> Path:
    """reports.csv and reports.json in ``out_dir``, which is created."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "reports.csv").write_text(reports_to_csv(reports))
    (out / "reports.json").write_text(reports_to_json(reports))
    return out
