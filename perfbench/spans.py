"""Spans around calls into lrcert's modules, recorded from outside the package.

Each traced function is replaced by a wrapper that opens a span on entry and
closes it on return.  ``correlations`` and ``dynamics`` bind ``generator``,
``propagator``, ``evolve``, ``apply_superop`` and ``op_norm`` by name at
import, so a wrapper is installed under every name in every ``lrcert`` module
that refers to the original function, not only in the defining module.
``self_s`` of a span is its duration minus the durations of its direct
children; the program is single-threaded, so children nest strictly and do
not overlap.  Bookkeeping done by hooks (content hashes for the distinct
ratios) is recorded as a child span of its own, so it counts in no layer.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import time
import weakref
from collections import defaultdict

BOOKKEEPING = "trace.bookkeeping"

BOUNDS_RHS = ("rhs_finite_range_lrb", "rhs_full_lrb", "rhs_strong_lrb",
              "rhs_range_truncation", "rhs_composite_lrb", "rhs_power_law_lrb",
              "rhs_local_approx_power_law", "rhs_correlation_power_law",
              "surface_sum_check", "rhs_local_approx", "rhs_correlation_general",
              "rhs_fixed_point_exponential", "rhs_fixed_point_power_law")

# span name -> (module, attribute paths); every attribute gets the same span name
TARGETS = {
    "cli.main": ("lrcert.cli", ("main",)),
    "harness.run_experiment": ("lrcert.harness", ("run_experiment",)),
    "harness.runner_init": ("lrcert.harness", ("ExperimentRunner.__init__",)),
    "harness.runner": ("lrcert.harness", ("ExperimentRunner.run",)),
    "model.generator": ("lrcert.model", ("generator",)),
    "dynamics.propagator": ("lrcert.dynamics", ("propagator",)),
    "dynamics.evolve": ("lrcert.dynamics", ("evolve",)),
    "dynamics.apply_superop": ("lrcert.dynamics", ("apply_superop",)),
    "scipy.expm": ("scipy.linalg", ("expm",)),
    "correlations.c_ab": ("lrcert.correlations", ("c_ab",)),
    "correlations.stationary_state": ("lrcert.correlations", ("stationary_state",)),
    "correlations.spectral_gap": ("lrcert.correlations", ("spectral_gap",)),
    "correlations.periodic_points": ("lrcert.correlations", ("periodic_points",)),
    "correlations.convergence_envelope": ("lrcert.correlations",
                                          ("convergence_envelope",)),
    "correlations.mixing_eta": ("lrcert.correlations", ("mixing_eta",)),
    "correlations.trace_norm": ("lrcert.correlations", ("trace_norm",)),
    "solver.nelder_mead": ("scipy.optimize", ("minimize",)),
    "qalgebra.op_norm": ("lrcert.qalgebra", ("op_norm",)),
    "qalgebra.apply_map": ("lrcert.qalgebra", ("apply_map",)),
    "bounds.rhs": ("lrcert.bounds", BOUNDS_RHS),
    "bounds.constants": ("lrcert.bounds", ("ModelConstants.from_model",)),
}


class Tracer:
    """In-memory spans ``[name, start, end, parent index]`` plus counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self.distinct: dict = defaultdict(set)
        self._stack: list = []
        self._digests: dict = {}

    def digest(self, matrix) -> bytes:
        """Content hash of an array, computed once while the array lives."""
        key = id(matrix)
        if key not in self._digests:
            self._digests[key] = hashlib.blake2b(matrix.tobytes(), digest_size=16).digest()
            weakref.finalize(matrix, self._digests.pop, key, None)
        return self._digests[key]

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")
        self._stack.pop()
        self.spans[index][2] = self.clock()

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if hook is not None:
                index = self.open(BOOKKEEPING)
                try:
                    hook(self, args, kwargs, result)
                finally:
                    self.close(index)
            return result
        return traced

    def layer_times(self) -> dict:
        """name -> {"calls", "total_s", "self_s"} over all closed spans."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict = {}
        for (name, start, end, _), inner in zip(self.spans, child_s):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - inner
        return out


# -- hooks: counters measured where the work happens -------------------------------


def _on_generator(tracer: Tracer, args, kwargs, gen) -> None:
    tracer.distinct["model.generator"].add(tracer.digest(gen.matrix))
    tracer.counters["model.generator.bytes"] += gen.matrix.nbytes


def _on_propagator(tracer: Tracer, args, kwargs, prop) -> None:
    gen = args[0] if args else kwargs["gen"]
    t = args[1] if len(args) > 1 else kwargs["t"]
    tracer.distinct["dynamics.propagator"].add((tracer.digest(gen.matrix), float(t)))


def _on_expm(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["scipy.expm.dim_max"] = max(tracer.counters["scipy.expm.dim_max"],
                                                result.shape[0])


def _on_minimize(tracer: Tracer, args, kwargs, res) -> None:
    if kwargs.get("method") == "Nelder-Mead":
        tracer.counters["solver.nelder_mead.runs"] += 1
        tracer.counters["solver.nelder_mead.nfev"] += res.nfev


HOOKS = {
    "model.generator": _on_generator,
    "dynamics.propagator": _on_propagator,
    "scipy.expm": _on_expm,
    "solver.nelder_mead": _on_minimize,
}


# -- installation ------------------------------------------------------------------


def _resolve(module_name: str, path: str):
    """(owner object, attribute name, original function) for 'f' or 'Cls.f'."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    raw = vars(owner)[attr]
    return owner, attr, raw


def originals() -> dict:
    """span name -> list of the original Python functions behind it."""
    out = {}
    for name, (module_name, paths) in TARGETS.items():
        fns = []
        for path in paths:
            _, _, raw = _resolve(module_name, path)
            fns.append(raw.__func__ if isinstance(raw, classmethod) else raw)
        out[name] = fns
    return out


def install(tracer: Tracer) -> list:
    """Replace every traced function by its wrapper; returns the replaced
    bindings as (owner, attribute, original) so that they can be restored."""
    replaced = []
    lrcert_modules = [m for n, m in sorted(sys.modules.items())
                      if n == "lrcert" or n.startswith("lrcert.")]
    for name, (module_name, paths) in TARGETS.items():
        for path in paths:
            owner, attr, raw = _resolve(module_name, path)
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__,
                                                             HOOKS.get(name))))
                replaced.append((owner, attr, raw))
                continue
            wrapped = tracer.wrap(name, raw, HOOKS.get(name))
            for module in [owner] + lrcert_modules:
                for key, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, key, wrapped)
                        replaced.append((module, key, raw))
    return replaced


def uninstall(replaced: list) -> None:
    for owner, attr, raw in reversed(replaced):
        setattr(owner, attr, raw)


# -- per-layer metrics -------------------------------------------------------------


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced run, by name."""
    times = tracer.layer_times()
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def t(name):
        return times.get(name, zero)

    def ratio(name):
        calls = t(name)["calls"]
        return len(tracer.distinct[name]) / calls if calls else 0.0

    c = tracer.counters
    return {
        "model.generator.calls": t("model.generator")["calls"],
        "model.generator.self_s": t("model.generator")["self_s"],
        "model.generator.distinct_ratio": ratio("model.generator"),
        "model.generator.bytes": c["model.generator.bytes"],
        "dynamics.propagator.calls": t("dynamics.propagator")["calls"],
        "dynamics.propagator.self_s": t("dynamics.propagator")["self_s"],
        "dynamics.propagator.distinct_ratio": ratio("dynamics.propagator"),
        "dynamics.apply_superop.calls": t("dynamics.apply_superop")["calls"],
        "dynamics.apply_superop.self_s": t("dynamics.apply_superop")["self_s"],
        "scipy.expm.calls": t("scipy.expm")["calls"],
        "scipy.expm.s": t("scipy.expm")["total_s"],
        "scipy.expm.dim_max": c["scipy.expm.dim_max"],
        "correlations.c_ab.calls": t("correlations.c_ab")["calls"],
        "correlations.c_ab.self_s": t("correlations.c_ab")["self_s"],
        "correlations.c_ab.total_s": t("correlations.c_ab")["total_s"],
        "correlations.stationary_state.calls": t("correlations.stationary_state")["calls"],
        "correlations.stationary_state.self_s":
            t("correlations.stationary_state")["self_s"],
        "correlations.stationary_state.total_s":
            t("correlations.stationary_state")["total_s"],
        "correlations.spectral_gap.calls": t("correlations.spectral_gap")["calls"],
        "correlations.periodic_points.calls": t("correlations.periodic_points")["calls"],
        "correlations.convergence_envelope.total_s":
            t("correlations.convergence_envelope")["total_s"],
        "correlations.mixing_eta.total_s": t("correlations.mixing_eta")["total_s"],
        "correlations.trace_norm.calls": t("correlations.trace_norm")["calls"],
        "solver.nelder_mead.runs": c["solver.nelder_mead.runs"],
        "solver.nelder_mead.nfev": c["solver.nelder_mead.nfev"],
        "qalgebra.op_norm.calls": t("qalgebra.op_norm")["calls"],
        "qalgebra.op_norm.self_s": t("qalgebra.op_norm")["self_s"],
        "qalgebra.apply_map.calls": t("qalgebra.apply_map")["calls"],
        "qalgebra.apply_map.self_s": t("qalgebra.apply_map")["self_s"],
        "bounds.rhs.calls": t("bounds.rhs")["calls"],
        "bounds.rhs.self_s": t("bounds.rhs")["self_s"],
        "bounds.constants.s": t("bounds.constants")["total_s"],
        "harness.runner.self_s": t("harness.runner")["self_s"],
        "harness.emit_s": t("harness.run_experiment")["self_s"],
        "cli.total_s": t("cli.main")["total_s"],
        "trace.bookkeeping_s": t(BOOKKEEPING)["total_s"],
    }


def span_counts(tracer: Tracer) -> dict:
    """span name -> number of calls, for every traced name."""
    times = tracer.layer_times()
    return {name: times.get(name, {"calls": 0})["calls"] for name in TARGETS}


def profile_counts(stats: dict, fns: dict) -> dict:
    """span name -> calls cProfile recorded for the functions behind it.

    ``stats`` is ``pstats.Stats(...).stats``: (file, line, name) -> (cc, nc, ...).
    """
    out = {}
    for name, functions in fns.items():
        total = 0
        for fn in functions:
            code = fn.__code__
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            total += stats[key][1] if key in stats else 0
        out[name] = total
    return out
