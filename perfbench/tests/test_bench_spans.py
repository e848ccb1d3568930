import cProfile
import json
import pstats
from pathlib import Path

import pytest

import run
import spans


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def propagator():
        clock.now += 3.0

    def generator():
        clock.now += 1.0
        traced_propagator()
        clock.now += 0.5

    def c_ab():
        clock.now += 2.0
        traced_generator()
        traced_generator()
        clock.now += 0.25

    traced_propagator = tracer.wrap("dynamics.propagator", propagator)
    traced_generator = tracer.wrap("model.generator", generator)
    tracer.wrap("correlations.c_ab", c_ab)()

    times = tracer.layer_times()
    assert times["dynamics.propagator"] == {"calls": 2, "total_s": 6.0, "self_s": 6.0}
    assert times["model.generator"] == {"calls": 2, "total_s": 9.0, "self_s": 3.0}
    assert times["correlations.c_ab"] == {"calls": 1, "total_s": 11.25, "self_s": 2.25}


def test_bookkeeping_counts_in_no_layer():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def hook(tracer_, args, kwargs, result):
        clock.now += 4.0

    def inner():
        clock.now += 1.0

    traced_inner = tracer.wrap("model.generator", inner, hook)

    def outer():
        traced_inner()
        clock.now += 1.0

    tracer.wrap("correlations.c_ab", outer)()
    times = tracer.layer_times()
    assert times["correlations.c_ab"]["self_s"] == 1.0
    assert times["model.generator"]["self_s"] == 1.0
    assert times[spans.BOOKKEEPING]["total_s"] == 4.0


def test_span_closed_out_of_order_is_an_error():
    tracer = spans.Tracer()
    first = tracer.open("a")
    tracer.open("b")
    with pytest.raises(RuntimeError):
        tracer.close(first)


def test_install_reaches_names_bound_at_import_and_matches_cprofile():
    from lrcert import correlations, dynamics, model, qalgebra
    from lrcert.geometry import FiniteMetricSpace

    space = FiniteMetricSpace.chain(2)
    interaction = model.tfim_dissipative(space, 0.5, 0.4, 1.0)
    a = qalgebra.embed(qalgebra.site_operator("Z", 0), space.points)
    b = qalgebra.embed(qalgebra.site_operator("Z", 1), space.points)

    def work():
        gen = model.generator(interaction, space.points)
        qalgebra.op_norm(dynamics.evolve(gen, 0.5, a))
        correlations.c_ab(interaction, space.points, [0], [1], 0.5, 0.5, a, b)

    fns = spans.originals()
    profiler = cProfile.Profile()
    profiler.enable()
    work()
    profiler.disable()
    expected = spans.profile_counts(pstats.Stats(profiler).stats, fns)

    tracer = spans.Tracer()
    replaced = spans.install(tracer)
    try:
        assert correlations.generator is model.generator is not fns["model.generator"][0]
        assert dynamics.op_norm is qalgebra.op_norm
        work()
    finally:
        spans.uninstall(replaced)
    assert correlations.generator is fns["model.generator"][0]

    counts = spans.span_counts(tracer)
    assert counts == expected
    assert counts["model.generator"] == 5 and counts["correlations.c_ab"] == 1
    metrics = spans.layer_metrics(tracer)
    # full, the two single-site subvolumes, and the full volume again as the
    # inflation of both sites: three distinct generators, three (generator, t)
    assert metrics["model.generator.distinct_ratio"] == pytest.approx(3 / 5)
    assert metrics["model.generator.bytes"] == 5 * 16 ** 2 * 16
    assert metrics["scipy.expm.dim_max"] == 16
    assert metrics["dynamics.propagator.distinct_ratio"] == pytest.approx(3 / 7)


def test_benchmark_file_lists_the_metrics_that_run_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = set(spans.layer_metrics(spans.Tracer())) | {"trace.overhead_s"}
    assert set(per_layer) == reported
    assert all(per_layer[name] == run.layer_unit(name) for name in per_layer)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)


def test_reference_outputs_have_the_workloads_row_counts():
    rows = {name: len((Path(run.ROOT) / w.reference).read_text().splitlines()) - 1
            for name, w in run.WORKLOADS.items()}
    assert rows == {"golden_sweep": 94, "fixed_point": 6, "volume5": 18}
