"""Config loading, random models, runner determinism, and the CLI contract."""
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import lrcert as lr
from lrcert import cli, correlations, dynamics, harness, model
from lrcert.bounds import BoundReport, ModelConstants
from lrcert.harness import ConfigError, config_from_dict, load_config

from conftest import dense_local_error

DOCS = Path(__file__).resolve().parent.parent / "docs"
DATA = Path(__file__).resolve().parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"
# Golden cells must agree both absolutely and relatively.  LHS cells of about
# 7e-9 drift by about 2e-9 relative across BLAS builds, so the relative
# tolerance leaves a factor of 50 above that drift.
GOLDEN_ABS = 1e-9
GOLDEN_REL = 1e-7
# (config, reference CSV): the shipped example, and every theorem through the
# runner, with valid and out-of-window rows of each windowed theorem.  The
# second model couples every pair and has a transverse field, so the full and
# the range-R dynamics differ and no LHS past t = 0 is zero.
GOLDEN_CASES = {
    "tfim_dissipative": (DOCS / "tfim_dissipative.json",
                         DOCS / "tfim_dissipative.golden.csv"),
    "all_theorems": (DATA / "all_theorems.json", DATA / "all_theorems.golden.csv"),
}


# h = 0.3 X with damping on site 0, h = 0.2 Z with damping on site 1, and a
# 0.2 ZZ coupling: a split generator whose fixed point has coherences
COHERENT_SPLIT = {"terms": [
    {"support": [0], "h": {"matrix": [[0, 0.3], [0.3, 0]], "sites": [0]},
     "kraus": [{"matrix": [[0, 1], [0, 0]], "sites": [0]}]},
    {"support": [1], "h": {"matrix": [[0.2, 0], [0, -0.2]], "sites": [1]},
     "kraus": [{"matrix": [[0, 1], [0, 0]], "sites": [1]}]},
    {"support": [0, 1], "h": {"matrix": np.diag([0.2, -0.2, -0.2, 0.2]).tolist(),
                              "sites": [0, 1]}}]}


def minimal_raw(**overrides):
    raw = {
        "space": "chain(2)",
        "f_function": "power(2)",
        "interaction": "tfim_dissipative(0.3, 0.2, 1.0)",
        "observables": {"a": "Z0", "b": "Z1"},
        "theorems": ["full_lrb"],
        "grids": {"t": [0.0, 0.3], "R": [1], "r": [1]},
        "seed": 1,
    }
    raw.update(overrides)
    return raw


def fixed_point_raw(**overrides):
    """The fixed-point group on chain(4): its dense analysis reads one
    generator, and its rows read the analysis' maps at each of four times."""
    raw = minimal_raw(
        space="chain(4)",
        f_function="power(4)",
        interaction="tfim_dissipative(0.2, 0.0, 1.0)",
        observables={"a": "Z0", "b": "Z3"},
        theorems=[],
        grids={"t": [0.5, 1.0, 2.0, 4.0], "R": [1], "r": [1]},
        poly={"epsilon": 0.5, "delta": 0.3, "eta_exp": 0.02, "a_weight": 1.0},
        state="product(+)")
    raw.update(overrides)
    return raw


def row(name: str, *values):
    """A parametrize row with the id ``<name>-<last value>``: the id is the
    row's own, so inserting a row renames no other."""
    return pytest.param(*values, id=f"{name}-{values[-1]}")


class TestLoadConfig:
    def test_minimal_chain_config(self):
        cfg = config_from_dict(minimal_raw())
        assert len(cfg.space) == 2
        assert cfg.theorems == ("full_lrb",)

    def test_dangling_site_reference(self):
        with pytest.raises(ConfigError, match="observables.b"):
            config_from_dict(minimal_raw(
                space="chain(4)", observables={"a": "Z0", "b": "Z9"}))

    def test_unknown_descriptor(self):
        with pytest.raises(ConfigError, match="f_function"):
            config_from_dict(minimal_raw(f_function="exidecay(2)"))

    def test_unknown_theorem(self):
        with pytest.raises(ConfigError, match="theorems"):
            config_from_dict(minimal_raw(theorems=["frobnicate"]))

    def test_missing_seed(self):
        raw = minimal_raw()
        del raw["seed"]
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict(raw)

    def test_empty_grid(self):
        with pytest.raises(ConfigError, match="grids.t"):
            config_from_dict(minimal_raw(grids={"t": [], "R": [1], "r": [1]}))
        bad = [("t", -0.5), ("t", math.inf), ("R", 0), ("R", -1.0), ("R", math.nan),
               ("r", -0.1), ("r", math.inf)]
        for axis, value in bad:
            grids = {"t": [0.0], "R": [1], "r": [1], axis: [1.0, value]}
            with pytest.raises(ConfigError, match=f"grids\\.{axis}: values must be finite"):
                config_from_dict(minimal_raw(grids=grids))
        # r = 0 is allowed: its rows are recorded and flagged out of window
        cfg = config_from_dict(minimal_raw(grids={"t": [0.0], "R": [1], "r": [0]}))
        assert cfg.r_grid == (0.0,)

    def test_overlapping_observables(self):
        cfg = config_from_dict(minimal_raw(observables={"a": "Z0", "b": "X0"}))
        with pytest.raises(ConfigError, match="disjoint"):
            harness.ExperimentRunner(cfg)

    def test_parse_error_location(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="parse error"):
            load_config(bad)

    def test_docs_example_round_trip(self, tmp_path):
        cfg = load_config(DOCS / "tfim_dissipative.json")
        rewritten = tmp_path / "copy.json"
        rewritten.write_text(json.dumps(cfg.raw, indent=2, sort_keys=True))
        cfg2 = load_config(rewritten)
        assert cfg.config_hash() == cfg2.config_hash()
        assert cfg.theorems == cfg2.theorems
        assert cfg.t_grid == cfg2.t_grid

    def test_explicit_space_and_matrix_operator(self):
        raw = minimal_raw(
            space={"points": [0, 1, 2], "dist": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
            observables={"a": {"matrix": [[1, 0], [0, -1]], "sites": [0]},
                         "b": "Z2"})
        cfg = config_from_dict(raw)
        np.testing.assert_allclose(cfg.a_local.matrix, np.diag([1, -1]))

    def test_weighted_profile_descriptor(self):
        cfg = config_from_dict(minimal_raw(f_function="weighted(0.5, power(3))"))
        assert cfg.f.kind == "weighted" and cfg.f.a == 0.5
        assert cfg.f.base.alpha == 3.0

    def test_table_profile_from_path(self, tmp_path):
        table = tmp_path / "profile.json"
        table.write_text(json.dumps({"grid": [0.0, 1.0, 2.0],
                                     "values": [1.0, 0.5, 0.25]}))
        cfg = config_from_dict(minimal_raw(f_function=f"table({table})"))
        assert cfg.f.kind == "table"
        assert cfg.f(1.0) == 0.5

    def test_table_file_refuses_an_unknown_field(self, tmp_path):
        table = tmp_path / "profile.json"
        table.write_text(json.dumps({"grid": [0.0, 1.0], "values": [1.0, 0.5],
                                     "value": [1.0, 0.25]}))
        with pytest.raises(ConfigError) as info:
            config_from_dict(minimal_raw(f_function=f"table({table})"))
        assert str(info.value).startswith("f_function: table.value: unknown field")

    def test_grid_space_descriptor(self):
        cfg = config_from_dict(minimal_raw(
            space="grid(2,2)",
            observables={"a": {"matrix": [[1, 0], [0, -1]], "sites": [[0, 0]]},
                         "b": {"matrix": [[1, 0], [0, -1]], "sites": [[1, 1]]}}))
        assert len(cfg.space) == 4
        assert cfg.space.d((0, 0), (1, 1)) == 2.0

    def test_product_state_mapping(self):
        cfg = config_from_dict(minimal_raw(
            state={"product": {"0": "0", "1": "+"}},
            theorems=["dynamic_correlation"]))
        reports, _ = harness.run_experiment(cfg)
        assert reports and all(r.passes() for r in reports if r.valid)

    def test_product_state_mapping_on_tuple_sites(self):
        # a key that is a JSON array names the tuple site, as points do
        labels = {(0, 0): "0", (0, 1): "+", (1, 0): "1", (1, 1): "+"}
        cfg = config_from_dict(minimal_raw(
            space="grid(2,2)",
            observables={"a": {"matrix": [[1, 0], [0, -1]], "sites": [[0, 0]]},
                         "b": {"matrix": [[1, 0], [0, -1]], "sites": [[1, 1]]}},
            state={"product": {json.dumps(list(s)): v for s, v in labels.items()}},
            theorems=["dynamic_correlation"]))
        reports, _ = harness.run_experiment(cfg)
        want = correlations.StateFunctional.product(cfg.space.points, labels)
        np.testing.assert_array_equal(cfg.state.density, want.density)
        assert len(reports) == 2 and all(r.passes() for r in reports if r.valid)

    @pytest.mark.parametrize("overrides, message", [
        row("overrides0", {"grid": {"t": [0.5]}}, "grid: unknown field"),
        row("overrides1", {"poly": {"eta": 0.5}}, "poly.eta: unknown field"),
        row("overrides2", {"interaction": "tfim_dissipative(0.5, 0.4, 1.0, 2.0)"},
            "interaction: tfim_dissipative takes 3 positional argument(s), got 4"),
        row("overrides3", {"interaction": "tfim_dissipative(0.5, 0.4, 1.0, gamma=2.0)"},
            "interaction: tfim_dissipative takes no keyword argument 'gamma'"),
        row("overrides4", {"interaction": "long_range_zz(0.5, 3)"},
            "interaction: long_range_zz takes 3 positional argument(s), got 2"),
        row("overrides5", {"space": "chain(4, metric=l2)"},
            "space: chain takes no keyword argument 'metric'"),
        row("overrides6", {"f_function": "weighted(0.5, power(3), 2)"},
            "f_function: weighted takes 2 positional argument(s), got 3"),
        row("overrides7", {"space": "grid(2,2,metric=l1)"},
            "space: grid takes no keyword argument 'metric'"),
        # a nested object refuses an unknown key too: "Kraus" would load the
        # term with no Kraus operators, "cb_uper" the factorization bound
        row("overrides8",
            {"interaction": {"terms": [{"support": [0], "h": "X0", "Kraus": ["M0"]}]}},
            "interaction: terms[0].Kraus: unknown field"),
        row("overrides9", {"interaction": {"terms": [], "term": []}},
            "interaction: term: unknown field"),
        row("overrides10", {"k_map": {"matrix": harness._matrix_json(
            lr.commutator_map(lr.site_operator("Z", 1)).matrix), "support": [1],
            "cb_uper": 0.1}}, "k_map: cb_uper: unknown field"),
        row("overrides11",
            {"space": {"points": [0, 1], "dist": [[0, 1], [1, 0]], "metric": "l1"}},
            "space: metric: unknown field"),
        row("overrides12",
            {"f_function": {"grid": [0, 1], "values": [1, 0.5], "value": [1, 0.5]}},
            "f_function: value: unknown field"),
        row("overrides13",
            {"observables": {"a": {"matrix": [[1, 0], [0, -1]], "sites": [0], "site": [1]},
                             "b": "Z1"}}, "observables.a: site: unknown field"),
        # an operator object inside a term is refused at its path in the term
        row("term_h", {"interaction": {"terms": [
            {"support": [0], "h": {"matrix": [[0, 1], [1, 0]], "sites": [0], "site": [0]}}]}},
            "interaction: terms[0].h.site: unknown field; expected one of matrix, sites"),
        row("term_kraus", {"interaction": {"terms": [
            {"support": [0], "h": "X0"},
            {"support": [1],
             "kraus": [{"matrix": [[0, 1], [0, 0]], "sites": [1], "site": [1]}]}]}},
            "interaction: terms[1].kraus[0].site: unknown field; expected one of matrix, sites"),
        # so is every other fault inside a term: at its operator, else at the term
        row("term_kraus_entry", {"interaction": {"terms": [
            {"support": [0], "h": "X0"},
            {"support": [1], "kraus": [{"matrix": [[0, "1"], [0, 0]], "sites": [1]}]}]}},
            "interaction: terms[1].kraus[0]: must be a number, got '1'"),
        row("term_support", {"interaction": {"terms": [{"support": [5], "h": "Z5"}]}},
            "interaction: terms[0]: sites not in space: [5]"),
        row("term_string_site", {"interaction": {"terms": [{"support": ["5"], "h": "Z0"}]}},
            "interaction: terms[0]: sites not in space: ['5']"),
        # a required key left out is named as missing
        row("missing_matrix",
            {"observables": {"a": {"sites": [0]}, "b": "Z1"}},
            "observables.a: missing field 'matrix'"),
        row("missing_support", {"interaction": {"terms": [{"h": "Z0"}]}},
            "interaction: terms[0]: missing field 'support'"),
        row("term_h_missing_matrix",
            {"interaction": {"terms": [{"support": [0], "h": {"sites": [0]}}]}},
            "interaction: terms[0].h: missing field 'matrix'"),
        row("term_hermiticity", {"interaction": {"terms": [
            {"support": [0], "h": {"matrix": [[0, 1], [0, 0]], "sites": [0]}}]}},
            "interaction: terms[0]: hamiltonian part must be self-adjoint"),
        # a repeated tag would run the theorem twice and double its rows
        row("theorems_repeated", {"theorems": ["full_lrb", "full_lrb"]},
            "theorems: repeated theorem tags ['full_lrb']"),
    ])
    def test_refusal_names_the_field_or_descriptor(self, overrides, message):
        with pytest.raises(ConfigError) as info:
            config_from_dict(minimal_raw(**overrides))
        assert str(info.value).startswith(message)

    def test_state_checked_only_where_read(self):
        # full_lrb never reads the state
        harness.ExperimentRunner(config_from_dict(minimal_raw(state="bogus")))
        for state, message in [("product(x)", "unknown single-site state 'x'"),
                               ({"product": {"0": "0", "1": "x"}},
                                "unknown single-site state 'x' at site 1"),
                               ({"product": "x"}, "unknown single-site state 'x' in")]:
            cfg = config_from_dict(minimal_raw(state=state,
                                               theorems=["dynamic_correlation"]))
            with pytest.raises(ConfigError, match=message):
                harness.ExperimentRunner(cfg)

    def test_config_is_frozen(self):
        cfg = config_from_dict(minimal_raw())
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.theorems = ("local_approx",)

    @pytest.mark.parametrize("field, literal", [("a_local", "Z1"), ("b_local", "Z2")])
    def test_narrowed_observable_runs_on_its_own_support(self, field, literal):
        # X and Y are read off the observables and K is built against b, so
        # replacing an observable moves its support and the map too
        path = DOCS / "tfim_dissipative.json"
        cfg = load_config(path)
        narrowed = dataclasses.replace(
            cfg, **{field: harness.parse_operator(literal, cfg.space)})
        raw = json.loads(path.read_text())
        raw["observables"][field[0]] = literal
        loaded = config_from_dict(raw)
        assert (narrowed.x_sites, narrowed.y_sites) == (loaded.x_sites, loaded.y_sites)
        assert narrowed.k_map.sites == loaded.k_map.sites
        assert (harness.reports_to_csv(harness.run_experiment(narrowed)[0])
                == harness.reports_to_csv(harness.run_experiment(loaded)[0]))

    @pytest.mark.parametrize("field, value, section, key, entry", [
        ("b_local", "Z2", "observables", "b", "Z2"),
        ("t_grid", (0.0, 2.0), "grids", "t", [0.0, 2.0])])
    def test_narrowed_config_hash_names_what_runs(self, field, value, section, key, entry):
        # the hash reads the fields the rows come from, not only raw
        path = DOCS / "tfim_dissipative.json"
        cfg = load_config(path)
        if field == "b_local":
            value = harness.parse_operator(value, cfg.space)
        narrowed = dataclasses.replace(cfg, **{field: value})
        raw = json.loads(path.read_text())
        raw[section][key] = entry
        assert narrowed.config_hash() == config_from_dict(raw).config_hash() \
            != cfg.config_hash()

    def test_narrowed_state_runs_on_its_own_raw(self):
        # the state is parsed from raw, so replacing raw replaces the state
        path = DOCS / "tfim_dissipative.json"
        cfg = load_config(path)
        narrowed = dataclasses.replace(cfg, raw={**cfg.raw, "state": "maximally_mixed"})
        loaded = config_from_dict({**json.loads(path.read_text()),
                                   "state": "maximally_mixed"})
        assert narrowed.config_hash() == loaded.config_hash() != cfg.config_hash()
        assert (harness.reports_to_csv(harness.run_experiment(narrowed)[0])
                == harness.reports_to_csv(harness.run_experiment(loaded)[0]))


K_READERS = ["finite_range_lrb", "full_lrb", "strong_lrb", "composite_lrb", "power_law_lrb"]
ACTION_PATH = ["finite_range_lrb", "full_lrb", "composite_lrb", "range_truncation",
               "local_approx", "dynamic_correlation", "correlation_general"]


class TestObservationMapConfig:
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_commutator_map_lives_on_its_support(self, n):
        cfg = config_from_dict(minimal_raw(space=f"chain({n})",
                                           observables={"a": "Z0", "b": "Z3"}))
        assert cfg.k_map.sites == (3,) and cfg.k_map.matrix.shape == (4, 4)

    def test_explicit_matrix_reproduces_the_commutator(self):
        raw = json.loads((DATA / "all_theorems.json").read_text())
        raw["theorems"] = K_READERS
        ref, _ = harness.run_experiment(config_from_dict(raw))
        z3 = lr.commutator_map(lr.site_operator("Z", 3)).matrix
        raw["k_map"] = {"matrix": harness._matrix_json(z3), "support": [3]}
        got, _ = harness.run_experiment(config_from_dict(raw))
        assert [(r.theorem, r.params) for r in got] == [(r.theorem, r.params) for r in ref]
        np.testing.assert_array_equal([r.lhs for r in got], [r.lhs for r in ref])

    @pytest.mark.parametrize("k_map, message", [
        ("bogus", "unknown observation-map descriptor 'bogus'"),
        ("commutator(Q9)", "unknown operator letter"),
        ({"matrix": [[1, 0], [0, 1]], "support": [3]}, "shape (2, 2) != (4, 4)"),
        ({"matrix": harness._matrix_json(np.eye(4)), "support": [3]},
         "annihilate the identity"),
        ({"matrix": harness._matrix_json(lr.commutator_map(lr.site_operator("Z", 3)).matrix),
          "support": [3], "cb_upper": 0.5}, "a probe reaches 2, above cb_upper 0.5"),
        ("commutator(X0)", "observation map sites overlap the support of a"),
    ])
    @pytest.mark.parametrize("command", ["sweep", "fixed-point"])
    def test_bad_map_is_a_config_error(self, tmp_path, capsys, k_map, message, command):
        path = tmp_path / "k.json"
        path.write_text(json.dumps(minimal_raw(space="chain(4)", k_map=k_map,
                                               observables={"a": "Z0", "b": "Z3"})))
        assert cli.main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error: k_map:" in err and message in err

    def test_lrb_rows_measure_the_distance_to_the_map(self):
        # Y of the Lieb-Robinson bounds is where K acts, not b's support
        cfg = config_from_dict(minimal_raw(space="chain(4)", k_map="commutator(Z2)",
                                           observables={"a": "Z0", "b": "Z3"}))
        reports, _ = harness.run_experiment(cfg)
        assert [r.params["d"] for r in reports] == [2.0, 2.0]
        assert all(r.passes() for r in reports)


class TestVolumeCeiling:
    def test_action_path_runs_at_seven_sites(self, tmp_path, capsys):
        path = tmp_path / "c7.json"
        path.write_text(json.dumps(minimal_raw(
            space="chain(7)", interaction="tfim_dissipative(0.5, 0.4, 1.0)",
            observables={"a": "Z0", "b": "Z6"}, theorems=ACTION_PATH, state="product(+)",
            grids={"t": [0.0, 0.5], "R": [1], "r": [1]})))
        assert cli.main(["sweep", "--config", str(path)]) == 0
        assert "violations 0" in capsys.readouterr().out

    @pytest.mark.parametrize("command, extra", [
        ("fixed-point", {}),
        ("certify-correlations", {"state": "stationary"}),
    ])
    def test_dense_work_over_the_ceiling_is_a_config_error(self, tmp_path, capsys,
                                                          command, extra):
        path = tmp_path / "c7.json"
        path.write_text(json.dumps(minimal_raw(
            space="chain(7)", observables={"a": "Z0", "b": "Z6"}, theorems=[], **extra)))
        assert cli.main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error: space:" in err and "model.MAX_DENSE_DIM" in err

    def test_narrowed_selection_needs_no_dense_work(self, tmp_path, capsys):
        # the file also lists a fixed-point theorem; certify-lrb does not run it
        path = tmp_path / "c7.json"
        path.write_text(json.dumps({
            "seed": 1, "space": "chain(7)",
            "theorems": ["full_lrb", "fixed_point_correlation"],
            "observables": {"a": "Z0", "b": "Z6"}, "grids": {"t": [0.0, 0.5]}}))
        assert cli.main(["certify-lrb", "--config", str(path)]) == 0
        assert "full_lrb: 2/2 passed" in capsys.readouterr().out
        assert cli.main(["fixed-point", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error: space:" in err and "model.MAX_DENSE_DIM" in err

    @pytest.mark.parametrize("space", [
        "chain(9)", "grid(3,3)",
        {"points": list(range(9)), "dist": [[abs(i - j) for j in range(9)] for i in range(9)]},
    ], ids=["chain", "grid", "explicit"])
    def test_oversized_space_is_refused_before_it_is_built(self, monkeypatch, space):
        def no_table(self):
            raise AssertionError("built the distance table of an oversized space")

        monkeypatch.setattr(lr.FiniteMetricSpace, "__post_init__", no_table)
        with pytest.raises(ConfigError, match="space: volume exceeds the 8-site ceiling"):
            config_from_dict(minimal_raw(space=space))

    def test_nine_sites_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "c9.json"
        path.write_text(json.dumps(minimal_raw(space="chain(9)",
                                               observables={"a": "Z0", "b": "Z8"})))
        assert cli.main(["sweep", "--config", str(path)]) == 2
        assert "configuration error: space:" in capsys.readouterr().err


SPIN1_Z = np.diag([1.0, 0.0, -1.0])


def qutrit_config(**overrides) -> harness.ExperimentConfig:
    """chain(4) with a qutrit term at site 0, coupled to site 1, the TFIM
    elsewhere, and a = S^z on site 0: a config only Python can build."""
    space = lr.FiniteMetricSpace.chain(4)
    spin1_x = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]) / math.sqrt(2)
    lower = np.diag([1.0, 1.0], k=1)
    qutrit = lr.from_matrix(0.4 * spin1_x, (0,), dims=(3,))
    coupling = lr.from_matrix(0.5 * np.kron(SPIN1_Z, model.PAULI_Z), (0, 1), dims=(3, 2))
    terms = [model.LindbladTerm(frozenset([0]), qutrit,
                                (lr.from_matrix(lower, (0,), dims=(3,)),)),
             model.LindbladTerm(frozenset([0, 1]), coupling, ())]
    terms += [t for t in lr.tfim_dissipative(space, 0.5, 0.4, 1.0).terms
              if 0 not in t.support]
    return dataclasses.replace(
        config_from_dict(minimal_raw(space="chain(4)", observables={"a": "Z0", "b": "Z3"},
                                     grids={"t": [0, 0.5, 1.0], "R": [1, 2], "r": [1, 2]},
                                     **overrides)),
        interaction=model.DissipativeInteraction(space, tuple(terms)),
        a_local=lr.from_matrix(SPIN1_Z, (0,), dims=(3,)))


class TestQutritSite:
    def test_runner_embeds_on_the_interactions_dims(self):
        # a qutrit term and a qutrit observable at site 0 of a qubit chain:
        # the runner embeds A and B on the interaction's local dimensions
        groups = ("certify-lrb", "certify-truncation", "certify-local")
        cfg = dataclasses.replace(
            qutrit_config(),
            theorems=tuple(n for n, s in harness.THEOREMS.items() if s.group in groups))
        space, inter = cfg.space, cfg.interaction
        reports, _ = harness.run_experiment(cfg)
        assert len(reports) == 53 and all(r.passes() for r in reports if r.valid)
        a = lr.embed(cfg.a_local, space.points, inter.dims)
        local = [r for r in reports if r.theorem == "local_approx" and r.params["t"] == 0.5]
        for rep in local:
            region = lr.inflate(space, {0}, rep.params["r"])
            assert rep.lhs == pytest.approx(dense_local_error(inter, 0.5, a, region),
                                            rel=1e-10)

    def test_state_is_built_on_the_interactions_dims(self):
        # maximally_mixed builds on the qutrit; a qubit product state does
        # not fit it and is refused by name before any model work
        cfg = qutrit_config(state="maximally_mixed", theorems=["dynamic_correlation"])
        assert cfg.state.dims == (3, 2, 2, 2)
        reports, _ = harness.run_experiment(cfg)
        assert len(reports) == 6 and all(r.passes() for r in reports if r.valid)
        cfg = qutrit_config(state="product(+)", theorems=["dynamic_correlation"])
        with pytest.raises(ConfigError) as info:
            harness.ExperimentRunner(cfg)
        assert str(info.value) == "state: site density at 0 has wrong dimension"


class TestRandomModel:
    def test_seed_determinism(self):
        m1 = harness.random_model(42, n_sites=3)
        m2 = harness.random_model(42, n_sites=3)
        assert m1.config_hash() == m2.config_hash()
        assert m1.config_hash() != harness.random_model(43, n_sites=3).config_hash()

    def test_single_site_has_only_onsite_terms(self):
        m = harness.random_model(7, n_sites=1)
        assert all(len(t.support) == 1 for t in m.interaction.terms)

    def test_ceiling_enforced(self):
        # the config's eight-site ceiling; the suite's own limit is --sites
        assert len(harness.random_model(1, n_sites=6).space) == 6
        with pytest.raises(ConfigError, match="space: volume exceeds the 8-site ceiling"):
            harness.random_model(1, n_sites=9)

    def test_raw_loads_as_the_model(self, tmp_path):
        # raw is the file that states the model: loaded, it runs the same
        path = tmp_path / "model.json"
        for n_sites in range(2, 6):
            for seed in range(5):
                cfg = harness.random_model(seed, n_sites=n_sites)
                path.write_text(json.dumps(cfg.raw))
                loaded = load_config(path)
                assert loaded.config_hash() == cfg.config_hash()
                assert loaded.t_grid == cfg.t_grid

    def test_finite_f_norm_by_construction(self):
        for seed in range(5):
            m = harness.random_model(seed, n_sites=4)
            val = lr.interaction_f_norm(m.interaction, m.f)
            assert math.isfinite(val) and val > 0


class TestRunExperiment:
    def test_empty_selection(self):
        cfg = config_from_dict(minimal_raw(theorems=[]))
        reports, manifest = harness.run_experiment(cfg)
        assert reports == []
        assert manifest.tallies == {}

    def test_time_zero_grid_all_zero_rows(self):
        cfg = config_from_dict(minimal_raw(
            theorems=["full_lrb", "finite_range_lrb", "range_truncation"],
            grids={"t": [0.0], "R": [1], "r": [1]}))
        reports, _ = harness.run_experiment(cfg)
        assert reports
        for rep in reports:
            assert rep.lhs == pytest.approx(0.0, abs=1e-13)
            assert rep.rhs == pytest.approx(0.0, abs=1e-13)
            assert rep.passes()

    def test_deterministic_json(self, tmp_path):
        cfg = config_from_dict(minimal_raw(theorems=["full_lrb", "local_approx"]))
        r1, _ = harness.run_experiment(cfg, out_dir=tmp_path / "a")
        r2, _ = harness.run_experiment(config_from_dict(minimal_raw(
            theorems=["full_lrb", "local_approx"])), out_dir=tmp_path / "b")
        ja = (tmp_path / "a" / "reports.json").read_bytes()
        jb = (tmp_path / "b" / "reports.json").read_bytes()
        assert ja == jb
        ca = (tmp_path / "a" / "reports.csv").read_bytes()
        cb = (tmp_path / "b" / "reports.csv").read_bytes()
        assert ca == cb

    @pytest.mark.parametrize("config, reference", GOLDEN_CASES.values(),
                             ids=GOLDEN_CASES.keys())
    def test_golden_file_regression(self, config, reference):
        cfg = load_config(config)
        reports, _ = harness.run_experiment(cfg)
        got = harness.reports_to_csv(reports).splitlines()
        want = reference.read_text().splitlines()
        assert got[0] == want[0]
        assert len(got) == len(want)
        for line_got, line_want in zip(got[1:], want[1:]):
            cells_got = line_got.split(",")
            cells_want = line_want.split(",")
            assert cells_got[0] == cells_want[0]
            for g, w in zip(cells_got[1:8], cells_want[1:8]):
                if g in ("", "nan") or w in ("", "nan"):
                    assert g == w, (line_want, g, w)
                else:
                    err = abs(float(g) - float(w))
                    assert err <= GOLDEN_ABS, (line_want, g, w)
                    assert err <= GOLDEN_REL * abs(float(w)), (line_want, g, w)
            assert cells_got[8:] == cells_want[8:]

    def test_json_row_format(self):
        # reports.json carries each row's params and flags, which the golden
        # CSV does not; every theorem's row shape is pinned here
        cfg = load_config(DATA / "all_theorems.json")
        reports, _ = harness.run_experiment(cfg)
        rows = json.loads(harness.reports_to_json(reports))["reports"]
        axes = {"t", "R", "r", "d"}
        power_law = {"power_law_profile", "alpha_window", "epsilon_window",
                     "delta_window", "exponent_window", "time_window"}
        want = {
            "finite_range_lrb": (axes, set()),
            "full_lrb": (axes, set()),
            "strong_lrb": (axes, set()),
            "composite_lrb": (axes, set()),
            "power_law_lrb": (axes | {"eps", "delta"}, power_law | {"distance_window"}),
            "range_truncation": (axes, set()),
            "surface_sum": (axes | {"x"}, set()),
            "local_approx": (axes, {"radius_window"}),
            "local_approx_power_law": (axes | {"eps", "delta"},
                                       power_law | {"radius_window"}),
            "dynamic_correlation": (axes, {"separation_window", "radius_window",
                                           "factorization_strict"}),
            "correlation_general": (axes, {"radius_window"}),
            "correlation_power_law": (axes | {"eps", "delta"}, power_law | {"radius_window"}),
            "fixed_point_correlation": (axes, set()),
            "fixed_point_exponential": (axes | {"a"}, set()),
            "fixed_point_power_law": (axes | {"eps", "delta", "eta_exp"}, set()),
        }
        got = {}
        for row in rows:
            got.setdefault(row["theorem"], set()).add(
                (frozenset(row["params"]), frozenset(row["flags"])))
        assert got == {name: {(frozenset(params), frozenset(flags))}
                       for name, (params, flags) in want.items()}
        anchors = [row["params"]["x"] for row in rows if row["theorem"] == "surface_sum"]
        assert anchors and set(anchors) == {repr(x) for x in cfg.x_sites}
        assert all(isinstance(x, str) for x in anchors)

    def test_csv_float_formatting(self):
        rep = BoundReport("x", {"t": 1 / 3, "R": None, "r": None, "d": None},
                          lhs=math.pi, rhs=math.e)
        line = harness.reports_to_csv([rep]).splitlines()[1]
        cells = line.split(",")
        assert cells[1] == f"{1 / 3:.17g}"
        assert cells[5] == f"{math.pi:.17g}"

    def test_c_ab_once_per_point(self, monkeypatch):
        calls = []
        original = correlations.c_ab

        def counting(*args, **kwargs):
            calls.append(args[1:3])
            return original(*args, **kwargs)

        monkeypatch.setattr(correlations, "c_ab", counting)
        cfg = load_config(DOCS / "tfim_dissipative.json")
        assert {"dynamic_correlation", "correlation_general"} <= set(cfg.theorems)
        harness.run_experiment(cfg)
        assert len(calls) == len(set(calls)) == len(cfg.t_grid) * len(cfg.r_grid)

    def test_manifest_accounts_every_report(self):
        cfg = load_config(DOCS / "tfim_dissipative.json")
        reports, manifest = harness.run_experiment(cfg)
        assert sum(t["rows"] for t in manifest.tallies.values()) == len(reports)
        for theorem, tally in manifest.tallies.items():
            assert tally["rows"] == tally["passed"] + tally["failed"] + tally["invalid"]

    def test_term_superops_built_once_at_parse(self, monkeypatch):
        calls = []
        original = model.own_superop

        def counting(term):
            calls.append(term)
            return original(term)

        monkeypatch.setattr(model, "own_superop", counting)
        cfg = load_config(DOCS / "tfim_dissipative.json")
        assert len(calls) == len(cfg.interaction.terms)
        calls.clear()
        harness.run_experiment(cfg)
        assert calls == []

    def test_golden_counters(self, tmp_path, monkeypatch):
        """The propagation layer's work on the shipped example, pinned: one
        generator per distinct selected term set, which is five (the full
        one, which R = 1, 2, 3 and the regions around {0, 3} also select on
        this nearest-neighbour chain, and four strictly local regions), 28
        evolutions of which 7 are at t = 0, and 124 evolutions found kept."""
        requests, term_sets = [], set()
        original = dynamics.Dynamics.generator

        def recording(self, terms=None):
            requests.append(terms)
            term_sets.add(tuple(map(id, self.interaction.terms if terms is None else terms)))
            return original(self, terms)

        monkeypatch.setattr(dynamics.Dynamics, "generator", recording)
        cfg = load_config(DOCS / "tfim_dissipative.json")
        harness.run_experiment(cfg, out_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["counters"] == {"generators": 5, "evolutions": 28,
                                        "evolution_hits": 124, "expm_multiply": 21}
        assert len(term_sets) == 5 < len(requests)

    def test_fixed_point_counters_and_no_ascent(self, tmp_path, monkeypatch):
        """The fixed-point rows evolve the state by the analysis' maps of the
        one CSR generator the run assembles, which splits into
        3^4 invariant blocks of at most 2^4 coordinates, so no observable is
        propagated; no report cell reads a lower bracket, so the pure-state
        ascent never runs."""
        ascents = []
        original = correlations._multistart_state_distance

        def counted(*args):
            ascents.append(args)
            return original(*args)

        monkeypatch.setattr(correlations, "_multistart_state_distance", counted)
        cfg = config_from_dict(fixed_point_raw(theorems=harness.GROUPS["fixed-point"]))
        harness.run_experiment(cfg, out_dir=tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["counters"] == {"generators": 1, "evolutions": 0,
                                        "evolution_hits": 0, "expm_multiply": 0,
                                        "dense_blocks": 81, "dense_block_max": 16}
        assert ascents == []

    def test_fixed_point_run_densifies_nothing(self, monkeypatch):
        # the analysis reads the layer's CSR generator itself, block by
        # block: no sparse matrix is densified, no map holds a dense matrix,
        # and the one map built is the generator the analysis keeps
        def refuse(*args, **kwargs):
            raise AssertionError("a sparse matrix was densified")

        for cls in (scipy.sparse.csr_matrix, scipy.sparse.csc_matrix, scipy.sparse.coo_matrix):
            monkeypatch.setattr(cls, "toarray", refuse)
            monkeypatch.setattr(cls, "todense", refuse)
        built = []
        init = model.Superoperator.__post_init__

        def recorded(sup):
            init(sup)
            built.append(sup)

        monkeypatch.setattr(model.Superoperator, "__post_init__", recorded)
        cfg = config_from_dict(fixed_point_raw(theorems=harness.GROUPS["fixed-point"],
                                               state="stationary"))
        runner = harness.ExperimentRunner(cfg)
        assert len(runner.run()) == 6
        assert len(built) == 1
        assert not any(isinstance(s.matrix, np.ndarray) for s in built)
        assert built[0] is runner.dynamics.generator()
        assert runner.analysis.generator is runner.dynamics.generator()

    def test_stationary_state_computed_once(self, monkeypatch):
        # the stationary auxiliary state is the analysis' fixed point
        calls = []
        original = correlations.stationary_state

        def counted(gen):
            calls.append(gen)
            return original(gen)

        monkeypatch.setattr(correlations, "stationary_state", counted)
        cfg = config_from_dict(fixed_point_raw(theorems=harness.GROUPS["fixed-point"],
                                               state="stationary"))
        runner = harness.ExperimentRunner(cfg)
        assert len(runner.run()) == 6
        assert len(calls) == 1
        assert runner.state is runner.analysis.rho_pi

    def test_fixed_point_first_term_is_the_dynamic_correlation(self):
        # the dense Schroedinger maps of the analysis and the sparse
        # Heisenberg action give one quantity at every t
        runner = harness.ExperimentRunner(load_config(DATA / "all_theorems.json"))
        reports = runner.run()
        g = runner.analysis.governance()
        scale = 3.0 * runner.a.norm() * runner.b.norm()
        first = {r.params["t"]: r.rhs - scale * g(r.params["t"]) for r in reports
                 if r.theorem == "fixed_point_correlation"}
        dynamic = [r for r in reports if r.theorem == "dynamic_correlation"]
        assert sorted(first) == sorted(runner.cfg.t_grid)
        assert {r.params["t"] for r in dynamic} == set(first)
        for r in dynamic:
            assert abs(first[r.params["t"]] - r.lhs) <= 1e-12

    def test_theorem_wall_times(self, tmp_path):
        cfg = load_config(DATA / "all_theorems.json")
        _, manifest = harness.run_experiment(cfg, out_dir=tmp_path)
        record = json.loads((tmp_path / "manifest.json").read_text())
        assert record["theorem_wall_s"] == manifest.theorem_wall_s
        assert set(manifest.theorem_wall_s) == set(cfg.theorems)
        assert all(s >= 0.0 for s in manifest.theorem_wall_s.values())
        assert sum(manifest.theorem_wall_s.values()) <= manifest.wall_time_s
        assert set(record) == {"config_hash", "versions", "wall_time_s", "tallies",
                               "worst_slack", "tightest", "counters", "theorem_wall_s"}

    def test_sorting_key(self):
        reps = [
            BoundReport("b", {"t": 1.0, "R": None, "r": None, "d": None}, 0, 1),
            BoundReport("a", {"t": 2.0, "R": 1.0, "r": None, "d": None}, 0, 1),
            BoundReport("a", {"t": 1.0, "R": 2.0, "r": None, "d": None}, 0, 1),
            BoundReport("a", {"t": 1.0, "R": 1.0, "r": None, "d": None}, 0, 1),
        ]
        ordered = harness.sort_reports(reps)
        keys = [(r.theorem, r.params["t"], r.params["R"]) for r in ordered]
        assert keys == [("a", 1.0, 1.0), ("a", 1.0, 2.0), ("a", 2.0, 1.0),
                        ("b", 1.0, None)]


class TestCli:
    def test_python_m_lrcert(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_raw(theorems=[])))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "lrcert", "fixed-point", "--config", str(path),
             "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "reports.csv").exists()
        assert "total rows" in proc.stdout

    def test_series_overflow_is_a_numerical_failure(self, tmp_path):
        # v t = 4148 on the shipped example at t = 200: the truncation bound's
        # exponential tail leaves the double range, a numerical failure
        raw = json.loads((DOCS / "tfim_dissipative.json").read_text())
        raw["grids"]["t"] = [200]
        raw["theorems"] = ["range_truncation"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "lrcert", "sweep", "--config", str(path)],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 3, proc.stderr
        assert "range_truncation at t=200.0" in proc.stderr

    def test_golden_tightest_ratio(self, capsys):
        cfg = load_config(DOCS / "tfim_dissipative.json")
        reports, manifest = harness.run_experiment(cfg)
        want = {}
        for rep in reports:
            if rep.valid and rep.rhs > 0:
                want[rep.theorem] = max(want.get(rep.theorem, -math.inf), rep.lhs / rep.rhs)
        assert manifest.tightest == want
        assert set(want) <= set(manifest.tallies)
        assert all(0.0 <= ratio <= 1.0 for ratio in want.values())
        # the t = 0 rows pin the worst slack at 0; the ratio still discriminates
        assert manifest.worst_slack["full_lrb"] == 0.0
        assert 0.0 < manifest.tightest["full_lrb"] < 1e-6
        assert manifest.tightest["dynamic_correlation"] > 0.1
        record = manifest.to_dict()
        assert record["tightest"] == want and "worst_slack" in record
        cli._summarize(manifest, reports)
        out = capsys.readouterr().out
        assert f"full_lrb: 4/4 passed (0 out-of-window), tightest lhs/rhs " \
               f"{want['full_lrb']:.3e}" in out
        assert "worst slack" not in out

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(minimal_raw(space="chain(99)")))
        code = cli.main(["sweep", "--config", str(bad)])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("raw, field", [
        row("raw0", {"seed": 1, "nu": "abc"}, "nu"),
        row("raw1", {"seed": 1, "nu": 0}, "nu"),
        row("raw2", {"seed": 1, "nu": -1}, "nu"),
        row("raw3", {"seed": 1, "nu": "nan"}, "nu"),
        row("raw4", {"seed": "x"}, "seed"),
        row("raw5", {"seed": -1}, "seed"),
        row("raw6", {"seed": 1.5}, "seed"),
        row("raw7", {"seed": 1, "poly": {"epsilon": "e"}}, "poly.epsilon"),
        row("raw8", {"seed": 1, "poly": {"a_weight": None}}, "poly.a_weight"),
        row("raw9", {"seed": 1, "poly": 3}, "poly"),
        row("raw10", {"seed": 1, "observables": [1]}, "observables"),
        row("raw11", {"seed": 1, "grids": 3}, "grids"),
        row("raw12", {"seed": 1, "theorems": 3}, "theorems"),
        row("raw13", {"seed": 1, "theorems": [["full_lrb"]]}, "theorems"),
        row("raw14", [1, 2], "file"),
        row("raw15", {"seed": 1, "poly": {"a_weight": -1}}, "poly.a_weight"),
        row("raw16", {"seed": 1, "poly": {"a_weight": math.nan}}, "poly.a_weight"),
        row("raw17", {"seed": 1, "poly": {"a_weight": math.inf}}, "poly.a_weight"),
        row("raw18", {"seed": 1, "poly": {"epsilon": math.nan}}, "poly.epsilon"),
        row("raw19", {"seed": 1, "poly": {"delta": math.inf}}, "poly.delta"),
        row("raw20", {"seed": 1, "poly": {"eta_exp": -math.inf}}, "poly.eta_exp"),
        row("raw21", {"seed": 1, "grid": {"t": [0.5]}}, "grid"),
        row("raw22", {"seed": 1, "poly": {"eta": 0.5}}, "poly.eta"),
        row("raw23", {"seed": 1, "observables": {"a": "Z0", "c": "Z3"}}, "observables.c"),
        row("raw24", {"seed": 1, "grids": {"T": [0.5]}}, "grids.T"),
        row("raw25", {"seed": 1, "interaction": "tfim_dissipative(0.5, 0.4, 1.0, gamma=2.0)"},
            "interaction"),
        row("raw26", {"seed": 1, "interaction": "tfim_dissipative(0.5, 0.4, 1.0, 2.0)"},
            "interaction"),
        row("raw27", {"seed": 1, "interaction": "tfim_dissipative(0.5, 0.4)"}, "interaction"),
        row("raw28", {"seed": 1, "space": "chain(4, 7)"}, "space"),
        row("raw29", {"seed": 1, "space": "grid(2,2,3)"}, "space"),
        row("raw30", {"seed": 1, "f_function": "power(3, 9)"}, "f_function"),
        row("raw31", {"seed": 1, "observables": {"a": "Z0", "b": "Z3"},
                      "state": "product(0, 1)"}, "state"),
        row("raw32", {"seed": 1, "observables": {"a": "Z0", "b": "Z3"},
                      "state": "maximally_mixed(0)"}, "state"),
        # a number is a JSON number and a grid a JSON array: float() would read
        # "2" as 2.0 and true as 1.0, and a string grid character by character
        row("raw33", {"seed": 1, "nu": "2"}, "nu"),
        row("raw34", {"seed": 1, "nu": True}, "nu"),
        row("raw35", {"seed": 1, "poly": {"epsilon": True}}, "poly.epsilon"),
        row("raw36", {"seed": 1, "poly": {"delta": "0.3"}}, "poly.delta"),
        row("raw37", {"seed": 1, "grids": {"t": "10"}}, "grids.t"),
        row("raw38", {"seed": 1, "grids": {"t": [True, False]}}, "grids.t"),
        row("raw39", {"seed": 1, "grids": {"t": {"0": 1}}}, "grids.t"),
        row("raw40", {"seed": 1, "grids": {"R": "12"}}, "grids.R"),
        row("raw41", {"seed": 1, "grids": {"r": ["1"]}}, "grids.r"),
        row("raw42", {"seed": 1, "f_function": {"grid": "012", "values": [1.0, 0.5, 0.25]}},
            "f_function"),
        row("raw43", {"seed": 1, "f_function": {"grid": [0, 1], "values": [True, True]}},
            "f_function"),
        row("raw44", {"seed": 1, "space": {"points": [0, 1], "dist": [[0, "1"], [1, 0]]}},
            "space"),
        row("raw45", {"seed": 1, "observables": {
            "a": {"matrix": [["1", 0], [0, -1]], "sites": [0]}}}, "observables.a"),
        row("raw46", {"seed": 1, "observables": {
            "a": {"matrix": [[[1, False], 0], [0, -1]], "sites": [0]}}}, "observables.a"),
        row("raw47", {"seed": 1, "observables": {
            "a": {"matrix": [[[1, 0, 7], 0], [0, -1]], "sites": [0]}}}, "observables.a"),
        row("raw48", {"seed": 1, "k_map": {"matrix": harness._matrix_json(
            lr.commutator_map(lr.site_operator("Z", 3)).matrix), "support": [3],
            "cb_upper": "2"}}, "k_map"),
        # a state object is exactly one of product and density, and a product
        # map names only sites of the space
        row("raw49", {"seed": 1, "observables": {"a": "Z0", "b": "Z3"},
                      "state": {"product": "+", "density": [[1]]}}, "state"),
        row("raw50", {"seed": 1, "observables": {"a": "Z0", "b": "Z3"}, "state": {
            "product": {"0": "0", "1": "0", "2": "0", "3": "0", "7": "0"}}}, "state"),
    ])
    def test_malformed_field_is_a_config_error(self, tmp_path, capsys, raw, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["sweep", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {field}:")

    @pytest.mark.parametrize("argv", [
        ["sweep", "--config", "CFG"],
        ["random-suite", "--models", "1", "--sites", "2"],
    ], ids=["sweep", "random-suite"])
    @pytest.mark.parametrize("taken", ["file", "under-a-file"])
    def test_out_that_cannot_be_a_directory_is_a_config_error(self, tmp_path, capsys,
                                                                monkeypatch, argv, taken):
        # refused before any model work, not after the run
        path = tmp_path / "x.json"
        path.write_text(json.dumps(minimal_raw()))
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / ("sub" if taken == "under-a-file" else "")

        def refuse(*args, **kwargs):
            raise AssertionError("model work ran before --out was checked")

        monkeypatch.setattr(harness.ExperimentRunner, "__init__", refuse)
        argv = [str(path) if arg == "CFG" else arg for arg in argv]
        assert cli.main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("configuration error: --out: ")

    @pytest.mark.parametrize("make", [
        lambda path: None,                            # missing
        lambda path: path.mkdir(),                    # a directory
        lambda path: path.write_bytes(b"\xff\xfe{}"),  # not UTF-8
    ], ids=["missing", "directory", "not-utf8"])
    def test_unreadable_config_is_a_config_error(self, tmp_path, capsys, make):
        path = tmp_path / "cfg.json"
        make(path)
        assert cli.main(["sweep", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("configuration error: file: ")

    @pytest.mark.parametrize("argv", [
        ["sweep", "--config", "CFG", "--tolerance", "0"],
        ["sweep", "--config", "CFG", "--format", "csv"],
        ["random-suite", "--config", "CFG"],
    ], ids=["tolerance", "format", "random-suite-config"])
    def test_removed_flag_is_a_usage_error(self, tmp_path, capsys, argv):
        # the pass tolerance and the output formats are fixed, and
        # random-suite reads no config: each flag is refused, exit 2
        path = tmp_path / "x.json"
        path.write_text(json.dumps(minimal_raw()))
        with pytest.raises(SystemExit) as info:
            cli.main([str(path) if arg == "CFG" else arg for arg in argv])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command, theorems", [
        ("certify-correlations", ["dynamic_correlation"]),
        ("fixed-point", []),
    ])
    def test_unknown_state_is_a_config_error(self, tmp_path, capsys, command, theorems):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps(minimal_raw(
            space="chain(3)", observables={"a": "Z0", "b": "Z2"}, state="bogus",
            theorems=theorems)))
        code = cli.main([command, "--config", str(path)])
        assert code == 2
        assert "configuration error: state: unknown state descriptor 'bogus'" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("state, message", [
        ({"product": {"0": "0"}}, "no entry for 1"),
        ({"density": [[1, 0], [0, 0]]}, "density matrix shape inconsistent with volume"),
    ], ids=["partial-product", "density-shape"])
    def test_state_that_does_not_build_is_a_config_error(self, tmp_path, capsys, state,
                                                         message):
        path = tmp_path / "state.json"
        path.write_text(json.dumps(minimal_raw(
            space="chain(4)", observables={"a": "Z0", "b": "Z3"}, state=state,
            theorems=["dynamic_correlation"])))
        assert cli.main(["sweep", "--config", str(path)]) == 2
        assert f"configuration error: state: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("state", [
        "stationary", {"density": (np.eye(16) / 16).tolist()},
    ], ids=["stationary", "density"])
    def test_ungoverned_state_is_a_config_error(self, tmp_path, capsys, state):
        # dynamic_correlation reads the state's correlation governance; the
        # stationary state and a density matrix carry none
        path = tmp_path / "state.json"
        path.write_text(json.dumps(minimal_raw(
            space="chain(4)", observables={"a": "Z0", "b": "Z3"}, state=state,
            theorems=["dynamic_correlation"])))
        assert cli.main(["certify-correlations", "--config", str(path)]) == 2
        assert "configuration error: state: selected theorems read the state's " \
            "correlation governance" in capsys.readouterr().err

    def test_fixed_point_group_reads_no_governance(self, tmp_path, capsys):
        # the same stationary state is an auxiliary state the fixed-point rows read
        path = tmp_path / "state.json"
        path.write_text(json.dumps(minimal_raw(
            space="chain(4)", observables={"a": "Z0", "b": "Z3"}, state="stationary",
            theorems=["dynamic_correlation"])))
        assert cli.main(["fixed-point", "--config", str(path)]) == 0
        assert "violations 0" in capsys.readouterr().out

    def test_config_hash_covers_the_selection(self, tmp_path):
        # one file, two subcommands over disjoint theorem sets
        hashes = []
        for command in ("certify-lrb", "certify-local"):
            out = tmp_path / command
            assert cli.main([command, "--config", str(DATA / "all_theorems.json"),
                             "--out", str(out)]) == 0
            hashes.append(json.loads((out / "manifest.json").read_text())["config_hash"])
        assert hashes[0] != hashes[1]

    @pytest.mark.parametrize("command", ["certify-lrb", "certify-correlations",
                                         "fixed-point", "sweep"])
    def test_missing_b_is_a_config_error(self, tmp_path, capsys, command):
        # the subcommand's selection, not the config's empty list, needs b
        path = tmp_path / "no_b.json"
        path.write_text(json.dumps(minimal_raw(observables={"a": "Z0"}, theorems=[])))
        code = cli.main([command, "--config", str(path)])
        assert code == 2
        assert "configuration error: observables.b: selected theorems need a second " \
            "observable" in capsys.readouterr().err

    def test_narrowed_selection_needs_no_b(self, tmp_path, capsys):
        # the file lists a theorem that needs b; certify-truncation does not
        path = tmp_path / "no_b.json"
        path.write_text(json.dumps({"seed": 1, "space": "chain(4)",
                                    "theorems": ["dynamic_correlation"],
                                    "observables": {"a": "Z0"}}))
        assert cli.main(["certify-truncation", "--config", str(path)]) == 0
        assert "range_truncation: 6/6 passed" in capsys.readouterr().out

    @pytest.mark.parametrize("profile", [
        "power(nan)", "power(inf)", "weighted(nan, power(3))", "weighted(inf, power(3))",
        {"grid": [0.0, 1.0, 2.0], "values": [1.0, math.nan, 0.25]},
        {"grid": [0.0, 1.0, math.inf], "values": [1.0, 0.5, 0.25]},
        "table(FILE)", "table(MISSING)",
    ], ids=["power-nan", "power-inf", "weighted-nan", "weighted-inf", "inline-nan-value",
            "inline-inf-grid", "file-nan-value", "missing-file"])
    def test_non_finite_profile_is_a_config_error(self, tmp_path, capsys, profile):
        table = tmp_path / "profile.json"
        table.write_text(json.dumps({"grid": [0.0, 1.0, 2.0],
                                     "values": [1.0, math.nan, 0.25]}))
        if isinstance(profile, str):
            profile = profile.replace("FILE", str(table)).replace(
                "MISSING", str(tmp_path / "missing.json"))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_raw(f_function=profile)))
        assert cli.main(["sweep", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("configuration error: f_function:")

    def test_pass_exit_code_and_outputs(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_raw(
            theorems=["full_lrb", "finite_range_lrb"])))
        code = cli.main(["certify-lrb", "--config", str(path),
                         "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "reports.csv").exists()
        assert (tmp_path / "out" / "reports.json").exists()
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_violation_detection(self):
        good = BoundReport("x", {}, lhs=0.5, rhs=1.0)
        bad = BoundReport("x", {}, lhs=2.0, rhs=1.0)
        flagged = BoundReport("x", {}, lhs=2.0, rhs=1.0, flags={"w": False})
        assert cli._violations([good]) == []
        assert cli._violations([bad]) == [bad]
        # out-of-window rows never count as violations
        assert cli._violations([flagged]) == []

    def test_numerical_failure_names_the_point(self, tmp_path, capsys):
        # e^{v t} overflows in the right-hand side at t = 1000
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(minimal_raw(
            space="chain(3)", observables={"a": "Z0", "b": "Z2"},
            theorems=["local_approx"], grids={"t": [1000.0], "R": [1], "r": [1]})))
        code = cli.main(["certify-local", "--config", str(path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "local_approx at t=1000.0, R=None, r=1.0" in err
        assert "math range error" in err

    @given(lhs=st.floats(0.0, 2.0), gap=st.floats(-1e-6, 1e-6), valid=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_one_pass_predicate(self, lhs, gap, valid):
        # gaps on both sides of the SLACK_RTOL allowance
        rep = BoundReport("x", {"t": 0.0, "R": None, "r": None, "d": None},
                          lhs=lhs, rhs=lhs + gap, flags={"window": valid})
        violated = cli._violations([rep]) == [rep]
        csv_pass = harness.reports_to_csv([rep]).splitlines()[1].endswith(",true")
        json_pass = json.loads(harness.reports_to_json([rep]))["reports"][0]["pass"]
        assert csv_pass == json_pass == (valid and not violated)
        cfg = config_from_dict(minimal_raw())
        tally = harness.build_manifest(cfg, [rep], 0.0, {}, {}).tallies["x"]
        assert tally["passed"] == int(csv_pass)
        assert tally["failed"] == int(violated)

    def test_random_suite_small(self, tmp_path, capsys):
        code = cli.main(["random-suite", "--models", "2", "--seed", "3",
                         "--sites", "3", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "reports.csv").exists()
        out = capsys.readouterr().out
        assert "violations 0" in out

    def test_random_suite_computes_each_models_constants_once(self, monkeypatch, capsys):
        # the runner is the one place that builds a model's constants; the
        # random model's time grid reads only the velocity's two factors
        calls = []
        from_model = ModelConstants.from_model

        def counted(cls, *args):
            calls.append(args)
            return from_model(*args)

        monkeypatch.setattr(ModelConstants, "from_model", classmethod(counted))
        assert cli.main(["random-suite", "--models", "3", "--sites", "3"]) == 0
        assert len(calls) == 3
        assert "violations 0" in capsys.readouterr().out

    @pytest.mark.parametrize("sites", [0, harness.DEFAULT_SWEEP_CEILING + 1])
    def test_random_suite_sites_out_of_range(self, capsys, sites):
        assert cli.main(["random-suite", "--models", "1", "--sites", str(sites)]) == 2
        err = capsys.readouterr().err
        assert err == (f"configuration error: --sites: {sites} is outside "
                       f"[2, {harness.DEFAULT_SWEEP_CEILING}]\n")

    @pytest.mark.parametrize("flag, value, cause", [
        ("--models", "0", "0 is not a count >= 1"),
        ("--models", "-3", "-3 is not a count >= 1"),
        ("--seed", "-1", "-1 is negative"),
    ])
    def test_random_suite_count_and_seed_checked(self, tmp_path, capsys, flag, value,
                                                 cause):
        argv = ["random-suite", "--models", "1", "--sites", "2", "--out", str(tmp_path)]
        assert cli.main([*argv, flag, value]) == 2
        assert capsys.readouterr().err == f"configuration error: {flag}: {cause}\n"
        assert not (tmp_path / "reports.csv").exists()

    def test_fixed_point_group(self, tmp_path, capsys):
        path = tmp_path / "fp.json"
        path.write_text(json.dumps(fixed_point_raw()))
        code = cli.main(["fixed-point", "--config", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "fixed_point_correlation" in out

    @pytest.mark.parametrize("interaction, cause", [
        # no dissipation: every function of the Hamiltonian is stationary
        ("tfim_dissipative(0.2, 0.4, 0.0)", "non-unique fixed point (null-space dimension 4)"),
        # a unique fixed point, but coherences decay at 7.5e-10, within the
        # periodic tolerance, so they count as oscillating
        ("long_range_zz(0.5, 2.0, 1.5e-9)", "not mixing: oscillatory periodic points present"),
        # |00><00| is the unique fixed point, but ten modes decay at 1e-9 or
        # slower, within the periodic tolerance: the zero point is not simple
        ("tfim_dissipative(0.0, 0.0, 1e-9)", "not mixing: spectrum reaches the imaginary axis"),
    ])
    def test_fixed_point_failures(self, tmp_path, capsys, interaction, cause):
        path = tmp_path / "fp.json"
        path.write_text(json.dumps(fixed_point_raw(
            space="chain(2)", interaction=interaction, observables={"a": "Z0", "b": "Z1"})))
        code = cli.main(["fixed-point", "--config", str(path)])
        assert code == 3
        assert capsys.readouterr().err == "numerical failure: fixed_point_correlation at " \
            f"t=0.5, R=None, r=None: {cause}\n"

    def test_on_site_interaction_flags_strong_lrb(self, tmp_path):
        # range 0 leaves strong_lrb's hop count undefined: NaN rhs and lhs
        path = tmp_path / "onsite.json"
        path.write_text(json.dumps(minimal_raw(
            space="chain(3)", interaction="long_range_zz(0.0, 3.0, 1.0)",
            observables={"a": "Z0", "b": "Z2"}, theorems=["strong_lrb"],
            grids={"t": [0.0]})))
        assert cli.main(["certify-lrb", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "reports.csv").read_text().splitlines()[1:] == [
            "strong_lrb,0,,,2,nan,nan,nan,false,false"]
        (rep,) = json.loads((tmp_path / "reports.json").read_text())["reports"]
        assert rep["flags"] == {"finite_range": False}

    def test_fixed_point_hypotheses_flag_their_rows(self, tmp_path):
        # d = 2 is not above 2: both clustering bounds are NaN and flagged,
        # and their rows still record the fixed point's covariance
        interaction = "tfim_dissipative(0.4, 0.3, 1.0)"
        path = tmp_path / "fp.json"
        path.write_text(json.dumps(fixed_point_raw(
            space="chain(3)", interaction=interaction, observables={"a": "Z0", "b": "Z2"})))
        assert cli.main(["fixed-point", "--config", str(path), "--out", str(tmp_path)]) == 0
        gen = model.generator(harness.parse_interaction(interaction,
                                                        lr.FiniteMetricSpace.chain(3)))
        rho = lr.stationary_state(gen).density
        z, one = np.diag([1.0, -1.0]), np.eye(2)
        z0, z2 = np.kron(np.kron(z, one), one), np.kron(np.kron(one, one), z)
        cov = abs(np.trace(rho @ z0 @ z2) - np.trace(rho @ z0) * np.trace(rho @ z2))
        assert cov > 1e-3
        reports = json.loads((tmp_path / "reports.json").read_text())["reports"]
        flagged = [r for r in reports if r["theorem"] in ("fixed_point_exponential",
                                                           "fixed_point_power_law")]
        assert [r["theorem"] for r in flagged] == ["fixed_point_exponential",
                                                   "fixed_point_power_law"]
        for rep in flagged:
            assert rep["params"]["d"] == 2.0 and rep["flags"] == {"hypothesis": False}
            assert rep["rhs"] is None and not rep["valid"] and not rep["pass"]
            assert rep["lhs"] == pytest.approx(cov, rel=1e-10)

    def test_split_generator_with_a_coherent_fixed_point(self, tmp_path):
        # site 0's transverse field gives the fixed point coherences, and the
        # generator still splits into blocks; the state's positive clip must
        # not leave roundoff off the fixed point's block
        raw = fixed_point_raw(space="chain(2)", interaction=COHERENT_SPLIT,
                              observables={"a": "Z0", "b": "Z1"})
        path = tmp_path / "fp.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["fixed-point", "--config", str(path)]) == 0
        gen = model.generator(harness.parse_interaction(COHERENT_SPLIT,
                                                        lr.FiniteMetricSpace.chain(2)))
        assert len(gen._blocks) > 1
        (null,) = scipy.linalg.null_space(gen.matrix.conj().T.toarray()).T
        want = null.reshape((4, 4), order="F") / null.reshape((4, 4), order="F").trace()
        assert abs(want[0, 2]) > 0.1
        np.testing.assert_allclose(lr.stationary_state(gen).density, want, rtol=0, atol=1e-12)

    def test_stationary_state_descriptor(self):
        cfg = config_from_dict(minimal_raw(
            space="chain(3)",
            interaction="tfim_dissipative(0.2, 0.0, 1.0)",
            observables={"a": "Z0", "b": "Z2"},
            state="stationary",
            theorems=["fixed_point_correlation"],
            grids={"t": [0.5, 1.0], "R": [1], "r": [1]}))
        reports, _ = harness.run_experiment(cfg)
        assert reports and all(r.passes() for r in reports)
