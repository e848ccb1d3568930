"""Config loading, random models, runner determinism, and the CLI contract."""
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrcert as lr
from lrcert import cli, correlations, harness
from lrcert.bounds import BoundReport
from lrcert.harness import ConfigError, config_from_dict, load_config

DOCS = Path(__file__).resolve().parent.parent / "docs"


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

    def test_overlapping_observables(self):
        with pytest.raises(ConfigError, match="disjoint"):
            config_from_dict(minimal_raw(observables={"a": "Z0", "b": "X0"}))

    def test_parse_error_location(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError, match="parse error"):
            load_config(bad)

    def test_docs_example_round_trip(self, tmp_path):
        cfg = load_config(DOCS / "tfim_dissipative.json")
        rewritten = tmp_path / "copy.json"
        rewritten.write_text(json.dumps(harness.serialize_config(cfg), indent=2,
                                        sort_keys=True))
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

    def test_grid_space_descriptor(self):
        cfg = config_from_dict(minimal_raw(
            space="grid(2,2,metric=l1)",
            observables={"a": {"matrix": [[1, 0], [0, -1]], "sites": [[0, 0]]},
                         "b": {"matrix": [[1, 0], [0, -1]], "sites": [[1, 1]]}}))
        assert len(cfg.space) == 4
        assert cfg.space.d((0, 0), (1, 1)) == 2.0

    def test_product_state_mapping(self):
        cfg = config_from_dict(minimal_raw(
            state={"product": {"0": "0", "1": "+"}},
            theorems=["dynamic_correlation"]))
        reports, _ = harness.run_experiment(cfg)
        assert reports and all(r.passed for r in reports if r.valid)

    def test_state_checked_only_where_read(self):
        # full_lrb never reads the state
        assert config_from_dict(minimal_raw(state="bogus")).state_desc == "bogus"
        with pytest.raises(ConfigError, match="unknown single-site state 'x'"):
            config_from_dict(minimal_raw(state="product(x)",
                                         theorems=["dynamic_correlation"]))


class TestRandomModel:
    def test_seed_determinism(self):
        m1 = harness.random_model(42, n_sites=3)
        m2 = harness.random_model(42, n_sites=3)
        assert m1.digest() == m2.digest()
        assert m1.digest() != harness.random_model(43, n_sites=3).digest()

    def test_single_site_has_only_onsite_terms(self):
        m = harness.random_model(7, n_sites=1)
        assert all(len(t.support) == 1 for t in m.interaction.terms)

    def test_ceiling_enforced(self):
        with pytest.raises(ValueError, match="ceiling"):
            harness.random_model(1, n_sites=6)
        m = harness.random_model(1, n_sites=6, ceiling=6)
        assert len(m.space) == 6

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
            assert rep.passed

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

    def test_golden_file_regression(self):
        cfg = load_config(DOCS / "tfim_dissipative.json")
        reports, _ = harness.run_experiment(cfg)
        got = harness.reports_to_csv(reports).splitlines()
        want = (DOCS / "tfim_dissipative.golden.csv").read_text().splitlines()
        assert got[0] == want[0]
        assert len(got) == len(want)
        for line_got, line_want in zip(got[1:], want[1:]):
            cells_got = line_got.split(",")
            cells_want = line_want.split(",")
            assert cells_got[0] == cells_want[0]
            for g, w in zip(cells_got[1:8], cells_want[1:8]):
                if g == "" or w == "":
                    assert g == w
                else:
                    assert float(g) == pytest.approx(float(w), abs=1e-9)
            assert cells_got[8:] == cells_want[8:]

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
            calls.append(args[4:6])
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
    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(minimal_raw(space="chain(99)")))
        code = cli.main(["sweep", "--config", str(bad)])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

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
        assert cli._violations([good], 1e-9) == []
        assert cli._violations([bad], 1e-9) == [bad]
        # out-of-window rows never count as violations
        assert cli._violations([flagged], 1e-9) == []

    def test_numerical_failure_names_the_point(self, tmp_path, capsys):
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(minimal_raw(
            space="chain(3)", interaction="tfim_dissipative(0.5, 0.4, 0.0)",
            observables={"a": "Z0", "b": "Z2"}, state="stationary",
            theorems=["dynamic_correlation"], grids={"t": [0.5], "R": [1], "r": [1]})))
        code = cli.main(["certify-correlations", "--config", str(path)])
        assert code == 3
        err = capsys.readouterr().err
        assert "dynamic_correlation at t=0.5, R=None, r=1.0" in err
        assert "non-unique fixed point" in err

    def test_tolerance_zero(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_raw(theorems=["full_lrb", "range_truncation"])))
        code = cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "out"),
                         "--tolerance", "0"])
        rows = (tmp_path / "out" / "reports.csv").read_text().splitlines()[1:]
        passes = [line.rsplit(",", 1)[1] == "true" for line in rows]
        assert rows and code == (0 if all(passes) else 1)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert sum(t["passed"] for t in manifest["tallies"].values()) == sum(passes)

    @given(lhs=st.floats(0.0, 2.0), gap=st.floats(-1e-6, 1e-6),
           valid=st.booleans(), tol=st.floats(0.0, 1e-3))
    @settings(max_examples=200, deadline=None)
    def test_one_pass_predicate(self, lhs, gap, valid, tol):
        rep = BoundReport("x", {"t": 0.0, "R": None, "r": None, "d": None},
                          lhs=lhs, rhs=lhs + gap, flags={"window": valid})
        violated = cli._violations([rep], tol) == [rep]
        csv_pass = harness.reports_to_csv([rep], tol).splitlines()[1].endswith(",true")
        json_pass = json.loads(harness.reports_to_json([rep], tol))["reports"][0]["pass"]
        assert csv_pass == json_pass == (valid and not violated)
        cfg = config_from_dict(minimal_raw())
        tally = harness.build_manifest(cfg, [rep], 0.0, tol).tallies["x"]
        assert tally["passed"] == int(csv_pass)
        assert tally["failed"] == int(violated)

    def test_random_suite_small(self, tmp_path, capsys):
        code = cli.main(["random-suite", "--models", "2", "--seed", "3",
                         "--sites", "3", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "reports.csv").exists()
        out = capsys.readouterr().out
        assert "violations 0" in out

    def test_fixed_point_group(self, tmp_path, capsys):
        raw = minimal_raw(
            space="chain(4)",
            f_function="power(4)",
            interaction="tfim_dissipative(0.2, 0.0, 1.0)",
            observables={"a": "Z0", "b": "Z3"},
            theorems=[],
            grids={"t": [0.5, 1.0, 2.0, 4.0], "R": [1], "r": [1]},
            poly={"epsilon": 0.5, "delta": 0.3, "eta_exp": 0.02, "a_weight": 1.0},
            state="product(+)")
        path = tmp_path / "fp.json"
        path.write_text(json.dumps(raw))
        code = cli.main(["fixed-point", "--config", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "fixed_point_correlation" in out

    def test_stationary_state_descriptor(self):
        cfg = config_from_dict(minimal_raw(
            space="chain(3)",
            interaction="tfim_dissipative(0.2, 0.0, 1.0)",
            observables={"a": "Z0", "b": "Z2"},
            state="stationary",
            theorems=["fixed_point_correlation"],
            grids={"t": [0.5, 1.0], "R": [1], "r": [1]}))
        reports, _ = harness.run_experiment(cfg)
        assert reports and all(r.passed for r in reports)
