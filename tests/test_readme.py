"""The README's code runs: its library tour executes and its example config
loads, so a renamed or removed name cannot leave the README stale."""
import json
import re
from pathlib import Path

from lrcert import harness

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced(language: str) -> list:
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.S | re.M)


def test_library_tour_runs():
    (tour,) = fenced("python")
    exec(compile(tour, "README.md", "exec"), {})


def test_example_config_loads():
    (config,) = fenced("json")
    cfg = harness.config_from_dict(json.loads(config))
    assert cfg.seed == 7 and cfg.theorems == ("finite_range_lrb", "full_lrb",
                                              "range_truncation")
