"""The README's code runs: its library tour executes, its example config
loads and its command lines parse, so a renamed or removed name or flag
cannot leave the README stale."""
import json
import re
import shlex
from pathlib import Path

import pytest

from lrcert import cli, harness

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


def test_command_lines_parse():
    commands = set()
    for block in fenced("bash"):
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if "lrcert" not in words:
                continue
            argv = words[words.index("lrcert") + 1:]
            try:
                cli.build_parser().parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command line does not parse: {line}")
            commands.add(argv[0])
    assert commands == set(cli.GROUPS) | {"random-suite"}
