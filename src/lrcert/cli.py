"""Command-line entry point.

With ``--out`` every run writes reports.csv and reports.json, and a config
run also manifest.json.  A row passes by ``BoundReport.passes``, at the one
tolerance ``bounds.SLACK_RTOL``, in the reports, the summary and the exit code.

Exit codes: 0 all valid rows pass, 1 at least one violation, 2 configuration
error (an unknown flag, or an ``--out`` that cannot be a directory, among
them), 3 numerical failure (the offending parameter point is printed).
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import harness

GROUPS = {**harness.GROUPS, "sweep": None}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrcert",
        description="Certify locality, truncation, correlation, and mixing bounds "
                    "for dissipative spin models.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in GROUPS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--out", default=None, help="output directory for the reports")
    p = sub.add_parser("random-suite")
    p.add_argument("--models", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sites", type=int, default=4)
    p.add_argument("--out", default=None, help="output directory for the reports")
    return parser


def _violations(reports) -> list:
    return [r for r in reports if r.valid and not r.passes()]


def _summarize(manifest, reports):
    bad = _violations(reports)
    for theorem, tally in sorted(manifest.tallies.items()):
        ratio = manifest.tightest.get(theorem)
        ratio_s = f"{ratio:.3e}" if ratio is not None else "n/a"
        print(f"{theorem}: {tally['passed']}/{tally['rows'] - tally['invalid']} passed "
              f"({tally['invalid']} out-of-window), tightest lhs/rhs {ratio_s}")
    print(f"total rows {len(reports)}, violations {len(bad)}")
    return bad


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.out is not None:
            _make_out(args.out)
        if args.command == "random-suite":
            return _run_random_suite(args)
        return _run_config(args)
    except harness.ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


def _make_out(out) -> None:
    """Create the ``--out`` directory before any model work, so a path that
    cannot be one is a configuration error, not a failure after the run."""
    try:
        Path(out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise harness.ConfigError("--out", str(exc)) from exc


def _run_config(args) -> int:
    """Run the file's theorems within the subcommand's group: the whole group
    when the file lists none of them, and every theorem for ``sweep`` when
    the file lists none."""
    cfg = harness.load_config(args.config)
    group = GROUPS[args.command]
    if group is not None:
        theorems = tuple(t for t in group if t in (cfg.theorems or group)) or group
    else:
        theorems = cfg.theorems or harness.ALL_THEOREMS
    try:
        reports, manifest = harness.run_experiment(replace(cfg, theorems=theorems),
                                                   out_dir=args.out)
    except harness.ConfigError:  # the runner's selection check: exit 2, in main
        raise
    except Exception as exc:  # numerical failure; the point is in the message
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    bad = _summarize(manifest, reports)
    return 1 if bad else 0


def _run_random_suite(args) -> int:
    ceiling = harness.DEFAULT_SWEEP_CEILING
    if not 2 <= args.sites <= ceiling:
        raise harness.ConfigError("--sites", f"{args.sites} is outside [2, {ceiling}]")
    if args.models < 1:
        raise harness.ConfigError("--models", f"{args.models} is not a count >= 1")
    if args.seed < 0:
        raise harness.ConfigError("--seed", f"{args.seed} is negative")
    all_reports = []
    for k in range(args.models):
        cfg = harness.random_model(args.seed + k, n_sites=args.sites)
        try:
            reports = harness.ExperimentRunner(cfg).run()
        except Exception as exc:
            print(f"numerical failure in model {k} (seed {args.seed + k}): {exc}",
                  file=sys.stderr)
            return 3
        for rep in reports:
            rep.params["model"] = k
        all_reports.extend(reports)
    all_reports = harness.sort_reports(all_reports)
    if args.out:
        harness.write_reports(args.out, all_reports)
    bad = _violations(all_reports)
    print(f"{args.models} models, {len(all_reports)} rows, violations {len(bad)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
