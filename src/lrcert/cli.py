"""Command-line entry point.

Exit codes: 0 all valid rows pass, 1 at least one violation, 2 configuration
error, 3 numerical failure (the offending parameter point is printed).
"""
from __future__ import annotations

import argparse
import math
import sys

from . import harness
from .bounds import SLACK_RTOL

GROUPS = {**harness.GROUPS, "sweep": None}


def _add_common(p: argparse.ArgumentParser, config_required: bool = True):
    p.add_argument("--config", required=config_required, help="experiment config (JSON)")
    p.add_argument("--out", default=None, help="output directory for reports")
    p.add_argument("--format", choices=("csv", "json", "both"), default="both")
    p.add_argument("--tolerance", type=float, default=SLACK_RTOL,
                   help="relative slack tolerance for the pass decision")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrcert",
        description="Certify locality, truncation, correlation, and mixing bounds "
                    "for dissipative spin models.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in GROUPS:
        p = sub.add_parser(name)
        _add_common(p)
    p = sub.add_parser("random-suite")
    p.add_argument("--models", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sites", type=int, default=4)
    _add_common(p, config_required=False)
    return parser


def _formats(arg: str) -> tuple:
    return ("csv", "json") if arg == "both" else (arg,)


def _violations(reports, tol: float) -> list:
    return [r for r in reports if r.valid and not r.passes(tol)]


def _summarize(manifest, reports, tol):
    bad = _violations(reports, tol)
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
        if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
            raise harness.ConfigError("--tolerance",
                                      f"{args.tolerance} is not a finite value >= 0")
        if args.command == "random-suite":
            return _run_random_suite(args)
        cfg = harness.load_config(args.config)
        group = GROUPS[args.command]
        if group is not None:
            cfg.theorems = tuple(t for t in group
                                 if t in (cfg.theorems or group)) or tuple(group)
        elif not cfg.theorems:
            cfg.theorems = harness.ALL_THEOREMS
        harness.check_selection(cfg)
    except harness.ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        reports, manifest = harness.run_experiment(cfg, out_dir=args.out,
                                                   formats=_formats(args.format),
                                                   tolerance=args.tolerance)
    except Exception as exc:  # numerical failure; the point is in the message
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    bad = _summarize(manifest, reports, args.tolerance)
    return 1 if bad else 0


def _run_random_suite(args) -> int:
    ceiling = harness.DEFAULT_SWEEP_CEILING
    if not 2 <= args.sites <= ceiling:
        raise harness.ConfigError("--sites", f"{args.sites} is outside [2, {ceiling}]")
    all_reports = []
    for k in range(args.models):
        m = harness.random_model(args.seed + k, n_sites=args.sites)
        raw = {
            "space": m.space.descriptor,
            "f_function": m.f.describe(),
            "interaction": {"terms": _terms_to_json(m.interaction)},
            "observables": {"a": f"Z{m.space.points[0]}",
                            "b": f"Z{m.space.points[-1]}"},
            "k_map": "commutator",
            "theorems": list(harness.DOMINATION_SUITE),
            "grids": {"t": [0.0], "R": [1.0, 2.0, 3.0], "r": [1.0]},
            "state": "product(+)",
            "seed": args.seed + k,
        }
        cfg = harness.config_from_dict(raw)
        consts = harness.ModelConstants.from_model(cfg.space, cfg.f, cfg.interaction,
                                                   cfg.nu)
        horizon = 2.0 / consts.v if consts.v > 0 else 1.0
        cfg.t_grid = tuple(i * horizon / 5.0 for i in range(6))
        try:
            reports, _ = harness.run_experiment(cfg, out_dir=None)
        except Exception as exc:
            print(f"numerical failure in model {k} (seed {args.seed + k}): {exc}",
                  file=sys.stderr)
            return 3
        for rep in reports:
            rep.params["model"] = k
        all_reports.extend(reports)
    all_reports = harness.sort_reports(all_reports)
    if args.out:
        harness.write_reports(args.out, all_reports, _formats(args.format), args.tolerance)
    bad = _violations(all_reports, args.tolerance)
    print(f"{args.models} models, {len(all_reports)} rows, violations {len(bad)}")
    return 1 if bad else 0


def _terms_to_json(interaction) -> list:
    out = []
    for t in interaction.terms:
        entry = {"support": sorted(t.support, key=repr), "label": t.label}
        if t.hamiltonian is not None:
            entry["h"] = {"matrix": _matrix_json(t.hamiltonian.matrix),
                          "sites": list(t.hamiltonian.sites)}
        if t.kraus:
            entry["kraus"] = [{"matrix": _matrix_json(k.matrix),
                               "sites": list(k.sites)} for k in t.kraus]
        out.append(entry)
    return out


def _matrix_json(m) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


if __name__ == "__main__":
    sys.exit(main())
