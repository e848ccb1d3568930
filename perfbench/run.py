"""Benchmark of lrcert, run end to end in fresh processes.

    python3 perfbench/run.py --workload golden_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; ``lrcert`` is imported from its ``src``.
Every lrcert run is a fresh single process with BLAS pinned to one thread,
one run at a time (a closed loop).  With ``--trace 0`` the runs repeat until
``--seconds`` have passed and the end-to-end metrics are reported; with
``--trace 1`` traced runs, each paired with an untraced one, repeat instead
and the per-layer metrics are reported, together with the tracing overhead
(traced minus untraced ``wall_s``) and a check that the traced call counts
equal cProfile's.  Each run's ``reports.csv`` is compared with the workload's
reference; every valid row must pass and the CLI must exit with 0.  The last
line of standard output is the result as one JSON object; the lines before it
give each metric's median, quartiles and sample count, ``failed_frac`` and the
numeric environment, all of which are also written to ``perfbench/_work/``.

Reference outputs of the generated workloads: ``perfbench/record_reference.py``.
Tests of the benchmark's own logic: ``python3 -m pytest perfbench/tests``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import checks

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = BENCH / "_work"
SETUP_PROBES = 4
RUN_LIMIT_S = 170.0
PINNED_THREADS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

POLY = {"epsilon": 0.5, "delta": 0.3, "eta_exp": 0.02, "a_weight": 1.0}


@dataclass(frozen=True)
class Workload:
    subcommand: str
    reference: str              # relative to the checkout root
    shipped_config: Optional[str] = None
    raw: Optional[dict] = None  # generated config; the seed is added per run

    def write_config(self, seed: int, directory: Path) -> Path:
        if self.shipped_config is not None:
            return ROOT / self.shipped_config
        path = directory / "config.json"
        path.write_text(json.dumps({**self.raw, "seed": seed}, indent=2))
        return path


WORKLOADS = {
    # The shipped example: c_ab and rebuilt identical generators and
    # propagators dominate; its config and golden CSV pin seed 7.
    "golden_sweep": Workload(
        subcommand="sweep",
        reference="docs/tfim_dissipative.golden.csv",
        shipped_config="docs/tfim_dissipative.json"),
    # One generator, multistart Nelder-Mead dominates; the whole dense map is
    # consumed, so a change to propagation should not move it.
    "fixed_point": Workload(
        subcommand="fixed-point",
        reference="perfbench/reference/fixed_point.csv",
        raw={"space": "chain(4)", "f_function": "power(4)",
             "interaction": "tfim_dissipative(0.2, 0.0, 1.0)",
             "observables": {"a": "Z0", "b": "Z3"}, "theorems": [],
             "grids": {"t": [0.5, 1.0, 2.0, 4.0], "R": [1], "r": [1]},
             "poly": POLY, "state": "product(+)"}),
    # d^2 = 1024: dense expm and generator assembly dominate and memory moves.
    "volume5": Workload(
        subcommand="sweep",
        reference="perfbench/reference/volume5.csv",
        raw={"space": "chain(5)", "f_function": "power(3)", "nu": 1.0,
             "interaction": "tfim_dissipative(0.5, 0.4, 1.0)",
             "observables": {"a": "Z0", "b": "Z4"}, "k_map": "commutator",
             "theorems": ["full_lrb", "finite_range_lrb", "range_truncation",
                          "local_approx"],
             "grids": {"t": [0.0, 0.5, 1.0], "R": [1], "r": [1, 2]},
             "poly": POLY, "state": "product(+)"}),
}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "rows_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Invocation:
    """The lrcert runs of one benchmark invocation and their outcomes."""

    def __init__(self, name: str, seed: int, tmp: Path):
        self.name = name
        self.workload = WORKLOADS[name]
        self.tmp = tmp
        self.config = self.workload.write_config(seed, tmp)
        self.reference = (ROOT / self.workload.reference).read_text()
        self.rows = len(self.reference.splitlines()) - 1
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.env: Optional[dict] = None

    def child(self, mode: str, spans_path: Optional[Path] = None) -> Optional[dict]:
        """One fresh process; None when it failed.  Rows of a failed run
        count as failed."""
        out = Path(tempfile.mkdtemp(dir=self.tmp))
        cmd = [sys.executable, str(BENCH / "child.py"), mode, str(ROOT / "src"),
               str(self.config), self.workload.subcommand, str(out)]
        if spans_path is not None:
            cmd.append(str(spans_path))
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                                  text=True, timeout=timeout)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        except subprocess.TimeoutExpired:
            proc, result = None, None
        except json.JSONDecodeError:
            result = None
        if mode != "setup":
            self._check(mode, out, result)
        shutil.rmtree(out, ignore_errors=True)
        if result is None:
            detail = "timed out" if proc is None else \
                f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
            self.problems.append(f"{mode} run failed ({detail})")
            return None
        self.env = self.env or result.get("env")
        return result

    def _check(self, mode: str, out: Path, result: Optional[dict]) -> None:
        rows = self.rows
        self.attempted += rows
        csv = out / "reports.csv"
        if result is None or not csv.is_file():
            self.failed += rows
            return
        bad = checks.failed_rows(csv.read_text(), self.reference)
        if result["exit_code"] != 0 and not bad:
            bad = list(range(rows))
        if bad:
            self.problems.append(f"{mode} run: {len(bad)} rows failed "
                                 f"(exit {result['exit_code']}, rows {bad[:10]})")
        self.failed += len(bad)

    def rounds(self, modes: tuple, seconds: float, spans_path: Optional[Path] = None) -> list:
        """Rounds of one run per mode, repeated until ``seconds`` have passed
        (at least one round); stops at a failed run, and before a round that
        would overrun the time limit of the invocation."""
        results = []
        started = time.monotonic()
        while True:
            round_started = time.monotonic()
            round_ = tuple(self.child(mode, spans_path) for mode in modes)
            if None in round_:
                break
            results.append(round_)
            now = time.monotonic()
            if now - started >= seconds or now + (now - round_started) > self.deadline:
                break
        return results


def end_to_end(inv: Invocation, seconds: float) -> dict:
    setups = [r["setup_s"] for r in
              filter(None, (inv.child("setup") for _ in range(SETUP_PROBES)))]
    runs = [plain for plain, in inv.rounds(("plain",), seconds)]
    samples = {
        "setup_s": setups + [r["setup_s"] for r in runs],
        "wall_s": [r["wall_s"] for r in runs],
        "rows_per_s": [inv.rows / r["wall_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    return {name: (checks.summarize(values), END_TO_END_UNITS[name])
            for name, values in samples.items() if values}


def per_layer(inv: Invocation, seconds: float) -> dict:
    """Traced runs, each paired with an untraced one for the overhead, then
    one run under cProfile whose call counts the traced counts must equal."""
    pairs = inv.rounds(("trace", "plain"), seconds, WORK / f"spans-{inv.name}.json")
    profiled = inv.child("profile")
    if not pairs or profiled is None:
        return {}
    traced = [t for t, _ in pairs]
    mismatched = {name: (n, profiled["counts"][name])
                  for name, n in traced[0]["counts"].items()
                  if n != profiled["counts"][name]}
    if mismatched:
        inv.problems.append(f"traced counts differ from cProfile: {mismatched}")
    out = {name: (checks.summarize([r["layers"][name] for r in traced]), layer_unit(name))
           for name in traced[0]["layers"]}
    out["trace.overhead_s"] = (
        checks.summarize([t["wall_s"] - p["wall_s"] for t, p in pairs]), "s")
    return out


COUNT_UNITS = {"calls": "count", "runs": "count", "nfev": "count", "dim_max": "count",
               "bytes": "B", "distinct_ratio": "ratio"}


def layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[1]
    return "s" if suffix == "s" or suffix.endswith("_s") else COUNT_UNITS[suffix]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/lrcert/__init__.py", WORKLOADS[args.workload].reference)
               if not (ROOT / p).is_file()]
    if missing:
        print(f"not a checkout of lrcert: missing {missing}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK))
    try:
        inv = Invocation(args.workload, args.seed, tmp)
        inv.child("setup")  # warm-up: bytecode and file caches, not timed
        metrics = (per_layer if args.trace else end_to_end)(inv, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    correct = bool(metrics) and inv.failed == 0 and not inv.problems
    attempted = max(inv.attempted, 1)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": inv.attempted,
        "failed": inv.failed, "failed_frac": inv.failed / attempted,
        "problems": inv.problems, "env": inv.env,
        "metrics": {name: {"median": s.median, "q1": s.q1, "q3": s.q3, "n": s.n,
                           "unit": unit} for name, (s, unit) in metrics.items()},
    }
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (summary, unit) in metrics.items():
        print(f"  {name}: {summary.describe(unit)}")
    print(f"  failed_frac: {report['failed_frac']:.6g} "
          f"({inv.failed} of {inv.attempted} rows)")
    for problem in inv.problems:
        print(f"  problem: {problem}")
    print(f"  env: {json.dumps(inv.env, sort_keys=True)}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": inv.failed,
        "metrics": {name: {"value": s.median, "unit": unit}
                    for name, (s, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
