"""Record the reference ``reports.csv`` of each workload with a generated config.

    python3 perfbench/record_reference.py

Run from the root of a checkout whose outputs are taken as correct.  The
golden sweep needs no recording: its reference is the shipped golden CSV.
"""
from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

RECORD_SEED = 0


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    for name, workload in run.WORKLOADS.items():
        if workload.shipped_config is not None:
            continue
        tmp = Path(tempfile.mkdtemp(dir=run.WORK))
        try:
            config = workload.write_config(RECORD_SEED, tmp)
            subprocess.run([sys.executable, "-m", "lrcert.cli", workload.subcommand,
                            "--config", str(config), "--out", str(tmp)],
                           cwd=run.ROOT, env=run.child_env(), check=True)
            reference = run.ROOT / workload.reference
            reference.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(tmp / "reports.csv", reference)
            print(f"{name}: recorded {reference.relative_to(run.ROOT)}")
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
