"""One lrcert run in a fresh process, launched by ``run.py``.

    python3 perfbench/child.py MODE SRC CONFIG SUBCOMMAND OUT [SPANS]

MODE is ``setup`` (set-up only), ``plain`` (the timed run), ``trace`` (the run
with spans around every layer) or ``profile`` (the run under cProfile, for
the trace-completeness check).  Set-up is the import of ``lrcert`` from SRC,
config parsing and ``ExperimentRunner`` construction; the timed run is one
call of ``lrcert.cli.main([SUBCOMMAND, "--config", CONFIG, "--out", OUT])``.
The last line of standard output is one JSON object with the measurements.
"""
from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv) -> int:
    mode, src, config, subcommand, out = argv[:5]
    started = time.perf_counter()
    from lrcert import cli, harness
    harness.ExperimentRunner(harness.load_config(config))
    result = {"setup_s": time.perf_counter() - started}
    if not Path(harness.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"lrcert imported from {harness.__file__}, not from {src}", file=sys.stderr)
        return 2
    if mode == "setup":
        print(json.dumps(result))
        return 0

    import spans
    cli_argv = [subcommand, "--config", config, "--out", out]
    if mode == "trace":
        tracer = spans.Tracer()
        spans.install(tracer)
    elif mode == "profile":
        import cProfile
        import pstats
        fns = spans.originals()
        profiler = cProfile.Profile()
        profiler.enable()
    elif mode != "plain":
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    code = cli.main(cli_argv)
    result["wall_s"] = time.perf_counter() - started

    if mode == "profile":
        profiler.disable()
        result["counts"] = spans.profile_counts(pstats.Stats(profiler).stats, fns)
    elif mode == "trace":
        result["layers"] = spans.layer_metrics(tracer)
        result["counts"] = spans.span_counts(tracer)
        if len(argv) > 5:
            Path(argv[5]).write_text(json.dumps(tracer.spans))
    result["exit_code"] = code
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
