"""The measured process: runs one workload's sweeps and writes a report.

Run by ``run.py`` as ``python3 child.py SPEC.json`` with growbp's ``src``
on ``PYTHONPATH``.  The sweeps go through ``growbp.cli.run_experiment``
exactly as ``growbp train`` would call it.  Untimed work (tracing, the
serial reference sweep) happens after the peak memory is read, and
tracing is never on while a timed sweep runs.
"""

import json
import multiprocessing
import os
import platform
import resource
import sys
import time
from pathlib import Path

import growbp.cli as cli
import tracing


def _config(argv, outdir, serial=False):
    extra = ["--jobs", "1"] if serial else []
    args = cli.build_parser().parse_args(
        ["train", *argv, *extra, "--output", str(outdir)])
    return cli.build_experiment_config(args)


def sweep(cfg):
    """One timed ``run_experiment`` call; failures are reported, not raised."""
    log = []
    start = time.perf_counter()
    try:
        # Looked up on the module, so the tracer's wrapper is the one called.
        status, error = cli.run_experiment(cfg, log=log.append), None
    except Exception as exc:  # the parent counts the failed seeds
        status, error = None, f"{type(exc).__name__}: {exc}"
    return {"dir": cfg.output_path, "seconds": time.perf_counter() - start,
            "status": status, "error": error}


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": " ".join(str(blas.get("openblas configuration", ""))
                                .split()),
        "thread_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "start_method": multiprocessing.get_start_method(),
    }


def traced_sweep(cfg):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = sweep(cfg)
    finally:
        tracer.uninstall()
    return result, tracer


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text())
    argv = spec["argv"]
    work = Path(spec["workdir"])
    report = {"reps": []}

    start = time.perf_counter()
    while True:
        cfg = _config(argv, work / f"rep{len(report['reps'])}")
        report["reps"].append(sweep(cfg))
        elapsed = time.perf_counter() - start
        last = report["reps"][-1]["seconds"]
        # Start no sweep that would end past the window.
        if (len(report["reps"]) >= spec["min_reps"]
                and elapsed + last >= spec["seconds"]):
            break
    report["self_maxrss_kb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss
    report["children_maxrss_kb"] = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss
    report["workers"] = cfg.jobs()
    header = cli.load_any(cfg).header
    report["n_train"] = header.n_train
    report["rows"] = header.total
    report["environment"] = environment()

    parallel = cfg.jobs() > 1
    if spec["trace"]:
        run, tracer = traced_sweep(_config(argv, work / "traced"))
        report["traced"] = run
        tracer.write(spec["spans_path"], "traced")
        if parallel:
            # Forked workers keep their spans, so the per-seed layers come
            # from a serial traced pass over the same seeds.
            serial, inner = traced_sweep(_config(argv, work / "serial", True))
            report["serial"] = serial
            inner.write(spec["spans_path"], "serial")
        else:
            inner = tracer
        layers, seed_s = tracing.compute_metrics(inner.spans)
        outer, traced_s = tracing.sweep_metrics(
            tracer.spans, seed_s, cfg.jobs(), tracer.pickled_bytes)
        layers.update(outer)
        report["layers"] = layers
        report["traced_sweep_s"] = traced_s
    elif parallel:
        report["serial"] = sweep(_config(argv, work / "serial", True))
    Path(spec["report_path"]).write_text(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1])
