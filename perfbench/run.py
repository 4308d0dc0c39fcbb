"""growbp benchmark: end-to-end and per-layer metrics of a seed sweep.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload diabetes1-grow --seed 1 \
        --seconds 30 --trace 0

With ``--trace 0`` it times repeated ``run_experiment`` sweeps with
tracing off in a fresh process, times the set-up of fresh interpreters,
and prints the end-to-end metrics of BENCHMARK.json.  With ``--trace 1``
it runs the sweep again with span tracing on and prints the per-layer
metrics instead.  Every sweep's result files are checked: exit status,
parse-back through ``parse_table_csv``, finite values, byte-identical
reruns (and, for a parallel workload, equality with a serial run), and
work counts equal to those recorded in ``perfbench/baseline.json``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  An operation is one seed's
constructive run.
"""

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (
    WIDE_REFERENCE_SEED,
    WIDE_SIZES,
    WIDE_TRAIN_SEED,
    WORKLOADS,
    generate_wide,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 6
CHILD_TIMEOUT_S = 160
EXPECTED_STATUS = 0  # every workload has an accepted seed or is report-only


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def subprocess_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def time_setup(argv, env):
    """Seconds from starting an interpreter to its ``ready`` line."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "probe.py"), *argv],
                          stdout=subprocess.PIPE, env=env, cwd=ROOT,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        die(f"set-up probe failed with status {proc.returncode}")
    return elapsed


def run_child(spec, workdir, env):
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"),
                             str(spec_path)], env=env, cwd=ROOT,
                            start_new_session=True)
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die(f"measured process exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        die(f"measured process exited with status {proc.returncode}")
    return json.loads(Path(spec["report_path"]).read_text())


@dataclasses.dataclass
class SweepResult:
    seed_digests: dict
    digest: str
    tables: dict
    best_test_eff: float


def read_sweep(run, seeds):
    """Check one sweep's result files; returns (SweepResult, failed seeds)."""
    from growbp.cli import parse_table_csv
    from growbp.errors import GrowbpError

    if run["error"] or run["status"] != EXPECTED_STATUS:
        reason = run["error"] or f"exit status {run['status']}"
        return None, {s: reason for s in seeds}
    outdir = Path(run["dir"])
    failed = {}
    digests = {}
    tables = {}
    for seed in seeds:
        try:
            data = (outdir / f"seed_{seed}.csv").read_bytes()
            history = parse_table_csv(data.decode("ascii"))
        except (OSError, ValueError, TypeError, GrowbpError) as exc:
            failed[seed] = f"seed_{seed}.csv: {exc}"
            continue
        values = [v for rec in history.phases
                  for v in dataclasses.astuple(rec)]
        if not history.phases or not all(math.isfinite(v) for v in values):
            failed[seed] = f"seed_{seed}.csv: empty or non-finite"
            continue
        digests[seed] = sha256(data)
        tables[seed] = history
    try:
        rows = list(csv.DictReader(io.StringIO(
            (outdir / "summary.csv").read_text(encoding="ascii"))))
        listed = [int(row["seed"]) for row in rows]
        best = [float(row["test_eff"]) for row in rows if row["best"] == "1"]
    except (OSError, ValueError, KeyError) as exc:
        return None, {s: f"summary.csv: {exc}" for s in seeds}
    if listed != seeds or len(best) != 1 or not math.isfinite(best[0]):
        return None, {s: "summary.csv: wrong seeds or best row" for s in seeds}
    combined = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        if path.name != "config.json":  # holds n_jobs and output_path
            combined.update(path.name.encode() + b"\0" + path.read_bytes())
    return SweepResult(digests, combined.hexdigest(), tables, best[0]), failed


def work_counts(result, seeds, n_train, rows):
    epochs = sum(result.tables[s].phases[-1].epochs_cumulative for s in seeds)
    phases = sum(len(result.tables[s].phases) for s in seeds)
    return {
        "trainer.steps": epochs * n_train,
        "trainer.epochs": epochs,
        "trainer.phases": phases,
        "network.grow_calls": phases - len(seeds),
        "dataset.rows": rows,
    }


def check(report, seeds, recorded, trace):
    """Run every output check.

    Returns the first good sweep, the work counts, the seeds attempted and
    failed, and the problems found.
    """
    runs = [("rep%d" % i, r) for i, r in enumerate(report["reps"])]
    runs += [(name, report[name]) for name in ("traced", "serial")
             if name in report]
    problems = []
    failed = 0
    reference = None
    for name, run in runs:
        result, bad = read_sweep(run, seeds)
        if result is not None and reference is None:
            reference = result
        elif result is not None:
            for seed in seeds:
                if seed in bad or seed not in reference.seed_digests:
                    continue
                if result.seed_digests.get(seed) != reference.seed_digests[seed]:
                    bad[seed] = "result differs from the first sweep"
            if not bad and result.digest != reference.digest:
                bad = {s: "summary differs from the first sweep" for s in seeds}
        failed += len(bad)
        problems += [f"{name} seed {s}: {why}" for s, why in bad.items()]
    attempted = len(runs) * len(seeds)
    if reference is None:
        return None, {}, attempted, failed, problems

    counts = work_counts(reference, [s for s in seeds if s in reference.tables],
                         report["n_train"], report["rows"])
    for seed, table in reference.tables.items():
        got = [table.phases[-1].epochs_cumulative, len(table.phases)]
        want = recorded["seed_counts"].get(str(seed))
        if got != want:
            failed += 1
            problems.append(f"seed {seed}: [epochs, phases] {got}, "
                            f"baseline.json records {want}")
    if trace:
        layers = report["layers"]
        for name, value in counts.items():
            if layers[name] != value:
                problems.append(f"trace counts {name}={layers[name]}, "
                                f"results imply {value}")
        counts["trainer.eval_calls"] = layers["trainer.eval_calls"]
    for name, value in counts.items():
        if value != recorded["counts"].get(name):
            problems.append(f"work count {name}={value}, baseline.json "
                            f"records {recorded['counts'].get(name)}")
    return reference, counts, attempted, failed, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "growbp" / "__init__.py").is_file():
        die(f"no growbp sources under {SRC}; run from a growbp checkout")
    sys.path.insert(0, str(SRC))
    spec_file = ROOT / "BENCHMARK.json"
    metric_specs = json.loads(spec_file.read_text())[
        "per_layer" if args.trace else "end_to_end"]
    recorded = json.loads((HERE / "baseline.json").read_text())
    expected = recorded["workloads"][args.workload]

    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    spans_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.unlink(missing_ok=True)
    argv, seeds = WORKLOADS[args.workload](args.seed, workdir)
    env = subprocess_env()
    print(f"workload {args.workload} seed {args.seed}: growbp train "
          + " ".join(argv))

    problems = []
    if args.workload == "wide-holdout":
        generator = {
            "reference_seed": WIDE_REFERENCE_SEED,
            "train_seed": WIDE_TRAIN_SEED,
            "sizes": list(WIDE_SIZES),
            "sha256": sha256(
                generate_wide(WIDE_REFERENCE_SEED).encode("ascii")),
        }
        if generator != recorded["wide_holdout_generator"]:
            problems.append("wide-holdout generator differs from baseline.json")
        print(f"input sha256 {sha256(Path(argv[0]).read_bytes())}; "
              f"generator {json.dumps(generator)}")

    # Set-up is timed in two halves, before and after the sweeps, so that
    # its median does not hinge on one slow stretch of the machine.
    setup = []
    if not args.trace:
        time_setup(argv, env)  # compiles bytecode once, untimed
        setup += [time_setup(argv, env) for _ in range(SETUP_PROBES // 2)]

    report = run_child({
        "argv": argv,
        "workdir": str(workdir),
        "seconds": args.seconds / 3 if args.trace else args.seconds,
        "min_reps": 2 if args.trace else 3,
        "trace": bool(args.trace),
        "spans_path": str(spans_path),
        "report_path": str(workdir / "report.json"),
    }, workdir, env)
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    if not args.trace:
        setup += [time_setup(argv, env)
                  for _ in range(SETUP_PROBES - len(setup))]

    reference, counts, attempted, failed, more = check(
        report, seeds, expected, args.trace)
    problems += more
    if reference is not None:
        print("work counts " + json.dumps(counts, sort_keys=True))
        print("seed [epochs, phases] " + json.dumps({
            s: [t.phases[-1].epochs_cumulative, len(t.phases)]
            for s, t in sorted(reference.tables.items())}))
        print(f"result sha256 {reference.digest}")
    print("timed sweeps (s) " + " ".join(
        f"{r['seconds']:.3f}" for r in report["reps"]))

    metrics = {}
    sweep_s = statistics.median(r["seconds"] for r in report["reps"])
    if args.trace:
        metrics.update(report["layers"])
        metrics["trace.overhead"] = report["traced_sweep_s"] / sweep_s
    else:
        extra = report["workers"] if report["workers"] > 1 else 0
        metrics["setup_s"] = statistics.median(setup)
        metrics["sweep_s"] = sweep_s
        metrics["steps_per_s"] = counts.get("trainer.steps", 0) / sweep_s
        metrics["peak_rss_mb"] = (report["self_maxrss_kb"] + extra
                                  * report["children_maxrss_kb"]) / 1024
        metrics["best_test_eff"] = (reference.best_test_eff
                                    if reference else 0.0)

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    out = {}
    for spec in metric_specs:
        value = metrics[spec["name"]]
        out[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']:28s} {value:.6g} {spec['unit']}")
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }))


if __name__ == "__main__":
    main()
