"""Result files stay byte-identical to the stored golden copies.

``tests/golden/<name>/`` holds the ``seed_<n>.csv``, ``summary.csv`` and
``histories.jsonl`` files that the short runs below wrote.  A refactor
must reproduce every byte; a change that means to alter results
regenerates the copies with ``PYTHONPATH=src python3 tests/test_golden.py``
and says so in its changelog.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import growbp
from growbp.cli import (
    ExperimentConfig,
    main,
    parse_table_csv,
    render_table,
    run_experiment,
)
from growbp.trainer import TrainConfig

GOLDEN = Path(__file__).resolve().parent / "golden"

# diabetes1 grows to h=2 with two argmax outputs; heart1 runs the
# single-output threshold path and compares two seeds in the summary.
RUNS = {
    "diabetes1": dict(sweep_seeds=(0,), train=TrainConfig(
        epochs_per_phase=40, patience=10, xi_target=0.23, eff_target=76.0,
        h_max=2)),
    "heart1": dict(sweep_seeds=(0, 1), train=TrainConfig(
        epochs_per_phase=60, patience=15, xi_target=0.10, eff_target=84.0,
        h_max=2)),
}


def result_files(name, workdir):
    """Run ``name`` in csv and json-lines format; map file name to bytes."""
    files = {}
    for fmt in ("csv", "json-lines"):
        outdir = workdir / name / fmt
        cfg = ExperimentConfig(dataset_path=name, output_path=str(outdir),
                               output_format=fmt, n_jobs=1, **RUNS[name])
        run_experiment(cfg, log=lambda *a: None)
        files.update(written(outdir))
    return files


# Command lines run through the CLI, with their expected exit status.
# At eta=1e300 every unit of heart1's preset saturates and net inputs pass
# the point where exp overflows; no seed is accepted.
# Report-only explores every h up to h_max and exits 0 although heart1's
# preset accepts no phase here.
CLI_RUNS = {
    "heart1-eta1e300": (["train", "heart1", "--seeds", "0:2",
                         "--eta", "1e300"], 1),
    "heart1-report-only": (["train", "heart1", "--seeds", "0:2",
                            "--report-only", "--h-max", "2",
                            "--epochs-per-phase", "20"], 0),
}


def written(outdir):
    return {path.name: path.read_bytes() for path in outdir.iterdir()
            if path.name != "config.json"}


def cli_result_files(name, workdir):
    """Run ``name`` through the CLI; return its exit status and files."""
    argv, _ = CLI_RUNS[name]
    outdir = workdir / name
    status = main([*argv, "--output", str(outdir)])
    return status, written(outdir)


def assert_same_files(name, got):
    expected = {p.name: p.read_bytes()
                for p in sorted((GOLDEN / name).iterdir())}
    assert sorted(got) == sorted(expected)
    for fname, data in expected.items():
        assert got[fname] == data, f"{name}/{fname} differs from golden copy"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_results_match_golden_bytes(name, tmp_path):
    assert_same_files(name, result_files(name, tmp_path))


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_results_match_golden_bytes(name, tmp_path):
    status, got = cli_result_files(name, tmp_path)
    assert status == CLI_RUNS[name][1]
    assert_same_files(name, got)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_render_reproduces_stored_files(name, tmp_path, capsys):
    stored = GOLDEN / name / "histories.jsonl"
    seeds = RUNS[name]["sweep_seeds"]
    tables = [(GOLDEN / name / f"seed_{seed}.csv").read_text()
              for seed in seeds]
    assert main(["render", str(stored), "--format", "json-lines"]) == 0
    out = capsys.readouterr().out
    assert out == stored.read_text()
    again = tmp_path / "again.jsonl"
    again.write_text(out)
    assert main(["render", str(again), "--format", "json-lines"]) == 0
    assert capsys.readouterr().out == out
    assert main(["render", str(stored), "--format", "csv"]) == 0
    assert capsys.readouterr().out == "".join(
        f"# seed {seed}\n{table}" for seed, table in zip(seeds, tables))
    assert main(["render", str(stored)]) == 0
    assert capsys.readouterr().out == "".join(
        f"## seed {seed}\n{render_table(parse_table_csv(table), 'markdown')}"
        for seed, table in zip(seeds, tables))


# Makes glibc take its x86-64 exp without FMA, as on a CPU that has none;
# its bits differ from those of the FMA exp.  Other C libraries ignore it.
NO_FMA = "glibc.cpu.hwcaps=-AVX2_Usable,-FMA_Usable,-AVX2,-FMA"


@pytest.mark.parametrize("backend", ["c", "python"])
def test_golden_bytes_hold_with_glibcs_exp_without_fma(backend, tmp_path):
    # The kernels compute exp themselves, so the C library's choice of exp
    # reaches no result.  The Python backend runs with no gcc on PATH.
    if backend == "c" and shutil.which("gcc") is None:
        pytest.skip("no gcc on PATH")
    env = dict(os.environ, GLIBC_TUNABLES=NO_FMA,
               PYTHONPATH=str(Path(growbp.__file__).resolve().parents[1]))
    if backend == "python":
        (tmp_path / "bin").mkdir()
        env.update(PATH=str(tmp_path / "bin"),
                   XDG_CACHE_HOME=str(tmp_path / "cache"))
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
        "import growbp.kernel, test_golden as g\n"
        "print(growbp.kernel.BACKEND)\n"
        f"tmp = Path({str(tmp_path)!r})\n"
        "for name in g.RUNS:\n"
        "    g.assert_same_files(name, g.result_files(name, tmp))\n"
        "for name in g.CLI_RUNS:\n"
        "    status, files = g.cli_result_files(name, tmp)\n"
        "    assert status == g.CLI_RUNS[name][1], name\n"
        "    g.assert_same_files(name, files)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == backend


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        runs = {name: result_files(name, Path(tmp)) for name in RUNS}
        for name in CLI_RUNS:
            runs[name] = cli_result_files(name, Path(tmp))[1]
        for name, files in runs.items():
            target = GOLDEN / name
            target.mkdir(parents=True, exist_ok=True)
            for fname, data in files.items():
                (target / fname).write_bytes(data)
                print(f"wrote {target / fname}", file=sys.stderr)
