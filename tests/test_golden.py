"""Result files stay byte-identical to the stored golden copies.

``tests/golden/<name>/`` holds the ``seed_<n>.csv``, ``summary.csv`` and
``histories.jsonl`` files that the two short runs below wrote.  A
refactor must reproduce every byte; a change that means to alter results
regenerates the copies with ``PYTHONPATH=src python3 tests/test_golden.py``
and says so in its changelog.
"""

import sys
from pathlib import Path

import pytest

from growbp.cli import ExperimentConfig, run_experiment

GOLDEN = Path(__file__).resolve().parent / "golden"

# diabetes1 grows to h=2 with two argmax outputs; heart1 runs the
# single-output threshold path and compares two seeds in the summary.
RUNS = {
    "diabetes1": dict(sweep_seeds=(0,), epochs_per_phase=40, patience=10,
                      xi_target=0.23, eff_target=76.0, h_max=2),
    "heart1": dict(sweep_seeds=(0, 1), epochs_per_phase=60, patience=15,
                   xi_target=0.10, eff_target=84.0, h_max=2),
}


def result_files(name, workdir):
    """Run ``name`` in csv and json-lines format; map file name to bytes."""
    files = {}
    for fmt in ("csv", "json-lines"):
        outdir = workdir / name / fmt
        cfg = ExperimentConfig(dataset_path=name, output_path=str(outdir),
                               output_format=fmt, n_jobs=1, **RUNS[name])
        run_experiment(cfg, log=lambda *a: None)
        for path in outdir.iterdir():
            if path.name != "config.json":
                files[path.name] = path.read_bytes()
    return files


@pytest.mark.parametrize("name", sorted(RUNS))
def test_results_match_golden_bytes(name, tmp_path):
    expected = {p.name: p.read_bytes()
                for p in sorted((GOLDEN / name).iterdir())}
    got = result_files(name, tmp_path)
    assert sorted(got) == sorted(expected)
    for fname, data in expected.items():
        assert got[fname] == data, f"{name}/{fname} differs from golden copy"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name in RUNS:
            target = GOLDEN / name
            target.mkdir(parents=True, exist_ok=True)
            for fname, data in result_files(name, Path(tmp)).items():
                (target / fname).write_bytes(data)
                print(f"wrote {target / fname}", file=sys.stderr)
