"""The benchmark's workloads and the seeded generator for ``wide-holdout``.

Each workload is a ``growbp train`` command line.  The benchmark seed
(``--seed``) only shapes the inputs: for the bundled presets it sets the
order in which the sweep lists its training seeds, and for
``wide-holdout`` it seeds the hold-out rows of the generated ``.dt`` file.  The work each
workload does is the same for every benchmark seed, so its work counts
can be checked exactly against ``baseline.json``.
"""

import random

WIDE_FILE = "wide_holdout.dt"
WIDE_INPUTS = 9
WIDE_SIZES = (40, 4000, 4000)  # train, validation, test rows
WIDE_EPOCHS = 50
# The training rows come from this fixed stream and only the hold-out rows
# from the benchmark seed: with 40 training rows the learned boundary, and
# so best_test_eff, would otherwise swing by several points between seeds.
WIDE_TRAIN_SEED = 12345
# Benchmark seed whose file sha256 is recorded in baseline.json, so any
# change to the generator shows on every run.
WIDE_REFERENCE_SEED = 0

# Fixed class boundary of the synthetic task, so its difficulty does not
# depend on the seed.
_WIDE_WEIGHTS = (1.0, -0.8, 0.6, -0.4, 0.9, -0.7, 0.5, -0.3, 0.2)
_WIDE_NOISE = 0.15


def generate_wide(seed):
    """Return the ``.dt`` text of the wide-holdout set for one seed.

    Two classes with one-hot targets.  Inputs are uniform on [0, 1]; the
    class is the side of a fixed hyperplane after Gaussian noise, so a
    good network's test efficiency sits near 85%.  Uses the standard
    library generator, whose streams are stable across Python versions.
    """
    n_train, n_valid, n_test = WIDE_SIZES
    lines = [
        "bool_in=0",
        f"real_in={WIDE_INPUTS}",
        "bool_out=2",
        "real_out=0",
        f"training_examples={n_train}",
        f"validation_examples={n_valid}",
        f"test_examples={n_test}",
    ]
    train_rng = random.Random(WIDE_TRAIN_SEED)
    holdout_rng = random.Random(seed)
    for row in range(n_train + n_valid + n_test):
        rng = train_rng if row < n_train else holdout_rng
        x = [rng.random() for _ in range(WIDE_INPUTS)]
        score = sum(w * (v - 0.5) for w, v in zip(_WIDE_WEIGHTS, x))
        positive = score + rng.gauss(0.0, _WIDE_NOISE) > 0.0
        targets = ("0.0", "1.0") if positive else ("1.0", "0.0")
        lines.append(" ".join([repr(v) for v in x] + list(targets)))
    return "\n".join(lines) + "\n"


def _permuted(seeds, bench_seed):
    seeds = list(seeds)
    random.Random(bench_seed).shuffle(seeds)
    return seeds


def _seed_flag(seeds):
    return ["--seeds", ",".join(str(s) for s in seeds)]


def diabetes1_grow(bench_seed, workdir):
    # Seed 0 is accepted at h=2 and seed 6 grows to h_max=5, so the step
    # kernel runs at every width from 1 to 5 with two argmax outputs.
    seeds = _permuted((0, 6), bench_seed)
    return ["diabetes1", *_seed_flag(seeds), "--jobs", "1"], seeds


def wide_holdout(bench_seed, workdir):
    # Few training rows against thousands of hold-out rows: evaluation,
    # not the step, dominates.  patience equals the epoch budget, so every
    # phase runs exactly WIDE_EPOCHS epochs whatever data the seed makes.
    path = workdir / WIDE_FILE
    path.write_text(generate_wide(bench_seed), encoding="ascii")
    seeds = [0, 1, 2]
    argv = [
        str(path), *_seed_flag(seeds), "--report-only", "--h-max", "3",
        "--epochs-per-phase", str(WIDE_EPOCHS),
        "--patience", str(WIDE_EPOCHS), "--jobs", "1",
    ]
    return argv, seeds


def heart1_jobs2(bench_seed, workdir):
    # The sweep layer: pool start-up, dataset pickling per task and result
    # writes, on the single-output threshold path with no growth.
    seeds = _permuted(range(10), bench_seed)
    return ["heart1", *_seed_flag(seeds), "--jobs", "2"], seeds


WORKLOADS = {
    "diabetes1-grow": diabetes1_grow,
    "wide-holdout": wide_holdout,
    "heart1-jobs2": heart1_jobs2,
}
