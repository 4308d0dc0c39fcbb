"""Presets and expectations for the bundled medical benchmark datasets.

Three classic diagnostic benchmarks ship with the package as pre-split .dt
files: ``cancer1`` (breast cytology, 9 inputs, one-hot outputs), ``heart1``
(cardiac catheterization, 13 inputs, single output) and ``diabetes1``
(glucose tolerance, 8 inputs, one-hot outputs).  For each there is a
training preset whose budgets and acceptance thresholds reproduce the
classic benchmark results, so a bare ``growbp train cancer1`` runs the
whole experiment.  Presets are defaults only; any explicitly configured
value wins.
"""

from pathlib import Path

from .dataset import DatasetHeader

BUNDLED = ("cancer1", "heart1", "diabetes1")

EXPECTED_HEADERS = {
    "cancer1": DatasetHeader(n_inputs=9, n_outputs=2, n_train=350,
                             n_valid=175, n_test=174),
    "heart1": DatasetHeader(n_inputs=13, n_outputs=1, n_train=152,
                            n_valid=76, n_test=75),
    "diabetes1": DatasetHeader(n_inputs=8, n_outputs=2, n_train=384,
                               n_valid=192, n_test=192),
}

PRESETS = {
    "cancer1": {
        "eta": 0.7,
        "epochs_per_phase": 100,
        "patience": 30,
        "xi_target": 0.03,
        "eff_target": 95.0,
        "h_max": 2,
    },
    "heart1": {
        "eta": 0.7,
        "epochs_per_phase": 200,
        "patience": 40,
        "xi_target": 0.10,
        "eff_target": 84.0,
        "h_max": 2,
    },
    "diabetes1": {
        "eta": 0.7,
        "epochs_per_phase": 200,
        "patience": 40,
        "xi_target": 0.23,
        "eff_target": 76.0,
        "h_max": 5,
    },
}


def bundled_dataset_path(name):
    """Filesystem path of a bundled benchmark file.  The files ship next to
    this module as plain package data, so no resource loader is needed."""
    if name not in BUNDLED:
        raise KeyError(f"no bundled dataset named {name!r}")
    return Path(__file__).parent / "data" / f"{name}.dt"


def match_profile(path):
    """Preset name implied by a dataset filename, or None.

    The hint is a substring match on the file stem, so copies like
    ``my-cancer1-run.dt`` still pick up the preset.
    """
    stem = Path(path).stem.lower()
    for name in BUNDLED:
        if name in stem:
            return name
    return None
