"""What perfbench relies on in growbp.

``Tracer.install`` skips a target that no longer resolves, so a moved
function would only show as a traced run without its spans.  Its epoch
and evaluation counts also assume where ``train_phase`` calls them.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from growbp import trainer
from growbp.dataset import Partition
from growbp.network import init_network

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for mod_name, fn_name, _ in tracing.TARGETS:
        module = importlib.import_module(f"growbp.{mod_name}")
        assert callable(getattr(module, fn_name, None)), \
            f"growbp.{mod_name}.{fn_name}"


def test_phase_calls_traced_entry_points_once_per_epoch(blob_dataset,
                                                        monkeypatch):
    """perfbench counts epochs and evaluations through these two names.

    It rebinds ``growbp.trainer.train_epoch`` and ``average_error`` and
    takes a phase of E epochs to make E and E + 2 calls: one evaluation
    per epoch, then the training and validation errors of the record.
    """
    calls = {"train_epoch": 0, "average_error": 0}

    def counting(name):
        fn = getattr(trainer, name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(trainer, name, counting(name))
    # Flipped validation targets get worse as training goes on, so
    # patience ends that phase; the budget ends the other.
    flipped = dataclasses.replace(
        blob_dataset, valid=Partition(blob_dataset.valid.X,
                                      1.0 - np.asarray(blob_dataset.valid.T)))
    for data, budget_bound in ((blob_dataset, True), (flipped, False)):
        for name in calls:
            calls[name] = 0
        net = init_network(2, 2, 1.0, np.random.default_rng(0))
        cfg = trainer.TrainConfig(epochs_per_phase=12, patience=3)
        _, used, _ = trainer.train_phase(net, data, cfg)
        assert calls == {"train_epoch": used, "average_error": used + 2}
        assert (used == 12) == budget_bound
