"""Constructive single-hidden-layer networks trained by online backprop.

The library grows a 1-hidden-layer logistic network one unit at a time,
training each topology online with hold-out early stopping, until the
validation error and the classification efficiency reach configured
acceptance levels.  Bundled Proben1-style benchmark files (cancer1,
heart1, diabetes1) reproduce classic medical-diagnosis experiments.

The top-level names are the ones the README's Library section uses;
everything else lives in the submodules.
"""

from .dataset import DatasetHeader, Partition, SplitDataset, load_dataset
from .network import load_network, save_network
from .trainer import TrainConfig, constructive_train

__version__ = "0.1.0"

__all__ = [
    "DatasetHeader",
    "Partition",
    "SplitDataset",
    "TrainConfig",
    "constructive_train",
    "load_dataset",
    "load_network",
    "save_network",
]
