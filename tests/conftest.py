import numpy as np
import pytest

from growbp.dataset import DatasetHeader, Partition, SplitDataset


def make_blob_dataset(n_train=30, n_valid=10, n_test=10, n_inputs=2,
                      one_hot=True, seed=7, gap=0.5):
    """Two well-separated class blobs in [0,1]^d, positionally partitioned.

    Linearly separable, so even an h=1 network can classify it perfectly;
    handy for fast end-to-end tests.
    """
    rng = np.random.default_rng(seed)
    total = n_train + n_valid + n_test
    labels = rng.integers(0, 2, size=total)
    centers = np.stack([np.full(n_inputs, 0.25), np.full(n_inputs, 0.75)])
    X = centers[labels] + rng.uniform(-gap / 2.5, gap / 2.5,
                                      size=(total, n_inputs))
    X = np.clip(X, 0.0, 1.0)
    T = np.eye(2)[labels] if one_hot else labels[:, None].astype(np.float64)
    header = DatasetHeader(
        n_inputs=n_inputs,
        n_outputs=2 if one_hot else 1,
        n_train=n_train,
        n_valid=n_valid,
        n_test=n_test,
    )
    a, b = n_train, n_train + n_valid
    return SplitDataset(
        header=header,
        train=Partition(X[:a], T[:a]),
        valid=Partition(X[a:b], T[a:b]),
        test=Partition(X[b:], T[b:]),
    )


@pytest.fixture
def blob_dataset():
    return make_blob_dataset()


@pytest.fixture
def blob_dataset_single_output():
    return make_blob_dataset(one_hot=False)
