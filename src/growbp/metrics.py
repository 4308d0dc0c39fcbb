"""Classification and efficiency arithmetic.

The output width decides how a pattern is classified, as in the Proben1
encoding: a single 0/1 output is thresholded at 0.5, and two or more
one-hot outputs take the argmax.  Efficiency is the percentage of
patterns in a partition whose predicted class equals the target class.
Overall efficiency pools the correct counts over all three partitions;
it is NOT the mean of the three per-partition percentages.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ArityMismatchError
from .kernel import check_fit
from .network import forward_outputs


@dataclass(frozen=True)
class EfficiencyReport:
    """Correctly classified count over a partition."""

    classified: int
    total: int

    @property
    def percent(self):
        return 100.0 * self.classified / self.total


def classify(M):
    """Class index of each row of an output or 0/1 target matrix.

    One column gives class 1 where it is >= 0.5; two or more columns give
    the argmax, with ties going to the lowest index.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[1] == 0:
        raise ArityMismatchError(f"cannot classify shape {M.shape}")
    if M.shape[1] == 1:
        return (M[:, 0] >= 0.5).astype(int)
    return np.argmax(M, axis=1)


def efficiency(net, part):
    """Count patterns of a partition whose predicted class is the target's."""
    check_fit(net, part, "efficiency")
    predicted = classify(forward_outputs(net, part.X))
    classified = int(np.count_nonzero(predicted == classify(part.T)))
    return EfficiencyReport(classified=classified, total=len(part))


def overall_efficiency(reports):
    """Pooled percent correct across the train/valid/test reports."""
    classified = sum(r.classified for r in reports)
    total = sum(r.total for r in reports)
    return 100.0 * classified / total
