"""Classification decision rules and efficiency arithmetic.

Efficiency is the percentage of patterns in a partition whose predicted
class equals the target class.  Overall efficiency pools the correct
counts over all three partitions; it is NOT the mean of the three
per-partition percentages.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ArityMismatchError, EmptySetError
from .network import forward_outputs


class DecisionRule(Enum):
    """How output activations map to a class index."""

    ARGMAX = "argmax"        # one-hot targets, n_outputs >= 2
    THRESHOLD = "threshold"  # single output, cutoff 0.5


def rule_for_outputs(n_outputs):
    """Pick the decision rule implied by the output layer arity."""
    return DecisionRule.THRESHOLD if n_outputs == 1 else DecisionRule.ARGMAX


@dataclass(frozen=True)
class EfficiencyReport:
    """Correctly classified count over a partition."""

    classified: int
    total: int

    @property
    def percent(self):
        return 100.0 * self.classified / self.total


def classify(M, rule):
    """Class index of each row of an output or 0/1 target matrix.

    Argmax breaks ties toward the lowest index; the threshold rule gives
    class 1 where the single column is >= 0.5.
    """
    M = np.asarray(M, dtype=np.float64)
    if rule is DecisionRule.THRESHOLD:
        if M.ndim != 2 or M.shape[1] != 1:
            raise ArityMismatchError(
                f"threshold rule needs exactly 1 column, got {M.shape}"
            )
        return (M[:, 0] >= 0.5).astype(int)
    if M.ndim != 2 or M.shape[1] < 2:
        raise ArityMismatchError(
            f"argmax rule needs >= 2 columns, got {M.shape}"
        )
    return np.argmax(M, axis=1)


def efficiency(net, part, rule):
    """Count patterns of a partition whose predicted class is the target's."""
    if len(part) == 0:
        raise EmptySetError("efficiency over an empty pattern set")
    predicted = classify(forward_outputs(net, part.X), rule)
    classified = int(np.count_nonzero(predicted == classify(part.T, rule)))
    return EfficiencyReport(classified=classified, total=len(part))


def overall_efficiency(reports):
    """Pooled percent correct across the train/valid/test reports."""
    classified = sum(r.classified for r in reports)
    total = sum(r.total for r in reports)
    return 100.0 * classified / total
