"""Classification and efficiency arithmetic.

The output width decides how a pattern is classified, as in the Proben1
encoding: a single 0/1 output is thresholded at 0.5, and two or more
one-hot outputs take the argmax.  Efficiency is the percentage of
patterns in a partition whose predicted class equals the target class.
Overall efficiency pools the correct counts over all three partitions;
it is NOT the mean of the three per-partition percentages.
"""

from array import array
from dataclasses import dataclass

from .errors import ArityMismatchError
from .kernel import classified, label, matrix


@dataclass(frozen=True)
class EfficiencyReport:
    """Correctly classified count over a partition."""

    classified: int
    total: int

    @property
    def percent(self):
        return 100.0 * self.classified / self.total


def classify(M):
    """Class index of each row of an output or 0/1 target matrix, as an
    ``array('q')``.

    One column gives class 1 where it is >= 0.5; two or more columns give
    the argmax, with ties going to the lowest index
    (``growbp.kernel.label``).
    """
    flat, (n, width) = matrix(M, ArityMismatchError)
    if width == 0:
        raise ArityMismatchError(f"cannot classify shape {(n, width)}")
    return array("q", [label(flat[i:i + width])
                       for i in range(0, n * width, width)])


def efficiency(net, part):
    """Count patterns of a partition whose predicted class is the target's,
    in one pass of the kernel."""
    return EfficiencyReport(classified=classified(net, part),
                            total=len(part))


def overall_efficiency(reports):
    """Pooled percent correct across the train/valid/test reports."""
    correct = sum(r.classified for r in reports)
    total = sum(r.total for r in reports)
    return 100.0 * correct / total
