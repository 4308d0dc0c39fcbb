"""Classification and efficiency arithmetic.

The output width decides how a pattern is classified, as in the Proben1
encoding: a single 0/1 output is thresholded at 0.5, and two or more
one-hot outputs take the argmax (``label`` in ``kernel.c``).  Efficiency
is the percentage of patterns in a partition whose predicted class
equals the target class.  Overall efficiency pools the correct counts
over all three partitions; it is NOT the mean of the three
per-partition percentages.
"""

from dataclasses import dataclass

from .kernel import classified


@dataclass(frozen=True)
class EfficiencyReport:
    """Correctly classified count over a partition."""

    classified: int
    total: int

    @property
    def percent(self):
        return 100.0 * self.classified / self.total


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
