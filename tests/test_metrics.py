import numpy as np
import pytest

from growbp.dataset import Partition
from growbp.errors import ArityMismatchError, EmptySetError
from growbp.metrics import EfficiencyReport, efficiency, overall_efficiency
from growbp.network import Network
from oracle import forward, label


def outputs(net, x):
    """The oracle's outputs for one pattern."""
    return forward(net.hidden_weights.tolist(), net.output_weights.tolist(),
                   x)[1]


def classes(M):
    """The class of each row of an output or 0/1 target matrix."""
    return [label(row) for row in np.asarray(M, dtype=np.float64).tolist()]


def classify_row(row):
    """Class of a single output or target vector."""
    return label(np.asarray(row, dtype=np.float64).tolist())


# The class rule is kernel.c's label, transcribed as oracle.label; these
# cases pin its threshold, argmax and tie rules.
class TestClassifyByWidth:
    def test_single_column_thresholds(self):
        assert classes([[0.5], [0.4999], [0.9]]) == [1, 0, 1]

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_multi_column_argmaxes(self, n):
        # A threshold on the first column would give 0 and 1 here.
        M = np.full((2, n), 0.1)
        M[0, -1] = 0.9
        M[1, :2] = [0.7, 0.8]
        assert classes(M) == [n - 1, 1]


class TestClassify:
    def test_argmax_picks_largest(self):
        assert classify_row([0.9, 0.2]) == 0
        assert classify_row([0.2, 0.9]) == 1
        assert classify_row([0.1, 0.3, 0.8]) == 2

    def test_argmax_tie_goes_to_lowest_index(self):
        assert classify_row([0.5, 0.5]) == 0
        assert classify_row([0.2, 0.7, 0.7]) == 1

    def test_threshold_cutoff_is_inclusive(self):
        assert classify_row([0.5]) == 1
        assert classify_row([0.4999]) == 0
        assert classify_row([0.9]) == 1

    def test_monotone_transform_keeps_argmax_class(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            y = rng.uniform(0, 1, size=int(rng.integers(2, 6)))
            assert classify_row(y) == classify_row(y ** 3)

    def test_rows_classified_independently(self):
        M = np.array([[0.9, 0.2], [0.5, 0.5], [0.1, 0.3]])
        assert classes(M) == [0, 0, 1]
        col = np.array([[0.5], [0.2], [1.0]])
        assert classes(col) == [1, 0, 1]

    def test_target_class_decodes_encodings(self):
        assert classify_row([1.0, 0.0]) == 0
        assert classify_row([0.0, 1.0]) == 1
        assert classify_row([1.0]) == 1
        assert classify_row([0.0]) == 0


class TestEfficiency:
    def test_matches_per_pattern_loop(self):
        rng = np.random.default_rng(11)
        net = Network(
            rng.uniform(-1, 1, (3, 5)), rng.uniform(-1, 1, (2, 4))
        )
        part = Partition(rng.uniform(0, 1, (40, 4)),
                         np.eye(2)[rng.integers(0, 2, 40)])
        rep = efficiency(net, part)
        expected = sum(classify_row(outputs(net, x)) == classify_row(t)
                       for x, t in zip(part.X.tolist(), part.T.tolist()))
        assert rep.classified == expected
        assert rep.total == 40

    def test_threshold_rule_matches_loop(self):
        rng = np.random.default_rng(12)
        net = Network(
            rng.uniform(-1, 1, (2, 4)), rng.uniform(-1, 1, (1, 3))
        )
        part = Partition(rng.uniform(0, 1, (40, 3)),
                         rng.integers(0, 2, (40, 1)))
        rep = efficiency(net, part)
        expected = sum(classify_row(outputs(net, x)) == classify_row(t)
                       for x, t in zip(part.X.tolist(), part.T.tolist()))
        assert rep.classified == expected

    def test_all_correct_is_hundred_percent(self, blob_dataset):
        # Big hand-made weights separate the two blobs perfectly: the
        # hidden unit fires on the sum of coordinates.
        hw = np.array([[20.0, 20.0, -20.0]])
        ow = np.array([[-20.0, 10.0], [20.0, -10.0]])
        net = Network(hw, ow)
        rep = efficiency(net, blob_dataset.train)
        assert rep.percent == 100.0

    @pytest.mark.parametrize("n_targets", [1, 3])
    def test_target_width_must_match_outputs(self, n_targets):
        net = Network(np.zeros((1, 3)), np.zeros((2, 2)))
        part = Partition(np.zeros((4, 2)), np.zeros((4, n_targets)))
        with pytest.raises(ArityMismatchError):
            efficiency(net, part)

    def test_empty_set(self):
        net = Network(np.zeros((1, 3)), np.zeros((2, 2)))
        with pytest.raises(EmptySetError):
            efficiency(net, Partition(np.empty((0, 2)), np.empty((0, 2))))


class TestOverallEfficiency:
    def test_breast_mass_benchmark_value(self):
        reports = (
            EfficiencyReport(338, 350),
            EfficiencyReport(169, 175),
            EfficiencyReport(172, 174),
        )
        assert f"{overall_efficiency(reports):.5f}" == "97.13877"

    def test_cardiac_benchmark_value(self):
        reports = (
            EfficiencyReport(143, 152),
            EfficiencyReport(64, 76),
            EfficiencyReport(60, 75),
        )
        assert f"{overall_efficiency(reports):.5f}" == "88.11881"

    def test_glucose_benchmark_value(self):
        reports = (
            EfficiencyReport(300, 384),
            EfficiencyReport(141, 192),
            EfficiencyReport(132, 192),
        )
        assert f"{overall_efficiency(reports):.5f}" == "74.60938"

    def test_pools_counts_instead_of_averaging_percentages(self):
        reports = (
            EfficiencyReport(143, 152),
            EfficiencyReport(64, 76),
            EfficiencyReport(60, 75),
        )
        pooled = overall_efficiency(reports)
        mean_of_percents = sum(r.percent for r in reports) / 3
        assert pooled == 100.0 * 267 / 303
        assert abs(pooled - mean_of_percents) > 1.0

    def test_percent_property(self):
        assert EfficiencyReport(1, 8).percent == 12.5
