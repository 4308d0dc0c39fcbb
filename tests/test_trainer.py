import copy
import math

import numpy as np
import pytest

import oracle
from growbp import kernel, trainer
from growbp.cli import ExperimentConfig, load_any
from growbp.dataset import DatasetHeader, Partition, SplitDataset
from growbp.errors import (
    ArityMismatchError,
    ConfigError,
    EmptySetError,
    MalformedValueError,
)
from growbp.kernel import pattern_errors
from growbp.network import Network, forward_outputs, init_network
from growbp.profiles import PRESETS
from growbp.trainer import (
    STOP_ACCEPTED,
    STOP_H_MAX,
    GrowthHistory,
    PhaseRecord,
    TrainConfig,
    average_error,
    constructive_train,
    train_epoch,
    train_phase,
)


def random_network(rng, n_inputs, h, n_outputs, scale=1.0):
    return Network(
        rng.uniform(-scale, scale, size=(h, n_inputs + 1)),
        rng.uniform(-scale, scale, size=(n_outputs, h + 1)),
    )


def pattern_xi(net, x, d):
    """Half the sum of squared output errors for one pattern."""
    e = np.asarray(d) - np.asarray(forward_outputs(net, [x]))[0]
    return 0.5 * float(e @ e)


def one_row(x, d):
    return Partition([x], [d])


def one_step(net, x, d, eta):
    """One online step through the entry point: a one-pattern epoch."""
    return train_epoch(net, one_row(x, d), eta)


def oracle_steps(net, X, T, order, eta):
    """The oracle's steps over ``order``; the new weight matrices."""
    hw, ow = net.hidden_weights.tolist(), net.output_weights.tolist()
    X, T = np.asarray(X), np.asarray(T)
    for i in order:
        oracle.step(hw, ow, X[i].tolist(), T[i].tolist(), eta)
    return np.array(hw), np.array(ow)


def one_pattern_dataset(x, train_target, valid_target, test_target):
    header = DatasetHeader(len(x), 1, 1, 1, 1)
    return SplitDataset(
        header,
        one_row(x, [train_target]),
        one_row(x, [valid_target]),
        one_row(x, [test_target]),
    )


class TestTrainConfig:
    def test_defaults_are_valid(self):
        cfg = TrainConfig()
        assert cfg.eta == 0.7
        assert cfg.stopping_set == "validation"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eta": 0.0},
            {"eta": -0.1},
            {"h_max": 0},
            {"epochs_per_phase": 0},
            {"patience": 0},
            {"xi_target": -1e-9},
            {"stopping_set": "train"},
            {"h_max": "3"},
            {"h_max": True},
            {"h_max": 3.0},
            {"eta": True},
            {"eta": math.inf},
            {"eta": 10 ** 400},
            {"xi_target": math.nan},
            {"eff_target": math.nan},
            {"init_range": 0.0},
            {"init_range": math.nan},
            {"init_range": math.inf},
            {"init_range": 1e308},
            {"seed": -1},
            {"stopping_set": None},
            {"shuffle": 1},
            {"report_only": "yes"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

    def test_unreachable_targets_allowed(self):
        TrainConfig(eff_target=101.0)
        TrainConfig(xi_target=math.inf, eff_target=0.0)
        TrainConfig(xi_target=0.0, eff_target=-math.inf)

    def test_numpy_scalars_become_python_values(self):
        cfg = TrainConfig(eta=np.float32(0.5), h_max=np.int64(3),
                          shuffle=np.bool_(True), eff_target=95)
        assert (type(cfg.eta), type(cfg.h_max), type(cfg.shuffle)) == (
            float, int, bool)
        assert cfg.eta == 0.5 and cfg.h_max == 3 and cfg.shuffle is True
        assert type(cfg.eff_target) is float


class TestPatternError:
    def test_perfect_pattern(self):
        net = Network(np.zeros((1, 2)), np.array([[0.0, 800.0]]))
        assert average_error(net, one_row([0.3], [1.0])) == 0.0

    def test_single_output(self):
        # Output bias log(4) gives y = 0.8, so xi = 0.2**2 / 2.
        net = Network(np.zeros((1, 2)), np.array([[0.0, np.log(4.0)]]))
        assert np.isclose(average_error(net, one_row([0.3], [1.0])), 0.02)

    def test_maximally_wrong_one_hot(self):
        net = Network(np.zeros((1, 2)), np.array([[0.0, -800.0],
                                                  [0.0, 800.0]]))
        assert average_error(net, one_row([0.3], [1.0, 0.0])) == 1.0

    def test_arity_mismatch(self):
        net = Network(np.zeros((1, 2)), np.zeros((1, 2)))
        with pytest.raises(ArityMismatchError):
            average_error(net, one_row([0.3], [1.0, 0.0]))
        with pytest.raises(ArityMismatchError):
            average_error(net, one_row([0.3, 0.1], [1.0]))


class TestAverageError:
    def test_zero_weight_one_hot_quarter(self):
        net = Network(np.zeros((1, 3)), np.zeros((2, 2)))
        part = Partition([[0.2, 0.4], [0.9, 0.1]], [[1.0, 0.0], [0.0, 1.0]])
        assert average_error(net, part) == 0.25

    def test_matches_per_pattern_mean(self):
        rng = np.random.default_rng(3)
        net = random_network(rng, 4, 3, 2)
        part = Partition(rng.uniform(0, 1, (17, 4)),
                         np.eye(2)[rng.integers(0, 2, 17)])
        direct = sum(pattern_xi(net, x, d)
                     for x, d in zip(part.X.tolist(), part.T.tolist()))
        assert np.isclose(average_error(net, part), direct / 17, atol=1e-12)

    def test_empty_set(self):
        net = Network(np.zeros((1, 3)), np.zeros((1, 2)))
        with pytest.raises(EmptySetError):
            average_error(net, Partition(np.empty((0, 2)),
                                         np.empty((0, 1))))


def numeric_gradient(net, x, d, step=1e-5):
    """Central-difference gradient of this pattern's xi in each weight."""
    grads = []
    for mat in (net.hidden_weights, net.output_weights):
        g = np.zeros_like(mat)
        for idx in np.ndindex(mat.shape):
            orig = mat[idx]
            mat[idx] = orig + step
            plus = pattern_xi(net, x, d)
            mat[idx] = orig - step
            minus = pattern_xi(net, x, d)
            mat[idx] = orig
            g[idx] = (plus - minus) / (2 * step)
        grads.append(g)
    return grads


class TestBackpropStep:
    def test_matches_numeric_gradient(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            net = random_network(rng, 3, 4, 2)
            x = rng.uniform(-1, 1, 3)
            d = np.eye(2)[int(rng.integers(0, 2))]
            g_hidden, g_output = numeric_gradient(net, x, d)
            before_hw = np.array(net.hidden_weights)
            before_ow = np.array(net.output_weights)
            eta = 0.7
            one_step(net, x, d, eta)
            step_hw = (np.asarray(net.hidden_weights) - before_hw) / eta
            step_ow = (np.asarray(net.output_weights) - before_ow) / eta
            for taken, grad in ((step_hw, g_hidden), (step_ow, g_output)):
                err = np.abs(taken + grad)
                tol = np.maximum(1e-4 * np.abs(grad), 1e-7)
                assert np.all(err <= tol)

    def test_updates_in_place_and_returns_net(self):
        rng = np.random.default_rng(1)
        net = random_network(rng, 2, 2, 1)
        out = one_step(net, np.array([0.1, 0.9]), np.array([1.0]), 0.5)
        assert out is net

    def test_zero_error_is_fixed_point(self):
        rng = np.random.default_rng(5)
        net = random_network(rng, 3, 2, 2)
        x = rng.uniform(0, 1, 3)
        d = np.asarray(forward_outputs(net, [x]))[0]
        hw = np.array(net.hidden_weights)
        ow = np.array(net.output_weights)
        one_step(net, x, d, 0.7)
        assert np.array_equal(net.hidden_weights, hw)
        assert np.array_equal(net.output_weights, ow)

    def test_zero_eta_changes_nothing(self):
        rng = np.random.default_rng(6)
        net = random_network(rng, 3, 2, 2)
        hw = np.array(net.hidden_weights)
        ow = np.array(net.output_weights)
        one_step(net, rng.uniform(0, 1, 3), np.array([1.0, 0.0]), 0.0)
        assert np.array_equal(net.hidden_weights, hw)
        assert np.array_equal(net.output_weights, ow)

    def test_small_step_strictly_decreases_pattern_error(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            net = random_network(rng, 4, 3, 2)
            x = rng.uniform(0, 1, 4)
            d = np.eye(2)[int(rng.integers(0, 2))]
            before = pattern_xi(net, x, d)
            one_step(net, x, d, 1e-4)
            assert pattern_xi(net, x, d) < before

    def test_target_arity_checked(self):
        net = init_network(3, 2, 1.0, np.random.default_rng(0))
        with pytest.raises(ArityMismatchError):
            one_step(net, np.array([0.1, 0.2, 0.3]), np.array([1.0]), 0.7)


class TestTrainEpoch:
    def test_single_pattern_epoch_equals_one_step(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 1, 3)
        d = np.array([0.0, 1.0])
        a = random_network(rng, 3, 2, 2)
        hw, ow = oracle_steps(a, [x], [d], [0], 0.7)
        train_epoch(a, one_row(x, d), 0.7)
        assert np.array_equal(a.hidden_weights, hw)
        assert np.array_equal(a.output_weights, ow)

    def test_epoch_equals_sequential_steps(self):
        rng = np.random.default_rng(9)
        part = Partition(rng.uniform(0, 1, (6, 3)), np.eye(2)[np.arange(6) % 2])
        start = random_network(rng, 3, 2, 2)
        # File order, then one permutation drawn from seed 1's stream.
        for seed, order in ((None, range(6)),
                            (1, np.random.default_rng(1).permutation(6))):
            hw, ow = oracle_steps(start, part.X, part.T, order, 0.7)
            a = start.copy()
            rng = None if seed is None else kernel.Generator(seed)
            train_epoch(a, part, 0.7, rng)
            assert np.array_equal(a.hidden_weights, hw)
            assert np.array_equal(a.output_weights, ow)

    def test_empty_train_set(self):
        net = init_network(2, 1, 1.0, np.random.default_rng(0))
        with pytest.raises(EmptySetError):
            train_epoch(net, Partition(np.empty((0, 2)),
                                       np.empty((0, 1))), 0.7)

    @pytest.mark.parametrize("n_inputs,n_targets", [(3, 1), (2, 2), (1, 1)])
    def test_arity_checked_before_the_kernel(self, n_inputs, n_targets):
        net = init_network(2, 1, 1.0, np.random.default_rng(0))
        before = net.copy()
        part = Partition(np.ones((4, n_inputs)), np.ones((4, n_targets)))
        with pytest.raises(ArityMismatchError):
            train_epoch(net, part, 0.7, np.random.default_rng(0))
        assert np.array_equal(net.hidden_weights, before.hidden_weights)
        assert np.array_equal(net.output_weights, before.output_weights)


class TestTrainPhase:
    def test_patience_stops_on_rising_validation_error(self):
        # Training pulls the output toward 1 while validation wants 0 on
        # the same input, so validation error rises every epoch: the first
        # epoch is the only improvement and patience=1 ends the phase on
        # the second.
        data = one_pattern_dataset([0.3, 0.7], 1.0, 0.0, 0.0)
        cfg = TrainConfig(eta=0.5, epochs_per_phase=100, patience=1)
        net = init_network(2, 1, 1.0, np.random.default_rng(2))
        ref = net.copy()
        best, used, record = train_phase(net, data, cfg)
        assert used == 2
        train_epoch(ref, data.train, cfg.eta)
        assert np.array_equal(best.hidden_weights, ref.hidden_weights)
        assert np.array_equal(best.output_weights, ref.output_weights)
        assert record.epochs_cumulative == 2
        assert record.h == 1

    def test_budget_exhaustion_when_always_improving(self):
        data = one_pattern_dataset([0.3, 0.7], 1.0, 1.0, 1.0)
        cfg = TrainConfig(eta=0.5, epochs_per_phase=25, patience=1)
        net = init_network(2, 1, 1.0, np.random.default_rng(2))
        _, used, record = train_phase(net, data, cfg)
        assert used == 25
        assert record.epochs_cumulative == 25

    def test_input_network_not_mutated(self):
        data = one_pattern_dataset([0.3, 0.7], 1.0, 1.0, 1.0)
        cfg = TrainConfig(eta=0.5, epochs_per_phase=5, patience=5)
        net = init_network(2, 1, 1.0, np.random.default_rng(2))
        hw = np.array(net.hidden_weights)
        ow = np.array(net.output_weights)
        train_phase(net, data, cfg)
        assert np.array_equal(net.hidden_weights, hw)
        assert np.array_equal(net.output_weights, ow)

    def test_cumulative_epochs_offset(self):
        data = one_pattern_dataset([0.3, 0.7], 1.0, 1.0, 1.0)
        cfg = TrainConfig(eta=0.5, epochs_per_phase=4, patience=4)
        net = init_network(2, 1, 1.0, np.random.default_rng(2))
        _, used, record = train_phase(net, data, cfg, epochs_before=10)
        assert record.epochs_cumulative == 10 + used


    def test_file_order_phase_enters_the_kernel_twice_per_epoch(
            self, blob_dataset, monkeypatch):
        # Each kernel call gives up the GIL, so on threads each is a
        # hand-over.  An epoch and its validation error take one call each;
        # the record takes three classified counts and two errors.
        lib, calls = kernel._lib, []

        class Counting:
            def __getattr__(self, name):
                fn = getattr(lib, name)

                def counted(*args):
                    calls.append(name)
                    return fn(*args)

                return counted

        monkeypatch.setattr(kernel, "_lib", Counting())
        # Flipped validation targets end the phase on patience; the budget
        # ends the other.
        flipped = SplitDataset(blob_dataset.header, blob_dataset.train,
                               Partition(blob_dataset.valid.X,
                                         1.0 - np.asarray(
                                             blob_dataset.valid.T)),
                               blob_dataset.test)
        for data in (blob_dataset, flipped):
            calls.clear()
            net = init_network(2, 2, 1.0, np.random.default_rng(0))
            cfg = TrainConfig(epochs_per_phase=12, patience=3)
            _, used, _ = train_phase(net, data, cfg)
            assert (used == 12) == (data is blob_dataset)
            assert len(calls) <= 2 * used + 5, sorted(set(calls))


def reference_phase(net, data, cfg, rng=None, epochs_before=0):
    """``train_phase`` as a plain loop that snapshots with ``copy()``.

    Under ``shuffle`` each epoch trains with a copy of the stream, and the
    reference moves the stream itself on by one permutation of the
    training rows, so a phase that drew more or less would grow different
    units afterwards.
    """
    if rng is None:
        rng = kernel.Generator(cfg.seed)
    work = net.copy()
    best_net, best_err, bad, used = None, math.inf, 0, 0
    for _ in range(cfg.epochs_per_phase):
        shuffle = copy.deepcopy(rng) if cfg.shuffle else None
        if cfg.shuffle:
            rng.permutation(len(data.train))
        train_epoch(work, data.train, cfg.eta, shuffle)
        used += 1
        err = 0.0
        for e in pattern_errors(work, data.valid):
            err = err + e
        err = err / len(data.valid)
        if err < best_err:
            best_err, best_net, bad = err, work.copy(), 0
        else:
            bad += 1
            if bad >= cfg.patience:
                break
    return best_net, used, trainer._phase_record(best_net, data,
                                                 epochs_before + used)


class TestPhaseAgainstReference:
    @pytest.mark.parametrize("shuffle", [False, True])
    def test_same_histories_and_weights(self, shuffle, monkeypatch):
        data = load_any(ExperimentConfig("heart1"))
        cfgs = [TrainConfig(**{**PRESETS["heart1"], "h_max": 3},
                            report_only=True, shuffle=shuffle, seed=seed)
                for seed in (0, 1)]
        for cfg in cfgs:
            got = constructive_train(data, cfg)
            with monkeypatch.context() as m:
                m.setattr(trainer, "train_phase", reference_phase)
                want = constructive_train(data, cfg)
            assert got[1] == want[1]
            assert len(got[1].phases) == 3
            for name in ("hidden_weights", "output_weights"):
                assert (getattr(got[0], name).tobytes()
                        == getattr(want[0], name).tobytes())

    def test_returned_network_shares_no_memory(self, blob_dataset,
                                               monkeypatch):
        worked = []

        def recording_epoch(net, *args):
            worked.append(net)
            return train_epoch(net, *args)

        monkeypatch.setattr(trainer, "train_epoch", recording_epoch)
        net = init_network(2, 2, 1.0, np.random.default_rng(2))
        cfg = TrainConfig(epochs_per_phase=30, patience=30)
        best, used, _ = train_phase(net, blob_dataset, cfg)
        assert used == len(worked) == 30
        work = worked[0]
        assert all(w is work for w in worked)
        for a in (best.hidden_weights, best.output_weights):
            for other in (net, work):
                for b in (other.hidden_weights, other.output_weights):
                    assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("bad_epoch", [1, 3])
    def test_non_finite_snapshot_is_rejected(self, blob_dataset, bad_epoch,
                                             monkeypatch):
        # Every epoch improves, and from ``bad_epoch`` on a weight is
        # infinite, as an overflowing update leaves it.
        epochs = []

        def overflowing_epoch(net, *args):
            train_epoch(net, *args)
            epochs.append(net)
            if len(epochs) >= bad_epoch:
                net.hidden_weights[0, 0] = math.inf
            return net

        monkeypatch.setattr(trainer, "train_epoch", overflowing_epoch)
        monkeypatch.setattr(trainer, "average_error",
                            lambda net, part: 1.0 / len(epochs))
        net = init_network(2, 2, 1.0, np.random.default_rng(2))
        cfg = TrainConfig(epochs_per_phase=5, patience=5)
        with pytest.raises(MalformedValueError,
                           match="weights must be finite"):
            train_phase(net, blob_dataset, cfg)

    def test_non_finite_weights_with_nan_validation_error_are_rejected(self):
        # The first epoch makes a hidden weight infinite, so the
        # validation error is NaN and never improves on the start.
        data = SplitDataset(DatasetHeader(1, 1, 1, 1, 1),
                            Partition([[1e300]], [[0.0]]),
                            Partition([[0.0]], [[1.0]]),
                            Partition([[0.0]], [[1.0]]))
        net = Network(np.full((1, 2), 1e-300), np.ones((1, 2)))
        cfg = TrainConfig(eta=1e300, patience=2)
        with pytest.raises(MalformedValueError,
                           match="weights must be finite"):
            train_phase(net, data, cfg)

    def test_interrupted_flag_stops_the_phase_before_its_next_epoch(
            self, blob_dataset, monkeypatch):
        # An interrupted sweep sets the flag while a seed is mid-phase on
        # another thread: the phase raises before training again.
        epochs = []

        def interrupting_epoch(*args):
            epochs.append(train_epoch(*args))
            if len(epochs) == 3:
                trainer.interrupted = True

        monkeypatch.setattr(trainer, "train_epoch", interrupting_epoch)
        monkeypatch.setattr(trainer, "interrupted", False)  # put back after
        net = init_network(2, 2, 1.0, np.random.default_rng(0))
        cfg = TrainConfig(epochs_per_phase=50, patience=50)
        with pytest.raises(KeyboardInterrupt):
            train_phase(net, blob_dataset, cfg)
        assert len(epochs) == 3
        trainer.interrupted = False
        assert train_phase(net, blob_dataset, cfg)[1] == 50


class TestConstructiveTrain:
    def test_vacuous_targets_accept_first_phase(self, blob_dataset):
        cfg = TrainConfig(
            xi_target=math.inf, eff_target=0.0,
            epochs_per_phase=3, patience=3,
        )
        net, history = constructive_train(blob_dataset, cfg)
        assert history.stop_reason == STOP_ACCEPTED
        assert len(history.phases) == 1
        assert net.h == 1
        assert history.selected_index() == 0

    def test_unreachable_targets_grow_to_h_max(self, blob_dataset):
        cfg = TrainConfig(
            eff_target=101.0, h_max=3,
            epochs_per_phase=3, patience=3,
        )
        net, history = constructive_train(blob_dataset, cfg)
        assert history.stop_reason == STOP_H_MAX
        assert [rec.h for rec in history.phases] == [1, 2, 3]
        assert net.h == history.phases[history.selected_index()].h

    def test_deterministic_repeat(self, blob_dataset):
        cfg = TrainConfig(
            eff_target=101.0, h_max=2, epochs_per_phase=5, patience=5,
            shuffle=True, seed=99,
        )
        net1, hist1 = constructive_train(blob_dataset, cfg)
        net2, hist2 = constructive_train(blob_dataset, cfg)
        assert hist1 == hist2
        assert np.array_equal(net1.hidden_weights, net2.hidden_weights)
        assert np.array_equal(net1.output_weights, net2.output_weights)

    def test_different_seed_changes_run(self, blob_dataset):
        cfg1 = TrainConfig(epochs_per_phase=3, patience=3, seed=0,
                           eff_target=101.0, h_max=1)
        cfg2 = TrainConfig(epochs_per_phase=3, patience=3, seed=1,
                           eff_target=101.0, h_max=1)
        net1, _ = constructive_train(blob_dataset, cfg1)
        net2, _ = constructive_train(blob_dataset, cfg2)
        assert not np.array_equal(net1.hidden_weights, net2.hidden_weights)

    def test_empty_partition_rejected(self, blob_dataset):
        broken = SplitDataset.__new__(SplitDataset)
        object.__setattr__(broken, "header", blob_dataset.header)
        object.__setattr__(broken, "train", blob_dataset.train)
        object.__setattr__(broken, "valid",
                           Partition(np.empty((0, 2)), np.empty((0, 2))))
        object.__setattr__(broken, "test", blob_dataset.test)
        cfg = TrainConfig(epochs_per_phase=2, patience=2)
        with pytest.raises(EmptySetError):
            constructive_train(broken, cfg)

    @pytest.mark.parametrize("stopping_set, stop_reason, hs", [
        ("test", STOP_ACCEPTED, [1]),
        ("validation", STOP_H_MAX, [1, 2]),
    ])
    def test_stopping_set_is_where_efficiency_is_measured(
            self, stopping_set, stop_reason, hs):
        # Trained towards 1, the one pattern is classified right on the
        # test partition and wrong on validation, whose target is 0.
        data = one_pattern_dataset([0.5, 0.2], 1.0, 0.0, 1.0)
        cfg = TrainConfig(stopping_set=stopping_set, xi_target=1.0,
                          eff_target=100.0, h_max=2, epochs_per_phase=5,
                          patience=5, init_range=0.01)
        _, history = constructive_train(data, cfg)
        assert history.stop_reason == stop_reason
        assert [(r.h, r.valid_eff, r.test_eff) for r in history.phases] == [
            (h, 0.0, 100.0) for h in hs]

    def test_separable_blobs_reach_full_efficiency(self, blob_dataset):
        cfg = TrainConfig(
            xi_target=math.inf, eff_target=100.0,
            epochs_per_phase=200, patience=20, h_max=3, seed=1,
        )
        net, history = constructive_train(blob_dataset, cfg)
        assert history.stop_reason == STOP_ACCEPTED
        assert history.phases[-1].valid_eff == 100.0


class TestBundledBenchmarkPhase:
    def test_first_topology_reaches_mid_nineties_on_cancer1(self):
        # 100-epoch budget at eta=0.7 on the bundled cytology data: the
        # best of 10 seeds lands within 2 points of 96.57% training
        # efficiency at h=1.
        from growbp.dataset import load_dataset
        from growbp.profiles import bundled_dataset_path

        data = load_dataset(bundled_dataset_path("cancer1"))
        cfg = TrainConfig(eta=0.7, epochs_per_phase=100, patience=100)
        best_eff = 0.0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            net = init_network(9, 2, 1.0, rng)
            _, _, record = train_phase(net, data, cfg, rng=rng)
            best_eff = max(best_eff, record.train_eff)
        assert abs(best_eff - 96.57) <= 2.0


class TestGrowthHistory:
    def make_record(self, h, overall):
        return PhaseRecord(
            h=h, epochs_cumulative=h * 10,
            train_classified=0, train_eff=0.0, train_mse=1.0,
            valid_classified=0, valid_eff=0.0, valid_mse=1.0,
            test_classified=0, test_eff=0.0, overall_eff=overall,
        )

    def test_accepted_selects_last(self):
        hist = GrowthHistory(
            (self.make_record(1, 90.0), self.make_record(2, 80.0)),
            STOP_ACCEPTED,
        )
        assert hist.selected_index() == 1

    def test_h_max_selects_best_overall(self):
        hist = GrowthHistory(
            (
                self.make_record(1, 80.0),
                self.make_record(2, 91.0),
                self.make_record(3, 85.0),
            ),
            STOP_H_MAX,
        )
        assert hist.selected_index() == 1

    def test_ties_favor_smaller_network(self):
        hist = GrowthHistory(
            (
                self.make_record(1, 90.0),
                self.make_record(2, 90.0),
                self.make_record(3, 89.0),
            ),
            STOP_H_MAX,
        )
        assert hist.selected_index() == 0

    @pytest.mark.parametrize("stop_reason", ["banana", "", None, 1])
    def test_unknown_stop_reason(self, stop_reason):
        with pytest.raises(ConfigError, match="stop_reason must be"):
            GrowthHistory((self.make_record(1, 90.0),), stop_reason)

    def test_first_phase_must_be_h_1(self):
        with pytest.raises(ConfigError) as exc:
            GrowthHistory((self.make_record(2, 90.0),), STOP_ACCEPTED)
        assert str(exc.value) == "the first phase has h=2, not h=1"
