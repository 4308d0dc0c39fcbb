"""Online backpropagation and the constructive hidden-unit growth loop.

Training is online: weights are adjusted immediately after every pattern.
For one pattern with target d and output y, the output-layer delta is
e * y * (1 - y) with e = d - y, and the hidden-layer delta backpropagates
through the pre-update output weights, so a single step equals one
gradient-descent step of size eta on the half-sum-of-squared-errors of
that pattern.

A phase trains the current topology for a bounded number of epochs,
tracking the network snapshot with the lowest validation error and ending
early when that error stops improving (hold-out early stopping).  The
growth loop starts from a single hidden unit, checks the acceptance test
after each phase, and otherwise adds one freshly initialized hidden unit
and trains again, up to a hard cap.
"""

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError
from .kernel import pattern_errors, train_epoch
from .metrics import efficiency, overall_efficiency
from .network import Network, add_hidden_unit, check_init_range, init_network

STOP_ACCEPTED = "accepted"
STOP_H_MAX = "h_max_reached"


def check_fields(obj):
    """Check and normalise a dataclass's int, float, str and bool fields.

    Bools and strings are rejected for numeric fields, numpy scalars are
    accepted and stored as the matching Python type, and NaN is rejected
    for every float field.  Raises :class:`ConfigError`.
    """
    accepted = {int: numbers.Integral, float: numbers.Real, str: str,
                bool: (bool, np.bool_)}
    for f in fields(obj):
        if f.type not in accepted:
            continue
        value = getattr(obj, f.name)
        if not isinstance(value, accepted[f.type]) or (
            f.type in (int, float) and isinstance(value, bool)
        ):
            raise ConfigError(
                f"{f.name} must be {f.type.__name__}, got {value!r}"
            )
        try:
            value = f.type(value)
        except OverflowError:
            raise ConfigError(
                f"{f.name} is out of range: {value!r}"
            ) from None
        if f.type is float and math.isnan(value):
            raise ConfigError(f"{f.name} must not be NaN")
        object.__setattr__(obj, f.name, value)  # frozen dataclasses too


@dataclass
class TrainConfig:
    """Hyperparameters and acceptance thresholds for a constructive run.

    ``xi_target`` and ``eff_target`` gate acceptance at the end of each
    phase: the run stops growing once validation error is at most
    ``xi_target`` and the efficiency on ``stopping_set`` reaches
    ``eff_target`` percent.  Defaults make acceptance effectively
    unreachable, so an unconfigured run explores every h up to ``h_max``
    and reports the best network found.  ``report_only`` never accepts,
    whatever the targets, so every h up to ``h_max`` is trained.
    """

    eta: float = 0.7
    epochs_per_phase: int = 500
    patience: int = 50
    xi_target: float = 0.0
    eff_target: float = 100.0
    h_max: int = 8
    init_range: float = 1.0
    seed: int = 0
    stopping_set: str = "validation"
    shuffle: bool = False
    grow_zero_output: bool = False
    report_only: bool = field(
        default=False,
        metadata={"help": "ignore acceptance targets, explore all h"},
    )

    def __post_init__(self):
        check_fields(self)
        if not 0 < self.eta < math.inf:
            raise ConfigError(f"eta must be > 0 and finite, got {self.eta}")
        if self.h_max < 1:
            raise ConfigError(f"h_max must be >= 1, got {self.h_max}")
        if self.epochs_per_phase < 1:
            raise ConfigError(
                f"epochs_per_phase must be >= 1, got {self.epochs_per_phase}"
            )
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")
        if self.xi_target < 0:
            raise ConfigError(f"xi_target must be >= 0, got {self.xi_target}")
        check_init_range(self.init_range)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.stopping_set not in ("validation", "test"):
            raise ConfigError(
                f"stopping_set must be 'validation' or 'test', "
                f"got {self.stopping_set!r}"
            )


@dataclass(frozen=True)
class PhaseRecord:
    """One growth-table row: counts, efficiencies and errors at some h,
    each a finite number of its field's type, else :class:`ConfigError`."""

    h: int
    epochs_cumulative: int
    train_classified: int
    train_eff: float
    train_mse: float
    valid_classified: int
    valid_eff: float
    valid_mse: float
    test_classified: int
    test_eff: float
    overall_eff: float

    def __post_init__(self):
        check_fields(self)
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class GrowthHistory:
    """Per-phase records of a constructive run plus why it stopped."""

    phases: tuple
    stop_reason: str

    def selected_index(self):
        """Index of the phase whose snapshot the run returned.

        The accepting phase when the run was accepted; otherwise the
        phase with the highest overall efficiency (earliest on ties,
        favoring the smaller network).
        """
        if self.stop_reason == STOP_ACCEPTED:
            return len(self.phases) - 1
        return max(range(len(self.phases)), default=0,
                   key=lambda i: (self.phases[i].overall_eff, -i))


def average_error(net, part):
    """Mean over a partition of the per-pattern error xi = |d - y|^2 / 2."""
    errors = pattern_errors(net, part)
    # What ndarray.mean computes, bit for bit, without its dispatch.
    return float(np.add.reduce(errors) / len(errors))


def _phase_record(net, data, epochs_cumulative):
    rep_train = efficiency(net, data.train)
    rep_valid = efficiency(net, data.valid)
    rep_test = efficiency(net, data.test)
    return PhaseRecord(
        h=net.h,
        epochs_cumulative=epochs_cumulative,
        train_classified=rep_train.classified,
        train_eff=rep_train.percent,
        train_mse=average_error(net, data.train),
        valid_classified=rep_valid.classified,
        valid_eff=rep_valid.percent,
        valid_mse=average_error(net, data.valid),
        test_classified=rep_test.classified,
        test_eff=rep_test.percent,
        overall_eff=overall_efficiency((rep_train, rep_valid, rep_test)),
    )


def train_phase(net, data, cfg, rng=None, epochs_before=0):
    """Train one topology with hold-out early stopping.

    Runs up to ``cfg.epochs_per_phase`` epochs, evaluating validation
    error after each.  Keeps the snapshot with the lowest validation
    error seen (the starting weights while no epoch's error is below
    infinity) and ends the phase once ``cfg.patience`` consecutive
    epochs pass without improvement.  The input network is not mutated,
    and the returned one shares no memory with it.  A phase whose
    training makes a weight non-finite raises ``MalformedValueError``.

    Returns ``(best_net, epochs_used, record)`` where ``record`` is
    computed from the returned snapshot and carries
    ``epochs_before + epochs_used`` as its cumulative epoch count.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    work = net.copy()
    best_net = work.copy()
    best_err = math.inf
    bad = 0
    epochs_used = 0
    for _ in range(cfg.epochs_per_phase):
        train_epoch(work, data.train, cfg.eta, rng if cfg.shuffle else None)
        epochs_used += 1
        err = average_error(work, data.valid)
        if err < best_err:
            best_err = err
            np.copyto(best_net.hidden_weights, work.hidden_weights)
            np.copyto(best_net.output_weights, work.output_weights)
            bad = 0
        else:
            bad += 1
            if bad >= cfg.patience:
                break
    # Training updates the weights in place, past the constructor's checks.
    # A non-finite weight never turns finite again, so checking the last
    # epoch's weights covers every snapshot taken before them too.
    Network(work.hidden_weights, work.output_weights)
    record = _phase_record(best_net, data, epochs_before + epochs_used)
    return best_net, epochs_used, record


def _acceptable(record, cfg):
    if cfg.report_only:
        return False
    eff = (
        record.valid_eff
        if cfg.stopping_set == "validation"
        else record.test_eff
    )
    return record.valid_mse <= cfg.xi_target and eff >= cfg.eff_target


def constructive_train(data, cfg):
    """Grow a network one hidden unit at a time until acceptance.

    Starts at h=1 with random weights, alternates a training phase with
    the acceptance test (validation error at most ``xi_target`` AND
    efficiency on the stopping set at least ``eff_target``), and grows by
    one unit on failure.  Stops with ``stop_reason="accepted"`` on
    success, or with ``stop_reason="h_max_reached"`` after the phase at
    ``h_max``, in which case the snapshot with the highest overall
    efficiency is returned.

    Returns ``(network, history)``.
    """
    rng = np.random.default_rng(cfg.seed)
    net = init_network(
        data.header.n_inputs, data.header.n_outputs, cfg.init_range, rng
    )
    records = []
    snapshots = []
    epochs_total = 0
    while True:
        best_net, used, record = train_phase(
            net, data, cfg, rng=rng, epochs_before=epochs_total
        )
        epochs_total += used
        records.append(record)
        snapshots.append(best_net)
        if _acceptable(record, cfg):
            history = GrowthHistory(tuple(records), STOP_ACCEPTED)
            return best_net, history
        if best_net.h >= cfg.h_max:
            history = GrowthHistory(tuple(records), STOP_H_MAX)
            return snapshots[history.selected_index()], history
        net = add_hidden_unit(
            best_net, cfg.init_range, rng, zero_output=cfg.grow_zero_output
        )
