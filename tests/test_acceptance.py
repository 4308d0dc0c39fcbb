"""End-to-end acceptance checks for the package.

Every test here verifies one release gate at its stated tolerance and
prints a single PASS/FAIL line with capture disabled, so the checklist is
visible in any test log.
"""

import time

import numpy as np
import pytest

from growbp.cli import ExperimentConfig, run_experiment
from growbp.dataset import (
    DatasetHeader,
    Partition,
    SplitDataset,
    load_dataset,
)
from growbp.metrics import (
    EfficiencyReport,
    efficiency,
    overall_efficiency,
)
from growbp.network import Network, add_hidden_unit, forward_outputs
from growbp.profiles import PRESETS, bundled_dataset_path
from growbp.trainer import (
    STOP_H_MAX,
    TrainConfig,
    constructive_train,
    train_epoch,
)


@pytest.fixture
def report(capsys):
    def _report(label, ok, detail):
        status = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"ACCEPTANCE {label}: {status} ({detail})", flush=True)
        assert ok, f"{label}: {detail}"
    return _report


def run_sweep(name, seeds=range(10)):
    """Best selected phase over a seed sweep with the dataset's preset."""
    data = load_dataset(bundled_dataset_path(name))
    best = None
    for seed in seeds:
        cfg = TrainConfig(seed=seed, **PRESETS[name])
        _, history = constructive_train(data, cfg)
        rec = history.phases[history.selected_index()]
        if best is None or rec.test_eff > best.test_eff:
            best = rec
    return best


def test_1_overall_efficiency_exact_to_five_decimals(report):
    triples = {
        "cancer1": ((338, 350), (169, 175), (172, 174)),
        "heart1": ((143, 152), (64, 76), (60, 75)),
        "diabetes1": ((300, 384), (141, 192), (132, 192)),
    }
    expected = {
        "cancer1": "97.13877",
        "heart1": "88.11881",
        "diabetes1": "74.60938",
    }
    t0 = time.perf_counter()
    got = {
        name: f"{overall_efficiency(tuple(EfficiencyReport(*t) for t in triple)):.5f}"
        for name, triple in triples.items()
    }
    elapsed = time.perf_counter() - t0
    ok = got == expected and elapsed < 1e-3
    report("1 efficiency-formula exactness", ok,
           f"{got} in {elapsed * 1e6:.0f}us")


def test_2_cancer1_reproduction(tmp_path, report):
    t0 = time.perf_counter()
    outdir = tmp_path / "res"
    cfg = ExperimentConfig(
        dataset_path="cancer1",
        sweep_seeds=tuple(range(10)),
        output_path=str(outdir),
        n_jobs=1,
        train=TrainConfig(**PRESETS["cancer1"]),
    )
    run_experiment(cfg, log=lambda *a: None)
    elapsed = time.perf_counter() - t0
    best_row = next(
        ln.split(",")
        for ln in (outdir / "summary.csv").read_text().splitlines()[1:]
        if ln.endswith(",1")
    )
    h, test_eff = int(best_row[2]), float(best_row[4])
    ok = test_eff >= 96.0 and h <= 2 and elapsed <= 60.0
    report("2 cancer1 reproduction", ok,
           f"best test eff {test_eff:.2f}% at h={h} in {elapsed:.1f}s")


def test_3_heart1_reproduction(report):
    t0 = time.perf_counter()
    best = run_sweep("heart1")
    elapsed = time.perf_counter() - t0
    ok = best.test_eff >= 78.0 and best.h <= 2 and elapsed <= 60.0
    report("3 heart1 reproduction", ok,
           f"best test eff {best.test_eff:.2f}% at h={best.h} "
           f"in {elapsed:.1f}s")


def test_4_diabetes1_reproduction(report):
    t0 = time.perf_counter()
    best = run_sweep("diabetes1")
    elapsed = time.perf_counter() - t0
    ok = best.test_eff >= 68.0 and best.h <= 5 and elapsed <= 180.0
    report("4 diabetes1 reproduction", ok,
           f"best test eff {best.test_eff:.2f}% at h={best.h} "
           f"in {elapsed:.1f}s")


def pattern_xi(net, x, d):
    e = d - np.asarray(forward_outputs(net, [x]))[0]
    return 0.5 * float(e @ e)


def central_difference_gradient(net, x, d, step=1e-5):
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


def test_5_gradient_oracle(report):
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    eta = 0.7
    for _ in range(100):
        n_in = int(rng.integers(1, 11))
        h = int(rng.integers(1, 11))
        n_out = int(rng.integers(1, 11))
        net = Network(
            rng.uniform(-1, 1, (h, n_in + 1)),
            rng.uniform(-1, 1, (n_out, h + 1)),
        )
        x = rng.uniform(-1, 1, n_in)
        d = rng.integers(0, 2, n_out).astype(np.float64)
        grads = central_difference_gradient(net, x, d)
        before = (np.array(net.hidden_weights), np.array(net.output_weights))
        train_epoch(net, Partition([x], [d]), eta)
        after = (np.asarray(net.hidden_weights),
                 np.asarray(net.output_weights))
        for b, a, g in zip(before, after, grads):
            taken = (a - b) / eta
            err = np.abs(taken + g)
            rel = err / np.maximum(np.abs(g), 1e-7 / 1e-4)
            worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4
    report("5 gradient oracle", ok,
           f"worst relative error {worst:.2e} over 100 pairs "
           f"in {elapsed:.1f}s")


def test_6_growth_invariants(blob_dataset, report):
    rng = np.random.default_rng(7)
    runs_ok = True
    for _ in range(6):
        h_max = int(rng.integers(1, 5))
        cfg = TrainConfig(
            eta=float(rng.uniform(0.2, 0.9)),
            epochs_per_phase=2, patience=2,
            xi_target=0.0, eff_target=101.0,
            h_max=h_max, seed=int(rng.integers(0, 1000)),
        )
        _, history = constructive_train(blob_dataset, cfg)
        runs_ok = runs_ok and (
            [r.h for r in history.phases] == list(range(1, h_max + 1))
            and history.stop_reason == STOP_H_MAX
        )
    preserved = True
    for _ in range(60):
        n_in = int(rng.integers(1, 9))
        h = int(rng.integers(1, 7))
        n_out = int(rng.integers(1, 4))
        net = Network(
            rng.uniform(-2, 2, (h, n_in + 1)),
            rng.uniform(-2, 2, (n_out, h + 1)),
        )
        grown = add_hidden_unit(net, 1.0, rng)
        hw, ow = np.asarray(grown.hidden_weights), np.asarray(
            grown.output_weights)
        old_ow = np.asarray(net.output_weights)
        preserved = preserved and (
            np.array_equal(hw[:h], net.hidden_weights)
            and np.array_equal(ow[:, :h], old_ow[:, :h])
            and np.array_equal(ow[:, -1], old_ow[:, -1])
        )
    ok = runs_ok and preserved
    report("6 growth invariants", ok,
           f"h sequences complete: {runs_ok}, "
           f"weights preserved exactly: {preserved}")


def test_7_xor_oracle(report):
    patterns = Partition([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]],
                         [[0.0], [1.0], [1.0], [0.0]])
    header = DatasetHeader(2, 1, 4, 4, 4)
    data = SplitDataset(header, patterns, patterns, patterns)
    t0 = time.perf_counter()
    solved = 0
    grew = True
    for seed in range(10):
        cfg = TrainConfig(
            eta=0.7, epochs_per_phase=2000, patience=200,
            xi_target=float("inf"), eff_target=100.0,
            h_max=2, seed=seed,
        )
        net, history = constructive_train(data, cfg)
        grew = grew and history.phases[-1].h == 2
        rep = efficiency(net, patterns)
        solved += rep.classified == 4
    elapsed = time.perf_counter() - t0
    ok = solved >= 1 and grew and elapsed < 60.0
    report("7 xor oracle", ok,
           f"{solved}/10 seeds classify all 4 patterns in {elapsed:.1f}s")


def test_8_determinism(tmp_path, report):
    outdir = tmp_path / "res"
    cfg = ExperimentConfig(
        dataset_path="cancer1",
        sweep_seeds=(0, 1),
        train=TrainConfig(
            epochs_per_phase=20,
            patience=5,
            xi_target=0.03,
            eff_target=95.0,
            h_max=2,
        ),
        output_path=str(outdir),
        n_jobs=1,
    )
    run_experiment(cfg, log=lambda *a: None)
    first = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
    run_experiment(cfg, log=lambda *a: None)
    second = {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}
    ok = first == second and len(first) == 4
    report("8 determinism", ok,
           f"{len(first)} result files byte-identical across reruns")
