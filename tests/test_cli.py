import contextlib
import dataclasses
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import growbp
from growbp.cli import (
    TRAIN_OPTIONS,
    ExperimentConfig,
    build_experiment_config,
    build_parser,
    config_record,
    main,
    parse_seeds,
    parse_table_csv,
    render_table,
    run_experiment,
)
from growbp.dataset import load_dataset, load_raw_csv, save_dataset
from growbp.errors import (
    ConfigError,
    CountMismatchError,
    GrowbpError,
    MalformedValueError,
)
from growbp.network import load_network
from growbp.profiles import BUNDLED, EXPECTED_HEADERS, bundled_dataset_path
from growbp.trainer import (
    STOP_ACCEPTED,
    STOP_H_MAX,
    GrowthHistory,
    PhaseRecord,
    TrainConfig,
    constructive_train,
)


def write_blob_file(blob_dataset, tmp_path, name="blobs.dt"):
    path = tmp_path / name
    save_dataset(blob_dataset, path)
    return path


def quick_config(path, outdir, sweep_seeds=(0, 1), n_jobs=0,
                 output_format="csv", **train):
    settings = dict(
        epochs_per_phase=3,
        patience=3,
        xi_target=10.0,
        eff_target=0.0,
        h_max=2,
    )
    settings.update(train)
    return ExperimentConfig(
        dataset_path=str(path),
        train=TrainConfig(**settings),
        sweep_seeds=sweep_seeds,
        output_path=str(outdir),
        output_format=output_format,
        n_jobs=n_jobs,
    )


def snapshot(outdir, skip=("config.json",)):
    return {
        p.name: p.read_bytes()
        for p in sorted(outdir.iterdir())
        if p.name not in skip
    }


class TestParseSeeds:
    def test_single(self):
        assert parse_seeds("3") == (3,)

    def test_comma_list(self):
        assert parse_seeds("1,4,9") == (1, 4, 9)

    def test_half_open_range(self):
        assert parse_seeds("0:10") == range(10)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            parse_seeds("")


class TestExperimentConfig:
    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(dataset_path="x.dt", sweep_seeds=())

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(dataset_path="x.dt", dataset_kind="arff")

    def test_bad_format_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(dataset_path="x.dt", output_format="yaml")

    @pytest.mark.parametrize("entries, message", [
        ({"dataset_path": ""}, "a dataset path is required"),
        ({"train": {}}, "train must be a TrainConfig, got {}"),
        ({"n_jobs": -1}, "n_jobs must be >= 0, got -1"),
        # Only a range that steps by 1 is stored as its ends.
        ({"sweep_seeds": range(0, 2 * 10**6, 2)},
         "sweep_seeds range(0, 2000000, 2) must step by 1"),
        ({"sweep_seeds": range(3, 0, -1)},
         "sweep_seeds range(3, 0, -1) must step by 1"),
    ])
    def test_rejection_names_the_fault(self, entries, message):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(**{"dataset_path": "x.dt", **entries})
        assert str(exc.value) == message

    def test_bad_train_field_rejected_eagerly(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(dataset_path="x.dt", train=TrainConfig(eta=-1.0))

    def test_report_only_never_accepts(self, blob_dataset):
        # Targets that every phase meets: only report_only stops acceptance.
        cfg = ExperimentConfig(dataset_path="x.dt", train=TrainConfig(
            report_only=True, xi_target=math.inf, eff_target=0.0,
            epochs_per_phase=2, patience=2, h_max=3,
        ))
        _, hist = constructive_train(blob_dataset, cfg.train_config(0))
        assert [r.h for r in hist.phases] == [1, 2, 3]
        assert hist.stop_reason == STOP_H_MAX


def make_history():
    recs = (
        PhaseRecord(h=1, epochs_cumulative=10,
                    train_classified=20, train_eff=66.66666666666667,
                    train_mse=0.125,
                    valid_classified=8, valid_eff=80.0, valid_mse=0.25,
                    test_classified=9, test_eff=90.0,
                    overall_eff=74.0),
        PhaseRecord(h=2, epochs_cumulative=25,
                    train_classified=25, train_eff=83.33333333333333,
                    train_mse=0.0625,
                    valid_classified=9, valid_eff=90.0, valid_mse=0.125,
                    test_classified=8, test_eff=80.0,
                    overall_eff=84.0),
    )
    return GrowthHistory(recs, STOP_H_MAX)


class TestRenderTable:
    def test_csv_round_trip_restores_records(self):
        hist = make_history()
        again = parse_table_csv(render_table(hist, "csv"))
        assert again == hist

    def test_single_phase_csv_layout(self):
        hist = GrowthHistory((make_history().phases[0],), STOP_ACCEPTED)
        lines = render_table(hist, "csv").splitlines()
        assert lines[0].startswith("h,epochs,train_classified")
        assert len(lines) == 3
        assert lines[2] == "# stop_reason=accepted"

    def test_csv_flags_selected_row(self):
        lines = render_table(make_history(), "csv").splitlines()
        # h_max run: phase 2 has the higher overall efficiency
        assert lines[1].endswith(",0")
        assert lines[2].endswith(",1")

    def test_markdown_bolds_exactly_one_row(self):
        text = render_table(make_history(), "markdown")
        rows = [
            ln for ln in text.splitlines()
            if ln.startswith("| ") and not ln.startswith("| h |")
        ]
        bold = [ln for ln in rows if "**" in ln]
        assert len(rows) == 2 and len(bold) == 1
        assert bold[0].startswith("| **2**")

    def test_markdown_display_precision(self):
        text = render_table(make_history(), "markdown")
        assert "| 66.67 |" in text
        assert "| 74.00000 |" in text

    def test_json_lines_parse_and_mark_selection(self):
        lines = render_table(make_history(), "json-lines").splitlines()
        objs = [json.loads(ln) for ln in lines]
        assert [o["selected"] for o in objs] == [False, True]
        assert {o["stop_reason"] for o in objs} == {STOP_H_MAX}

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError) as exc:
            render_table(make_history(), "xml")
        assert str(exc.value) == "unknown table format 'xml'"

    def test_rejects_foreign_csv(self):
        with pytest.raises(ConfigError):
            parse_table_csv("a,b,c\n1,2,3\n")

    def test_rejects_a_table_without_phase_rows(self):
        # No row can carry the one selection flag a history needs.
        with pytest.raises(ConfigError, match="lacks phase rows"):
            parse_table_csv(CSV_HEADER + "# stop_reason=accepted\n")


class TestRunExperiment:
    def test_writes_expected_files_and_accepts(self, blob_dataset, tmp_path):
        path = write_blob_file(blob_dataset, tmp_path)
        outdir = tmp_path / "res"
        cfg = quick_config(path, outdir)
        status = run_experiment(cfg, log=lambda *a: None)
        assert status == 0
        names = {p.name for p in outdir.iterdir()}
        assert names == {"config.json", "seed_0.csv", "seed_1.csv",
                         "summary.csv"}
        resolved = json.loads((outdir / "config.json").read_text())
        assert resolved["sweep_seeds"] == [0, 1]
        assert resolved["eta"] == 0.7
        summary = (outdir / "summary.csv").read_text().splitlines()
        assert summary[0] == "seed,stop_reason,h,epochs,test_eff,overall_eff,best"
        assert len(summary) == 3
        flags = [ln.rsplit(",", 1)[1] for ln in summary[1:]]
        assert flags.count("1") == 1

    def test_summary_matches_library_run(self, blob_dataset, tmp_path):
        path = write_blob_file(blob_dataset, tmp_path)
        outdir = tmp_path / "res"
        cfg = quick_config(path, outdir)
        run_experiment(cfg, log=lambda *a: None)
        _, hist = constructive_train(blob_dataset, cfg.train_config(0))
        best = hist.phases[hist.selected_index()]
        row = (outdir / "summary.csv").read_text().splitlines()[1].split(",")
        assert int(row[2]) == best.h
        assert float(row[4]) == best.test_eff
        table = parse_table_csv((outdir / "seed_0.csv").read_text())
        assert table == hist

    def test_byte_identical_reruns(self, blob_dataset, tmp_path):
        path = write_blob_file(blob_dataset, tmp_path)
        outdir = tmp_path / "res"
        cfg = quick_config(path, outdir)
        run_experiment(cfg, log=lambda *a: None)
        first = snapshot(outdir, skip=())
        run_experiment(cfg, log=lambda *a: None)
        assert snapshot(outdir, skip=()) == first

    def test_parallel_jobs_match_serial(self, blob_dataset, tmp_path,
                                        each_backend):
        # Up to more threads than cores, switching as often as the
        # interpreter allows, so any state the seeds shared would show.
        path = write_blob_file(blob_dataset, tmp_path)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in each_backend:
                for n_jobs in (1, 2, 5):
                    outdir = tmp_path / str(len(runs))
                    cfg = quick_config(path, outdir, sweep_seeds=range(5),
                                       n_jobs=n_jobs)
                    run_experiment(cfg, log=lambda *a: None)
                    runs.append(snapshot(outdir))
        finally:
            sys.setswitchinterval(interval)
        assert all(run == runs[0] for run in runs)

    def test_parallel_jobs_never_fork(self, blob_dataset, tmp_path,
                                      monkeypatch):
        def no_fork():
            raise AssertionError("the sweep forked")

        monkeypatch.setattr(os, "fork", no_fork)
        path = write_blob_file(blob_dataset, tmp_path)
        cfg = quick_config(path, tmp_path / "res", sweep_seeds=(0, 1, 2),
                           n_jobs=2)
        assert run_experiment(cfg, log=lambda *a: None) == 0

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_failing_seed_keeps_earlier_results(self, blob_dataset, tmp_path,
                                                monkeypatch, n_jobs):
        def fail_on_seed_5(data, cfg):
            if cfg.seed == 5:
                raise RuntimeError("seed 5 failed")
            return constructive_train(data, cfg)

        monkeypatch.setattr(growbp.cli, "constructive_train", fail_on_seed_5)
        path = write_blob_file(blob_dataset, tmp_path)
        outdir = tmp_path / "res"
        cfg = quick_config(path, outdir, sweep_seeds=(3, 5), n_jobs=n_jobs)
        with pytest.raises(RuntimeError, match="seed 5 failed"):
            run_experiment(cfg, log=lambda *a: None)
        assert {p.name for p in outdir.iterdir()} == {
            "config.json", "seed_3.csv", "summary.csv"}
        _, hist = constructive_train(blob_dataset, cfg.train_config(3))
        assert parse_table_csv((outdir / "seed_3.csv").read_text()) == hist
        summary = (outdir / "summary.csv").read_text().splitlines()
        assert len(summary) == 2 and summary[1].startswith("3,")

    def test_no_acceptance_exits_one(self, blob_dataset, tmp_path):
        path = write_blob_file(blob_dataset, tmp_path)
        cfg = quick_config(path, tmp_path / "res",
                           xi_target=0.0, eff_target=101.0, h_max=1)
        assert run_experiment(cfg, log=lambda *a: None) == 1

    def test_report_only_exits_zero_and_explores(self, blob_dataset,
                                                 tmp_path):
        path = write_blob_file(blob_dataset, tmp_path)
        outdir = tmp_path / "res"
        cfg = quick_config(path, outdir, report_only=True, h_max=2)
        assert run_experiment(cfg, log=lambda *a: None) == 0
        hist = parse_table_csv((outdir / "seed_0.csv").read_text())
        assert [r.h for r in hist.phases] == [1, 2]
        assert hist.stop_reason == STOP_H_MAX

    def test_json_lines_output(self, blob_dataset, tmp_path):
        path = write_blob_file(blob_dataset, tmp_path)
        outdir = tmp_path / "res"
        cfg = quick_config(path, outdir, output_format="json-lines")
        run_experiment(cfg, log=lambda *a: None)
        lines = (outdir / "histories.jsonl").read_text().splitlines()
        objs = [json.loads(ln) for ln in lines]
        assert {o["seed"] for o in objs} == {0, 1}
        assert all("overall_eff" in o for o in objs)


class TestBuildExperimentConfig:
    def run_args(self, argv):
        return build_parser().parse_args(argv)

    def test_bundled_name_picks_preset(self):
        from growbp.cli import build_experiment_config
        cfg = build_experiment_config(self.run_args(["train", "cancer1"]))
        assert cfg.train.h_max == 2
        assert cfg.train.xi_target == 0.03
        assert cfg.train.eff_target == 95.0

    def test_flag_overrides_preset(self):
        from growbp.cli import build_experiment_config
        cfg = build_experiment_config(
            self.run_args(["train", "cancer1", "--h-max", "5"])
        )
        assert cfg.train.h_max == 5
        assert cfg.train.xi_target == 0.03

    def test_config_file_between_preset_and_flags(self, tmp_path):
        from growbp.cli import build_experiment_config
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps(
            {"h_max": 4, "patience": 7, "output_path": str(tmp_path)}
        ))
        cfg = build_experiment_config(self.run_args(
            ["train", "cancer1", "--config", str(conf), "--patience", "9"]
        ))
        assert cfg.train.h_max == 4       # file beats preset
        assert cfg.train.patience == 9    # flag beats file
        assert cfg.train.xi_target == 0.03  # preset still fills the rest

    def test_unknown_config_key_rejected(self, tmp_path):
        from growbp.cli import build_experiment_config
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps({"learning_rate": 0.1}))
        with pytest.raises(ConfigError):
            build_experiment_config(self.run_args(
                ["train", "cancer1", "--config", str(conf)]
            ))

    def test_seed_prefix_runs_that_seed(self, tmp_path):
        # argparse reads the prefix --seed as --seeds.
        out = tmp_path / "res"
        assert main(["train", "heart1", "--seed", "3", "--h-max", "1",
                     "--epochs-per-phase", "5", "--output", str(out)]) == 0
        rows = (out / "summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["3"]

    def test_long_sweep_builds_one_train_config(self, monkeypatch):
        # The seeds go through TrainConfig's seed rule, not a TrainConfig
        # each: 100000 of them took about 2 s that way.  Nor is a range
        # expanded: as a tuple, 10**6 seeds took 115 MB.
        built = []
        check = TrainConfig.__post_init__
        monkeypatch.setattr(TrainConfig, "__post_init__",
                            lambda cfg: (built.append(cfg), check(cfg)))
        args = build_parser().parse_args(["train", "heart1",
                                          "--seeds", "0:1000000000"])
        start = time.process_time()
        tracemalloc.start()
        try:
            cfg = build_experiment_config(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.process_time() - start < 0.2
        assert peak < 2**20
        assert cfg.sweep_seeds == range(10**9)
        assert len(built) == 1

    def test_range_is_written_as_its_seeds_text(self, tmp_path):
        # Expanded into config.json, this range took 4.1 s and 116 MiB
        # before the first seed ran.  A longer one would expand past memory.
        args = build_parser().parse_args(["train", "heart1",
                                          "--seeds", "0:1000000"])
        cfg = build_experiment_config(args)
        conf = tmp_path / "config.json"
        start = time.process_time()
        tracemalloc.start()
        try:
            conf.write_text(json.dumps(config_record(cfg)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.process_time() - start < 0.2
        assert peak < 2**20
        assert json.loads(conf.read_text())["sweep_seeds"] == "0:1000000"
        assert build_from_config(conf).sweep_seeds == range(10**6)

    def test_dataset_from_config_file(self, tmp_path, blob_dataset):
        from growbp.cli import build_experiment_config
        path = write_blob_file(blob_dataset, tmp_path)
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps({"dataset_path": str(path)}))
        cfg = build_experiment_config(self.run_args(
            ["train", "--config", str(conf)]
        ))
        assert cfg.dataset_path == str(path)


class TestMain:
    def test_missing_file_is_error_exit(self, capsys):
        assert main(["train", "/no/such/file.dt"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_no_dataset_is_error_exit(self, capsys):
        assert main(["train"]) == 2

    def test_train_and_render_round_trip(self, blob_dataset, tmp_path,
                                         capsys):
        path = write_blob_file(blob_dataset, tmp_path)
        outdir = tmp_path / "res"
        status = main([
            "train", str(path), "--seeds", "0,1",
            "--xi-target", "10", "--eff-target", "0",
            "--epochs-per-phase", "3", "--patience", "3",
            "--output", str(outdir),
        ])
        assert status == 0
        assert "best of sweep" in capsys.readouterr().out
        assert main(["render", str(outdir / "seed_0.csv")]) == 0
        assert "**" in capsys.readouterr().out

    def test_best_of_sweep_is_the_lowest_seed_on_ties(self, tmp_path,
                                                       capsys):
        # heart1 seeds 4 and 1 tie at 80% test efficiency; the sweep
        # lists them in descending order.
        outdir = tmp_path / "res"
        assert main(["train", "heart1", "--seeds", "4,1",
                     "--output", str(outdir)]) == 0
        assert "best of sweep: seed 1 " in capsys.readouterr().out
        rows = [ln.split(",") for ln in
                (outdir / "summary.csv").read_text().splitlines()[1:]]
        assert [(r[0], r[4], r[-1]) for r in rows] == [
            ("4", "80.0", "0"), ("1", "80.0", "1")]

    def test_render_jsonl(self, blob_dataset, tmp_path, capsys):
        path = write_blob_file(blob_dataset, tmp_path)
        outdir = tmp_path / "res"
        main([
            "train", str(path), "--seeds", "0,1",
            "--xi-target", "10", "--eff-target", "0",
            "--epochs-per-phase", "3", "--patience", "3",
            "--format", "json-lines", "--output", str(outdir),
        ])
        capsys.readouterr()
        assert main(["render", str(outdir / "histories.jsonl"),
                     "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert "# seed 0" in out and "# seed 1" in out

    def test_inspect_bundled(self, capsys):
        assert main(["inspect", "cancer1"]) == 0
        out = capsys.readouterr().out
        assert "matches the cancer1 benchmark" in out

    @pytest.mark.parametrize("name,rule", [("cancer1", "argmax"),
                                           ("heart1", "threshold")])
    def test_inspect_names_rule_from_output_width(self, name, rule, capsys):
        assert main(["inspect", name]) == 0
        assert f"({rule})  classes: 2" in capsys.readouterr().out

    def test_closed_stdout_ends_quietly(self, tmp_path, capsys,
                                        monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        stored = tmp_path / "r.csv"
        stored.write_text(render_table(make_history(), "csv"))
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["render", str(stored), "--format", "csv"]) == 0
        assert capsys.readouterr().err == ""

    def test_closed_pipe_at_exit_flush_ends_quietly(self, tmp_path):
        # With buffered stdout, output this small reaches the pipe only
        # when stdout is flushed; the read end is closed before the start.
        stored = tmp_path / "r.csv"
        stored.write_text(render_table(make_history(), "csv"))
        env = {k: v for k, v in os.environ.items()
               if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(growbp.__file__).parents[1]),
             env.get("PYTHONPATH", "")])
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "growbp.cli", "render", str(stored)],
                stdout=write_fd, stderr=subprocess.PIPE, env=env,
                timeout=60)
        finally:
            os.close(write_fd)
        assert (proc.returncode, proc.stderr) == (0, b"")

    def test_inspect_flags_header_mismatch(self, blob_dataset, tmp_path,
                                           capsys):
        path = write_blob_file(blob_dataset, tmp_path, name="cancer1-re.dt")
        assert main(["inspect", str(path)]) == 1
        assert "differs" in capsys.readouterr().out

    def test_inspect_plain_file(self, blob_dataset, tmp_path, capsys):
        path = write_blob_file(blob_dataset, tmp_path)
        assert main(["inspect", str(path)]) == 0
        assert "split: train=30" in capsys.readouterr().out

    def test_raw_csv_kind(self, tmp_path):
        rows = ["a,b,label"]
        rng = np.random.default_rng(0)
        for i in range(20):
            cls = i % 2
            base = 0.25 + 0.5 * cls
            x = rng.normal(base, 0.05, size=2)
            rows.append(f"{x[0]},{x[1]},{cls}")
        csv_path = tmp_path / "tiny.csv"
        csv_path.write_text("\n".join(rows) + "\n")
        (tmp_path / "tiny.csv.manifest.json").write_text(json.dumps({
            "training_examples": 10,
            "validation_examples": 5,
            "test_examples": 5,
            "target_columns": 1,
        }))
        outdir = tmp_path / "res"
        status = main([
            "train", str(csv_path), "--dataset-kind", "raw-csv",
            "--seeds", "0", "--xi-target", "10", "--eff-target", "0",
            "--epochs-per-phase", "2", "--patience", "2",
            "--output", str(outdir),
        ])
        assert status == 0
        assert (outdir / "seed_0.csv").exists()


# Each .dt header fault and the line or lines it names; test_examples is
# on line 7.
HEADER_FAULT_LINES = {"negative-header-count": "line 7",
                      "overlong-header-count": "line 7",
                      "zero-header-count": "lines 1-7",
                      "huge-header-width": "line 8"}


def write_bad_input(case, blob_dataset, tmp_path):
    """Write one malformed input; return its path and dataset kind."""
    if case in ("non-ascii-dt", "unicode-digit-header", "short-row",
                "missing-header-key", *HEADER_FAULT_LINES):
        path = write_blob_file(blob_dataset, tmp_path)
        text = path.read_text()
        if case == "non-ascii-dt":
            path.write_bytes(text.replace("0.", "é0.", 1).encode())
        elif case == "short-row":
            lines = text.splitlines()
            lines[8] = lines[8].rsplit(" ", 1)[0]
            path.write_text("\n".join(lines) + "\n")
        elif case == "missing-header-key":
            path.write_text(text.replace("test_examples=10\n", ""))
        elif case == "huge-header-width":  # no row can fill it
            path.write_text(text.replace("real_in=", "real_in=" + "9" * 30))
        else:
            value = {"unicode-digit-header": "²",
                     "negative-header-count": "-1",
                     "overlong-header-count":
                         "9" * (sys.get_int_max_str_digits() + 1),
                     "zero-header-count": "0"}[case]
            path.write_text(text.replace("test_examples=10",
                                         f"test_examples={value}"))
        return path, "proben1"
    csv_path = tmp_path / "raw.csv"
    header = "é,b,t" if case == "non-ascii-csv" else "a,b,t"
    rows = [header] + [f"{i},{i % 3},{i % 2}" for i in range(5)]
    csv_path.write_bytes(("\n".join(rows) + "\n").encode())
    manifest = json.dumps({"training_examples": 3, "validation_examples": 1,
                           "test_examples": 1, "target_columns": 1})
    if case == "manifest-not-json":
        manifest = "{training_examples: 3"
    elif case == "manifest-count-not-integer":
        manifest = manifest.replace("3", '"three"')
    elif case == "manifest-no-target-columns":
        manifest = manifest.replace(', "target_columns": 1', "")
    elif case == "manifest-nested-deep":
        manifest = "[" * 100000
    elif case == "manifest-count-negative":
        manifest = manifest.replace("3", "-1")
    elif case == "manifest-count-zero":
        manifest = manifest.replace("3", "0")
    elif case == "manifest-target-columns-zero":
        manifest = manifest.replace('"target_columns": 1',
                                    '"target_columns": 0')
    (tmp_path / "raw.csv.manifest.json").write_text(manifest)
    return csv_path, "raw-csv"


class TestBadInputExitsTwo:
    @pytest.mark.parametrize("command", ["inspect", "train"])
    @pytest.mark.parametrize("case", [
        "non-ascii-dt", "non-ascii-csv", "manifest-not-json",
        "manifest-count-not-integer", "unicode-digit-header", "short-row",
        "missing-header-key", "manifest-no-target-columns",
        "manifest-nested-deep", "manifest-count-negative",
        "manifest-count-zero", "manifest-target-columns-zero",
        "negative-header-count", "zero-header-count", "huge-header-width",
        "overlong-header-count",
    ])
    def test_no_traceback(self, case, command, blob_dataset, tmp_path,
                          capsys):
        path, kind = write_bad_input(case, blob_dataset, tmp_path)
        argv = [command, str(path), "--dataset-kind", kind]
        if command == "train":
            argv += ["--output", str(tmp_path / "res")]
        assert main(argv) == 2
        named = (f"{path}.manifest.json" if case.startswith("manifest")
                 else path)
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}: ") and err.count("\n") == 1
        if case in HEADER_FAULT_LINES:
            assert err.startswith(
                f"error: {path}: {HEADER_FAULT_LINES[case]}: ")


class TestMakeBenchmarks:
    def test_regenerates_shipped_files_byte_for_byte(self, tmp_path,
                                                     monkeypatch, capsys):
        root = Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location(
            "make_benchmarks", root / "scripts" / "make_benchmarks.py")
        script = importlib.util.module_from_spec(spec)
        # numpy is needed only by the tests, not to build the data.
        monkeypatch.setitem(sys.modules, "numpy", None)
        spec.loader.exec_module(script)
        monkeypatch.setattr(script, "OUT", tmp_path)
        script.main()
        shipped = root / "src" / "growbp" / "data"
        for name in ("cancer1", "heart1", "diabetes1"):
            assert ((tmp_path / f"{name}.dt").read_bytes()
                    == (shipped / f"{name}.dt").read_bytes())


# A value other than the default for every train option.
OPTION_VALUES = {
    "eta": 0.25, "epochs_per_phase": 7, "patience": 3, "xi_target": 0.5,
    "eff_target": 60.0, "h_max": 3, "init_range": 0.5,
    "stopping_set": "test", "shuffle": True, "grow_zero_output": True,
    "report_only": True,
}

# The keys config.json has always had; --config accepts exactly these.
CONFIG_KEYS = (
    "dataset_kind", "dataset_path", "eff_target", "epochs_per_phase", "eta",
    "grow_zero_output", "h_max", "init_range", "n_jobs", "output_format",
    "output_path", "patience", "report_only", "shuffle", "stopping_set",
    "sweep_seeds", "xi_target",
)


class TestTrainOptions:
    def test_every_field_but_seed_is_an_option(self):
        names = {f.name for f in dataclasses.fields(TrainConfig)}
        assert {f.name for f in TRAIN_OPTIONS} == names - {"seed"}
        assert set(OPTION_VALUES) == names - {"seed"}

    @pytest.mark.parametrize("name", sorted(OPTION_VALUES))
    def test_flag_config_key_and_config_json(self, name, tmp_path):
        value = OPTION_VALUES[name]
        flag = ["--" + name.replace("_", "-")]
        if not isinstance(value, bool):
            flag.append(str(value))
        from_flag = build_experiment_config(
            build_parser().parse_args(["train", "x.dt", *flag]))
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps({name: value}))
        from_file = build_experiment_config(build_parser().parse_args(
            ["train", "x.dt", "--config", str(conf)]))
        assert getattr(from_flag.train, name) == value
        assert from_file == from_flag
        assert config_record(from_flag)[name] == value

    def test_config_json_keys_unchanged(self):
        record = config_record(ExperimentConfig(dataset_path="x.dt"))
        assert sorted(record) == list(CONFIG_KEYS)

    def test_stored_config_reproduces_run(self, tmp_path):
        first, again = tmp_path / "first", tmp_path / "again"
        argv = ["train", "heart1", "--seeds", "0:2", "--h-max", "2",
                "--epochs-per-phase", "20", "--report-only"]
        assert main([*argv, "--output", str(first)]) == 0
        assert main(["train", "--config", str(first / "config.json"),
                     "--output", str(again)]) == 0
        assert snapshot(again) == snapshot(first)
        stored = [json.loads((d / "config.json").read_text())
                  for d in (first, again)]
        assert stored[1].pop("output_path") == str(again)
        assert stored[0].pop("output_path") == str(first)
        assert stored[0] == stored[1]


def json_values():
    scalars = (st.none() | st.booleans() | st.integers() | st.floats()
               | st.text(max_size=6))
    return st.recursive(
        scalars,
        lambda inner: (st.lists(inner, max_size=3)
                       | st.dictionaries(st.text(max_size=4), inner,
                                         max_size=3)),
        max_leaves=6,
    )


PLAUSIBLE = st.sampled_from([
    0, 1, 2, -1, 0.5, 95.0, 2 ** 70, "2", "a.dt", "a\0b", "test",
    "raw-csv", "json-lines", True, [0, 1], [], [-1], [0.5], "abc",
])


@settings(max_examples=200, deadline=None)
@given(entries=st.dictionaries(st.sampled_from(CONFIG_KEYS),
                               PLAUSIBLE | json_values(), max_size=6),
       positional=st.booleans())
def test_any_config_object_builds_or_exits_two(entries, positional):
    """Construction only: a config builds, or main exits 2 writing nothing."""
    with tempfile.TemporaryDirectory() as tmp:
        conf = Path(tmp) / "c.json"
        conf.write_text(json.dumps(entries))
        argv = ["train", *(["x.dt"] if positional else []),
                "--config", str(conf)]
        try:
            cfg = build_experiment_config(build_parser().parse_args(argv))
        except ConfigError:
            out = Path(tmp) / "res"
            assert main([*argv, "--output", str(out)]) == 2
            assert not out.exists()
        else:
            json.dumps(config_record(cfg), allow_nan=False)


def write_config(entries, dataset=("heart1",)):
    return write_config_bytes(json.dumps(entries).encode(), dataset)


def write_config_bytes(data, dataset=("heart1",)):
    def make(tmp_path):
        conf = tmp_path / "c.json"
        conf.write_bytes(data)
        return ["train", *dataset, "--config", str(conf)]
    return make


def write_render_input(text, name=None):
    def make(tmp_path):
        path = tmp_path / (name or ("r.csv" if text.startswith("h,")
                                    else "r.jsonl"))
        path.write_bytes(text.encode())
        return ["render", str(path)]
    return make


def write_raw_csv(text, counts=(1, 1, 1, 1)):
    """A raw CSV ``text`` whose manifest gives ``counts``: the training,
    validation and test rows, then the target columns."""
    def make(tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text(text)
        path.with_name("raw.csv.manifest.json").write_text(json.dumps(dict(
            zip(("training_examples", "validation_examples",
                 "test_examples", "target_columns"), counts))))
        return ["train", str(path), "--dataset-kind", "raw-csv"]
    return make


CSV_HEADER = ("h,epochs,train_classified,train_eff,train_mse,"
              "valid_classified,valid_eff,valid_mse,test_classified,"
              "test_eff,overall_eff,best\n")
JSON_ROW = dict(h=1, epochs_cumulative=5, train_classified=3, train_eff=75.0,
                train_mse=0.1, valid_classified=2, valid_eff=50.0,
                valid_mse=0.2, test_classified=1, test_eff=25.0,
                overall_eff=60.0, selected=True, stop_reason="accepted")


def json_row_without(key):
    return json.dumps({k: v for k, v in JSON_ROW.items() if k != key}) + "\n"


BAD_INPUTS = {
    "seeds-not-integer": lambda tmp: ["train", "heart1", "--seeds", "a"],
    "seeds-with-step": lambda tmp: ["train", "heart1", "--seeds", "0:3:2"],
    "seeds-negative": lambda tmp: ["train", "heart1", "--seeds=-1"],
    "seeds-range-negative": lambda tmp: ["train", "heart1", "--seeds=-2:3"],
    "seeds-range-empty": lambda tmp: ["train", "heart1", "--seeds", "3:3"],
    "seeds-range-too-long": lambda tmp: ["train", "heart1", "--seeds",
                                         f"0:{10**20}"],
    "seed-negative": lambda tmp: ["train", "heart1", "--seed", "-1"],
    "init-range-negative": lambda tmp: ["train", "heart1",
                                        "--init-range", "-1"],
    "init-range-too-wide": lambda tmp: ["train", "heart1", "--seeds", "0",
                                        "--init-range", "1e308"],
    "xi-target-nan": lambda tmp: ["train", "heart1", "--xi-target", "nan"],
    "eta-inf": lambda tmp: ["train", "heart1", "--eta", "inf"],
    "seeds-repeated": lambda tmp: ["train", "heart1", "--seeds", "0,0"],
    "jobs-negative": lambda tmp: ["train", "heart1", "--jobs", "-1"],
    "format-markdown": lambda tmp: ["train", "heart1", "--format", "markdown"],
    "dataset-kind-unknown": lambda tmp: ["train", "heart1",
                                         "--dataset-kind", "foo"],
    "inspect-dataset-kind-unknown": lambda tmp: ["inspect", "heart1",
                                                 "--dataset-kind", "foo"],
    "config-sweep-seeds-repeated": write_config({"sweep_seeds": [1, 1]}),
    "config-format-markdown": write_config({"output_format": "markdown"}),
    "config-sweep-seeds-int": write_config({"sweep_seeds": 5}),
    "config-sweep-seeds-str": write_config({"sweep_seeds": "abc"}),
    "config-n-jobs-str": write_config({"n_jobs": "2"}),
    "config-h-max-str": write_config({"h_max": "3"}),
    "config-shuffle-int": write_config({"shuffle": 1}),
    "config-dataset-nul": write_config({"dataset_path": "a\0b"}, ()),
    "config-not-utf8": write_config_bytes(b'{"h_max": "\xff"}'),
    "config-nested-deep": write_config_bytes(b"[" * 100000),
    "config-not-object": write_config([{"h_max": 3}]),
    "config-unknown-key": write_config({"etaa": 1}),
    "render-csv-short-row": write_render_input(
        CSV_HEADER + "1,2,3\n# stop_reason=accepted\n"),
    "render-csv-not-numeric": write_render_input(
        CSV_HEADER + "1,5,3,x,0.1,2,50.0,0.2,1,25.0,60.0,1\n"
        "# stop_reason=accepted\n"),
    "render-csv-nan": write_render_input(
        CSV_HEADER + "1,5,3,75.0,nan,2,50.0,0.2,1,25.0,60.0,1\n"
        "# stop_reason=accepted\n"),
    "render-csv-inf": write_render_input(
        CSV_HEADER + "1,5,3,75.0,0.1,2,50.0,inf,1,25.0,60.0,1\n"
        "# stop_reason=accepted\n"),
    "render-csv-best-7": write_render_input(
        CSV_HEADER + "1,5,3,75.0,0.1,2,50.0,0.2,1,25.0,60.0,7\n"
        "# stop_reason=accepted\n"),
    # Growth hit the cap, so the selected phase is the one at h=2, with
    # the higher overall efficiency.
    "render-csv-best-on-wrong-row": write_render_input(
        CSV_HEADER + "1,5,3,75.0,0.1,2,50.0,0.2,1,25.0,60.0,1\n"
        "2,9,3,75.0,0.1,2,50.0,0.2,1,25.0,70.0,0\n"
        "# stop_reason=h_max_reached\n"),
    "render-csv-two-stop-reasons": write_render_input(
        CSV_HEADER + "1,5,3,75.0,0.1,2,50.0,0.2,1,25.0,60.0,1\n"
        "# stop_reason=accepted\n# stop_reason=h_max_reached\n"),
    "render-csv-stop-reason-unknown": write_render_input(
        CSV_HEADER + "1,5,3,75.0,0.1,2,50.0,0.2,1,25.0,60.0,1\n"
        "# stop_reason=banana\n"),
    "render-jsonl-stop-reason-unknown": write_render_input(
        json.dumps({**JSON_ROW, "stop_reason": "banana"}) + "\n"),
    "render-jsonl-all-selected": write_render_input("".join(
        json.dumps({**JSON_ROW, "h": h, "stop_reason": "h_max_reached"})
        + "\n" for h in (1, 2))),
    "render-jsonl-stop-reasons-differ": write_render_input(
        json.dumps({**JSON_ROW, "selected": False,
                    "stop_reason": "h_max_reached"}) + "\n"
        + json.dumps({**JSON_ROW, "h": 2}) + "\n"),
    "render-jsonl-infinity": write_render_input(
        json.dumps({**JSON_ROW, "valid_mse": math.inf}) + "\n"),
    "render-jsonl-no-stop-reason": write_render_input(
        json_row_without("stop_reason")),
    "render-jsonl-no-selected": write_render_input(
        json_row_without("selected")),
    "render-jsonl-string-count": write_render_input(
        json.dumps({**JSON_ROW, "h": "1"}) + "\n"),
    "render-not-json": write_render_input("not json\n"),
    "render-summary-csv": write_render_input(
        "seed,stop_reason,h,epochs,test_eff,overall_eff,best\n"
        "0,accepted,1,5,25.0,60.0,1\n", "summary.csv"),
    # Tables that no run writes: h must run 1, 2, ..., the cumulative
    # epochs must increase, and no field may be negative.
    "render-csv-h-decreasing": write_render_input(
        CSV_HEADER + "2,5,3,75.0,0.1,2,50.0,0.2,1,25.0,60.0,1\n"
        "1,9,3,75.0,0.1,2,50.0,0.2,1,25.0,50.0,0\n"
        "# stop_reason=h_max_reached\n"),
    "render-csv-h-negative": write_render_input(
        CSV_HEADER + "-3,5,3,75.0,0.1,2,50.0,0.2,1,25.0,60.0,1\n"
        "# stop_reason=accepted\n"),
    "render-csv-epochs-negative": write_render_input(
        CSV_HEADER + "1,-5,3,75.0,0.1,2,50.0,0.2,1,25.0,60.0,1\n"
        "# stop_reason=accepted\n"),
    "render-csv-epochs-not-increasing": write_render_input(
        CSV_HEADER + "1,5,3,75.0,0.1,2,50.0,0.2,1,25.0,60.0,0\n"
        "2,5,3,75.0,0.1,2,50.0,0.2,1,25.0,70.0,1\n"
        "# stop_reason=h_max_reached\n"),
    "render-csv-h-starts-at-2": write_render_input(
        CSV_HEADER + "2,5,3,75.0,0.1,2,50.0,0.2,1,25.0,60.0,1\n"
        "3,9,3,75.0,0.1,2,50.0,0.2,1,25.0,50.0,0\n"
        "# stop_reason=h_max_reached\n"),
    "render-jsonl-h-skips": write_render_input(
        json.dumps({**JSON_ROW, "selected": False}) + "\n"
        + json.dumps({**JSON_ROW, "h": 3, "epochs_cumulative": 9}) + "\n"),
    "render-jsonl-train-classified-negative": write_render_input(
        json.dumps({**JSON_ROW, "train_classified": -1}) + "\n"),
    "render-jsonl-epochs-not-increasing": write_render_input(
        json.dumps({**JSON_ROW, "selected": False}) + "\n"
        + json.dumps({**JSON_ROW, "h": 2, "epochs_cumulative": 4}) + "\n"),
    "render-jsonl-nested-deep": write_render_input("[" * 100000),
    "render-jsonl-seed-str": write_render_input(
        json.dumps({**JSON_ROW, "seed": "0"}) + "\n"),
    "render-jsonl-stop-reason-int": write_render_input(
        json.dumps({**JSON_ROW, "stop_reason": 1}) + "\n"),
    "render-jsonl-selected-int": write_render_input(
        json.dumps({**JSON_ROW, "selected": 1}) + "\n"),
    "raw-csv-no-rows": write_raw_csv("\n\n"),
    "raw-csv-no-feature-column": write_raw_csv("t\n1\n0\n1\n"),
    "raw-csv-row-count": write_raw_csv("a,t\n0.5,1\n0.2,0\n"),
}

# The class each of these faults raises, naming its file.
FAULT_CLASSES = {
    "render-jsonl-seed-str": ConfigError,
    "render-jsonl-stop-reason-int": ConfigError,
    "render-jsonl-selected-int": ConfigError,
    "raw-csv-no-rows": CountMismatchError,
    "raw-csv-no-feature-column": MalformedValueError,
    "raw-csv-row-count": CountMismatchError,
}


# Faults of a config file itself, as opposed to values found bad only
# after the file's entries are merged with presets and flags.
CONFIG_FILE_FAULTS = ("config-not-utf8", "config-nested-deep",
                      "config-not-object", "config-unknown-key")


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_config_or_results_exit_two(case, tmp_path, capsys):
    out = tmp_path / "res"
    argv = BAD_INPUTS[case](tmp_path)
    if argv[0] == "train":
        argv += ["--output", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()
    if argv[0] == "render":
        assert f"{argv[1]}: line " in err
    if case == "render-summary-csv":
        assert err.endswith(": not a growth-table CSV or JSON lines\n")
    if case in CONFIG_FILE_FAULTS:
        assert err.startswith(f"error: {tmp_path / 'c.json'}: ")


@pytest.mark.parametrize("case", sorted(FAULT_CLASSES))
def test_input_faults_raise_their_class_naming_the_file(case, tmp_path):
    argv = BAD_INPUTS[case](tmp_path)
    if argv[0] == "train":
        argv += ["--output", str(tmp_path / "res")]
    args = build_parser().parse_args(argv)
    with pytest.raises(FAULT_CLASSES[case]) as exc:
        with contextlib.redirect_stdout(io.StringIO()):
            args.func(args)
    assert str(exc.value).startswith(f"{argv[1]}: ")


# A row out of growth order is named by its own line, not the stop line.
@pytest.mark.parametrize("case, line", [
    ("render-csv-h-decreasing", 3),
    ("render-csv-h-starts-at-2", 2),
    ("render-csv-epochs-not-increasing", 3),
    ("render-jsonl-h-skips", 2),
    ("render-jsonl-epochs-not-increasing", 2),
])
def test_growth_order_faults_name_their_row(case, line, tmp_path, capsys):
    argv = BAD_INPUTS[case](tmp_path)
    assert main(argv) == 2
    assert f"error: {argv[1]}: line {line}: " in capsys.readouterr().err


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_name_resolves_to_its_benchmark_file(name):
    path = bundled_dataset_path(name)
    assert path.is_file()
    assert path.parent == Path(growbp.__file__).parent / "data"
    assert load_dataset(path).header == EXPECTED_HEADERS[name]


def test_unknown_bundled_name_is_a_key_error():
    with pytest.raises(KeyError) as exc:
        bundled_dataset_path("x")
    assert exc.value.args == ("no bundled dataset named 'x'",)


def build_from_config(path):
    args = build_parser().parse_args(["train", "x.dt", "--config", str(path)])
    return build_experiment_config(args)


def render_quietly(path):
    args = build_parser().parse_args(["render", str(path)])
    with contextlib.redirect_stdout(io.StringIO()):
        return args.func(args)


# Every loader of a file from outside the program: the file's name, the
# bytes written before the drawn ones, and the call that reads it.  A
# manifest is read next to a valid raw CSV; a config file is only built.
LOADERS = {
    "dataset": ("d.dt", b"", load_dataset),
    "manifest": ("raw.csv.manifest.json", b"",
                 lambda path: load_raw_csv(path.with_name("raw.csv"))),
    "config": ("c.json", b"", build_from_config),
    "table-csv": ("r.csv", CSV_HEADER.encode(), render_quietly),
    "histories": ("histories.jsonl", b"", render_quietly),
    "network": ("net.txt", b"", load_network),
}


@pytest.mark.parametrize("kind", sorted(LOADERS))
@settings(max_examples=100, deadline=None)
@given(data=st.binary(max_size=200))
@example(data=b'{"h_max": "\xff"}')
@example(data=b"[" * 100000)
@example(data=b'{"h_max": ' + b"1" * 5000 + b"}")
def test_any_bytes_give_a_value_or_growbp_error(kind, data):
    name, prefix, load = LOADERS[kind]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(prefix + data)
        path.with_name("raw.csv").write_text(
            "a,b,t\n" + "".join(f"{i},{i % 3},{i % 2}\n" for i in range(5)))
        try:
            load(path)
        except GrowbpError:
            pass
