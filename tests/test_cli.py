import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from growbp.cli import (
    ExperimentConfig,
    build_parser,
    main,
    parse_seeds,
    parse_table_csv,
    render_table,
    run_experiment,
)
from growbp.dataset import save_dataset
from growbp.errors import ConfigError
from growbp.trainer import (
    STOP_ACCEPTED,
    STOP_H_MAX,
    GrowthHistory,
    PhaseRecord,
    constructive_train,
)


def write_blob_file(blob_dataset, tmp_path, name="blobs.dt"):
    path = tmp_path / name
    save_dataset(blob_dataset, path)
    return path


def quick_config(path, outdir, **kw):
    defaults = dict(
        dataset_path=str(path),
        epochs_per_phase=3,
        patience=3,
        xi_target=10.0,
        eff_target=0.0,
        h_max=2,
        sweep_seeds=(0, 1),
        output_path=str(outdir),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


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
        assert parse_seeds("0:10") == tuple(range(10))

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

    def test_bad_train_field_rejected_eagerly(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(dataset_path="x.dt", eta=-1.0)

    def test_report_only_forces_unreachable_targets(self):
        cfg = ExperimentConfig(dataset_path="x.dt", report_only=True,
                               xi_target=10.0, eff_target=0.0)
        tc = cfg.train_config(0)
        assert tc.eff_target > 100.0
        assert tc.xi_target == 0.0


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

    def test_rejects_foreign_csv(self):
        with pytest.raises(ConfigError):
            parse_table_csv("a,b,c\n1,2,3\n")


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

    def test_parallel_jobs_match_serial(self, blob_dataset, tmp_path):
        path = write_blob_file(blob_dataset, tmp_path)
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        run_experiment(quick_config(path, serial, n_jobs=1),
                       log=lambda *a: None)
        run_experiment(quick_config(path, parallel, n_jobs=2),
                       log=lambda *a: None)
        assert snapshot(serial) == snapshot(parallel)

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
        assert cfg.h_max == 2
        assert cfg.xi_target == 0.03
        assert cfg.eff_target == 95.0

    def test_flag_overrides_preset(self):
        from growbp.cli import build_experiment_config
        cfg = build_experiment_config(
            self.run_args(["train", "cancer1", "--h-max", "5"])
        )
        assert cfg.h_max == 5
        assert cfg.xi_target == 0.03

    def test_config_file_between_preset_and_flags(self, tmp_path):
        from growbp.cli import build_experiment_config
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps(
            {"h_max": 4, "patience": 7, "output_path": str(tmp_path)}
        ))
        cfg = build_experiment_config(self.run_args(
            ["train", "cancer1", "--config", str(conf), "--patience", "9"]
        ))
        assert cfg.h_max == 4       # file beats preset
        assert cfg.patience == 9    # flag beats file
        assert cfg.xi_target == 0.03  # preset still fills the rest

    def test_unknown_config_key_rejected(self, tmp_path):
        from growbp.cli import build_experiment_config
        conf = tmp_path / "c.json"
        conf.write_text(json.dumps({"learning_rate": 0.1}))
        with pytest.raises(ConfigError):
            build_experiment_config(self.run_args(
                ["train", "cancer1", "--config", str(conf)]
            ))

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


def write_bad_input(case, blob_dataset, tmp_path):
    """Write one malformed input; return its path and dataset kind."""
    if case in ("non-ascii-dt", "unicode-digit-header"):
        path = write_blob_file(blob_dataset, tmp_path)
        text = path.read_text()
        if case == "non-ascii-dt":
            path.write_bytes(text.replace("0.", "é0.", 1).encode())
        else:
            path.write_text(text.replace("test_examples=10",
                                         "test_examples=²"))
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
    (tmp_path / "raw.csv.manifest.json").write_text(manifest)
    return csv_path, "raw-csv"


class TestBadInputExitsTwo:
    @pytest.mark.parametrize("command", ["inspect", "train"])
    @pytest.mark.parametrize("case", [
        "non-ascii-dt", "non-ascii-csv", "manifest-not-json",
        "manifest-count-not-integer", "unicode-digit-header",
    ])
    def test_no_traceback(self, case, command, blob_dataset, tmp_path,
                          capsys):
        path, kind = write_bad_input(case, blob_dataset, tmp_path)
        argv = [command, str(path), "--dataset-kind", kind]
        if command == "train":
            argv += ["--output", str(tmp_path / "res")]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestMakeBenchmarks:
    def test_regenerates_shipped_files_byte_for_byte(self, tmp_path,
                                                     monkeypatch, capsys):
        root = Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location(
            "make_benchmarks", root / "scripts" / "make_benchmarks.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        monkeypatch.setattr(script, "OUT", tmp_path)
        script.main()
        shipped = root / "src" / "growbp" / "data"
        for name in ("cancer1", "heart1", "diabetes1"):
            assert ((tmp_path / f"{name}.dt").read_bytes()
                    == (shipped / f"{name}.dt").read_bytes())
