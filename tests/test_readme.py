import argparse
import re
from pathlib import Path

import growbp
from growbp.cli import (
    build_experiment_config,
    build_parser,
    load_any,
    render_table,
)
from growbp.trainer import STOP_H_MAX, GrowthHistory, constructive_train

README = Path(__file__).resolve().parent.parent / "README.md"


def test_exports_are_the_readme_library_imports():
    library = README.read_text().split("## Library", 1)[1].split("\n## ")[0]
    imported = set()
    for names in re.findall(r"^from growbp import (.+)$", library, re.M):
        imported.update(n.strip() for n in names.split(","))
    assert imported == set(growbp.__all__)


def test_growth_table_header_is_the_csv_header():
    header = render_table(GrowthHistory((), STOP_H_MAX), "csv").splitlines()[0]
    shown = [ln for ln in README.read_text().splitlines()
             if ln.startswith("h,")]
    assert shown == [header]


def test_growth_table_example_is_what_cancer1_seed_2_writes():
    args = build_parser().parse_args(["train", "cancer1", "--seeds", "2"])
    cfg = build_experiment_config(args)
    history = constructive_train(load_any(cfg), cfg.train_config(2))[1]
    text = README.read_text().split("seed 2's table from the run above:")[1]
    assert text.split("```")[1].lstrip("\n") == render_table(history, "csv")


def test_every_train_flag_is_in_the_cli_section():
    cli = README.read_text().split("## CLI", 1)[1].split("\n## ")[0]
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    flags = [flag for action in commands.choices["train"]._actions
             if not isinstance(action, argparse._HelpAction)
             for flag in action.option_strings if not flag.startswith("--no-")]
    assert flags
    missing = [flag for flag in flags
               if not re.search(re.escape(flag) + r"(?![\w-])", cli)]
    assert missing == []
