import re
from pathlib import Path

import growbp
from growbp.cli import render_table
from growbp.trainer import STOP_H_MAX, GrowthHistory

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
