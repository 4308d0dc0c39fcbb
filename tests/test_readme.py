import re
from pathlib import Path

import growbp

README = Path(__file__).resolve().parent.parent / "README.md"


def test_exports_are_the_readme_library_imports():
    library = README.read_text().split("## Library", 1)[1].split("\n## ")[0]
    imported = set()
    for names in re.findall(r"^from growbp import (.+)$", library, re.M):
        imported.update(n.strip() for n in names.split(","))
    assert imported == set(growbp.__all__)
