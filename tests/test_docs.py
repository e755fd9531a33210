"""Figures the documentation states about the code, checked against it."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_states_the_package_line_count():
    readme = (ROOT / "README.md").read_text()
    stated = re.search(r"The package is ([\d,]+) lines", readme)
    assert stated is not None
    actual = sum(path.read_text().count("\n")
                 for path in (ROOT / "src" / "forcelab").glob("*.py"))
    assert int(stated.group(1).replace(",", "")) == actual
