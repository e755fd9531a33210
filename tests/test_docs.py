"""Figures the documentation states about the code, checked against it."""

import re
from pathlib import Path

from forcelab import (
    EMPTY_NAME, BinaryTreePoset, NameSpace, check_name, cli, fn_omega_omega,
    hereditary_closure, nat,
)

ROOT = Path(__file__).resolve().parent.parent


def test_readme_states_the_package_line_count():
    readme = (ROOT / "README.md").read_text()
    stated = re.search(r"The package is ([\d,]+) lines", readme)
    assert stated is not None
    actual = sum(path.read_text().count("\n")
                 for path in (ROOT / "src" / "forcelab").glob("*.py"))
    assert int(stated.group(1).replace(",", "")) == actual


def test_readme_states_the_core_line_count():
    readme = " ".join((ROOT / "README.md").read_text().split())
    stated = re.search(r"`import forcelab` loads only the forcing core: "
                       r"`errors`, `hf`, `posets`, `names`, `formulas` and "
                       r"`forcing`, ([\d,]+) of those lines with the "
                       r"package's `__init__.py`", readme)
    assert stated is not None
    core = ("__init__", "errors", "hf", "posets", "names", "formulas",
            "forcing")
    actual = sum((ROOT / "src" / "forcelab" / f"{m}.py").read_text()
                 .count("\n") for m in core)
    assert int(stated.group(1).replace(",", "")) == actual


def test_readme_states_the_name_space_figures():
    readme = " ".join((ROOT / "README.md").read_text().split())
    assert "with the bases ∅ and 1̌," in readme
    bases = (EMPTY_NAME, check_name(nat(1)))
    # Rank-1 names are assembled from the rank-0 closure names only.
    children = sum(1 for n in hereditary_closure(bases) if n.rank < 1)
    for where, poset in (("fn(2,2) at rank 1", fn_omega_omega(2, 2)),
                         ("the depth-3 tree at rank 1", BinaryTreePoset(3))):
        stated = re.search(re.escape(where) + r" keeps ([\d,]+) of ([\d,]+)",
                           readme)
        assert stated is not None, where
        kept, total = (int(g.replace(",", "")) for g in stated.groups())
        # A pair is (condition, child), with ONE standing for the top.
        pairs = len(poset.conditions()) * children
        assert (len(NameSpace(poset, bases, 1)), 2 ** pairs) == (kept, total)


def test_readme_lists_every_usage_line():
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Command line"):
                     readme.index("### Scenario language")]
    listed = re.findall(r"^command .*$", section, re.MULTILINE)
    assert listed == [cli.usage(row) for row in cli.HANDLERS]
