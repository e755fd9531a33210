"""The benchmark harness's references into the library still resolve.

The tier-1 suite never runs the traced benchmark, and the tracer skips a
``CALLS`` entry whose attribute is missing, so a deleted or renamed library
name would break ``perfbench`` silently.  The harness's sources are read
with ``ast``; none of them is imported.
"""

import ast
import contextlib
import importlib
import io
from collections import Counter
from pathlib import Path

import pytest

from forcelab import cli, parse_scenario

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))


def resolve(dotted: str):
    """The object a dotted path names, importing modules along the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            obj = importlib.import_module(".".join(parts[:i]))
    return obj


def library_references(tree: ast.Module) -> set[str]:
    """Every dotted forcelab path the module imports, plus every attribute
    chain read off a name bound to a forcelab module or object."""
    refs: set[str] = set()
    bound: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "forcelab":
                    refs.add(alias.name)
                    bound[alias.asname or "forcelab"] = \
                        alias.name if alias.asname else "forcelab"
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "forcelab":
            for alias in node.names:
                bound[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    refs |= set(bound.values())
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            refs.add(".".join([bound[node.id], *reversed(chain)]))
    return refs


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_perfbench_library_references_resolve(path):
    for ref in sorted(library_references(ast.parse(path.read_text()))):
        resolve(ref)


def test_tracer_calls_resolve():
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    calls = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["CALLS"])
    assert calls
    for module, attr, _ in calls:
        assert hasattr(importlib.import_module(module), attr), \
            f"{module}.{attr}"



def test_traced_cli_names_stay_live(monkeypatch):
    """Every name the tracer wraps in ``forcelab.cli`` is still called when
    the committed scenarios run, so a handler calls it as a module global
    rather than through a reference bound at import, which the trace would
    miss; and the wrappers leave every report as its golden."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    calls = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["CALLS"])
    wrapped = {attr for module, attr, _ in calls if module == "forcelab.cli"}
    counts: Counter = Counter()

    def counting(attr, fn):
        def wrapper(*args, **kwargs):
            counts[attr] += 1
            return fn(*args, **kwargs)
        return wrapper

    for attr in wrapped:
        monkeypatch.setattr(cli, attr, counting(attr, getattr(cli, attr)))
    scenarios = sorted((ROOT / "scenarios").glob("*.fl"))
    assert len(scenarios) == 16
    for path in scenarios:
        command = parse_scenario(path.read_text()).command
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main([command.verb if command else "parse-only",
                               str(path)])
        assert status == 0
        assert out.getvalue() == \
            (ROOT / "tests" / "golden" / f"{path.stem}.json").read_text()
    assert sorted(attr for attr in wrapped if not counts[attr]) == []
