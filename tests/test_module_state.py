"""Package-wide rule: state lives on posets, filters and calls, not in
modules, so there is nothing for a caller to clear."""

import importlib
import pkgutil

import forcelab

MODULES = [importlib.import_module(f"forcelab.{m.name}")
           for m in pkgutil.iter_modules(forcelab.__path__)]


def _module_level(test):
    return {f"{mod.__name__}.{name}"
            for mod in [forcelab, *MODULES]
            for name, obj in vars(mod).items()
            if not name.startswith("__") and test(name, obj)}


def test_no_clear_functions():
    assert _module_level(
        lambda name, obj: name.startswith("clear_") and callable(obj)) == set()


def test_module_level_containers():
    # hf._NATS and names._CHECKS are value tables, kept until HF sets and
    # names are interned.
    assert _module_level(
        lambda name, obj: isinstance(obj, (dict, list, set))) == {
        "forcelab.cli.HANDLERS", "forcelab.hf._NATS", "forcelab.names._CHECKS"}
