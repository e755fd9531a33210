"""Package-wide rule: state lives on posets, filters and calls, not in
modules, so there is nothing for a caller to clear."""

import importlib
import pkgutil
import weakref

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
    # The three _UNIQUE tables intern HF sets, names and formula nodes and
    # hold them weakly.  hf._NATS and names._CHECKS hold naturals and
    # check-names strongly: they recur in every operation, and interning
    # alone would let them die and be rebuilt between operations.
    assert _module_level(
        lambda name, obj: isinstance(obj, (
            dict, list, set, weakref.WeakValueDictionary,
            weakref.WeakKeyDictionary))) == {
        "forcelab.cli.HANDLERS", "forcelab.hf._NATS", "forcelab.names._CHECKS",
        "forcelab.hf._UNIQUE", "forcelab.names._UNIQUE",
        "forcelab.formulas._UNIQUE"}
