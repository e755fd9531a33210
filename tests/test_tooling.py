"""The benchmark harness's references into the library still resolve, and
the package's import footprint stays as documented.

The tier-1 suite never runs the traced benchmark, and the tracer looks up
each ``CALLS`` entry with no default, so a deleted or renamed library name
would stop the traced ``perfbench`` run with an ``AttributeError`` that no
tier-1 test sees.  The harness's sources are read with ``ast``; none of
them is imported.

``import forcelab`` loads the forcing core only, and the other modules load
on first use of one of their names; ``import forcelab.cli`` loads them all,
which the tracer relies on, as it wraps the CLI's module globals.
"""

import ast
import contextlib
import importlib
import io
import os
import pkgutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import forcelab
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


# The names the package exports, core and lazy alike, by the submodule that
# defines each.
EXPORTS = {
    "errors": (
        "ColumnCollision DuplicateIdentifier ForceLabError InvalidInput "
        "MalformedSigma NonInjective NotDense NotInSubgroup NotMaximal "
        "NotMaximalBelow OutOfRange ParseError PreconditionViolated "
        "ReportTooLarge TruncationEscape UnknownCondition "
        "UnresolvedReference ValueEscapesBlock"),
    "hf": "EMPTY HF kuratowski nat nat_value",
    "posets": (
        "BinaryTreePoset ChoicePoset CohenGridPoset ExplicitPoset Family "
        "Filter FlatPoset InjPoset MapPoset ONE Poset "
        "enumerate_maximal_antichains fn_omega_omega generic_filter "
        "inj_omega_omega is_dense is_maximal_antichain"),
    "names": (
        "EMPTY_NAME PName check_name eval_name gamma_name "
        "hereditary_closure name_conditions name_hf ordered_pair_name "
        "unordered_pair_name"),
    "formulas": (
        "And Cname Eq Exists Forall Formula Implies InName Member Not Or "
        "OrdLT RankLE Var constants disj single_free_var subst"),
    "forcing": (
        "NameSpace forces_semantic forces_syntactic least_ordinal_name mix "
        "mp_witness_search"),
    "choice": (
        "ChoiceFunction all_choice_functions antichain_from_choice "
        "build_witness_flat choice_from_antichain extract_choice_flat "
        "theta_family"),
    "perms": (
        "Chain Perm act_name column_support decompose "
        "is_fixed_by_Hn sigma_conjugate transposition"),
    "cohen": (
        "Assignment GridSectionFilter e_dense g1_to_g g_to_g1 hat_map "
        "r_sigma_condition r_sigma_name section_g1_conditions square_below "
        "xcheckcheck_name xdot_name"),
    "dsl": "Command Scenario parse_scenario tokenize",
}
CORE = {"errors", "hf", "posets", "names", "formulas", "forcing"}


def loaded_by(code: str) -> set[str]:
    """The modules a fresh interpreter loads while it runs ``code``, the
    package's own by their short names."""
    script = ("import sys\nbefore = set(sys.modules)\n" + code +
              "\nprint(sorted(set(sys.modules) - before))")
    path = os.pathsep.join(filter(None, (str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}).stdout
    return {m.removeprefix("forcelab.") for m in ast.literal_eval(out)}


def test_import_loads_the_forcing_core_only():
    new = loaded_by("import forcelab")
    assert {m for m in new if m in EXPORTS} == CORE
    assert "dataclasses" not in new
    assert "inspect" not in new  # the kind declarations read __code__


def test_cli_import_leaves_argparse_out():
    # The command line reads its own argv, so a cold command does not
    # import argparse.
    assert "argparse" not in loaded_by("import forcelab.cli")


@pytest.mark.parametrize("name, modules", [
    ("ChoiceFunction", {"choice"}),
    ("Chain", {"perms"}),
    ("hat_map", {"cohen", "perms"}),
    ("cohen", {"cohen", "perms"}),
    ("parse_scenario", {"dsl", "cohen", "perms"}),
])
def test_a_lazy_name_loads_its_module(name, modules):
    # A lazy module loads with the lazy modules it imports, and no other;
    # the script resets ``before``, so what the import loads does not count.
    new = loaded_by(f"import forcelab\nbefore = set(sys.modules)\n"
                    f"forcelab.{name}")
    assert {m for m in new if m in EXPORTS} == modules


def test_cli_loads_every_module():
    new = loaded_by("import forcelab.cli")
    assert {m for m in new if m in EXPORTS or m == "cli"} == \
        {m.name for m in pkgutil.iter_modules(forcelab.__path__)}


def test_every_export_resolves_to_its_submodule():
    for module, names in EXPORTS.items():
        sub = importlib.import_module(f"forcelab.{module}")
        assert getattr(forcelab, module) is sub
        for name in names.split():
            assert getattr(forcelab, name) is getattr(sub, name), name
    with pytest.raises(AttributeError):
        forcelab.no_such_name


def test_star_import_binds_the_exported_names():
    bound: dict = {}
    exec("from forcelab import *", bound)
    del bound["__builtins__"]
    assert len(bound) == 115
    assert set(bound) == {*EXPORTS, *" ".join(EXPORTS.values()).split()}
    assert set(bound) <= set(dir(forcelab))


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) for each name a module imports and never reads, in its
    code or in an annotation written as a string."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for note in (getattr(node, "annotation", None),
                     getattr(node, "returns", None)):
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= {n.id for n in ast.walk(ast.parse(note.value))
                         if isinstance(n, ast.Name)}
    return [(a.lineno, name) for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for a in node.names
            if (name := (a.asname or a.name).split(".")[0]) not in used]


PACKAGE = sorted((ROOT / "src" / "forcelab").glob("*.py"))


# ``__init__.py`` imports in order to export; every other module must use
# what it imports, except where a line says the tracer wraps it there.
@pytest.mark.parametrize("path", [p for p in PACKAGE
                                  if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    text = path.read_text()
    lines = text.splitlines()
    unused = [(line, name) for line, name in unused_imports(ast.parse(text))
              if "# noqa: F401" not in lines[line - 1]]
    assert unused == []


def untraced_seams(module: str, text: str, calls) -> list[tuple[int, str]]:
    """(line, name) for each name the module imports on a line marked
    ``# noqa: F401`` that no ``CALLS`` row wraps in that module: a seam
    kept for the tracer that the tracer no longer reads."""
    wrapped = {attr for m, attr, _ in calls if m == module}
    lines = text.splitlines()
    return [(a.lineno, name) for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for a in node.names
            if "# noqa: F401" in lines[a.lineno - 1]
            and (name := a.asname or a.name) not in wrapped]


def test_untraced_seams_are_caught():
    text = ("from .names import eval_name  # noqa: F401\n"
            "from .hf import nat  # noqa: F401\n"
            "from .formulas import subst\n")
    calls = (("forcelab.m", "eval_name", "names.eval"),
             ("forcelab.other", "nat", "hf.nat"))
    assert untraced_seams("forcelab.m", text, calls) == [(2, "nat")]


# An import kept only for the tracer names a ``CALLS`` row of its module;
# these rows list the seams that go once the tracer reads a meter instead.
@pytest.mark.parametrize("path", [p for p in PACKAGE
                                  if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_tracer_seam_is_wrapped(path):
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    calls = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["CALLS"])
    assert untraced_seams(f"forcelab.{path.stem}", path.read_text(),
                          calls) == []


def nesting_arithmetic(tree: ast.Module) -> list[int]:
    """The lines where ``MAX_NESTING`` is an operand of arithmetic or of a
    comparison: a place that states a nesting weight of its own."""
    def names_it(node):
        return getattr(node, "id", getattr(node, "attr", None)) == \
            "MAX_NESTING"

    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.BinOp)
                   and (names_it(node.left) or names_it(node.right))
                   or isinstance(node, ast.Compare)
                   and any(map(names_it, [node.left, *node.comparators]))})


def test_nesting_arithmetic_is_caught():
    tree = ast.parse("from .formulas import MAX_NESTING\n"
                     "if 4 * rank > MAX_NESTING:\n    pass\n"
                     "room = formulas.MAX_NESTING - 2 * depth\n"
                     "limit = MAX_NESTING\n")
    assert nesting_arithmetic(tree) == [2, 4]


# The nesting weight 2 x depth + 4 x rank is written once, in
# ``formulas._check_nesting``; every other module calls it.
@pytest.mark.parametrize("path", [p for p in PACKAGE
                                  if p.name != "formulas.py"],
                         ids=lambda p: p.name)
def test_only_formulas_weighs_nesting(path):
    assert nesting_arithmetic(ast.parse(path.read_text())) == []


def forwarding_twins(tree: ast.Module) -> list[str]:
    """The top-level functions whose body, after any docstring, only
    returns a call of a module-level private function with the function's
    own parameters, in order: a second body behind a declared callable."""
    private = {node.name for node in tree.body
               if isinstance(node, ast.FunctionDef)}
    private |= {t.id for node in tree.body if isinstance(node, ast.Assign)
                for t in node.targets if isinstance(t, ast.Name)}
    private |= {a.asname or a.name for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for a in node.names}
    private = {name for name in private
               if name.startswith("_") and not name.startswith("__")}
    out = []
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        body = node.body
        if body and isinstance(body[0], ast.Expr) \
                and isinstance(body[0].value, ast.Constant) \
                and isinstance(body[0].value.value, str):
            body = body[1:]
        params = [a.arg for a in node.args.posonlyargs + node.args.args]
        if len(body) == 1 and isinstance(body[0], ast.Return) \
                and isinstance(call := body[0].value, ast.Call) \
                and isinstance(call.func, ast.Name) \
                and call.func.id in private and not call.keywords \
                and [getattr(a, "id", None) for a in call.args] == params:
            out.append(f"{node.name} -> {call.func.id}")
    return out


def test_forwarding_twins_are_caught():
    tree = ast.parse(
        "def f(a, b):\n    'doc'\n    return _f(a, b)\n"
        "def _f(a, b):\n    return a\n"
        "def g(a):\n    return _g(a, {})\n"
        "def _g(a, memo):\n    return a\n")
    assert forwarding_twins(tree) == ["f -> _f"]


# A declared callable keeps its one body; the library's own hot calls reach
# it undeclared as ``__wrapped__``, bound to a private name.  A memo entry
# point that passes an extra argument, such as ``eval_name``, is no twin.
@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_declared_callable_forwards_to_a_private_twin(path):
    assert forwarding_twins(ast.parse(path.read_text())) == []


def cached_properties(tree: ast.Module) -> list[int]:
    """The lines that name ``cached_property``, imported, read or applied."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if getattr(node, "id", None) == "cached_property"
                   or getattr(node, "attr", None) == "cached_property"
                   or any(a.name == "cached_property"
                          for a in getattr(node, "names", ()))})


def test_cached_properties_are_caught():
    tree = ast.parse("import functools\n"
                     "from functools import cached_property as cp\n"
                     "class A:\n    @functools.cached_property\n"
                     "    def x(self):\n        return 1\n")
    assert cached_properties(tree) == [2, 4]


# A value computed on first read lives in an attribute that ``__init__``
# sets, or is read again through a method.  A ``functools.cached_property``
# stores into the instance ``__dict__`` on first read, which on CPython
# 3.11 makes every later attribute load on that instance slower.
def test_no_cached_property_in_the_package():
    found = [(path.name, line) for path in PACKAGE
             for line in cached_properties(ast.parse(path.read_text()))]
    assert found == []


def test_reading_a_space_adds_no_attribute():
    poset = forcelab.fn_omega_omega(2, 2)
    bases = (forcelab.EMPTY_NAME, forcelab.check_name(forcelab.nat(1)))
    last = forcelab.NameSpace(poset, bases, 1).universe[-1]
    # The first reader stops at ∅, before the walk runs.
    readers = (lambda s: forcelab.EMPTY_NAME in s, lambda s: s.universe,
               len, lambda s: last in s, lambda s: s.names_of_rank_le(1))
    for read in (*readers, lambda s: [r(s) for r in readers * 2]):
        space = forcelab.NameSpace(poset, bases, 1)
        keys = list(vars(space))
        read(space)
        assert list(vars(space)) == keys


def test_each_fact_has_one_store():
    """The routes share only the kernel and the space, each keeping one
    memo table; the space keeps its order with no separate count of the
    names interned; the kernel keeps one copy of its order; and a command
    keeps each argument as its token, with no side table of positions."""
    from forcelab import (
        ONE, Cname, Eq, Exists, Forall, InName, Member, OrdLT, RankLE, Var,
    )
    family = forcelab.Family([("a", [forcelab.nat(0)]),
                              ("b", [forcelab.nat(1)])])
    poset = forcelab.FlatPoset(family)
    gamma = forcelab.gamma_name(poset)
    space = forcelab.NameSpace(poset, (gamma,), 1)
    x, zero = Var("x"), Cname(forcelab.check_name(forcelab.nat(0)))
    body = Member(x, Cname(gamma))
    for bound in (InName(gamma), OrdLT(2), RankLE(1)):
        for q in (Exists, Forall):
            for route in (forcelab.forces_semantic, forcelab.forces_syntactic):
                route(poset, ONE, q("x", bound, body), space)
                if not isinstance(bound, RankLE):
                    route(poset, ONE, q("x", bound, body))
    forcelab.mix(poset, ONE, ("a", "b"),
                 {"a": gamma, "b": forcelab.EMPTY_NAME})
    forcelab.least_ordinal_name(poset, ONE, 2, Eq(x, zero))
    assert forcelab.mp_witness_search(poset, ONE, body, space) is not None
    k = poset.kernel()
    for forcer in (space.forcer, k.forcer):
        assert sorted(vars(forcer)) == ["_forcing", "_truth", "k", "space"]
    assert sorted(vars(space)) == [
        "_at", "_k", "_masks", "_of_bit", "_order", "_pairs", "_rank",
        "_unchecked", "_unwalked", "_values", "base_names", "forcer", "poset",
        "rank_bound"]
    assert not hasattr(k, "exts") and "_exts" not in vars(k)
    command = parse_scenario("poset P fn dom = 1 cod = 1\n"
                             "command forces P 1 phi rank=1\n").command
    assert list(vars(command)) == ["verb", "args", "kwargs"]


def test_interned_kinds_take_identity_equality_from_object():
    """HF sets, names and formula nodes are interned, so an equal value is
    the same object: each kind takes ``==`` and the hash from ``object``
    and restates neither."""
    from forcelab import ONE, Cname, Exists, InName, Member, Var, formulas
    nodes = [cls for cls in vars(formulas).values()
             if isinstance(cls, type) and issubclass(cls, formulas._Node)]
    assert len(nodes) > 10
    for kind in (forcelab.HF, forcelab.PName, *nodes):
        assert "__eq__" not in vars(kind), kind
        assert "__hash__" not in vars(kind), kind
    nat, check = forcelab.nat, forcelab.check_name
    for build in (lambda: forcelab.HF([nat(0), nat(2)]),
                  lambda: forcelab.PName([(ONE, check(nat(0))),
                                          (ONE, check(nat(1)))]),
                  lambda: Exists("x", InName(check(nat(2))),
                                 Member(Var("x"), Cname(check(nat(1)))))):
        a, b = build(), build()
        assert a == b and a is b and hash(a) == object.__hash__(b)
    assert check(nat(2)) == forcelab.PName([(ONE, check(nat(0))),
                                            (ONE, check(nat(1)))])
    assert nat(1) != nat(2) and check(nat(1)) != check(nat(2))


def formula_leaves(tree: ast.Module) -> set[str]:
    """The classes a module defines below ``_Formula`` with no subclass
    of their own: the node kinds a formula can have."""
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for node in tree.body if isinstance(node, ast.ClassDef)}

    def is_formula(name):
        return name == "_Formula" or any(map(is_formula, bases.get(name, ())))

    parents = {b for bs in bases.values() for b in bs}
    return {name for name in bases if is_formula(name) and name not in parents}


def undispatched(formulas: ast.Module, forcing: ast.Module,
                 functions) -> list[str]:
    """The node kinds that none of the named functions of the forcing
    module names: with ``type(phi) is ...`` dispatch, such a kind would
    fall into another kind's clause."""
    named = {n.id for node in ast.walk(forcing)
             if isinstance(node, ast.FunctionDef) and node.name in functions
             for n in ast.walk(node) if isinstance(n, ast.Name)}
    return sorted(formula_leaves(formulas) - named)


def test_undispatched_formula_kinds_are_caught():
    formulas = ast.parse("class _Formula: pass\nclass _Atom(_Formula): pass\n"
                         "class Member(_Atom): pass\nclass Eq(_Atom): pass\n"
                         "class Not(_Formula): pass\nclass Var: pass\n")
    forcing = ast.parse("class F:\n    def truth(self, phi):\n"
                        "        if type(phi) is Member:\n"
                        "            return Var\n"
                        "    def other(self, phi):\n        return Not\n")
    assert formula_leaves(formulas) == {"Member", "Eq", "Not"}
    assert undispatched(formulas, forcing, ("truth",)) == ["Eq", "Not"]


# Each route's dispatch: the methods of ``forcing._Forcer`` that compare a
# node's type with its kinds.
ROUTES = {"semantic": ("truth", "_truth_of"),
          "syntactic": ("forcing", "_forcing_of")}


@pytest.mark.parametrize("route", ROUTES)
def test_each_route_dispatches_every_formula_kind(route):
    package = ROOT / "src" / "forcelab"
    formulas = ast.parse((package / "formulas.py").read_text())
    assert formula_leaves(formulas) == {
        "Member", "Eq", "Not", "And", "Or", "Implies", "Exists", "Forall"}
    forcing = ast.parse((package / "forcing.py").read_text())
    assert undispatched(formulas, forcing, ROUTES[route]) == []
