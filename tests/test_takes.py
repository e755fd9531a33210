"""``errors.takes``: each declaration compiles a wrapper with its callable's
own parameters, and that wrapper answers every call exactly as the generic
checker it replaced, kept here as ``reference_takes``."""

import functools
import importlib
import inspect
from pathlib import Path

import pytest

import forcelab
from forcelab import errors
from forcelab.dsl import Command
from forcelab.errors import check_kind, takes

MODULES = ("errors", "hf", "posets", "names", "formulas", "forcing",
           "choice", "perms", "cohen", "dsl", "cli")


def declarations() -> dict:
    """Every declared callable in the package, by qualified name: module
    functions, a class's ``__init__`` and its declared methods."""
    found = {}
    for module in MODULES:
        for obj in vars(importlib.import_module(f"forcelab.{module}")).values():
            members = vars(obj).values() if isinstance(obj, type) else (obj,)
            for fn in members:
                if isinstance(getattr(fn, "__takes__", None), dict):
                    found[fn.__qualname__] = fn
    return found


DECLARED = declarations()


def test_the_walk_finds_every_declaration():
    source = "".join(path.read_text() for path in
                     Path(forcelab.__file__).parent.glob("*.py"))
    assert len(DECLARED) == source.count("\n@takes(") + \
        source.count("\n    @takes(") == 65
    assert {"forces_semantic", "NameSpace.__init__", "NameSpace.__contains__",
            "Command.__init__", "Perm.__init__"} <= DECLARED.keys()


@pytest.mark.parametrize("name", sorted(DECLARED))
def test_a_wrapper_has_its_bodys_parameters(name):
    wrapper = DECLARED[name]
    body, code = wrapper.__wrapped__, wrapper.__code__
    assert code.co_varnames[:code.co_argcount] == \
        body.__code__.co_varnames[:body.__code__.co_argcount]
    assert code.co_flags & (inspect.CO_VARARGS | inspect.CO_VARKEYWORDS) == 0
    assert code.co_kwonlyargcount == code.co_posonlyargcount == 0
    assert wrapper.__defaults__ == body.__defaults__
    assert (wrapper.__name__, wrapper.__qualname__) == \
        (body.__name__, body.__qualname__)
    assert wrapper.__takes__.keys() <= set(inspect.signature(body).parameters)


def star_args(x, *rest):
    return x


def star_kwargs(x, **rest):
    return x


def keyword_only(x, *, y):
    return x


def positional_only(x, /, y):
    return x


@pytest.mark.parametrize("fn", [star_args, star_kwargs, keyword_only,
                                positional_only])
def test_takes_declares_positional_or_keyword_parameters_only(fn):
    with pytest.raises(TypeError, match="positional-or-keyword"):
        takes(x=int)(fn)


def test_takes_refuses_an_unknown_parameter():
    with pytest.raises(TypeError, match="positional-or-keyword"):
        takes(y=int)(lambda x: x)


# The generic checker the compiled wrappers replaced, as it was written: one
# loop over the declared parameters per call, reading each from the
# positional or keyword arguments.
def reference_takes(**kinds):
    def declare(fn):
        code, defaults = fn.__code__, fn.__defaults__ or ()
        names = code.co_varnames[:code.co_argcount]
        none = {p for p, d in zip(names[::-1], defaults[::-1]) if d is None}
        checks = []
        for p, k in kinds.items():
            quick = (k,) if type(k) is not list else \
                (tuple,) if k == [object] else ()
            if p in none:
                quick += (type(None),)
            checks.append((names.index(p), p, quick, k))
        where = fn.__qualname__.removesuffix(".__init__")

        @functools.wraps(fn)
        def checked(*args, **kwargs):
            n = len(args)
            for at, param, quick, kind in checks:
                if at < n:
                    value = args[at]
                elif param in kwargs:
                    value = kwargs[param]
                else:
                    continue
                if isinstance(value, quick) and type(value) is not bool:
                    continue
                value = check_kind(value, kind, where, param)
                if at < n:
                    args = (*args[:at], value, *args[at + 1:])
                else:
                    kwargs[param] = value
            return fn(*args, **kwargs)
        return checked
    return declare


FAM = forcelab.Family([("a", [forcelab.nat(0)])])
FLAT = forcelab.FlatPoset(FAM)
GAMMA = forcelab.gamma_name(FLAT)
PHI = forcelab.Member(forcelab.Cname(GAMMA), forcelab.Cname(GAMMA))
GRID = forcelab.CohenGridPoset(2, 1)
# One instance of each declared class; a stub body never reads it.
SAMPLES = (FLAT, FAM, GAMMA, PHI, GRID, forcelab.nat(1), 2, "a", (1, 2),
           {"a": 1}, forcelab.NameSpace(FLAT, [GAMMA], 1),
           forcelab.ChoiceFunction(FAM, {"a": forcelab.nat(0)}),
           forcelab.Assignment(GRID, [0, 1]), forcelab.Perm([(0, 1)]),
           forcelab.Chain(2, (4, 2), (2, 6), (2, 5)),
           Command("x"),
           forcelab.ChoicePoset(FAM, 1))


def sample(kind):
    """A valid value of a declared kind; a list for ``[K]``."""
    if type(kind) is list:
        return [sample(kind[0])]
    return next(v for v in SAMPLES if isinstance(v, kind)
                and type(v) is not bool)


def stubs(name):
    """The callable's signature and kinds, declared on a recording stub
    under each checker, and the stub's record of its last call."""
    wrapper = DECLARED[name]
    body = wrapper.__wrapped__
    params = body.__code__.co_varnames[:body.__code__.co_argcount]
    seen = []
    scope = {"seen": seen}
    exec(f"def stub({', '.join(params)}):\n"
         f" seen.append(({''.join(p + ', ' for p in params)}))\n", scope)
    stub = scope["stub"]
    stub.__defaults__, stub.__qualname__ = body.__defaults__, body.__qualname__
    stub.__name__ = body.__name__
    kinds = wrapper.__takes__
    return takes(**kinds)(stub), reference_takes(**kinds)(stub), seen


def outcome(call, seen):
    """What a call did: the body's arguments, each with its type, or the
    exception's type and message."""
    seen.clear()
    try:
        call()
    except (TypeError, errors.ForceLabError) as e:
        return type(e), str(e)
    (args,) = seen
    return [(type(a), a) for a in args]


class Unhashable:
    __hash__ = None


STRANGER = object()
BAD = (None, 5, -1, 1.5, True, "x", [], {}, (1,), STRANGER, Unhashable(),
       [object()], [None])


def cases(name):
    """(label, make the call's positional args and keyword args)."""
    body = DECLARED[name].__wrapped__
    kinds = DECLARED[name].__takes__
    params = body.__code__.co_varnames[:body.__code__.co_argcount]
    if params[0] in ("self", "__dataclass_self__"):
        params = params[1:]
    ndefaults = len(body.__defaults__ or ())
    required = len(params) - ndefaults
    valid = {p: (lambda k=kinds[p]: sample(k)) if p in kinds
             else (lambda: "undeclared") for p in params}

    def call(**changed):
        values = {p: changed.get(p, valid[p]) for p in params}
        return lambda: ([v() for v in values.values()], {})

    yield "position", call()
    yield "keyword", lambda: ([], {p: v() for p, v in valid.items()})
    yield "too few", lambda: ([valid[p]() for p in params[:required - 1]], {})
    yield "too many", lambda: ([v() for v in valid.values()] + [0], {})
    yield "defaults omitted", \
        lambda: ([valid[p]() for p in params[:required]], {})
    for p in params[required:]:
        yield f"{p} omitted by keyword", lambda p=p: (
            [], {q: valid[q]() for q in params if q != p})
        yield f"{p}=None", lambda p=p: (
            [valid[q]() for q in params[:required]], {p: None})
    yield "every declared parameter bad", call(**{
        p: (lambda: STRANGER) for p in kinds})
    for p, kind in kinds.items():
        if kind is int:
            yield f"{p} bool", call(**{p: lambda: True})
            yield f"{p} float", call(**{p: lambda: 2.0})
        if type(kind) is list:
            member = sample(kind)[0]
            yield f"{p} list", call(**{p: lambda m=member: [m]})
            yield f"{p} tuple", call(**{p: lambda m=member: (m,)})
            yield f"{p} generator", call(**{p: lambda m=member: (
                x for x in [m])})
        for i, bad in enumerate(BAD):
            yield f"{p} bad {i}", call(**{p: lambda bad=bad: bad})
            yield f"{p} bad {i} by keyword", lambda p=p, bad=bad: (
                [], {q: bad if q == p else valid[q]() for q in params})


@pytest.mark.parametrize("name", sorted(DECLARED))
def test_the_compiled_checker_agrees_with_the_reference(name):
    compiled, reference, seen = stubs(name)
    method = DECLARED[name].__qualname__ != DECLARED[name].__name__
    receiver = [object()] if method else []
    count = 0
    for label, make in cases(name):
        results = []
        for checker in (compiled, reference):
            args, kwargs = make()
            results.append(outcome(
                lambda: checker(*receiver, *args, **kwargs), seen))
        assert results[0] == results[1], label
        count += 1
    assert count >= 5


def test_a_generator_reaches_the_body_as_a_tuple():
    compiled, reference, seen = stubs("hereditary_closure")
    for checker in (compiled, reference):
        assert outcome(lambda: checker(x for x in [GAMMA]), seen) == \
            [(tuple, (GAMMA,))]


def test_an_arity_error_reads_as_the_bodys():
    with pytest.raises(TypeError) as info:
        forcelab.forces_semantic(FLAT)
    assert str(info.value) == "forces_semantic() missing 2 required " \
        "positional arguments: 'p' and 'phi'"
    with pytest.raises(TypeError) as info:
        forcelab.NameSpace(FLAT, [GAMMA], 1, 2)
    assert str(info.value) == \
        "NameSpace.__init__() takes 4 positional arguments but 5 were given"


def test_every_case_kind_is_met():
    labels = {label.split(" ")[-1] for name in DECLARED
              for label, _ in cases(name)}
    assert {"position", "keyword", "few", "many", "omitted", "bool", "float",
            "list", "tuple", "generator", "keyword"} <= labels
    assert sum(1 for name in DECLARED for _ in cases(name)) > 1000
