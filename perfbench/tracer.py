"""Spans and counters around the calls into each ``forcelab`` module.

The benchmark's traced run installs wrappers from here; the library itself
is unchanged.  A wrapped function is replaced in the module that calls it,
not in the one that defines it, so recursion inside a module stays
unwrapped (``name_json`` calls itself through the same reference it is
called by, so a call already inside its own span passes straight through).
Methods that run millions of times (``le``, ``compatible``, ``HF`` and
``PName`` construction and ``HF.__eq__``) get a counter, and ``le`` a time,
but no stored span.

A span is (id, name, start, end, parent id, operation id).  A layer's self
time is its spans' duration minus the time their child spans cover.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

import forcelab
import forcelab.cli  # noqa: F401  (CALLS wraps references in it)
from forcelab import posets
from forcelab.formulas import (
    And, Exists, Forall, Implies, InName, Not, Or, OrdLT, RankLE,
)

# (module, attribute, span name): every module-level reference to wrap.
# Workload modules add their own references to the same functions.
CALLS = (
    ("forcelab.cli", "forces_semantic", "forcing.semantic"),
    ("forcelab.choice", "forces_semantic", "forcing.semantic"),
    ("forcelab.cli", "forces_syntactic", "forcing.syntactic"),
    ("forcelab.cli", "NameSpace", "forcing.namespace"),
    ("forcelab.cli", "mp_witness_search", "forcing.witness"),
    ("forcelab.cli", "mix", "forcing.mix"),
    ("forcelab.cli", "least_ordinal_name", "forcing.leastord"),
    ("forcelab.forcing", "eval_name", "names.eval"),
    ("forcelab.cli", "eval_name", "names.eval"),
    ("forcelab.choice", "eval_name", "names.eval"),
    ("forcelab.forcing", "subst", "formulas.subst"),
    ("forcelab.cli", "subst", "formulas.subst"),
    ("forcelab.choice", "subst", "formulas.subst"),
    ("forcelab.cli", "parse_scenario", "dsl.parse"),
    ("forcelab.cli", "name_json", "cli.name_json"),
    ("forcelab.cli", "build_witness_flat", "choice.build_witness"),
    ("forcelab.cli", "extract_choice_flat", "choice.extract"),
    ("forcelab.cli", "hat_map", "cohen.hat_map"),
    ("forcelab.cli", "e_dense", "cohen.e_dense"),
    ("forcelab.cli", "decompose", "perms.decompose"),
    ("forcelab.cli", "act_name", "perms.act_name"),
)
SPAN_NAMES = {
    "forces_semantic": "forcing.semantic",
    "forces_syntactic": "forcing.syntactic",
    "NameSpace": "forcing.namespace",
    "mp_witness_search": "forcing.witness",
    "eval_name": "names.eval",
    "subst": "formulas.subst",
    "main": "cli.main",
}
BOUND_CLASSES = ("atoms", "inname", "ordlt", "rankle")


def bound_class(phi) -> str:
    """The heaviest quantifier bound in a formula, in the order
    rankle > ordlt > inname > atoms."""
    if isinstance(phi, Not):
        return bound_class(phi.body)
    if isinstance(phi, (And, Or, Implies)):
        return max(bound_class(phi.left), bound_class(phi.right),
                   key=BOUND_CLASSES.index)
    if isinstance(phi, (Exists, Forall)):
        here = {InName: "inname", OrdLT: "ordlt",
                RankLE: "rankle"}[type(phi.bound)]
        return max(here, bound_class(phi.body), key=BOUND_CLASSES.index)
    return "atoms"


class Tracer:
    def __init__(self):
        self.active = False
        self.op = -1
        self.stack: list[list] = []  # [name, start, child time, span id]
        self.spans: list[tuple] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.unsettled: list[tuple] = []  # (witness found, its name space)

    # -- wrappers -------------------------------------------------------------

    def span(self, name, fn, label=None, after=None, keep=True):
        """Wrap ``fn`` in a timed span.  ``label`` extends the span name
        from the arguments, ``after`` sees the result, and ``keep=False``
        times the call without storing a span."""
        stack, spans = self.stack, self.spans

        def wrapper(*args, **kwargs):
            if not self.active or (stack and stack[-1][0] == name):
                return fn(*args, **kwargs)
            full = name if label is None else \
                f"{name}.{label(*args, **kwargs)}"
            sid = len(spans)
            parent = stack[-1][3] if stack else None
            frame = [name, perf_counter(), 0.0, sid]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                self.self_s[full] += duration - frame[2]
                self.calls[name] += 1
                if stack:
                    stack[-1][2] += duration
                if keep:
                    spans.append((sid, full, frame[1], end, parent, self.op))
            if after is not None:
                after(result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self, workload_modules=()):
        """Wrap every reference in ``CALLS`` and in the workload modules,
        and the hot methods on the library's classes."""
        targets = [(sys.modules[m], attr, name) for m, attr, name in CALLS]
        for module in workload_modules:
            targets += [(module, attr, name)
                        for attr, name in SPAN_NAMES.items()
                        if hasattr(module, attr)]
        for module, attr, name in targets:
            fn = getattr(module, attr)
            setattr(module, attr, self.span(name, fn, **self._extras(name)))
        for cls in vars(posets).values():
            if isinstance(cls, type) and issubclass(cls, posets.Poset):
                if "le" in vars(cls):
                    cls.le = self.span("posets.le", cls.le, keep=False)
                if "compatible" in vars(cls):
                    cls.compatible = self.counted("posets.compatible",
                                                  cls.compatible)
        posets.Poset.minimal_conditions = self.span(
            "posets.minimal", posets.Poset.minimal_conditions)
        forcelab.HF.__init__ = self.counted("hf.new", forcelab.HF.__init__)
        forcelab.HF.__eq__ = self.counted("hf.eq", forcelab.HF.__eq__)
        forcelab.PName.__init__ = self.counted("names.new",
                                               forcelab.PName.__init__)

    def _extras(self, name):
        counts = self.counts
        if name in ("forcing.semantic", "forcing.syntactic"):
            return {"label": lambda poset, p, phi, space=None:
                    bound_class(phi)}
        if name == "forcing.namespace":
            def names(space, *args, **kwargs):
                counts["forcing.namespace.names"] += len(space)
            return {"after": names}
        if name == "forcing.witness":
            # Finding the witness's index scans the universe, so it waits
            # for settle(), after the operation and outside its timing.
            def scanned(found, poset, p, theta, space):
                self.unsettled.append((found, space))
            return {"after": scanned}
        if name == "dsl.parse":
            def parsed(scenario, text):
                counts["dsl.parse.bytes"] += len(text.encode())
            return {"after": parsed}
        if name == "cohen.hat_map":
            def entries(hat, *args, **kwargs):
                counts["cohen.hat_map.entries"] += len(hat.entries)
            return {"after": entries}
        if name == "cli.main":
            # The caller redirects stdout to a fresh StringIO, so its length
            # after the call is the report's size (reports are ASCII JSON).
            def report(status, argv):
                counts["cli.report.bytes"] += sys.stdout.tell()
            return {"after": report}
        return {}

    # -- results --------------------------------------------------------------

    def settle(self) -> None:
        """Count the names each witness search of the last operation
        scanned; call it once the operation has ended."""
        counts = self.counts
        for found, space in self.unsettled:
            if found is None:
                counts["forcing.witness.scanned"] += len(space)
            else:
                counts["forcing.witness.found"] += 1
                counts["forcing.witness.scanned"] += \
                    space.universe.index(found) + 1
        self.unsettled.clear()

    def metrics(self) -> dict:
        """Every per-layer metric, as {name: (value, unit)}."""
        s, calls, counts = self.self_s, self.calls, self.counts
        out = {
            "posets.le.calls": (calls["posets.le"], "count"),
            "posets.le.s": (s["posets.le"], "s"),
            "posets.compatible.calls": (counts["posets.compatible"], "count"),
            "posets.minimal.s": (s["posets.minimal"], "s"),
        }
        for route in ("semantic", "syntactic"):
            out[f"forcing.{route}.calls"] = (calls[f"forcing.{route}"],
                                             "count")
            for cls in BOUND_CLASSES:
                out[f"forcing.{route}.{cls}.s"] = (
                    s[f"forcing.{route}.{cls}"], "s")
        scanned = counts["forcing.witness.scanned"]
        out.update({
            "forcing.namespace.s": (s["forcing.namespace"], "s"),
            "forcing.namespace.names": (counts["forcing.namespace.names"],
                                        "count"),
            "forcing.witness.s": (s["forcing.witness"], "s"),
            "forcing.witness.hit_ratio": (
                counts["forcing.witness.found"] / scanned if scanned else 0.0,
                "ratio"),
            "forcing.mix.s": (s["forcing.mix"], "s"),
            "forcing.leastord.s": (s["forcing.leastord"], "s"),
            "names.eval.calls": (calls["names.eval"], "count"),
            "names.eval.s": (s["names.eval"], "s"),
            "names.new.calls": (counts["names.new"], "count"),
            "hf.new.calls": (counts["hf.new"], "count"),
            "hf.eq.calls": (counts["hf.eq"], "count"),
            "formulas.subst.calls": (calls["formulas.subst"], "count"),
            "formulas.subst.s": (s["formulas.subst"], "s"),
            "dsl.parse.s": (s["dsl.parse"], "s"),
            "dsl.parse.bytes": (counts["dsl.parse.bytes"], "B"),
            "cli.main.self_s": (s["cli.main"], "s"),
            "cli.name_json.s": (s["cli.name_json"], "s"),
            "cli.report.bytes": (counts["cli.report.bytes"], "B"),
            "choice.build_witness.s": (s["choice.build_witness"], "s"),
            "choice.extract.s": (s["choice.extract"], "s"),
            "cohen.hat_map.s": (s["cohen.hat_map"], "s"),
            "cohen.hat_map.entries": (counts["cohen.hat_map.entries"],
                                      "count"),
            "cohen.e_dense.s": (s["cohen.e_dense"], "s"),
            "perms.decompose.s": (s["perms.decompose"], "s"),
            "perms.act_name.s": (s["perms.act_name"], "s"),
        })
        return out

    def write_spans(self, path) -> None:
        """Gzipped, one JSON array per line: id, name, start, end, parent,
        operation."""
        with gzip.open(path, "wt") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
