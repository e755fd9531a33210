"""Command line front end: run one scenario file, print one JSON report.

Every subcommand reads a scenario file, checks that the file's command verb
matches the subcommand (``parse-only`` accepts any file), executes it, and
prints a single JSON object with sorted keys.  Domain errors come back as
``{"error": {"code": ..., "message": ...}}`` with exit status 1 for syntax
errors and 2 for every other domain error.  A reader that closes standard
output early (``forcelab ... | head``) ends the run quietly with status 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

from .choice import (
    all_choice_functions, antichain_from_choice, build_witness_flat,
    choice_from_antichain, extract_choice_flat,
)
from .cohen import (
    e_dense, g1_to_g, g_to_g1, hat_map, r_sigma_name,
)
from .dsl import Command, Scenario, parse_scenario
from .errors import ForceLabError, InvalidInput, ParseError, ReportTooLarge
from .forcing import (
    NameSpace, forces_semantic, forces_syntactic, least_ordinal_name,
    mix, mp_witness_search,
)
from .formulas import (
    And, Eq, Exists, Forall, Formula, Implies, Member, Not, Or, RankLE,
    constants, single_free_var, subst,
)
from .hf import render
from .names import PName, eval_name
from .perms import (
    Perm, act_name, column_support, decompose, is_fixed_by_Hn,
    sigma_conjugate,
)
from .posets import (
    ChoicePoset, FlatPoset, InjPoset, ONE, Poset, enumerate_maximal_antichains,
    is_dense,
)

# ---------------------------------------------------------------------------
# serialization


def cond_json(poset: Poset, c) -> str:
    return "1" if c is ONE else poset.condition_repr(c)


def name_json(poset: Poset, tau: PName) -> list:
    """A name as nested ``[condition, name]`` lists in sorted entry order.

    Each distinct subname is built once per call and its list is shared by
    every entry that holds it.  ``dumps`` writes it in full wherever it
    occurs, so the report shows the unfolded tree, but encodes its text
    only once per indentation depth.
    """
    return _name_json(poset, tau, {})


def _name_json(poset: Poset, tau: PName, memo: dict) -> list:
    out = memo.get(tau)
    if out is None:
        out = memo[tau] = [[cond_json(poset, c), _name_json(poset, s, memo)]
                           for c, s in tau.sorted_entries()]
    return out


# The most name entries one report may hold once its names are unfolded
# into trees, as the report writes them.  The check-name of the natural n
# unfolds to 2^n - 1 entries, so a few lines of scenario can ask for a
# report that would never finish.
MAX_REPORT_ENTRIES = 2 ** 22


def _check_report_size(*names: PName) -> None:
    """Raise ReportTooLarge when the names one report is about to write
    unfold to more than MAX_REPORT_ENTRIES entries.  Each distinct subname
    is counted once, so the check costs no more than serializing a DAG."""
    sizes: dict = {}
    total = sum(_unfolded_entries(tau, sizes) for tau in names)
    if total > MAX_REPORT_ENTRIES:
        raise ReportTooLarge(
            f"the report's names unfold to {total} entries, more than "
            f"the {MAX_REPORT_ENTRIES} a report may hold")


def _unfolded_entries(tau: PName, sizes: dict) -> int:
    out = sizes.get(tau)
    if out is None:
        out = sizes[tau] = len(tau.entries) + sum(
            _unfolded_entries(child, sizes) for _, child in tau.entries)
    return out


def perm_json(perm: Perm) -> dict:
    return {
        "cycles": [list(c) for c in perm.cycles],
        "chains": [{"lo": ch.lo, "mid": list(ch.mid),
                    "neg": list(ch.neg), "pos": list(ch.pos)}
                   for ch in perm.chains],
    }


def evaluations_json(poset: Poset, p, tau: PName) -> dict[str, str]:
    """The value of a name along the generic filter at each minimal
    condition extending p."""
    k = poset.kernel()
    below = k.down[poset.index_of(p)]
    return {poset.condition_repr(k.conds[a]):
            render(eval_name(tau, k.filter_at(a)))
            for a in k.minimals if below >> a & 1}


def dumps(payload, indent: Optional[int] = None) -> str:
    """``json.dumps(payload, sort_keys=True, indent=indent)``, byte for byte,
    for str-keyed dicts, lists and JSON scalars.  A list held in more than
    one place is encoded once per indentation depth, so a report costs
    Python work per distinct list plus copying per output byte."""
    uses: dict[int, int] = {}
    stack = [payload]
    while stack:
        obj = stack.pop()
        if isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, list):
            n = uses[id(obj)] = uses.get(id(obj), 0) + 1
            if n == 1:
                stack.extend(obj)
    memo: dict[tuple[int, str], str] = {}
    step, sep = ("", ", ") if indent is None else (" " * indent, ",")
    enc = json.encoder.encode_basestring_ascii

    # ``pad`` opens each line at the current depth; it is empty when compact.
    def write(obj, pad: str) -> str:
        if isinstance(obj, str):
            return enc(obj)
        if isinstance(obj, list):
            if not obj:
                return "[]"
            key = (id(obj), pad)
            out = memo.get(key)
            if out is None:
                inner = pad + step
                out = "[" + inner + (sep + inner).join(
                    [write(v, inner) for v in obj]) + pad + "]"
                if uses[id(obj)] > 1:  # keeping every list's text costs RSS
                    memo[key] = out
            return out
        if isinstance(obj, dict):
            if not obj:
                return "{}"
            inner = pad + step
            return "{" + inner + (sep + inner).join(
                [enc(k) + ": " + write(v, inner)
                 for k, v in sorted(obj.items())]) + pad + "}"
        if isinstance(obj, bool):
            return "true" if obj else "false"
        if isinstance(obj, int):
            return int.__repr__(obj)
        return json.dumps(obj)

    return write(payload, "" if indent is None else "\n")


# ---------------------------------------------------------------------------
# argument plumbing


def _args_exactly(cmd: Command, count: int, usage: str):
    if len(cmd.args) != count:
        raise InvalidInput(f"usage: command {usage}")
    return cmd.args


_REQUIRED = object()


def _kwarg_int(cmd: Command, key: str, default=_REQUIRED) -> Optional[int]:
    """An integer keyword argument; with no default it must be given, and a
    default of None leaves it optional."""
    value = cmd.kwarg(key, default)
    if value is _REQUIRED:
        raise InvalidInput(f"the command needs {key}=<int>")
    if value is not None and not isinstance(value, int):
        raise InvalidInput(f"{key} must be an integer")
    return value


def _resolve_cond(scenario: Scenario, poset: Poset, arg):
    """A condition argument: 1, a declared cond, or a bare element name."""
    if isinstance(arg, int):
        if arg == 1:
            return ONE
        raise InvalidInput("a numeric condition can only be 1")
    entry = scenario.entities.get(arg)
    if entry is not None:
        kind, payload = entry
        if kind != "cond":
            raise InvalidInput(f"{arg!r} is a {kind}, expected a condition")
        owner, cond = payload
        if owner is not poset:
            raise InvalidInput(
                f"condition {arg!r} was declared over a different poset")
        return cond
    return poset.resolve(arg)


def _max_rank_bound(phi: Formula) -> Optional[int]:
    if isinstance(phi, (Member, Eq)):
        return None
    if isinstance(phi, Not):
        return _max_rank_bound(phi.body)
    if isinstance(phi, (And, Or, Implies)):
        found = [b for b in (_max_rank_bound(phi.left),
                             _max_rank_bound(phi.right)) if b is not None]
        return max(found) if found else None
    if isinstance(phi, (Exists, Forall)):
        found = [b for b in (_max_rank_bound(phi.body),) if b is not None]
        if isinstance(phi.bound, RankLE):
            found.append(phi.bound.bound)
        return max(found) if found else None
    raise InvalidInput(f"not a formula: {phi!r}")


def _space_for(poset: Poset, phi: Formula,
               rank: Optional[int]) -> Optional[NameSpace]:
    if rank is None:
        rank = _max_rank_bound(phi)
        if rank is None:
            return None
    return NameSpace(poset, tuple(constants(phi)), rank)


# ---------------------------------------------------------------------------
# subcommands


def run_parse_only(scenario: Scenario, cmd: Optional[Command]) -> dict:
    return {
        "command": cmd.verb if cmd is not None else None,
        "declarations": {ident: kind
                         for ident, (kind, _) in scenario.entities.items()},
        "ok": True,
    }


def run_thm1(scenario: Scenario, cmd: Command) -> dict:
    mode, fam_id = _args_exactly(cmd, 2, "thm1 enumerate <family> level=<L>")
    if mode != "enumerate":
        raise InvalidInput(f"unknown thm1 mode {mode!r}")
    family = scenario.lookup(fam_id, "family", tok=cmd.tokens.get(1))
    level = _kwarg_int(cmd, "level", 1)
    poset = ChoicePoset(family, level)
    antichains = enumerate_maximal_antichains(poset)
    rows = []
    choices = []
    roundtrip_ok = True
    for a in antichains:
        f = choice_from_antichain(family, a)
        levels = {family.block_of(x): n for n, x in a}
        if antichain_from_choice(f, levels) != a:
            roundtrip_ok = False
        rows.append([poset.condition_repr(c)
                     for c in sorted(a, key=poset.condition_key)])
        choices.append({lab: render(x) for lab, x in f.items()})
    expected = 1
    for lab in family.labels:
        expected *= level * len(family.blocks[lab])
    return {
        "mode": "enumerate", "family": fam_id, "level": level,
        "count": len(antichains), "expected": expected,
        "antichains": rows, "choices": choices, "roundtrip_ok": roundtrip_ok,
    }


def run_thm2(scenario: Scenario, cmd: Command) -> dict:
    mode, fam_id = _args_exactly(cmd, 2, "thm2 extract <family>")
    if mode != "extract":
        raise InvalidInput(f"unknown thm2 mode {mode!r}")
    family = scenario.lookup(fam_id, "family", tok=cmd.tokens.get(1))
    flat = FlatPoset(family)
    taus = []
    extracted = []
    seen = set()
    roundtrip_ok = True
    for f in all_choice_functions(family):
        tau = build_witness_flat(f)
        g = extract_choice_flat(tau, flat)
        if g != f:
            roundtrip_ok = False
        seen.add(g)
        taus.append(tau)
        extracted.append({lab: render(x) for lab, x in g.items()})
    _check_report_size(*taus)
    witnesses = [name_json(flat, tau) for tau in taus]
    expected = 1
    for lab in family.labels:
        expected *= len(family.blocks[lab])
    return {
        "mode": "extract", "family": fam_id,
        "count": len(extracted), "expected": expected,
        "complete": len(seen) == expected, "roundtrip_ok": roundtrip_ok,
        "choices": extracted, "witnesses": witnesses,
    }


def run_forces(scenario: Scenario, cmd: Command) -> dict:
    poset_id, cond_arg, phi_id = _args_exactly(
        cmd, 3, "forces <poset> <condition> <formula> [rank=<K>]")
    poset = scenario.lookup(poset_id, "poset", tok=cmd.tokens.get(0))
    p = _resolve_cond(scenario, poset, cond_arg)
    phi = scenario.lookup(phi_id, "formula", tok=cmd.tokens.get(2))
    space = _space_for(poset, phi, _kwarg_int(cmd, "rank", None))
    sem = forces_semantic(poset, p, phi, space)
    syn = forces_syntactic(poset, p, phi, space)
    return {
        "poset": poset_id, "condition": cond_json(poset, p),
        "formula": phi_id, "forces": sem, "routes_agree": sem == syn,
    }


def run_witness(scenario: Scenario, cmd: Command) -> dict:
    poset_id, cond_arg, phi_id = _args_exactly(
        cmd, 3, "witness <poset> <condition> <formula> rank=<K>")
    poset = scenario.lookup(poset_id, "poset", tok=cmd.tokens.get(0))
    p = _resolve_cond(scenario, poset, cond_arg)
    theta = scenario.lookup(phi_id, "formula", tok=cmd.tokens.get(2))
    rank = _kwarg_int(cmd, "rank", 1)
    space = NameSpace(poset, tuple(constants(theta)), rank)
    tau = mp_witness_search(poset, p, theta, space)
    report = {
        "poset": poset_id, "condition": cond_json(poset, p),
        "formula": phi_id, "rank": rank, "found": tau is not None,
        "witness": None, "evaluations": {},
    }
    if tau is not None:
        _check_report_size(tau)
        report["witness"] = name_json(poset, tau)
        report["evaluations"] = evaluations_json(poset, p, tau)
    return report


def run_mix(scenario: Scenario, cmd: Command) -> dict:
    if len(cmd.args) < 4:
        raise InvalidInput(
            "usage: command mix <poset> <condition> <conds> <name>...")
    poset_id, cond_arg, conds_id = cmd.args[:3]
    name_ids = cmd.args[3:]
    poset = scenario.lookup(poset_id, "poset", tok=cmd.tokens.get(0))
    p = _resolve_cond(scenario, poset, cond_arg)
    owner, antichain = scenario.lookup(conds_id, "conds",
                                       tok=cmd.tokens.get(2))
    if owner is not poset:
        raise InvalidInput(
            f"conditions {conds_id!r} were declared over a different poset")
    names = [scenario.lookup(n, "name", tok=cmd.tokens.get(3 + i))
             for i, n in enumerate(name_ids)]
    if len(names) != len(antichain):
        raise InvalidInput(
            "need exactly one name per antichain member, in written order")
    mixed = mix(poset, p, antichain, dict(zip(antichain, names)))
    _check_report_size(mixed)
    return {
        "poset": poset_id, "condition": cond_json(poset, p),
        "antichain": [cond_json(poset, c) for c in antichain],
        "names": list(name_ids), "mixed": name_json(poset, mixed),
        "evaluations": evaluations_json(poset, p, mixed),
    }


def run_leastord(scenario: Scenario, cmd: Command) -> dict:
    poset_id, cond_arg, phi_id = _args_exactly(
        cmd, 3, "leastord <poset> <condition> <formula> kappa=<K>")
    poset = scenario.lookup(poset_id, "poset", tok=cmd.tokens.get(0))
    p = _resolve_cond(scenario, poset, cond_arg)
    theta = scenario.lookup(phi_id, "formula", tok=cmd.tokens.get(2))
    kappa = _kwarg_int(cmd, "kappa")
    tau = least_ordinal_name(poset, p, kappa, theta)
    _check_report_size(tau)
    var = single_free_var(theta)
    return {
        "poset": poset_id, "condition": cond_json(poset, p),
        "formula": phi_id, "kappa": kappa, "name": name_json(poset, tau),
        "forces_theta": forces_semantic(poset, p, subst(theta, var, tau)),
        "evaluations": evaluations_json(poset, p, tau),
    }


# The points 0..DECOMPOSE_RANGE-1 on which decompose checks that the two
# factors compose back to the permutation.
DECOMPOSE_RANGE = 100


def run_decompose(scenario: Scenario, cmd: Command) -> dict:
    (perm_id,) = _args_exactly(cmd, 1, "decompose <perm> n=<n> k=<k>")
    perm = scenario.lookup(perm_id, "perm", tok=cmd.tokens.get(0))
    n = _kwarg_int(cmd, "n")
    k = _kwarg_int(cmd, "k")
    first, second = decompose(perm, n, k)
    composition_ok = all(perm.apply(m) == first.apply(second.apply(m))
                         for m in range(DECOMPOSE_RANGE))
    return {
        "perm": perm_id, "n": n, "k": k, "pi": perm_json(perm),
        "pi1": perm_json(first), "pi2": perm_json(second),
        "pi1_in_Hn": first.in_Hn(n), "pi2_fixes_k": second.fixes_below(k),
        "composition_ok": composition_ok, "range": DECOMPOSE_RANGE,
    }


def run_symcheck(scenario: Scenario, cmd: Command) -> dict:
    (name_id,) = _args_exactly(cmd, 1, "symcheck <name> n=<n>")
    tau = scenario.lookup(name_id, "name", tok=cmd.tokens.get(0))
    n = _kwarg_int(cmd, "n", 0)
    return {
        "name": name_id, "n": n, "fixed": is_fixed_by_Hn(tau, n),
        "support": sorted(column_support(tau)),
    }


def run_cohen(scenario: Scenario, cmd: Command) -> dict:
    if not cmd.args:
        raise InvalidInput("usage: command cohen <mode> ...")
    mode = cmd.args[0]
    if mode == "roundtrip":
        _, asg_id = _args_exactly(cmd, 2, "cohen roundtrip <assignment>")
        asg = scenario.lookup(asg_id, "assignment", tok=cmd.tokens.get(1))
        g1 = g_to_g1(asg)
        back = g1_to_g(asg.grid, g1)
        return {
            "mode": "roundtrip", "assignment": asg_id,
            "section": {str(c): sorted(asg.column(c))
                        for c in range(asg.grid.cols)},
            "g1_size": len(g1.conditions),
            "decided_ok": back == asg.filter(),
        }
    if mode == "hat":
        _, asg_id, name_id = _args_exactly(
            cmd, 3, "cohen hat <assignment> <name>")
        asg = scenario.lookup(asg_id, "assignment", tok=cmd.tokens.get(1))
        tau = scenario.lookup(name_id, "name", tok=cmd.tokens.get(2))
        p1 = asg.p1_poset()
        hat = hat_map(tau, p1)
        orig = eval_name(tau, asg.filter())
        hat_eval = eval_name(hat, g_to_g1(asg))
        return {
            "mode": "hat", "assignment": asg_id, "name": name_id,
            "hat_entries": len(hat.entries),
            "orig_eval": render(orig), "hat_eval": render(hat_eval),
            "match": orig == hat_eval,
        }
    if mode == "edense":
        _, asg_id, conds_id = _args_exactly(
            cmd, 3, "cohen edense <assignment> <conds>")
        asg = scenario.lookup(asg_id, "assignment", tok=cmd.tokens.get(1))
        owner, dense = scenario.lookup(conds_id, "conds",
                                       tok=cmd.tokens.get(2))
        if owner is not asg.grid:
            raise InvalidInput(
                f"conditions {conds_id!r} were declared over a different grid")
        e = e_dense(asg, dense)
        p1 = asg.p1_poset()
        return {
            "mode": "edense", "assignment": asg_id, "count": len(e),
            "e": sorted(p1.condition_repr(q) for q in e),
            "dense_ok": is_dense(p1, e),
        }
    if mode == "conjugate":
        _, sigma_id = _args_exactly(
            cmd, 2, "cohen conjugate <sigma> n=<n> bound=<N> grid=<grid>")
        sigma = scenario.lookup(sigma_id, "sigma", tok=cmd.tokens.get(1))
        n = _kwarg_int(cmd, "n")
        bound = _kwarg_int(cmd, "bound")
        grid_id = cmd.kwarg("grid")
        if grid_id is None:
            raise InvalidInput("the conjugate mode needs grid=<grid>")
        grid = scenario.lookup(grid_id, "grid", tok=cmd.tokens.get("grid"))
        perm, translated = sigma_conjugate(sigma, n, bound)
        r1 = r_sigma_name(grid, sigma)
        r2 = r_sigma_name(grid, translated)
        return {
            "mode": "conjugate", "sigma": [list(p) for p in sorted(sigma)],
            "n": n, "bound": bound, "pi": perm_json(perm),
            "sigma_prime": [list(p) for p in sorted(translated)],
            "name_match": act_name(perm, r1) == r2,
            "compatible": InjPoset().compatible(sigma, translated),
        }
    raise InvalidInput(f"unknown cohen mode {mode!r}")


HANDLERS = {
    "parse-only": run_parse_only,
    "thm1": run_thm1,
    "thm2": run_thm2,
    "forces": run_forces,
    "witness": run_witness,
    "mix": run_mix,
    "leastord": run_leastord,
    "decompose": run_decompose,
    "symcheck": run_symcheck,
    "cohen": run_cohen,
}


# Built once at import: the options never change, and building them again
# on every call was a measurable share of a small report's time.
_PARSER = argparse.ArgumentParser(
    prog="forcelab", description="Run a forcing-laboratory scenario file.")
_PARSER.add_argument("subcommand", choices=sorted(HANDLERS))
_PARSER.add_argument("file", help="scenario file to run")
_PARSER.add_argument("--seed", type=int, default=0,
                     help="echoed into the report for reproducibility")
_PARSER.add_argument("--pretty", action="store_true",
                     help="indent the JSON report")


def _decode(data: bytes) -> str:
    """A scenario file's text: UTF-8, with its line ends read as ``\n``.
    An undecodable byte is a syntax error at the line and column where the
    tokenizer would have met it."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        text = _decode(data[:exc.start])
        line = text.count("\n") + 1
        col = len(text) - text.rfind("\n")
        raise ParseError(f"byte 0x{data[exc.start]:02x} is not UTF-8",
                         line, col) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _emit(payload: dict, pretty: bool) -> None:
    print(dumps(payload, 2 if pretty else None), flush=True)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        return _run(argv)
    except BrokenPipeError:
        # Nobody reads the rest of the report, which is not an error.  Point
        # stdout at devnull so that the interpreter's last flush of what is
        # still buffered cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0


def _run(argv: Optional[list[str]]) -> int:
    opts = _PARSER.parse_args(argv)
    try:
        data = Path(opts.file).read_bytes()
    except OSError as exc:
        _emit({"error": {"code": "io-error", "message": str(exc)}},
              opts.pretty)
        return 2
    try:
        scenario = parse_scenario(_decode(data))
        cmd = scenario.command
        if opts.subcommand != "parse-only":
            if cmd is None:
                raise InvalidInput("the scenario file declares no command")
            if cmd.verb != opts.subcommand:
                raise InvalidInput(
                    f"the file's command is {cmd.verb!r}, "
                    f"not {opts.subcommand!r}")
        report = HANDLERS[opts.subcommand](scenario, cmd)
        report["seed"] = opts.seed
        _emit(report, opts.pretty)
        return 0
    except ParseError as exc:
        payload = {"code": exc.code,
                   "message": exc.args[0] if exc.args else str(exc)}
        if exc.line:
            payload["line"] = exc.line
            payload["col"] = exc.col
        _emit({"error": payload}, opts.pretty)
        return 1
    except ForceLabError as exc:
        _emit({"error": {"code": exc.code, "message": str(exc)}},
              opts.pretty)
        return 2


if __name__ == "__main__":
    sys.exit(main())
