"""Command line front end: run one scenario file, print one JSON report.

Every subcommand reads a scenario file, checks that the file's command verb
matches the subcommand (``parse-only`` accepts any file), executes it, and
prints a single JSON object with sorted keys.  Domain errors come back as
``{"error": {"code": ..., "message": ...}}`` with exit status 1 for syntax
errors and 2 for every other domain error.  A reader that closes standard
output early (``forcelab ... | head``) ends the run quietly with status 0.
"""

from __future__ import annotations

import json
import math
import os
import sys
from typing import Optional

from .choice import (
    all_choice_functions, antichain_from_choice, build_witness_flat,
    choice_from_antichain, extract_choice_flat,
)
from .cohen import (
    e_dense, g1_to_g, g_to_g1, hat_map, r_sigma_name,
)
from .dsl import Command, Parser, Scenario, Token, parse_scenario
from .errors import ForceLabError, InvalidInput, ParseError, ReportTooLarge
from .forcing import (
    NameSpace, forces_semantic, forces_syntactic, least_ordinal_name,
    mix, mp_witness_search,
)
from .formulas import (
    Formula, constants, max_rank_bound, single_free_var, subst,
)
from .names import PName, eval_name
from .perms import (
    Perm, act_name, column_support, decompose, is_fixed_by_Hn,
    sigma_conjugate,
)
from .posets import (
    ChoicePoset, FlatPoset, InjPoset, ONE, Poset, enumerate_maximal_antichains,
    is_dense,
)

# Undeclared, for the thm1 loop, which builds their arguments itself.
_choice_from_antichain = choice_from_antichain.__wrapped__
_antichain_from_choice = antichain_from_choice.__wrapped__

# ---------------------------------------------------------------------------
# serialization


def cond_json(poset: Poset, c) -> str:
    return "1" if c is ONE else poset.condition_repr(c)


# The most name entries one report may hold once its names are unfolded
# into trees, as the report writes them.  The check-name of the natural n
# unfolds to 2^n - 1 entries, so a few lines of scenario can ask for a
# report that would never finish.
MAX_REPORT_ENTRIES = 2 ** 22


def name_json(poset: Poset, names) -> list:
    """Each of a report's names as nested ``[condition, name]`` lists in
    sorted entry order.  One walk builds each distinct subname once, shares
    its list with every entry that holds it (``dumps`` encodes it once per
    indentation depth) and counts the entries the names unfold to: more
    than MAX_REPORT_ENTRIES raises ReportTooLarge before anything is written.
    """
    memo: dict = {}
    built = [_name_json(poset, tau, memo) for tau in names]
    total = sum(size for _, size in built)
    if total > MAX_REPORT_ENTRIES:
        raise ReportTooLarge(
            f"the report's names unfold to {total} entries, more than "
            f"the {MAX_REPORT_ENTRIES} a report may hold")
    return [out for out, _ in built]


def _name_json(poset: Poset, tau: PName, memo: dict) -> tuple[list, int]:
    """A name's list and the number of entries it unfolds to."""
    got = memo.get(tau)
    if got is None:
        out, size = [], len(tau.entries)
        for c, s in tau.sorted_entries():
            child, n = _name_json(poset, s, memo)
            out.append([cond_json(poset, c), child])
            size += n
        got = memo[tau] = out, size
    return got


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
    return {poset.condition_repr(k.conds[a]): repr(k.value(tau, a))
            for a in k.minimals if below >> a & 1}


def dumps(payload, indent: Optional[int] = None) -> str:
    """``json.dumps(payload, sort_keys=True, indent=indent)``, byte for byte,
    for str-keyed dicts, lists and JSON scalars.  One pass appends the text
    in fragments to one list, joined once at the end.  A list of lists held
    in more than one place is encoded once per indentation depth: its first
    copy's fragments are joined on its first reuse, and that text is
    appended from then on, so a report costs Python work per distinct list
    plus copying per output byte."""
    out: list[str] = []
    append = out.append
    # (id, pad) of each list of lists written: where its first copy's
    # fragments start and end in ``out``, or its text once it has been
    # reused.
    firsts: dict[tuple[int, str], tuple[int, int] | str] = {}
    step, sep = ("", ", ") if indent is None else (" " * indent, ",")
    enc = json.encoder.encode_basestring_ascii

    # ``pad`` opens each line at the current depth; it is empty when compact.
    # A string member is appended with the fragment before it.
    def write(obj, pad: str) -> None:
        if isinstance(obj, list):
            if not obj:
                append("[]")
                return
            # In a report only name lists recur: ``name_json`` shares each
            # between the entries that hold it.  A name list's members are
            # its ``[condition, name]`` entries, so a list whose first
            # member is a list gets a ``firsts`` entry, and a list of
            # strings, numbers or dicts is written without one.
            may_recur = isinstance(obj[0], list)
            if may_recur:
                key = (id(obj), pad)
                first = firsts.get(key)
                if first is not None:
                    if type(first) is tuple:
                        first = firsts[key] = "".join(out[first[0]:first[1]])
                    append(first)
                    return
            start, inner = len(out), pad + step
            lead = "[" + inner
            for v in obj:
                if isinstance(v, str):
                    append(lead + enc(v))
                else:
                    append(lead)
                    write(v, inner)
                lead = sep + inner
            append(pad + "]")
            if may_recur:
                firsts[key] = start, len(out)
        elif isinstance(obj, dict):
            if not obj:
                append("{}")
                return
            inner = pad + step
            lead = "{" + inner
            for k, v in sorted(obj.items()):
                if isinstance(v, str):
                    append(lead + enc(k) + ": " + enc(v))
                else:
                    append(lead + enc(k) + ": ")
                    write(v, inner)
                lead = sep + inner
            append(pad + "}")
        elif isinstance(obj, str):
            append(enc(obj))
        elif isinstance(obj, bool):
            append("true" if obj else "false")
        elif isinstance(obj, int):
            append(int.__repr__(obj))
        else:
            append(json.dumps(obj))

    try:
        write(payload, "" if indent is None else "\n")
        return "".join(out)
    finally:
        # ``write`` reaches itself through its closure; unbinding it breaks
        # the cycle, so the closure is freed without the cyclic collector.
        del write


# ---------------------------------------------------------------------------
# subcommands
#
# A handler takes the identifiers written for its positional arguments, for
# its report, then the values they resolve to and its keyword values.


def _space_for(poset: Poset, phi: Formula,
               rank: Optional[int]) -> Optional[NameSpace]:
    bound = max_rank_bound(phi)
    if bound is None:
        return None
    return NameSpace(poset, tuple(constants(phi)),
                     bound if rank is None else rank)


def run_thm1(ids, family, level) -> dict:
    poset = ChoicePoset(family, level)
    # Each condition and element is rendered once per report, and each
    # condition's kernel index, block and level are looked up in one read.
    values = {x: repr(x) for block in family.blocks.values() for x in block}
    picks = {c: (i, family.block_of(c[1]), c[0], poset.condition_repr(c))
             for i, c in enumerate(poset.kernel().conds)}
    antichains = enumerate_maximal_antichains(poset)
    rows = []
    choices = []
    roundtrip_ok = True
    for a in antichains:
        f = _choice_from_antichain(family, a)
        row = sorted(map(picks.__getitem__, a))
        if _antichain_from_choice(f, {lab: n for _, lab, n, _ in row}) != a:
            roundtrip_ok = False
        rows.append([pick[3] for pick in row])
        choices.append({lab: values[x] for lab, x in f.items()})
    return {
        "mode": "enumerate", "family": ids[0], "level": level,
        "count": len(antichains),
        "expected": math.prod(level * len(b) for b in family.blocks.values()),
        "antichains": rows, "choices": choices, "roundtrip_ok": roundtrip_ok,
    }


def run_thm2(ids, family) -> dict:
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
        extracted.append({lab: repr(x) for lab, x in g.items()})
    witnesses = name_json(flat, taus)
    expected = math.prod(map(len, family.blocks.values()))
    return {
        "mode": "extract", "family": ids[0],
        "count": len(extracted), "expected": expected,
        "complete": len(seen) == expected, "roundtrip_ok": roundtrip_ok,
        "choices": extracted, "witnesses": witnesses,
    }


def run_forces(ids, poset, p, phi, rank) -> dict:
    space = _space_for(poset, phi, rank)
    sem = forces_semantic(poset, p, phi, space)
    syn = forces_syntactic(poset, p, phi, space)
    return {
        "poset": ids[0], "condition": cond_json(poset, p),
        "formula": ids[2], "forces": sem, "routes_agree": sem == syn,
    }


def run_witness(ids, poset, p, theta, rank) -> dict:
    space = NameSpace(poset, tuple(constants(theta)), rank)
    tau = mp_witness_search(poset, p, theta, space)
    report = {
        "poset": ids[0], "condition": cond_json(poset, p),
        "formula": ids[2], "rank": rank, "found": tau is not None,
        "witness": None, "evaluations": {},
    }
    if tau is not None:
        report["witness"] = name_json(poset, [tau])[0]
        report["evaluations"] = evaluations_json(poset, p, tau)
    return report


def run_mix(ids, poset, p, antichain, names) -> dict:
    if len(names) != len(antichain):
        raise InvalidInput(
            "need exactly one name per antichain member, in written order")
    mixed = mix(poset, p, antichain, dict(zip(antichain, names)))
    return {
        "poset": ids[0], "condition": cond_json(poset, p),
        "antichain": [cond_json(poset, c) for c in antichain],
        "names": list(ids[3:]), "mixed": name_json(poset, [mixed])[0],
        "evaluations": evaluations_json(poset, p, mixed),
    }


def run_leastord(ids, poset, p, theta, kappa) -> dict:
    tau = least_ordinal_name(poset, p, kappa, theta)
    var = single_free_var(theta)
    return {
        "poset": ids[0], "condition": cond_json(poset, p),
        "formula": ids[2], "kappa": kappa, "name": name_json(poset, [tau])[0],
        "forces_theta": forces_semantic(poset, p, subst(theta, var, tau)),
        "evaluations": evaluations_json(poset, p, tau),
    }


# The points 0..DECOMPOSE_RANGE-1 on which decompose checks that the two
# factors compose back to the permutation.
DECOMPOSE_RANGE = 100


def run_decompose(ids, perm, n, k) -> dict:
    first, second = decompose(perm, n, k)
    composition_ok = all(perm.apply(m) == first.apply(second.apply(m))
                         for m in range(DECOMPOSE_RANGE))
    return {
        "perm": ids[0], "n": n, "k": k, "pi": perm_json(perm),
        "pi1": perm_json(first), "pi2": perm_json(second),
        "pi1_in_Hn": first.in_Hn(n), "pi2_fixes_k": second.fixes_below(k),
        "composition_ok": composition_ok, "range": DECOMPOSE_RANGE,
    }


def run_symcheck(ids, tau, n) -> dict:
    return {
        "name": ids[0], "n": n, "fixed": is_fixed_by_Hn(tau, n),
        "support": sorted(column_support(tau)),
    }


def run_roundtrip(ids, asg) -> dict:
    g1 = g_to_g1(asg)
    back = g1_to_g(asg.grid, g1)
    return {
        "mode": "roundtrip", "assignment": ids[0],
        "section": {str(c): sorted(asg.column(c))
                    for c in range(asg.grid.cols)},
        "g1_size": len(g1.conditions),
        "decided_ok": back == asg.filter(),
    }


def run_hat(ids, asg, tau) -> dict:
    hat = hat_map(tau, asg)  # first refuses conditions not of the grid
    # A value along any filter unfolds to at most its name's entries.
    name_json(asg.grid, [tau])
    orig = eval_name(tau, asg.filter())
    hat_eval = eval_name(hat, g_to_g1(asg))
    return {
        "mode": "hat", "assignment": ids[0], "name": ids[1],
        "hat_entries": len(hat.entries),
        "orig_eval": repr(orig), "hat_eval": repr(hat_eval),
        "match": orig == hat_eval,
    }


def run_edense(ids, asg, dense) -> dict:
    e = e_dense(asg, dense)
    p1 = asg.p1_poset()
    return {
        "mode": "edense", "assignment": ids[0], "count": len(e),
        "e": sorted(p1.condition_repr(q) for q in e),
        "dense_ok": is_dense(p1, e),
    }


def run_conjugate(ids, sigma, n, bound, grid) -> dict:
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


# ---------------------------------------------------------------------------
# the verb table

# Marks a keyword that must be given.
_REQUIRED = object()

# The kinds of declaration.  A keyword named after one, as ``grid=`` is,
# holds an identifier of that kind; every other keyword holds an integer.
_DECLARED = Parser.DECLARATIONS.keys()

# One row per verb, or per verb and mode: the kinds of its positional
# arguments, its keywords with their defaults, and its handler.  A kind is
# a kind of declaration, or ``cond`` for a condition of the poset before
# it, ``conds`` for conditions declared over the poset (or the assignment's
# grid) before it, or ``name...`` for one or more names.
HANDLERS = {
    "thm1 enumerate": (("family",), {"level": 1}, run_thm1),
    "thm2 extract": (("family",), {}, run_thm2),
    "forces": (("poset", "cond", "formula"), {"rank": None}, run_forces),
    "witness": (("poset", "cond", "formula"), {"rank": 1}, run_witness),
    "mix": (("poset", "cond", "conds", "name..."), {}, run_mix),
    "leastord": (("poset", "cond", "formula"), {"kappa": _REQUIRED},
                 run_leastord),
    "decompose": (("perm",), {"n": _REQUIRED, "k": _REQUIRED},
                  run_decompose),
    "symcheck": (("name",), {"n": 0}, run_symcheck),
    "cohen roundtrip": (("assignment",), {}, run_roundtrip),
    "cohen hat": (("assignment", "name"), {}, run_hat),
    "cohen edense": (("assignment", "conds"), {}, run_edense),
    "cohen conjugate": (("sigma",), {"n": _REQUIRED, "bound": _REQUIRED,
                                     "grid": _REQUIRED}, run_conjugate),
}


def usage(row: str) -> str:
    """The usage line of a row of HANDLERS."""
    kinds, keywords, _ = HANDLERS[row]
    words = ["command", row, *(f"<{kind}>" for kind in kinds)]
    for key, default in keywords.items():
        word = f"{key}=<{key if key in _DECLARED else 'int'}>"
        words.append(word if default is _REQUIRED else f"[{word}]")
    return " ".join(words)


def _literal(tok: Token):
    """The value a command argument's token writes: an int or a word."""
    return int(tok.text) if tok.kind == "int" else tok.text


def _resolve_cond(scenario: Scenario, poset: Poset, tok: Token):
    """A condition argument: 1, a declared cond, or a bare element name.
    A declared entity of another kind is refused at ``tok``'s position."""
    arg = _literal(tok)
    if isinstance(arg, int):
        if arg == 1:
            return ONE
        raise InvalidInput("a numeric condition can only be 1")
    if arg in scenario.entities:
        owner, cond = scenario.lookup(arg, "cond", tok=tok)
        if owner is not poset:
            raise InvalidInput(
                f"condition {arg!r} was declared over a different poset")
        return cond
    return poset.resolve(arg)


def run_command(scenario: Scenario, cmd: Command) -> dict:
    """The report of a scenario's command: its row of HANDLERS, chosen by
    the verb and, for a verb with modes, the first argument, resolves every
    argument, and the row's handler runs on the values."""
    row, args = cmd.verb, cmd.args
    if row not in HANDLERS:
        modes = [key for key in HANDLERS if key.split()[0] == cmd.verb]
        row = f"{cmd.verb} {args[0].text}" if args else None
        if row not in modes:
            raise InvalidInput("usage: " + "; ".join(map(usage, modes))
                               if modes else f"unknown verb {cmd.verb!r}")
        args = args[1:]
    kinds, keywords, handler = HANDLERS[row]
    for key, (tok, _) in cmd.kwargs.items():
        if key not in keywords:
            raise ParseError(f"command {row} reads no keyword {key!r}",
                             tok.line, tok.col)
    if len(args) < len(kinds) or \
            len(args) > len(kinds) and kinds[-1] != "name...":
        raise InvalidInput("usage: " + usage(row))
    values, owner = [], None
    for i, (kind, tok) in enumerate(zip(kinds, args)):
        arg = _literal(tok)
        if kind == "cond":
            values.append(_resolve_cond(scenario, owner, tok))
        elif kind == "name...":
            values.append([scenario.lookup(_literal(t), "name", tok=t)
                           for t in args[i:]])
        elif kind == "conds":
            over, conds = scenario.lookup(arg, kind, tok=tok)
            if over is not owner:
                raise InvalidInput(
                    f"conditions {arg!r} were declared over another poset")
            values.append(conds)
        else:
            values.append(scenario.lookup(arg, kind, tok=tok))
            owner = values[-1].grid if kind == "assignment" else values[-1]
    options = {}
    for key, default in keywords.items():
        _, tok = cmd.kwargs.get(key, (None, None))
        value = default if tok is None else _literal(tok)
        if value is _REQUIRED:
            raise InvalidInput(f"the command needs {key}=; usage: "
                               + usage(row))
        if key in _DECLARED:
            value = scenario.lookup(value, key, tok=tok)
        elif value is not None and not isinstance(value, int):
            raise InvalidInput(f"{key} must be an integer")
        options[key] = value
    return handler([t.text for t in args], *values, **options)


# The verbs a command line may name: parse-only and every verb of HANDLERS.
VERBS = tuple(sorted({"parse-only", *(row.split()[0] for row in HANDLERS)}))

_HELP = """
Run a forcing-laboratory scenario file.

options:
  -h, --help   show this help message and exit
  --seed SEED  echoed into the report for reproducibility
  --pretty     indent the JSON report"""


def _usage_exit(error: Optional[str] = None):
    """Print the usage line and exit: with the help on stdout and status 0,
    or with ``error`` on stderr and status 2, as argparse did."""
    usage = ("usage: forcelab [-h] [--seed SEED] [--pretty] "
             f"{{{','.join(VERBS)}}} file")
    if error is None:
        print(usage, _HELP, sep="\n")
        raise SystemExit(0)
    sys.stderr.write(f"{usage}\nforcelab: error: {error}\n")
    raise SystemExit(2)


def _parse_argv(argv: list[str]) -> tuple[str, str, bool, int]:
    """The verb, file, ``--pretty`` and ``--seed`` of a command line
    ``VERB FILE [--pretty] [--seed N]``.  Options may come anywhere, the
    seed also as ``--seed=N``, and the last of a repeated option holds;
    ``-h`` or ``--help`` prints the help and exits 0."""
    words, pretty, seed = [], False, 0
    args = iter(argv)
    for arg in args:
        if arg[:1] != "-":
            words.append(arg)
        elif arg == "--pretty":
            pretty = True
        elif arg in ("-h", "--help"):
            _usage_exit()
        else:
            key, eq, value = arg.partition("=")
            if key != "--seed":
                _usage_exit(f"unrecognized arguments: {arg}")
            if not eq:
                value = next(args, None)
                if value is None:
                    _usage_exit("argument --seed: expected one argument")
            try:
                seed = int(value)
            except ValueError:
                _usage_exit(f"argument --seed: invalid int value: {value!r}")
    if len(words) < 2:
        _usage_exit("the following arguments are required: "
                    + ", ".join(("subcommand", "file")[len(words):]))
    if words[0] not in VERBS:
        _usage_exit(f"argument subcommand: invalid choice: {words[0]!r} "
                    f"(choose from {', '.join(map(repr, VERBS))})")
    if len(words) > 2:
        _usage_exit(f"unrecognized arguments: {' '.join(words[2:])}")
    return words[0], words[1], pretty, seed


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
    verb, file, pretty, seed = _parse_argv(
        sys.argv[1:] if argv is None else argv)
    try:
        with open(file, "rb") as f:
            data = f.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        _emit({"error": {"code": "io-error", "message": str(exc)}}, pretty)
        return 2
    try:
        scenario = parse_scenario(_decode(data))
        cmd = scenario.command
        if verb == "parse-only":
            report = {
                "command": cmd.verb if cmd is not None else None,
                "declarations": {ident: kind for ident, (kind, _)
                                 in scenario.entities.items()},
                "ok": True,
            }
        elif cmd is None:
            raise InvalidInput("the scenario file declares no command")
        elif cmd.verb != verb:
            raise InvalidInput(f"the file's command is {cmd.verb!r}, "
                               f"not {verb!r}")
        else:
            report = run_command(scenario, cmd)
        report["seed"] = seed
        _emit(report, pretty)
        return 0
    except ParseError as exc:
        payload = {"code": exc.code,
                   "message": exc.args[0] if exc.args else str(exc)}
        if exc.line:
            payload["line"] = exc.line
            payload["col"] = exc.col
        _emit({"error": payload}, pretty)
        return 1
    except ForceLabError as exc:
        _emit({"error": {"code": exc.code, "message": str(exc)}},
              pretty)
        return 2
    except RecursionError:
        # Handlers and the report writer recurse once per level of a set
        # or name; the parser and the routes refuse their own nesting.
        _emit({"error": {"code": InvalidInput.code, "message":
                         "the command's names are nested too deeply to run "
                         "or report"}},
              pretty)
        return 2


if __name__ == "__main__":
    sys.exit(main())
