"""End-to-end CLI runs: frozen reports, determinism, and exit codes."""

import contextlib
import gc
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from forcelab import (
    ONE, And, ChoicePoset, Cname, Eq, Exists, Family, FlatPoset, Forall,
    InName, Member, Not, OrdLT, PName, RankLE, ReportTooLarge, Var,
    antichain_from_choice, check_name, choice_from_antichain, hat_map, nat,
    parse_scenario,
)
from forcelab import cli, posets

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.fl"))
GOLDEN = ROOT / "tests" / "golden"


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "forcelab.cli", *argv],
        capture_output=True, text=True, cwd=ROOT)


def subcommand_for(path: Path) -> str:
    sc = parse_scenario(path.read_text())
    return sc.command.verb if sc.command else "parse-only"


def test_corpus_is_present():
    assert len(SCENARIOS) == 16
    assert {p.stem for p in SCENARIOS} == \
        {p.stem for p in GOLDEN.glob("*.json")}


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_report_matches_golden_and_is_deterministic(path):
    sub = subcommand_for(path)
    first = run_cli(sub, str(path))
    second = run_cli(sub, str(path))
    assert first.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    assert first.stdout == (GOLDEN / f"{path.stem}.json").read_text()


@pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
def test_pretty_is_the_same_object(path):
    sub = subcommand_for(path)
    status, plain = run_in_process(sub, str(path))
    pretty_status, pretty = run_in_process(sub, str(path), "--pretty")
    assert status == pretty_status == 0
    assert pretty != plain
    assert json.loads(pretty) == json.loads(plain)
    assert pretty == json.dumps(json.loads(plain), sort_keys=True,
                                indent=2) + "\n"
    assert run_in_process("--pretty", sub, str(path)) == (0, pretty)


def test_seed_is_echoed():
    path = SCENARIOS[0]
    for seed in (["--seed", "7"], ["--seed=7"]):
        status, out = run_in_process(subcommand_for(path), str(path), *seed)
        assert status == 0 and json.loads(out)["seed"] == 7


def run_argv(*argv):
    """``cli.main`` on a command line that ends the run with SystemExit:
    the exit status, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    return exc.value.code, out.getvalue(), err.getvalue()


def test_help_exits_0_with_the_usage_line():
    status, out, err = run_argv("-h")
    assert (status, err) == (0, "")
    assert out.startswith("usage: forcelab ")


FLAT = str(ROOT / "scenarios" / "forces_flat.fl")


# argparse took an abbreviated option, as --pre for --pretty; the hand
# reader of the command line takes each option only in full.
@pytest.mark.parametrize("argv", [
    ["forces", FLAT, "--bogus"], ["forces"], ["nope", FLAT],
    ["forces", FLAT, "--seed", "x"], ["forces", FLAT, "--pre"]],
    ids=["unknown-option", "no-file", "unknown-verb", "seed-not-int",
         "abbreviated-option"])
def test_malformed_command_line_exits_2_with_the_usage(argv):
    status, out, err = run_argv(*argv)
    assert (status, out) == (2, "")
    assert err.startswith("usage: forcelab ")
    assert "\nforcelab: error: " in err


def test_parse_only_accepts_any_scenario():
    out = run_cli("parse-only", str(ROOT / "scenarios" / "thm1_enum.fl"))
    assert out.returncode == 0
    report = json.loads(out.stdout)
    assert report["ok"] is True and report["command"] == "thm1"


def test_syntax_error_exits_1(tmp_path):
    bad = tmp_path / "bad.fl"
    bad.write_text("poset P explicit { elements }")
    out = run_cli("parse-only", str(bad))
    assert out.returncode == 1
    err = json.loads(out.stdout)["error"]
    assert err["code"] == "syntax-error"
    assert err["line"] == 1 and "col" in err


def test_verb_mismatch_exits_2():
    out = run_cli("forces", str(ROOT / "scenarios" / "thm1_enum.fl"))
    assert out.returncode == 2
    assert json.loads(out.stdout)["error"]["code"] == "invalid-input"


def test_domain_error_exits_2(tmp_path):
    bad = tmp_path / "overlap.fl"
    bad.write_text("perm pi = (0 1) (1 2)\ncommand decompose pi n = 0 k = 1")
    out = run_cli("decompose", str(bad))
    assert out.returncode == 2
    assert json.loads(out.stdout)["error"]["code"] == "invalid-input"


def deep_witness(depth: int) -> str:
    """A witness command whose target name nests ``depth`` levels, each a
    single entry (1, the level below): the report writes its value along
    the generic filter, a set nested as deep."""
    tau = "{}"
    for _ in range(depth):
        tau = "{(1," + tau + ")}"
    return ("family F { a: {0} }\nposet P flat F\nname t = " + tau + "\n"
            "formula theta(x) = x = t\ncommand witness P 1 theta rank=1\n")


BAD_KWARG_OR_NAME = {
    "rank-not-int": (
        "forces", "invalid-input",
        "family F { a: {0} b: {1} }\nposet P flat F\nname g = gamma(P)\n"
        "formula phi = check(0) in g\ncommand forces P 1 phi rank=x\n"),
    "symcheck-flat-name": (
        "symcheck", "unknown-condition",
        "family F { a: {0} b: {1} }\nposet P flat F\n"
        "name t over P = { (a, check(0)), (b, check(1)) }\n"
        "command symcheck t n=0\n"),
    "hat-fn-name": (
        "cohen", "unknown-condition",
        "poset M fn dom = 2 cod = 2\ngrid G cols = 2 rows = 2\n"
        "assignment g G [0, 1, 1, 0]\n"
        "name t over M = { ({0 -> 1}, check(0)) }\ncommand cohen hat g t\n"),
    # The literal 1 always means the top, so no other element may be "1".
    "explicit-one-below-top": (
        "forces", "invalid-input",
        "poset P explicit { elements t 1 b; order 1 < t, b < t; top t }\n"
        "name g = gamma(P)\nformula phi = check(0) in g\n"
        "cond c over P = 1\ncommand forces P c phi\n"),
    # Negative quantifier and window bounds are refused where they are
    # built; they would make vacuous quantifiers and empty windows.
    "ord-bound-negative": (
        "forces", "invalid-input",
        "family F { a: {0} b: {1} }\nposet P flat F\n"
        "formula phi = forall v [ord < -1] not v = v\n"
        "command forces P 1 phi\n"),
    "rank-bound-negative": (
        "forces", "invalid-input",
        "family F { a: {0} b: {1} }\nposet P flat F\n"
        "formula phi = forall v [rank <= -1] "
        "(exists w [rank <= 1] v in w and not v = v)\n"
        "command forces P 1 phi\n"),
    "fn-dom-negative": (
        "forces", "invalid-input",
        "poset P fn dom = -1 cod = 2\nformula phi = check(0) = check(0)\n"
        "command forces P 1 phi\n"),
    "inj-cod-negative": (
        "forces", "invalid-input",
        "poset P inj dom = 2 cod = -1\nformula phi = check(0) = check(0)\n"
        "command forces P 1 phi\n"),
    # Over a space of rank 1, a [rank <= 2] bound would range over only
    # part of its range, so it is refused rather than answered false.
    "rank-bound-above-space": (
        "forces", "invalid-input",
        "family F { a: {0} b: {1} }\nposet P flat F\n"
        "formula phi = exists x [rank <= 2] (check(0) in x and "
        "check(1) in x)\ncommand forces P 1 phi rank=1\n"),
    "decompose-without-k": (
        "decompose", "invalid-input",
        "perm pi = (0 1)\ncommand decompose pi n=0\n"),
    # "zz" is no condition of P: the witness search reads the entry as
    # the syntactic route does, and refuses it.
    "witness-unknown-entry": (
        "witness", "unknown-condition",
        "family F { a: {0,1} b: {2} }\nposet P flat F\n"
        "name t over P = { (zz, check(0)) }\nformula theta(x) = x in t\n"
        "command witness P 1 theta rank=1\n"),
    # The parser reads 600 negations, but the routes would outrun
    # Python's stack deciding them.
    "formula-nested-past-the-stack": (
        "forces", "invalid-input",
        "family F { a: {0} }\nposet P flat F\n"
        "formula phi = " + "not " * 600 + "check(0) in check(1)\n"
        "command forces P 1 phi\n"),
    # The file parses and the search finds the target, but writing the
    # report would outrun Python's stack; 200 levels answer (below).
    "witness-report-nested-past-the-stack": (
        "witness", "invalid-input", deep_witness(250)),
}


@pytest.mark.parametrize("verb, code, text", BAD_KWARG_OR_NAME.values(),
                         ids=BAD_KWARG_OR_NAME.keys())
def test_bad_kwarg_or_name_exits_2_without_traceback(tmp_path, verb, code,
                                                     text):
    bad = tmp_path / "bad.fl"
    bad.write_text(text)
    out = run_cli(verb, str(bad))
    assert out.returncode == 2 and out.stderr == ""
    assert json.loads(out.stdout)["error"]["code"] == code


def test_witness_report_nested_within_the_stack_answers(tmp_path):
    path = tmp_path / "deep.fl"
    path.write_text(deep_witness(200))
    out = run_cli("witness", str(path))
    assert (out.returncode, out.stderr) == (0, "")
    report = json.loads(out.stdout)
    # The value nests 200 levels over the empty set; HF sets print the
    # natural 1 = {0} as a numeral.
    assert report["found"]
    assert report["evaluations"] == {"a": "{" * 199 + "1" + "}" * 199}


def test_least_ordinal_report_substitutes_a_formula_the_routes_decide(
        tmp_path):
    # 400 negations lie within the routes' nesting bound, so the report's
    # substitution of the found name into theta answers too.
    path = tmp_path / "deep.fl"
    path.write_text("family F { a: {0} b: {1} }\nposet P flat F\n"
                    "formula theta(x) = " + "not " * 400 + "x in check(1)\n"
                    "command leastord P 1 theta kappa=2\n")
    out = run_cli("leastord", str(path))
    assert (out.returncode, out.stderr) == (0, "")
    assert json.loads(out.stdout)["forces_theta"] is True


# Nesting that outruns Python's stack while the file is read is a syntax
# error at the last token read, one of the nest's brackets on line 3;
# nesting within the stack answers.
NESTED = {
    "set-literal-250": ("name t = check(" + "{" * 250 + "}" * 250 + ")\n"
                        "formula phi = t = t\n", False),
    "parentheses-300": ("formula phi = " + "(" * 300 + "check(0) in check(1)"
                        + ")" * 300 + "\n", False),
    "set-literal-150": ("name t = check(" + "{" * 150 + "}" * 150 + ")\n"
                        "formula phi = t = t\n", True),
    "negations-300": ("formula phi = " + "not " * 300
                      + "check(0) in check(1)\n", True),
}


@pytest.mark.parametrize("body, answers", NESTED.values(), ids=NESTED.keys())
def test_nesting_is_a_syntax_error_only_past_the_stack(tmp_path, body, answers):
    text = "family F { a: {0} }\nposet P flat F\n" + body + \
        "command forces P 1 phi\n"
    bad = tmp_path / "deep.fl"
    bad.write_text(text)
    out = run_cli("forces", str(bad))
    assert out.stderr == ""
    report = json.loads(out.stdout)
    if answers:
        assert out.returncode == 0
        assert (report["forces"], report["routes_agree"]) == (True, True)
    else:
        err = report["error"]
        assert (out.returncode, err["code"], err["line"]) == \
            (1, "syntax-error", 3)
        assert text.splitlines()[2][err["col"] - 1] in "{}()"


DECLARATIONS = ("family F { a: {0} b: {1} }\nposet P flat F\n"
                "name g = gamma(P)\nformula phi = check(0) in g\n")

BAD_REFERENCE = {
    "family-as-poset": (
        "forces", "command forces F 1 phi\n", "'F' is a family", 5, 16),
    "formula-as-condition": (
        "forces", "command forces P phi phi\n", "'phi' is a formula", 5, 18),
    "unknown-formula": (
        "forces", "command forces P 1 nope\n", "unknown identifier", 5, 20),
    "unknown-grid-keyword": (
        "cohen", "sigma s = { (0,0) }\ncommand cohen conjugate s n=1 "
        "bound=3 grid=H\n", "unknown identifier", 6, 44),
    # A mode verb's second argument, a conds argument and the tail of mix.
    "unknown-hat-name": (
        "cohen", "grid G cols = 1 rows = 1\nassignment a G [0]\n"
        "command cohen hat a nope\n", "unknown identifier", 7, 21),
    "unknown-edense-conds": (
        "cohen", "grid G cols = 1 rows = 1\nassignment a G [0]\n"
        "command cohen edense a D\n", "unknown identifier", 7, 24),
    "unknown-mix-name": (
        "mix", "conds A over P = { a, b }\nname t0 = check(0)\n"
        "command mix P 1 A t0 nope\n", "unknown identifier", 7, 22),
}


@pytest.mark.parametrize("verb, command, message, line, col",
                         BAD_REFERENCE.values(), ids=BAD_REFERENCE.keys())
def test_bad_command_reference_exits_1_with_position(tmp_path, verb, command,
                                                     message, line, col):
    bad = tmp_path / "bad.fl"
    bad.write_text(DECLARATIONS + command)
    out = run_cli(verb, str(bad))
    assert out.returncode == 1 and out.stderr == ""
    err = json.loads(out.stdout)["error"]
    assert err["code"] == "unresolved-reference"
    assert message in err["message"]
    assert (err["line"], err["col"]) == (line, col)


# A keyword that the command's verb does not read, or one given twice, is a
# syntax error at the keyword itself: the first unknown one, or the second
# copy.
BAD_KEYWORD = {
    "unknown-keywords": (
        "forces", "command forces P b phi rnak=2 bogus=x\n",
        "reads no keyword 'rnak'", 5, 24),
    "repeated-keyword": (
        "leastord", "formula theta(x) = x in g\n"
        "command leastord P 1 theta kappa=3 kappa=5\n",
        "'kappa' is given twice", 6, 36),
    "keyword-of-another-mode": (
        "cohen", "grid G cols = 1 rows = 1\nassignment a G [0]\n"
        "command cohen roundtrip a grid=G\n",
        "reads no keyword 'grid'", 7, 27),
}


@pytest.mark.parametrize("verb, command, message, line, col",
                         BAD_KEYWORD.values(), ids=BAD_KEYWORD.keys())
def test_bad_keyword_exits_1_at_the_keyword(tmp_path, verb, command, message,
                                            line, col):
    bad = tmp_path / "bad.fl"
    bad.write_text(DECLARATIONS + command)
    out = run_cli(verb, str(bad))
    assert out.returncode == 1 and out.stderr == ""
    err = json.loads(out.stdout)["error"]
    assert err["code"] == "syntax-error"
    assert message in err["message"]
    assert (err["line"], err["col"]) == (line, col)


# A command with no mode, an unknown mode or too many arguments: (verb,
# command, the rows whose usage lines the message lists).
BAD_USAGE = {
    "thm1-without-mode": ("thm1", "command thm1\n", ["thm1 enumerate"]),
    "cohen-without-mode": (
        "cohen", "command cohen\n",
        ["cohen roundtrip", "cohen hat", "cohen edense", "cohen conjugate"]),
    "cohen-unknown-mode": (
        "cohen", "command cohen flip g\n",
        ["cohen roundtrip", "cohen hat", "cohen edense", "cohen conjugate"]),
    "forces-extra-argument": (
        "forces", "command forces P 1 phi phi\n", ["forces"]),
    "thm2-extra-argument": (
        "thm2", "command thm2 extract F F\n", ["thm2 extract"]),
}


@pytest.mark.parametrize("verb, command, rows", BAD_USAGE.values(),
                         ids=BAD_USAGE.keys())
def test_bad_usage_exits_2_with_the_usage_lines(tmp_path, verb, command,
                                                rows):
    bad = tmp_path / "bad.fl"
    bad.write_text(DECLARATIONS + command)
    out = run_cli(verb, str(bad))
    assert out.returncode == 2 and out.stderr == ""
    err = json.loads(out.stdout)["error"]
    assert err["code"] == "invalid-input"
    assert err["message"] == "usage: " + "; ".join(map(cli.usage, rows))


# A file that is not UTF-8: (its bytes, the line and column of the first
# undecodable byte, counted in characters as the tokenizer counts them).
NOT_UTF8 = {
    "ff-byte": (b"family F { a: {0} }\nposet P fl\xffat F\n", 2, 11),
    "latin1-in-comment": (
        b"family F { a: {0} }  # caf\xe9\nposet P flat F\n", 1, 27),
    "after-multibyte": (b"# \xc3\xa9t\xc3\xa9 \xff\n", 1, 7),
    "after-crlf": (b"family F { a: {0} }\r\nposet P flat F \xff", 2, 16),
}


@pytest.mark.parametrize("data, line, col", NOT_UTF8.values(),
                         ids=NOT_UTF8.keys())
def test_non_utf8_file_exits_1_with_position(tmp_path, data, line, col):
    bad = tmp_path / "bad.fl"
    bad.write_bytes(data)
    out = run_cli("parse-only", str(bad))
    assert out.returncode == 1 and out.stderr == ""
    err = json.loads(out.stdout)["error"]
    assert err["code"] == "syntax-error"
    assert (err["line"], err["col"]) == (line, col)


def test_missing_file_exits_2():
    out = run_cli("parse-only", str(ROOT / "scenarios" / "nope.fl"))
    assert out.returncode == 2
    assert json.loads(out.stdout)["error"]["code"] == "io-error"
    # A path no file system takes, which only an in-process caller can pass.
    status, out = run_in_process("parse-only", "nope\0.fl")
    assert status == 2
    assert json.loads(out)["error"] == {"code": "io-error",
                                        "message": "embedded null byte"}


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_exits_quietly(unbuffered):
    # The read end closes before the report is written, as when a reader
    # such as `head -1` exits early.
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    proc = subprocess.Popen(
        [sys.executable, "-m", "forcelab.cli", "thm2",
         str(ROOT / "scenarios" / "thm2_extract.fl"), "--pretty"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert err == b""


def test_console_entry_point_is_wired():
    from forcelab.cli import main
    assert callable(main)


def run_in_process(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(list(argv))
    return status, buf.getvalue()


def thm2_file(tmp_path, n):
    path = tmp_path / f"thm2_{n}.fl"
    path.write_text(f"family F {{ a: {{0,1}} b: {{{n}}} }}\n"
                    "command thm2 extract F\n")
    return str(path)


def tree_json(poset, names):
    """The reference serializer: unfolds each name with no memo."""
    return [[[cli.cond_json(poset, c), tree_json(poset, [s])[0]]
             for c, s in tau.sorted_entries()] for tau in names]


def test_shared_subnames_serialize_like_the_unfolded_tree(tmp_path,
                                                          monkeypatch):
    path = thm2_file(tmp_path, 16)
    status, shared = run_in_process("thm2", path)
    monkeypatch.setattr(cli, "name_json", tree_json)
    assert run_in_process("thm2", path) == (status, shared)
    assert status == 0 and len(json.loads(shared)["witnesses"]) == 2


def test_name_json_builds_each_distinct_subname_once():
    # check(40) unfolds to 2^40 - 1 entries but has 41 distinct subnames,
    # so the walk that counts them refuses it at once.
    start = time.perf_counter()
    with pytest.raises(ReportTooLarge):
        cli.name_json(None, [check_name(nat(40))])
    assert time.perf_counter() - start < 0.5
    # check(20) unfolds to 1,048,575 entries, within the budget.
    out, = cli.name_json(None, [check_name(nat(20))])
    assert [len(child) for _, child in out] == list(range(20))
    assert all(cond == "1" for cond, _ in out)
    assert out[19][1][18][1] is out[18][1]


@pytest.mark.parametrize("n", [2, 6, 14])
def test_thm2_witnesses_share_one_list_per_subname(n):
    # Witness 0 chooses a = 0, so it holds (b, check(k)) for k < n;
    # witness 1 chooses a = 1 and holds (a, check(0)) first.  One walk
    # builds both, so each check(k) is one list in the report.
    family = Family([("a", [nat(0), nat(1)]), ("b", [nat(n)])])
    first, second = cli.run_thm2(["F"], family)["witnesses"]
    assert len(first) == n and len(second) == n + 1
    for k in range(n):
        assert first[k][1] is second[k + 1][1]


@pytest.mark.parametrize("stem", ["thm2_extract", "witness_flat", "mix_flat",
                                  "leastord_flat", "cohen_hat"])
def test_each_report_walks_its_names_once(stem, monkeypatch):
    calls = []
    walk = cli.name_json

    def counted(poset, names):
        calls.append(names)
        return walk(poset, names)

    monkeypatch.setattr(cli, "name_json", counted)
    path = ROOT / "scenarios" / f"{stem}.fl"
    status, out = run_in_process(subcommand_for(path), str(path))
    assert status == 0
    assert out == (GOLDEN / f"{stem}.json").read_text()
    assert len(calls) == 1


def hat_chain_file(tmp_path, k):
    """cohen hat on t_k, where t_0 = check(0) and t_i = pair(t_(i-1),
    check(1)): t_k unfolds to 6 * 2^k - 6 entries but has 3k + 1
    distinct subnames."""
    lines = ["grid G cols = 2 rows = 2", "assignment g G [0, 1, 1, 0]",
             "name t0 = check(0)"]
    lines += [f"name t{i} = pair(t{i - 1}, check(1))" for i in range(1, k + 1)]
    path = tmp_path / f"hat_{k}.fl"
    path.write_text("\n".join(lines + [f"command cohen hat g t{k}"]) + "\n")
    return str(path)


def test_hat_report_over_budget_fails_fast(tmp_path):
    # Its values unfold as their names do: at k = 20, 6,291,450 entries.
    path = hat_chain_file(tmp_path, 20)
    start = time.perf_counter()
    status, out = run_in_process("cohen", path)
    assert time.perf_counter() - start < 1.0
    assert status == 2
    assert json.loads(out)["error"]["code"] == "report-too-large"


def test_hat_of_off_grid_cell_is_out_of_range(tmp_path):
    # Row 5 is outside the 2x2 grid.  Read as undecided along the section
    # but as 0 by the hat map, it would make the two evaluations differ.
    path = tmp_path / "offgrid.fl"
    path.write_text("grid G cols=2 rows=2\nassignment g G [0,1,1,0]\n"
                    "name t over G = { ({(0,5)=0}, check(1)) }\n"
                    "command cohen hat g t\n")
    status, out = run_in_process("cohen", str(path))
    assert status == 2
    assert json.loads(out)["error"]["code"] == "out-of-range"


def test_report_over_budget_fails_fast(tmp_path):
    path = thm2_file(tmp_path, 62)
    start = time.perf_counter()
    status, out = run_in_process("thm2", path)
    assert time.perf_counter() - start < 1.0
    assert status == 2
    assert json.loads(out)["error"]["code"] == "report-too-large"


X, Y, Z = Var("x"), Var("y"), Var("z")
RANK_BOUNDS = {
    "rank-0": (Exists("x", RankLE(0), Eq(X, X)), 0),
    "nested": (Forall("x", RankLE(1), Not(Exists("y", RankLE(2), And(
        Member(Y, X), Exists("z", OrdLT(5), Eq(Z, Z)))))), 2),
    "outer-largest": (Exists("x", RankLE(2), Forall("y", RankLE(1),
                                                     Member(Y, X))), 2),
    "no-rank-bound": (Exists("x", OrdLT(3), Exists(
        "y", InName(check_name(nat(1))), Member(Y, X))), None),
    "atom": (Member(Cname(check_name(nat(0))), Cname(check_name(nat(1)))),
             None),
}


@pytest.mark.parametrize("phi, rank", RANK_BOUNDS.values(),
                         ids=RANK_BOUNDS.keys())
def test_forces_space_takes_the_largest_rank_bound(phi, rank):
    poset = FlatPoset(Family([("a", [nat(0)])]))
    # rank= sets the rank of the space, and a formula with no [rank <= k]
    # bound gets no space, with rank= or without.
    space = cli._space_for(poset, phi, None)
    assert (None if space is None else space.rank_bound) == rank
    space = cli._space_for(poset, phi, 1)
    assert (None if space is None else space.rank_bound) == \
        (None if rank is None else 1)


def test_forces_rank_without_a_rank_bound_builds_no_space(tmp_path):
    # Only a [rank <= k] bound reads the space that rank= sizes, so a
    # formula with none builds none: fn(2,2) at rank 2 is over the cap.
    path = tmp_path / "fn.fl"
    path.write_text("poset P fn dom=2 cod=2\nname g = gamma(P)\n"
                    "formula phi = exists x [in g] x in g\n"
                    "command forces P 1 phi rank=2\n")
    status, out = run_in_process("forces", str(path))
    assert status == 0
    assert json.loads(out)["forces"] is True


def test_hat_entries_count_the_hat_name():
    path = ROOT / "scenarios" / "cohen_hat.fl"
    sc = parse_scenario(path.read_text())
    asg = sc.lookup("g", "assignment")
    hat = hat_map(sc.lookup("t", "name"), asg)
    status, out = run_in_process("cohen", str(path))
    assert status == 0
    assert json.loads(out)["hat_entries"] == len(hat.sorted_entries())


# Strings the writer must escape exactly as the json module does.
STRINGS = ["", "a", "key", "caf\u00e9", "\u2603", "\U0001f600", '"', "\\",
           "\n\t\r\x00\x1f\x7f", "\ud800", "1", "{}"]
SCALARS = [True, False, None, 0, 1, -1, -7, -2 ** 70, 2 ** 70, 0.5]


def random_payload(rng, depth, shared):
    """A report-like payload whose lists are often shared, at any depth."""
    roll = rng.random()
    if depth == 0 or roll < 0.3:
        return rng.choice(STRINGS + SCALARS)
    if roll < 0.45:
        return {rng.choice(STRINGS): random_payload(rng, depth - 1, shared)
                for _ in range(rng.randrange(4))}
    if shared and roll < 0.75:
        return rng.choice(shared)
    out = [random_payload(rng, depth - 1, shared)
           for _ in range(rng.randrange(4))]
    shared.append(out)
    return out


@pytest.mark.parametrize("seed", range(40))
def test_writer_matches_json_dumps(seed):
    rng = random.Random(seed)
    empty = []
    pair = [empty, empty]
    shared = [empty, pair]
    payload = {"empty": {}, "pair": pair, "nested": [[pair, {}], pair],
               "body": [random_payload(rng, 6, shared) for _ in range(4)]}
    for key in STRINGS:
        payload[key] = random_payload(rng, 4, shared)
    for indent in (None, 1, 2, 4):
        assert cli.dumps(payload, indent) == \
            json.dumps(payload, sort_keys=True, indent=indent)


def test_writer_leaves_no_cyclic_garbage():
    # With the collector off, everything a call allocates must be freed by
    # reference counting: the writer's closure must not reach itself.
    # The expected texts come first: ``json.dumps`` with an indent leaves
    # cyclic garbage of its own.
    shared = [[], [1, "a"]]
    payload = {"a": shared, "b": [shared, {"c": shared}], "d": True}
    expected = {indent: json.dumps(payload, sort_keys=True, indent=indent)
                for indent in (None, 2)}
    gc.collect()
    gc.disable()
    try:
        for indent, text in expected.items():
            assert cli.dumps(payload, indent) == text
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_writer_encodes_each_distinct_list_once_per_depth(tmp_path):
    # Every list the writer reads counts one iteration: it reads each
    # non-empty distinct list once per indentation depth it is written at,
    # never once per place.
    iterations = 0

    class Counted(list):
        def __iter__(self):
            nonlocal iterations
            iterations += 1
            return super().__iter__()

    def counted(obj, memo):
        if isinstance(obj, dict):
            return {k: counted(v, memo) for k, v in obj.items()}
        if not isinstance(obj, list):
            return obj
        if id(obj) not in memo:
            memo[id(obj)] = Counted(counted(v, memo) for v in obj)
        return memo[id(obj)]

    def places(obj, depth, seen):
        """The distinct (list, depth) pairs of the unfolded payload, and
        the number of lists it unfolds to."""
        unfolded = 0
        if isinstance(obj, list):
            seen.add((id(obj), depth))
            unfolded = 1
        values = obj.values() if isinstance(obj, dict) else \
            obj if isinstance(obj, list) else ()
        return unfolded + sum(places(v, depth + 1, seen) for v in values)

    sc = parse_scenario(Path(thm2_file(tmp_path, 12)).read_text())
    memo: dict = {}
    payload = counted(cli.run_command(sc, sc.command), memo)
    lists = {id(x): x for x in memo.values()}
    pairs: set = set()
    # 107 distinct lists, which unfold to more than 2^13.
    assert len(lists) < 2 ** 8 and places(payload, 0, pairs) > 2 ** 13
    for indent, encodings in (
            (None, sum(1 for x in lists.values() if x)),
            (2, sum(1 for key, _ in pairs if lists[key]))):
        expected = json.dumps(payload, sort_keys=True, indent=indent)
        iterations = 0
        assert cli.dumps(payload, indent) == expected
        assert iterations == encodings


def test_writer_holds_less_than_twice_its_text(tmp_path):
    # The writer keeps one fragment list and each reused list's text once,
    # so while it writes a thm2 report of check(14), whose names share each
    # check(k), its traced peak stays under twice the text it returns.
    sc = parse_scenario(Path(thm2_file(tmp_path, 14)).read_text())
    payload = cli.run_command(sc, sc.command)
    for indent in (None, 2):
        tracemalloc.start()
        try:
            text = cli.dumps(payload, indent)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * len(text)


# The map and tree kinds, which no golden or acceptance criterion builds:
# each window's declaration and two incompatible conditions below its top
# that every condition is compatible with one of, a maximal antichain.
WINDOWS = {
    "fn": ("fn dom = 2 cod = 2", "{0->0}", "{0->1}"),
    "inj": ("inj dom = 2 cod = 2", "{0->0}", "{0->1}"),
    "tree": ("tree depth = 2", "[0]", "[1]"),
}
# Each command's verb and its scenario lines after the declarations, with
# t the name that holds 0-check exactly along a filter through the first
# of the two conditions.
WINDOW_COMMANDS = {
    "forces-inname": ("forces", "formula phi = exists x [in g] not x in t\n"
                                "command forces P 1 phi\n"),
    "forces-rankle": ("forces",
                      "formula phi = forall x [rank <= 1] "
                      "(x in t -> x = check(0))\n"
                      "command forces P 1 phi rank=1\n"),
    "witness": ("witness", "formula theta(x) = x = t\n"
                           "command witness P 1 theta rank=1\n"),
    "mix": ("mix", "command mix P 1 A t g\n"),
    "leastord": ("leastord",
                 "formula theta(al) = (al = check(0) and check(0) in t) "
                 "or al = check(1)\n"
                 "command leastord P 1 theta kappa=2\n"),
}


@pytest.mark.parametrize("command", sorted(WINDOW_COMMANDS))
@pytest.mark.parametrize("kind", sorted(WINDOWS))
def test_map_and_tree_windows_answer_through_the_cli(tmp_path, kind,
                                                     command):
    # Each report's flags hold, and the values it gives along the generic
    # filters are Kernel.value's for the name it writes, read back off the
    # report.
    declaration, first, second = WINDOWS[kind]
    verb, lines = WINDOW_COMMANDS[command]
    text = (f"poset P {declaration}\nname g = gamma(P)\n"
            f"name t over P = {{({first}, check(0))}}\n"
            f"conds A over P = {{ {first}, {second} }}\n" + lines)
    path = tmp_path / f"{kind}.fl"
    path.write_text(text)
    status, out = run_in_process(verb, str(path))
    assert status == 0, out
    report = json.loads(out)
    for flag in ("routes_agree", "forces_theta", "found"):
        assert report.get(flag, True) is True, (flag, report)
    if "evaluations" not in report:
        return
    poset = parse_scenario(text).lookup("P")
    k = poset.kernel()
    conds = {cli.cond_json(poset, c): c for c in k.conds}
    conds["1"] = ONE

    def decode(entries):
        return PName((conds[c], decode(child)) for c, child in entries)

    tau = decode(report.get("witness") or report.get("mixed")
                 or report["name"])
    assert report["evaluations"] == {
        poset.condition_repr(k.conds[a]): repr(k.value(tau, a))
        for a in k.minimals}


FUZZ_TOKEN = re.compile(r"#[^\n]*|->|<=|-?\d+|\w+|\S")


def fuzz_cases(rng, count):
    """``count`` mutations of the committed scenarios, as (verb, text):
    each deletes, repeats, swaps or replaces 1 to 3 tokens of one
    scenario, comments dropped.  A number is replaced by a natural up to
    12, and a word or punctuation token by one of the same kind from the
    corpus.  The verb is the scenario's own."""
    corpus = [(subcommand_for(path),
               [t for t in FUZZ_TOKEN.findall(path.read_text())
                if not t.startswith("#")])
              for path in SCENARIOS]
    tokens = {t for _, scenario in corpus for t in scenario}
    words = sorted(t for t in tokens if t[0].isalpha() or t[0] == "_")
    punctuation = sorted(t for t in tokens if not t[-1].isalnum()
                         and t[-1] != "_")
    for _ in range(count):
        verb, scenario = rng.choice(corpus)
        out = list(scenario)
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(out))
            op = rng.choice(("delete", "repeat", "swap", "replace"))
            if op == "delete" and len(out) > 1:
                del out[i]
            elif op == "repeat":
                out.insert(i, out[i])
            elif op == "swap":
                j = rng.randrange(len(out))
                out[i], out[j] = out[j], out[i]
            elif out[i][-1].isdigit():
                out[i] = str(rng.randint(0, 12))
            else:
                out[i] = rng.choice(words if out[i] in words
                                    else punctuation)
        yield verb, " ".join(out)


def test_mutated_scenarios_answer_or_give_a_code(tmp_path):
    # 1,200 seeded mutations of the corpus, run in process: every one ends
    # in exit 0, 1 or 2 with one JSON object on stdout, a coded error on
    # every non-zero exit, and no escaping exception; at least a tenth get
    # past the parser.
    start = time.monotonic()
    path = tmp_path / "case.fl"
    past_parser = 0
    cases = list(fuzz_cases(random.Random(2011), 1200))
    for verb, text in cases:
        path.write_text(text)
        try:
            status, out = run_in_process(verb, str(path))
        except Exception as exc:
            raise AssertionError(f"{verb} {text!r}") from exc
        assert status in (0, 1, 2), (verb, text)
        assert out.endswith("\n") and out.count("\n") == 1, (verb, text)
        report = json.loads(out)
        assert isinstance(report, dict), (verb, text)
        if status:
            assert report["error"]["code"], (verb, text)
        past_parser += status == 0 or \
            report["error"]["code"] != "syntax-error"
    assert past_parser >= len(cases) // 10, past_parser
    elapsed = time.monotonic() - start
    assert elapsed < 20.0, f"took {elapsed:.1f}s"


def thm1_reference(family, level) -> dict:
    """The thm1 report as a loop that certifies each antichain through the
    public maps builds it: antichains and each one's row sorted by
    ``condition_key``, and ``repr`` for each chosen element."""
    poset = ChoicePoset(family, level)
    per_block = {lab: [] for lab in family.labels}
    for c in poset.conditions():
        per_block[family.block_of(c[1])].append(c)
    antichains = sorted(
        (frozenset(pick) for pick in itertools.product(*per_block.values())),
        key=lambda a: sorted(poset.condition_key(c) for c in a))
    rows, choices, roundtrip_ok = [], [], True
    for a in antichains:
        f = choice_from_antichain(family, a)
        levels = {family.block_of(x): n for n, x in a}
        roundtrip_ok &= antichain_from_choice(f, levels) == a
        rows.append([poset.condition_repr(c)
                     for c in sorted(a, key=poset.condition_key)])
        choices.append({lab: repr(x) for lab, x in f.items()})
    expected = 1
    for lab in family.labels:
        expected *= level * len(family.blocks[lab])
    return {
        "mode": "enumerate", "family": "F", "level": level,
        "count": len(antichains), "expected": expected,
        "antichains": rows, "choices": choices, "roundtrip_ok": roundtrip_ok,
    }


def test_thm1_reports_match_the_reference_loop():
    # Every family of 1 to 3 blocks of 1 to 3 distinct naturals, the
    # blocks' naturals interleaved so that no block's picks sort together,
    # at levels 1 to 3: 117 reports, about 8,300 antichains, well under the
    # 10 s bound.
    start = time.perf_counter()
    for sizes in itertools.chain.from_iterable(
            itertools.product((1, 2, 3), repeat=b) for b in (1, 2, 3)):
        blocks = [(lab, [nat(i + j * len(sizes)) for j in range(size)])
                  for i, (lab, size) in enumerate(zip("yxz", sizes))]
        family = Family(blocks)
        for level in (1, 2, 3):
            report = cli.run_thm1(("F",), family, level)
            assert json.dumps(report) == json.dumps(
                thm1_reference(family, level)), (sizes, level)
    assert time.perf_counter() - start < 10.0


def test_thm1_certifies_each_antichain_without_a_poset_or_resolve(
        monkeypatch):
    # The 162 antichains of blocks of 3, 2 and 1 at level 3: the report
    # builds its one choice poset and resolves no condition again.
    built, resolved = [], []
    init, resolve = posets.ChoicePoset.__init__, posets.Poset.resolve

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def counted_resolve(self, c):
        resolved.append(c)
        return resolve(self, c)

    monkeypatch.setattr(posets.ChoicePoset, "__init__", counted_init)
    monkeypatch.setattr(posets.Poset, "resolve", counted_resolve)
    family = Family([("a", [nat(0), nat(1), nat(2)]),
                     ("b", [nat(3), nat(4)]), ("c", [nat(5)])])
    report = cli.run_thm1(("F",), family, 3)
    assert report["count"] == 162 and report["roundtrip_ok"] is True
    assert (len(built), len(resolved)) == (1, 0)
