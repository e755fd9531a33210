"""End-to-end CLI runs: frozen reports, determinism, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from forcelab import parse_scenario

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


@pytest.mark.parametrize("path", SCENARIOS[:3], ids=lambda p: p.stem)
def test_pretty_is_the_same_object(path):
    sub = subcommand_for(path)
    plain = run_cli(sub, str(path))
    pretty = run_cli(sub, str(path), "--pretty")
    assert pretty.returncode == 0
    assert pretty.stdout != plain.stdout
    assert json.loads(pretty.stdout) == json.loads(plain.stdout)


def test_seed_is_echoed():
    path = SCENARIOS[0]
    out = run_cli(subcommand_for(path), str(path), "--seed", "7")
    assert json.loads(out.stdout)["seed"] == 7


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


BAD_REFERENCE = {
    "family-as-poset": (
        "forces", "command forces F 1 phi\n", "'F' is a family", 5, 16),
    "unknown-formula": (
        "forces", "command forces P 1 nope\n", "unknown identifier", 5, 20),
    "unknown-grid-keyword": (
        "cohen", "sigma s = { (0,0) }\ncommand cohen conjugate s n=1 "
        "bound=3 grid=H\n", "unknown identifier", 6, 44),
}


@pytest.mark.parametrize("verb, command, message, line, col",
                         BAD_REFERENCE.values(), ids=BAD_REFERENCE.keys())
def test_bad_command_reference_exits_1_with_position(tmp_path, verb, command,
                                                     message, line, col):
    bad = tmp_path / "bad.fl"
    bad.write_text("family F { a: {0} b: {1} }\nposet P flat F\n"
                   "name g = gamma(P)\nformula phi = check(0) in g\n"
                   + command)
    out = run_cli(verb, str(bad))
    assert out.returncode == 1 and out.stderr == ""
    err = json.loads(out.stdout)["error"]
    assert err["code"] == "unresolved-reference"
    assert message in err["message"]
    assert (err["line"], err["col"]) == (line, col)


def test_missing_file_exits_2():
    out = run_cli("parse-only", str(ROOT / "scenarios" / "nope.fl"))
    assert out.returncode == 2
    assert json.loads(out.stdout)["error"]["code"] == "io-error"


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
