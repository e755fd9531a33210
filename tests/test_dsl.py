"""Scenario-file parsing: tokens, declarations, formulas, and the command."""

import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from forcelab import (
    And, Assignment, Chain, ChoicePoset, Cname, CohenGridPoset, Command,
    DuplicateIdentifier, Eq, Exists, ExplicitPoset, Family, FlatPoset,
    Forall, Implies, InName, InvalidInput, Member, Not, ONE, Or, OrdLT,
    ParseError, Perm, RankLE, UnresolvedReference, Var, check_name, nat,
    parse_scenario, PName, tokenize, xdot_name,
)
from forcelab.dsl import Token
from test_cli import fuzz_cases

SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "scenarios")
                   .glob("*.fl"))


class TestTokenizer:
    def test_positions(self):
        toks = tokenize("poset P\n  flat x")
        assert [(t.text, t.line, t.col) for t in toks] == [
            ("poset", 1, 1), ("P", 1, 7),
            ("flat", 2, 3), ("x", 2, 8), ("", 2, 9)]

    def test_comments_are_skipped(self):
        toks = tokenize("a # whole rest of line { ->\nb")
        assert [t.text for t in toks if t.kind != "end"] == ["a", "b"]

    def test_negative_ints_and_two_char_puncts(self):
        toks = tokenize("-3 -> x <= -0")
        assert [(t.kind, t.text) for t in toks[:-1]] == [
            ("int", "-3"), ("punct", "->"), ("ident", "x"),
            ("punct", "<="), ("int", "-0")]

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as exc:
            tokenize("poset P\n  @flat")
        assert exc.value.line == 2 and exc.value.col == 3

    # The token alphabet, with blanks, comments and characters no token
    # holds: '\u00b2' and '\u00bd' are alphanumeric but no decimal,
    # '\u0663' is a decimal, '\x0b' is a blank no scenario may use.
    PIECES = ["a", "x_1", "_", "\u00e9", "0", "42", "-", "->", "<=", "<",
              "=", "{", "}", "(", ")", "[", "]", ",", ";", ":", " ", "\t",
              "\r", "\n", "#", "\u00b2", "\u00bd", "\u0663", "\x0b", "@"]

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(PIECES), max_size=12).map("".join))
    def test_positions_locate_the_source(self, text):
        lines = text.split("\n")
        try:
            toks = tokenize(text)
        except ParseError as e:
            bad = lines[e.line - 1][e.col - 1]
            assert e.args[0] == f"unexpected character {bad!r}"
            return
        for t in toks[:-1]:
            assert lines[t.line - 1][t.col - 1:].startswith(t.text)
        end = toks[-1]
        assert (end.kind, end.line, end.col) == \
            ("end", len(lines), len(lines[-1]) + 1)


FULL = """
# one declaration of every kind
family F { a: {0, 1} b: {2} }
poset P flat F
poset Q explicit { elements p q one; order p < q, q < one; top one }
poset C choice F level = 2
poset FN fn dom = 2 cod = 2
poset IJ inj dom = 2 cod = 2
poset T tree depth = 2
grid G cols = 2 rows = 2
assignment A G [0, 1, 1, 0]
sigma s = { (0, 1) }
cond c over P = a
conds D over P = { a, b, 1 }
name zero = check(0)
name g over P = gamma(P)
name xd = xdot(G, 0)
name rs = rsigma(G, s)
name lit over P = { (a, check(1)), (1, zero) }
formula phi = exists t [rank <= 1] t in g
formula theta(v) = v in g
perm pi = (0 1) chain(lo=2, mid=[4, 2], neg=(2, 6), pos=(2, 5))
perm e = id
command forces c phi pretty = 1
"""


class TestDeclarations:
    def scenario(self):
        return parse_scenario(FULL)

    def test_every_kind_lands(self):
        sc = self.scenario()
        assert isinstance(sc.lookup("F", "family"), Family)
        assert isinstance(sc.lookup("P", "poset"), FlatPoset)
        assert isinstance(sc.lookup("Q", "poset"), ExplicitPoset)
        assert isinstance(sc.lookup("C", "poset"), ChoicePoset)
        assert sc.lookup("FN", "poset").kind == "fn"
        assert sc.lookup("IJ", "poset").kind == "inj"
        assert sc.lookup("T", "poset").kind == "binary"
        assert isinstance(sc.lookup("G", "grid"), CohenGridPoset)
        assert isinstance(sc.lookup("A", "assignment"), Assignment)
        assert sc.lookup("s", "sigma") == frozenset({(0, 1)})
        assert isinstance(sc.lookup("pi", "perm"), Perm)

    def test_family_blocks(self):
        fam = self.scenario().lookup("F", "family")
        assert fam.labels == ("a", "b")
        assert fam.blocks["a"] == frozenset({nat(0), nat(1)})

    def test_cond_and_conds(self):
        sc = self.scenario()
        poset, cond = sc.lookup("c", "cond")
        assert poset is sc.lookup("P", "poset") and cond == "a"
        _, conds = sc.lookup("D", "conds")
        assert conds == ("a", "b", ONE)

    def test_names(self):
        sc = self.scenario()
        grid = sc.lookup("G", "grid")
        assert sc.lookup("zero", "name") == check_name(nat(0))
        assert sc.lookup("xd", "name") == xdot_name(grid, 0)
        lit = sc.lookup("lit", "name")
        assert lit == PName([("a", check_name(nat(1))),
                             (ONE, check_name(nat(0)))])

    def test_perms(self):
        sc = self.scenario()
        pi = sc.lookup("pi", "perm")
        assert pi.cycles == ((0, 1),)
        assert pi.chains == (Chain(2, (4, 2), (2, 6), (2, 5)),)
        assert sc.lookup("e", "perm") == Perm()

    def test_command(self):
        # Each argument keeps its token, and each keyword its key's token
        # and its value's, so an error about one carries its position.
        cmd = self.scenario().command
        line = FULL.count("\n")
        assert cmd == Command("forces", (
            Token("ident", "c", line, 16), Token("ident", "phi", line, 18)),
            {"pretty": (Token("ident", "pretty", line, 22),
                        Token("int", "1", line, 31))})

    def test_command_is_optional(self):
        sc = parse_scenario("poset P fn dom = 1 cod = 1")
        assert sc.command is None


class TestConditionLiterals:
    def test_choice_pair(self):
        sc = parse_scenario(
            "family F { a: {0, 1} }\n"
            "poset C choice F\n"
            "cond k over C = (1, {{}})")
        _, cond = sc.lookup("k", "cond")
        assert cond == (1, nat(1))

    def test_map_literal(self):
        sc = parse_scenario(
            "poset M fn dom = 2 cod = 2\ncond k over M = {0 -> 1, 1 -> 1}")
        _, cond = sc.lookup("k", "cond")
        assert cond == frozenset({(0, 1), (1, 1)})

    def test_grid_literal(self):
        sc = parse_scenario(
            "grid G cols = 2 rows = 1\ncond k over G = {(0, 0) = 1}")
        _, cond = sc.lookup("k", "cond")
        assert cond == frozenset({((0, 0), 1)})

    def test_tree_literal(self):
        sc = parse_scenario(
            "poset T tree depth = 3\ncond k over T = [0, 1, 1]")
        _, cond = sc.lookup("k", "cond")
        assert cond == "011"

    def test_one_everywhere(self):
        for decl in ("family XF { a: {0} }\nposet X flat XF",
                     "grid X cols = 1 rows = 1",
                     "poset X fn dom = 1 cod = 1"):
            sc = parse_scenario(f"{decl}\ncond k over X = 1")
            assert sc.lookup("k", "cond")[1] is ONE


class TestFormulas:
    def parse(self, body, head=""):
        sc = parse_scenario(
            "family FF { a: {0} b: {1} }\nposet P flat FF\n"
            "name g over P = gamma(P)\n"
            f"formula phi{head} = {body}")
        return sc.lookup("phi", "formula"), sc

    def g(self, sc):
        return Cname(sc.lookup("g", "name"))

    def test_implies_binds_loosest_and_right_assoc(self):
        phi, sc = self.parse(
            "check(0) in g -> check(1) in g or check(0) = check(0) "
            "-> check(1) in g")
        zero_in = Member(Cname(check_name(nat(0))), self.g(sc))
        one_in = Member(Cname(check_name(nat(1))), self.g(sc))
        refl = Eq(Cname(check_name(nat(0))), Cname(check_name(nat(0))))
        assert phi == Implies(zero_in, Implies(Or(one_in, refl), one_in))

    def test_and_tighter_than_or(self):
        phi, sc = self.parse(
            "check(0) in g or check(1) in g and check(0) = check(1)")
        zero_in = Member(Cname(check_name(nat(0))), self.g(sc))
        one_in = Member(Cname(check_name(nat(1))), self.g(sc))
        eq = Eq(Cname(check_name(nat(0))), Cname(check_name(nat(1))))
        assert phi == Or(zero_in, And(one_in, eq))

    def test_not_and_parens(self):
        phi, sc = self.parse("not (check(0) in g or not check(1) in g)")
        zero_in = Member(Cname(check_name(nat(0))), self.g(sc))
        one_in = Member(Cname(check_name(nat(1))), self.g(sc))
        assert phi == Not(Or(zero_in, Not(one_in)))

    def test_quantifiers_and_bounds(self):
        phi, sc = self.parse(
            "forall t [rank <= 1] exists u [ord < 2] "
            "(t = u or t in check({{}}))")
        assert isinstance(phi, Forall) and phi.bound == RankLE(1)
        inner = phi.body
        assert isinstance(inner, Exists) and inner.bound == OrdLT(2)
        assert inner.body == Or(
            Eq(Var("t"), Var("u")),
            Member(Var("t"), Cname(check_name(nat(1)))))

    def test_in_name_bound(self):
        phi, _ = self.parse("exists t [in check({0, 1})] t = check(0)")
        assert phi.bound == InName(check_name(nat(2)))

    def test_open_formula_head(self):
        phi, sc = self.parse("v in g", head="(v)")
        assert phi == Member(Var("v"), self.g(sc))

    def test_unbound_variable_is_an_error(self):
        with pytest.raises(UnresolvedReference):
            self.parse("v in g")

    def test_declared_name_as_term(self):
        phi, sc = self.parse("g = g")
        assert phi == Eq(self.g(sc), self.g(sc))


class TestErrors:
    def test_duplicate_identifier_has_position(self):
        with pytest.raises(DuplicateIdentifier) as exc:
            parse_scenario("poset P fn dom = 1 cod = 1\n"
                           "poset P fn dom = 1 cod = 1")
        assert exc.value.line == 2

    def test_unresolved_reference(self):
        with pytest.raises(UnresolvedReference):
            parse_scenario("name x = gamma(P)")

    def test_wrong_kind_reference(self):
        with pytest.raises(UnresolvedReference) as exc:
            parse_scenario("poset P fn dom = 1 cod = 1\n"
                           "name x = xdot(P, 0)")
        assert "expected a grid" in str(exc.value)

    def test_condition_needs_poset_context(self):
        with pytest.raises(ParseError):
            parse_scenario("name x = { (a, check(0)) }")

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_scenario("poset P explicit { elements }")
        assert exc.value.line == 1

    def test_domain_errors_pass_through_unwrapped(self):
        with pytest.raises(InvalidInput) as exc:
            parse_scenario("perm pi = (0 1) (1 2)")
        assert not isinstance(exc.value, ParseError)
        with pytest.raises(InvalidInput):
            parse_scenario(
                "perm pi = chain(lo=0, mid=[1, 0], neg=(2, 3), pos=(1, 2))")

    def test_assignment_must_fit_grid(self):
        with pytest.raises(InvalidInput):
            parse_scenario("grid G cols = 2 rows = 2\nassignment A G [0, 1]")


FAMILY = "family F { a: {0} b: {1} }\n"
GRID = "grid G cols = 2 rows = 1\n"

# One malformed input per production read by a bracketed list, a
# ``key = value`` setting or a typed reference, with the exact error each
# one raises.
MALFORMED = {
    # lists: open [ item { "," item } ] close
    "hf": ("name x = check({0 1})",
           ParseError, "syntax-error", 1, 19, "expected '}', found '1'"),
    "hf-set": ("family F { a: {0 1} }",
               ParseError, "syntax-error", 1, 18, "expected '}', found '1'"),
    "assignment-bits": (GRID + "assignment A G [0 1]",
                        ParseError, "syntax-error", 2, 19,
                        "expected ']', found '1'"),
    "sigma-pairs": ("sigma s = { (0, 1) (1, 0) }",
                    ParseError, "syntax-error", 1, 20,
                    "expected '}', found '('"),
    "conds": (FAMILY + "poset P flat F\nconds D over P = { a b }",
              ParseError, "syntax-error", 3, 22, "expected '}', found 'b'"),
    "fn-condition": ("poset M fn dom = 2 cod = 2\n"
                     "cond k over M = {0 -> 1 1 -> 0}",
                     ParseError, "syntax-error", 2, 25,
                     "expected '}', found '1'"),
    "inj-condition": ("poset M inj dom = 2 cod = 2\ncond k over M = {0 -> 1,}",
                      ParseError, "syntax-error", 2, 25,
                      "expected 'int', found '}'"),
    "grid-condition": (GRID + "cond k over G = {(0, 0) = 1 (1, 0) = 0}",
                       ParseError, "syntax-error", 2, 29,
                       "expected '}', found '('"),
    "tree-condition": ("poset T tree depth = 2\ncond k over T = [0 1]",
                       ParseError, "syntax-error", 2, 20,
                       "expected ']', found '1'"),
    "name-literal": (FAMILY + "poset P flat F\n"
                     "name x over P = { (a, check(0)) (b, check(1)) }",
                     ParseError, "syntax-error", 3, 33,
                     "expected '}', found '('"),
    # the end of file sits one column past the last character
    "eof-after-punct": ("family F {",
                        ParseError, "syntax-error", 1, 11,
                        "expected 'ident', found 'end of file'"),
    "eof-after-punct-line-3": ("family F { a: {0} }\nposet P flat F\n"
                               "poset Q explicit {",
                               ParseError, "syntax-error", 3, 19,
                               "expected 'elements', found 'end of file'"),
    # a comment runs to the end of its line, and the column runs with it
    "trailing-comment": ("family F { a: {0} # trailing",
                         ParseError, "syntax-error", 1, 29,
                         "expected 'ident', found 'end of file'"),
    "chain-window": ("perm pi = chain(lo=2, mid=[4 2], neg=(2, 6), pos=(2, 5))",
                     ParseError, "syntax-error", 1, 30,
                     "expected ']', found '2'"),
    # settings: key "=" value
    "fn-dom": ("poset M fn dom 2 cod = 2",
               ParseError, "syntax-error", 1, 16, "expected '=', found '2'"),
    "inj-cod": ("poset M inj dom = 2 cod 2",
                ParseError, "syntax-error", 1, 25, "expected '=', found '2'"),
    "tree-depth": ("poset T tree depth = x",
                   ParseError, "syntax-error", 1, 22,
                   "expected 'int', found 'x'"),
    # numerals are decimal digits, which int() reads; '²' is a digit but
    # no decimal
    "superscript-numeral": ("poset T tree depth = \u00b2",
                            ParseError, "syntax-error", 1, 22,
                            "unexpected character '\u00b2'"),
    "grid-cols": ("grid G rows = 2 cols = 2",
                  ParseError, "syntax-error", 1, 8,
                  "expected 'cols', found 'rows'"),
    "grid-rows": ("grid G cols = 2 rows = {",
                  ParseError, "syntax-error", 1, 24,
                  "expected 'int', found '{'"),
    "chain-lo": ("perm pi = chain(low=2, mid=[4, 2], neg=(2, 6), pos=(2, 5))",
                 ParseError, "syntax-error", 1, 17,
                 "expected 'lo', found 'low'"),
    "chain-mid": ("perm pi = chain(lo=2, mid=4, neg=(2, 6), pos=(2, 5))",
                  ParseError, "syntax-error", 1, 27,
                  "expected '[', found '4'"),
    "chain-neg": ("perm pi = chain(lo=2, mid=[4, 2], neg 2, pos=(2, 5))",
                  ParseError, "syntax-error", 1, 39,
                  "expected '=', found '2'"),
    "chain-pos": ("perm pi = chain(lo=2, mid=[4, 2], neg=(2, 6), pos=2)",
                  ParseError, "syntax-error", 1, 51,
                  "expected '(', found '2'"),
    # explicit poset elements: an identifier or an integer
    "explicit-top-eof": ("poset P explicit { elements a b ; top",
                         ParseError, "syntax-error", 1, 38,
                         "expected an element name"),
    "explicit-top-punct": ("poset P explicit { elements a b ; top ; }",
                           ParseError, "syntax-error", 1, 39,
                           "expected an element name"),
    # typed references
    "flat-family": ("poset P flat F",
                    UnresolvedReference, "unresolved-reference", 1, 14,
                    "unknown identifier 'F'"),
    "choice-family": (GRID + "poset C choice G",
                      UnresolvedReference, "unresolved-reference", 2, 16,
                      "'G' is a grid, expected a family"),
    "assignment-grid": (FAMILY + "assignment A F [0]",
                        UnresolvedReference, "unresolved-reference", 2, 14,
                        "'F' is a family, expected a grid"),
    "cond-over": (FAMILY + "cond k over F = 1",
                  UnresolvedReference, "unresolved-reference", 2, 13,
                  "'F' is a family, expected a poset or grid"),
    "conds-over": ("conds D over Q = { 1 }",
                   UnresolvedReference, "unresolved-reference", 1, 14,
                   "unknown identifier 'Q'"),
    "name-over": (FAMILY + "name x over F = check(0)",
                  UnresolvedReference, "unresolved-reference", 2, 13,
                  "'F' is a family, expected a poset or grid"),
    "gamma": (GRID + "name x = gamma(G)",
              UnresolvedReference, "unresolved-reference", 2, 16,
              "'G' is a grid, expected a poset"),
    "xdot": ("name x = xdot(G, 0)",
             UnresolvedReference, "unresolved-reference", 1, 15,
             "unknown identifier 'G'"),
    "xcc": (FAMILY + "name x = xcc(F, 0)",
            UnresolvedReference, "unresolved-reference", 2, 14,
            "'F' is a family, expected a grid"),
    "rsigma-grid": ("sigma s = {}\nname x = rsigma(s, s)",
                    UnresolvedReference, "unresolved-reference", 2, 17,
                    "'s' is a sigma, expected a grid"),
    "rsigma-sigma": (GRID + "name x = rsigma(G, G)",
                     UnresolvedReference, "unresolved-reference", 2, 20,
                     "'G' is a grid, expected a sigma"),
    "name-reference": (FAMILY + "name x = F",
                       UnresolvedReference, "unresolved-reference", 2, 10,
                       "'F' is a family, expected a name"),
    "unknown-name": ("name x = pair(check(0), y)",
                     UnresolvedReference, "unresolved-reference", 1, 25,
                     "unknown identifier 'y'"),
}


@pytest.mark.parametrize("source, cls, code, line, col, message",
                         MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_error(source, cls, code, line, col, message):
    with pytest.raises(ParseError) as exc:
        parse_scenario(source)
    err = exc.value
    assert (type(err), err.code, err.line, err.col, err.args[0]) == \
        (cls, code, line, col, message)


# The tokenizer as it was written first, one match object per piece: the
# reference that ``tokenize`` must agree with, token for token and error
# for error.
REFERENCE_TOKEN = re.compile(r"""
    (?P<newline>\n)
  | (?P<skip>[ \t\r]+|\#.*)
  | (?P<int>-?\d+)
  | (?P<ident>\w+)
  | (?P<punct>->|<=|[{}()\[\],;:=<])
  | (?P<stray>.)
""", re.VERBOSE)


def reference_tokenize(text):
    out = []
    line, start = 1, 0
    for m in REFERENCE_TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            line, start = line + 1, m.end()
        elif kind != "skip":
            word, col = m.group(), m.start() - start + 1
            if kind == "stray" or (kind == "ident" and not (
                    word[0].isalpha() or word[0] == "_")):
                raise ParseError(f"unexpected character {word[0]!r}", line, col)
            out.append(Token(kind, word, line, col))
    out.append(Token("end", "", line, len(text) - start + 1))
    return out


def tokens_or_error(tokenizer, text):
    try:
        return tokenizer(text)
    except ParseError as e:
        return (e.args[0], e.line, e.col)


def test_tokenizer_agrees_with_its_reference():
    # The 16 committed scenarios, every malformed input above, the 1,200
    # seeded mutations that the CLI's fuzz test runs, and edge cases.
    texts = [path.read_text() for path in SCENARIOS]
    texts += [source for source, *_ in MALFORMED.values()]
    texts += [text for _, text in fuzz_cases(random.Random(2011), 1200)]
    texts += ["", "\n", "\r\n x", "a\rb", " # only a comment", "#\n#",
              "--1", "-", "-x", "\u0663x", "x\u00b2", "\u00b2x", "_1 1_",
              "\u00e9 @", "a\tb\x0bc", "<=<->-<", "x\n\n  \u00bd"]
    assert len(texts) > 1200 + 16
    errors = 0
    for text in texts:
        got = tokens_or_error(tokenize, text)
        assert got == tokens_or_error(reference_tokenize, text), text
        if isinstance(got, tuple):
            errors += 1
        else:
            assert all(type(tok) is Token for tok in got), text
    assert 0 < errors < len(texts)
