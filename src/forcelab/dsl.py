"""Scenario files: declarations plus one command, parsed by recursive descent.

Tokens: INT is an optional "-" and decimal digits; ID is a letter or "_"
and then letters, digits and "_"; punctuation is "->", "<=" or one of
``{}()[],;:=<``.  Blanks (space, tab, CR), line ends and ``#`` comments to
the line end separate tokens; any other character (``²``) is an error.

Grammar::

    scenario    = { declaration } [ command ]
    declaration = family | poset | grid | assignment | sigma
                | name | formula | perm | cond | conds
    family      = "family" ID "{" { ID ":" hfset } "}"
    poset       = "poset" ID ( "explicit" "{" "elements" ID+ ";"
                                 [ "order" ID "<" ID { "," ID "<" ID } ";" ]
                                 [ "top" ID ] "}"
                             | "flat" ID
                             | "choice" ID [ "level" "=" INT ]
                             | "fn" "dom" "=" INT "cod" "=" INT
                             | "inj" "dom" "=" INT "cod" "=" INT
                             | "tree" "depth" "=" INT )
    grid        = "grid" ID "cols" "=" INT "rows" "=" INT
    assignment  = "assignment" ID ID "[" [ INT { "," INT } ] "]"
    sigma       = "sigma" ID "=" "{" [ pair { "," pair } ] "}"
    name        = "name" ID [ "over" ID ] "=" nameexpr
    formula     = "formula" ID [ "(" ID ")" ] "=" fml
    perm        = "perm" ID "=" ( "id" | { cycle | chain } )
    cond        = "cond" ID "over" ID "=" condition
    conds       = "conds" ID "over" ID "="
                  "{" [ condition { "," condition } ] "}"
    command     = "command" ID { INT | ID | ID "=" ( INT | ID ) }

    hf          = INT | "{" [ hf { "," hf } ] "}"
    hfset       = "{" [ hf { "," hf } ] "}"
    nameexpr    = "check" "(" hf ")" | "gamma" "(" ID ")"
                | "xdot" "(" ID "," INT ")" | "xcc" "(" ID "," INT ")"
                | "rsigma" "(" ID "," ID ")"
                | "pair" "(" nameexpr "," nameexpr ")"
                | "upair" "(" nameexpr "," nameexpr ")"
                | "{" [ entry { "," entry } ] "}"
                | ID
    entry       = "(" condition "," nameexpr ")"
    fml         = disj [ "->" fml ]
    disj        = conj { "or" conj }
    conj        = neg { "and" neg }
    neg         = "not" neg | "(" fml ")" | quant | term ("in" | "=") term
    quant       = ("forall" | "exists") ID bound fml
    bound       = "[" ( "in" nameexpr | "rank" "<=" INT | "ord" "<" INT ) "]"
    term        = ID | nameexpr
    cycle       = "(" INT INT { INT } ")"
    chain       = "chain" "(" "lo" "=" INT "," "mid" "=" "[" [ INT { "," INT } ]
                  "]" "," "neg" "=" pair "," "pos" "=" pair ")"
    pair        = "(" INT "," INT ")"

Condition literals depend on the kind of their poset: explicit-style posets
use the element identifier (or 1), the choice poset uses ``(level, hf)``,
map posets use ``{u->v, ...}``, grids use ``{(c,r)=bit, ...}``, trees use a
bit list, and ``1`` always denotes the greatest element, so an explicit
poset may name an element ``1`` only when it is the top.

A command gives each keyword (``ID "="``) at most once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .cohen import Assignment, r_sigma_name, xcheckcheck_name, xdot_name
from .errors import (
    DuplicateIdentifier, ParseError, UnresolvedReference, takes,
)
from .hf import HF, nat
from .names import (
    PName, check_name, gamma_name, ordered_pair_name, unordered_pair_name,
)
from .perms import Chain, Perm
from .posets import (
    BinaryTreePoset, ChoicePoset, CohenGridPoset, ExplicitPoset, Family,
    FlatPoset, ONE, Poset, fn_omega_omega, inj_omega_omega,
)
from .formulas import (
    And, Cname, Eq, Exists, Forall, Formula, Implies, InName, Member, Not,
    Or, OrdLT, RankLE, Var,
)


class Token(NamedTuple):
    kind: str  # "int" | "ident" | "punct" | "end"
    text: str
    line: int
    col: int


# The token rules of the module docstring, tried in order, one group per
# kind: newline, blanks or a comment, int, ident, punct, and a stray
# character.  Every character of a text falls in exactly one match, and
# exactly one group of a match is non-empty.
_TOKEN = re.compile(r"""
    (\n)
  | ([ \t\r]+|\#.*)
  | (-?\d+)
  | (\w+)
  | (->|<=|[{}()\[\],;:=<])
  | (.)
""", re.VERBOSE)


@takes(text=str)
def tokenize(text: str) -> list[Token]:
    out = []
    append = out.append
    new = tuple.__new__  # Token's own constructor, without its Python frame
    line, start = 1, 0  # the current line's number and offset
    pos = 0  # the offset of the current piece: the lengths of those before it
    for newline, skip, num, word, punct, stray in _TOKEN.findall(text):
        if skip:
            pos += len(skip)
        elif word:
            if not word[0].isalpha() and word[0] != "_":
                raise ParseError(f"unexpected character {word[0]!r}",
                                 line, pos - start + 1)
            append(new(Token, ("ident", word, line, pos - start + 1)))
            pos += len(word)
        elif punct:
            append(new(Token, ("punct", punct, line, pos - start + 1)))
            pos += len(punct)
        elif num:
            append(new(Token, ("int", num, line, pos - start + 1)))
            pos += len(num)
        elif newline:
            pos += 1
            line, start = line + 1, pos
        else:
            raise ParseError(f"unexpected character {stray!r}",
                             line, pos - start + 1)
    append(Token("end", "", line, len(text) - start + 1))
    return out


@takes(verb=str, args=tuple, kwargs=dict)
@dataclass(frozen=True)
class Command:
    """A command as written: its verb, the tokens of its positional
    arguments, and each keyword mapped to (key token, value token), so
    that an error about an argument carries the position of its token."""

    verb: str
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)


@takes(entities=dict, command=Command)
@dataclass
class Scenario:
    entities: dict[str, tuple[str, object]] = field(default_factory=dict)
    command: Optional[Command] = None

    def lookup(self, ident: str, *kinds: str, tok: Optional[Token] = None):
        """The entity declared as ``ident``, which must be of one of
        ``kinds`` when any are given; errors carry ``tok``'s position."""
        where = (tok.line, tok.col) if tok is not None else ()
        if ident not in self.entities:
            raise UnresolvedReference(f"unknown identifier {ident!r}", *where)
        got_kind, obj = self.entities[ident]
        if kinds and got_kind not in kinds:
            raise UnresolvedReference(
                f"{ident!r} is a {got_kind}, expected a {' or '.join(kinds)}",
                *where)
        return obj


class Parser:
    # Each name constructor's head, as (maker, the kinds of its arguments):
    # "hf" a set literal, "int" a numeral, "name" a name expression, and
    # any other kind an identifier declared as that kind.
    NAME_MAKERS = {
        "check": (check_name, ("hf",)),
        "gamma": (gamma_name, ("poset",)),
        "xdot": (xdot_name, ("grid", "int")),
        "xcc": (xcheckcheck_name, ("grid", "int")),
        "rsigma": (r_sigma_name, ("grid", "sigma")),
        "pair": (ordered_pair_name, ("name", "name")),
        "upair": (unordered_pair_name, ("name", "name")),
    }

    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.scenario = Scenario()

    # -- token plumbing ------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Optional[Token] = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    # expect and accept are the parser's most frequent calls, so they read
    # and move the cursor themselves rather than through peek and next.
    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            found = tok.text or "end of file"
            self.fail(f"expected {want!r}, found {found!r}", tok)
        self.pos += 1
        return tok

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        tok = self.tokens[self.pos]
        if tok.kind == kind and (text is None or tok.text == text):
            self.pos += 1
            return tok
        return None

    def int_value(self) -> int:
        return int(self.expect("int").text)

    def ident(self) -> str:
        return self.expect("ident").text

    def seq(self, open_: str, close: str, item) -> list:
        """``open [ item { "," item } ] close``: the items read."""
        self.expect("punct", open_)
        items = []
        if not self.accept("punct", close):
            items.append(item())
            while self.accept("punct", ","):
                items.append(item())
            self.expect("punct", close)
        return items

    def setting(self, key: str, value=None):
        """``key "=" value``, the value an integer unless ``value`` reads
        it."""
        self.expect("ident", key)
        self.expect("punct", "=")
        return value() if value is not None else self.int_value()

    # -- entity table --------------------------------------------------------

    def define(self, ident: str, kind: str, obj, tok: Token):
        if ident in self.scenario.entities:
            raise DuplicateIdentifier(
                f"identifier {ident!r} is already defined", tok.line, tok.col)
        self.scenario.entities[ident] = (kind, obj)

    def ref(self, *kinds: str):
        """An identifier naming a declared entity of one of ``kinds``."""
        tok = self.expect("ident")
        return self.scenario.lookup(tok.text, *kinds, tok=tok)

    # -- scenario ------------------------------------------------------------

    def parse(self) -> Scenario:
        while True:
            tok = self.peek()
            if tok.kind == "end":
                break
            if tok.kind != "ident":
                self.fail("expected a declaration keyword")
            if tok.text == "command":
                self.parse_command()
                break
            handler = self.DECLARATIONS.get(tok.text)
            if handler is None:
                self.fail(f"unknown declaration keyword {tok.text!r}")
            self.next()
            ident = self.expect("ident")
            self.define(ident.text, tok.text, handler(self), ident)
        self.expect("end")
        return self.scenario

    # -- declarations ---------------------------------------------------------

    def parse_family(self):
        self.expect("punct", "{")
        blocks = []
        while not self.accept("punct", "}"):
            label = self.ident()
            self.expect("punct", ":")
            blocks.append((label, self.parse_hf_set()))
        return Family(blocks)

    def parse_hf(self) -> HF:
        tok = self.peek()
        if tok.kind == "int":
            value = self.int_value()
            if value < 0:
                self.fail("set literals use nonnegative numerals", tok)
            return nat(value)
        return HF(self.parse_hf_set())

    def parse_hf_set(self) -> list[HF]:
        return self.seq("{", "}", self.parse_hf)

    def parse_poset(self):
        kind = self.ident()
        if kind == "explicit":
            poset = self.parse_explicit_body()
        elif kind == "flat":
            poset = FlatPoset(self.ref("family"))
        elif kind == "choice":
            family = self.ref("family")
            level = self.setting("level") if self.peek().text == "level" \
                else None
            poset = ChoicePoset(family, level)
        elif kind in ("fn", "inj"):
            dom = self.setting("dom")
            cod = self.setting("cod")
            maker = fn_omega_omega if kind == "fn" else inj_omega_omega
            poset = maker(dom, cod)
        elif kind == "tree":
            poset = BinaryTreePoset(self.setting("depth"))
        else:
            self.fail(f"unknown poset kind {kind!r}")
        return poset

    def parse_explicit_body(self) -> ExplicitPoset:
        self.expect("punct", "{")
        self.expect("ident", "elements")
        elements = []
        while self.peek().kind in ("ident", "int") and \
                self.peek().text not in ("order", "top"):
            elements.append(self.next().text)
        self.expect("punct", ";")
        order = []
        if self.accept("ident", "order"):
            while True:
                a = self.element()
                self.expect("punct", "<")
                order.append((a, self.element()))
                if not self.accept("punct", ","):
                    break
            self.expect("punct", ";")
        top = self.element() if self.accept("ident", "top") else None
        self.expect("punct", "}")
        return ExplicitPoset(elements, order, top)

    def element(self) -> str:
        """An explicit poset's element name: an identifier or an integer."""
        tok = self.next()
        if tok.kind not in ("ident", "int"):
            self.fail("expected an element name", tok)
        return tok.text

    def parse_grid(self):
        return CohenGridPoset(self.setting("cols"), self.setting("rows"))

    def parse_assignment(self):
        grid = self.ref("grid")
        bits = self.seq("[", "]", self.int_value)
        return Assignment(grid, bits)

    def parse_int_pair(self) -> tuple[int, int]:
        self.expect("punct", "(")
        a = self.int_value()
        self.expect("punct", ",")
        b = self.int_value()
        self.expect("punct", ")")
        return (a, b)

    def parse_sigma(self):
        self.expect("punct", "=")
        pairs = self.seq("{", "}", self.parse_int_pair)
        return frozenset(pairs)

    # -- conditions ------------------------------------------------------------

    def parse_condition(self, poset: Optional[Poset]):
        tok = self.peek()
        if tok.kind == "int" and tok.text == "1":
            self.next()
            return ONE
        if poset is None:
            self.fail("a condition other than 1 needs a poset context", tok)
        if poset.kind in ("explicit", "flat"):
            return self.element()
        if poset.kind == "choice":
            self.expect("punct", "(")
            level = self.int_value()
            self.expect("punct", ",")
            value = self.parse_hf()
            self.expect("punct", ")")
            return (level, value)
        if poset.kind in ("fn", "inj"):
            def mapping():
                u = self.int_value()
                self.expect("punct", "->")
                return (u, self.int_value())
            return frozenset(self.seq("{", "}", mapping))
        if poset.kind == "cohen":
            def cell():
                where = self.parse_int_pair()
                self.expect("punct", "=")
                return (where, self.int_value())
            return frozenset(self.seq("{", "}", cell))
        if poset.kind == "binary":
            bits = self.seq("[", "]", self.int_value)
            return "".join(str(b) for b in bits)
        self.fail(f"no condition syntax for poset kind {poset.kind!r}", tok)

    def parse_over(self):
        """``"over" ID "="``, the head of a cond or conds declaration: the
        poset or grid its conditions are read over."""
        self.expect("ident", "over")
        poset = self.ref("poset", "grid")
        self.expect("punct", "=")
        return poset

    def parse_cond_decl(self):
        poset = self.parse_over()
        return (poset, self.parse_condition(poset))

    def parse_conds_decl(self):
        poset = self.parse_over()
        return (poset, tuple(self.seq("{", "}",
                                      lambda: self.parse_condition(poset))))

    # -- names -----------------------------------------------------------------

    def parse_name(self):
        poset = None
        if self.accept("ident", "over"):
            poset = self.ref("poset", "grid")
        self.expect("punct", "=")
        return self.parse_name_expr(poset)

    def parse_name_expr(self, poset: Optional[Poset]) -> PName:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == "{":
            def entry():
                self.expect("punct", "(")
                cond = self.parse_condition(poset)
                self.expect("punct", ",")
                child = self.parse_name_expr(poset)
                self.expect("punct", ")")
                return (cond, child)
            return PName(self.seq("{", "}", entry))
        if tok.kind != "ident":
            self.fail("expected a name expression", tok)
        head = self.next().text
        made = self.NAME_MAKERS.get(head)
        if made is None:
            return self.scenario.lookup(head, "name", tok=tok)
        maker, kinds = made
        self.expect("punct", "(")
        args = []
        for kind in kinds:
            if args:
                self.expect("punct", ",")
            if kind == "hf":
                args.append(self.parse_hf())
            elif kind == "int":
                args.append(self.int_value())
            elif kind == "name":
                args.append(self.parse_name_expr(poset))
            else:
                args.append(self.ref(kind))
        self.expect("punct", ")")
        return maker(*args)

    # -- formulas ----------------------------------------------------------------

    def parse_formula_decl(self):
        """An optional parenthesized head variable declares an open formula,
        as in ``formula theta(x) = x in g``."""
        scope: tuple[str, ...] = ()
        if self.accept("punct", "("):
            scope = (self.ident(),)
            self.expect("punct", ")")
        self.expect("punct", "=")
        return self.parse_formula(scope)

    def parse_formula(self, scope: tuple[str, ...]) -> Formula:
        left = self.parse_disjunction(scope)
        if self.accept("punct", "->"):
            return Implies(left, self.parse_formula(scope))
        return left

    def parse_disjunction(self, scope) -> Formula:
        out = self.parse_conjunction(scope)
        while self.accept("ident", "or"):
            out = Or(out, self.parse_conjunction(scope))
        return out

    def parse_conjunction(self, scope) -> Formula:
        out = self.parse_negation(scope)
        while self.accept("ident", "and"):
            out = And(out, self.parse_negation(scope))
        return out

    def parse_negation(self, scope) -> Formula:
        if self.accept("ident", "not"):
            return Not(self.parse_negation(scope))
        tok = self.peek()
        if tok.kind == "ident" and tok.text in ("forall", "exists"):
            self.next()
            var = self.ident()
            bound = self.parse_bound(scope)
            body = self.parse_formula(scope + (var,))
            maker = Forall if tok.text == "forall" else Exists
            return maker(var, bound, body)
        if tok.kind == "punct" and tok.text == "(":
            self.next()
            inner = self.parse_formula(scope)
            self.expect("punct", ")")
            return inner
        left = self.parse_term(scope)
        op = self.peek()
        if op.kind == "ident" and op.text == "in":
            self.next()
            return Member(left, self.parse_term(scope))
        if op.kind == "punct" and op.text == "=":
            self.next()
            return Eq(left, self.parse_term(scope))
        self.fail("expected 'in' or '=' after a term")

    def parse_bound(self, scope):
        self.expect("punct", "[")
        tok = self.peek()
        if self.accept("ident", "rank"):
            self.expect("punct", "<=")
            bound = RankLE(self.int_value())
        elif self.accept("ident", "ord"):
            self.expect("punct", "<")
            bound = OrdLT(self.int_value())
        elif self.accept("ident", "in"):
            bound = InName(self.parse_name_expr(None))
        else:
            self.fail("expected a quantifier bound", tok)
        self.expect("punct", "]")
        return bound

    def parse_term(self, scope):
        tok = self.peek()
        if tok.kind == "ident":
            head = tok.text
            if head in scope:
                self.next()
                return Var(head)
            entry = self.scenario.entities.get(head)
            if entry is not None and entry[0] == "name" and \
                    self.tokens[self.pos + 1].text != "(":
                self.next()
                return Cname(entry[1])
            if head in self.NAME_MAKERS:
                return Cname(self.parse_name_expr(None))
            raise UnresolvedReference(
                f"{head!r} is neither a bound variable nor a declared name",
                tok.line, tok.col)
        if tok.kind == "punct" and tok.text == "{":
            return Cname(self.parse_name_expr(None))
        self.fail("expected a term", tok)

    # -- permutations ---------------------------------------------------------

    def parse_perm(self):
        self.expect("punct", "=")
        if self.accept("ident", "id"):
            return Perm()
        cycles = []
        chains = []
        while True:
            nxt = self.peek()
            if nxt.kind == "punct" and nxt.text == "(":
                self.next()
                entries = [self.int_value()]
                while self.peek().kind == "int":
                    entries.append(self.int_value())
                self.expect("punct", ")")
                cycles.append(tuple(entries))
            elif nxt.kind == "ident" and nxt.text == "chain":
                chains.append(self.parse_chain())
            else:
                break
        if not cycles and not chains:
            self.fail("expected cycles, chains, or 'id'")
        return Perm(cycles, chains)

    def parse_chain(self) -> Chain:
        self.expect("ident", "chain")
        self.expect("punct", "(")
        lo = self.setting("lo")
        self.expect("punct", ",")
        mid = self.setting("mid", lambda: self.seq("[", "]", self.int_value))
        self.expect("punct", ",")
        neg = self.setting("neg", self.parse_int_pair)
        self.expect("punct", ",")
        pos = self.setting("pos", self.parse_int_pair)
        self.expect("punct", ")")
        return Chain(lo, tuple(mid), neg, pos)

    # -- the command ------------------------------------------------------------

    def parse_command(self):
        self.expect("ident", "command")
        verb = self.ident()
        args = []
        kwargs = {}
        while self.peek().kind != "end":
            tok = self.next()
            if tok.kind not in ("int", "ident"):
                self.fail("unexpected token in command arguments", tok)
            if tok.kind == "ident" and self.accept("punct", "="):
                if tok.text in kwargs:
                    self.fail(f"keyword {tok.text!r} is given twice", tok)
                value = self.next()
                if value.kind not in ("int", "ident"):
                    self.fail("expected a value after '='", value)
                kwargs[tok.text] = (tok, value)
            else:
                args.append(tok)
        self.scenario.command = Command(verb, tuple(args), kwargs)

    # Each declaration keyword's handler: it reads the declaration after the
    # keyword and identifier and returns the entity, which is declared with
    # the keyword as its kind.
    DECLARATIONS = {
        "family": parse_family,
        "poset": parse_poset,
        "grid": parse_grid,
        "assignment": parse_assignment,
        "sigma": parse_sigma,
        "name": parse_name,
        "formula": parse_formula_decl,
        "perm": parse_perm,
        "cond": parse_cond_decl,
        "conds": parse_conds_decl,
    }


@takes(text=str)
def parse_scenario(text: str) -> Scenario:
    """The scenario the text declares.  Reading a set, name or formula
    recurses once per level of nesting, so nesting that outruns Python's
    stack is a syntax error at the last token read."""
    parser = Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        parser.fail("nested too deeply", parser.tokens[parser.pos - 1])
