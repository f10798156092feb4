"""Session language: ring/ideal/poly/pair declarations plus check commands.

The language has no control flow; a session is an ordered list of
declarations and checks.  Example:

    ring R = QQ[x,y,z] order grevlex;
    ideal I = (x^2 - x, x*y - y, x*z, y*z);
    poly f = x^2 - x;
    pair P = (f, (1 - x)*y + x*z);
    check stci I with P;

Names must be declared before use; each ideal, polynomial and pair
belongs to the most recently declared ring.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .groebner import IdealHandle
from .poly import GF, QQ, MonomialOrder, PolyParseError, RingSpec

__all__ = ["Session", "Command", "DslParseError", "parse_session", "COMMANDS"]


class DslParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<comment>#[^\n]*)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<int>\d+)"
    r"|(?P<op>[-+*/^()\[\],;=])"
)

# command name -> argument shape, handled in cli.run_command
COMMANDS = {
    "member": "expr in ideal",
    "radical-member": "expr in ideal",
    "radical-equal": "ideal ideal",
    "dimension": "ideal",
    "regular-sequence": "exprs [mod ideal]",
    "koszul-exact": "pair",
    "lci": "ideal",
    "mod-square": "ideal with exprs",
    "ci": "ideal with pair",
    "stci": "ideal with pair",
    "stci-search": "ideal",
    "regularize": "ideal",
    "ext-cyclic": "ideal at int",
    "resolution": "ideal length int",
}


@dataclass
class Token:
    kind: str
    value: object
    line: int
    col: int
    start: int
    end: int


def _tokenize(text):
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            col = pos - line_start + 1
            raise DslParseError(f"unexpected character {text[pos]!r}", line, col)
        if m.lastgroup in ("ws", "comment"):
            chunk = m.group()
            nl = chunk.count("\n")
            if nl:
                line += nl
                line_start = m.start() + chunk.rfind("\n") + 1
        else:
            kind = m.lastgroup
            value = m.group()
            if kind == "int":
                value = int(value)
            tokens.append(Token(kind, value, line, m.start() - line_start + 1,
                                m.start(), m.end()))
        pos = m.end()
    return tokens


@dataclass
class Command:
    name: str
    args: dict
    text: str
    line: int


@dataclass
class Session:
    text: str
    rings: dict = field(default_factory=dict)
    ideals: dict = field(default_factory=dict)
    polys: dict = field(default_factory=dict)
    pairs: dict = field(default_factory=dict)
    commands: list = field(default_factory=list)


class _Parser:
    def __init__(self, text, field_override=None):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.session = Session(text)
        self.current_ring_name = None
        self.field_override = field_override

    # -- token helpers

    def _eof_error(self):
        line = self.tokens[-1].line if self.tokens else 1
        raise DslParseError("unexpected end of input", line, 1)

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            self._eof_error()
        self.i += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.take()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            raise DslParseError(f"expected {want!r}, found {tok.value!r}",
                                tok.line, tok.col)
        return tok

    def expect_name(self, value=None):
        return self.expect("name", value)

    def at(self, kind, value=None):
        tok = self.peek()
        return (tok is not None and tok.kind == kind
                and (value is None or tok.value == value))

    # -- names

    def declare(self, name, tok):
        s = self.session
        if name in s.rings or name in s.ideals or name in s.polys or name in s.pairs:
            raise DslParseError(f"name {name!r} already declared", tok.line, tok.col)

    def current_ring(self, tok):
        if self.current_ring_name is None:
            raise DslParseError("no ring declared yet", tok.line, tok.col)
        return self.session.rings[self.current_ring_name]

    def ideal_arg(self):
        tok = self.expect_name()
        if tok.value not in self.session.ideals:
            raise DslParseError(f"undeclared ideal {tok.value!r}", tok.line, tok.col)
        return tok.value

    # -- expression parsing (delegates to the polynomial parser)

    def _expr_env(self, ring):
        env = {}
        for name, f in self.session.polys.items():
            if f.ring == ring:
                env[name] = f
        return env

    def parse_expr(self, ring, stop_words=()):
        start_tok = self.peek()
        if start_tok is None:
            self._eof_error()
        depth = 0
        j = self.i
        while j < len(self.tokens):
            tok = self.tokens[j]
            if tok.kind == "op" and tok.value == "(":
                depth += 1
            elif tok.kind == "op" and tok.value == ")":
                if depth == 0:
                    break
                depth -= 1
            elif depth == 0 and tok.kind == "op" and tok.value in (",", ";"):
                break
            elif depth == 0 and tok.kind == "name" and tok.value in stop_words:
                break
            j += 1
        if j == self.i:
            raise DslParseError("expected an expression", start_tok.line, start_tok.col)
        chunk = self.text[self.tokens[self.i].start:self.tokens[j - 1].end]
        try:
            value = ring.parse(chunk, names=self._expr_env(ring))
        except PolyParseError as exc:
            raise DslParseError(str(exc), start_tok.line, start_tok.col) from exc
        self.i = j
        return value

    def parse_expr_list(self, ring, stop_words=()):
        items = [self.parse_expr(ring, stop_words)]
        while self.at("op", ","):
            self.take()
            items.append(self.parse_expr(ring, stop_words))
        return items

    def parse_paren_exprs(self, ring):
        self.expect("op", "(")
        if self.at("op", ")"):
            self.take()
            return []
        items = self.parse_expr_list(ring)
        self.expect("op", ")")
        return items

    # -- declarations

    def parse_ring_decl(self):
        name_tok = self.expect_name()
        self.declare(name_tok.value, name_tok)
        self.expect("op", "=")
        field_tok = self.expect_name()
        if field_tok.value == "QQ":
            fld = QQ
        elif field_tok.value == "Fp":
            self.expect("op", "(")
            p_tok = self.expect("int")
            self.expect("op", ")")
            try:
                fld = GF(p_tok.value)
            except ValueError as exc:
                raise DslParseError(str(exc), p_tok.line, p_tok.col) from exc
        else:
            raise DslParseError(f"unknown field {field_tok.value!r}",
                                field_tok.line, field_tok.col)
        if self.field_override is not None:
            fld = self.field_override
        self.expect("op", "[")
        variables = [self.expect_name().value]
        while self.at("op", ","):
            self.take()
            variables.append(self.expect_name().value)
        self.expect("op", "]")
        base_chunks = []
        order_kind = "grevlex"
        while not self.at("op", ";"):
            if self.at("op", "/"):
                self.take()
                bare = RingSpec(variables, fld, MonomialOrder("grevlex"))
                base_chunks = self.parse_paren_exprs(bare)
            elif self.at("name", "order"):
                self.take()
                kind_tok = self.expect_name()
                if kind_tok.value not in ("lex", "grevlex"):
                    raise DslParseError(f"unknown order {kind_tok.value!r}",
                                        kind_tok.line, kind_tok.col)
                order_kind = kind_tok.value
            else:
                tok = self.take()
                raise DslParseError(f"unexpected token {tok.value!r}",
                                    tok.line, tok.col)
        self.expect("op", ";")
        try:
            spec = RingSpec(variables, fld, MonomialOrder(order_kind))
            if base_chunks:
                spec = spec.quotient([spec.rehome(g) for g in base_chunks])
        except ValueError as exc:
            raise DslParseError(str(exc), name_tok.line, name_tok.col) from exc
        self.session.rings[name_tok.value] = spec
        self.current_ring_name = name_tok.value

    def parse_ideal_decl(self):
        name_tok = self.expect_name()
        self.declare(name_tok.value, name_tok)
        ring = self.current_ring(name_tok)
        self.expect("op", "=")
        gens = self.parse_paren_exprs(ring)
        self.expect("op", ";")
        self.session.ideals[name_tok.value] = IdealHandle(ring, gens)

    def parse_poly_decl(self):
        name_tok = self.expect_name()
        self.declare(name_tok.value, name_tok)
        ring = self.current_ring(name_tok)
        if name_tok.value in ring.variables:
            raise DslParseError(f"{name_tok.value!r} is a ring variable",
                                name_tok.line, name_tok.col)
        self.expect("op", "=")
        value = self.parse_expr(ring)
        self.expect("op", ";")
        self.session.polys[name_tok.value] = value

    def parse_pair_decl(self):
        name_tok = self.expect_name()
        self.declare(name_tok.value, name_tok)
        ring = self.current_ring(name_tok)
        self.expect("op", "=")
        items = self.parse_paren_exprs(ring)
        if len(items) != 2:
            raise DslParseError("a pair needs exactly two entries",
                                name_tok.line, name_tok.col)
        self.expect("op", ";")
        self.session.pairs[name_tok.value] = tuple(items)

    # -- check commands

    def command_word(self):
        tok = self.expect_name()
        word = tok.value
        while self.at("op", "-"):
            self.take()
            word += "-" + self.expect_name().value
        if word not in COMMANDS:
            raise DslParseError(f"unknown command {word!r}", tok.line, tok.col)
        return word, tok

    def pair_arg(self, ring):
        tok = self.peek()
        if tok is None:
            self._eof_error()
        if tok.kind == "name" and tok.value in self.session.pairs:
            self.take()
            return self.session.pairs[tok.value]
        items = self.parse_paren_exprs(ring)
        if len(items) != 2:
            raise DslParseError("expected a pair of two expressions",
                                tok.line, tok.col)
        return tuple(items)

    def ring_for_ideal(self, ideal_name):
        return self.session.ideals[ideal_name].ring

    def parse_check(self, start_tok):
        word, tok = self.command_word()
        args = {}
        if word in ("member", "radical-member"):
            ring = self.current_ring(tok)
            args["element"] = self.parse_expr(ring, stop_words=("in",))
            self.expect_name("in")
            args["ideal"] = self.ideal_arg()
            if args["element"].ring != self.ring_for_ideal(args["ideal"]):
                raise DslParseError("element and ideal live in different rings",
                                    tok.line, tok.col)
        elif word == "radical-equal":
            args["left"] = self.ideal_arg()
            args["right"] = self.ideal_arg()
        elif word in ("dimension", "stci-search", "regularize", "lci"):
            args["ideal"] = self.ideal_arg()
        elif word == "regular-sequence":
            ring = self.current_ring(tok)
            args["sequence"] = tuple(self.parse_paren_exprs(ring))
            if self.at("name", "mod"):
                self.take()
                args["mod"] = self.ideal_arg()
        elif word == "koszul-exact":
            ring = self.current_ring(tok)
            args["pair"] = self.pair_arg(ring)
        elif word == "mod-square":
            args["ideal"] = self.ideal_arg()
            self.expect_name("with")
            ring = self.ring_for_ideal(args["ideal"])
            args["candidates"] = tuple(self.parse_paren_exprs(ring))
        elif word in ("ci", "stci"):
            args["ideal"] = self.ideal_arg()
            self.expect_name("with")
            args["pair"] = self.pair_arg(self.ring_for_ideal(args["ideal"]))
        elif word == "ext-cyclic":
            args["ideal"] = self.ideal_arg()
            self.expect_name("at")
            args["degree"] = self.expect("int").value
        elif word == "resolution":
            args["ideal"] = self.ideal_arg()
            self.expect_name("length")
            args["length"] = self.expect("int").value
        end_tok = self.expect("op", ";")
        text = self.text[start_tok.start:end_tok.end]
        self.session.commands.append(
            Command(word, args, " ".join(text.split()), start_tok.line))

    # -- top level

    def run(self) -> Session:
        while self.peek() is not None:
            tok = self.take()
            if tok.kind != "name":
                raise DslParseError(f"expected a declaration, found {tok.value!r}",
                                    tok.line, tok.col)
            if tok.value == "ring":
                self.parse_ring_decl()
            elif tok.value == "ideal":
                self.parse_ideal_decl()
            elif tok.value == "poly":
                self.parse_poly_decl()
            elif tok.value == "pair":
                self.parse_pair_decl()
            elif tok.value == "check":
                self.parse_check(tok)
            else:
                raise DslParseError(
                    f"expected ring/ideal/poly/pair/check, found {tok.value!r}",
                    tok.line, tok.col)
        return self.session


def parse_session(text: str, field_override=None) -> Session:
    return _Parser(text, field_override).run()
