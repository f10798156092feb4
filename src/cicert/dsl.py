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

A session is tokenized once, by `poly.tokenize`, and every expression is
parsed from those tokens by `poly.parse_expression`, with the declared
polys as its name table: an expression ends at the first token that
cannot continue it, so `check member x*y in I;` needs no stop word.
"""

from __future__ import annotations

from .groebner import IdealHandle
from .poly import (GF, QQ, MonomialOrder, PolyParseError, RingSpec,
                   parse_expression, tokenize)

__all__ = ["Session", "Command", "DslParseError", "parse_session", "COMMANDS"]


class DslParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


# command name -> argument shape, handled in cli._dispatch
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


class Command:
    def __init__(self, name: str, args: dict, text: str, ring: RingSpec):
        self.name = name
        self.args = args
        self.text = text
        self.ring = ring  # the ring the check runs in, recorded in its certificate


class Session:
    def __init__(self, text: str):
        self.text = text
        self.rings = {}
        self.ideals = {}
        self.polys = {}
        self.pairs = {}
        self.commands = []


class _Parser:
    def __init__(self, text, field_override=None):
        self.text = text
        try:
            self.tokens = tokenize(text)
        except PolyParseError as exc:
            raise self.error(exc.message, exc.pos) from exc
        self.i = 0
        self.session = Session(text)
        self.current_ring_name = None
        self.field_override = field_override

    # -- token helpers

    def error(self, message, pos) -> DslParseError:
        """The error at text offset `pos`, with its line and column."""
        line = self.text.count("\n", 0, pos) + 1
        col = pos - self.text.rfind("\n", 0, pos)
        return DslParseError(message, line, col)

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise self.error("unexpected end of input", len(self.text))
        self.i += 1
        return tok

    def expect(self, kind, value=None):
        tok = self.take()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            raise self.error(f"expected {want!r}, found {tok.value!r}", tok.start)
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
            raise self.error(f"name {name!r} already declared", tok.start)

    def current_ring(self, tok):
        if self.current_ring_name is None:
            raise self.error("no ring declared yet", tok.start)
        return self.session.rings[self.current_ring_name]

    def ideal_arg(self):
        tok = self.expect_name()
        if tok.value not in self.session.ideals:
            raise self.error(f"undeclared ideal {tok.value!r}", tok.start)
        return tok.value

    # -- expressions, parsed from the session's own tokens

    def parse_expr(self, ring):
        try:
            value, self.i = parse_expression(ring, self.tokens, self.i,
                                             self.session.polys)
        except PolyParseError as exc:
            raise self.error(exc.message, exc.pos) from exc
        return value

    def parse_expr_list(self, ring):
        items = [self.parse_expr(ring)]
        while self.at("op", ","):
            self.take()
            items.append(self.parse_expr(ring))
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
                raise self.error(str(exc), p_tok.start) from exc
        else:
            raise self.error(f"unknown field {field_tok.value!r}", field_tok.start)
        if self.field_override is not None:
            fld = self.field_override
        self.expect("op", "[")
        variables = []
        while True:
            var_tok = self.expect_name()
            if var_tok.value in variables:
                raise self.error(f"repeated variable {var_tok.value!r}", var_tok.start)
            variables.append(var_tok.value)
            if not self.at("op", ","):
                break
            self.take()
        self.expect("op", "]")
        base_chunks = []
        order_kind = "grevlex"
        while not self.at("op", ";"):
            if self.at("op", "/"):
                self.take()
                # lex packs no degree, so it holds every monomial any
                # order can; the order named later repacks them
                bare = RingSpec(variables, fld, MonomialOrder("lex"))
                base_chunks = self.parse_paren_exprs(bare)
            elif self.at("name", "order"):
                self.take()
                kind_tok = self.expect_name()
                if kind_tok.value not in ("lex", "grevlex"):
                    raise self.error(f"unknown order {kind_tok.value!r}",
                                     kind_tok.start)
                order_kind = kind_tok.value
            else:
                tok = self.take()
                raise self.error(f"unexpected token {tok.value!r}", tok.start)
        self.expect("op", ";")
        try:
            spec = RingSpec(variables, fld, MonomialOrder(order_kind))
            if base_chunks:
                spec = spec.quotient([spec.rehome(g) for g in base_chunks])
        except ValueError as exc:
            raise self.error(str(exc), name_tok.start) from exc
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
            raise self.error(f"{name_tok.value!r} is a ring variable", name_tok.start)
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
            raise self.error("a pair needs exactly two entries", name_tok.start)
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
            raise self.error(f"unknown command {word!r}", tok.start)
        return word, tok

    def pair_arg(self, ring):
        if self.at("name") and self.peek().value in self.session.pairs:
            tok = self.take()
            pair = self.session.pairs[tok.value]
            if pair[0].ring != ring:
                raise self.error(f"pair {tok.value!r} belongs to a different ring",
                                 tok.start)
            return pair
        start = self.i
        items = self.parse_paren_exprs(ring)
        if len(items) != 2:
            raise self.error("expected a pair of two expressions",
                             self.tokens[start].start)
        return tuple(items)

    def ring_for_ideal(self, ideal_name):
        return self.session.ideals[ideal_name].ring

    def parse_check(self, start_tok):
        word, tok = self.command_word()
        args = {}
        if word in ("member", "radical-member"):
            ring = self.current_ring(tok)
            args["element"] = self.parse_expr(ring)
            self.expect_name("in")
            args["ideal"] = self.ideal_arg()
            if ring != self.ring_for_ideal(args["ideal"]):
                raise self.error("element and ideal live in different rings", tok.start)
        elif word == "radical-equal":
            args["left"] = self.ideal_arg()
            args["right"] = self.ideal_arg()
            ring = self.ring_for_ideal(args["left"])
        elif word == "regular-sequence":
            ring = self.current_ring(tok)
            args["sequence"] = tuple(self.parse_paren_exprs(ring))
            if self.at("name", "mod"):
                self.take()
                args["mod"] = self.ideal_arg()
        elif word == "koszul-exact":
            ring = self.current_ring(tok)
            args["pair"] = self.pair_arg(ring)
        else:  # every other check starts with the ideal it runs on
            args["ideal"] = self.ideal_arg()
            ring = self.ring_for_ideal(args["ideal"])
            if word == "mod-square":
                self.expect_name("with")
                args["candidates"] = tuple(self.parse_paren_exprs(ring))
            elif word in ("ci", "stci"):
                self.expect_name("with")
                args["pair"] = self.pair_arg(ring)
            elif word == "ext-cyclic":
                self.expect_name("at")
                args["degree"] = self.expect("int").value
            elif word == "resolution":
                self.expect_name("length")
                args["length"] = self.expect("int").value
        end_tok = self.expect("op", ";")
        text = self.text[start_tok.start:end_tok.end]
        self.session.commands.append(
            Command(word, args, " ".join(text.split()), ring))

    # -- top level

    def run(self) -> Session:
        while self.peek() is not None:
            tok = self.take()
            if tok.kind != "name":
                raise self.error(f"expected a declaration, found {tok.value!r}",
                                 tok.start)
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
                raise self.error(
                    f"expected ring/ideal/poly/pair/check, found {tok.value!r}",
                    tok.start)
        return self.session


def parse_session(text: str, field_override=None) -> Session:
    return _Parser(text, field_override).run()
