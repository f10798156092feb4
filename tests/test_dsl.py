import pytest

from cicert.dsl import DslParseError, parse_session
from cicert.poly import GF, PAREN_DEPTH_LIMIT


def test_minimal_session():
    s = parse_session("ring R = QQ[x] order lex; ideal I = (x);")
    assert set(s.rings) == {"R"}
    assert set(s.ideals) == {"I"}
    assert s.rings["R"].order.kind == "lex"


def test_quotient_ring_declaration():
    s = parse_session("ring R = Fp(5)[x,y] / (x*y);")
    ring = s.rings["R"]
    assert ring.field == GF(5)
    assert [str(g) for g in ring.base_ideal] == ["x*y"]


def test_quotient_base_is_packed_in_the_declared_order():
    # the degree 4*10^9 passes the limit, which lex does not compare
    big = "x^2000000000*y^2000000000"
    s = parse_session(f"ring R = QQ[x,y] / ({big} - x) order lex;")
    assert [str(g) for g in s.rings["R"].base_ideal] == [f"{big} - x"]
    with pytest.raises(ValueError, match="2147483647"):
        parse_session(f"ring R = QQ[x,y] / ({big} - x);")


def test_default_order_is_grevlex():
    s = parse_session("ring R = QQ[x,y];")
    assert s.rings["R"].order.kind == "grevlex"


def test_ideal_before_ring_fails():
    with pytest.raises(DslParseError) as err:
        parse_session("ideal I = (x);")
    assert "no ring" in str(err.value)


def test_undeclared_name_fails():
    with pytest.raises(DslParseError) as err:
        parse_session("ring R = QQ[x]; ideal I = (q);")
    assert "unknown name 'q'" in str(err.value)


def test_duplicate_name_fails():
    with pytest.raises(DslParseError):
        parse_session("ring R = QQ[x]; poly R = x;")


def test_syntax_error_carries_position():
    with pytest.raises(DslParseError) as err:
        parse_session("ring R = QQ[x]\nideal I = (x);")
    assert err.value.line == 2


def test_poly_and_pair_declarations():
    s = parse_session("""
        ring R = QQ[x,y];
        poly f = x^2 - x;
        pair P = (f, y + f);
    """)
    f = s.polys["f"]
    assert str(f) == "x^2 - x"
    assert [str(p) for p in s.pairs["P"]] == ["x^2 - x", "x^2 - x + y"]


def test_commands_parse():
    s = parse_session("""
        ring R = QQ[x,y,z];
        ideal I = (x, y);
        ideal J = (x^2, y);
        poly f = x;
        check member f in I;
        check radical-member x^2 in J;
        check radical-equal I J;
        check dimension I;
        check regular-sequence (x, y) mod J;
        check koszul-exact (x, y);
        check lci I;
        check mod-square I with (x, y);
        check ci I with (x, y);
        check stci I with (x, y);
        check stci-search I;
        check regularize I;
        check ext-cyclic I at 2;
        check resolution I length 3;
    """)
    names = [c.name for c in s.commands]
    assert names == ["member", "radical-member", "radical-equal", "dimension",
                     "regular-sequence", "koszul-exact", "lci", "mod-square",
                     "ci", "stci", "stci-search", "regularize", "ext-cyclic",
                     "resolution"]
    assert s.commands[0].args["element"] == s.polys["f"]
    assert s.commands[4].args["mod"] == "J"


def test_unknown_command():
    with pytest.raises(DslParseError) as err:
        parse_session("ring R = QQ[x]; ideal I = (x); check frobnicate I;")
    assert "unknown command" in str(err.value)


def test_pair_by_name_in_check():
    s = parse_session("""
        ring R = QQ[x,y];
        ideal I = (x, y);
        pair P = (x, y);
        check stci I with P;
    """)
    assert [str(p) for p in s.commands[0].args["pair"]] == ["x", "y"]


def test_check_records_the_ring_it_runs_in():
    """The ideal's ring for a check on an ideal, the left ideal's for
    radical-equal, the current ring for sequences and pairs."""
    s = parse_session("""
        ring R = QQ[x,y];
        ideal I = (x, y);
        ring S = QQ[u,v];
        ideal K = (u);
        check dimension I;
        check resolution I length 2;
        check radical-equal I I;
        check regular-sequence (u, v) mod K;
        check koszul-exact (u, v);
    """)
    R, S = s.rings["R"], s.rings["S"]
    assert [c.ring for c in s.commands] == [R, R, R, S, S]


def test_pair_from_another_ring_fails():
    with pytest.raises(DslParseError, match="'P' belongs to a different ring"):
        parse_session("ring R = QQ[x,y]; pair P = (x, y);"
                      "ring S = QQ[u,v]; check koszul-exact P;")


def test_member_of_an_ideal_from_another_ring_fails():
    with pytest.raises(DslParseError, match="element and ideal live in different rings"):
        parse_session("ring R = QQ[x]; ideal I = (x); ring S = QQ[y]; check member y in I;")


def test_field_override():
    s = parse_session("ring R = QQ[x]; ideal I = (x + 6);",
                      field_override=GF(5))
    assert s.rings["R"].field == GF(5)
    assert str(s.ideals["I"].gens[0]) == "x + 1"


def test_comments_ignored():
    s = parse_session("# heading\nring R = QQ[x]; # tail\nideal I = (x);")
    assert set(s.ideals) == {"I"}


def test_print_parse_round_trip():
    """Canonical text of every declared object re-parses to itself."""
    s = parse_session("""
        ring R = QQ[x,y,z];
        poly f = (x + y)^2 - z/2;
        ideal I = (x*z - y^2, x^3 - y*z);
    """)
    ring = s.rings["R"]
    f = s.polys["f"]
    assert ring.parse(str(f)) == f
    for g in s.ideals["I"].gens:
        assert ring.parse(str(g)) == g


def test_expression_error_names_the_offending_token():
    with pytest.raises(DslParseError) as err:
        parse_session("ring R = QQ[x];\nideal I = (x + q);")
    assert (err.value.line, err.value.col) == (2, 16)


def test_member_element_ends_where_the_grammar_ends():
    """`in` is no stop word: a variable named `in` is an expression."""
    s = parse_session("ring R = QQ[in, x]; ideal I = (in); check member in*x in I;")
    ring = s.rings["R"]
    assert s.commands[0].args["element"] == ring.gen("in") * ring.gen("x")


MALFORMED = [
    "ring",
    "ring R",
    "ring R = ZZ[x];",
    "ring R = QQ[x,x];",
    "ring R = QQ[x,x] / (x);",
    "ring R = QQ[x] order weird;",
    "ring R = Fp(4)[x];",
    "ring R = Fp(0)[x];",
    "ring R = QQ[x]; ideal I = x;",
    "ring R = QQ[x]; ideal I = (x;",
    "ring R = QQ[x]; check member x;",
    "ring R = QQ[x]; check member x in;",
    "ring R = QQ[x]; ideal I = (x); check member in I;",
    "ring R = QQ[x]; ideal I = (x); check ext-cyclic I at x;",
    "ring R = QQ[x]; pair P = (x);",
    "ring R = QQ[x]; poly x = x;",
    "ring R = QQ[x]; ideal I = (x); check stci I with (x);",
    "ring R = QQ[x]; $",
    # deep nesting is a parse error, not a RecursionError
    pytest.param("ring R = QQ[x]; ideal I = (" + "(" * 300 + "x" + ")" * 300 + ");",
                 id="300-parentheses"),
    pytest.param("ring R = QQ[x] / (" + "(" * 300 + "x" + ")" * 300 + "); ideal I = (x);",
                 id="300-parentheses-in-a-quotient-base"),
    pytest.param("ring R = QQ[x]; ideal I = (" + "-" * 5000 + ");", id="5000-signs"),
]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_sessions_rejected(text):
    with pytest.raises(DslParseError):
        parse_session(text)


def test_nesting_up_to_the_limit_parses():
    deep = "(" * PAREN_DEPTH_LIMIT + "x" + ")" * PAREN_DEPTH_LIMIT
    s = parse_session(f"ring R = QQ[x]; ideal I = ({deep}, {'-' * 5000}x, {'-' * 4999}x);")
    assert [str(g) for g in s.ideals["I"].gens] == ["x", "x", "-x"]
    with pytest.raises(DslParseError, match=f"nested deeper than {PAREN_DEPTH_LIMIT}"):
        parse_session(f"ring R = QQ[x]; ideal I = (({deep}));")


def test_random_mutations_never_crash():
    """Single-character corruptions either still parse or raise the
    parser's own error, never anything else."""
    import random

    base = ("ring R = QQ[x,y,z] order grevlex;\n"
            "ideal I = (x^2 - x, x*y - y, x*z, y*z);\n"
            "poly c = x^2 - x;\n"
            "pair P = (c, (1 - x)*y + x*z);\n"
            "check stci I with P;\n"
            "ring S = Fp(7)[a,b] / (a^2 - b);\n"
            "ideal J = (a*b, b^2);\n"
            "check member a^3 - a*b in J;\n")
    rng = random.Random(99)
    alphabet = "abcxyz019+-*/^()[],;= \n#"
    for _ in range(300):
        pos = rng.randrange(len(base))
        action = rng.random()
        if action < 0.4:
            mutated = base[:pos] + rng.choice(alphabet) + base[pos + 1:]
        elif action < 0.7:
            mutated = base[:pos] + base[pos + 1:]
        else:
            mutated = base[:pos] + rng.choice(alphabet) + base[pos:]
        try:
            parse_session(mutated)
        except DslParseError:
            pass
