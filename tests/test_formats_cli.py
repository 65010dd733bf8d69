import argparse
import errno
import json
import os
import subprocess
import sys
from importlib import resources

import pytest

from liebialg.symkernel import PolyExpr, Q
from liebialg.liealg import LieAlgebra
from liebialg import families, formats, liealg, verify
from liebialg.formats import (ParseError, parse_algebra, parse_rmatrix,
                              parse_delta, parse_eqs, parse_map, parse_subs,
                              parse_ptable, parse_bindings_arg, load_table,
                              read_text)
from liebialg import cli

V = PolyExpr.var


def test_builtin_algebra_file(L):
    parsed = parse_algebra(load_table("schrodinger.alg"))
    assert parsed == L


def test_every_packaged_algebra_parses_to_its_shared_table():
    names = sorted(p.name for p in resources.files("liebialg.tables").iterdir()
                   if p.name.endswith(".alg"))
    assert names == ["galilei.alg", "gl2.alg", "oscillator.alg",
                     "schrodinger.alg", "twophoton.alg"]
    for name in names:
        parsed = parse_algebra(load_table(name))
        assert parsed == formats.table(name) and parsed.dim >= 4, name
    # negative control: the same generators with one bracket rescaled
    text = load_table("schrodinger.alg").replace("[K,P] = M", "[K,P] = 2*M")
    assert parse_algebra(text) != formats.table("schrodinger.alg")


def test_empty_generator_list_rejected():
    with pytest.raises(ParseError):
        parse_algebra("generators:\n")


def test_missing_header_rejected():
    with pytest.raises(ParseError):
        parse_algebra("[D,P] = -P\n")


def test_unknown_generator_rejected():
    with pytest.raises(ParseError) as err:
        parse_algebra("generators: D P\n[D,Q] = -P\n")
    assert "Q" in str(err.value)


def test_non_identifier_generator_rejected():
    with pytest.raises(ParseError) as err:
        parse_algebra("generators: X, Y\n[X,Y] = X\n")
    assert err.value.line == 1
    assert "'X,'" in str(err.value) and "identifier" in str(err.value)


def test_duplicate_generator_rejected():
    with pytest.raises(ParseError) as err:
        parse_algebra("generators: X X Y\n[X,Y] = X\n")
    assert err.value.line == 1
    assert "duplicate generator 'X'" in str(err.value)


def test_every_table_parses(L):
    """Each packaged table goes through the parser for its suffix; the
    tables are the only source of every algebra but the built-in one."""
    names = sorted(p.name for p in
                   resources.files("liebialg.tables").iterdir()
                   if p.is_file())
    texts = {name: load_table(name) for name in names}
    algebras = {name: parse_algebra(text)
                for name, text in texts.items() if name.endswith(".alg")}
    assert {"schrodinger.alg", "oscillator.alg", "gl2.alg", "galilei.alg",
            "twophoton.alg"} <= set(algebras)
    for name, text in texts.items():
        kind = name.rsplit(".", 1)[-1]
        if kind == "alg":
            continue
        elif kind == "rmat":
            parse_rmatrix(text, L)
        elif kind == "delta":
            # target families are self-contained: they embed their algebra
            parse_delta(text, None if "generators:" in text else L)
        elif kind == "eqs":
            parse_eqs(text)
        elif kind == "subs":
            parse_subs(text)
        elif kind == "ptable":
            parse_ptable(text)
        elif kind == "map":
            parse_map(text, algebras["twophoton.alg"]
                      if name == "twophoton_iso.map" else L)
        else:
            pytest.fail(f"no parser for table {name}")


def test_algebra_invertible_header_rejected():
    """Brackets have numeric coefficients, so an algebra file takes no
    'invertible:' header: it is a malformed bracket line."""
    with pytest.raises(ParseError) as err:
        parse_algebra("generators: X Y\ninvertible: X Q Z\n[X,Y] = Y\n")
    assert err.value.line == 2
    assert err.value.message == "expected a bracket line '[X,Y] = ...'"


def test_duplicate_bracket_rejected():
    with pytest.raises(ParseError) as err:
        parse_algebra("generators: D P\n[D,P] = -P\n[P,D] = -P\n")
    assert "duplicate" in str(err.value)


def test_jacobi_failure_reports_triple():
    text = load_table("schrodinger.alg").replace("[D,P] = -P", "[D,P] = P")
    with pytest.raises(ParseError) as err:
        parse_algebra(text)
    assert "Jacobi" in str(err.value)
    assert "D" in str(err.value)


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_algebra("generators: D P\n[D,P] = -P +\n")
    assert err.value.line == 2


def test_rmatrix_parse_general(L):
    r = parse_rmatrix(load_table("general.rmat"), L)
    slots = ("a1 D P", "a2 D H", "a3 P M", "a4 H M", "a5 P H", "a6 P C",
             "b1 D K", "b2 D C", "b3 K M", "b4 C M", "b5 K C", "b6 K H",
             "c1 D M", "c2 P K", "c3 H C")
    assert len(r.terms) == len(slots) == len(families.family("general").params)
    for slot in slots:
        p, x, y = slot.split()
        assert r.signed_coeff((x, y)) == V(p)


def test_rmatrix_bare_and_signed_wedges(L):
    r = parse_rmatrix("P^K\n-D^M\n", L)
    want = PolyExpr.const(1)
    assert r.signed_coeff(("P", "K")) == want
    assert r.signed_coeff(("D", "M")) == -want


def test_rmatrix_invertible_header(L):
    r = parse_rmatrix(load_table("h_primitive_standard.rmat"), L)
    coeff = r.signed_coeff(("P", "H"))
    assert coeff == -V("a2") * V("a3") * V("c2") ** -1


def test_rmatrix_rejects_unknown_generator(L):
    with pytest.raises(ParseError):
        parse_rmatrix("X^Y\n", L)


def test_delta_self_contained():
    delta = parse_delta(load_table("oscillator_target.delta"))
    assert delta.algebra.names == ("N", "Ap", "Am", "M")
    assert delta.row("M").is_zero()
    assert delta.row("N").signed_coeff(("N", "Ap")) == V("ap")


def test_delta_with_explicit_algebra(L):
    delta = parse_delta(load_table("cocommutators_general.delta"), L)
    assert delta.row("M").is_zero()
    assert delta.row("D").signed_coeff(("D", "P")) == -V("a1")


def test_eqs_and_subs_parse():
    eqs = parse_eqs(load_table("constraints_c.eqs"))
    assert len(eqs) == 3
    assert eqs[0] == 4 * V("a2") * V("b2") + V("c3") ** 2
    subs = parse_subs(load_table("identification.subs"))
    assert subs["alpha2"] == -2 * V("a2")
    assert subs["alpha13"] == -V("c1") - V("c2")


def test_map_parse(L):
    m = parse_map(load_table("oscillator_embedding.map"), L)
    assert m["N"] == L.gen("D").scale(-1)
    assert m["M"] == L.gen("M")
    # the 'onto: twophoton.alg' header: the shared table reads the map on
    # the shared two-photon algebra, and a fresh parse of that algebra
    # still reads it
    h6 = formats.table("twophoton.alg")
    m2 = formats.table("twophoton_iso.map")
    assert m2["D"] == h6.element({"N": -1, "M": Q(-1, 2)})
    assert all(e.algebra is h6 for e in m2.values())
    fresh = parse_algebra(load_table("twophoton.alg"))
    assert parse_map(load_table("twophoton_iso.map"), fresh) == dict(m2)


def test_ptable_round_trip():
    from liebialg.sklyanin import sklyanin_table
    T = sklyanin_table(families.load_rmatrix("general"))
    assert parse_ptable(load_table("poisson_general.ptable")) == T
    # a table is equal to no other kind of value
    assert T != 5 and T != T.terms


def test_table_is_parsed_once_and_read_only(L):
    """``formats.table`` hands every caller one read-only value per table."""
    names = ("schrodinger.alg", "general.rmat", "cocycle_general.delta",
             "oscillator_target.delta", "constraints_a.eqs",
             "identification.subs", "basis_flip.map", "poisson_general.ptable")
    for name in names:
        assert formats.table(name) is formats.table(name)
    alg = formats.table("schrodinger.alg")
    assert alg is L
    with pytest.raises(AttributeError):
        alg.names = ("x",)
    r = formats.table("general.rmat")
    assert r == parse_rmatrix(load_table("general.rmat"), L)
    with pytest.raises(TypeError):
        r.terms[(0, 1)] = V("a1")
    with pytest.raises(AttributeError):
        r.terms = {}
    # a .delta table is read on L unless it carries its own generators
    delta = formats.table("cocycle_general.delta")
    target = formats.table("oscillator_target.delta")
    assert delta.algebra is L
    assert target.algebra.names == ("N", "Ap", "Am", "M")
    with pytest.raises(AttributeError):
        delta.rows = ()
    with pytest.raises(AttributeError):
        del delta.algebra
    with pytest.raises(TypeError):
        delta.rows[0] = delta.rows[1]
    eqs = formats.table("constraints_a.eqs")
    assert type(eqs) is tuple and list(eqs) == parse_eqs(
        load_table("constraints_a.eqs"))
    subs = formats.table("identification.subs")
    with pytest.raises(TypeError):
        subs["alpha2"] = V("a1")
    images = formats.table("basis_flip.map")
    with pytest.raises(TypeError):
        images["D"] = L.gen("M")
    with pytest.raises(AttributeError):
        images["D"].terms = {}
    with pytest.raises(AttributeError):
        del images["D"].algebra
    T = formats.table("poisson_general.ptable")
    with pytest.raises(TypeError):
        T.terms[("d", "h")] = V("a1")
    with pytest.raises(AttributeError):
        T.terms = {}
    with pytest.raises(AttributeError):
        del T.terms


def test_family_is_built_once(general_family):
    assert families.family("general") is families.family("general")
    assert families.family("general") == general_family
    assert general_family.params == tuple(
        f"{x}{k}" for x in "ab" for k in range(1, 7)) + ("c1", "c2", "c3")


def test_ptable_duplicate_rejected():
    with pytest.raises(ParseError):
        parse_ptable("{d,h} = 0\n{h,d} = 0\n")


def test_bindings_arg():
    out = parse_bindings_arg("c1=1/2,c2=0")
    assert out["c1"] == PolyExpr.const(Q(1, 2))
    assert out["c2"].is_zero()
    with pytest.raises(ParseError):
        parse_bindings_arg("c1")


def test_division_by_zero_names_the_line(L):
    with pytest.raises(ParseError) as err:
        parse_bindings_arg("a1=1/0")
    assert err.value.message == "division by zero" and err.value.line == 1
    with pytest.raises(ParseError) as err:
        parse_rmatrix("c1 * D^M\nc2 * P^K / (a2 - a2)\n", L)
    assert err.value.message == "division by zero" and err.value.line == 2


def _parse_as(kind, text, L):
    """Parse ``text`` as a file of ``kind`` (``bind``: a binding list)."""
    return {"rmat": lambda: parse_rmatrix(text, L),
            "delta": lambda: parse_delta(text, L),
            "target": lambda: parse_delta(text),
            "eqs": lambda: parse_eqs(text),
            "subs": lambda: parse_subs(text),
            "ptable": lambda: parse_ptable(text),
            "map": lambda: parse_map(text, L),
            "alg": lambda: parse_algebra(text),
            "bind": lambda: parse_bindings_arg(text)}[kind]()


_ALG = "generators: D P M\n"
_MULTIPLY = "cannot multiply two wedge terms"
_DIVIDE = "cannot divide by a wedge term"
_POWER = "cannot raise a wedge term to a power"
_MIXED = "cannot add a scalar and a wedge term"
_BASE = "wedge base must be a single generator"
_NOT_LINEAR = "expected a linear combination, found a wedge"
# a self-contained cocommutator table whose bad bracket is on line 6
_TARGET_LINE_6 = ("# target\ninvertible: q\ndelta(A) = q*A^B\n\n"
                  "generators: A B\n[A,B] = A + C\n")

# (kind, text, line, message) of inputs rejected with a ParseError; a wedge
# that cancels (D^P - D^P) is still a wedge
MALFORMED = [
    ("rmat", "c1*D^P\nD^P * D^M\n", 2, _MULTIPLY),
    ("rmat", "(D^P - D^P) * D^M", 1, _MULTIPLY),
    ("rmat", "0*D^P*D^M", 1, _MULTIPLY),
    ("rmat", "D^P / D^M", 1, _DIVIDE),
    ("rmat", "1 / D^P", 1, _DIVIDE),
    ("rmat", "(D^P)^2", 1, _POWER),
    ("rmat", "(D^P - D^P)^-1", 1, _POWER),
    ("rmat", "c1 + D^P", 1, _MIXED),
    ("rmat", "D^P - c1", 1, _MIXED),
    ("rmat", "(D^P - D^P) + 1", 1, _MIXED),
    ("delta", "delta(D) = 0*D^P + c1", 1, _MIXED),
    ("rmat", "c1", 1, "expected wedge terms"),
    ("delta", "delta(D) = c1*c2", 1, "expected wedge terms"),
    ("eqs", "a1\na1*D^P", 2, "wedge term in an equation file"),
    ("eqs", "D^P - D^P", 1, "wedge term in an equation file"),
    ("subs", "x -> D^P", 1, "wedge term in a substitution"),
    ("subs", "x -> D^P - D^P", 1, "wedge term in a substitution"),
    ("ptable", "{d,h} = D^P", 1, "wedge term in a Poisson table"),
    ("ptable", "{d,h} = D^P - D^P", 1, "wedge term in a Poisson table"),
    ("map", "N -> D^P", 1, _NOT_LINEAR),
    ("map", "N -> D^P - D^P", 1, _NOT_LINEAR),
    ("map", "# header\nonto: nosuch.alg\nN -> D", 2,
     "'onto:' names no packaged .alg table: nosuch.alg"),
    ("map", "onto: general.rmat\nN -> D", 1,
     "'onto:' names no packaged .alg table: general.rmat"),
    ("map", "N -> M\nonto: twophoton.alg", 2,
     "the map is onto twophoton.alg, not onto the algebra it is read on"),
    ("map", "D -> D\nD -> P", 2, "duplicate line for 'D'"),
    ("map", "N -> D\n# comment\nM -> M\nN -> -D", 4,
     "duplicate line for 'N'"),
    ("subs", "a -> 1\na -> 2", 2, "duplicate line for 'a'"),
    ("subs", "a -> 1\nb -> 2\na -> D^P", 3, "duplicate line for 'a'"),
    ("alg", _ALG + "[D,P] = D^M", 2, _NOT_LINEAR),
    ("alg", _ALG + "[D,P] = D^M - D^M", 2, _NOT_LINEAR),
    ("bind", "c1=D^P", 1, "wedge term in a binding"),
    ("bind", "c1=D^P - D^P", 1, "wedge term in a binding"),
    ("rmat", "X^P", 1, "unknown generator 'X'"),
    ("rmat", "X^Y - X^Y", 1, "unknown generator 'X'"),
    ("rmat", "D^P + X^Y + P^Z", 1, "unknown generator 'X'"),
    ("delta", "delta(X) = D^P", 1, "unknown generator 'X'"),
    ("delta", "delta(D) = D^Q", 1, "unknown generator 'Q'"),
    ("rmat", "(c1*D)^P", 1, _BASE),
    ("rmat", "2^P", 1, _BASE),
    ("rmat", "(D^P)^M", 1, _BASE),
    ("rmat", "(D + P)^M", 1, _BASE),
    # a power or quotient the kernel cannot form names its line
    ("rmat", "D^P\nc2^-1*P^K", 2, "negative power of a non-unit"),
    ("rmat", "D^P\n1/c2*P^K", 2,
     "c2 does not divide 1 exactly (negative power of 'c2')"),
    # digits and names are ASCII only
    ("rmat", "c1\u00b2*D^M", 1, "unexpected character '\u00b2'"),
    ("bind", "c1=2\u00b2", 1, "unexpected character '\u00b2'"),
    # and so are generator and binding names
    ("alg", "generators: D\u00e9 X\n", 1,
     "generator name 'D\u00e9' is not an identifier"),
    ("bind", "\u00e9=1", 1, "binding name '\u00e9' is not an identifier"),
    # an embedded algebra names the lines of its file
    ("target", _TARGET_LINE_6, 6,
     "not a linear combination of generators: C + A"),
    # a Poisson bracket is of two different coordinates
    ("ptable", "{d,q} = 1", 1, "unknown coordinate 'q'"),
    ("ptable", "{d,h} = 1\n{d,d} = 0", 2, "diagonal bracket"),
]


@pytest.mark.parametrize("kind,text,line,message", MALFORMED,
                         ids=[f"{k}:{t}".replace("\n", "|")
                              for k, t, _, _ in MALFORMED])
def test_malformed_input_names_its_line(L, kind, text, line, message):
    with pytest.raises(ParseError) as err:
        _parse_as(kind, text, L)
    assert (err.value.line, err.value.message) == (line, message)


def test_wedge_coefficient_that_does_not_divide(L):
    """Dividing a wedge term divides its coefficient; the kernel's
    UnitError names the whole term, and the ParseError it becomes names
    the line."""
    with pytest.raises(ParseError) as err:
        parse_rmatrix("c1*D^P/c2\n", L)
    assert (err.value.line, err.value.message) == (
        1, "c2 does not divide D^P*c1 exactly (negative power of 'c2')")


def test_wedge_terms_become_wedge_coefficients(L):
    """No wedge symbol leaves the parser: each coefficient holds only scalar
    symbols."""
    r = parse_rmatrix("invertible: c2\n"
                      "(c1 + c2)*(D^P - P^K)/2 + c1/c2*D^M - c1*D^M\n"
                      "P^D + c3*D^D\n"
                      "c1*H^M + c2*C^M\n", L)
    c1, c2 = V("c1"), V("c2")
    assert r.signed_coeff(("D", "P")) == (c1 + c2) / 2 - 1
    assert r.signed_coeff(("K", "P")) == (c1 + c2) / 2
    assert r.signed_coeff(("D", "M")) == c1 / c2 - c1
    assert r.signed_coeff(("H", "M")) == c1
    assert r.signed_coeff(("C", "M")) == c2
    assert len(r.terms) == 5


_DEEP = "(" * 3000 + "c1" + ")" * 3000


def test_deep_nesting_is_a_parse_error(tmp_path, capsys):
    rmat = tmp_path / "deep.rmat"
    rmat.write_text(_DEEP + "*D^P\n")
    alg = tmp_path / "deep.alg"
    alg.write_text("[D,P] = " + _DEEP + "\ngenerators: D P\n")
    for argv in (("delta", "--r", str(rmat)),
                 ("cocycle-solve", "--algebra", str(alg)),
                 ("classify", "--r", "d_primitive.rmat",
                  "--at", "c2=" + "-" * 3000 + "1")):
        assert run_cli(capsys, *argv) == (
            1, f"command: {argv[0]}\nerror: expression nested too deeply "
               "(line 1)\n")


@pytest.mark.parametrize("argv,rmat,error", [
    (["classify", "--algebra", "galilei.alg"], "x*K^H\n",
     "need a unique invariant Lambda^3 direction"),
    (["delta"], "D^P\nc2^-1*P^K\n", "negative power of a non-unit (line 2)"),
    (["delta"], "D^P\n1/c2*P^K\n",
     "c2 does not divide 1 exactly (negative power of 'c2') (line 2)"),
    (["delta"], "c1\u00b2*D^M\n",
     "unexpected character '\u00b2' (line 1, column 3)"),
    (["classify", "--at", "c1=2\u00b2"], None,
     "unexpected character '\u00b2' (line 1, column 5)"),
    (["classify", "--at", "\u00e9=1"], None,
     "binding name '\u00e9' is not an identifier (line 1)"),
    (["sklyanin"], "c*D^M + c1*D^P\n", "the r-matrix parameter c is named "
     "like a group coordinate symbol (E, h, p, k, c, m)"),
    (["sklyanin"], "E*D^M + c1*D^P\n", "the r-matrix parameter E is named "
     "like a group coordinate symbol (E, h, p, k, c, m)"),
    (["delta"], "D^P\n    c3*C^.5\n",
     "unexpected character '.' (line 2, column 10)"),
    (["classify", "--at", "c2=1, c1 = 2\u00b2"], None,
     "unexpected character '\u00b2' (line 1, column 13)"),
    (["classify", "--at", "c2=1,c1=2 3"], None,
     "trailing input (line 1, column 11)"),
    (["classify", "--at", "c1"], None,
     "bad binding 'c1', expected name=value (line 1, column 1)"),
    (["classify", "--at", "c1=1,,c2=0"], None,
     "bad binding '', expected name=value (line 1, column 6)"),
])
def test_input_error_is_one_line(tmp_path, capsys, argv, rmat, error):
    """An r-matrix on disk (or d_primitive.rmat where ``rmat`` is None) that
    the classical layer or the parser rejects is one 'error:' line and exit
    code 1, not a traceback.  No report line precedes the error: a
    malformed --at is rejected before the family is built."""
    path = tmp_path / "input.rmat"
    if rmat is not None:
        path.write_text(rmat, encoding="utf-8")
    assert run_cli(capsys, *argv, "--r", str(path) if rmat is not None
                   else "d_primitive.rmat") == (
        1, f"command: {argv[0]}\nerror: {error}\n")


@pytest.mark.parametrize("argv,content,error", [
    (["embed", "--sub", "D,H,C,M", "--map", "gl2_embedding.map", "--target"],
     _TARGET_LINE_6.encode(),
     "not a linear combination of generators: C + A (line 6)"),
    (["cocycle-solve", "--algebra"], "generators: D\u00e9 X\n".encode(),
     "generator name 'D\u00e9' is not an identifier (line 1)"),
    (["delta", "--r"], b"c1*D^P\nc\xe9*D^M\n",
     "byte 0xe9 is not UTF-8 (line 2, column 2)"),
])
def test_input_file_error_names_its_line(tmp_path, capsys, argv, content,
                                         error):
    """A file on disk that is rejected, for a bracket of its embedded
    algebra, a generator name or a byte that is not UTF-8, is one 'error:'
    line naming the line of the file, and exit code 1."""
    path = tmp_path / "input"
    path.write_bytes(content)
    assert run_cli(capsys, *argv, str(path)) == (
        1, f"command: {argv[0]}\nerror: {error}\n")


@pytest.mark.parametrize("text,col", [("a + 0.5", 6), ("   a + 0.5", 9),
                                      ("\ta + 0.5", 7),
                                      ("  a # c\n", None)])
def test_token_columns_count_from_the_start_of_the_line(text, col):
    """A tokenizer error names the column in the raw line, indentation
    included, as ``read_text`` names the column of a bad byte; a line that
    is only a comment after its value parses."""
    if col is None:
        assert parse_eqs(text) == [PolyExpr.var("a")]
        return
    with pytest.raises(ParseError) as err:
        parse_eqs(text)
    assert (err.value.line, err.value.col) == (1, col)
    assert err.value.message == "unexpected character '.'"


def test_read_text_names_the_line_and_column_of_a_bad_byte(tmp_path):
    """Lines are counted as the parser counts them (a lone CR ends one
    too) and the column in characters; text that is UTF-8 reads as it
    is."""
    path = tmp_path / "input"
    for data, line, col, byte in ((b"a\n\xff", 2, 1, "0xff"),
                                  (b"D^P\n\xc3\xa9x\xe9\n", 2, 3, "0xe9"),
                                  (b"\xe9", 1, 1, "0xe9"),
                                  (b"D^P\rc\xff", 2, 2, "0xff")):
        path.write_bytes(data)
        with pytest.raises(ParseError) as err:
            read_text(path)
        assert (err.value.line, err.value.col) == (line, col)
        assert err.value.message == f"byte {byte} is not UTF-8"
    path.write_bytes("c\u00e9 \u00b2\r\nD^P".encode())
    assert read_text(path) == "c\u00e9 \u00b2\r\nD^P"


def test_repeated_delta_row_is_rejected(L, tmp_path, capsys):
    """A second 'delta(X) = ...' line is an input error naming that line,
    not a row added to the first, in a self-contained file as in one read
    on a given algebra."""
    with pytest.raises(ParseError) as err:
        parse_delta("delta(D) = D^P\ndelta(P) = 0\ndelta(D) = P^M\n", L)
    assert err.value.line == 3
    assert str(err.value) == "duplicate row for delta(D) (line 3)"
    target = tmp_path / "repeated.delta"
    target.write_text(load_table("oscillator_target.delta")
                      + "delta(N) = ap*N^Ap\n")
    assert run_cli(capsys, "embed", "--sub", "D,P,K,M", "--target",
                   str(target), "--map", "oscillator_embedding.map") == (
        1, "command: embed\nerror: duplicate row for delta(N) (line "
           f"{len(target.read_text().splitlines())})\n")


@pytest.mark.parametrize("sub,message", [
    ("D,Q", "--sub: unknown or repeated Q"),
    ("D,D,K,M", "--sub: unknown or repeated D"),
    ("Q,P,K,P", "--sub: unknown or repeated Q, P"),
    (",", "--sub: empty generator name"),
    ("D,,K,M", "--sub: empty generator name"),
])
def test_embed_rejects_unknown_or_repeated_sub_names(capsys, sub, message):
    code, out = run_cli(capsys, "embed", "--sub", sub, "--target",
                        "oscillator_target.delta",
                        "--map", "oscillator_embedding.map")
    assert (code, out) == (1, f"command: embed\nerror: {message}\n")


_OSCILLATOR_MAP = load_table("oscillator_embedding.map")


@pytest.mark.parametrize("sub,target,text,message", [
    ("D", "oscillator_target.delta", _OSCILLATOR_MAP,
     "the image of Ap leaves the subalgebra D"),
    ("D,P,K,M", "oscillator_target.delta",
     "N -> -D\nAp -> P\nAm -> P\nM -> M\n",
     "the map is not a Lie algebra homomorphism at (N, Am)"),
    ("D,H,C,M", "gl2_target.delta", "Jp -> H\nJm -> -C\nI -> M\n",
     "the map has no line for J3"),
    ("D,P,K,M", "oscillator_target.delta", _OSCILLATOR_MAP + "X -> D\n",
     "the map has a line for X, not a generator of the target algebra"),
    ("H,C", "oscillator_target.delta", _OSCILLATOR_MAP,
     "the span of H, C is not a subalgebra: [C,H] = (-1)*D"),
], ids=["image-outside-sub", "not-a-homomorphism", "missing-line",
        "extra-line", "sub-not-closed"])
def test_embed_rejects_a_map_that_is_no_embedding_into_sub(
        tmp_path, capsys, sub, target, text, message):
    """``--sub`` must span a subalgebra, and the map must send every
    target generator, and only those, into that span, preserving the
    brackets; otherwise one error line names the bracket that leaves the
    span, the generator or the first failing pair."""
    path = tmp_path / "input.map"
    path.write_text(text)
    assert run_cli(capsys, "embed", "--sub", sub, "--target", target,
                   "--map", str(path)) == (
        1, f"command: embed\nerror: {message}\n")


def test_embed_rejects_parameters_shared_with_the_target(capsys):
    """A family parameter that the target family also names would be read
    as the target's parameter: one error line names every shared one."""
    assert run_cli(capsys, "embed", "--sub", "D,H,C,M", "--target",
                   "gl2_target.delta", "--map", "gl2_embedding.map",
                   "--r", "gl2_family.rmat") == (
        1, "command: embed\nerror: the target shares the parameters "
           "a, am, ap, b, bm, bp with the family\n")


def test_sklyanin_takes_r_or_family_not_both(capsys):
    code = cli.main(["sklyanin", "--r", "general.rmat",
                     "--family", "d-primitive"])
    assert code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert cli.main(["sklyanin"]) == 2
    assert "one of the arguments --r --family is required" in \
        capsys.readouterr().err


@pytest.mark.parametrize("rmat,point,violated", [
    ("general.rmat", "c1=1", "a5*b1 - a4*c3 - 2*a2*c1 - a1*b6"),
    ("p_primitive.rmat", "c1=1", "a5*c1 + a1*a4"),
])
def test_classify_partial_point_off_the_variety_fails(capsys, rmat, point,
                                                      violated):
    """A point that leaves a constraint nonzero, though not constant, is
    off the variety: a failed check, not a traceback."""
    code, out = run_cli(capsys, "classify", "--r", rmat, "--at", point)
    assert code == 1
    assert out.endswith(
        f"[FAIL] point-satisfies-constraints: {violated}\n")


def test_classify_binding_of_no_parameter_is_an_input_error(capsys):
    code, out = run_cli(capsys, "classify", "--r", "general.rmat",
                        "--at", "c9=1")
    assert code == 1
    assert out.endswith("error: no parameter 'c9' in the family\n")
    code, out = run_cli(capsys, "classify", "--r", "d_primitive.rmat",
                        "--at", "c1=1")
    assert code == 0
    assert "[ok] point-classified: standard" in out


def test_every_packaged_input_table_is_a_shared_value():
    """The CLI reads a packaged .alg, .rmat or .map table through
    ``formats.table``, so each must parse there: on the built-in algebra,
    or a map on the algebra its 'onto:' header names."""
    for p in resources.files("liebialg.tables").iterdir():
        name, kind = p.name, p.name.rsplit(".", 1)[-1]
        if kind == "alg":
            assert cli._input(name, kind) is formats.table(name)
        elif kind in ("rmat", "map"):
            value = formats.table(name)
            on = (next(iter(value.values())) if kind == "map"
                  else value).algebra
            assert cli._input(name, kind, on) is value, name


def test_repeated_map_line_exits_1(tmp_path, capsys):
    """A map that gives a generator a second line is an input error naming
    that line, not a map that keeps the last one."""
    dup = tmp_path / "duplicate.map"
    dup.write_text("N -> -D\nAp -> P\nAm -> K\nAp -> K\nM -> M\n")
    assert run_cli(capsys, "embed", "--sub", "D,P,K,M", "--target",
                   "oscillator_target.delta", "--map", str(dup)) == (
        1, "command: embed\nerror: duplicate line for 'Ap' (line 4)\n")


def test_binding_rejects_a_wedge(capsys):
    code, out = run_cli(capsys, "classify", "--r", "d_primitive.rmat",
                        "--at", "c1=D^P")
    assert code == 1
    assert out == ("command: classify\n"
                   "error: wedge term in a binding (line 1)\n")


def test_binding_zero_into_a_negative_power_is_not_a_unit(capsys):
    """h_primitive_standard.rmat holds c2^-1: binding c2 = 0 is refused by
    the kernel's unit check, as one error line; c2 = 2 is a point of the
    standard family."""
    code, out = run_cli(capsys, "classify", "--r", "h_primitive_standard.rmat",
                        "--at", "c2=0")
    assert code == 1
    assert out.endswith("\nerror: 'c2' occurs with negative power; "
                        "binding 0 is not a unit\n")
    assert out.count("error:") == 1
    code, out = run_cli(capsys, "classify", "--r", "h_primitive_standard.rmat",
                        "--at", "c2=2")
    assert code == 0
    assert "classification at point: standard\n" in out


def test_binding_rejects_a_name_that_is_not_an_identifier(capsys):
    for arg, name in (("=1", "''"), ("c1=0, 2x=1", "'2x'")):
        with pytest.raises(ParseError) as err:
            parse_bindings_arg(arg)
        assert err.value.message == \
            f"binding name {name} is not an identifier"
    code, out = run_cli(capsys, "classify", "--r", "d_primitive.rmat",
                        "--at", "=1")
    assert code == 1
    assert "error: binding name '' is not an identifier (line 1)" in out


def test_binding_rejects_a_repeated_name(capsys):
    with pytest.raises(ParseError) as err:
        parse_bindings_arg("c1=1, c2=0, c1 = 2")
    assert err.value.message == "duplicate binding for 'c1'"
    code, out = run_cli(capsys, "classify", "--r", "d_primitive.rmat",
                        "--at", "c1=1,c1=2")
    assert code == 1
    assert "error: duplicate binding for 'c1' (line 1)" in out


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_schouten(capsys):
    code, out = run_cli(capsys, "schouten", "--r", "general.rmat")
    assert code == 0
    assert "coefficient on K^M^P" in out
    assert "-c2^2" in out


def test_cli_classify_nonstandard(capsys):
    code, out = run_cli(capsys, "classify", "--r", "d_primitive.rmat",
                        "--at", "c2=0")
    assert code == 0
    assert "non-standard" in out


def test_cli_classify_standard(capsys):
    code, out = run_cli(capsys, "classify", "--r", "d_primitive.rmat",
                        "--at", "c1=0,c2=1")
    assert code == 0
    assert "classification at point: standard" in out


def test_cli_delta(capsys):
    code, out = run_cli(capsys, "delta", "--r", "d_primitive.rmat")
    assert code == 0
    assert "delta(P) = (-c2 + c1)*P^M" in out


def test_cli_cocycle_solve(capsys):
    code, out = run_cli(capsys, "cocycle-solve")
    assert code == 0
    assert "kernel dimension: 15" in out


def test_cli_cocycle_solve_rejects_invertible_header(capsys, tmp_path):
    path = tmp_path / "inv.alg"
    path.write_text("generators: X Y\ninvertible: X Q Z\n[X,Y] = Y\n")
    code, out = run_cli(capsys, "cocycle-solve", "--algebra", str(path))
    assert code == 1
    assert "expected a bracket line '[X,Y] = ...' (line 2)" in out


def test_cli_cojacobi_with_r(capsys):
    code, out = run_cli(capsys, "cojacobi", "--r", "general.rmat")
    assert code == 0
    assert "span dimension 19" in out


def test_cli_embed(capsys):
    code, out = run_cli(capsys, "embed", "--sub", "D,P,K,M",
                        "--target", "oscillator_target.delta",
                        "--map", "oscillator_embedding.map")
    assert code == 0
    assert "a1 -> -ap" in out
    assert "am*ap" in out


def test_cli_sklyanin_family(capsys):
    outs = {}
    for family, spec in sorted(families.FAMILIES.items()):
        code, outs[family] = run_cli(capsys, "sklyanin", "--family", family)
        assert code == 0, family
        assert "[ok] vanishes-at-unit" in outs[family]
        assert ("[ok] poisson-jacobi" in outs[family]) == bool(spec.charts)
    assert "{h,m} = 2*c1*h" in outs["d-primitive"]


def test_family_registry_is_read_only(capsys):
    """A caller cannot change a chart or a registry entry that every later
    command in the process reads."""
    with pytest.raises(TypeError):
        families.FAMILIES["p-primitive"].charts[0]["c1"] = 0
    with pytest.raises(TypeError):
        families.FAMILIES["p-primitive"] = families.FAMILIES["gl2"]
    with pytest.raises(TypeError):
        families.EMBEDDINGS["gl2"] = families.EMBEDDINGS["galilei"]
    code, out = run_cli(capsys, "sklyanin", "--family", "p-primitive")
    assert code == 0
    assert "[ok] poisson-jacobi: 3 chart(s)" in out


def test_cli_hopf_check(capsys):
    code, out = run_cli(capsys, "hopf-check", "--case", "ucc", "--order", "2")
    assert code == 0
    assert "[ok] universal-r-qybe" in out
    names = [line.split()[1].rstrip(":") for line in out.splitlines()
             if line.startswith("[ok] ")]
    assert names == ["diamond", "coproduct-homomorphism", "coassociativity",
                     "counit", "antipode", "first-order-cocommutator",
                     "universal-r-intertwining", "universal-r-triangularity",
                     "universal-r-qybe"]


def test_cli_order_defaults_to_4(capsys):
    code, out = run_cli(capsys, "hopf-check", "--case", "ucc")
    assert code == 0
    assert "at order 4" in out


def test_verify_rejects_a_negative_order_before_any_criterion(
        capsys, monkeypatch, tmp_path):
    """``verify --order -1`` is one input error, and no criterion runs."""
    def criterion(order):
        raise AssertionError("a criterion ran")
    monkeypatch.setattr(verify, "CRITERIA",
                        tuple((label, criterion) for label, _ in
                              verify.CRITERIA))
    path = tmp_path / "report.json"
    assert run_cli(capsys, "verify", "--order", "-1", "--json",
                   str(path)) == (
        1, "command: verify\nerror: order must be >= 0\n")
    assert json.loads(path.read_text())["checks"] == [
        {"name": "input-accepted", "ok": False,
         "payload": "order must be >= 0"}]


def test_cli_commands_share_the_builtin_ad_tables(capsys, monkeypatch):
    """The built-in algebra is one instance per process, so a second
    command reads the ad tables the first one built."""
    argv = ("classify", "--r", "d_primitive.rmat", "--at", "c2=0")
    first = run_cli(capsys, *argv)
    builds = []
    real = LieAlgebra._build_ad_table

    def counting(self, *args):
        builds.append(args)
        return real(self, *args)

    monkeypatch.setattr(LieAlgebra, "_build_ad_table", counting)
    assert run_cli(capsys, *argv) == first
    assert first[0] == 0 and builds == []


def test_cli_tampered_algebra_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text(load_table("schrodinger.alg").replace(
        "[D,P] = -P", "[D,P] = P"))
    code, out = run_cli(capsys, "cojacobi", "--algebra", str(bad))
    assert code == 1
    assert "Jacobi" in out


def test_cli_duplicate_generator_exits_1(tmp_path, capsys):
    bad = tmp_path / "dup.alg"
    bad.write_text("generators: X X Y\n")
    code, out = run_cli(capsys, "cocycle-solve", "--algebra", str(bad))
    assert code == 1
    assert "error: duplicate generator 'X' (line 1)" in out


def test_cli_division_by_zero_exits_1(capsys):
    code, out = run_cli(capsys, "classify", "--r", "general.rmat",
                        "--at", "a1=1/0")
    assert code == 1
    assert "error: division by zero (line 1" in out
    assert "single-term" not in out


def test_cli_unknown_command_exits_2(capsys):
    assert cli.main(["frobnicate"]) == 2


def test_cli_missing_input_exits_1(tmp_path, capsys):
    for path in ("/nonexistent.rmat", str(tmp_path)):
        code, out = run_cli(capsys, "schouten", "--r", path)
        assert code == 1
        assert path in out


@pytest.mark.parametrize("name", ["", ".", "..", "../__init__.py",
                                  "../tables/general.rmat", "general.rmat/",
                                  "..\\__init__.py", "nosuch.rmat"])
def test_load_table_reads_only_files_in_tables(name):
    with pytest.raises(FileNotFoundError):
        load_table(name)


def test_every_packaged_table_loads_by_its_bare_name():
    tables = resources.files("liebialg.tables")
    names = [p.name for p in tables.iterdir() if p.is_file()]
    assert "general.rmat" in names
    for name in names:
        assert load_table(name) == tables.joinpath(name).read_text()


@pytest.mark.parametrize("argv", [
    ("delta", "--r", ""),
    ("delta", "--r", "../__init__.py"),
    ("classify", "--r", "../general.rmat"),
    ("embed", "--sub", "D,P,K,M", "--target", "oscillator_target.delta",
     "--map", "../oscillator_embedding.map"),
], ids=["empty", "outside-tables", "outside-tables-rmat",
        "outside-tables-map"])
def test_cli_names_outside_tables_exit_1(argv, tmp_path, monkeypatch,
                                         capsys):
    """An empty name or one that leaves ``tables/`` is no packaged table;
    the report names it and the exit code is 1."""
    monkeypatch.chdir(tmp_path)
    code, out = run_cli(capsys, *argv)
    assert (code, out) == (1, f"command: {argv[0]}\nerror: no such file or "
                              f"packaged table: {argv[-1]}\n")


def test_cli_deterministic_output(capsys):
    _, out1 = run_cli(capsys, "delta", "--r", "general.rmat")
    _, out2 = run_cli(capsys, "delta", "--r", "general.rmat")
    assert out1 == out2


def test_cli_json_mirror(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, _ = run_cli(capsys, "sklyanin", "--family", "d-primitive",
                      "--json", str(path))
    doc = json.loads(path.read_text())
    assert doc["ok"] is True and doc["exit_code"] == 0
    assert doc["command"] == "sklyanin"
    assert any(c["name"] == "poisson-jacobi" for c in doc["checks"])
    # deterministic mirror
    path2 = tmp_path / "report2.json"
    run_cli(capsys, "sklyanin", "--family", "d-primitive", "--json", str(path2))
    assert path.read_text() == path2.read_text()


def test_cli_hopf_check_json_is_deterministic(tmp_path, capsys):
    paths = [tmp_path / "uac1.json", tmp_path / "uac2.json"]
    for path in paths:
        code, _ = run_cli(capsys, "hopf-check", "--case", "uac", "--order", "3",
                          "--json", str(path))
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    doc = json.loads(paths[0].read_text())
    assert doc["command"] == "hopf-check" and doc["ok"] is True


def test_cli_json_to_an_unwritable_path_exits_1(tmp_path, capsys):
    """A report that cannot be written is an error on stderr and exit 1;
    the printed report is the same as without ``--json``."""
    argv = ("delta", "--r", "d_primitive.rmat")
    code, expected = run_cli(capsys, *argv)
    assert code == 0
    path = tmp_path / "missing" / "x.json"
    assert cli.main(list(argv) + ["--json", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == expected
    assert err == (f"error: cannot write {path}: "
                   f"{os.strerror(errno.ENOENT)}\n")
    assert not path.parent.exists()


@pytest.mark.parametrize("before", [None, "longer", "shorter"])
def test_json_report_overwrites_an_existing_file_exactly(tmp_path, capsys,
                                                         before):
    """The report replaces whatever the path held: it ends up byte-equal to
    the report written to a fresh path.  An open that did not empty the
    file would leave a longer file a stale tail that ``json.loads``
    rejects."""
    argv = ("delta", "--r", "d_primitive.rmat")
    fresh = tmp_path / "fresh.json"
    code, expected = run_cli(capsys, *argv, "--json", str(fresh))
    report = fresh.read_bytes()
    assert code == 0 and report
    path = tmp_path / "report.json"
    if before == "longer":
        path.write_bytes(report + b"\n" + report)
    elif before == "shorter":
        path.write_bytes(report[:len(report) // 2])
    assert run_cli(capsys, *argv, "--json", str(path)) == (0, expected)
    assert path.read_bytes() == report
    assert json.loads(path.read_text())["exit_code"] == 0


def test_json_report_to_dev_null_exits_0(capsys):
    """``--json /dev/null`` is written like any file: the printed report
    and the exit code are those of a run without ``--json``."""
    argv = ("delta", "--r", "d_primitive.rmat")
    expected = run_cli(capsys, *argv)
    assert run_cli(capsys, *argv, "--json", os.devnull) == expected
    assert expected[0] == 0


def test_json_report_to_a_directory_exits_1(tmp_path, capsys):
    """A directory as the ``--json`` path is one error line on stderr and
    exit 1; the printed report is the same as without ``--json``."""
    argv = ("delta", "--r", "d_primitive.rmat")
    code, expected = run_cli(capsys, *argv)
    assert code == 0
    assert cli.main(list(argv) + ["--json", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out == expected
    assert err == (f"error: cannot write {tmp_path}: "
                   f"{os.strerror(errno.EISDIR)}\n")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts open descriptors in /proc/self/fd")
def test_broken_stdout_leaks_no_descriptor():
    """A reader that closed stdout before the report was written: ``main``
    sends stdout to devnull and keeps no other descriptor open.  Run in a
    fresh process whose fd 1 is a pipe with its read end closed."""
    script = (
        "import os, sys\n"
        "from liebialg import cli\n"
        "r, w = os.pipe()\n"
        "os.close(r)\n"
        "os.dup2(w, 1)\n"
        "os.close(w)\n"
        "before = len(os.listdir('/proc/self/fd'))\n"
        "code = cli.main(['delta', '--r', 'd_primitive.rmat'])\n"
        "after = len(os.listdir('/proc/self/fd'))\n"
        "print(code, before, after, file=sys.stderr)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    code, before, after = map(int, out.stderr.split())
    assert code == 0 and after == before


# ---------------------------------------------------------------------------
# once-per-process state: the parser, the packaged tables
# ---------------------------------------------------------------------------

def test_local_file_shadows_the_packaged_table(tmp_path, monkeypatch, capsys):
    """A path on disk wins over the packaged table of the same name, before
    the shadow exists and after it is gone alike."""
    monkeypatch.chdir(tmp_path)
    argv = ("delta", "--r", "d_primitive.rmat")
    packaged = run_cli(capsys, *argv)
    other = run_cli(capsys, "delta", "--r", "p_primitive.rmat")
    assert packaged[0] == other[0] == 0 and packaged != other
    shadow = tmp_path / "d_primitive.rmat"
    shadow.write_text(load_table("p_primitive.rmat"))
    assert run_cli(capsys, *argv) == other
    shadow.unlink()
    assert run_cli(capsys, *argv) == packaged
    # the same for --map: a broken local map is read, not the packaged one
    embed = ("embed", "--sub", "D,P,K,M", "--target",
             "oscillator_target.delta", "--map", "oscillator_embedding.map")
    good = run_cli(capsys, *embed)
    (tmp_path / "oscillator_embedding.map").write_text("D -> X\n")
    code, out = run_cli(capsys, *embed)
    assert good[0] == 0 and code == 1
    assert out.endswith(
        "error: not a linear combination of generators: X (line 1)\n")
    (tmp_path / "oscillator_embedding.map").unlink()
    assert run_cli(capsys, *embed) == good


def test_packaged_algebra_is_the_shared_instance(capsys, monkeypatch):
    """``--algebra schrodinger.alg`` names the one value ``formats.table``
    holds, so the command reads the shared r-matrix and the Schouten pair
    table the built-in algebra already built; ``--algebra gl2.alg`` still
    reads the r-matrix on gl(2) afresh, which rejects it."""
    L = formats.table("schrodinger.alg")
    assert cli._input("schrodinger.alg", "alg") is L
    assert cli._input("general.rmat", "rmat", L) is formats.table(
        "general.rmat")
    code, out = run_cli(capsys, "classify", "--algebra", "gl2.alg",
                        "--r", "gl2_family.rmat")
    assert code == 1
    assert out.endswith("error: unknown generator 'D' (line 2)\n")
    argv = ("schouten", "--r", "general.rmat")
    builtin = run_cli(capsys, *argv)
    built, parsed = [], []
    real_pairs, real_parse = liealg._schouten_pairs, formats.parse_rmatrix
    monkeypatch.setattr(liealg, "_schouten_pairs",
                        lambda A: built.append(A) or real_pairs(A))
    monkeypatch.setattr(formats, "parse_rmatrix",
                        lambda text, A: parsed.append(A) or real_parse(text, A))
    assert run_cli(capsys, "schouten", "--algebra", "schrodinger.alg",
                   *argv[1:]) == builtin
    assert built == parsed == []


def test_algebra_file_parses_its_tables_afresh(tmp_path, capsys, monkeypatch):
    """A copy of the built-in algebra on disk is parsed afresh, and the
    r-matrix with it, and prints the same bytes as the shared one."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "copy.alg").write_text(load_table("schrodinger.alg"))
    argv = ("delta", "--r", "d_primitive.rmat")
    builtin = run_cli(capsys, *argv)
    parsed = []
    real = formats.parse_rmatrix

    def counting(text, L):
        parsed.append(L)
        return real(text, L)

    monkeypatch.setattr(formats, "parse_rmatrix", counting)
    assert run_cli(capsys, *argv) == builtin
    assert parsed == []
    assert run_cli(capsys, "delta", "--algebra", "copy.alg",
                   *argv[1:]) == builtin
    assert len(parsed) == 1 and parsed[0] is not formats.table(
        "schrodinger.alg")


def test_relabelled_algebra_is_presented_on_its_own_axis(tmp_path, capsys):
    """The K^M^P presentation belongs to the Schrodinger brackets, not to
    its generator names: with D and K exchanged in every bracket under the
    built-in ``generators:`` line, the invariant axis is D^P^M, and
    ``classify`` presents the discriminant there while ``schouten`` prints
    no K^M^P coefficient."""
    head, body = load_table("schrodinger.alg").split("\n[", 1)
    swapped = body.replace("D", "#").replace("K", "D").replace("#", "K")
    path = tmp_path / "swapped.alg"
    path.write_text(f"{head}\n[{swapped}")
    assert run_cli(capsys, "classify", "--algebra", str(path),
                   "--r", "general.rmat") == (0, (
        "command: classify\n"
        "discriminant (D^P^M coefficient): "
        "-c1*c2 - a3*b1 - a3*a6 - a2*c1 + a1^2\n"
        "constraints: 19\n"
        "[ok] family-classified\n"))
    assert run_cli(capsys, "schouten", "--algebra", str(path),
                   "--r", "d_primitive.rmat") == (0, (
        "command: schouten\n"
        "[[r,r]] = (-c1*c2)*D^P^M\n"
        "[ok] schouten-computed\n"))


EMBED_OSCILLATOR = ("embed", "--sub", "D,P,K,M")


@pytest.mark.parametrize("argv,message", [
    (("delta", "--r", "gl2_target.delta"),
     "trailing input (line 3, column 11)"),
    (EMBED_OSCILLATOR + ("--target", "d_primitive.delta",
                         "--map", "oscillator_embedding.map"),
     "missing 'generators:' header (line 1)"),
    (EMBED_OSCILLATOR + ("--target", "oscillator_target.delta",
                         "--map", "twophoton_iso.map"),
     "not a linear combination of generators: -N - 1/2*M (line 2)"),
    (("delta", "--r", "nosuch.rmat"),
     "no such file or packaged table: nosuch.rmat"),
], ids=["suffix-mismatch", "target-without-header", "map-on-wrong-algebra",
        "missing-table"])
def test_rejected_inputs_are_rejected_every_time(capsys, argv, message):
    first = run_cli(capsys, *argv)
    assert first == (1, f"command: {argv[0]}\nerror: {message}\n")
    assert run_cli(capsys, *argv) == first


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    cli._build_parser.cache_clear()
    built = []
    real = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for _ in range(3):
        assert run_cli(capsys, "schouten", "--r", "d_primitive.rmat")[0] == 0
        assert run_cli(capsys, "cocycle-solve")[0] == 0
    assert built.count("liebialg") == 1


def test_usage_errors_leave_no_state(tmp_path, capsys):
    """Usage errors and a ``--json`` run between two runs of one command
    change neither its bytes nor its exit code."""
    argv = ("classify", "--r", "d_primitive.rmat", "--at", "c2=0")
    usage_errors = (("frobnicate",), ("classify",),
                    ("hopf-check", "--case", "ucc", "--order", "x"))
    first = cli.main(list(argv)), capsys.readouterr()
    errors = []
    for bad in usage_errors:
        assert cli.main(list(bad)) == 2
        errors.append(capsys.readouterr())
    path = tmp_path / "report.json"
    assert cli.main(list(argv) + ["--json", str(path)]) == 0
    path.unlink()
    capsys.readouterr()
    assert (cli.main(list(argv)), capsys.readouterr()) == first
    assert first[0] == 0 and not path.exists()
    assert "invalid choice: 'frobnicate'" in errors[0].err
    assert "the following arguments are required: --r" in errors[1].err
    assert "invalid int value: 'x'" in errors[2].err
    for bad, seen in zip(usage_errors, errors):
        assert cli.main(list(bad)) == 2
        assert capsys.readouterr() == seen


def test_every_classify_builds_its_family(capsys, monkeypatch):
    calls = []
    real = families.rmatrix_family

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(families, "rmatrix_family", counting)
    argv = ("classify", "--r", "d_primitive.rmat")
    assert run_cli(capsys, *argv) == run_cli(capsys, *argv)
    assert len(calls) == 2 and calls[0][0] is calls[1][0]
