import json
from importlib import resources

import pytest

from liebialg.symkernel import PolyExpr, Q, Symbol
from liebialg import schrodinger, families
from liebialg.formats import (ParseError, parse_algebra, serialize_algebra,
                              parse_rmatrix, parse_delta, parse_eqs, parse_map,
                              parse_subs, parse_ptable, parse_bindings_arg,
                              load_table)
from liebialg import cli

V = PolyExpr.var


def test_builtin_algebra_file(L):
    parsed = parse_algebra(load_table("schrodinger.alg"))
    assert parsed == L


def test_algebra_round_trip(L):
    text = serialize_algebra(L)
    assert serialize_algebra(parse_algebra(text)) == text


def test_all_builtin_algebras_round_trip():
    for name in ("schrodinger.alg", "oscillator.alg", "gl2.alg",
                 "galilei.alg", "twophoton.alg"):
        text = load_table(name)
        L = parse_algebra(text)
        assert parse_algebra(serialize_algebra(L)) == L


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
    assert len(r.terms) == len(slots) == len(schrodinger.ALL_PARAMS)
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
    c2i = PolyExpr.var(Symbol("c2", invertible=True))
    assert coeff == -V("a2") * V("a3") * c2i ** -1


def test_rmatrix_rejects_unknown_generator(L):
    with pytest.raises(ParseError):
        parse_rmatrix("X^Y\n", L)


def test_delta_self_contained():
    alg, delta = parse_delta(load_table("oscillator_target.delta"))
    assert alg.names == ("N", "Ap", "Am", "M")
    assert delta.row("M").is_zero()
    assert delta.row("N").signed_coeff(("N", "Ap")) == V("ap")


def test_delta_with_explicit_algebra(L):
    _, delta = parse_delta(load_table("cocommutators_general.delta"), L)
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
    h6 = parse_algebra(load_table("twophoton.alg"))
    m2 = parse_map(load_table("twophoton_iso.map"), h6)
    assert m2["D"] == h6.element({"N": -1, "M": Q(-1, 2)})


def test_ptable_round_trip():
    from liebialg.sklyanin import sklyanin_table
    T = sklyanin_table(families.load_rmatrix("general"))
    assert parse_ptable(load_table("poisson_general.ptable")) == T


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


def test_cli_order_env(capsys, monkeypatch):
    monkeypatch.setenv(cli.DEFAULT_ORDER_ENV, "2")
    code, out = run_cli(capsys, "hopf-check", "--case", "ucc")
    assert code == 0
    assert "order 2" in out


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
