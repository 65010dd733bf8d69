import pytest

from liebialg.symkernel import PolyExpr, Q, span_equal
from liebialg.liealg import WedgeElement, schouten
from liebialg.bialgebra import Cocommutator, delta_from_r
from liebialg.embed import (SubalgebraSpan, closure_check,
                            sub_bialgebra_condition, match_sub_bialgebra,
                            proposition_rmatrix, _rename_tensor2)
from liebialg import schrodinger, formats, families

V = PolyExpr.var


def load_eqs(name):
    return formats.parse_eqs(formats.load_table(name))


@pytest.mark.parametrize("members,closed", [
    (("D", "P", "K", "M"), True),     # oscillator copy
    (("P", "K", "M"), True),          # Heisenberg-Weyl
    (("D", "H", "C", "M"), True),     # gl(2) copy
    (("K", "H", "P", "M"), True),     # extended Galilei
    (("D", "H"), True),
    (("H", "C"), False),              # [H,C] = D leaves the span
    (("K", "P"), False),
])
def test_closure(L, members, closed):
    assert closure_check(SubalgebraSpan(L, members)) is closed


def test_sub_condition_oscillator(L, general_family):
    span = SubalgebraSpan(L, ("D", "P", "K", "M"))
    conds = sub_bialgebra_condition(general_family, span)
    killed = set().union(*(c.names() for c in conds))
    assert killed == {"a2", "a4", "a5", "a6", "b2", "b4", "b5", "b6", "c3"}


def test_sub_condition_gl2(L, general_family):
    span = SubalgebraSpan(L, ("D", "H", "C", "M"))
    conds = sub_bialgebra_condition(general_family, span)
    killed = set().union(*(c.names() for c in conds))
    assert set(schrodinger.ALL_PARAMS) - killed == \
        {"a2", "a4", "b2", "b4", "c1", "c2", "c3"}


def test_sub_condition_whole_algebra(L, general_family):
    span = SubalgebraSpan(L, schrodinger.GENERATORS)
    assert sub_bialgebra_condition(general_family, span) == []


def test_sub_condition_rejects_non_subalgebra(L, general_family):
    with pytest.raises(ValueError):
        sub_bialgebra_condition(general_family, SubalgebraSpan(L, ("H", "C")))


def _expected_bindings(report, table):
    binds = formats.parse_subs(formats.load_table(table))
    forced = {p: PolyExpr.zero() for p in report.forced_zero}
    return {k: v.substitute(forced) for k, v in binds.items()}


def test_oscillator_embedding(L, general_family):
    report, target, span = families.run_embedding("oscillator", general_family)
    assert report.consistent
    assert not report.matching_constraints
    assert report.free_parent == ()
    want = _expected_bindings(report, "oscillator_bindings.subs")
    assert report.bindings == want
    assert span_equal(list(report.residual),
                      load_eqs("oscillator_constraints.eqs")).equal
    r = proposition_rmatrix(general_family, report)
    assert r == families.load_rmatrix("oscillator", L)
    s = schouten(r)
    assert s.signed_coeff(("K", "M", "P")) == \
        V("ap") * V("bm") + V("am") * V("bp") - V("xi") ** 2


def test_gl2_embedding(L, general_family):
    report, target, span = families.run_embedding("gl2", general_family)
    assert report.consistent
    assert report.free_parent == ("c2",)
    want = _expected_bindings(report, "gl2_bindings.subs")
    got = dict(report.bindings)
    got["c2"] = V("c2")
    assert got == want
    fixture = load_eqs("gl2_constraints.eqs") + load_eqs("gl2_obstruction.eqs")
    assert span_equal(list(report.residual), fixture).equal
    # the obstruction polynomial lies in the residual span: the embedding
    # forces the gl(2) Schouten bracket to vanish
    jo = load_eqs("gl2_obstruction.eqs")
    assert span_equal(list(report.residual) + jo, list(report.residual)).equal
    r = proposition_rmatrix(general_family, report)
    assert r == families.load_rmatrix("gl2", L)
    assert schouten(r).signed_coeff(("K", "M", "P")) == -V("c2") ** 2


def test_galilei_embedding(L, general_family):
    report, target, span = families.run_embedding("galilei", general_family)
    assert report.consistent
    assert {str(c) for c in report.matching_constraints} == \
        {"alpha", "beta5", "nu"}
    assert report.free_parent == ("a3",)
    assert report.forced_zero == ("beta6",)
    assert span_equal(list(report.residual),
                      load_eqs("galilei_constraint.eqs")).equal
    # before purification the residual still carries beta6
    raw_names = set().union(*(c.names() for c in report.residual_raw))
    assert "beta6" in raw_names
    want = _expected_bindings(report, "galilei_bindings.subs")
    got = dict(report.bindings)
    got["a3"] = V("a3")
    assert got == want
    r = proposition_rmatrix(general_family, report)
    assert r == families.load_rmatrix("galilei", L)
    assert schouten(r).signed_coeff(("K", "M", "P")) == \
        -(V("beta4") + V("xi")) ** 2 * Q(1, 4)


@pytest.mark.parametrize("name", ["oscillator", "gl2", "galilei"])
def test_restriction_reproduces_target(L, general_family, name):
    spec = families.EMBEDDINGS[name]
    report, target, span = families.run_embedding(name, general_family)
    rename = formats.parse_map(formats.load_table(spec.map_table), L)
    phi = [rename[g] for g in target.algebra.names]
    subs = {}
    for cst in report.matching_constraints:
        ((mono, _),) = cst.terms.items()
        subs[mono[0][0]] = PolyExpr.zero()
    for p in report.forced_zero:
        subs[p] = PolyExpr.zero()
    dprop = delta_from_r(L, proposition_rmatrix(general_family, report))
    for ti, tg in enumerate(target.algebra.names):
        lhs = _rename_tensor2(target.rows[ti].substitute(subs), phi, L)
        assert (dprop.of(rename[tg]) - lhs).is_zero()


def test_galilei_coboundary_cases_embed(L):
    rju = families.load_rmatrix("galilei", L)
    jt = load_eqs("galilei_constraint.eqs")[0]
    rstd = formats.parse_rmatrix(formats.load_table("galilei_standard.rmat"), L)
    rns = formats.parse_rmatrix(
        formats.load_table("galilei_nonstandard.rmat"), L)
    std = {"beta4": V("xi"), "beta2": 0, "beta3": 0, "a3": 0}
    ns = {"beta4": 0, "xi": 0, "a3": 0}
    assert rju.substitute(std) == rstd
    assert rju.substitute(ns) == rns
    assert jt.substitute(std).is_zero()
    assert jt.substitute(ns).is_zero()


def test_inconsistent_target_reports_no_embedding(L, general_family):
    # delta(M) must vanish inside the big algebra; a target with a
    # parameter-free delta(M) row cannot be matched
    gal = formats.parse_algebra(formats.load_table("galilei.alg"))
    rows = {g: WedgeElement(gal, 2, {}) for g in gal.names}
    rows["M"] = WedgeElement.from_pairs(gal, [(1, "P", "M")])
    target = Cocommutator(gal, [rows[g] for g in gal.names])
    rename = {g: L.gen(g) for g in gal.names}
    span = SubalgebraSpan(L, ("K", "H", "P", "M"))
    report = match_sub_bialgebra(general_family, span, target, rename)
    assert not report.consistent
    with pytest.raises(ValueError):
        proposition_rmatrix(general_family, report)
