import random
from fractions import Fraction
from itertools import combinations

import pytest

from liebialg.symkernel import PolyExpr, Q, Symbol, span_equal
from liebialg.liealg import LieAlgebra, WedgeElement, ad_tensor, schouten
from liebialg.bialgebra import (Cocommutator, delta_from_r, cocycle_residual,
                                cocycle_solve, cojacobi_constraints,
                                coboundary_match, classify_point,
                                automorphism_transform, impose_primitive,
                                specialize, InfeasibleSpecialization,
                                InconsistencyError, normalize_constraints)
from liebialg import formats, families

V = PolyExpr.var


def load_eqs(name):
    return formats.parse_eqs(formats.load_table(name))


def transcribed_19():
    return (load_eqs("constraints_a.eqs") + load_eqs("constraints_b.eqs")
            + load_eqs("constraints_c.eqs"))


def appendix_delta(L):
    _, d = formats.parse_delta(formats.load_table("cocycle_general.delta"), L)
    return d


def test_delta_from_r_two_parameter_family(L):
    r = WedgeElement.from_pairs(L, [(V("c1"), "D", "M"), (V("c2"), "P", "K")])
    d = delta_from_r(L, r)
    assert d.row("P") == WedgeElement.from_pairs(
        L, [(V("c1") - V("c2"), "P", "M")])
    assert d.row("K") == WedgeElement.from_pairs(
        L, [(-(V("c1") + V("c2")), "K", "M")])
    assert d.row("H") == WedgeElement.from_pairs(L, [(2 * V("c1"), "H", "M")])
    assert d.row("C") == WedgeElement.from_pairs(L, [(-2 * V("c1"), "C", "M")])
    assert d.row("D").is_zero() and d.row("M").is_zero()


def test_delta_from_zero(L):
    assert delta_from_r(L, WedgeElement(L, 2, {})).is_zero()


def test_delta_general_matches_table(L, general_family):
    _, ci = formats.parse_delta(
        formats.load_table("cocommutators_general.delta"), L)
    assert general_family.delta == ci
    # the dilation row carries the -3 a5 P^H term
    assert ci.row("D").signed_coeff(("P", "H")) == -3 * V("a5")


def test_coboundaries_are_cocycles(L, general_family):
    assert cocycle_residual(L, general_family.delta) == []


def test_broken_delta_fails_cocycle(L):
    rows = [WedgeElement(L, 2, {})] * 6
    d = Cocommutator(L, rows)
    bad = Cocommutator(L, [WedgeElement.from_pairs(L, [(1, "D", "P")])]
                       + list(rows[1:]))
    res = cocycle_residual(L, bad)
    assert res
    pairs = [p for p, _ in res]
    assert ("D", "H") in pairs


def test_appendix_solution_is_cocycle(L):
    assert cocycle_residual(L, appendix_delta(L)) == []


def test_cocycle_solve_schrodinger(L):
    assert cocycle_solve(L).dim == 15


def test_cocycle_solve_abelian():
    A = LieAlgebra(("X", "Y"), {})
    assert cocycle_solve(A).dim == 2


def test_cocycle_solve_oscillator():
    h4 = formats.parse_algebra(formats.load_table("oscillator.alg"))
    assert cocycle_solve(h4).dim == 6


def test_cojacobi_span_matches_transcription(L):
    gen = cojacobi_constraints(L, appendix_delta(L))
    fixture = (load_eqs("cocycle_constraints_a.eqs")
               + load_eqs("cocycle_constraints_b.eqs")
               + load_eqs("cocycle_constraints_c.eqs"))
    assert span_equal(gen, fixture).equal


def test_cojacobi_identified_matches_rmatrix_constraints(L):
    gen = cojacobi_constraints(L, appendix_delta(L))
    ident = formats.parse_subs(formats.load_table("identification.subs"))
    subbed = normalize_constraints(p.substitute(ident) for p in gen)
    assert span_equal(subbed, transcribed_19()).equal


def test_cojacobi_zero_delta(L):
    zero = Cocommutator(L, [WedgeElement(L, 2, {})] * 6)
    assert cojacobi_constraints(L, zero) == []


def test_cojacobi_general_r_matches_transcription(L, general_family):
    gen = cojacobi_constraints(L, general_family.delta)
    assert span_equal(gen, transcribed_19()).equal


def test_family_constraints_span_transcription(general_family):
    assert len(general_family.constraints) == 19
    assert span_equal(list(general_family.constraints), transcribed_19()).equal


def test_cybe_implies_cojacobi_on_triangular_families(L):
    # non-standard members of the named families: zero Schouten bracket
    cases = [
        WedgeElement.from_pairs(L, [(V("c1"), "D", "M")]),
        formats.parse_rmatrix(
            formats.load_table("h_primitive_nonstandard.rmat"), L),
        formats.parse_rmatrix(
            formats.load_table("galilei_nonstandard.rmat"), L),
    ]
    for r in cases:
        assert schouten(r).is_zero()
        assert cojacobi_constraints(L, delta_from_r(L, r)) == []


def test_coboundary_match_appendix(L, general_family):
    cm = coboundary_match(L, appendix_delta(L))
    assert cm.is_coboundary
    assert not cm.kernel
    ident = formats.parse_subs(formats.load_table("identification.subs"))
    assert cm.r.substitute(ident) == general_family.r
    # inverting the identification: alpha2 = -2 a2 means a2 = -alpha2/2
    assert cm.r.signed_coeff(("D", "H")) == V("alpha2") * Q(-1, 2)
    assert delta_from_r(L, cm.r) == appendix_delta(L)


def test_coboundary_match_zero(L):
    zero = Cocommutator(L, [WedgeElement(L, 2, {})] * 6)
    cm = coboundary_match(L, zero)
    assert cm.is_coboundary and not cm.kernel and cm.r.is_zero()


def test_coboundary_match_galilei_family_Ia(L):
    # the restriction of the two-parameter scaling cocommutator family to the
    # Galilei subalgebra is not coboundary there, but is inside the full algebra
    gal = formats.parse_algebra(formats.load_table("galilei.alg"))
    xi, b4 = V("xi"), V("beta4")
    target_rows = {
        "K": WedgeElement.from_pairs(gal, [(xi, "K", "M")]),
        "H": WedgeElement.from_pairs(gal, [(b4 - xi, "H", "M")]),
        "P": WedgeElement.from_pairs(gal, [(b4, "P", "M")]),
        "M": WedgeElement(gal, 2, {}),
    }
    dg = Cocommutator(gal, [target_rows[g] for g in gal.names])
    cm = coboundary_match(gal, dg)
    assert not cm.is_coboundary

    on_s = {
        "K": WedgeElement.from_pairs(L, [(xi, "K", "M")]),
        "H": WedgeElement.from_pairs(L, [(b4 - xi, "H", "M")]),
        "P": WedgeElement.from_pairs(L, [(b4, "P", "M")]),
        "M": WedgeElement(L, 2, {}),
        "D": WedgeElement(L, 2, {}),
        "C": WedgeElement.from_pairs(L, [(-(b4 - xi), "C", "M")]),
    }
    ds = Cocommutator(L, [on_s[g] for g in L.names])
    cm2 = coboundary_match(L, ds)
    assert cm2.is_coboundary
    expected = WedgeElement.from_pairs(
        L, [((b4 - xi) * Q(1, 2), "D", "M"), (-(b4 + xi) * Q(1, 2), "P", "K")])
    assert cm2.r == expected


def test_coboundary_roundtrip_random(L):
    rng = random.Random(23)
    pairs = list(combinations(L.names, 2))
    for _ in range(4):
        r = WedgeElement.from_pairs(
            L, [(Fraction(rng.randint(-3, 3)), x, y) for x, y in pairs])
        cm = coboundary_match(L, delta_from_r(L, r))
        assert cm.is_coboundary and cm.r == r


def test_classify_discriminants(L, general_family):
    assert general_family.discriminant == (
        V("a3") * V("a6") + V("b3") * V("b6") - V("a3") * V("b1")
        - V("a1") * V("b3") - V("c2") ** 2)
    fam31 = families.family("d-primitive", L)
    assert fam31.discriminant == -V("c2") ** 2
    fam32 = families.family("p-primitive", L)
    assert fam32.discriminant == -(V("a1") * V("b3") + V("c1") ** 2)


def test_classify_points(L):
    fam = families.family("d-primitive", L)
    assert classify_point(fam, {"c1": 1, "c2": 0}) == "non-standard"
    assert classify_point(fam, {"c1": 0, "c2": 2}) == "standard"
    fam32 = families.family("p-primitive", L)
    assert classify_point(fam32, {"a1": 0, "a3": 1, "a4": 1, "a5": 0,
                                  "b3": 0, "c1": 0}) == "non-standard"
    with pytest.raises(InfeasibleSpecialization):
        classify_point(fam32, {"a1": 1, "a3": 0, "a4": 1, "a5": 1, "b3": 0,
                               "c1": 1})


def test_automorphism_transform(L, general_family, basis_flip):
    pmap = formats.parse_subs(formats.load_table("parameter_flip.subs"))
    fam2, report = automorphism_transform(general_family, basis_flip, pmap)
    assert all(report.rows_equal.values())
    assert report.r_equal
    assert report.row_pairing == {"D": "D", "C": "H", "H": "C",
                                  "K": "P", "P": "K", "M": "M"}
    assert report.constraints_span_preserved
    cb, cc = load_eqs("constraints_a.eqs"), load_eqs("constraints_b.eqs")
    cd = load_eqs("constraints_c.eqs")
    assert span_equal([p.substitute(pmap) for p in cb], cc).equal
    assert span_equal([p.substitute(pmap) for p in cc], cb).equal
    assert span_equal([p.substitute(pmap) for p in cd], cd).equal


def test_automorphism_identity(L, general_family):
    eye = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    fam2, report = automorphism_transform(general_family, eye, {})
    assert all(report.rows_equal.values()) and report.r_equal


def test_automorphism_rejects_non_automorphism(L, general_family):
    bad = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    bad[0][1] = 1   # D -> D + C is not an automorphism here
    with pytest.raises(ValueError):
        automorphism_transform(general_family, bad, {})


def test_impose_primitive_dilation(L, general_family):
    fam, rep = impose_primitive(general_family, "D")
    assert set(rep.surviving) == {"c1", "c2"}
    assert rep.forced_zero == ("c3",)
    assert not fam.constraints
    assert fam.r == families.load_rmatrix("d-primitive", L)
    assert fam.delta.row("D").is_zero()


def test_impose_primitive_translation(L, general_family):
    fam, rep = impose_primitive(general_family, "P")
    assert set(rep.surviving) == {"a1", "a3", "a4", "a5", "b3", "c1"}
    assert rep.bindings["c2"] == V("c1")
    assert span_equal(list(fam.constraints),
                      [V("a1") * V("a4") + V("a5") * V("c1")]).equal
    assert fam.r == families.load_rmatrix("p-primitive", L)
    _, fixture = formats.parse_delta(
        formats.load_table("p_primitive.delta"), L)
    assert fam.delta == fixture


def test_impose_primitive_time(L, general_family):
    fam, rep = impose_primitive(general_family, "H")
    assert set(rep.surviving) == {"a2", "a3", "a4", "a5", "c2"}
    assert rep.bindings["a1"].is_zero()
    assert rep.bindings["b6"].is_zero()
    assert span_equal(list(fam.constraints),
                      [V("a2") * V("a3") + V("a5") * V("c2")]).equal
    # the standard subfamily: substitute a5 = -a2 a3 / c2 with c2 invertible
    c2i = PolyExpr.var(Symbol("c2", invertible=True))
    std = fam.substitute({"a5": -V("a2") * V("a3") / c2i, "c2": c2i})
    assert all(c.is_zero() for c in std.constraints)
    assert std.r == families.load_rmatrix("h-primitive-standard", L)
    # the non-standard subfamily: c2 = 0 forces a2 a3 = 0; take a3 = 0
    ns = specialize(fam, {"c2": 0, "a3": 0})
    assert ns.r == families.load_rmatrix("h-primitive-nonstandard", L)
    assert all(c.is_zero() for c in ns.constraints)


def test_impose_primitive_rejects_inhomogeneous_row(general_family):
    # c1 = 1 leaves the constant -2 on C^M in delta(C)
    with pytest.raises(InconsistencyError):
        impose_primitive(general_family.substitute({"c1": 1}), "C")


def test_specialize_reports_violated_constraint(L, general_family):
    famP, _ = impose_primitive(general_family, "P")
    with pytest.raises(InfeasibleSpecialization) as err:
        specialize(famP, {"a1": 1, "a4": 1, "a5": 0, "c1": 2})
    assert str(err.value.violated)


def test_mcybe_of_invariant_part(L, general_family):
    part = WedgeElement.from_pairs(
        L, [(general_family.discriminant, "K", "M", "P")], degree=3)
    for g in L.names:
        assert ad_tensor(L.gen(g), part).is_zero()
