import random
from fractions import Fraction
from itertools import combinations

import pytest

from liebialg.symkernel import (PolyExpr, Q, span_equal, nullspace,
                                linear_system_from, solve_linear)
from liebialg.liealg import LieAlgebra, WedgeElement, ad_tensor, schouten
from liebialg.bialgebra import (Cocommutator, delta_from_r, cocycle_residual,
                                cocycle_solve, cojacobi_constraints,
                                coboundary_match, classify_point,
                                automorphism_transform, impose_primitive,
                                specialize, InfeasibleSpecialization,
                                InconsistencyError, normalize_constraints,
                                rmatrix_family, _invariant_wedge3_axes)
from liebialg import bialgebra, formats, families, schrodinger

V = PolyExpr.var


def load_eqs(name):
    return formats.parse_eqs(formats.load_table(name))


def transcribed_19():
    return (load_eqs("constraints_a.eqs") + load_eqs("constraints_b.eqs")
            + load_eqs("constraints_c.eqs"))


def appendix_delta(L):
    d = formats.parse_delta(formats.load_table("cocycle_general.delta"), L)
    return d


def test_delta_from_r_two_parameter_family(L):
    r = WedgeElement.from_pairs(L, [(V("c1"), "D", "M"), (V("c2"), "P", "K")])
    d = delta_from_r(r)
    assert d.row("P") == WedgeElement.from_pairs(
        L, [(V("c1") - V("c2"), "P", "M")])
    assert d.row("K") == WedgeElement.from_pairs(
        L, [(-(V("c1") + V("c2")), "K", "M")])
    assert d.row("H") == WedgeElement.from_pairs(L, [(2 * V("c1"), "H", "M")])
    assert d.row("C") == WedgeElement.from_pairs(L, [(-2 * V("c1"), "C", "M")])
    assert d.row("D").is_zero() and d.row("M").is_zero()


def test_delta_from_zero(L):
    assert all(row.is_zero()
               for row in delta_from_r(WedgeElement(L, 2, {})).rows)


def test_delta_general_matches_table(L, general_family):
    ci = formats.parse_delta(
        formats.load_table("cocommutators_general.delta"), L)
    assert general_family.delta == ci
    # the dilation row carries the -3 a5 P^H term
    assert ci.row("D").signed_coeff(("P", "H")) == -3 * V("a5")


def test_coboundaries_are_cocycles(L, general_family):
    assert cocycle_residual(general_family.delta) == []


def test_broken_delta_fails_cocycle(L):
    rows = [WedgeElement(L, 2, {})] * 6
    d = Cocommutator(L, rows)
    bad = Cocommutator(L, [WedgeElement.from_pairs(L, [(1, "D", "P")])]
                       + list(rows[1:]))
    res = cocycle_residual(bad)
    assert res
    pairs = [p for p, _ in res]
    assert ("D", "H") in pairs


def test_appendix_solution_is_cocycle(L):
    assert cocycle_residual(appendix_delta(L)) == []


def test_cocycle_solve_schrodinger(L):
    assert cocycle_solve(L).dim == 15


def test_cocycle_solve_abelian():
    A = LieAlgebra(("X", "Y"), {})
    assert cocycle_solve(A).dim == 2


def test_cocycle_solve_oscillator():
    h4 = formats.parse_algebra(formats.load_table("oscillator.alg"))
    assert cocycle_solve(h4).dim == 6


def test_cojacobi_span_matches_transcription(L):
    gen = cojacobi_constraints(appendix_delta(L))
    fixture = (load_eqs("cocycle_constraints_a.eqs")
               + load_eqs("cocycle_constraints_b.eqs")
               + load_eqs("cocycle_constraints_c.eqs"))
    assert span_equal(gen, fixture).equal


def test_cojacobi_identified_matches_rmatrix_constraints(L):
    gen = cojacobi_constraints(appendix_delta(L))
    ident = formats.parse_subs(formats.load_table("identification.subs"))
    subbed = normalize_constraints(p.substitute(ident) for p in gen)
    assert span_equal(subbed, transcribed_19()).equal


def test_cojacobi_zero_delta(L):
    zero = Cocommutator(L, [WedgeElement(L, 2, {})] * 6)
    assert cojacobi_constraints(zero) == []


def test_cojacobi_general_r_matches_transcription(L, general_family):
    gen = cojacobi_constraints(general_family.delta)
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
        assert cojacobi_constraints(delta_from_r(r)) == []


def test_coboundary_match_appendix(L, general_family):
    cm = coboundary_match(appendix_delta(L))
    assert cm.is_coboundary
    assert not cm.kernel
    ident = formats.parse_subs(formats.load_table("identification.subs"))
    assert cm.r.substitute(ident) == general_family.r
    # inverting the identification: alpha2 = -2 a2 means a2 = -alpha2/2
    assert cm.r.signed_coeff(("D", "H")) == V("alpha2") * Q(-1, 2)
    assert delta_from_r(cm.r) == appendix_delta(L)


def test_coboundary_match_zero(L):
    zero = Cocommutator(L, [WedgeElement(L, 2, {})] * 6)
    cm = coboundary_match(zero)
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
    cm = coboundary_match(dg)
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
    cm2 = coboundary_match(ds)
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
        cm = coboundary_match(delta_from_r(r))
        assert cm.is_coboundary and cm.r == r


def test_classify_discriminants(L, general_family):
    assert general_family.discriminant == (
        V("a3") * V("a6") + V("b3") * V("b6") - V("a3") * V("b1")
        - V("a1") * V("b3") - V("c2") ** 2)
    fam31 = families.family("d-primitive")
    assert fam31.discriminant == -V("c2") ** 2
    fam32 = families.family("p-primitive")
    assert fam32.discriminant == -(V("a1") * V("b3") + V("c1") ** 2)


def test_classify_points(L):
    fam = families.family("d-primitive")
    assert classify_point(fam, {"c1": 1, "c2": 0}) == "non-standard"
    assert classify_point(fam, {"c1": 0, "c2": 2}) == "standard"
    fam32 = families.family("p-primitive")
    assert classify_point(fam32, {"a1": 0, "a3": 1, "a4": 1, "a5": 0,
                                  "b3": 0, "c1": 0}) == "non-standard"
    with pytest.raises(InfeasibleSpecialization):
        classify_point(fam32, {"a1": 1, "a3": 0, "a4": 1, "a5": 1, "b3": 0,
                               "c1": 1})
    # a partial point leaves a5 + a1*a4 symbolic: off the variety all the
    # same, named by the first constraint that does not vanish there
    with pytest.raises(InfeasibleSpecialization) as err:
        classify_point(fam32, {"c1": 1})
    assert str(err.value.violated) == "a5*c1 + a1*a4"
    with pytest.raises(ValueError, match="no parameter 'c9'"):
        classify_point(fam32, {"c1": 0, "c9": 1})
    assert classify_point(fam, {"c1": 1}) == "standard"


def test_automorphism_transform(L, general_family, basis_flip):
    pmap = formats.parse_subs(formats.load_table("parameter_flip.subs"))
    delta2, report = automorphism_transform(general_family, basis_flip, pmap)
    assert isinstance(delta2, Cocommutator)
    assert delta2.rows == general_family.delta.rows
    assert all(report.rows_equal.values())
    assert report.r_equal
    assert report.row_pairing == {"D": "D", "C": "H", "H": "C",
                                  "K": "P", "P": "K", "M": "M"}
    # without the parameter flip the pushed rows are not the original's
    unflipped, bad = automorphism_transform(general_family, basis_flip, {})
    assert unflipped.rows != general_family.delta.rows
    assert not all(bad.rows_equal.values()) and not bad.r_equal
    cb, cc = load_eqs("constraints_a.eqs"), load_eqs("constraints_b.eqs")
    cd = load_eqs("constraints_c.eqs")
    assert span_equal([p.substitute(pmap) for p in cb], cc).equal
    assert span_equal([p.substitute(pmap) for p in cc], cb).equal
    assert span_equal([p.substitute(pmap) for p in cd], cd).equal


def test_automorphism_identity(L, general_family):
    eye = [L.gen(g) for g in L.names]
    delta2, report = automorphism_transform(general_family, eye, {})
    assert delta2.rows == general_family.delta.rows
    assert all(report.rows_equal.values()) and report.r_equal


def test_automorphism_rejects_non_automorphism(L, general_family):
    bad = [L.gen(g) for g in L.names]
    bad[0] = L.element({"D": 1, "C": 1})   # D -> D + C is not one here
    with pytest.raises(ValueError, match="not a Lie algebra automorphism"):
        automorphism_transform(general_family, bad, {})


def test_impose_primitive_dilation(L, general_family):
    fam, rep = impose_primitive(general_family, "D")
    assert set(rep.surviving) == {"c1", "c2"}
    assert rep.forced_zero == ("c3",)
    assert not fam.constraints
    assert fam.r == families.load_rmatrix("d-primitive")
    assert fam.delta.row("D").is_zero()


def test_impose_primitive_translation(L, general_family):
    fam, rep = impose_primitive(general_family, "P")
    assert set(rep.surviving) == {"a1", "a3", "a4", "a5", "b3", "c1"}
    assert rep.bindings["c2"] == V("c1")
    assert span_equal(list(fam.constraints),
                      [V("a1") * V("a4") + V("a5") * V("c1")]).equal
    assert fam.r == families.load_rmatrix("p-primitive")
    fixture = formats.parse_delta(
        formats.load_table("p_primitive.delta"), L)
    assert fam.delta == fixture


def test_impose_primitive_time(L, general_family):
    fam, rep = impose_primitive(general_family, "H")
    assert set(rep.surviving) == {"a2", "a3", "a4", "a5", "c2"}
    assert rep.bindings["a1"].is_zero()
    assert rep.bindings["b6"].is_zero()
    assert span_equal(list(fam.constraints),
                      [V("a2") * V("a3") + V("a5") * V("c2")]).equal
    # the standard subfamily: substitute a5 = -a2 a3 / c2
    std = fam.substitute({"a5": -V("a2") * V("a3") / V("c2")})
    assert all(c.is_zero() for c in std.constraints)
    assert std.r == families.load_rmatrix("h-primitive-standard")
    # the non-standard subfamily: c2 = 0 forces a2 a3 = 0; take a3 = 0
    ns = specialize(fam, {"c2": 0, "a3": 0})
    assert ns.r == families.load_rmatrix("h-primitive-nonstandard")
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


# ---------------------------------------------------------------------------
# the matrices built from the ad table against the symbolic extraction
# ---------------------------------------------------------------------------

ALGEBRAS = {"schrodinger": schrodinger.algebra()}
ALGEBRAS.update((t, formats.parse_algebra(formats.load_table(t + ".alg")))
                for t in ("galilei", "gl2", "oscillator", "twophoton"))


def _symbolic_cocycle_kernel(L):
    """The cocycle kernel read back from the residual of a cocommutator whose
    every coefficient is an unknown symbol."""
    pairs = list(combinations(range(L.dim), 2))
    names = [[f"f{i+1}_{p+1}{q+1}" for p, q in pairs] for i in range(L.dim)]
    delta = Cocommutator(L, [WedgeElement(L, 2, dict(zip(pairs, map(V, row))))
                             for row in names])
    eqs = [c for _, res in cocycle_residual(delta)
           for c in res.terms.values()]
    unknowns = [u for row in names for u in row]
    mat, rest = linear_system_from(eqs, unknowns)
    assert not any(rest)
    return nullspace(mat, len(unknowns))


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_cocycle_solve_matches_symbolic_extraction(name):
    L = ALGEBRAS[name]
    sol = cocycle_solve(L)
    basis = _symbolic_cocycle_kernel(L)
    assert sol.basis == tuple(tuple(v) for v in basis)
    assert sol.dim == len(basis)
    # the general cocycle is the kernel with the parameters inserted
    rows = [WedgeElement(L, 2, {}) for _ in range(L.dim)]
    for vec, p in zip(basis, sol.params):
        for (g, pr), v in zip(sol.unknown_layout, vec):
            if v:
                rows[g] = rows[g] + WedgeElement(L, 2, {pr: V(p) * v})
    assert sol.cocommutator == Cocommutator(L, rows)
    assert cocycle_residual(sol.cocommutator) == []


def _symbolic_coboundary_match(L, delta):
    """solve_linear on the system read back from delta_from_r of a wedge
    whose every coefficient is an unknown symbol."""
    pairs = list(combinations(range(L.dim), 2))
    unknowns = [f"_r{i+1}_{j+1}" for i, j in pairs]
    r = WedgeElement(L, 2, dict(zip(pairs, map(V, unknowns))))
    dr = delta_from_r(r)
    eqs = [dr.rows[g].coeff(pr) - delta.rows[g].coeff(pr)
           for g in range(L.dim) for pr in pairs]
    mat, rest = linear_system_from(eqs, unknowns)
    particular, null_basis, conditions, _ = solve_linear(
        mat, [-p for p in rest], len(unknowns))
    return (WedgeElement(L, 2, dict(zip(pairs, particular))),
            tuple(WedgeElement(L, 2, dict(zip(pairs, vec)))
                  for vec in null_basis),
            tuple(normalize_constraints(conditions)))


def test_coboundary_match_matches_symbolic_extraction(L, general_family):
    gal = ALGEBRAS["galilei"]
    xi, b4 = V("xi"), V("beta4")
    galilei_rows = {"K": [(xi, "K", "M")], "H": [(b4 - xi, "H", "M")],
                    "P": [(b4, "P", "M")], "M": []}
    cases = [
        (L, appendix_delta(L)),
        (L, general_family.delta),
        (L, Cocommutator(L, [WedgeElement(L, 2, {})] * L.dim)),
        (L, Cocommutator(L, [WedgeElement.from_pairs(L, [(V("u"), "D", "P")])]
                         * L.dim)),
        (gal, Cocommutator(gal, [WedgeElement.from_pairs(gal, galilei_rows[g])
                                 for g in gal.names])),
    ]
    for alg, delta in cases:
        cm = coboundary_match(delta)
        assert (cm.r, cm.kernel, cm.residual) == \
            _symbolic_coboundary_match(alg, delta)


def test_invariant_wedge3_axes(L):
    assert _invariant_wedge3_axes(L) == ((3, 4, 5),)      # K^P^M


def test_invariant_wedge3_axes_are_built_once_per_algebra(L, monkeypatch):
    """The axes are one tuple per algebra instance: a second call on the
    same instance solves no nullspace, while an equal algebra parsed afresh
    and a different algebra each build their own."""
    calls = []
    real = bialgebra.invariant_kernel

    def counting(alg, *args):
        calls.append(alg)
        return real(alg, *args)

    monkeypatch.setattr(bialgebra, "invariant_kernel", counting)
    _invariant_wedge3_axes(L)
    calls.clear()
    fresh = formats.parse_algebra(formats.load_table("schrodinger.alg"))
    gl2 = formats.parse_algebra(formats.load_table("gl2.alg"))
    first = _invariant_wedge3_axes(fresh)
    assert type(first) is tuple and first == _invariant_wedge3_axes(L)
    assert _invariant_wedge3_axes(fresh) is first
    assert _invariant_wedge3_axes(gl2) == ((0, 1, 2),)    # J3^Jp^Jm
    assert _invariant_wedge3_axes(gl2) is _invariant_wedge3_axes(gl2)
    assert _invariant_wedge3_axes(L) is _invariant_wedge3_axes(L)
    assert calls == [fresh, gl2] and calls[0] is fresh
    # the family built from them is still computed on every call
    r = families.load_rmatrix("d-primitive")
    assert rmatrix_family(r) is not rmatrix_family(r)
    assert len(calls) == 2


def test_tampered_bracket_changes_kernel_and_axes(L):
    """Negative control: flipping the sign of [D,P] changes the ad table,
    and with it the cocycle kernel and the invariant Lambda^3 axes."""
    bad = formats.parse_algebra(formats.load_table("schrodinger.alg").replace(
        "[D,P] = -P", "[D,P] = P"), check_jacobi=False)
    assert bad.ad_table(2, True) != L.ad_table(2, True)
    assert cocycle_solve(bad).dim == 3
    assert _invariant_wedge3_axes(bad) == ()
    assert cocycle_solve(bad).basis == tuple(
        tuple(v) for v in _symbolic_cocycle_kernel(bad))


@pytest.mark.parametrize("name", list(families.FAMILIES))
def test_family_delta_table_is_the_coboundary_of_its_r_matrix(name):
    """Every family's transcribed cocommutator table is delta_from_r of its
    r-matrix table."""
    spec = families.FAMILIES[name]
    assert formats.table(spec.delta_table) == \
        delta_from_r(families.load_rmatrix(name))


def test_a_flipped_sign_in_a_family_delta_table_is_caught(L):
    """Negative control: line 3 of ``h_primitive_standard.delta`` with its
    first ' + ' flipped to ' - ' is no longer the coboundary of its
    r-matrix."""
    lines = formats.load_table("h_primitive_standard.delta").split("\n")
    flipped = lines[2].replace(" + ", " - ", 1)
    assert flipped != lines[2]
    lines[2] = flipped
    assert formats.parse_delta("\n".join(lines), L) != \
        delta_from_r(families.load_rmatrix("h-primitive-standard"))
