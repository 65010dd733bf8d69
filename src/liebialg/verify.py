"""The one-shot reproduction suite: every acceptance check, exactly once.

Each criterion function returns a list of (name, ok, payload) triples; all
comparisons are exact symbolic identities.  The CLI command ``verify`` runs
everything and prints one line per criterion.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .symkernel import PolyExpr, Q, span_equal, span_rank
from .liealg import (WedgeElement, ad_tensor, schouten, jacobi_residual,
                     invariant_tensors, LieAlgebra)
from .bialgebra import (delta_from_r, cocycle_residual, cocycle_solve,
                        cojacobi_constraints, coboundary_match,
                        automorphism_transform, impose_primitive, Cocommutator,
                        normalize_constraints)
from .embed import proposition_rmatrix
from . import formats, schrodinger, families, sklyanin, hopfdeform


def _check(name, ok, payload=""):
    return (name, bool(ok), payload)


def _L():
    return schrodinger.algebra()


def _general_family(L=None):
    return families.family("general", L or _L())


def _transcribed_19():
    return (formats.parse_eqs(formats.load_table("constraints_a.eqs")),
            formats.parse_eqs(formats.load_table("constraints_b.eqs")),
            formats.parse_eqs(formats.load_table("constraints_c.eqs")))


def _appendix_delta(L):
    _, d = formats.parse_delta(formats.load_table("cocycle_general.delta"), L)
    return d


# --------------------------------------------------------------------- 1 ---
def criterion_1():
    """Classical table: Jacobi identity and the matrix representation."""
    L = _L()
    checks = [_check("jacobi-residual-zero", not jacobi_residual(L))]
    rep = sklyanin.rep_matrices()

    def mat_mul(A, B):
        return tuple(tuple(sum(A[i][t] * B[t][j] for t in range(4))
                           for j in range(4)) for i in range(4))

    def mat_sub(A, B):
        return tuple(tuple(a - b for a, b in zip(r1, r2))
                     for r1, r2 in zip(A, B))

    ok = True
    for i, j in combinations(range(L.dim), 2):
        x, y = L.names[i], L.names[j]
        comm = mat_sub(mat_mul(rep[x], rep[y]), mat_mul(rep[y], rep[x]))
        want = tuple(tuple(sum(Fraction(c) * rep[L.names[k]][r][s]
                               for k, c in L.sc(i, j).items())
                           for s in range(4)) for r in range(4))
        if comm != want:
            ok = False
    checks.append(_check("matrix-rep-realizes-brackets", ok))
    checks.append(_check("matrix-rep-traceless",
                         all(sum(rep[g][t][t] for t in range(4)) == 0
                             for g in L.names)))
    return checks


# --------------------------------------------------------------------- 2 ---
def criterion_2():
    """Cocycle solver: 15-dimensional kernel and the explicit basis change."""
    L = _L()
    sol = cocycle_solve(L)
    checks = [_check("cocycle-kernel-dimension-15", sol.dim == 15,
                     f"dim = {sol.dim}")]
    apdelta = _appendix_delta(L)
    checks.append(_check("appendix-solution-is-cocycle",
                         not cocycle_residual(L, apdelta)))

    # express both bases as vectors over the unknown layout
    def vec_of(delta):
        out = []
        for gi, pr in sol.unknown_layout:
            out.append(delta.rows[gi].coeff(pr))
        return out

    alphas = [f"alpha{t}" for t in range(1, 16)]
    fixture_vecs = []
    for name in alphas:
        point = {nm: (1 if nm == name else 0) for nm in alphas}
        fixture_vecs.append([c.substitute(point) for c in vec_of(apdelta)])
    kernel_vecs = [[PolyExpr.const(v) for v in kv] for kv in sol.basis]

    # span comparison via linear polynomials in placeholder unknowns
    unames = [f"u{t}" for t in range(len(sol.unknown_layout))]
    def as_poly(vec):
        out = PolyExpr.zero()
        for nm, c in zip(unames, vec):
            out = out + PolyExpr.var(nm) * c
        return out

    fixture_polys = [as_poly(v) for v in fixture_vecs]
    wit = span_equal(fixture_polys, [as_poly(v) for v in kernel_vecs])
    checks.append(_check("appendix-parameters-span-kernel", wit.equal))
    if wit.equal:
        # invertibility of the change of basis: both directions exist, and
        # the fixture vectors are independent
        checks.append(_check("basis-change-invertible",
                             span_rank(fixture_polys) == 15,
                             "change-of-basis rows: " +
                             "; ".join(",".join(str(x) for x in row)
                                       for row in wit.a_in_b)))
    return checks


# --------------------------------------------------------------------- 3 ---
def criterion_3():
    """The 19 equations, in both parameterizations."""
    L = _L()
    apdelta = _appendix_delta(L)
    gen = cojacobi_constraints(L, apdelta)
    apf = formats.parse_eqs(formats.load_table("cocycle_constraints_a.eqs"))
    apg = formats.parse_eqs(formats.load_table("cocycle_constraints_b.eqs"))
    aph = formats.parse_eqs(formats.load_table("cocycle_constraints_c.eqs"))
    checks = [_check("cojacobi-span-matches-cocycle-constraints",
                     span_equal(gen, apf + apg + aph).equal,
                     f"generated {len(gen)} polynomials")]
    ident = formats.parse_subs(formats.load_table("identification.subs"))
    cb, cc, cd = _transcribed_19()
    subbed = normalize_constraints(p.substitute(ident) for p in gen)
    checks.append(_check("identified-span-matches-rmatrix-constraints",
                         span_equal(subbed, cb + cc + cd).equal))
    fam = _general_family(L)
    checks.append(_check("generated-family-constraints-match-transcription",
                         span_equal(list(fam.constraints), cb + cc + cd).equal))
    return checks


# --------------------------------------------------------------------- 4 ---
def criterion_4():
    """Coboundary theorem: delta table and the cocycle-to-r matching."""
    L = _L()
    fam = _general_family(L)
    _, ci = formats.parse_delta(
        formats.load_table("cocommutators_general.delta"), L)
    checks = [_check("general-delta-equals-table", fam.delta == ci)]
    apdelta = _appendix_delta(L)
    cm = coboundary_match(L, apdelta)
    checks.append(_check("general-cocycle-is-coboundary",
                         cm.is_coboundary and not cm.kernel,
                         f"residual {len(cm.residual)}, "
                         f"kernel {len(cm.kernel)}"))
    ident = formats.parse_subs(formats.load_table("identification.subs"))
    checks.append(_check("matched-r-is-general-r-under-identification",
                         cm.r.substitute(ident) == fam.r))
    checks.append(_check("matched-r-reproduces-cocycle",
                         delta_from_r(L, cm.r) == apdelta))
    zero = Cocommutator(L, [WedgeElement(L, 2, {})] * L.dim)
    cm0 = coboundary_match(L, zero)
    checks.append(_check("coboundary-kernel-trivial",
                         cm0.is_coboundary and not cm0.kernel
                         and cm0.r.is_zero()))
    return checks


# --------------------------------------------------------------------- 5 ---
def criterion_5():
    """Schouten bracket of the general r-matrix."""
    L = _L()
    fam = _general_family(L)
    V = PolyExpr.var
    disc_expected = (V("a3") * V("a6") + V("b3") * V("b6") - V("a3") * V("b1")
                     - V("a1") * V("b3") - V("c2") ** 2)
    checks = [_check("discriminant-coefficient", fam.discriminant == disc_expected,
                     str(fam.discriminant))]
    s3 = schouten(fam.r)
    cb, cc, cd = _transcribed_19()
    kmp = tuple(L.index(g) for g in ("K", "P", "M"))
    others = [c for key, c in s3.terms.items() if key != kmp]
    wit = span_equal(others + cb + cc + cd, cb + cc + cd)
    checks.append(_check("off-invariant-components-vanish-on-variety",
                         wit.equal,
                         "each remaining Schouten component lies in the "
                         "span of the 19 constraints"))
    inv_part = WedgeElement.from_pairs(L, [(fam.discriminant, "K", "M", "P")],
                                       degree=3)
    checks.append(_check("invariant-direction-ad-invariant",
                         all(ad_tensor(L.gen(g), inv_part).is_zero()
                             for g in L.names)))
    return checks


# --------------------------------------------------------------------- 6 ---
def criterion_6():
    """Ad-invariant tensors."""
    L = _L()
    basis = invariant_tensors(L, 2)
    mm = (L.index("M"), L.index("M"))
    ok = (len(basis) == 1 and set(basis[0].terms) == {mm})
    return [_check("invariant-tensors-span-MxM", ok,
                   "; ".join(str(t) for t in basis))]


# --------------------------------------------------------------------- 7 ---
def criterion_7():
    """The bialgebra automorphism: swapped and preserved structure."""
    L = _L()
    fam = _general_family(L)
    pmap = formats.parse_subs(formats.load_table("parameter_flip.subs"))
    gmat = [[c.const_value() for c in row.coeffs] for row in
            (formats.parse_map(formats.load_table("basis_flip.map"), L)[g]
             for g in L.names)]
    fam2, report = automorphism_transform(fam, gmat, pmap)
    checks = [
        _check("transformed-family-equals-original",
               all(report.rows_equal.values()) and report.r_equal),
        _check("rows-pair-P-K-and-H-C",
               report.row_pairing["P"] == "K" and report.row_pairing["K"] == "P"
               and report.row_pairing["H"] == "C"
               and report.row_pairing["C"] == "H"
               and report.row_pairing["D"] == "D"
               and report.row_pairing["M"] == "M"),
    ]
    cb, cc, cd = _transcribed_19()
    sub = lambda polys: [p.substitute(pmap) for p in polys]
    checks.append(_check("first-and-second-sets-interchange",
                         span_equal(sub(cb), cc).equal
                         and span_equal(sub(cc), cb).equal))
    checks.append(_check("third-set-invariant", span_equal(sub(cd), cd).equal))
    checks.append(_check("discriminant-invariant",
                         fam.discriminant.substitute(pmap) == fam.discriminant))
    return checks


# --------------------------------------------------------------------- 8 ---
def criterion_8():
    """The primitive-generator families."""
    L = _L()
    fam = _general_family(L)
    V = PolyExpr.var
    checks = []
    fD, rD = impose_primitive(fam, "D")
    checks.append(_check(
        "D-primitive", set(rD.surviving) == {"c1", "c2"}
        and rD.forced_zero == ("c3",) and not fD.constraints
        and fD.r == families.load_rmatrix("d-primitive", L),
        f"surviving {rD.surviving}, forced {rD.forced_zero}"))
    fP, rP = impose_primitive(fam, "P")
    ok_p = (set(rP.surviving) == {"a1", "a3", "a4", "a5", "b3", "c1"}
            and rP.bindings.get("c2") == V("c1")
            and span_equal(list(fP.constraints),
                           [V("a1") * V("a4") + V("a5") * V("c1")]).equal
            and fP.r == families.load_rmatrix("p-primitive", L))
    checks.append(_check("P-primitive", ok_p,
                         f"surviving {rP.surviving}, constraints "
                         + "; ".join(str(c) for c in fP.constraints)))
    fH, rH = impose_primitive(fam, "H")
    ok_h = (set(rH.surviving) == {"a2", "a3", "a4", "a5", "c2"}
            and rH.bindings.get("a1") == PolyExpr.zero()
            and rH.bindings.get("b6") == PolyExpr.zero()
            and span_equal(list(fH.constraints),
                           [V("a2") * V("a3") + V("a5") * V("c2")]).equal)
    checks.append(_check("H-primitive", ok_h,
                         f"surviving {rH.surviving}, constraints "
                         + "; ".join(str(c) for c in fH.constraints)))
    return checks


# --------------------------------------------------------------------- 9 ---
def criterion_9():
    """Sub-bialgebra embeddings and the three propositions."""
    L = _L()
    fam = _general_family(L)
    checks = []
    expected_free = {"oscillator": (), "gl2": ("c2",), "galilei": ("a3",)}
    expected_forced = {"oscillator": (), "gl2": (), "galilei": ("beta6",)}
    expected_matching = {"oscillator": set(), "gl2": set(),
                         "galilei": {"alpha", "beta5", "nu"}}
    for name in ("oscillator", "gl2", "galilei"):
        spec = families.EMBEDDINGS[name]
        report, target, span = families.run_embedding(name, fam)
        binds = formats.parse_subs(formats.load_table(spec.bindings_table))
        forced = {p: PolyExpr.zero() for p in report.forced_zero}
        want_binds = {k: v.substitute(forced) for k, v in binds.items()}
        got = dict(report.bindings)
        for p in report.free_parent:
            got.setdefault(p, PolyExpr.var(p))
        ok_b = all(got.get(k) == v for k, v in want_binds.items())
        residual_fix = []
        for t in spec.residual_tables:
            residual_fix.extend(formats.parse_eqs(formats.load_table(t)))
        ok_r = span_equal(list(report.residual), residual_fix).equal
        ok_m = {str(c) for c in report.matching_constraints} == \
            expected_matching[name]
        ok_f = (report.free_parent == expected_free[name]
                and report.forced_zero == expected_forced[name])
        checks.append(_check(
            f"{name}-embedding",
            report.consistent and ok_b and ok_r and ok_m and ok_f,
            f"bindings ok={ok_b}, residual ok={ok_r}, "
            f"matching={sorted(str(c) for c in report.matching_constraints)}, "
            f"free={report.free_parent}, forced={report.forced_zero}"))
        # proposition r-matrix: fixture equality and restriction round trip
        rprop = proposition_rmatrix(fam, report)
        fix_r = formats.parse_rmatrix(
            formats.load_table(families.FAMILIES[name].rmat_table), L)
        dprop = delta_from_r(L, rprop)
        _, fix_delta = formats.parse_delta(
            formats.load_table(families.FAMILIES[name].delta_table), L)
        checks.append(_check(f"{name}-proposition-rmatrix",
                             rprop == fix_r and dprop == fix_delta))
        # restriction onto the subalgebra reproduces the target cocommutators
        rename = formats.parse_map(formats.load_table(spec.map_table), L)
        matching_subs = {}
        for cst in report.matching_constraints:
            ((mono, cf),) = cst.terms.items()
            matching_subs[mono[0][0]] = PolyExpr.zero()
        for p in report.forced_zero:
            matching_subs[p] = PolyExpr.zero()
        from .embed import _rename_tensor2
        phi = [rename[g] for g in target.algebra.names]
        ok_rest = True
        for ti, tg in enumerate(target.algebra.names):
            lhs = _rename_tensor2(target.rows[ti].substitute(matching_subs),
                                  phi, L)
            if not (dprop.of(rename[tg]) - lhs).is_zero():
                ok_rest = False
        checks.append(_check(f"{name}-restriction-reproduces-target", ok_rest))

    # Schouten brackets of the three propositions
    V = PolyExpr.var
    want = {
        "oscillator": V("ap") * V("bm") + V("am") * V("bp") - V("xi") ** 2,
        "gl2": -V("c2") ** 2,
        "galilei": -(V("beta4") + V("xi")) ** 2 * Q(1, 4),
    }
    cb, cc, cd = _transcribed_19()
    for name, disc in want.items():
        r = formats.parse_rmatrix(
            formats.load_table(families.FAMILIES[name].rmat_table), L)
        s3 = schouten(r)
        got = s3.signed_coeff(("K", "M", "P"))
        kmp = tuple(L.index(g) for g in ("K", "P", "M"))
        others = [c for key, c in s3.terms.items() if key != kmp]
        residual_fix = []
        for t in families.EMBEDDINGS[name].residual_tables:
            residual_fix.extend(formats.parse_eqs(formats.load_table(t)))
        off_ok = (not others) or span_equal(
            others + residual_fix, residual_fix).equal
        checks.append(_check(f"{name}-proposition-schouten",
                             got == disc and off_ok, str(got)))

    # standard gl(2) obstruction: the residual set kills the gl(2) Schouten
    report, _, _ = families.run_embedding("gl2", fam)
    jo = formats.parse_eqs(formats.load_table("gl2_obstruction.eqs"))
    wit = span_equal(list(report.residual) + jo, list(report.residual))
    checks.append(_check("gl2-standard-obstruction", wit.equal,
                         "a^2 + ap*am lies in the residual span"))

    # every coboundary Galilei bialgebra embeds
    rstd = formats.parse_rmatrix(formats.load_table("galilei_standard.rmat"), L)
    rns = formats.parse_rmatrix(formats.load_table("galilei_nonstandard.rmat"), L)
    rju = formats.parse_rmatrix(formats.load_table("galilei_family.rmat"), L)
    jt = formats.parse_eqs(formats.load_table("galilei_constraint.eqs"))[0]
    std_sub = {"beta4": PolyExpr.var("xi"), "beta2": 0, "beta3": 0, "a3": 0}
    ns_sub = {"beta4": 0, "xi": 0, "a3": 0}
    checks.append(_check(
        "galilei-coboundary-cases-embed",
        rju.substitute(std_sub) == rstd and rju.substitute(ns_sub) == rns
        and jt.substitute(std_sub).is_zero() and jt.substitute(ns_sub).is_zero()))
    return checks


# -------------------------------------------------------------------- 10 ---
def criterion_10():
    """Poisson-Lie structure: group element, fields, brackets, Jacobi."""
    L = _L()
    checks = []
    g = sklyanin.group_element()
    checks.append(_check("group-element-closed-form",
                         (g - sklyanin.closed_form_group_element()).is_zero()
                         and g.det() == PolyExpr.const(1)))
    ok = True
    for gen in L.names:
        if not sklyanin.invariant_field_check(
                sklyanin.left_field(gen), gen, "left").is_zero():
            ok = False
        if not sklyanin.invariant_field_check(
                sklyanin.right_field(gen), gen, "right").is_zero():
            ok = False
    checks.append(_check("twelve-invariant-field-checks", ok))

    rg = families.load_rmatrix("general", L)
    T = sklyanin.sklyanin_table(rg)
    fixture = formats.parse_ptable(formats.load_table("poisson_general.ptable"))
    checks.append(_check("general-poisson-table-entrywise", T == fixture))
    _, ci = formats.parse_delta(
        formats.load_table("cocommutators_general.delta"), L)
    checks.append(_check("linearization-gives-dual-cocommutators",
                         sklyanin.linearize_table(T) == ci))

    for name in ("d-primitive", "p-primitive", "h-primitive-standard",
                 "h-primitive-nonstandard", "oscillator"):
        spec = families.FAMILIES[name]
        r = families.load_rmatrix(name, L)
        checks.append(_check(f"poisson-jacobi-{name}",
                             sklyanin.poisson_jacobi_on_charts(r, spec.charts),
                             f"{len(spec.charts)} chart(s)"))
        if spec.ptable:
            fixture = formats.parse_ptable(formats.load_table(spec.ptable))
            checks.append(_check(f"poisson-table-{name}",
                                 sklyanin.sklyanin_table(r) == fixture))
    return checks


# -------------------------------------------------------------------- 11 ---
def criterion_11(order=4):
    """Order-N quantum deformations: the `hopf-check` list per case, and the
    classical r-matrix of each case against its cocommutator table."""
    L = _L()
    checks = []
    first_order_delta = {"ucc": "d_primitive.delta",
                         "uac": "hstd_deformation.delta"}
    for name in hopfdeform.CASE_NAMES:
        case = hopfdeform.build_case(name, order)
        checks.extend(_check(f"{name}-{check}", ok, payload) for check, ok,
                      payload in hopfdeform.hopf_checks(case))
        _, fix_delta = formats.parse_delta(
            formats.load_table(first_order_delta[name]), L)
        classical_r = WedgeElement.from_pairs(
            L, [(c, x, y) for c, x, y in case.classical_r_pairs])
        checks.append(_check(f"{name}-first-order-fixture",
                             delta_from_r(L, classical_r) == fix_delta))
    return checks


# -------------------------------------------------------------------- 12 ---
def criterion_12(order=3):
    """Negative controls: the suite can fail."""
    L = _L()
    checks = []
    # tampered structure constant: the sign of [D,P] flipped
    bad = LieAlgebra(L.names, {**schrodinger._BRACKETS, ("D", "P"): {"P": 1}})
    res = jacobi_residual(bad)
    triples = [t for t, _ in res]
    ok = bool(res) and any(set(t) == {"D", "P", "C"} for t in triples)
    checks.append(_check("tampered-table-fails-jacobi", ok,
                         f"nonzero triples: {triples}"))
    try:
        formats.parse_algebra(formats.load_table("schrodinger.alg").replace(
            "[D,P] = -P", "[D,P] = P"))
        checks.append(_check("tampered-file-rejected", False))
    except formats.ParseError as err:
        checks.append(_check("tampered-file-rejected", True, str(err)))

    # flipped relation sign breaks the diamond check
    case = hopfdeform.build_case("uac", order)
    A = case.algebra
    iC, iP = A.names.index("C"), A.names.index("P")
    rels = {k: dict(v) for k, v in A.relations.items()}
    rels[(iP, iC)] = {w: -c for w, c in rels[(iP, iC)].items()}
    broken = hopfdeform.DeformedAlgebra(A.names, rels, A.symbols, A.order)
    dc = hopfdeform.diamond_check(broken)
    bad_overlaps = [k for k, v in dc.items() if v]
    checks.append(_check("flipped-relation-fails-diamond",
                         bool(bad_overlaps),
                         f"nonzero overlaps: {bad_overlaps}"))

    # broken Poisson table fails Jacobi
    r = families.load_rmatrix("general", L).substitute(
        {p: (1 if p == "a2" else 0) for p in schrodinger.ALL_PARAMS})
    T = sklyanin.sklyanin_table(r)
    entries = dict(T.entries)
    entries[("d", "h")] = -entries[("d", "h")]
    broken_table = sklyanin.PoissonTable(entries)
    res = sklyanin.poisson_jacobi(broken_table)
    checks.append(_check("broken-bracket-fails-jacobi",
                         any(v for v in res.values())))

    # span equality fails both ways: a member outside the span, and a
    # proper subspace (the 19 transcribed constraints are independent)
    cons = [c for part in _transcribed_19() for c in part]
    disc = _general_family(L).discriminant
    checks.append(_check("extra-polynomial-breaks-span-equality",
                         not span_equal(cons + [disc], cons).equal))
    checks.append(_check("proper-subspace-breaks-span-equality",
                         not span_equal(cons[1:], cons).equal))
    return checks


CRITERIA = (
    ("1 classical table", criterion_1),
    ("2 cocycle solution", criterion_2),
    ("3 nineteen equations", criterion_3),
    ("4 coboundary theorem", criterion_4),
    ("5 schouten bracket", criterion_5),
    ("6 invariant tensors", criterion_6),
    ("7 automorphism", criterion_7),
    ("8 primitive families", criterion_8),
    ("9 embeddings", criterion_9),
    ("10 poisson-lie", criterion_10),
    ("11 quantum deformations", criterion_11),
    ("12 negative controls", criterion_12),
)


def run_all(order=4):
    """Run every criterion; returns (all_ok, results) with results a list of
    (criterion label, ok, check list)."""
    results = []
    all_ok = True
    for label, fn in CRITERIA:
        checks = fn(order) if fn in (criterion_11,) else fn()
        ok = all(c[1] for c in checks)
        all_ok = all_ok and ok
        results.append((label, ok, checks))
    return all_ok, results
