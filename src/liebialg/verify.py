"""The one-shot reproduction suite: every acceptance check, exactly once.

Each criterion function takes the truncation order of the quantum checks
and returns a list of (name, ok, payload) triples; all comparisons are exact
symbolic identities.  The values several criteria read -- the packaged
tables, the Schrodinger algebra and the general family -- are built once per
process and shared read-only.  The CLI command ``verify`` runs everything and
prints one line per criterion.
"""

from __future__ import annotations

from itertools import combinations

from .symkernel import (PolyExpr, Q, linear_system_from, span_equal,
                        span_rank, substitution)
from .liealg import (WedgeElement, ad_images, jacobi_residual,
                     invariant_tensors, push_wedge2)
from .bialgebra import (delta_from_r, cocycle_residual, cocycle_solve,
                        cojacobi_constraints, coboundary_match,
                        automorphism_transform, impose_primitive, Cocommutator,
                        normalize_constraints)
from .embed import proposition_rmatrix
from . import formats, schrodinger, families, sklyanin, hopfdeform


def _check(name, ok, payload=""):
    return (name, bool(ok), payload)


def _transcribed_19():
    """The transcribed 19 equations, as the three sets of the paper."""
    return tuple(formats.table(f"constraints_{part}.eqs") for part in "abc")


# --------------------------------------------------------------------- 1 ---
def criterion_1(order):
    """Classical table: Jacobi identity and the matrix representation."""
    L = schrodinger.algebra()
    checks = [_check("jacobi-residual-zero", not jacobi_residual(L))]
    mats = sklyanin.rep_matrices()
    rep = {g: sklyanin.GroupMatrix.from_rows(m) for g, m in mats.items()}
    zero = sklyanin.GroupMatrix({})
    ok = all(rep[x] * rep[y] - rep[y] * rep[x]
             == sum((rep[L.names[k]].scale(c)
                     for k, c in L.sc(i, j).items()), zero)
             for (i, x), (j, y) in combinations(enumerate(L.names), 2))
    checks.append(_check("matrix-rep-realizes-brackets", ok))
    checks.append(_check("matrix-rep-traceless",
                         all(sum(mats[g][t][t] for t in range(4)) == 0
                             for g in L.names)))
    return checks


# --------------------------------------------------------------------- 2 ---
def _appendix_vectors(sol, apdelta):
    """The appendix cocycle over the unknown layout of ``sol``: the vector
    of each of its parameters alpha1..alpha15 (the columns of its linear
    system), and the rest of each coefficient that carries no alpha."""
    rows, rest = linear_system_from(
        (apdelta.rows[gi].coeff(pr) for gi, pr in sol.unknown_layout),
        [f"alpha{t}" for t in range(1, 16)])
    return [[row.get(t, 0) for row in rows] for t in range(15)], rest


def criterion_2(order):
    """Cocycle solver: 15-dimensional kernel and the explicit basis change."""
    L = schrodinger.algebra()
    sol = cocycle_solve(L)
    checks = [_check("cocycle-kernel-dimension-15", sol.dim == 15,
                     f"dim = {sol.dim}")]
    apdelta = formats.table("cocycle_general.delta")
    checks.append(_check("appendix-solution-is-cocycle",
                         not cocycle_residual(apdelta)))

    # both bases as vectors over the unknown layout, compared as the spans
    # of linear polynomials in placeholder unknowns
    fixture_vecs, rest = _appendix_vectors(sol, apdelta)
    unames = [f"u{t}" for t in range(len(sol.unknown_layout))]

    def as_poly(vec):
        return PolyExpr({((u, 1),): c for u, c in zip(unames, vec)})

    fixture_polys = [as_poly(v) for v in fixture_vecs]
    wit = span_equal(fixture_polys, [as_poly(v) for v in sol.basis])
    checks.append(_check("appendix-parameters-span-kernel",
                         wit.equal and not any(rest)))
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
def criterion_3(order):
    """The 19 equations, in both parameterizations."""
    apdelta = formats.table("cocycle_general.delta")
    gen = cojacobi_constraints(apdelta)
    cocycle_eqs = [p for part in "abc" for p in
                   formats.table(f"cocycle_constraints_{part}.eqs")]
    checks = [_check("cojacobi-span-matches-cocycle-constraints",
                     span_equal(gen, cocycle_eqs).equal,
                     f"generated {len(gen)} polynomials")]
    ident = formats.table("identification.subs")
    cb, cc, cd = _transcribed_19()
    subbed = normalize_constraints(map(substitution(ident), gen))
    checks.append(_check("identified-span-matches-rmatrix-constraints",
                         span_equal(subbed, cb + cc + cd).equal))
    fam = families.family("general")
    checks.append(_check("generated-family-constraints-match-transcription",
                         span_equal(list(fam.constraints), cb + cc + cd).equal))
    return checks


# --------------------------------------------------------------------- 4 ---
def criterion_4(order):
    """Coboundary theorem: every family's delta table and the
    cocycle-to-r matching."""
    L = schrodinger.algebra()
    fam = families.family("general")
    checks = [_check(f"{name}-delta-equals-table",
                     delta_from_r(families.load_rmatrix(name))
                     == formats.table(spec.delta_table))
              for name, spec in families.FAMILIES.items()]
    apdelta = formats.table("cocycle_general.delta")
    cm = coboundary_match(apdelta)
    checks.append(_check("general-cocycle-is-coboundary",
                         cm.is_coboundary and not cm.kernel,
                         f"residual {len(cm.residual)}, "
                         f"kernel {len(cm.kernel)}"))
    ident = formats.table("identification.subs")
    checks.append(_check("matched-r-is-general-r-under-identification",
                         cm.r.substitute(ident) == fam.r))
    checks.append(_check("matched-r-reproduces-cocycle",
                         delta_from_r(cm.r) == apdelta))
    zero = Cocommutator(L, [WedgeElement(L, 2, {})] * L.dim)
    cm0 = coboundary_match(zero)
    checks.append(_check("coboundary-kernel-trivial",
                         cm0.is_coboundary and not cm0.kernel
                         and cm0.r.is_zero()))
    return checks


# --------------------------------------------------------------------- 5 ---
def criterion_5(order):
    """Schouten bracket of the general r-matrix."""
    L = schrodinger.algebra()
    fam = families.family("general")
    V = PolyExpr.var
    disc_expected = (V("a3") * V("a6") + V("b3") * V("b6") - V("a3") * V("b1")
                     - V("a1") * V("b3") - V("c2") ** 2)
    checks = [_check("discriminant-coefficient", fam.discriminant == disc_expected,
                     str(fam.discriminant))]
    cb, cc, cd = _transcribed_19()
    wit = span_equal([*fam.constraints, *cb, *cc, *cd], cb + cc + cd)
    checks.append(_check("off-invariant-components-vanish-on-variety",
                         wit.equal,
                         "each remaining Schouten component lies in the "
                         "span of the 19 constraints"))
    inv_part = WedgeElement.from_pairs(
        L, [(fam.discriminant, *schrodinger.INVARIANT_WEDGE)], degree=3)
    checks.append(_check("invariant-direction-ad-invariant",
                         all(img.is_zero() for img in ad_images(inv_part))))
    return checks


# --------------------------------------------------------------------- 6 ---
def criterion_6(order):
    """Ad-invariant tensors."""
    L = schrodinger.algebra()
    basis = invariant_tensors(L)
    mm = (L.index("M"), L.index("M"))
    ok = (len(basis) == 1 and set(basis[0].terms) == {mm})
    return [_check("invariant-tensors-span-MxM", ok,
                   "; ".join(str(t) for t in basis))]


# --------------------------------------------------------------------- 7 ---
def criterion_7(order):
    """The bialgebra automorphism: swapped and preserved structure."""
    L = schrodinger.algebra()
    fam = families.family("general")
    psub = substitution(formats.table("parameter_flip.subs"))
    flip = formats.table("basis_flip.map")
    _, report = automorphism_transform(fam, [flip[g] for g in L.names], psub)
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
    sub = lambda polys: list(map(psub, polys))
    checks.append(_check("first-and-second-sets-interchange",
                         span_equal(sub(cb), cc).equal
                         and span_equal(sub(cc), cb).equal))
    checks.append(_check("third-set-invariant", span_equal(sub(cd), cd).equal))
    checks.append(_check("discriminant-invariant",
                         psub(fam.discriminant) == fam.discriminant))
    return checks


# --------------------------------------------------------------------- 8 ---
def criterion_8(order):
    """The primitive-generator families."""
    fam = families.family("general")
    V = PolyExpr.var
    checks = []
    fD, rD = impose_primitive(fam, "D")
    checks.append(_check(
        "D-primitive", set(rD.surviving) == {"c1", "c2"}
        and rD.forced_zero == ("c3",) and not fD.constraints
        and fD.r == families.load_rmatrix("d-primitive"),
        f"surviving {rD.surviving}, forced {rD.forced_zero}"))
    fP, rP = impose_primitive(fam, "P")
    ok_p = (set(rP.surviving) == {"a1", "a3", "a4", "a5", "b3", "c1"}
            and rP.bindings.get("c2") == V("c1")
            and span_equal(list(fP.constraints),
                           [V("a1") * V("a4") + V("a5") * V("c1")]).equal
            and fP.r == families.load_rmatrix("p-primitive"))
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
def criterion_9(order):
    """Sub-bialgebra embeddings and the three propositions."""
    fam = families.family("general")
    checks = []
    expected_free = {"oscillator": (), "gl2": ("c2",), "galilei": ("a3",)}
    expected_forced = {"oscillator": (), "gl2": (), "galilei": ("beta6",)}
    expected_matching = {"oscillator": set(), "gl2": set(),
                         "galilei": {"alpha", "beta5", "nu"}}
    reports = {}
    for name in ("oscillator", "gl2", "galilei"):
        spec = families.EMBEDDINGS[name]
        report, target = families.run_embedding(name, fam)
        reports[name] = report
        binds = formats.table(spec.bindings_table)
        forced = {p: PolyExpr.zero() for p in report.forced_zero}
        want_binds = {k: v.substitute(forced) for k, v in binds.items()}
        got = dict(report.bindings)
        for p in report.free_parent:
            got.setdefault(p, PolyExpr.var(p))
        ok_b = all(got.get(k) == v for k, v in want_binds.items())
        residual_fix = [p for t in spec.residual_tables
                        for p in formats.table(t)]
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
        # proposition r-matrix: fixture equality (its delta table is
        # criterion 4's) and restriction round trip
        rprop = proposition_rmatrix(fam, report)
        checks.append(_check(f"{name}-proposition-rmatrix",
                             rprop == families.load_rmatrix(name)))
        dprop = delta_from_r(rprop)
        # restriction onto the subalgebra reproduces the target cocommutators
        rename = formats.table(spec.map_table)
        images = [rename[g] for g in target.algebra.names]
        ok_rest = all(
            dprop.of(img)
            == push_wedge2(row.substitute(report.target_bindings), images)
            for img, row in zip(images, target.rows))
        checks.append(_check(f"{name}-restriction-reproduces-target", ok_rest))

    # Schouten brackets of the three propositions
    V = PolyExpr.var
    want = {
        "oscillator": V("ap") * V("bm") + V("am") * V("bp") - V("xi") ** 2,
        "gl2": -V("c2") ** 2,
        "galilei": -(V("beta4") + V("xi")) ** 2 * Q(1, 4),
    }
    for name, disc in want.items():
        prop = families.family(name)
        residual_fix = [p for t in families.EMBEDDINGS[name].residual_tables
                        for p in formats.table(t)]
        off_ok = (not prop.constraints) or span_equal(
            [*prop.constraints, *residual_fix], residual_fix).equal
        checks.append(_check(f"{name}-proposition-schouten",
                             prop.discriminant == disc and off_ok,
                             str(prop.discriminant)))

    # standard gl(2) obstruction: the residual set kills the gl(2) Schouten
    residual = list(reports["gl2"].residual)
    jo = formats.table("gl2_obstruction.eqs")
    wit = span_equal(residual + list(jo), residual)
    checks.append(_check("gl2-standard-obstruction", wit.equal,
                         "a^2 + ap*am lies in the residual span"))

    # every coboundary Galilei bialgebra embeds
    rstd = formats.table("galilei_standard.rmat")
    rns = formats.table("galilei_nonstandard.rmat")
    rju = formats.table("galilei_family.rmat")
    (jt,) = formats.table("galilei_constraint.eqs")
    std_sub = {"beta4": PolyExpr.var("xi"), "beta2": 0, "beta3": 0, "a3": 0}
    ns_sub = {"beta4": 0, "xi": 0, "a3": 0}
    checks.append(_check(
        "galilei-coboundary-cases-embed",
        rju.substitute(std_sub) == rstd and rju.substitute(ns_sub) == rns
        and jt.substitute(std_sub).is_zero() and jt.substitute(ns_sub).is_zero()))
    return checks


# -------------------------------------------------------------------- 10 ---
def criterion_10(order):
    """Poisson-Lie structure: group element, fields, brackets, Jacobi."""
    L = schrodinger.algebra()
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

    rg = families.load_rmatrix("general")
    T = sklyanin.sklyanin_table(rg)
    fixture = formats.table("poisson_general.ptable")
    checks.append(_check("general-poisson-table-entrywise", T == fixture))
    ci = formats.table("cocommutators_general.delta")
    checks.append(_check("linearization-gives-dual-cocommutators",
                         sklyanin.linearize_table(T) == ci))

    for name in ("d-primitive", "p-primitive", "h-primitive-standard",
                 "h-primitive-nonstandard", "oscillator"):
        spec = families.FAMILIES[name]
        r = families.load_rmatrix(name)
        checks.append(_check(f"poisson-jacobi-{name}",
                             *sklyanin.poisson_jacobi_check(r, spec.charts)))
        if spec.ptable:
            fixture = formats.table(spec.ptable)
            checks.append(_check(f"poisson-table-{name}",
                                 sklyanin.sklyanin_table(r) == fixture))
    return checks


# -------------------------------------------------------------------- 11 ---
def criterion_11(order):
    """Order-N quantum deformations: the `hopf-check` list per case."""
    return [_check(f"{name}-{check}", ok, payload)
            for name in hopfdeform.CASE_NAMES
            for check, ok, payload
            in hopfdeform.hopf_checks(hopfdeform.build_case(name, order))]


# -------------------------------------------------------------------- 12 ---
# The flipped [P,C] relation breaks the overlaps (C,H,K) and (C,H,P) already
# at deformation degree 0, and the same four overlaps fail at every order
# from 1 to 4, so a low order keeps this control cheap without weakening it.
NEGATIVE_CONTROL_ORDER = 3


def criterion_12(order):
    """Negative controls: the suite can fail."""
    checks = []
    # tampered structure constant: the sign of [D,P] flipped
    tampered = formats.load_table("schrodinger.alg").replace(
        "[D,P] = -P", "[D,P] = P")
    res = jacobi_residual(formats.parse_algebra(tampered, check_jacobi=False))
    triples = [t for t, _ in res]
    ok = bool(res) and any(set(t) == {"D", "P", "C"} for t in triples)
    checks.append(_check("tampered-table-fails-jacobi", ok,
                         f"nonzero triples: {triples}"))
    try:
        formats.parse_algebra(tampered)
        checks.append(_check("tampered-file-rejected", False))
    except formats.ParseError as err:
        checks.append(_check("tampered-file-rejected", True, str(err)))

    # flipped relation sign breaks the diamond check
    case = hopfdeform.build_case("uac", NEGATIVE_CONTROL_ORDER)
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
    fam = families.family("general")
    r = fam.r.substitute({p: (1 if p == "a2" else 0) for p in fam.params})
    T = sklyanin.sklyanin_table(r)
    entries = dict(T.terms)
    entries[("d", "h")] = -entries[("d", "h")]
    broken_table = sklyanin.PoissonTable(entries)
    res = sklyanin.poisson_jacobi(broken_table)
    checks.append(_check("broken-bracket-fails-jacobi",
                         any(v for v in res.values())))

    # span equality fails both ways: a member outside the span, and a
    # proper subspace (the 19 transcribed constraints are independent)
    cons = [c for part in _transcribed_19() for c in part]
    disc = fam.discriminant
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
    """Run every criterion at one truncation order; returns (all_ok,
    results) with results a list of (criterion label, ok, check list).
    A negative order raises ValueError before any criterion runs.  A
    criterion that raises a ValueError other than ``formats.ParseError``
    fails, with the message as its one check's payload."""
    if order < 0:
        raise ValueError("order must be >= 0")
    results = []
    all_ok = True
    for label, fn in CRITERIA:
        try:
            checks = fn(order)
        except formats.ParseError:
            raise
        except ValueError as err:
            checks = [_check("ran-to-completion", False, str(err))]
        ok = all(c[1] for c in checks)
        all_ok = all_ok and ok
        results.append((label, ok, checks))
    return all_ok, results
