import dataclasses
import functools
import random

import pytest

from liebialg.symkernel import PolyExpr, Q
from liebialg.hopfdeform import (DeformedAlgebra, build_case, diamond_check,
                                 hopf_axiom_residuals, antipode_solve,
                                 first_order_check, universal_r_check,
                                 hopf_checks, deformation_slice, series_eq,
                                 MalformedAlgebraError, CASE_NAMES)
from liebialg import schrodinger

V = PolyExpr.var
N_ORDER = 4


@pytest.fixture(scope="module")
def ucc():
    return build_case("ucc", N_ORDER)


@pytest.fixture(scope="module")
def uac():
    return build_case("uac", N_ORDER)


def idx(case, g):
    return case.algebra.names.index(g)


def test_case_names():
    assert set(CASE_NAMES) == {"ucc", "uac"}
    with pytest.raises(KeyError):
        build_case("nope")


def test_normal_form_pk(ucc):
    A = ucc.algebra
    iK, iP, iM = (idx(ucc, g) for g in "KPM")
    nf = A.to_poly(A.nf_word((iP, iK)))
    c2 = V("c2")
    # P K = K P - M + c2 M^2 - 2/3 c2^2 M^3 + 1/3 c2^3 M^4 - ...
    assert nf[(iK, iP)] == PolyExpr.const(1)
    assert nf[(iM,)] == PolyExpr.const(-1)
    assert nf[(iM, iM)] == c2
    assert nf[(iM,) * 3] == -Q(2, 3) * c2 ** 2
    assert nf[(iM,) * 4] == Q(1, 3) * c2 ** 3


def test_normal_form_ordered_word(ucc):
    A = ucc.algebra
    word = (0, 2, 4)
    assert A.to_poly(A.nf_word(word)) == {word: PolyExpr.const(1)}


def test_normal_form_hd(uac):
    A = uac.algebra
    iD, iH = idx(uac, "D"), idx(uac, "H")
    nf = A.to_poly(A.nf_word((iH, iD)))
    a2 = V("a2")
    # H D = D H + 2 H - 2 a2 H^2 + 4/3 a2^2 H^3 - 2/3 a2^3 H^4 ...
    assert nf[(iD, iH)] == PolyExpr.const(1)
    assert nf[(iH,)] == PolyExpr.const(2)
    assert nf[(iH, iH)] == -2 * a2
    assert nf[(iH,) * 3] == Q(4, 3) * a2 ** 2
    assert nf[(iH,) * 4] == -Q(2, 3) * a2 ** 3


def test_normal_form_idempotent(uac):
    A = uac.algebra
    rng = random.Random(2)
    for _ in range(12):
        word = tuple(rng.randrange(A.n) for _ in range(rng.randint(0, 5)))
        nf = A.nf_word(word)
        assert series_eq(A.to_poly(A.nf(nf)), A.to_poly(nf))


def test_normal_form_multiplicative(uac):
    A = uac.algebra
    rng = random.Random(9)
    for _ in range(10):
        w1 = tuple(rng.randrange(A.n) for _ in range(rng.randint(1, 3)))
        w2 = tuple(rng.randrange(A.n) for _ in range(rng.randint(1, 3)))
        raw = A.nf(A.from_poly({w1 + w2: PolyExpr.const(1)}))
        split = A.mul(A.nf_word(w1), A.nf_word(w2))
        assert series_eq(raw, split)


def test_normal_form_path_independence(uac):
    """Reducing with a randomized strategy agrees with the deterministic one."""
    A = uac.algebra
    rng = random.Random(17)

    def reduce_random(series):
        series = {tuple(w): PolyExpr(dict(c.terms), c.inv)
                  for w, c in series.items()}
        while True:
            pick = None
            for w in sorted(series):
                descents = [t for t in range(len(w) - 1) if w[t] > w[t + 1]]
                if descents:
                    pick = (w, rng.choice(descents))
                    break
            if pick is None:
                return series
            w, pos = pick
            c = series.pop(w)
            a, b = w[pos], w[pos + 1]
            out = {w[:pos] + (b, a) + w[pos + 2:]: PolyExpr.const(1)}
            for u, cu in A.rel(a, b).items():
                out[w[:pos] + u + w[pos + 2:]] = \
                    out.get(w[:pos] + u + w[pos + 2:], PolyExpr.zero()) + cu
            for w2, c2 in out.items():
                nc = series.get(w2, PolyExpr.zero()) + \
                    (c * c2).truncate_degree(A.order)
                if nc:
                    series[w2] = nc
                else:
                    series.pop(w2, None)

    for _ in range(8):
        word = tuple(rng.randrange(A.n) for _ in range(4))
        got = reduce_random({word: PolyExpr.const(1)})
        want = A.to_poly(A.nf_word(word))
        assert series_eq(got, want)


@pytest.mark.parametrize("name", CASE_NAMES)
def test_diamond(name):
    case = build_case(name, N_ORDER)
    res = diamond_check(case.algebra)
    assert len(res) == 20
    assert all(not v for v in res.values())


def test_diamond_classical_limit(uac):
    classical = uac.algebra.substitute({"a2": 0, "c2": 0})
    res = diamond_check(classical)
    assert all(not v for v in res.values())


def test_diamond_broken_relation(uac):
    A = uac.algebra
    iC, iP = idx(uac, "C"), idx(uac, "P")
    rels = {k: dict(v) for k, v in A.relations.items()}
    rels[(iP, iC)] = {w: -c for w, c in rels[(iP, iC)].items()}
    broken = DeformedAlgebra(A.names, rels, A.symbols, A.order)
    res = diamond_check(broken)
    bad = [k for k, v in res.items() if v]
    assert bad
    assert any(set(k) >= {"D", "P"} or set(k) >= {"C", "P"} for k in bad)
    assert ("D", "C", "P") in bad


def test_relations_reduce_to_classical(ucc, uac, L):
    for case in (ucc, uac):
        A = case.algebra
        zeros = {s: 0 for s in A.symbols}
        for (j, i), series in A.relations.items():
            classical = {w: c.substitute(zeros) for w, c in series.items()}
            classical = {w: c for w, c in classical.items() if c}
            want = {(k,): PolyExpr.const(-c)
                    for k, c in L.sc(i, j).items()}
            assert series_eq(classical, want), (A.names[j], A.names[i])


def test_malformed_relation_rejected():
    names = schrodinger.GENERATORS
    with pytest.raises(MalformedAlgebraError):
        DeformedAlgebra(names, {(1, 0): {(2, 0): PolyExpr.const(1)}}, (), 2)


def test_coproduct_primitive_m(ucc):
    iM = idx(ucc, "M")
    t = ucc.coproduct[iM]
    assert t == {((), (iM,)): PolyExpr.const(1),
                 ((iM,), ()): PolyExpr.const(1)}


def test_coproduct_of_unit(ucc):
    assert ucc.algebra.to_poly(ucc.delta_word(())) == {
        ((), ()): PolyExpr.const(1)}


def test_coproduct_uac_dilation(uac):
    iD, iH = idx(uac, "D"), idx(uac, "H")
    t = uac.coproduct[iD]
    a2 = V("a2")
    assert t[((), (iD,))] == PolyExpr.const(1)
    assert t[((iD,), ())] == PolyExpr.const(1)
    assert t[((iD,), (iH,))] == -2 * a2
    assert t[((iD,), (iH, iH))] == 2 * a2 ** 2


@pytest.mark.parametrize("name", CASE_NAMES)
def test_hopf_axioms(name):
    case = build_case(name, N_ORDER)
    res = hopf_axiom_residuals(case)
    assert all(not v for v in res["homomorphism"].values())
    assert all(not v for v in res["coassociativity"].values())
    assert all(not v for v in res["counit"].values())


def test_hopf_axioms_classical_limit(ucc):
    case = ucc.limit({"c1": PolyExpr.zero(), "c2": PolyExpr.zero()})
    res = hopf_axiom_residuals(case)
    assert all(not v for v in res["homomorphism"].values())
    assert all(not v for v in res["coassociativity"].values())
    assert all(not v for v in res["counit"].values())


def test_antipode_ucc(ucc):
    S, right = antipode_solve(ucc)
    assert all(not v for v in right.values())
    iP, iM = idx(ucc, "P"), idx(ucc, "M")
    assert S["M"] == {(iM,): PolyExpr.const(-1)}
    # S(P) = -P e^{-(c1-c2) M}
    gamma = V("c1") - V("c2")
    coeff = PolyExpr.const(1)
    fact = 1
    want = {(iP,): PolyExpr.const(-1)}
    for t in range(1, N_ORDER + 1):
        coeff = coeff * (-gamma)
        fact *= t
        want[(iP,) + (iM,) * t] = -coeff * Q(1, fact)
    assert series_eq(S["P"], want)


def test_antipode_classical_limit(ucc):
    case = ucc.limit({"c1": PolyExpr.zero(), "c2": PolyExpr.zero()})
    S, right = antipode_solve(case)
    assert all(not v for v in right.values())
    for g, series in S.items():
        gi = case.algebra.names.index(g)
        assert series == {(gi,): PolyExpr.const(-1)}


def test_antipode_uac(uac):
    _, right = antipode_solve(uac)
    assert all(not v for v in right.values())


@pytest.mark.parametrize("name", CASE_NAMES)
def test_first_order(name):
    case = build_case(name, N_ORDER)
    res = first_order_check(case)
    assert all(not v for v in res.values())


def test_first_order_zero_r(ucc):
    case = ucc.limit({"c1": PolyExpr.zero(), "c2": PolyExpr.zero()})
    for g, t in case.coproduct.items():
        t = case.algebra.from_poly(t)
        skew = case.algebra.sub(t, case.algebra.tensor_swap(t))
        assert not deformation_slice(skew, 1)


@pytest.mark.parametrize("name", CASE_NAMES)
def test_universal_r(name):
    case = build_case(name, N_ORDER)
    res = universal_r_check(case)
    assert all(not v for v in res["intertwining"].values())
    assert not res["triangularity"]
    assert not res["qybe"]


def test_universal_r_identity_on_classical(ucc):
    lim = ucc.limit({"c1": PolyExpr.zero(), "c2": PolyExpr.zero()})
    A = lim.algebra
    R = lim.universal_r()
    assert R == A.one_tensor()
    res = universal_r_check(lim)
    assert all(not v for v in res["intertwining"].values())
    assert not res["triangularity"] and not res["qybe"]


def test_deformation_degree_zero_slice(ucc):
    iP, iM = idx(ucc, "P"), idx(ucc, "M")
    t = ucc.coproduct[iP]
    A = ucc.algebra
    zero = A.to_poly(deformation_slice(
        A.from_poly({k: v for k, v in t.items()}), 0))
    assert zero == {((), (iP,)): PolyExpr.const(1),
                    ((iP,), ()): PolyExpr.const(1)}


def test_degree_zero_slice_is_primitive_everywhere(ucc, uac):
    for case in (ucc, uac):
        A = case.algebra
        for g in range(A.n):
            zero = A.to_poly(deformation_slice(
                A.from_poly(case.coproduct[g]), 0))
            assert zero == {((), (g,)): PolyExpr.const(1),
                            ((g,), ()): PolyExpr.const(1)}


def test_nf_cache_is_immutable(uac):
    A = uac.algebra
    iD, iH = idx(uac, "D"), idx(uac, "H")
    before = A.to_poly(A.mul(A.term((iH,)), A.term((iD,))))
    first = A.nf_word((iH, iD))
    assert A.nf_word((iH, iD)) is first
    with pytest.raises(TypeError):
        first[0] = ((iD, iH), (0, 0), 0, Q(5))
    with pytest.raises(TypeError):
        first[0][3] = Q(5)
    assert A.to_poly(A.mul(A.term((iH,)), A.term((iD,)))) == before


def test_from_poly_rejects_foreign_and_negative_powers(uac):
    from liebialg.symkernel import Symbol
    A = uac.algebra
    with pytest.raises(ValueError):
        A.from_poly({(0,): V("b1")})
    a2inv = PolyExpr.var(Symbol("a2", invertible=True))
    with pytest.raises(ValueError):
        A.from_poly({(0,): a2inv ** -1})


# -- cross-order metamorphic relation ------------------------------------------

def _truncated(series, degree):
    out = {k: c.truncate_degree(degree) for k, c in series.items()}
    return {k: c for k, c in out.items() if c}


@functools.lru_cache(maxsize=None)
def _order_values(name, order):
    """The normal form of every generator pair X_j X_i (j > i), the coproduct
    table, the antipode and the limit R of a case at one order."""
    case = build_case(name, order)
    A = case.algebra
    nf = {(j, i): A.to_poly(A.nf_word((j, i)))
          for j in range(A.n) for i in range(j)}
    S, _ = antipode_solve(case)
    lim = case.limit()
    R = lim.algebra.to_poly(lim.universal_r())
    return {"nf": nf, "coproduct": case.coproduct, "S": S, "R": {"R": R}}


@pytest.mark.parametrize("name", CASE_NAMES)
@pytest.mark.parametrize("order", (3, 4, 5))
def test_order_n_truncates_to_order_n_minus_1(name, order):
    high, low = _order_values(name, order), _order_values(name, order - 1)
    for kind, table in high.items():
        assert set(table) == set(low[kind])
        for key, series in table.items():
            assert _truncated(series, order - 1) == low[kind][key], (kind, key)
    # order N carries degree-N terms the lower order does not have
    assert any(_truncated(S, order) != low["S"][g]
               for g, S in high["S"].items())


# -- negative controls -----------------------------------------------------------

@pytest.fixture(scope="module")
def uac3():
    return build_case("uac", 3)


def test_flipped_r_exponent_fails_universal_r(uac3):
    (coeff, ga, gb), rest = uac3.r_exponents[0], uac3.r_exponents[1:]
    bad = dataclasses.replace(uac3, r_exponents=((-coeff, ga, gb),) + rest)
    res = universal_r_check(bad)
    failing = {g for g, v in res["intertwining"].items() if v}
    assert failing == {"D", "C", "H", "K", "P"}
    assert res["triangularity"] and res["qybe"]


def test_doubled_coproduct_term_fails_hopf_axioms(uac3):
    A = uac3.algebra
    iD, iK, iP = (idx(uac3, g) for g in "DKP")
    delta_k = dict(uac3.coproduct[iK])
    assert delta_k[((iD,), (iP,))] == V("a2")
    delta_k[((iD,), (iP,))] = 2 * V("a2")
    bad = dataclasses.replace(
        uac3, coproduct={**uac3.coproduct, iK: delta_k})
    res = hopf_axiom_residuals(bad)
    assert res["homomorphism"][("K", "D")]
    assert res["coassociativity"]["K"]
    assert not res["coassociativity"]["D"]
    # the shared hopf-check list: the doubled degree-1 term also breaks the
    # antipode, the first-order cocommutator and R's intertwining, while the
    # checks that do not read Delta(K)'s D(x)P term stay ok
    failed = {name for name, ok, _ in hopf_checks(bad) if not ok}
    assert failed == {"coproduct-homomorphism", "coassociativity", "antipode",
                      "first-order-cocommutator", "universal-r-intertwining"}
    assert all(ok for _, ok, _ in hopf_checks(uac3))
