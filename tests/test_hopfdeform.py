import dataclasses
import functools
import gc
import random
import re
import sys
import threading
from fractions import Fraction
from functools import partial
from itertools import combinations
from math import comb
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from liebialg.symkernel import PolyExpr, Q
from liebialg.hopfdeform import (DeformedAlgebra, build_case, diamond_check,
                                 hopf_axiom_residuals, antipode_solve,
                                 first_order_check, universal_r_check,
                                 hopf_checks, deformation_slice,
                                 MalformedAlgebraError, CASE_NAMES,
                                 classical_algebra, _exp, _exp_terms,
                                 _drop_zeroed, _accumulate, _by_key, _terms,
                                 _ONE)
from liebialg.liealg import (LieAlgebra, WedgeElement, schouten,
                             invariant_kernel, invariant_tensors)
from liebialg import families, hopfdeform, schrodinger

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


def _code(A, exps):
    """``A``'s code of the monomial with the exponent tuple ``exps``: the one
    place the tests spell a monomial by its exponents.  Past order N, where
    ``A`` numbers no monomial, the tuple itself, so a reference cut past N
    keeps its extra terms apart from every term of ``A``."""
    exps = tuple(exps)
    return A._codes.get(exps, exps)


def classical_limit(case):
    """The case with every deformation symbol set to 0."""
    return case.substitute(dict.fromkeys(case.algebra.symbols, 0))


def triangular_limit(case):
    """The case with the symbols of ``nonstandard_limit`` set to 0."""
    return case.substitute(dict.fromkeys(case.nonstandard_limit, 0))


def normal_r(case):
    """The flat series of the case's R in normal order."""
    A = case.algebra
    return A.tensor_mul(case._r, A.one_tensor())


# R = e^{x A (x) B} e^{y C (x) D} of each registered case, as (x, A, B) factors
R_FACTORS = {"ucc": ((-V("c1"), "M", "D"), (V("c1"), "D", "M")),
             "uac": ((-V("a2"), "H", "D"), (V("a2"), "D", "H"))}


def written_r(case, factors):
    """The product of the exponentials e^{x A (x) B} of ``factors``, a list
    of (x, A, B), written termwise with its words as written and each
    coefficient truncated at order N: a value for ``HopfCase.r``."""
    order = case.algebra.order
    out = {((), ()): PolyExpr.const(1)}
    for coeff, ga, gb in factors:
        ia, ib = idx(case, ga), idx(case, gb)
        nxt = {}
        for (w1, w2), c in out.items():
            for t, e in _exp_terms(coeff, order):
                p = (c * e).truncate_degree(order)
                if p:
                    nxt[(w1 + (ia,) * t, w2 + (ib,) * t)] = p
        out = nxt
    return out


def flipped_r(case, name):
    """The case with the sign of the first exponent of its R flipped."""
    (coeff, ga, gb), rest = R_FACTORS[name][0], R_FACTORS[name][1:]
    return dataclasses.replace(
        case, r=written_r(case, ((-coeff, ga, gb),) + rest))


def test_case_names():
    assert set(CASE_NAMES) == {"ucc", "uac"}
    with pytest.raises(KeyError):
        build_case("nope")


# -- one shared case per (name, order) -----------------------------------------

def test_build_case_is_shared_per_name_and_order():
    uac = build_case("uac")
    assert build_case("uac", 4) is uac and build_case("uac", order=4) is uac
    assert build_case("ucc", 3) is build_case("ucc", order=3)
    assert build_case("ucc", 3) is not build_case("ucc", 4)
    assert build_case("ucc", 3) is not build_case("uac", 3)
    fresh = build_case.__wrapped__("uac", 4)
    assert fresh is not uac and fresh.algebra is not uac.algebra
    assert not fresh.algebra._nf_cache and not fresh._delta_words


def _payloads(case):
    """Every value the checks of a case report or are built from."""
    return {"diamond": diamond_check(case.algebra),
            "axioms": hopf_axiom_residuals(case),
            "antipode": antipode_solve(case),
            "first-order": first_order_check(case),
            "r-check": universal_r_check(case),
            "R": case.algebra.to_poly(normal_r(case)),
            "checks": hopf_checks(case)}


def _failing_payloads(case):
    """``{check: payload}`` of the failing Hopf checks of a case, after
    asserting that every passing check keeps its payload: "" but for the
    diamond's overlap count."""
    checks = hopf_checks(case)
    A = case.algebra
    assert all(payload == ("" if name != "diamond" else
                           f"{A.n * (A.n - 1) * (A.n - 2) // 6} overlaps "
                           f"at order {A.order}")
               for name, ok, payload in checks if ok)
    return {name: payload for name, ok, payload in checks if not ok}


@pytest.mark.parametrize("name", CASE_NAMES)
@pytest.mark.parametrize("order", range(6))
def test_warm_shared_case_reports_the_fresh_case_values(name, order):
    """The shared case's memos only skip work: run twice on it (the second
    time warm), every residual dict, the antipode, R and the check list
    equal those of a fresh case, value for value."""
    shared = build_case(name, order)
    first = _payloads(shared)
    assert shared.algebra._nf_cache and shared._delta_words
    warm = _payloads(shared)
    fresh = _payloads(build_case.__wrapped__(name, order))
    assert warm == first == fresh


def test_replaced_case_keeps_its_own_delta_words():
    """Negative control: a case built by ``dataclasses.replace`` from a
    warm shared case, with a doubled Delta(K) term, shares the algebra and
    its normal forms but not the Delta(word) memo, so the homomorphism still
    fails at (K, D), and the shared case still passes."""
    case = build_case("uac", 3)
    assert all(ok for _, ok, _ in hopf_checks(case))
    iD, iK, iP = (idx(case, g) for g in "DKP")
    assert case._delta_words
    delta_k = {**case.coproduct[iK], ((iD,), (iP,)): 2 * V("a2")}
    bad = dataclasses.replace(case, coproduct={**case.coproduct, iK: delta_k})
    assert bad.algebra is case.algebra and not bad._delta_words
    assert hopf_axiom_residuals(bad)["homomorphism"][("K", "D")]
    assert not hopf_axiom_residuals(case)["homomorphism"][("K", "D")]


def test_threads_filling_one_algebra_agree_with_the_reference():
    """Threads rewriting the same words and multiplying the same tensor
    squares on one fresh algebra, with a short switch interval, fill its
    memos (normal forms, insertions and the pair table) with the reference
    values: the descent normal forms, and the naive products on a second
    fresh algebra.  A lost or torn entry would show as a wrong or missing
    normal form or product."""
    case = build_case.__wrapped__("uac", 3)
    A, ref = case.algebra, build_case.__wrapped__("uac", 3).algebra
    rng = random.Random(5)
    words = [tuple(rng.randrange(A.n) for _ in range(rng.randint(2, 5)))
             for _ in range(40)]
    want = {w: _as_series(_descent_nf(A, w, {})) for w in words}
    squares = [case._cop[g] for g in range(A.n)]
    squares += [{(((g,), (h,)), A._unit): 1} for g, h in combinations(
        range(A.n), 2)]
    pairs = [(i, j) for i in range(len(squares)) for j in range(len(squares))]
    want_products = {(i, j): _naive_product(ref, squares[i], squares[j], True)
                     for i, j in pairs}
    assert not A._nf_cache and not A._pairs
    got, products, errors = [], [], []

    def work(seed):
        try:
            shuffle = random.Random(seed)
            products.append({(i, j): A.tensor_mul(squares[i], squares[j])
                             for i, j in shuffle.sample(pairs, len(pairs))})
            order = shuffle.sample(words, len(words))
            got.append({w: _as_series(A.nf_word(w)) for w in order})
        except Exception as err:      # re-raised below, in the test thread
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    assert got == [want] * 4
    assert products == [want_products] * 4
    assert all(_as_series(A._nf_cache[w]) == want[w] for w in words)
    assert A._pairs


# -- one code path: the registered cases against the two-branch construction

def _reference_exp_leg(legs, order):
    """The product of the exponentials e^{c X_g} of ``legs``, a list of
    (coefficient, generator) pairs of commuting generators, termwise on
    sorted words, each coefficient truncated at order N."""
    out = {(): PolyExpr.const(1)}
    for coeff, gi in legs:
        nxt = {}
        for w, c in out.items():
            for t, e in _exp_terms(coeff, order):
                p = (c * e).truncate_degree(order)
                if p:
                    nxt[tuple(sorted(w + (gi,) * t))] = p
        out = nxt
    return out


def _reference_coproduct(g, legs, order):
    """Delta(X_g) = 1 (x) X_g + X_g (x) (product of the leg exponentials)."""
    t = {((), (g,)): PolyExpr.const(1)}
    for w, c in _reference_exp_leg(legs, order).items():
        t[((g,), w)] = c
    return t


def _reference_case(name, order, flip=False):
    """(relations, coproduct, R) of a registered case, written out in one
    branch per case without ``_new_case`` or ``_exp``: each coproduct leg
    truncated at N as it is multiplied, R the product of its exponentials
    summed here.  With ``flip`` the first exponent of Delta(P) has the
    opposite sign."""
    L = schrodinger.algebra()
    iD, iC, iH, iK, iP, iM = (L.index(g) for g in "DCHKPM")
    rels = {}
    for i, j in combinations(range(L.dim), 2):
        terms = {(k,): PolyExpr.const(-c) for k, c in L.sc(i, j).items()}
        if terms:
            rels[(j, i)] = terms
    c2 = V("c2")
    rels[(iP, iK)] = {(iM,) * t: -c
                      for t, c in _exp_terms(-2 * c2, order, shift=1)}
    sign = -1 if flip else 1
    if name == "ucc":
        c1 = V("c1")
        symbols, rexp = ("c1", "c2"), ((-c1, iM, iD), (c1, iD, iM))
        cop = {g: _reference_coproduct(g, [], order) for g in (iD, iM)}
        for g, expo in ((iP, sign * (c1 - c2)), (iK, -(c1 + c2)),
                        (iH, 2 * c1), (iC, -2 * c1)):
            cop[g] = _reference_coproduct(g, [(expo, iM)], order)
    else:
        a2 = V("a2")
        symbols, rexp = ("a2", "c2"), ((-a2, iH, iD), (a2, iD, iH))
        rels[(iH, iD)] = {(iH,) * t: 2 * c
                          for t, c in _exp_terms(-2 * a2, order, shift=1)}
        rels[(iC, iD)] = {(iC,): PolyExpr.const(-2), (iD, iD): a2}
        rels[(iK, iC)] = {(iD, iK): -a2, (iK,): a2 * Q(1, 2)}
        rels[(iP, iC)] = {(iK,): PolyExpr.const(-1), (iD, iP): a2,
                          (iP,): a2 * Q(1, 2)}
        rels[(iK, iH)] = {(iH,) * t + (iP,): c
                          for t, c in _exp_terms(-2 * a2, order)}
        cop = {g: _reference_coproduct(g, [], order) for g in (iH, iM)}
        for g, legs in ((iD, [(-2 * a2, iH)]), (iC, [(-2 * a2, iH)]),
                        (iP, [(sign * a2, iH), (-c2, iM)]),
                        (iK, [(-a2, iH), (-c2, iM)])):
            cop[g] = _reference_coproduct(g, legs, order)
        for w, c in _reference_exp_leg([(-2 * a2, iH)], order).items():
            p = (a2 * c).truncate_degree(order)
            if p:
                cop[iK][((iD,), w + (iP,))] = p
    A = DeformedAlgebra(L.names, rels, symbols, order)
    R = A.one_tensor()
    for coeff, ia, ib in rexp:
        factor = {}
        for t, c in _exp_terms(coeff, order):
            factor[((ia,) * t, (ib,) * t)] = c
        R = A.tensor_mul(R, A.from_poly(factor))
    return A.relations, cop, A.to_poly(R)


@pytest.mark.parametrize("name", CASE_NAMES)
@pytest.mark.parametrize("order", range(8))
def test_new_case_matches_the_two_branch_construction(name, order):
    """A fresh case has the relations, coproduct table and universal R of
    the construction it replaced, term by term, and is still unused.  Its R
    is the product of its exponentials written termwise, its words as
    written, and in normal order the product the reference sums."""
    case = build_case.__wrapped__(name, order)
    rels, cop, R = _reference_case(name, order)
    assert not case.algebra._nf_cache and not case._delta_words
    assert case.algebra.relations == rels
    assert {g: dict(t) for g, t in case.coproduct.items()} == cop
    assert dict(case.r) == written_r(case, R_FACTORS[name])
    assert case.algebra.to_poly(normal_r(case)) == R


@pytest.mark.parametrize("name", CASE_NAMES)
def test_flipped_leg_exponent_differs_from_the_new_case(name):
    """Negative control: the reference with the sign of Delta(P)'s first
    leg exponent flipped has another Delta(P), and nothing else differs."""
    case = build_case.__wrapped__(name, 3)
    rels, cop, R = _reference_case(name, 3, flip=True)
    iP = idx(case, "P")
    assert case.algebra.relations == rels
    assert {g for g, t in case.coproduct.items() if dict(t) != cop[g]} == {iP}
    assert case.algebra.to_poly(normal_r(case)) == R


def test_exp_keys_each_power_and_drops_the_shifted_terms():
    """``_exp`` keys the term c^t/t! of e^{cX} by ``power(t)``, a word or a
    pair of words; with a shift it is (e^{cX} - 1)/c."""
    a2 = V("a2")
    assert _exp(-2 * a2, 3, lambda t: (0,) * t) == {
        (): PolyExpr.const(1), (0,): -2 * a2, (0, 0): 2 * a2 ** 2,
        (0, 0, 0): Q(-4, 3) * a2 ** 3}
    assert _exp(-2 * a2, 3, lambda t: (0,) * t, 1) == {
        (0,): PolyExpr.const(1), (0, 0): -a2, (0, 0, 0): Q(2, 3) * a2 ** 2,
        (0, 0, 0, 0): Q(-1, 3) * a2 ** 3}
    assert _exp(a2, 2, lambda t: ((2,) * t, (0,) * t)) == {
        ((), ()): PolyExpr.const(1), ((2,), (0,)): a2,
        ((2, 2), (0, 0)): a2 ** 2 * Q(1, 2)}


# -- normal forms ------------------------------------------------------------

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
        assert A.to_poly(A.linear(nf, A.nf_word)) == A.to_poly(nf)


def test_normal_form_multiplicative(uac):
    A = uac.algebra
    rng = random.Random(9)
    for _ in range(10):
        w1 = tuple(rng.randrange(A.n) for _ in range(rng.randint(1, 3)))
        w2 = tuple(rng.randrange(A.n) for _ in range(rng.randint(1, 3)))
        raw = A.linear(A.from_poly({w1 + w2: PolyExpr.const(1)}), A.nf_word)
        split = A.mul(A.nf_word(w1), A.nf_word(w2))
        assert raw == split


def test_normal_form_path_independence(uac):
    """Reducing with a randomized strategy agrees with the deterministic one."""
    A = uac.algebra
    rng = random.Random(17)

    def reduce_random(series):
        series = {tuple(w): PolyExpr(dict(c.terms))
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
            for u, cu in A.relations.get((a, b), {}).items():
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
        assert got == want


def _descent_nf(A, word, memo):
    """The normal form of ``word`` by rewriting its leftmost descent, a
    strategy independent of the insertion fold: the reference for
    ``nf_word``.  ``memo`` maps words to their normal forms."""
    cached = memo.get(word)
    if cached is not None:
        return cached
    pos = next((t for t in range(len(word) - 1) if word[t] > word[t + 1]),
               None)
    if pos is None:
        res = ((word, A._unit, 0, 1),)
    else:
        a, b = word[pos], word[pos + 1]
        left, right = word[:pos], word[pos + 2:]
        parts = [((w, e), c) for w, e, _, c
                 in _descent_nf(A, left + (b, a) + right, memo)]
        for (u, e), c in A._rels.get((a, b), {}).items():
            parts.extend(((w, _code(A, map(add, A._exps[e], A._exps[f]))),
                          c * cf)
                         for w, f, df, cf
                         in _descent_nf(A, left + u + right, memo)
                         if sum(A._exps[e]) + df <= A.order)
        res = tuple(sorted(_terms(_accumulate({}, parts), A._deg),
                           key=lambda t: t[2]))
    memo[word] = res
    return res


_DESCENT_MEMOS = {}


def _as_series(terms):
    return {(w, e): c for w, e, _, c in terms}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(CASE_NAMES), order=st.integers(0, 6),
       data=st.data())
def test_insertion_fold_matches_the_leftmost_descent(name, order, data):
    """``nf_word``, a fold of memoised insertions, against the reference:
    the same terms, in ascending degree, on random words."""
    A = build_case(name, order).algebra
    memo = _DESCENT_MEMOS.setdefault((name, order), {})
    for word in data.draw(st.lists(st.lists(
            st.integers(0, A.n - 1), max_size=5).map(tuple),
            min_size=1, max_size=4)):
        got = A.nf_word(word)
        assert _as_series(got) == _as_series(_descent_nf(A, word, memo))
        assert [d for _, _, d, _ in got] == sorted(d for _, _, d, _ in got)
    assert all(type(v) is tuple and all(type(t) is tuple for t in v)
               for v in (*A._nf_cache.values(), *A._inserts.values()))


@pytest.mark.parametrize("name, word", (("ucc", "PK"), ("uac", "KCH")))
def test_descent_reference_at_n_plus_1_differs(name, word):
    """Negative control: the reference at order N+1 keeps degree-N+1 terms
    that the order-N fold drops, and agrees with it once they are cut."""
    A = build_case(name, 3).algebra
    B = build_case.__wrapped__(name, 4).algebra
    w = tuple(A.names.index(g) for g in word)
    got = A.to_poly(A.nf_word(w))
    ref = B.to_poly(_descent_nf(B, w, {}))
    assert got != ref and got == _truncated(ref, 3)


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


def _flipped_pc(case):
    """The case's algebra with the sign of its [P,C] relation flipped, as
    criterion 12 builds it."""
    A = case.algebra
    iC, iP = idx(case, "C"), idx(case, "P")
    rels = {k: dict(v) for k, v in A.relations.items()}
    rels[(iP, iC)] = {w: -c for w, c in rels[(iP, iC)].items()}
    return DeformedAlgebra(A.names, rels, A.symbols, A.order)


def test_diamond_broken_relation(uac):
    broken = _flipped_pc(uac)
    res = diamond_check(broken)
    bad = [k for k, v in res.items() if v]
    assert bad
    assert any(set(k) >= {"D", "P"} or set(k) >= {"C", "P"} for k in bad)
    assert ("D", "C", "P") in bad
    # the witness is the lowest failing degree, 0 at (C,H,K), not the first
    # failing overlap (D,C,P), which fails from degree 1 on
    assert _failing_payloads(dataclasses.replace(uac, algebra=broken)) == {
        "diamond": "(C,H,K) at degree 0: leading term (2)*K",
        "coproduct-homomorphism":
            "(K,C) at degree 1: leading term (2*a2)*D (x) K"}


@pytest.mark.parametrize("name", CASE_NAMES)
@pytest.mark.parametrize("order", (0, 1, 2, 3, 4))
def test_degree_zero_relations_are_the_schrodinger_bracket(name, order):
    """The degree-0 slice of the deformed relations restates the packaged
    bracket; first_order_check takes its delta on this slice, so a wrong
    restatement would move the target instead of failing the check."""
    A = build_case(name, order).algebra
    assert classical_algebra(A) == schrodinger.algebra()


def test_flipped_relation_changes_the_degree_zero_bracket(uac3):
    """Criterion 12's flipped [P,C] relation is caught here too."""
    assert classical_algebra(_flipped_pc(uac3)) != schrodinger.algebra()


def test_hopf_checks_share_the_builtin_ad_tables(ucc, uac, monkeypatch):
    """first_order_check takes its delta on the built-in algebra when the
    degree-zero bracket is the packaged one, so a second hopf_checks builds
    no ad table.  Negative control: criterion 12's flipped [P,C] relation
    gives an algebra of its own, which builds its own table."""
    cases = (ucc, uac)
    first = [hopf_checks(case) for case in cases]
    builds = []
    real = LieAlgebra._build_ad_table

    def counting(self, *args):
        builds.append((self, args))
        return real(self, *args)

    monkeypatch.setattr(LieAlgebra, "_build_ad_table", counting)
    assert [hopf_checks(case) for case in cases] == first
    assert builds == []
    assert all(classical_algebra(case.algebra) is schrodinger.algebra()
               for case in cases)
    broken = _flipped_pc(uac)
    own = classical_algebra(broken)
    assert own is not schrodinger.algebra() and own != schrodinger.algebra()
    first_order_check(dataclasses.replace(uac, algebra=broken))
    assert builds == [(own, (2, True))]
    assert builds[0][0] is not schrodinger.algebra()


def test_relations_reduce_to_classical(ucc, uac, L):
    for case in (ucc, uac):
        A = case.algebra
        zeros = {s: 0 for s in A.symbols}
        for (j, i), series in A.relations.items():
            classical = {w: c.substitute(zeros) for w, c in series.items()}
            classical = {w: c for w, c in classical.items() if c}
            want = {(k,): PolyExpr.const(-c)
                    for k, c in L.sc(i, j).items()}
            assert classical == want, (A.names[j], A.names[i])


def test_malformed_relation_rejected():
    names = schrodinger.algebra().names
    with pytest.raises(MalformedAlgebraError):
        DeformedAlgebra(names, {(1, 0): {(2, 0): PolyExpr.const(1)}}, (), 2)


@pytest.mark.parametrize("relations, named", (
    ({(5, 0): {(0,): PolyExpr.const(1)}}, "(5, 0)"),
    ({(1, -1): {(0,): PolyExpr.const(1)}}, "(1, -1)"),
    ({(1, 0): {(7,): PolyExpr.const(1)}}, "(7,)")))
def test_relations_naming_no_generator_are_rejected(relations, named):
    """On two generators a relation key that is no pair j > i of them, or a
    right-side word with an index outside range(2), raises and names the
    key or the word.  Control: a valid table gives nf(B A) = A B + A."""
    with pytest.raises(MalformedAlgebraError, match=re.escape(named)):
        DeformedAlgebra("AB", relations, ("q",), 2)
    A = DeformedAlgebra("AB", {(1, 0): {(0,): PolyExpr.const(1)}}, ("q",), 2)
    assert A.to_poly(A.nf_word((1, 0))) == {(0, 1): PolyExpr.const(1),
                                            (0,): PolyExpr.const(1)}


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
    case = classical_limit(ucc)
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
    assert S["P"] == want


def test_antipode_classical_limit(ucc):
    case = classical_limit(ucc)
    S, right = antipode_solve(case)
    assert all(not v for v in right.values())
    for g, series in S.items():
        gi = case.algebra.names.index(g)
        assert series == {(gi,): PolyExpr.const(-1)}


def test_antipode_uac(uac):
    _, right = antipode_solve(uac)
    assert all(not v for v in right.values())


def _per_term_antipode(case):
    """Reference: the antipode solve with one product S(u) v (or u S(v))
    per term c u (x) v of Delta(X), summed by ``linear``."""
    A = case.algebra
    smap = {g: {((g,), A._unit): -1} for g in range(A.n)}

    def s_word(word):
        out = A.one()
        for g in reversed(word):
            out = A.mul(out, smap[g])
        return out

    def axiom(g, left):
        def image(key):
            w1, w2 = key
            if left:
                return A.mul(s_word(w1), A.term(w2))
            return A.mul(A.term(w1), s_word(w2))
        return A.linear(case._cop[g], image)

    for tau in range(A.order + 1):
        for g in range(A.n):
            res = deformation_slice(A, axiom(g, True), tau)
            if res:
                smap[g] = A.sub(smap[g], res)
    return ({A.names[g]: A.to_poly(smap[g]) for g in range(A.n)},
            {A.names[g]: A.to_poly(axiom(g, False)) for g in range(A.n)})


@pytest.mark.parametrize("name", CASE_NAMES)
@pytest.mark.parametrize("order", range(7))
def test_antipode_equals_the_per_term_reference(name, order):
    """The axioms grouped by the words of one leg of Delta(X) give the
    antipode and the right-axiom residuals of one product per term, term
    by term."""
    case = build_case(name, order)
    assert antipode_solve(case) == _per_term_antipode(case)


@pytest.mark.parametrize("order", (2, 3))
def test_antipode_rebuilds_its_word_memo_at_each_degree(order):
    """On three commuting generators, S(X) is -X - S(Y Y) by the degree-0
    term Y Y (x) 1 of Delta(X).  S(Y) = -Y + q Z changes at degree 1, after
    X's turn, and Z's turn then reads S(Y Y) cut at degree 1; so at degree
    2, S(X) gets -q^2 Z Z only if the memo of that cut is not reused.  The
    antipode equals the per-term reference, which keeps no memo."""
    one, q = PolyExpr.const(1), V("q")

    def prim(g):
        return {((), (g,)): one, ((g,), ()): one}
    A = DeformedAlgebra("XYZ", {}, ("q",), order)
    case = hopfdeform.HopfCase(
        A, {0: {**prim(0), ((1, 1), ()): one}, 1: {**prim(1), ((2,), ()): q},
            2: {**prim(2), ((1, 1), ()): q ** 2}},
        {((), ()): one}, "none", ())
    got = antipode_solve(case)
    assert got == _per_term_antipode(case)
    assert got[0]["X"] == {(0,): -one, (1, 1): -one, (2, 2): -q ** 2}


def negated_delta_p(case):
    """The case with every deformation symbol negated in Delta(P)."""
    iP = idx(case, "P")
    neg = {s: -V(s) for s in case.algebra.symbols}
    return dataclasses.replace(case, coproduct={
        **case.coproduct,
        iP: {k: c.substitute(neg) for k, c in case.coproduct[iP].items()}})


def test_failing_antipode_names_its_first_residual(uac3):
    """Delta(P) with a2 and c2 negated breaks the right antipode axiom of K
    alone; the check names K, the lowest degree of its residual and the
    first term there.  Passing checks keep an empty payload."""
    bad = negated_delta_p(uac3)
    S, right = antipode_solve(bad)
    assert {g for g, v in right.items() if v} == {"K"}
    assert right == _per_term_antipode(bad)[1]
    assert (_failing_payloads(bad)["antipode"]
            == "K at degree 2: leading term (-2*a2^2)*D*H*P")
    assert _failing_payloads(uac3) == {}


def test_antipode_solve_leaves_no_reference_cycle():
    """Nothing antipode_solve builds outlives it in a reference cycle, so
    the case's algebra and its nf cache are freed with their last
    reference, not when the cyclic collector next runs."""
    case = build_case("ucc", 2)
    gc.disable()
    try:
        gc.collect()
        antipode_solve(case)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("name", CASE_NAMES)
def test_first_order(name):
    case = build_case(name, N_ORDER)
    res = first_order_check(case)
    assert all(not v for v in res.values())


def test_first_order_zero_r(ucc):
    case = classical_limit(ucc)
    for g, t in case.coproduct.items():
        t = case.algebra.from_poly(t)
        skew = case.algebra.sub(t, case.algebra.tensor_swap(t))
        assert not deformation_slice(case.algebra, skew, 1)


@pytest.mark.parametrize("name", CASE_NAMES)
def test_universal_r(name):
    case = build_case(name, N_ORDER)
    res = universal_r_check(case)
    assert all(not v for v in res["intertwining"].values())
    assert not res["triangularity"]
    assert not res["qybe"]


def test_universal_r_identity_on_classical(ucc):
    lim = classical_limit(ucc)
    assert dict(lim.r) == {((), ()): PolyExpr.const(1)}
    res = universal_r_check(lim)
    assert all(not v for v in res["intertwining"].values())
    assert not res["triangularity"] and not res["qybe"]


def test_deformation_degree_zero_slice(ucc):
    iP, iM = idx(ucc, "P"), idx(ucc, "M")
    t = ucc.coproduct[iP]
    A = ucc.algebra
    zero = A.to_poly(deformation_slice(
        A, A.from_poly({k: v for k, v in t.items()}), 0))
    assert zero == {((), (iP,)): PolyExpr.const(1),
                    ((iP,), ()): PolyExpr.const(1)}


def test_degree_zero_slice_is_primitive_everywhere(ucc, uac):
    for case in (ucc, uac):
        A = case.algebra
        for g in range(A.n):
            zero = A.to_poly(deformation_slice(
                A, A.from_poly(case.coproduct[g]), 0))
            assert zero == {((), (g,)): PolyExpr.const(1),
                            ((g,), ()): PolyExpr.const(1)}


def test_nf_cache_is_immutable(uac):
    """Normal forms are shared tuples; the pair table holds tuples of the
    very ``nf_word`` objects of its pairs' concatenated words, not copies;
    and a product is the caller's own dict, so changing one leaves the next
    product as it was."""
    A = uac.algebra
    iD, iH = idx(uac, "D"), idx(uac, "H")
    before = A.to_poly(A.mul(A.term((iH,)), A.term((iD,))))
    first = A.nf_word((iH, iD))
    assert A.nf_word((iH, iD)) is first
    with pytest.raises(TypeError):
        first[0] = ((iD, iH), A._unit, 0, Q(5))
    with pytest.raises(TypeError):
        first[0][3] = Q(5)
    assert A.to_poly(A.mul(A.term((iH,)), A.term((iD,)))) == before
    hopf_checks(uac)
    assert A._pairs
    for k1, row in A._pairs.items():
        for k2, fs in row.items():
            words = ([a + b for a, b in zip(k1, k2)]
                     if k1 and isinstance(k1[0], tuple) else [k1 + k2])
            assert type(fs) is tuple and len(fs) == 3
            assert all(f is A.nf_word(w) for f, w in zip(fs, words))
            assert fs[len(words):] == (None,) * (3 - len(words))
    di, dd = uac._cop[iH], uac._cop[iD]
    for product, x, y in ((A.mul, A.term((iH,)), A.term((iD,))),
                          (A.tensor_mul, di, dd)):
        got = product(x, y)
        want = dict(got)
        got.clear()
        got[next(iter(want))] = 99
        assert product(x, y) == want


def test_from_poly_rejects_foreign_and_negative_powers(uac):
    A = uac.algebra
    with pytest.raises(ValueError):
        A.from_poly({(0,): V("b1")})
    with pytest.raises(ValueError):
        A.from_poly({(0,): V("a2") ** -1})


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
    lim = triangular_limit(case)
    R = lim.algebra.to_poly(normal_r(lim))
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
    bad = flipped_r(uac3, "uac")
    res = universal_r_check(bad)
    failing = {g for g, v in res["intertwining"].items() if v}
    assert failing == {"D", "C", "H", "K", "P"}
    assert res["triangularity"] and res["qybe"]
    # each failing R check names its first residual; the rest keep ""
    assert _failing_payloads(bad) == {
        "universal-r-intertwining":
            "D at degree 1: leading term (4*a2)*H (x) D",
        "universal-r-triangularity":
            "R21 R at degree 1: leading term (2*a2)*D (x) H",
        "universal-r-qybe":
            "R12 R13 R23 at degree 2: leading term (4*a2^2)*D (x) H (x) H"}


def test_doubled_coproduct_term_fails_hopf_axioms(uac3):
    A = uac3.algebra
    iD, iK, iP = (idx(uac3, g) for g in "DKP")
    delta_k = dict(uac3.coproduct[iK])
    assert delta_k[((iD,), (iP,))] == V("a2")
    delta_k[((iD,), (iP,))] = 2 * V("a2")
    bad = dataclasses.replace(
        uac3, coproduct={**uac3.coproduct, iK: delta_k})
    # the replaced table is wrapped read-only too, and keeps the doubled term
    assert bad.coproduct[iK][((iD,), (iP,))] == 2 * V("a2")
    with pytest.raises(TypeError):
        bad.coproduct[iK][((iD,), (iP,))] = V("a2")
    res = hopf_axiom_residuals(bad)
    assert res["homomorphism"][("K", "D")]
    assert res["coassociativity"]["K"]
    assert not res["coassociativity"]["D"]
    # the shared hopf-check list: the doubled degree-1 term also breaks the
    # antipode, the first-order cocommutator and R's intertwining, while the
    # checks that do not read Delta(K)'s D(x)P term stay ok
    assert _failing_payloads(bad) == {
        "coproduct-homomorphism":
            "(K,D) at degree 1: leading term (2*a2)*D (x) P",
        "coassociativity":
            "K at degree 2: leading term (-2*a2^2)*D (x) H (x) P",
        "antipode": "K at degree 2: leading term (4*a2^2)*D*H*P",
        "first-order-cocommutator": "",
        "universal-r-intertwining":
            "K at degree 1: leading term (a2)*D (x) P"}
    assert _failing_payloads(uac3) == {}


def test_relation_and_coproduct_tables_are_read_only():
    """The checks read the flat copies made at construction, so the PolyExpr
    tables they were made from must not change under them."""
    case = build_case("ucc", 3)
    A = case.algebra
    iK = idx(case, "K")
    key = next(iter(A.relations))
    with pytest.raises(TypeError):
        case.coproduct[iK] = {}
    with pytest.raises(TypeError):
        case.coproduct[iK][next(iter(case.coproduct[iK]))] = PolyExpr.zero()
    with pytest.raises(TypeError):
        A.relations[key] = {}
    with pytest.raises(TypeError):
        del A.relations[key]
    with pytest.raises(TypeError):
        A.relations[key][next(iter(A.relations[key]))] = PolyExpr.zero()
    with pytest.raises(AttributeError):
        A.relations.clear()
    # nor can the tables or the cache be replaced whole
    with pytest.raises(AttributeError):
        case.coproduct = {}
    with pytest.raises(AttributeError):
        A.relations = {}
    with pytest.raises(AttributeError):
        del A._nf_cache
    with pytest.raises(AttributeError):
        del A._inserts
    assert case.coproduct[iK] and A.relations[key]
    assert all(ok for _, ok, _ in hopf_checks(case))


def _canonical(c):
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def test_series_coefficients_are_canonical():
    """Inside the algebra every coefficient of the uac checks at N=4 is an
    int: the nf cache, the relation and coproduct tables, a cached Delta(word)
    and a product.  At the to_poly boundary, where each is divided by K^degree
    again, every value is canonical, and the 1/t! of the exponentials shows
    as non-integral Fractions."""
    case = build_case("uac", 4)
    A = case.algebra
    assert all(ok for _, ok, _ in hopf_checks(case))
    series = (*A._rels.values(), *case._cop.values(),
              case.delta_word((idx(case, "K"), idx(case, "D"))),
              A.mul(A.nf_word((4, 3, 2)), A.nf_word((2, 1, 0))))
    coeffs = [c for entry in A._nf_cache.values() for _, _, _, c in entry]
    for s in series:
        coeffs.extend(s.values())
    assert len(A._nf_cache) > 100
    assert all(type(c) is int and c for c in coeffs)
    boundary = [c for s in (*A._nf_cache.values(), *series)
                for p in A.to_poly(s).values() for c in p.terms.values()]
    assert all(_canonical(c) and c for c in boundary)
    assert any(type(c) is Fraction for c in boundary)
    assert any(type(c) is int for c in boundary)


# -- degree-scaled coefficients and the projected limit --------------------------

@pytest.mark.parametrize("name", CASE_NAMES)
@pytest.mark.parametrize("order", (2, 3, 4, 5, 6))
def test_limit_nf_is_the_projected_case_nf(name, order):
    """The case's normal form with the terms that carry a symbol of
    ``nonstandard_limit`` dropped equals the normal form the limit derives
    from its own substituted relations, for every word in the case's cache
    after its checks."""
    case = build_case(name, order)
    assert all(ok for _, ok, _ in hopf_checks(case))
    A = case.algebra
    lim = triangular_limit(case).algebra
    assert case.nonstandard_limit == ("c2",)
    assert lim.symbols == tuple(s for s in A.symbols if s != "c2")
    words = list(A._nf_cache)
    assert len(words) > 100
    for w in words:
        nf = {(k, e): c for k, e, _, c in A.nf_word(w)}
        got = A.to_poly(_drop_zeroed(A, case.nonstandard_limit, nf))
        assert got == lim.to_poly(lim.nf_word(w)), w


@pytest.mark.parametrize("name", CASE_NAMES)
@pytest.mark.parametrize("order", (2, 3, 4, 5))
@pytest.mark.parametrize("flip", (False, True))
def test_universal_r_check_equals_the_check_on_the_limit(name, order, flip):
    """The check in the case's own algebra, dropping c2 from R, the
    coproducts and the residuals, gives the residuals of the same check on
    the substituted limit, which rewrites from its own relations.  With the
    first R exponent flipped the residuals are nonzero and still equal."""
    case = build_case(name, order)
    if flip:
        case = flipped_r(case, name)
    got = universal_r_check(case)
    assert got == universal_r_check(triangular_limit(case))
    assert any(got["intertwining"].values()) == flip


@functools.lru_cache(maxsize=None)
def _uac_algebra(order):
    return build_case("uac", order).algebra


@st.composite
def _flat_pair(draw, tensor, orders=(3, 4), legs=2):
    """(algebra of uac at one of ``orders``, x, y): flat series of random
    words, or with ``tensor`` tuples of ``legs`` words, with exponents of
    degree <= N and small nonzero integer coefficients.  A key carries up to
    three terms of mixed degree."""
    A = _uac_algebra(draw(st.sampled_from(orders)))
    word = st.lists(st.integers(0, A.n - 1), max_size=3).map(tuple)
    key = st.tuples(*[word] * legs) if tensor else word
    exps = st.tuples(*[st.integers(0, A.order)] * len(A.symbols)).filter(
        lambda e: sum(e) <= A.order).map(partial(_code, A))
    group = st.dictionaries(exps, st.integers(-3, 3).filter(bool),
                            min_size=1, max_size=3)
    series = st.dictionaries(key, group, max_size=3).map(
        lambda s: {(k, e): c for k, g in s.items() for e, c in g.items()})
    return A, draw(series), draw(series)


def _drops_commute(A, product, x, y):
    def drop(s):
        return _drop_zeroed(A, ("c2",), s)
    return drop(product(x, y)) == drop(product(drop(x), drop(y)))


@settings(max_examples=40, deadline=None)
@given(_flat_pair(tensor=False))
def test_dropping_c2_commutes_with_mul(drawn):
    A, x, y = drawn
    assert _drops_commute(A, A.mul, x, y)


@settings(max_examples=40, deadline=None)
@given(_flat_pair(tensor=True))
def test_dropping_c2_commutes_with_tensor_mul(drawn):
    A, x, y = drawn
    assert _drops_commute(A, A.tensor_mul, x, y)


def _naive_product(A, x, y, tensor, order=None):
    """The product term pair by term pair: concatenate the keys, take
    ``nf_word`` per factor, multiply out, drop every term of degree past
    ``order`` (N by default), then sum."""
    order = A.order if order is None else order
    out = []
    for (k1, e1), c1 in x.items():
        for (k2, e2), c2 in y.items():
            factors = ([A.nf_word(a + b) for a, b in zip(k1, k2)] if tensor
                       else [A.nf_word(k1 + k2)])
            terms = [((), tuple(map(add, A._exps[e1], A._exps[e2])),
                      c1 * c2)]
            for fac in factors:
                terms = [(key + (w,), tuple(map(add, e, A._exps[f])),
                          c * cf)
                         for key, e, c in terms for w, f, _, cf in fac]
            out.extend(((key if tensor else key[0], _code(A, e)), c)
                       for key, e, c in terms if sum(e) <= order)
    return _accumulate({}, out)


@pytest.mark.parametrize("tensor, legs, orders", (
    (False, 2, (3, 4)), (True, 2, (3, 4)), (True, 3, (3, 4)),
    (False, 2, (0, 1, 2)), (True, 2, (0, 1, 2)), (True, 3, (0, 1, 2)),
    (True, 2, (5, 6)), (True, 3, (5, 6))))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_product_matches_the_naive_product(tensor, legs, orders, data):
    """``mul`` and ``tensor_mul`` on words, tensor squares and cubes, at
    orders where most key pairs have no term left after truncation, and at
    orders 5 and 6, where the loops over the factors' normal forms stop
    early the most."""
    A, x, y = data.draw(_flat_pair(tensor, orders, legs))
    product = A.tensor_mul if tensor else A.mul
    got = product(x, y)
    assert got == _naive_product(A, x, y, tensor)
    assert all(_canonical(c) and c for c in got.values())


@pytest.mark.parametrize("tensor, legs", ((False, 2), (True, 2), (True, 3)))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_signed_product_in_place_is_the_difference(tensor, legs, data):
    """``_product(x y, z, w, tensor, -1)`` adds -z w into the fresh dict
    x y in place, and equals ``sub(x y, z w)`` on words, tensor squares and
    cubes.  Negative control: the sign +1 gives the sum instead, which
    differs wherever z w does not vanish."""
    A, x, y = data.draw(_flat_pair(tensor, (3, 4), legs))
    _, z, w = data.draw(_flat_pair(tensor, (A.order,), legs))
    product = A.tensor_mul if tensor else A.mul
    first, second = product(x, y), product(z, w)
    out = product(x, y)
    assert A._product(out, z, w, tensor, -1) is out
    assert out == A.sub(first, second)
    plus = A._product(product(x, y), z, w, tensor, 1)
    assert plus == A.add(first, second)
    assert (plus != out) == bool(second)


def _pre_change_product(self, s1, s2, tensor):
    """The product of ``hopfdeform`` before the pair table, kept verbatim
    as the reference: ``((key, code), c)`` pairs of s1 s2 from one
    generator, each key pair's factors rewritten through ``nf_word``."""
    N, emul, nf = self.order, self._emul, self.nf_word
    groups2 = sorted(_by_key(s2, self._deg).items(), key=lambda g: g[1][0])
    for k1, (low1, cs1) in _by_key(s1, self._deg).items():
        room = N - low1
        for k2, (low2, cs2) in groups2:
            if low2 > room:
                break
            if len(cs1) == 1 and len(cs2) == 1:
                (e1, d1, c1), (e2, d2, c2) = cs1[0], cs2[0]
                coeffs = [(emul[e1][e2], d1 + d2, c1 * c2)]
            else:
                cs = _accumulate({}, ((emul[e1][e2], c1 * c2)
                                      for e1, d1, c1 in cs1
                                      for e2, d2, c2 in cs2
                                      if d1 + d2 <= N))
                if not cs:
                    continue
                coeffs = [(e, self._deg[e], c) for e, c in cs.items()]
            if not tensor:
                f1, f2, f3 = nf(k1 + k2), None, None
            elif len(k1) == 2:
                f1, f2, f3 = nf(k1[0] + k2[0]), nf(k1[1] + k2[1]), None
            else:                   # a cube; a longer key raises here
                f1, f2, f3 = map(nf, map(add, k1, k2))
            for e, d, c in coeffs:
                row, left = emul[e], N - d
                for w1, e1, d1, c1 in f1:
                    if d1 > left:
                        break
                    e1, c1 = row[e1], c if c1 is _ONE else c * c1
                    if f2 is None:
                        yield (w1, e1), c1
                        continue
                    row1, left1 = emul[e1], left - d1
                    for w2, e2, d2, c2 in f2:
                        if d2 > left1:
                            break
                        c2 = c1 if c2 is _ONE else c1 * c2
                        if f3 is None:
                            yield ((w1, w2), row1[e2]), c2
                            continue
                        e2, left2 = row1[e2], left1 - d2
                        row2 = emul[e2]
                        for w3, e3, d3, c3 in f3:
                            if d3 > left2:
                                break
                            yield (((w1, w2, w3), row2[e3]),
                                   c2 if c3 is _ONE else c2 * c3)


def _reference_product(self, out, s1, s2, tensor, scale=1, top=None):
    """``DeformedAlgebra._product``'s signature over the reference
    generator: its pairs, times ``scale``, summed into ``out``.  It takes
    every product to order N, whatever ``top``, as ``antipode_solve`` did
    before it cut its products at the degree it solves."""
    return _accumulate(out, ((k, scale * c) for k, c
                             in _pre_change_product(self, s1, s2, tensor)))


@pytest.mark.parametrize("name", CASE_NAMES)
@pytest.mark.parametrize("order", range(2, 7))
def test_pair_table_product_equals_the_pre_change_product(
        name, order, monkeypatch):
    """On fresh cases at N=2..6, every nf value, residual, antipode, R and
    check payload of the pair-table product equals, term by term, those of
    the product before it (``_pre_change_product``), and both rewrite the
    same words."""
    new = build_case.__wrapped__(name, order)
    got = _payloads(new)
    monkeypatch.setattr(DeformedAlgebra, "_product", _reference_product)
    old = build_case.__wrapped__(name, order)
    assert _payloads(old) == got
    assert old.algebra._nf_cache == new.algebra._nf_cache
    assert not old.algebra._pairs and new.algebra._pairs


@pytest.mark.parametrize("tensor, legs", ((False, 2), (True, 2), (True, 3)))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_product_cut_at_top_is_the_full_product_cut(tensor, legs, data):
    """``_product(..., top=t)`` is the full product with the terms past
    degree t dropped, for every t = 0..N, on words, tensor squares and
    cubes, with and without a sign."""
    A, x, y = data.draw(_flat_pair(tensor, (3, 4, 5), legs))
    top = data.draw(st.integers(0, A.order))
    scale = data.draw(st.sampled_from((1, -1)))
    full = A._product({}, x, y, tensor, scale)
    want = {k: c for k, c in full.items() if sum(A._exps[k[1]]) <= top}
    assert A._product({}, x, y, tensor, scale, top=top) == want
    assert A._product({}, x, y, tensor, scale, top=A.order) == full


def test_pairs_past_top_are_pruned_before_rewriting():
    """On a fresh algebra at N=4, a product cut at ``top`` 3 whose key groups'
    lowest degrees sum to 4 and 5 is empty and reaches neither the nf cache
    nor the pair table.  Control: at ``top`` 4 the same product rewrites
    the pair of degree 4, and only that one."""
    A = build_case.__wrapped__("uac", 4).algebra
    iD, iH = (A.names.index(g) for g in "DH")
    x = {((iH,), _code(A, (2, 0))): 1}
    y = {((iD,), _code(A, (1, 1))): 1, ((iD, iH), _code(A, (0, 3))): 2}
    assert A._product({}, x, y, False, top=3) == {}
    assert A._nf_cache == {} and A._pairs == {}
    got = A._product({}, x, y, False, top=4)
    assert got and got == build_case.__wrapped__("uac", 4).algebra.mul(x, y)
    assert A._pairs == {(iH,): {(iD,): (A.nf_word((iH, iD)), None, None)}}
    assert set(A._nf_cache) == {(iH, iD)}


def _monomial_algebra(nsym, order):
    return DeformedAlgebra("XY", {}, [f"s{t}" for t in range(nsym)], order)


@pytest.mark.parametrize("nsym", range(4))
@pytest.mark.parametrize("order", (0, 1, 3, 6))
def test_codes_are_distinct_and_ascend_in_degree(nsym, order):
    """An algebra numbers each monomial of degree <= N once, in graded
    order: the codes are 0, 1, ..., the unit is 0, degrees never fall, and
    ``_codes`` inverts ``_exps``."""
    A = _monomial_algebra(nsym, order)
    assert len(A._exps) == comb(order + nsym, nsym) == len(set(A._exps))
    assert all(len(e) == nsym and min(e, default=0) >= 0 and sum(e) <= order
               for e in A._exps)
    assert A._codes == {e: c for c, e in enumerate(A._exps)}
    assert A._deg == tuple(map(sum, A._exps))
    assert list(A._deg) == sorted(A._deg) and A._exps[A._unit] == (0,) * nsym


def _emul_is_exponent_addition(exps, emul, order):
    """Whether ``emul[c1][c2]`` is the code of the exponent sum for every
    pair of codes of ``exps`` of degree <= N, and no pair past N has an
    entry."""
    for c1, e1 in enumerate(exps):
        for c2, e2 in enumerate(exps):
            e = tuple(map(add, e1, e2))
            if sum(e) <= order:
                if exps[emul[c1][c2]] != e:
                    return False
            elif c2 < len(emul[c1]):
                return False
    return True


@pytest.mark.parametrize("order", (0, 2, 5))
def test_emul_is_exponent_addition_on_three_symbols(order):
    """Negative control: two entries of one row swapped."""
    A = _monomial_algebra(3, order)
    assert _emul_is_exponent_addition(A._exps, A._emul, order)
    if order:
        bad = [list(row) for row in A._emul]
        bad[1][0], bad[1][1] = bad[1][1], bad[1][0]
        assert not _emul_is_exponent_addition(A._exps, bad, order)


def test_six_symbols_at_order_8_get_distinct_codes():
    """1287 monomials have degree 8 in six symbols, so codes cannot be a
    degree times a fixed stride plus a rank; each of the 3003 monomials
    keeps its own code through ``from_poly`` and ``to_poly``."""
    A = _monomial_algebra(6, 8)
    assert A._deg.count(8) == 1287 and len(A._exps) == comb(14, 6) == 3003
    assert len(set(A._exps)) == len(A._codes) == 3003
    assert list(A._deg) == sorted(A._deg)
    series = {(c,): PolyExpr({tuple((f"s{t}", x) for t, x in enumerate(e)
                                    if x): 1})
              for c, e in enumerate(A._exps)}
    flat = A.from_poly(series)
    assert sorted(flat) == [((c,), c) for c in range(3003)]
    assert A.to_poly(flat) == series


def test_naive_product_truncated_past_n_differs(uac3):
    """Negative control: the reference truncated at N+1 keeps terms the
    product drops."""
    A = uac3.algebra
    dk = uac3._cop[idx(uac3, "K")]
    assert (A.tensor_mul(dk, dk) == _naive_product(A, dk, dk, True)
            != _naive_product(A, dk, dk, True, A.order + 1))


def test_pairs_past_n_are_pruned_before_rewriting(monkeypatch):
    """On a fresh algebra at N=2, a product whose key groups' lowest degrees
    all sum past N is empty, rewrites no word, merges no coefficient group
    (no ``_accumulate`` call: the product sums in place) and adds no
    pair-table entry.  A pair of single-term groups that survives is
    multiplied without a merge as well; a pair of two-term groups is the
    control that the counter sees a merge."""
    A = build_case.__wrapped__("uac", 2).algebra
    iD, iH, iK, iP = (A.names.index(g) for g in "DHKP")
    calls = []
    real = hopfdeform._accumulate
    monkeypatch.setattr(hopfdeform, "_accumulate",
                        lambda out, pairs: calls.append(1) or real(out, pairs))
    e10, e01, e20, e02, e11 = (_code(A, e) for e in (
        (1, 0), (0, 1), (2, 0), (0, 2), (1, 1)))
    x = {((iH, iD), e10): 3, ((iK, iD), e02): 1, ((iK, iD), e20): -2}
    y = {((iD, iH), e11): 1, ((iP,), e20): -1, ((iP,), e02): 5}
    assert A.mul(x, y) == {} and A._nf_cache == {}
    tx = {(((iH,), (iD,)), e10): 1, (((iK,), ()), e20): 2}
    ty = {(((iP,), (iH,)), e02): 1, (((), (iD, iH)), e11): -1}
    assert A.tensor_mul(tx, ty) == {} and A._nf_cache == {}
    assert calls == [] and A._pairs == {}
    sx, sy = {(((iH,), (iD,)), e10): 1}, {(((iD,), ()), e01): 1}
    want = _naive_product(A, sx, sy, True)      # rewrites the words once
    calls.clear()
    assert A.tensor_mul(sx, sy) == want != {}
    assert calls == []
    assert A._pairs == {((iH,), (iD,)): {((iD,), ()): (
        A.nf_word((iH, iD)), A.nf_word((iD,)), None)}}
    two = {(((iH,), (iD,)), e10): 1, (((iH,), (iD,)), e01): 1}
    want = _naive_product(A, two, two, True)
    calls.clear()
    assert A.tensor_mul(two, two) == want
    assert calls == [1]


_rational = st.one_of(st.integers(-50, 50).filter(bool),
                      st.fractions(-5, 5, max_denominator=12).filter(bool))


@st.composite
def _truncated_series(draw):
    """(algebra over a, b, c at a random order, {key: PolyExpr} series
    truncated at that order)."""
    order = draw(st.integers(0, 6))
    A = DeformedAlgebra("XYZ", {}, ("a", "b", "c"), order)
    series = {}
    for key in draw(st.lists(st.lists(st.integers(0, 2), max_size=3),
                             max_size=4, unique_by=tuple)):
        terms = {}
        for exps in draw(st.lists(st.lists(st.integers(0, order), min_size=3,
                                           max_size=3), max_size=4)):
            if sum(exps) <= order:
                mono = tuple((s, x) for s, x in zip("abc", exps) if x)
                terms[mono] = draw(_rational)
        if terms:
            series[tuple(key)] = PolyExpr(terms)
    return A, series


@settings(max_examples=60, deadline=None)
@given(_truncated_series())
def test_from_poly_to_poly_round_trip(drawn):
    A, series = drawn
    flat = A.from_poly(series)
    assert A.to_poly(flat) == series
    assert all(_canonical(c) and c for c in flat.values())


def _naive_linear(A, series, image, order=None):
    """``linear`` term by term: every term of ``series`` times every term of
    its key's image, exponents added, the terms past ``order`` (N by
    default) dropped, then a running sum that drops what cancels."""
    order = A.order if order is None else order
    acc = {}
    for (k, e1), c1 in series.items():
        img = image(k)
        for (w, e2), c2 in (_as_series(img) if isinstance(img, tuple)
                            else img).items():
            e = tuple(map(add, A._exps[e1], A._exps[e2]))
            if sum(e) <= order:
                key = (w, _code(A, e))
                acc[key] = acc.get(key, 0) + c1 * c2
    return {k: c for k, c in acc.items() if c}


@st.composite
def _linear_map(draw):
    """(algebra of uac at order 0..4, series, image table): the series has
    word or tensor-square keys and int or ``Fraction`` coefficients; each of
    its keys maps to a flat series of word or tensor-square keys or, for a
    word, to its ``nf_word`` tuple.  In about half the draws every key comes
    again as ``("twin", key)``, with the same terms and the negated image,
    so the whole sum cancels to nothing."""
    A = _uac_algebra(draw(st.integers(0, 4)))
    word = st.lists(st.integers(0, A.n - 1), max_size=3).map(tuple)
    exps = st.tuples(*[st.integers(0, A.order)] * len(A.symbols)).filter(
        lambda e: sum(e) <= A.order).map(partial(_code, A))

    def series(key):
        return st.dictionaries(st.tuples(key, exps), _rational, max_size=4)
    key_in, key_out = (draw(st.sampled_from((word, st.tuples(word, word))))
                       for _ in range(2))
    x = draw(series(key_in))
    table = {}
    for k, _ in x:
        if k not in table:
            table[k] = (A.nf_word(k) if key_in is word and draw(st.booleans())
                        else draw(series(key_out)))
    if draw(st.booleans()):
        for k, img in list(table.items()):
            img = _as_series(img) if isinstance(img, tuple) else img
            table[("twin", k)] = {t: -c for t, c in img.items()}
        x.update({(("twin", k), e): c for (k, e), c in x.items()})
    return A, x, table


@settings(max_examples=80, deadline=None)
@given(_linear_map())
def test_linear_matches_the_term_by_term_map(drawn):
    A, x, table = drawn
    got = A.linear(x, table.__getitem__)
    assert got == _naive_linear(A, x, table.__getitem__)
    assert all(_canonical(c) and c for c in got.values())
    if any(k[:1] == ("twin",) for k, _ in x):
        assert got == {}


def test_naive_linear_truncated_past_n_differs(uac3):
    """Negative control: the reference truncated at N+1 keeps terms that
    ``linear`` drops: a degree-1 multiple of K times Delta(K)."""
    A = uac3.algebra
    x = {((idx(uac3, "K"),), _code(A, (1, 0))): Fraction(3, 2)}
    got = A.linear(x, uac3.delta_word)
    assert (got == _naive_linear(A, x, uac3.delta_word)
            != _naive_linear(A, x, uac3.delta_word, A.order + 1))


def test_exp_terms_rejects_a_constant_exponent():
    assert _exp_terms(-2 * V("a2"), 2)[1] == (1, -2 * V("a2"))
    for coeff in (PolyExpr.const(2), 1 + V("a2"), 3):
        with pytest.raises(ValueError, match="constant term"):
            _exp_terms(coeff, 3)
    assert _exp_terms(PolyExpr.zero(), 3) == [(0, PolyExpr.const(1))]


# -- quasitriangularity: the hexagons where R exists, none where c2 != 0 ---------

def _nterms(residual):
    """Nonzero terms of a residual {key: PolyExpr}."""
    return sum(len(p.terms) for p in residual.values())


def _hexagons(case, swap=False):
    """(Delta (x) id)R - R13 R23 and (id (x) Delta)R - R13 R12 on the case's
    non-standard limit; ``swap`` puts R12 R13 in the second."""
    lim = triangular_limit(case)
    A = lim.algebra
    R = normal_r(lim)
    r12, r13, r23 = (A.embed_cube(R, s) for s in ((0, 1), (0, 2), (1, 2)))
    right = A.tensor_mul(r12, r13) if swap else A.tensor_mul(r13, r12)
    return (A.to_poly(A.sub(lim.delta_slot(R, 0), A.tensor_mul(r13, r23))),
            A.to_poly(A.sub(lim.delta_slot(R, 1), right)))


@pytest.mark.parametrize("name", CASE_NAMES)
@pytest.mark.parametrize("order", (3, 4))
def test_universal_r_hexagons(name, order):
    left, right = _hexagons(build_case(name, order))
    assert not left and not right


@pytest.mark.parametrize("order, terms", ((3, 16), (4, 66)))
def test_swapped_hexagon_fails_for_uac(order, terms):
    left, right = _hexagons(build_case("uac", order), swap=True)
    assert not left and _nterms(right) == terms


@pytest.mark.parametrize("order, terms", ((3, (7, 7)), (4, (28, 27))))
def test_non_primitive_r_leg_fails_hexagons_for_ucc(order, terms):
    """In the ucc limit M is central and D, M are primitive, so neither the
    swap nor a flipped exponent moves the hexagons; an exponent whose first
    leg is the non-primitive P does."""
    case = build_case("ucc", order)
    (coeff, ga, gb), rest = R_FACTORS["ucc"][0], R_FACTORS["ucc"][1:]
    assert (ga, gb) == ("M", "D")
    bad = dataclasses.replace(
        case, r=written_r(case, ((coeff, "P", gb),) + rest))
    left, right = _hexagons(bad)
    assert (_nterms(left), _nterms(right)) == terms


@pytest.mark.parametrize("name, failing", (
    ("ucc", {"K": 25, "P": 25}), ("uac", {"K": 32, "P": 26})))
def test_no_universal_r_when_c2_is_nonzero(L, name, failing):
    """The classical limit of a universal R is r + t with t symmetric and
    ad-invariant, and r + t must solve the CYBE.  No invariant wedge exists,
    so r is the case's classical r-matrix; t is a multiple of M (x) M with M
    central, so CYBE(r + t) is [[r, r]], which is c2^2 K^P^M for both cases.
    Hence R exists only at c2 = 0, and the registered R on the full case
    fails intertwining exactly at K and P."""
    assert invariant_kernel(L, 2, True)[1] == []
    iM = L.index("M")
    (t,) = invariant_tensors(L)
    assert set(t.terms) == {(iM, iM)}
    case = build_case(name, 3)
    r = families.load_rmatrix(case.classical_family)
    assert schouten(r) == WedgeElement.from_pairs(
        L, [(V("c2") ** 2, "K", "P", "M")], degree=3)
    res = universal_r_check(dataclasses.replace(case, nonstandard_limit=()))
    assert {g: _nterms(v) for g, v in res["intertwining"].items()
            if v} == failing


# -- ucc at its triangular limit is an abelian twist of U(g) --------------------

def _ucc_twist(order, sign=-1):
    """(limit of ucc, F, F^-1) with F = exp(sign c1 D (x) M)."""
    lim = triangular_limit(build_case("ucc", order))
    A = lim.algebra
    iD, iM = idx(lim, "D"), idx(lim, "M")
    F, Finv = (A.from_poly(_exp(s * V("c1"), order,
                                lambda t: ((iD,) * t, (iM,) * t)))
               for s in (sign, -sign))
    return lim, F, Finv


@pytest.mark.parametrize("sign, failing", (
    (-1, {}), (1, {"C": 2, "H": 2, "K": 2, "P": 2})))
def test_ucc_coproduct_is_twisted_by_f(sign, failing):
    """F (g (x) 1 + 1 (x) g) F^-1 is the case's Delta(g) for all six
    generators with F = exp(-c1 D (x) M); with the sign flipped C, H, K
    and P are off (D and M commute with D (x) M)."""
    lim, F, Finv = _ucc_twist(4, sign)
    A = lim.algebra
    assert A.tensor_mul(F, Finv) == A.one_tensor()
    off = {}
    for g in range(A.n):
        prim = {(((g,), ()), A._unit): 1, (((), (g,)), A._unit): 1}
        twisted = A.tensor_mul(A.tensor_mul(F, prim), Finv)
        off[A.names[g]] = _nterms(A.to_poly(A.sub(twisted, lim._cop[g])))
    assert {g: n for g, n in off.items() if n} == failing


@pytest.mark.parametrize("order", (3, 5))
def test_ucc_universal_r_is_f21_f_inverse(order):
    lim, F, Finv = _ucc_twist(order)
    A = lim.algebra
    assert A.tensor_mul(A.tensor_swap(F), Finv) == normal_r(lim)


@pytest.mark.parametrize("order", (3, 5))
@pytest.mark.parametrize("sign, failing", (
    (1, set()), (-1, {"C", "H", "K", "P"})))
def test_ucc_antipode_is_conjugation_by_u(order, sign, failing):
    """At the ucc limit S(g) = u (-g) u^-1 for all six generators, with
    u = m (id (x) S0)(F) = e^{c1 DM} for F = exp(-c1 D (x) M) and S0 the
    antipode of U(g); with u's sign flipped C, H, K and P differ (D and M
    commute with DM)."""
    lim = triangular_limit(build_case("ucc", order))
    A = lim.algebra
    iD, iM = idx(lim, "D"), idx(lim, "M")
    F = A.from_poly(_exp(-V("c1"), order, lambda t: ((iD,) * t, (iM,) * t)))
    # S0(X_1 ... X_k) = (-1)^k X_k ... X_1; M is central, so (DM)^t = D^t M^t
    m_s0_f = A.linear(F, lambda k: A.linear(
        {(k[0] + k[1][::-1], A._unit): (-1) ** len(k[1])}, A.nf_word))

    def e_dm(s):
        """e^{s c1 DM}."""
        return A.from_poly(_exp(s * V("c1"), order,
                                lambda t: (iD,) * t + (iM,) * t))

    assert m_s0_f == e_dm(1)
    u, uinv = e_dm(sign), e_dm(-sign)
    S, right = antipode_solve(lim)
    assert not any(right.values())
    conj = {g: A.to_poly(A.mul(A.mul(u, {((i,), A._unit): -1}), uinv))
            for i, g in enumerate(A.names)}
    assert {g for g in A.names if conj[g] != S[g]} == failing


def test_substitute_binds_relations_coproducts_and_r(ucc):
    """``substitute`` binds the symbols in the relations, every coproduct
    and R, and they leave ``nonstandard_limit``; the substituted case
    rewrites from its own relations."""
    iH, iP, iM = (idx(ucc, g) for g in "HPM")
    lim = triangular_limit(ucc)
    assert (lim.algebra.symbols, lim.nonstandard_limit) == (("c1",), ())
    assert not lim.algebra._nf_cache and lim.algebra is not ucc.algebra
    # R carries no c2; Delta(P) = 1 (x) P + P (x) e^{(c1 - c2) M} loses c2
    assert dict(lim.r) == dict(ucc.r)
    assert dict(lim.coproduct[iP]) == {
        ((), (iP,)): PolyExpr.const(1),
        **{((iP,), w): c for w, c in
           _exp(V("c1"), N_ORDER, lambda t: (iM,) * t).items()}}
    half = ucc.substitute({"c1": 0})
    assert (half.algebra.symbols, half.nonstandard_limit) == (("c2",), ("c2",))
    # every term of R but the unit carries c1, and so does Delta(H)'s leg
    assert dict(half.r) == {((), ()): PolyExpr.const(1)}
    assert dict(half.coproduct[iH]) == {((), (iH,)): PolyExpr.const(1),
                                        ((iH,), ()): PolyExpr.const(1)}


def test_wrong_classical_family_fails_first_order(ucc):
    bad = dataclasses.replace(ucc, classical_family="hstd-deformation")
    assert any(first_order_check(bad).values())
    assert not any(first_order_check(ucc).values())
