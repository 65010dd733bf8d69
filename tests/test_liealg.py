import random
from fractions import Fraction
from itertools import combinations

import pytest

from liebialg.symkernel import PolyExpr, Q
from liebialg.liealg import (LieAlgebra, WedgeElement, TensorElement, bracket,
                             jacobi_residual, ad_tensor, schouten,
                             invariant_tensors, apply_linear_map)
from liebialg import schrodinger, families
from liebialg.formats import parse_algebra, load_table


def test_bracket_table(L):
    D, P, K, H, C = (L.gen(g) for g in "DPKHC")
    assert bracket(D, P) == P.scale(-1)
    assert bracket(K, H) == L.gen("P")
    assert bracket(H, C) == D
    assert bracket(P, P).is_zero()
    assert bracket(L.gen("M"), D).is_zero()


def test_jacobi_schrodinger(L):
    assert jacobi_residual(L) == []


def test_jacobi_abelian():
    A = LieAlgebra(("X", "Y", "Z"), {})
    assert jacobi_residual(A) == []


def test_jacobi_tampered():
    bad = LieAlgebra(("D", "C", "H", "K", "P", "M"), {
        ("D", "P"): {"P": 1},          # flipped sign
        ("D", "K"): {"K": 1},
        ("K", "P"): {"M": 1},
        ("D", "H"): {"H": -2},
        ("D", "C"): {"C": 2},
        ("H", "C"): {"D": 1},
        ("K", "H"): {"P": 1},
        ("P", "C"): {"K": -1},
    })
    res = jacobi_residual(bad)
    assert res
    assert any(set(t) == {"D", "P", "C"} for t, _ in res)


def test_ad_tensor_central(L):
    mm = TensorElement.from_pairs(L, [(1, "M", "M")])
    assert ad_tensor(L.gen("D"), mm).is_zero()


def test_ad_tensor_wedge3(L):
    kmp = WedgeElement.from_pairs(L, [(1, "K", "M", "P")], degree=3)
    assert ad_tensor(L.gen("H"), kmp).is_zero()
    # K^M^P is invariant under every generator
    for g in L.names:
        assert ad_tensor(L.gen(g), kmp).is_zero()


def test_ad_tensor_leibniz_cancellation(L):
    pk = TensorElement.from_pairs(L, [(1, "P", "K")])
    assert ad_tensor(L.gen("D"), pk).is_zero()


def test_ad_tensor_rejects_degree():
    L = schrodinger.algebra()
    t = TensorElement(L, 4, {})
    with pytest.raises(ValueError):
        ad_tensor(L.gen("D"), t)


def test_schouten_zero(L):
    assert schouten(WedgeElement(L, 2, {})).is_zero()


def test_schouten_pk(L):
    c2 = PolyExpr.var("c2")
    s = schouten(WedgeElement.from_pairs(L, [(c2, "P", "K")]))
    assert s.signed_coeff(("K", "M", "P")) == -c2 ** 2
    assert len(s.terms) == 1


def test_schouten_general_discriminant(L, general_family):
    V = PolyExpr.var
    disc = (V("a3") * V("a6") + V("b3") * V("b6") - V("a3") * V("b1")
            - V("a1") * V("b3") - V("c2") ** 2)
    assert schouten(general_family.r).signed_coeff(("K", "M", "P")) == disc


def test_schouten_scaling(L):
    rng = random.Random(11)
    r = families.load_rmatrix("general", L)
    s = schouten(r)
    for _ in range(5):
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        assert schouten(r.scale(lam)) == s.scale(lam * lam)


def _schouten_bruteforce(r):
    """Full tensor-cube expansion of [[r,r]], no wedge shortcuts."""
    L = r.algebra
    rt = r.to_tensor()
    cube = {}

    def add(key, val):
        cube[key] = cube.get(key, PolyExpr.zero()) + val

    for (i, j), cij in rt.terms.items():
        for (k, l), ckl in rt.terms.items():
            cc = cij * ckl
            for m, s in L.sc(i, k).items():
                add((m, j, l), cc * s)
            for m, s in L.sc(j, k).items():
                add((i, m, l), cc * s)
            for m, s in L.sc(j, l).items():
                add((i, k, m), cc * s)
    return TensorElement(L, 3, cube)


@pytest.mark.parametrize("table", ["oscillator.alg", "gl2.alg", "galilei.alg"],
                         ids=["oscillator_algebra", "gl2_algebra",
                              "galilei_algebra"])
def test_schouten_bruteforce_oracle(table):
    A = parse_algebra(load_table(table))
    rng = random.Random(hash(A.names) % 1000)
    pairs = list(combinations(A.names, 2))
    for _ in range(6):
        r = WedgeElement.from_pairs(
            A, [(Fraction(rng.randint(-3, 3)), x, y) for x, y in pairs])
        assert schouten(r).to_tensor() == _schouten_bruteforce(r)


def test_invariant_tensors_schrodinger(L):
    basis = invariant_tensors(L, 2)
    assert len(basis) == 1
    mm = (L.index("M"), L.index("M"))
    assert set(basis[0].terms) == {mm}
    for g in L.names:
        assert ad_tensor(L.gen(g), basis[0]).is_zero()


def test_invariant_tensors_abelian():
    A = LieAlgebra(("X", "Y"), {})
    assert len(invariant_tensors(A, 2)) == 4


def test_invariant_tensors_oscillator():
    h4 = parse_algebra(load_table("oscillator.alg"))
    basis = invariant_tensors(h4, 2)
    mm = (h4.index("M"), h4.index("M"))
    target = TensorElement(h4, 2, {mm: PolyExpr.const(1)})
    # M (x) M must lie in the computed span; here it is itself a basis vector
    assert any(set(b.terms) == {mm} for b in basis)
    for b in basis:
        for g in h4.names:
            assert ad_tensor(h4.gen(g), b).is_zero()


def test_apply_linear_map_identity(L):
    eye = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    out, res = apply_linear_map(eye, L)
    assert not res and out == L


def test_apply_linear_map_automorphism(L, basis_flip):
    out, res = apply_linear_map(basis_flip, L)
    assert not res
    assert out == L


def test_apply_linear_map_twophoton_iso(L):
    h6 = parse_algebra(load_table("twophoton.alg"))
    idx = {g: i for i, g in enumerate(h6.names)}
    mat = [[Fraction(0)] * 6 for _ in range(6)]
    images = {"D": {"N": -1, "M": Q(-1, 2)}, "C": {"Bm": Q(1, 2)},
              "H": {"Bp": Q(1, 2)}, "K": {"Am": 1}, "P": {"Ap": 1},
              "M": {"M": 1}}
    for row, g in enumerate(schrodinger.GENERATORS):
        for h, c in images[g].items():
            mat[row][idx[h]] = Fraction(c)
    out, res = apply_linear_map(mat, h6, new_names=schrodinger.GENERATORS,
                                reference=L)
    assert not res
    assert out == L


def test_apply_linear_map_singular(L):
    mat = [[0] * 6 for _ in range(6)]
    with pytest.raises(ValueError):
        apply_linear_map(mat, L)


def test_wedge_tensor_roundtrip(L):
    r = WedgeElement.from_pairs(L, [(3, "D", "P"), (Q(1, 2), "K", "M")])
    assert r.to_tensor().to_wedge() == r


def test_wedge3_ordering(L):
    w = WedgeElement.from_pairs(L, [(1, "P", "K", "M")], degree=3)
    # (K, P, M) is the ordered tuple; P^K^M = -K^P^M
    assert w.signed_coeff(("K", "P", "M")) == PolyExpr.const(-1)
    assert w.signed_coeff(("K", "M", "P")) == PolyExpr.const(1)


def test_ad_tensor_leibniz_sampled(L):
    rng = random.Random(31)
    names = L.names
    for _ in range(10):
        x = L.gen(rng.choice(names))
        u, v = rng.choice(names), rng.choice(names)
        t = TensorElement.from_pairs(L, [(1, u, v)])
        adu = bracket(x, L.gen(u))
        adv = bracket(x, L.gen(v))
        want = TensorElement(L, 2, {})
        for i, ci in enumerate(adu.coeffs):
            if ci:
                want = want + TensorElement.from_pairs(L, [(ci, names[i], v)])
        for j, cj in enumerate(adv.coeffs):
            if cj:
                want = want + TensorElement.from_pairs(L, [(cj, u, names[j])])
        assert ad_tensor(x, t) == want
