import random
from fractions import Fraction
from itertools import combinations, product
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from liebialg.symkernel import PolyExpr, Q, nullspace
from liebialg.liealg import (LieAlgebra, AlgElement, WedgeElement,
                             TensorElement, bracket, basis_keys,
                             jacobi_residual, ad_tensor, schouten,
                             invariant_tensors, apply_linear_map, _sort_tuple)
from liebialg import schrodinger, families, formats
from liebialg.formats import parse_algebra, parse_map, load_table


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
    r = families.load_rmatrix("general")
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
    rng = random.Random(zlib.crc32(table.encode()))
    pairs = list(combinations(A.names, 2))
    for _ in range(6):
        r = WedgeElement.from_pairs(
            A, [(Fraction(rng.randint(-3, 3)), x, y) for x, y in pairs])
        assert schouten(r).to_tensor() == _schouten_bruteforce(r)


def test_invariant_tensors_schrodinger(L):
    basis = invariant_tensors(L)
    assert len(basis) == 1
    mm = (L.index("M"), L.index("M"))
    assert set(basis[0].terms) == {mm}
    for g in L.names:
        assert ad_tensor(L.gen(g), basis[0]).is_zero()


def test_invariant_tensors_abelian():
    A = LieAlgebra(("X", "Y"), {})
    assert len(invariant_tensors(A)) == 4


def test_invariant_tensors_oscillator():
    h4 = parse_algebra(load_table("oscillator.alg"))
    basis = invariant_tensors(h4)
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
    h6 = formats.table("twophoton.alg")
    images = formats.table("twophoton_iso.map")
    mat = [[c.const_value() for c in images[g].coeffs] for g in L.names]
    out, res = apply_linear_map(mat, h6, new_names=L.names, reference=L)
    assert not res
    assert out == L


def test_apply_linear_map_singular(L):
    mat = [[0] * 6 for _ in range(6)]
    with pytest.raises(ValueError):
        apply_linear_map(mat, L)


def test_wedge_tensor_roundtrip(L):
    """X^Y = X(x)Y - Y(x)X; a wedge entered as M^K is -(K^M)."""
    r = WedgeElement.from_pairs(L, [(3, "D", "P"), (Q(1, 2), "M", "K")])
    assert r.to_tensor() == TensorElement.from_pairs(
        L, [(3, "D", "P"), (-3, "P", "D"),
            (Q(1, 2), "M", "K"), (Q(-1, 2), "K", "M")])


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


def test_wedges_and_tensors_are_read_only():
    from liebialg import families
    fam = families.family("general")
    r_before, d_before = dict(fam.r.terms), dict(fam.delta.rows[0].terms)
    assert r_before and d_before
    for w in (fam.r, fam.delta.rows[0], fam.r.to_tensor()):
        with pytest.raises(AttributeError):
            w.terms.clear()
        with pytest.raises(TypeError):
            w.terms[(0, 1)] = PolyExpr.const(1)
        with pytest.raises(AttributeError):
            w.terms = {}
        with pytest.raises(AttributeError):
            w.degree = 3
        with pytest.raises(AttributeError):
            del w.algebra
        with pytest.raises(AttributeError):
            w.extra = 1
    assert fam.r.terms == r_before and fam.delta.rows[0].terms == d_before


# ---------------------------------------------------------------------------
# the ad table against a brute-force Leibniz oracle built from `bracket`
# ---------------------------------------------------------------------------
ALG_TABLES = ("galilei.alg", "gl2.alg", "oscillator.alg", "schrodinger.alg",
              "twophoton.alg")
ALGEBRAS = [schrodinger.algebra()] + [parse_algebra(load_table(t))
                                      for t in ALG_TABLES]
ALGEBRA_IDS = ["builtin"] + [t.split(".")[0] for t in ALG_TABLES]


def _leibniz_oracle(x, t):
    """{key: PolyExpr} of ad_x(t), slot by slot from `bracket`, summed with
    PolyExpr `+`; wedge keys are sorted here with their permutation sign."""
    L, wedge = t.algebra, isinstance(t, WedgeElement)
    out = {}
    for key, c in t.terms.items():
        for slot in range(t.degree):
            br = bracket(x, L.gen(L.names[key[slot]]))
            for k, ck in enumerate(br.coeffs):
                if not ck:
                    continue
                nk = key[:slot] + (k,) + key[slot + 1:]
                val = ck * c
                if wedge:
                    if len(set(nk)) < len(nk):
                        continue
                    inversions = sum(nk[a] > nk[b] for a in range(len(nk))
                                     for b in range(a + 1, len(nk)))
                    nk, val = tuple(sorted(nk)), val * (-1) ** inversions
                out[nk] = out.get(nk, PolyExpr.zero()) + val
    return {k: v for k, v in out.items() if v}


_atoms = st.sampled_from([PolyExpr.const(1), PolyExpr.var("a"),
                          PolyExpr.var("b"),
                          PolyExpr.var("a") * PolyExpr.var("b")])
_coeff = st.builds(lambda ts: sum((c * a for c, a in ts), PolyExpr.zero()),
                   st.lists(st.tuples(st.integers(-3, 3), _atoms),
                            min_size=1, max_size=3))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(len(ALGEBRAS))), st.sampled_from([2, 3]),
       st.booleans(), st.data())
def test_ad_tensor_matches_leibniz_oracle(which, degree, wedge, data):
    L = ALGEBRAS[which]
    keys = basis_keys(L.dim, degree, wedge)
    chosen = data.draw(st.lists(st.sampled_from(keys), max_size=4,
                                unique=True))
    terms = {k: data.draw(_coeff) for k in chosen}
    t = (WedgeElement if wedge else TensorElement)(L, degree, terms)
    x = AlgElement(L, tuple(data.draw(st.one_of(st.just(PolyExpr.zero()),
                                                _coeff))
                            for _ in range(L.dim)))
    got = ad_tensor(x, t)
    assert type(got) is type(t) and got.degree == degree
    assert dict(got.terms) == _leibniz_oracle(x, t)
    for g in L.names:
        assert dict(ad_tensor(g, t).terms) == _leibniz_oracle(L.gen(g), t)


@pytest.mark.parametrize("L", ALGEBRAS, ids=ALGEBRA_IDS)
def test_invariant_tensors_match_oracle_kernel(L):
    """The table-driven invariant tensors are the kernel of the matrix the
    oracle ad gives on the basis tensors."""
    keys = basis_keys(L.dim, 2, False)
    col = {k: c for c, k in enumerate(keys)}
    rows = {}
    for g in L.names:
        for src in keys:
            img = _leibniz_oracle(L.gen(g), TensorElement(L, 2, {src: 1}))
            for dst, c in img.items():
                rows.setdefault((g, dst), [0] * len(keys))[col[src]] = \
                    c.const_value()
    want = [TensorElement(L, 2, {keys[c]: v for c, v in enumerate(vec) if v})
            for vec in nullspace(list(rows.values()) or [[0] * len(keys)])]
    assert invariant_tensors(L) == want


def test_ad_table_is_shared_and_read_only():
    L = schrodinger.algebra()
    table = L.ad_table(2, True)
    assert table is L.ad_table(2, True)
    assert table is not L.ad_table(2, False)
    assert isinstance(table, tuple) and len(table) == L.dim
    # ad_D (K^P) = K^P - K^P cancels: the entry is there, with no terms
    kp = (L.index("K"), L.index("P"))
    assert table[L.index("D")][kp] == ()
    # ad_D (D^K) = D^[D,K] = D^K
    d, k = L.index("D"), L.index("K")
    assert table[d][(d, k)] == (((d, k), 1),)
    with pytest.raises(TypeError):
        table[0][kp] = ()
    with pytest.raises(TypeError):
        table[0] = {}
    with pytest.raises(AttributeError):
        table[0].clear()
    assert all(type(c) is int for rows in table for img in rows.values()
               for _, c in img)
    with pytest.raises(ValueError):
        L.ad_table(4, True)


def test_builtin_algebra_is_one_read_only_instance():
    L = schrodinger.algebra()
    assert L is schrodinger.algebra()
    with pytest.raises(AttributeError):
        L.names = ("x",)
    with pytest.raises(AttributeError):
        del L.names
    with pytest.raises(TypeError):
        L.sc(3, 4)[5] = 1                       # [K,P] = M
    L.sc(4, 3)[5] = 1                           # a fresh dict: no effect
    assert dict(L.sc(3, 4)) == {5: 1} and L.sc(4, 3) == {5: -1}


def _cycle_sign(idx):
    """Sign of the permutation that sorts ``idx``, from its cycle count."""
    if len(set(idx)) != len(idx):
        return 0
    perm = sorted(range(len(idx)), key=idx.__getitem__)
    seen, cycles = set(), 0
    for start in range(len(perm)):
        if start not in seen:
            cycles += 1
            while start not in seen:
                seen.add(start)
                start = perm[start]
    return -1 if (len(idx) - cycles) % 2 else 1


def test_sort_tuple_matches_cycle_sign():
    for n in range(1, 5):
        for idx in product(range(6), repeat=n):
            assert _sort_tuple(idx) == (tuple(sorted(idx)), _cycle_sign(idx))
