import inspect
import random
from importlib import resources
from fractions import Fraction
from itertools import combinations, product
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from conftest import sparse
from liebialg.symkernel import (PolyExpr, Q, inverse,
                                nullspace, sum_by_key)
from liebialg.liealg import (LieAlgebra, AlgElement, WedgeElement,
                             TensorElement, bracket, basis_keys,
                             jacobi_residual, ad_tensor, ad_images,
                             schouten, invariant_tensors, homomorphism_residuals,
                             push_wedge2, _sort_tuple)
from liebialg import bialgebra, liealg, schrodinger, families, formats
from liebialg.formats import parse_algebra, parse_map, load_table


def test_bracket_table(L):
    D, P, K, H, C = (L.gen(g) for g in "DPKHC")
    assert bracket(D, P) == P.scale(-1)
    assert bracket(K, H) == L.gen("P")
    assert bracket(H, C) == D
    assert bracket(P, P).is_zero()
    assert bracket(L.gen("M"), D).is_zero()


def _keyed(cls, L, names):
    """The value of ``cls`` with coefficient 1 on the basis key of
    ``names`` in ``L``."""
    return cls.from_pairs(L, [(1, *names)], len(names))


@pytest.mark.parametrize("cls,ours,theirs", [
    (AlgElement, ("D",), ("J3",)),
    (WedgeElement, ("D", "C"), ("J3", "Jp")),
    (TensorElement, ("D", "C"), ("J3", "Jp")),
], ids=["element", "wedge", "tensor"])
def test_sum_across_algebras_raises(L, cls, ours, theirs):
    """D^C of the Schrodinger algebra and J3^Jp of gl(2) share the basis
    key (0, 1): their sum and difference raise instead of adding the
    coefficients.  An equal algebra parsed afresh is the same algebra."""
    gl2 = formats.table("gl2.alg")
    x, y = _keyed(cls, L, ours), _keyed(cls, gl2, theirs)
    assert x.terms.keys() == y.terms.keys()
    for a, b in ((x, y), (y, x)):
        with pytest.raises(ValueError, match="elements of different algebras"):
            a + b
        with pytest.raises(ValueError, match="elements of different algebras"):
            a - b
    copy = _keyed(cls, parse_algebra(load_table("schrodinger.alg")), ours)
    assert x + copy == x.scale(2) and (x - copy).is_zero()


def test_bracket_ad_and_delta_reject_an_element_of_another_algebra(L):
    J3, D = formats.table("gl2.alg").gen("J3"), L.gen("D")
    r = formats.table("general.rmat")
    delta = formats.table("cocommutators_general.delta")
    for run in (lambda: bracket(D, J3), lambda: bracket(J3, D),
                lambda: ad_tensor(J3, r), lambda: delta.of(J3)):
        with pytest.raises(ValueError, match="elements of different algebras"):
            run()


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


def test_lie_algebra_rejects_a_pair_given_in_both_orders():
    """[X,Y] and [Y,X] given together are one bracket given twice, which
    ``parse_algebra`` rejects too; the algebra does not keep the last one."""
    names = ("X", "Y", "Z")
    for brackets in ({("X", "Y"): {"Y": 1}, ("Y", "X"): {"Y": 1}},
                     {("Y", "X"): {"Y": 1}, ("X", "Y"): {"Y": -1}},
                     {("X", "Y"): {}, ("Y", "X"): {"Z": 1}}):
        with pytest.raises(ValueError, match=r"^duplicate bracket \[X,Y\]$"):
            LieAlgebra(names, brackets)
    with pytest.raises(ValueError, match=r"\[Y,Z\]"):
        LieAlgebra(names, {("Z", "Y"): {"X": 1}, ("X", "Y"): {"Y": 1},
                           ("Y", "Z"): {"X": -1}})
    # control: either one order alone is accepted, the other read with -1
    one = LieAlgebra(names, {("Y", "X"): {"Y": 1}})
    assert one == LieAlgebra(names, {("X", "Y"): {"Y": -1}})
    assert one.sc(0, 1) == {1: -1}


# -- jacobi_residual against the bracket-by-bracket sum it replaced ----------

def _jacobi_reference(L):
    """The reference: [[X_i,X_j],X_k] + cyclic summed from ``bracket``
    elements, triple by triple; the nonzero ones in triple order."""
    out = []
    for i, j, k in combinations(range(L.dim), 3):
        xi, xj, xk = (L.gen(L.names[t]) for t in (i, j, k))
        res = (bracket(bracket(xi, xj), xk)
               + bracket(bracket(xj, xk), xi)
               + bracket(bracket(xk, xi), xj))
        if not res.is_zero():
            out.append(((L.names[i], L.names[j], L.names[k]), res))
    return out


def _assert_jacobi_matches_reference(L):
    """The same triples in the same order, equal elements, the same text."""
    got, want = jacobi_residual(L), _jacobi_reference(L)
    assert got == want
    assert [(t, str(e)) for t, e in got] == [(t, str(e)) for t, e in want]


_TAMPERED_ALG = load_table("schrodinger.alg").replace("[D,P] = -P",
                                                      "[D,P] = P")


@st.composite
def _structure_constants(draw):
    """An algebra on 3 to 5 generators with random rational structure
    constants, a pair entered in either order; Jacobi mostly fails."""
    names = "ABCDE"[:draw(st.integers(3, 5))]
    numbers = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    brackets = {}
    for x, y in draw(st.lists(st.sampled_from(list(combinations(names, 2))),
                              unique=True)):
        pair = (y, x) if draw(st.booleans()) else (x, y)
        brackets[pair] = draw(st.dictionaries(st.sampled_from(names),
                                              numbers, max_size=3))
    return LieAlgebra(tuple(names), brackets)


@settings(max_examples=80, deadline=None)
@given(_structure_constants())
def test_jacobi_residual_matches_the_bracket_reference(L):
    _assert_jacobi_matches_reference(L)


@pytest.mark.parametrize("name", sorted(
    p.name for p in resources.files("liebialg.tables").iterdir()
    if p.name.endswith(".alg")) + ["tampered"])
def test_jacobi_residual_matches_the_reference_on_packaged_tables(name):
    if name == "tampered":
        L = parse_algebra(_TAMPERED_ALG, check_jacobi=False)
        assert jacobi_residual(L)
    else:
        L = formats.table(name)
    _assert_jacobi_matches_reference(L)


def test_a_flipped_cyclic_term_fails_the_jacobi_reference(monkeypatch):
    """Negative control: the Jacobiator with the sign of its
    [[X_k,X_i],X_j] term flipped, on a Lie algebra and off one."""
    src = inspect.getsource(liealg._structure_jacobiator)
    term = "t, s = (a, c, b), -s"
    assert src.count(term) == 1
    namespace = dict(vars(liealg))
    exec(src.replace(term, "t = (a, c, b)"), namespace)
    monkeypatch.setattr(liealg, "_structure_jacobiator",
                        namespace["_structure_jacobiator"])
    for L in (schrodinger.algebra(),
              parse_algebra(_TAMPERED_ALG, check_jacobi=False)):
        with pytest.raises(AssertionError):
            _assert_jacobi_matches_reference(L)


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


@pytest.mark.parametrize("table", ["oscillator.alg", "gl2.alg", "galilei.alg",
                                   "schrodinger.alg"],
                         ids=["oscillator_algebra", "gl2_algebra",
                              "galilei_algebra", "schrodinger_algebra"])
def test_schouten_bruteforce_oracle(table):
    """On the Schrodinger algebra the coefficients are symbolic: a number
    plus a multiple of a, b or a*b."""
    A = parse_algebra(load_table(table))
    rng = random.Random(zlib.crc32(table.encode()))
    pairs = list(combinations(A.names, 2))
    a, b = PolyExpr.var("a"), PolyExpr.var("b")
    atoms = (a, b, a * b)

    def coeff():
        c = Fraction(rng.randint(-3, 3))
        if table == "schrodinger.alg":
            return c + rng.randint(-2, 2) * rng.choice(atoms)
        return c

    for _ in range(6):
        r = WedgeElement.from_pairs(A, [(coeff(), x, y) for x, y in pairs])
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


def _images(L, mat):
    """The rows of ``mat`` as AlgElements of ``L``, one per generator."""
    return [L.element(dict(zip(L.names, row))) for row in mat]


def test_homomorphism_residuals_identity(L):
    assert homomorphism_residuals(L, [L.gen(g) for g in L.names]) == []


def test_homomorphism_residuals_automorphism(L, basis_flip):
    assert homomorphism_residuals(L, basis_flip) == []
    flip = formats.table("basis_flip.map")
    assert homomorphism_residuals(L, [flip[g] for g in L.names]) == []


def test_homomorphism_residuals_twophoton_iso(L):
    """The packaged map onto the two-photon algebra is an isomorphism: a
    homomorphism whose matrix ``inverse`` accepts."""
    h6 = formats.table("twophoton.alg")
    images = [formats.table("twophoton_iso.map")[g] for g in L.names]
    assert all(e.algebra is h6 for e in images)
    assert homomorphism_residuals(L, images) == []
    inverse([[e.coeff((u,)).const_value() for u in range(h6.dim)]
             for e in images])


def test_homomorphism_residuals_singular(L, general_family):
    """The zero map is a homomorphism; only the inverse that
    ``automorphism_transform`` takes rejects it as singular."""
    mat = [[0] * 6 for _ in range(6)]
    assert homomorphism_residuals(L, _images(L, mat)) == []
    with pytest.raises(ValueError, match="singular"):
        bialgebra.automorphism_transform(general_family, _images(L, mat),
                                         {})
    with pytest.raises(ValueError):
        homomorphism_residuals(L, _images(L, mat)[:5])


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
        for (i,), ci in adu.terms.items():
            want = want + TensorElement.from_pairs(L, [(ci, names[i], v)])
        for (j,), cj in adv.terms.items():
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
            for (k,), ck in br.terms.items():
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
    x = AlgElement(L, 1, {(i,): data.draw(st.one_of(st.just(PolyExpr.zero()),
                                                    _coeff))
                          for i in range(L.dim)})
    got = ad_tensor(x, t)
    assert type(got) is type(t) and got.degree == degree
    assert dict(got.terms) == _leibniz_oracle(x, t)
    for g in L.names:
        assert dict(ad_tensor(g, t).terms) == _leibniz_oracle(L.gen(g), t)
    images = ad_images(t)
    assert len(images) == L.dim
    for g, img in zip(L.names, images):
        assert type(img) is type(t) and img.degree == degree
        assert dict(img.terms) == _leibniz_oracle(L.gen(g), t)


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
            for vec in nullspace(sparse(rows.values()), len(keys))]
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


# ---------------------------------------------------------------------------
# the Schouten pair table against the pair-by-pair sum it replaces
# ---------------------------------------------------------------------------

# every packaged r-matrix; the families read theirs from these tables
RMAT_TABLES = sorted(p.name for p in resources.files("liebialg.tables")
                     .iterdir() if p.name.endswith(".rmat"))


def _schouten_reference(r):
    """[[r,r]] summed pair by pair over the ordered pairs (p, q) of r's
    terms, p = q included: for c_p X_i^X_j and c_q X_k^X_l the product
    c_p c_q times (1/2) of

        [X_i,X_k]^X_j^X_l - [X_i,X_l]^X_j^X_k
        - [X_j,X_k]^X_i^X_l + [X_j,X_l]^X_i^X_k,

    one item per bracket term, all summed by one ``sum_by_key``."""
    L = r.algebra
    items = []
    half = Q(1, 2)
    for (i, j), cp in r.terms.items():
        for (k, l), cq in r.terms.items():
            c = cp * cq
            for a, b, o1, o2, sgn in ((i, k, j, l, half), (i, l, j, k, -half),
                                      (j, k, i, l, -half), (j, l, i, k, half)):
                for m, s in L.sc(a, b).items():
                    key, sign = _sort_tuple((m, o1, o2))
                    if sign:
                        items.append((key, sign * sgn * s, c))
    return WedgeElement(L, 3, sum_by_key(items))


def _assert_matches_reference(r):
    """``schouten(r)`` gives the reference's terms and text."""
    got, want = schouten(r), _schouten_reference(r)
    assert dict(got.terms) == dict(want.terms)
    assert str(got) == str(want)


@st.composite
def _coefficient(draw):
    """A nonzero Laurent PolyExpr on monomials in a, b, c, d."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        mono = tuple((name, draw(st.integers(-2, 2).filter(bool)))
                     for name in sorted(draw(st.sets(st.sampled_from("abcd"),
                                                     max_size=2))))
        terms[mono] = draw(st.integers(-3, 3).filter(bool))
    return PolyExpr(terms)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(range(len(ALGEBRAS))), st.data())
def test_schouten_matches_the_pair_by_pair_reference(which, data):
    L = ALGEBRAS[which]
    keys = data.draw(st.lists(st.sampled_from(basis_keys(L.dim, 2, True)),
                              min_size=2, max_size=6, unique=True))
    terms = {key: data.draw(_coefficient()) for key in keys}
    _assert_matches_reference(WedgeElement(L, 2, terms))


def _packaged_sources():
    """Every packaged r-matrix, and the coboundary r and kernel wedges of
    every packaged cocommutator and of each packaged algebra's general
    cocycle."""
    out = {name: formats.table(name) for name in RMAT_TABLES}
    deltas = {}
    for p in sorted(resources.files("liebialg.tables").iterdir(),
                    key=lambda p: p.name):
        if p.name.endswith(".delta"):
            deltas[p.name] = formats.table(p.name)
        elif p.name.endswith(".alg"):
            A = formats.table(p.name)
            deltas[p.name] = bialgebra.cocycle_solve(A).cocommutator
    for name, delta in deltas.items():
        match = bialgebra.coboundary_match(delta)
        out[f"{name}:r"] = match.r
        out.update((f"{name}:kernel{i}", w) for i, w in enumerate(match.kernel))
    return out


def test_schouten_matches_the_reference_on_every_packaged_source():
    assert {f.rmat_table for f in families.FAMILIES.values()} <= set(
        RMAT_TABLES)
    sources = _packaged_sources()
    assert len(sources) > 30
    for name, r in sources.items():
        _assert_matches_reference(r)


def test_ad_tensor_and_schouten_results_are_canonical():
    """``ad_tensor`` and ``schouten`` wrap their sums without the checks of
    the constructor: on every packaged source each result, wedge and
    tensor, already is what the checking constructor makes of its terms
    (sorted wedge keys, no zero, every coefficient a PolyExpr)."""
    def canonical(got, cls, degree):
        assert type(got) is cls and got.degree == degree
        assert all(type(v) is PolyExpr and v for v in got.terms.values())
        rebuilt = cls(got.algebra, degree, dict(got.terms))
        assert list(got.terms.items()) == list(rebuilt.terms.items())

    for name, r in _packaged_sources().items():
        L, t = r.algebra, r.to_tensor()
        canonical(schouten(r), WedgeElement, 3)
        for g in L.names:
            canonical(ad_tensor(g, r), WedgeElement, 2)
            canonical(ad_tensor(g, t), TensorElement, 2)
        for img in (*ad_images(r), *ad_images(t)):
            canonical(img, type(img), 2)


def test_schouten_of_pairs_with_central_m_is_zero(L):
    """D^M and P^M bracket to nothing (M is central), alone or together,
    whatever their coefficients."""
    a = PolyExpr.var("a")
    dm, pm = (L.index("D"), L.index("M")), (L.index("P"), L.index("M"))
    for ok in ({dm: a ** -1, pm: a}, {dm: a ** -1}, {pm: a},
               {dm: a ** -1, pm: a ** -2}, {dm: a, pm: a}):
        assert schouten(WedgeElement(L, 2, ok)).is_zero()
        assert _schouten_reference(WedgeElement(L, 2, ok)).is_zero()


def test_schouten_adds_only_the_pairs_with_an_image(L):
    """In r = a*D^C + c*D^M + K^P the pair (c*D^M, K^P) adds nothing (K^P
    is ad_D-invariant), so K^P^M, which only [[K^P, K^P]] adds to, is 1."""
    r = WedgeElement.from_pairs(L, [(PolyExpr.var("a"), "D", "C"),
                                    (PolyExpr.var("c"), "D", "M"),
                                    (1, "K", "P")])
    _assert_matches_reference(r)
    kpm = tuple(L.index(g) for g in "KPM")
    assert schouten(r).terms[kpm] == 1


def test_schouten_pair_table_is_built_once_per_algebra(monkeypatch):
    """One pair table per algebra instance, read-only: a second bracket on
    the same instance builds nothing, while an equal algebra parsed afresh
    and a different algebra each build their own.  The bracket itself is
    computed on every call."""
    calls = []
    real = liealg._schouten_pairs

    def counting(alg):
        calls.append(alg)
        return real(alg)

    monkeypatch.setattr(liealg, "_schouten_pairs", counting)
    L = schrodinger.algebra()
    r = formats.table("general.rmat")
    first = schouten(r)
    calls.clear()
    assert schouten(r) == first and schouten(r) is not first
    assert calls == []
    fresh = parse_algebra(load_table("schrodinger.alg"))
    gl2 = parse_algebra(load_table("gl2.alg"))
    r_fresh = formats.parse_rmatrix(load_table("general.rmat"), fresh)
    assert schouten(r_fresh) == first
    schouten(r_fresh)
    r_gl2 = WedgeElement.from_pairs(gl2, [(1, "J3", "Jp"), (2, "Jm", "Jp")])
    schouten(r_gl2)
    schouten(r_gl2)
    assert calls == [fresh, gl2] and calls[0] is fresh
    images = L.memo("schouten-pairs", pytest.fail)
    assert images is not fresh.memo("schouten-pairs", pytest.fail)
    wedges = basis_keys(L.dim, 2, True)
    assert list(images) == wedges
    assert all(list(row) == wedges for row in images.values())
    with pytest.raises(TypeError):
        images[wedges[0]] = {}
    with pytest.raises(TypeError):
        images[wedges[0]][wedges[1]] = ()
    with pytest.raises(AttributeError):
        images[wedges[0]].clear()
    for p in wedges:
        for q in wedges:
            img = images[p][q]
            assert img is images[q][p] and type(img) is tuple
            assert all(type(s) is int or s.denominator != 1 for _, s in img)
    # [[K^P, K^P]] = K^P^M, as [K,P] = M; D^M with K^P cancels, as K^P
    # is ad_D-invariant
    k, p, m, d = (L.index(g) for g in "KPMD")
    assert images[k, p][k, p] == (((k, p, m), 1),)
    assert images[d, m][k, p] == ()


# ---------------------------------------------------------------------------
# metamorphic: the bracket commutes with an automorphism
# ---------------------------------------------------------------------------

def _push_wedge3(w, images):
    """(phi^phi^phi)(w) of a degree-3 wedge, phi sending generator i to
    the AlgElement images[i]."""
    out = {}
    for key, c in w.terms.items():
        for ((u,), cu), ((v,), cv), ((x,), cx) in product(
                *(images[t].terms.items() for t in key)):
            k, sign = _sort_tuple((u, v, x))
            if sign:
                out[k] = out.get(k, PolyExpr.zero()) + c * (sign * cu * cv * cx)
    return WedgeElement(w.algebra, 3, out)


@pytest.mark.parametrize("table", RMAT_TABLES)
def test_schouten_commutes_with_the_basis_flip(basis_flip, table):
    """[[phi r, phi r]] = phi [[r,r]] for the automorphism of
    basis_flip.map, a signed permutation, on every packaged r-matrix (the
    families' r-matrices among them)."""
    r = formats.table(table)
    s = schouten(r)
    assert schouten(push_wedge2(r, basis_flip)) == _push_wedge3(s, basis_flip)


def test_schouten_of_a_wedge_with_the_centre_vanishes(L, basis_flip):
    """r = X^M with X = sum x_i X_i symbolic: every bracket term holds
    [., M] = 0 or repeats M, so [[r,r]] = 0, and so is the bracket of its
    image under the automorphism."""
    x = L.element({g: PolyExpr.var(f"x{i}") for i, g in enumerate(L.names)})
    m = L.index("M")
    r = WedgeElement(L, 2, {(i, m): c for (i,), c in x.terms.items()})
    assert len(r.terms) == L.dim - 1
    assert schouten(r).is_zero()
    assert schouten(push_wedge2(r, basis_flip)).is_zero()


def test_a_flipped_sign_breaks_the_equivariance(L, basis_flip):
    """Negative control: with D -> D in place of D -> -D the map is no
    automorphism ([D,C] = 2C goes to [D,-H] = 2H, not -2H), and the
    bracket of general.rmat no longer commutes with it."""
    bent = list(basis_flip)
    d = L.index("D")
    bent[d] = -bent[d]
    assert bent[d] == L.gen("D")
    assert homomorphism_residuals(L, bent)
    r = formats.table("general.rmat")
    assert schouten(push_wedge2(r, bent)) != _push_wedge3(schouten(r), bent)
