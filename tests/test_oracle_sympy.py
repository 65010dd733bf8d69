"""Independent cross-checks against sympy.

These recompute the heaviest symbolic results along a completely different
code path (sympy expressions with exp(d), matrix exponentials, diff) and
compare them with the exact Laurent kernel.
"""

import random
from fractions import Fraction

import sympy as sp
import pytest

from conftest import dense_rref, sparse
from liebialg.symkernel import PolyExpr, span_equal, rref, nullspace
from liebialg import bialgebra, schrodinger, families
from liebialg.sklyanin import COORDS, sklyanin_table
from liebialg.liealg import schouten
from test_sklyanin import table_bracket

d, h, p, k, c, m = sp.symbols("d h p k c m")
SYM_COORDS = {"d": d, "h": h, "p": p, "k": k, "c": c, "m": m}


def to_sympy(expr):
    out = sp.Integer(0)
    for mono, coeff in expr.terms.items():
        term = sp.Rational(coeff.numerator, coeff.denominator)
        for name, e in mono:
            if name == "E":
                term *= sp.exp(d) ** e
            else:
                term *= sp.Symbol(name) ** e
        out += term
    return out


@pytest.fixture(scope="module")
def sympy_fields():
    XL = {
        "H": {h: sp.exp(-2 * d), d: -c * sp.exp(-2 * d),
              c: -c ** 2 * sp.exp(-2 * d)},
        "P": {p: (1 - c * h) * sp.exp(-d), m: k * (1 - c * h) * sp.exp(-d),
              k: c * sp.exp(-d)},
        "K": {k: sp.exp(d), p: -h * sp.exp(d), m: -h * k * sp.exp(d)},
        "D": {d: sp.Integer(1)},
        "C": {c: sp.exp(2 * d)},
        "M": {m: sp.Integer(1)},
    }
    XR = {
        "H": {h: sp.Integer(1), p: -k, m: -k ** 2 / 2},
        "P": {p: sp.Integer(1)},
        "K": {k: sp.Integer(1), m: p},
        "M": {m: sp.Integer(1)},
        "D": {d: sp.Integer(1), c: 2 * c, h: -2 * h, p: -p, k: k},
        "C": {d: -h, c: 1 - 2 * h * c, h: h ** 2, k: p, m: p ** 2 / 2},
    }
    return XL, XR


def test_group_element_and_field_equations(sympy_fields):
    XL, XR = sympy_fields
    from liebialg.sklyanin import rep_matrices, closed_form_group_element
    rep = {g: sp.Matrix([[sp.Rational(v) for v in row] for row in mat])
           for g, mat in rep_matrices().items()}
    g_el = (sp.exp(m * rep["M"]) * sp.exp(p * rep["P"]) * sp.exp(k * rep["K"])
            * sp.exp(h * rep["H"]) * sp.exp(c * rep["C"])
            * sp.exp(d * rep["D"]))
    g_el = sp.simplify(g_el)
    want = closed_form_group_element()
    for i in range(4):
        for j in range(4):
            assert sp.simplify(g_el[i, j] - to_sympy(want.coeff((i, j)))) == 0

    def apply_field(f, expr):
        return sum(comp * sp.diff(expr, q) for q, comp in f.items())

    ginv = g_el.inv()
    for gen in schrodinger.algebra().names:
        xl = g_el.applyfunc(lambda e: apply_field(XL[gen], e))
        assert sp.simplify(ginv * xl - rep[gen]) == sp.zeros(4, 4)
        xr = g_el.applyfunc(lambda e: apply_field(XR[gen], e))
        assert sp.simplify(xr * ginv - rep[gen]) == sp.zeros(4, 4)


def test_sklyanin_table_against_sympy(sympy_fields):
    XL, XR = sympy_fields

    def field_on_coord(f, q):
        return f.get(SYM_COORDS[q], sp.Integer(0))

    L = schrodinger.algebra()
    r = families.load_rmatrix("general")
    comps = []
    for (i, j), cf in r.terms.items():
        comps.append((L.names[i], L.names[j], to_sympy(cf)))
        comps.append((L.names[j], L.names[i], -to_sympy(cf)))
    T = sklyanin_table(r)
    for x in COORDS:
        for y in COORDS:
            if x >= y and (x, y) != ("m", "d"):
                continue
            want = sp.Integer(0)
            for ga, gb, cf in comps:
                want += cf * (field_on_coord(XL[ga], x) * field_on_coord(XL[gb], y)
                              - field_on_coord(XR[ga], x) * field_on_coord(XR[gb], y))
            got = to_sympy(table_bracket(T, x, y))
            assert sp.expand(got - want) == 0, (x, y)


def test_schouten_against_sympy():
    L = schrodinger.algebra()
    n = L.dim
    C3 = [[[sp.Rational(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for kk, cf in L.sc(i, j).items():
                C3[i][j][kk] += sp.Rational(cf.numerator, cf.denominator)
    r = families.load_rmatrix("general")
    rt = [[sp.Integer(0)] * n for _ in range(n)]
    for (i, j), cf in r.terms.items():
        rt[i][j] += to_sympy(cf)
        rt[j][i] -= to_sympy(cf)
    cube = {}
    for i in range(n):
        for j in range(n):
            if rt[i][j] == 0:
                continue
            for kk in range(n):
                for l in range(n):
                    if rt[kk][l] == 0:
                        continue
                    cc = rt[i][j] * rt[kk][l]
                    for mm in range(n):
                        if C3[i][kk][mm]:
                            key = (mm, j, l)
                            cube[key] = cube.get(key, 0) + cc * C3[i][kk][mm]
                        if C3[j][kk][mm]:
                            key = (i, mm, l)
                            cube[key] = cube.get(key, 0) + cc * C3[j][kk][mm]
                        if C3[j][l][mm]:
                            key = (i, kk, mm)
                            cube[key] = cube.get(key, 0) + cc * C3[j][l][mm]
    got = schouten(r).to_tensor()
    for key in set(cube) | {kk for kk in got.terms}:
        want = sp.expand(cube.get(key, sp.Integer(0)))
        have = to_sympy(got.terms.get(key, PolyExpr.zero()))
        assert sp.expand(have - want) == 0, key


def test_span_equal_against_sympy_rank():
    rng = random.Random(19)
    gens = sp.symbols("u v w")
    V = [PolyExpr.var(str(g)) for g in gens]

    def rand_poly():
        out = PolyExpr.zero()
        for _ in range(rng.randint(1, 3)):
            term = PolyExpr.const(rng.randint(-3, 3))
            for v in rng.sample(V, rng.randint(0, 2)):
                term = term * v
            out = out + term
        return out

    def rank(polys):
        rows = [sp.Poly(to_sympy(q), *gens).as_dict() for q in polys]
        monos = sorted({m for row in rows for m in row})
        if not monos:
            return 0
        mat = sp.Matrix([[row.get(m, 0) for m in monos] for row in rows])
        return mat.rank()

    verdicts = set()
    for _ in range(40):
        B = [rand_poly() for _ in range(rng.randint(1, 3))]
        B.append(B[0] - 2 * B[-1])
        A = [sum((rng.randint(-2, 2) * b for b in B), PolyExpr.zero())
             for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:
            A.append(rand_poly())
        want = rank(A) == rank(B) == rank(A + B)
        assert span_equal(A, B).equal == want
        verdicts.add(want)
    assert verdicts == {True, False}


def _assert_rref_matches_sympy(rows):
    red, piv = dense_rref(rows)
    want, want_piv = sp.Matrix(rows).rref()
    assert tuple(piv) == want_piv
    # sympy writes the zero rows that rref leaves out
    zero_rows = [[0] * len(rows[0])] * (len(rows) - len(red))
    assert sp.Matrix(red + zero_rows) == want


def test_rref_against_sympy_random_sparse():
    rng = random.Random(23)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 10), rng.randint(1, 10)
        rows = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                 if rng.random() < 0.25 else Fraction(0)
                 for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.5:
            rows.append(list(rows[rng.randrange(nrows)]))
        _assert_rref_matches_sympy(rows)


def test_rref_against_sympy_on_cocycle_matrix(monkeypatch):
    seen = []

    def capture(rows, n):
        seen.append((rows, n))
        return nullspace(rows, n)

    monkeypatch.setattr(bialgebra, "nullspace", capture)
    bialgebra.cocycle_solve(schrodinger.algebra())
    ((mat, n),) = seen
    assert (len(mat), n) == (196, 90)
    dense = [[row.get(j, 0) for j in range(n)] for row in mat]
    # the rows as built, with the zeros of cancelled sums, reduce as the
    # dense matrix does
    assert rref(mat) == rref(sparse(dense))
    _assert_rref_matches_sympy(dense)
