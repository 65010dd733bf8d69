"""Every linear combination is summed by ``symkernel.sum_by_key``.  Each
property compares one summing site with the running sum it replaced, kept
here as the reference: the same values."""

from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from liebialg import formats, schrodinger
from liebialg.bialgebra import Cocommutator
from liebialg.liealg import AlgElement, WedgeElement, push_wedge2
from liebialg.sklyanin import (COORDS, GroupMatrix, PoissonTable, VectorField,
                               d_coord, linear_part)
from liebialg.symkernel import PolyExpr

L = schrodinger.algebra()
_PAIRS = list(combinations(range(L.dim), 2))

x, y = PolyExpr.var("x"), PolyExpr.var("y")
E = PolyExpr.var("E")
_ATOMS = (PolyExpr.const(1), x, x * y, E, E ** -1, E * x, x ** -1 * y)

_numbers = st.one_of(st.integers(-2, 2),
                     st.fractions(min_value=-2, max_value=2,
                                  max_denominator=3))


def _coeff():
    """A coefficient: a sum of scaled atoms."""
    return st.lists(st.tuples(_numbers, st.sampled_from(range(len(_ATOMS)))),
                    min_size=1, max_size=2).map(
        lambda parts: sum((_ATOMS[a] * c for c, a in parts),
                          PolyExpr.zero()))


def _wedges(coeff=_coeff()):
    return st.dictionaries(st.sampled_from(_PAIRS), coeff,
                           max_size=5).map(lambda t: WedgeElement(L, 2, t))


def _same(got, want):
    """Equal terms."""
    assert dict(got) == dict(want)


# -- wedge + and - -------------------------------------------------------------

def _old_binop(a, b, op):
    out = dict(a.terms)
    for key, c in b.terms.items():
        out[key] = op(out.get(key, PolyExpr.zero()), c)
    return type(a)(a.algebra, a.degree, out)


@settings(max_examples=100, deadline=None)
@given(_wedges(), _wedges(), st.booleans())
def test_wedge_sum_matches_the_running_sum(a, b, add):
    if add:
        got, want = a + b, _old_binop(a, b, lambda p, q: p + q)
    else:
        got, want = a - b, _old_binop(a, b, lambda p, q: p - q)
    _same(got.terms, want.terms)


# -- push_wedge2 -----------------------------------------------------------------

def _old_push_wedge2(w, images, algebra=None):
    """The running sum over the rows of a coefficient matrix."""
    out = {}
    for (p, q), c in w.terms.items():
        for u, cu in enumerate(images[p]):
            if not cu:
                continue
            for v, cv in enumerate(images[q]):
                if cv and u != v:
                    val = c * (cu * cv)
                    out[(u, v)] = out.get((u, v), PolyExpr.zero()) + val
    return WedgeElement(algebra or w.algebra, 2, out)


_entries = st.one_of(st.just(0), st.just(0), st.integers(-2, 2), _coeff())
_images = st.lists(st.lists(_entries, min_size=L.dim, max_size=L.dim),
                   min_size=L.dim, max_size=L.dim)


@settings(max_examples=50, deadline=None)
@given(_wedges(), _images)
def test_push_wedge2_matches_the_running_sum(w, images):
    elements = [AlgElement(L, 1, {(u,): c for u, c in enumerate(row)})
                for row in images]
    _same(push_wedge2(w, elements).terms, _old_push_wedge2(w, images).terms)


# -- Cocommutator.of ---------------------------------------------------------------

def _old_of(delta, elem):
    out = WedgeElement(delta.algebra, 2, {})
    for i in range(delta.algebra.dim):
        c = elem.coeff((i,))
        if c:
            out = _old_binop(out, delta.rows[i].scale(c), lambda p, q: p + q)
    return out


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cocommutator_of_matches_the_running_sum(data):
    coeff = _coeff()
    rows = data.draw(st.lists(_wedges(coeff), min_size=L.dim,
                              max_size=L.dim))
    coeffs = data.draw(st.lists(st.one_of(st.just(PolyExpr.zero()), coeff),
                                min_size=L.dim, max_size=L.dim))
    delta = Cocommutator(L, rows)
    elem = AlgElement(L, 1, {(i,): c for i, c in enumerate(coeffs)})
    _same(delta.of(elem).terms, _old_of(delta, elem).terms)


def test_cocommutator_of_with_conflicting_contexts_raises():
    """Rows scaled by E applied to an element with E^-1 and E coefficients,
    the mix that once raised a context error, sum to the running sum."""
    general = formats.table("cocommutators_general.delta")
    scaled = Cocommutator(L, [r.scale(E) for r in general.rows])
    elem = L.element({"D": E ** -1, "P": E})
    assert scaled.of(elem) == _old_of(scaled, elem)


def test_cocommutator_of_checks_contexts_across_cancelled_rows():
    """A key whose terms cancel and come back again is summed once."""
    row = WedgeElement.from_pairs(L, [(E, "D", "P")])
    zero = WedgeElement(L, 2, {})
    delta = Cocommutator(L, [row, row, row, zero, zero, zero])
    elem = L.element({"D": 1, "C": -1, "H": 1})
    assert delta.of(elem) == _old_of(delta, elem) == row


# -- PoissonTable + ------------------------------------------------------------------

def _old_ptable_add(a, b):
    out = dict(a.terms)
    for key, v in b.terms.items():
        out[key] = out.get(key, PolyExpr.zero()) + v
    return PoissonTable(out)


_CPAIRS = list(combinations(COORDS, 2))
# each pair stored in either order; the table stores it in coordinate order
_tables = st.dictionaries(
    st.sampled_from(_CPAIRS), st.tuples(st.booleans(), _coeff()),
    max_size=6).map(lambda t: PoissonTable(
        {xy[::-1] if flip else xy: v for xy, (flip, v) in t.items()}))


@settings(max_examples=100, deadline=None)
@given(_tables, _tables)
def test_poisson_table_sum_matches_the_running_sum(a, b):
    got, want = a + b, _old_ptable_add(a, b)
    assert got == want
    _same({k: v for k, v in got.terms.items() if v},
          {k: v for k, v in want.terms.items() if v})


# -- linear_part ------------------------------------------------------------------------

def _old_linear_part(f):
    coord_vars = [q for q in COORDS if q != "d"]
    const = PolyExpr.zero()
    lin = {q: PolyExpr.zero() for q in COORDS}
    for mono, cf in f.terms.items():
        coords_present = [(nm, e) for nm, e in mono if nm in coord_vars]
        e_exp = dict(mono).get("E", 0)
        par = tuple((nm, e) for nm, e in mono
                    if nm not in coord_vars and nm != "E")
        pref = PolyExpr({par: cf})
        s = sum(e for _, e in coords_present)
        if s == 0:
            const = const + pref
            if e_exp:
                lin["d"] = lin["d"] + pref * e_exp
        elif s == 1:
            lin[coords_present[0][0]] = lin[coords_present[0][0]] + pref
    return const, lin


_fmono = st.lists(st.tuples(st.sampled_from(["h", "p", "c", "m", "a", "b"]),
                            st.integers(1, 2)), max_size=2, unique_by=lambda
                  t: t[0]).flatmap(lambda m: st.integers(-2, 2).map(
                      lambda e: tuple(sorted(m + ([("E", e)] if e else [])))))
_functions = st.dictionaries(_fmono, st.integers(-3, 3), max_size=6).map(
    PolyExpr)


@settings(max_examples=150, deadline=None)
@given(_functions)
def test_linear_part_matches_the_running_sum(f):
    const, lin = linear_part(f)
    want_const, want_lin = _old_linear_part(f)
    assert const == want_const
    assert lin == want_lin and list(lin) == list(COORDS)
    _same({q: v for q, v in lin.items() if v},
          {q: v for q, v in want_lin.items() if v})


# -- GroupMatrix and VectorField ------------------------------------------------
# The dense-row matrix and the tuple of six components they replaced, kept
# here as the reference.

def _rows(m):
    return [[m.coeff((i, j)) for j in range(4)] for i in range(4)]


def _old_matmul(a, b):
    out = [[PolyExpr.zero()] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            for t in range(4):
                out[i][j] = out[i][j] + a[i][t] * b[t][j]
    return out


def _old_matadd(a, b):
    return [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)]


def _old_det(a):
    out = PolyExpr.zero()
    for perm in permutations(range(4)):
        term = PolyExpr.const(-1 if sum(x > y for x, y in combinations(
            perm, 2)) % 2 else 1)
        for i in range(4):
            term = term * a[i][perm[i]]
        out = out + term
    return out


def _components(f):
    return tuple(f.coeff(q) for q in COORDS)


def _old_field_add(f, g):
    return tuple(a + b for a, b in zip(_components(f), _components(g)))


def _old_apply(components, fn):
    out = PolyExpr.zero()
    for q, comp in zip(COORDS, components):
        if comp:
            out = out + comp * d_coord(fn, q)
    return out


_CELLS = [(i, j) for i in range(4) for j in range(4)]
_matrices = st.dictionaries(st.sampled_from(_CELLS), _coeff(),
                            max_size=8).map(GroupMatrix)
_fields = st.dictionaries(st.sampled_from(COORDS), _coeff(),
                          max_size=4).map(VectorField)


@settings(max_examples=100, deadline=None)
@given(_matrices, _matrices)
def test_group_matrix_matches_the_dense_rows(a, b):
    assert _rows(a * b) == _old_matmul(_rows(a), _rows(b))
    assert _rows(a + b) == _old_matadd(_rows(a), _rows(b))
    assert a.det() == _old_det(_rows(a))
    assert (a == b) == (_rows(a) == _rows(b))


@settings(max_examples=100, deadline=None)
@given(_fields, _fields, _functions)
def test_vector_field_matches_the_components(f, g, fn):
    assert _components(f + g) == _old_field_add(f, g)
    assert f.apply(fn) == _old_apply(_components(f), fn)
    # a map of the entries is the entrywise map, and a sum applies linearly
    m = GroupMatrix({(0, 1): fn, (2, 3): E * fn})
    assert _rows(m.apply_field(f)) == [[f.apply(v) for v in row]
                                      for row in _rows(m)]
    assert (f + g).apply(fn) == f.apply(fn) + g.apply(fn)


def test_vector_field_rejects_an_unknown_coordinate():
    with pytest.raises(ValueError, match="unknown coordinate 'x'"):
        VectorField({"h": 1, "x": 1})
    with pytest.raises(ValueError, match="unknown coordinate 'E'"):
        VectorField({"E": 1})


def test_group_matrix_rejects_an_entry_outside_4x4():
    for key in ((4, 0), (0, -1), (1,), "d"):
        with pytest.raises(ValueError, match="in a 4x4 matrix"):
            GroupMatrix({key: 1})
    with pytest.raises(ValueError, match="need a 4x4 matrix"):
        GroupMatrix.from_rows([[1, 0, 0, 0]] * 3)


def test_poisson_table_rejects_a_diagonal_or_unknown_pair():
    for key in (("d", "d"), ("d", "q"), ("E", "h"), "dh", ("d", "h", "p")):
        with pytest.raises(ValueError, match="not a pair of two coordinates"):
            PoissonTable({key: 1})
    assert PoissonTable({("h", "d"): 1}) == PoissonTable({("d", "h"): -1})


def test_keyed_values_of_different_kinds_do_not_combine():
    f, m = VectorField({"h": 1}), GroupMatrix.identity()
    assert f != m and m != PoissonTable({})
    with pytest.raises(ValueError, match="cannot combine"):
        f + m
