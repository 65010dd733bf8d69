"""Every linear combination is summed by ``symkernel.sum_by_key``.  Each
property compares one summing site with the running sum it replaced, kept
here as the reference: same values, same contexts, and a ContextError on
the same inputs."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from liebialg import formats, schrodinger
from liebialg.bialgebra import Cocommutator
from liebialg.liealg import AlgElement, WedgeElement, push_wedge2
from liebialg.sklyanin import COORDS, PoissonTable, linear_part
from liebialg.symkernel import ContextError, PolyExpr

L = schrodinger.algebra()
_PAIRS = list(combinations(range(L.dim), 2))

x, y = PolyExpr.var("x"), PolyExpr.var("y")
E = PolyExpr.var("E", invertible=True)
E_PLAIN = PolyExpr.var("E")                      # E without the unit flag
# E * 0 has no terms but keeps E in its context
_ATOMS = (PolyExpr.const(1), x, x * y, E, E ** -1, E * x, E_PLAIN, E * 0)
# the atoms of one context: E invertible, or E plain
_CONTEXTS = ((0, 1, 2, 3, 4, 5, 7), (0, 1, 2, 6))

_numbers = st.one_of(st.integers(-2, 2),
                     st.fractions(min_value=-2, max_value=2,
                                  max_denominator=3))


def _coeff(atoms=range(len(_ATOMS))):
    """A coefficient: a sum of scaled atoms in the first atom's context."""
    def build(parts):
        first = _ATOMS[parts[0][1]]
        out = first * parts[0][0]
        for c, a in parts[1:]:
            if _ATOMS[a].inv == first.inv:
                out = out + _ATOMS[a] * c
        return out
    return st.lists(st.tuples(_numbers, st.sampled_from(atoms)),
                    min_size=1, max_size=2).map(build)


def _wedges(coeff=_coeff()):
    return st.dictionaries(st.sampled_from(_PAIRS), coeff,
                           max_size=5).map(lambda t: WedgeElement(L, 2, t))


def _same(got, want):
    """Equal terms, and each coefficient in the same context."""
    assert dict(got) == dict(want)
    assert {k: v.inv for k, v in got.items()} == \
        {k: v.inv for k, v in want.items()}


def _compare(new, old, *args):
    """Run both; either both raise ContextError or they return the same."""
    try:
        want = old(*args)
    except ContextError:
        with pytest.raises(ContextError):
            new(*args)
        return None, None
    return new(*args), want


# -- wedge + and - -------------------------------------------------------------

def _old_binop(a, b, op):
    out = dict(a.terms)
    for key, c in b.terms.items():
        out[key] = op(out.get(key, PolyExpr.zero()), c)
    return type(a)(a.algebra, a.degree, out)


@settings(max_examples=100, deadline=None)
@given(_wedges(), _wedges(), st.booleans())
def test_wedge_sum_matches_the_running_sum(a, b, add):
    old = (lambda u, v: _old_binop(u, v, lambda p, q: p + q)) if add else \
        (lambda u, v: _old_binop(u, v, lambda p, q: p - q))
    got, want = _compare((lambda u, v: u + v) if add else
                         (lambda u, v: u - v), old, a, b)
    if want is not None:
        _same(got.terms, want.terms)


def test_wedge_sum_with_conflicting_contexts_raises():
    a = WedgeElement.from_pairs(L, [(E, "D", "P")])
    b = WedgeElement.from_pairs(L, [(E_PLAIN, "D", "P")])
    for op in (lambda p, q: p + q, lambda p, q: p - q):
        with pytest.raises(ContextError):
            _old_binop(a, b, op)
        with pytest.raises(ContextError):
            op(a, b)


# -- push_wedge2 -----------------------------------------------------------------

def _old_push_wedge2(w, images, algebra=None):
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
    got, want = _compare(push_wedge2, _old_push_wedge2, w, images)
    if want is not None:
        _same(got.terms, want.terms)


# -- Cocommutator.of ---------------------------------------------------------------

def _old_of(delta, elem):
    out = WedgeElement(delta.algebra, 2, {})
    for i, c in enumerate(elem.coeffs):
        if c:
            out = _old_binop(out, delta.rows[i].scale(c), lambda p, q: p + q)
    return out


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_CONTEXTS), st.data())
def test_cocommutator_of_matches_the_running_sum(atoms, data):
    """Rows and element in one context, as when both come from one table."""
    coeff = _coeff(atoms)
    rows = data.draw(st.lists(_wedges(coeff), min_size=L.dim,
                              max_size=L.dim))
    coeffs = data.draw(st.lists(st.one_of(st.just(PolyExpr.zero()), coeff),
                                min_size=L.dim, max_size=L.dim))
    delta, elem = Cocommutator(L, rows), AlgElement(L, coeffs)
    _same(delta.of(elem).terms, _old_of(delta, elem).terms)


def test_cocommutator_of_with_conflicting_contexts_raises():
    _, delta = formats.table("cocommutators_general.delta")
    elem = L.element({"D": E_PLAIN, "P": E})
    bad = Cocommutator(L, [row.scale(E) for row in delta.rows])
    with pytest.raises(ContextError):
        _old_of(bad, elem)
    with pytest.raises(ContextError):
        bad.of(elem)


def test_cocommutator_of_checks_contexts_across_cancelled_rows():
    """One keyed sum merges every contribution's context.  The chain of
    wedge sums it replaced dropped a key whose terms cancelled, so a plain E
    after a cancelled invertible one went unnoticed."""
    row = WedgeElement.from_pairs(L, [(E, "D", "P")])
    plain = WedgeElement.from_pairs(L, [(E_PLAIN, "D", "P")])
    zero = WedgeElement(L, 2, {})
    delta = Cocommutator(L, [row, row, plain, zero, zero, zero])
    elem = L.element({"D": 1, "C": -1, "H": 1})
    assert _old_of(delta, elem) == plain
    with pytest.raises(ContextError):
        delta.of(elem)


# -- PoissonTable + ------------------------------------------------------------------

def _old_ptable_add(a, b):
    out = dict(a.entries)
    for key, v in b.entries.items():
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
    got, want = _compare(lambda u, v: u + v, _old_ptable_add, a, b)
    if want is not None:
        assert got == want
        _same({k: v for k, v in got.entries.items() if v},
              {k: v for k, v in want.entries.items() if v})


def test_poisson_table_sum_with_conflicting_contexts_raises():
    a = PoissonTable({("d", "h"): E})
    b = PoissonTable({("h", "d"): E_PLAIN})
    with pytest.raises(ContextError):
        _old_ptable_add(a, b)
    with pytest.raises(ContextError):
        a + b


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
        pref = PolyExpr({par: cf}, f.inv)
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
    lambda t: PolyExpr(t, frozenset({"E"})))


@settings(max_examples=150, deadline=None)
@given(_functions)
def test_linear_part_matches_the_running_sum(f):
    const, lin = linear_part(f)
    want_const, want_lin = _old_linear_part(f)
    assert const == want_const
    assert lin == want_lin and list(lin) == list(COORDS)
    if const:
        assert const.inv == want_const.inv
    _same({q: v for q, v in lin.items() if v},
          {q: v for q, v in want_lin.items() if v})
