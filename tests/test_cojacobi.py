"""The co-Jacobi constraints are summed in Lambda^3, one product per wedge
pair and one coefficient per sorted triple.  The tensor-cube loop they
replaced is kept here as the reference: the same list, the same printed
polynomials and the same contexts.  Where two of delta's coefficients
conflict, ``cojacobi_constraints`` raises ContextError from its one up-front
check, also where the reference never multiplies them.
``normalize_constraints`` is checked against the string-keyed dedup it
replaced in the same way."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from liebialg import formats, schrodinger
from liebialg.bialgebra import (Cocommutator, cocycle_solve,
                                cojacobi_constraints, normalize_constraints)
from liebialg.liealg import LieAlgebra, WedgeElement
from liebialg.symkernel import ContextError, PolyExpr, poly, sum_by_key

SCHRODINGER = schrodinger.algebra()
GL2 = formats.table("gl2.alg")

x, y = PolyExpr.var("x"), PolyExpr.var("y")
E = PolyExpr.var("E", invertible=True)
E_PLAIN = PolyExpr.var("E")                      # E without the unit flag
_ATOMS = (PolyExpr.const(1), x, x * y, E, E ** -1, E * x, E_PLAIN,
          E_PLAIN * y)
# the atoms of one context: E invertible, or E plain
_CONTEXTS = ((0, 1, 2, 3, 4, 5), (0, 1, 2, 6, 7))

_numbers = st.one_of(st.integers(-3, 3),
                     st.fractions(min_value=-2, max_value=2,
                                  max_denominator=3))


def _tensor_cube_constraints(L, delta):
    """The reference: the cyclic sum of (delta (x) id) o delta(X_i) over
    ordered tensor keys, each product pushed onto its three cyclic keys."""
    tens = [row.to_tensor() for row in delta.rows]
    raw = []
    for i in range(L.dim):
        items = []
        for (p, q), c in tens[i].terms.items():
            for (u, v), c2 in tens[p].terms.items():
                coeff = c * c2
                items += (((u, v, q), 1, coeff), ((q, u, v), 1, coeff),
                          ((v, q, u), 1, coeff))
        raw.extend(sum_by_key(items).values())
    return normalize_constraints(raw)


def _coeff(atoms):
    """A nonzero coefficient: a sum of scaled atoms of one context."""
    return st.lists(st.tuples(_numbers.filter(bool), st.sampled_from(atoms)),
                    min_size=1, max_size=3).map(
        lambda parts: sum((_ATOMS[a] * k for k, a in parts[1:]),
                          _ATOMS[parts[0][1]] * parts[0][0]))


@st.composite
def _deltas(draw, L):
    """Antisymmetric rows with PolyExpr coefficients: all in one context,
    as when a cocommutator comes from one table, or each coefficient in a
    context of its own."""
    pairs = list(combinations(range(L.dim), 2))
    mixed = draw(st.booleans())
    one = _coeff(draw(st.sampled_from(_CONTEXTS)))
    coeff = st.sampled_from(_CONTEXTS).flatmap(_coeff) if mixed else one
    rows = draw(st.lists(st.dictionaries(st.sampled_from(pairs), coeff,
                                         max_size=4),
                         min_size=L.dim, max_size=L.dim))
    return Cocommutator(L, [WedgeElement(L, 2, r) for r in rows])


def _entries(polys):
    return [(str(p), dict(p.terms), p.inv) for p in polys]


def _conflicting(delta):
    """Whether two of delta's coefficients conflict: their sum raises."""
    coeffs = [c for row in delta.rows for c in row.terms.values()]
    try:
        for a, b in combinations(coeffs, 2):
            a + b
    except ContextError:
        return True
    return False


def _assert_matches_reference(L, delta):
    if _conflicting(delta):
        with pytest.raises(ContextError):
            cojacobi_constraints(L, delta)
        return
    want = _tensor_cube_constraints(L, delta)
    got = cojacobi_constraints(L, delta)
    assert got == want
    assert _entries(got) == _entries(want)


@settings(max_examples=60, deadline=None)
@given(_deltas(SCHRODINGER))
def test_schrodinger_matches_the_tensor_cube(delta):
    _assert_matches_reference(SCHRODINGER, delta)


@settings(max_examples=60, deadline=None)
@given(_deltas(GL2))
def test_gl2_matches_the_tensor_cube(delta):
    _assert_matches_reference(GL2, delta)


@pytest.mark.parametrize("name", ["schrodinger.alg", "gl2.alg",
                                  "oscillator.alg", "galilei.alg",
                                  "twophoton.alg"])
def test_cocycle_solutions_match_the_tensor_cube(name):
    L = formats.table(name)
    _assert_matches_reference(L, cocycle_solve(L).cocommutator)


def test_packaged_cocommutators_match_the_tensor_cube():
    for name in ("cocycle_general.delta", "cocommutators_general.delta",
                 "gl2_family.delta", "galilei_target.delta",
                 "oscillator_target.delta"):
        L, delta = formats.table(name)
        _assert_matches_reference(L, delta)


def test_contexts_merge_at_repeated_indices():
    """Two coefficients, one with E invertible and one with E plain,
    conflict wherever their products meet: only at a triple with a
    repeated index, as here, or nowhere at all.  The tensor cube raises in
    the first case only; the one up-front check raises in both."""
    L = SCHRODINGER
    D, C, H, K, P, M = range(L.dim)
    rows = [{}] * L.dim
    rows[D] = {(C, P): x, (H, P): x}
    rows[C] = {(P, K): E}
    rows[H] = {(P, K): E_PLAIN}
    delta = Cocommutator(L, [WedgeElement(L, 2, r) for r in rows])
    with pytest.raises(ContextError):
        _tensor_cube_constraints(L, delta)
    with pytest.raises(ContextError):
        cojacobi_constraints(L, delta)
    # in one context the same rows give no constraint at all
    rows[H] = {(P, K): E}
    delta = Cocommutator(L, [WedgeElement(L, 2, r) for r in rows])
    assert cojacobi_constraints(L, delta) == [] == \
        _tensor_cube_constraints(L, delta)
    # E and plain E in two rows whose products never meet: delta(C) and
    # delta(H) hold the only terms, and delta(P) = delta(K) = 0
    rows = [{}] * L.dim
    rows[C] = {(P, K): E}
    rows[H] = {(P, K): E_PLAIN}
    delta = Cocommutator(L, [WedgeElement(L, 2, r) for r in rows])
    assert _tensor_cube_constraints(L, delta) == []
    with pytest.raises(ContextError):
        cojacobi_constraints(L, delta)


@pytest.mark.parametrize("names,brackets", [
    (("X",), {}),
    (("X", "Y"), {}),
    (("X", "Y"), {("X", "Y"): {"Y": 1}}),
])
def test_below_dimension_three_there_is_no_constraint(names, brackets):
    """Lambda^3 of an algebra of dimension < 3 is zero."""
    L = LieAlgebra(names, brackets)
    rows = [WedgeElement(L, 2, {(0, 1): x * y} if L.dim == 2 else {})
            for _ in names]
    delta = Cocommutator(L, rows)
    assert cojacobi_constraints(L, delta) == []
    assert _tensor_cube_constraints(L, delta) == []
    if L.dim == 2:
        assert cojacobi_constraints(L, cocycle_solve(L).cocommutator) == []


# -- normalize_constraints ----------------------------------------------------

def _string_keyed(polys):
    """The reference: monic, dedup by printed text, the last one wins."""
    seen = {}
    for p in polys:
        p = poly(p)
        if not p:
            continue
        p = p.monic()
        seen[str(p)] = p
    return [seen[k] for k in sorted(seen)]


# E-free polynomials with and without E in their context: equal terms,
# different contexts
_constraints = st.lists(st.one_of(_coeff(_CONTEXTS[0]), _coeff(_CONTEXTS[1]),
                                  _coeff((0, 1, 2)).map(lambda p: p + E * 0),
                                  st.just(PolyExpr.zero()), _numbers),
                        max_size=12)


@settings(max_examples=100, deadline=None)
@given(_constraints)
def test_normalize_matches_the_string_keyed_dedup(polys):
    polys = polys + polys[::2]
    assert _entries(normalize_constraints(polys)) == \
        _entries(_string_keyed(polys))


def test_normalize_keeps_the_last_context_and_collapses_equal_text():
    plain = PolyExpr({(("E", 1),): 2})           # 2*E, E plain
    out = normalize_constraints([E, plain, 3 * x, x])
    assert _entries(out) == [("E", {(("E", 1),): 1}, frozenset()),
                             ("x", {(("x", 1),): 1}, frozenset())]
    # different terms, the same text: the last one wins, as by text alone
    glued = PolyExpr.var("x*y")
    for polys in ([x * y, glued], [glued, x * y], [glued, x * y, glued]):
        assert _entries(normalize_constraints(polys)) == \
            _entries(_string_keyed(polys))
        assert len(normalize_constraints(polys)) == 1


def test_normalize_prints_each_distinct_polynomial_once(monkeypatch):
    printed = []
    real = PolyExpr.__str__

    def counting(self):
        printed.append(self)
        return real(self)

    _, delta = formats.table("cocycle_general.delta")
    raw = [c for row in delta.rows for c in row.terms.values()] * 3
    monkeypatch.setattr(PolyExpr, "__str__", counting)
    out = normalize_constraints(raw)
    assert len(printed) == len(out) < len(raw)
