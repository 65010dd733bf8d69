"""The co-Jacobi constraints are summed in Lambda^3, one product per wedge
pair and one coefficient per sorted triple.  The tensor-cube loop they
replaced is kept here as the reference: the same list and the same printed
polynomials.  ``normalize_constraints`` is checked against the string-keyed
dedup it replaced in the same way."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from liebialg import formats, schrodinger
from liebialg.bialgebra import (Cocommutator, cocycle_solve,
                                cojacobi_constraints, normalize_constraints)
from liebialg.liealg import LieAlgebra, WedgeElement
from liebialg.symkernel import PolyExpr, poly, sum_by_key

SCHRODINGER = schrodinger.algebra()
GL2 = formats.table("gl2.alg")

x, y = PolyExpr.var("x"), PolyExpr.var("y")
E = PolyExpr.var("E")
_ATOMS = (PolyExpr.const(1), x, x * y, E, E ** -1, E * x, x ** -1 * y)

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


def _coeff(atoms=range(len(_ATOMS))):
    """A coefficient: a sum of scaled atoms."""
    return st.lists(st.tuples(_numbers.filter(bool), st.sampled_from(atoms)),
                    min_size=1, max_size=3).map(
        lambda parts: sum((_ATOMS[a] * k for k, a in parts[1:]),
                          _ATOMS[parts[0][1]] * parts[0][0]))


@st.composite
def _deltas(draw, L):
    """Antisymmetric rows with PolyExpr coefficients."""
    pairs = list(combinations(range(L.dim), 2))
    rows = draw(st.lists(st.dictionaries(st.sampled_from(pairs), _coeff(),
                                         max_size=4),
                         min_size=L.dim, max_size=L.dim))
    return Cocommutator(L, [WedgeElement(L, 2, r) for r in rows])


def _entries(polys):
    return [(str(p), dict(p.terms)) for p in polys]


def _assert_matches_reference(L, delta):
    want = _tensor_cube_constraints(L, delta)
    got = cojacobi_constraints(delta)
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
        delta = formats.table(name)
        _assert_matches_reference(delta.algebra, delta)


def test_products_that_meet_only_at_repeated_indices_add_nothing():
    """Products of delta's coefficients that meet only at a triple with a
    repeated index, or nowhere at all, give no constraint."""
    L = SCHRODINGER
    D, C, H, K, P, M = range(L.dim)
    rows = [{}] * L.dim
    rows[D] = {(C, P): x, (H, P): x}
    rows[C] = {(P, K): E}
    rows[H] = {(P, K): E}
    delta = Cocommutator(L, [WedgeElement(L, 2, r) for r in rows])
    assert cojacobi_constraints(delta) == [] == \
        _tensor_cube_constraints(L, delta)
    # two rows whose products never meet: delta(C) and delta(H) hold the
    # only terms, and delta(P) = delta(K) = 0
    rows = [{}] * L.dim
    rows[C] = {(P, K): E}
    rows[H] = {(P, K): E}
    delta = Cocommutator(L, [WedgeElement(L, 2, r) for r in rows])
    assert cojacobi_constraints(delta) == [] == \
        _tensor_cube_constraints(L, delta)


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
    assert cojacobi_constraints(delta) == []
    assert _tensor_cube_constraints(L, delta) == []
    if L.dim == 2:
        assert cojacobi_constraints(cocycle_solve(L).cocommutator) == []


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


_constraints = st.lists(st.one_of(_coeff(), _coeff((0, 1, 2)),
                                  st.just(PolyExpr.zero()), _numbers),
                        max_size=12)


@settings(max_examples=100, deadline=None)
@given(_constraints)
def test_normalize_matches_the_string_keyed_dedup(polys):
    polys = polys + polys[::2]
    assert _entries(normalize_constraints(polys)) == \
        _entries(_string_keyed(polys))


def test_normalize_collapses_equal_monic_terms_and_equal_text():
    out = normalize_constraints([E, 2 * E, 3 * x, x])
    assert _entries(out) == [("E", {(("E", 1),): 1}),
                             ("x", {(("x", 1),): 1})]
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

    delta = formats.table("cocycle_general.delta")
    raw = [c for row in delta.rows for c in row.terms.values()] * 3
    monkeypatch.setattr(PolyExpr, "__str__", counting)
    out = normalize_constraints(raw)
    assert len(printed) == len(out) < len(raw)
