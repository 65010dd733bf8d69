"""The co-Jacobi constraints are the Jacobi identity of g*, whose bracket
is the transpose of delta: the coefficients of the structure-constant
Jacobiator that ``jacobi_residual`` reads too.  The tensor-cube loop, the
cyclic sum of (delta (x) id) o delta, is kept here as the reference: the
same list and the same printed polynomials.  ``normalize_constraints`` is
checked against the string-keyed dedup it replaced in the same way.  The
Jacobiator of the Drinfeld double g + g* splits into the three classical
checks: the Jacobi residual of g, the co-Jacobi constraints and the
1-cocycle residual."""

from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from liebialg import families, formats, schrodinger
from liebialg.bialgebra import (Cocommutator, cocycle_residual,
                                cocycle_solve, cojacobi_constraints,
                                normalize_constraints)
from liebialg.liealg import (LieAlgebra, WedgeElement, _structure_jacobiator,
                             jacobi_residual)
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


# -- the Drinfeld double g + g* ----------------------------------------------

def _double(delta):
    """The structure constants of the double g + g*, X_i as generator i and
    xi^a as n + a: [X_i, X_j] = c_ij^k X_k, [xi^a, xi^b] = f_c^{ab} xi^c
    (the transpose of delta) and [X_i, xi^a] = -c_ik^a xi^k + f_i^{ak} X_k,
    f_i^{ab} the X_a^X_b coefficient of delta(X_i)."""
    L = delta.algebra
    n = L.dim
    sc = {(i, j): {k: poly(c) for k, c in L.sc(i, j).items()}
          for i, j in combinations(range(n), 2)}
    for k, row in enumerate(delta.rows):
        for (a, b), v in row.terms.items():
            sc.setdefault((n + a, n + b), {})[n + k] = v
    for i in range(n):
        for a in range(n):
            mixed = sc[(i, n + a)] = {}
            for k in range(n):
                c = L.sc(i, k).get(a)
                if c:
                    mixed[n + k] = poly(-c)
                f = delta.rows[i].signed_coeff((L.names[a], L.names[k]))
                if f:
                    mixed[k] = f
    return sc


def _assert_double_splits(delta):
    """The Jacobiator of the double is jacobi_residual(L) on (X, X, X), the
    co-Jacobi constraints on (xi, xi, xi), and on (X_i, X_j, xi^a) along
    X_b the X_a^X_b coefficient of the cocycle residual at (X_i, X_j).
    Returns the mixed part, {(i, j, a, b): PolyExpr}."""
    L = delta.algebra
    n = L.dim
    jac = _structure_jacobiator(_double(delta))
    gens = {(i, j, k, m): c for (i, j, k, m), c in jac.items() if k < n}
    assert gens == {(*(L.index(g) for g in t), m): c
                    for t, e in jacobi_residual(L)
                    for (m,), c in e.terms.items()}
    duals = [c for (i, j, k, m), c in jac.items() if i >= n]
    assert _entries(normalize_constraints(duals)) == \
        _entries(cojacobi_constraints(delta))
    mixed = {(i, j, k - n, m): c for (i, j, k, m), c in jac.items()
             if j < n <= k and m < n}
    want = {}
    for (x, y), res in cocycle_residual(delta):
        for a, b in permutations(range(n), 2):
            c = res.signed_coeff((L.names[a], L.names[b]))
            if c:
                want[(L.index(x), L.index(y), a, b)] = c
    assert mixed == want
    return mixed


def test_the_double_splits_into_the_three_checks():
    L = SCHRODINGER
    for delta in (families.family("general").delta,
                  formats.parse_delta(formats.load_table(
                      "cocycle_general.delta"), L)):
        assert _assert_double_splits(delta) == {}


def test_the_double_splits_on_a_fully_symbolic_delta():
    """Every f_i^{ab} its own unknown (90 of them): the mixed part is the
    cocycle residual term for term, 196 components in both orders."""
    L = SCHRODINGER
    pairs = list(combinations(range(L.dim), 2))
    delta = Cocommutator(L, [
        WedgeElement(L, 2, {(a, b): PolyExpr.var(f"f{i}_{a}{b}")
                            for a, b in pairs})
        for i in range(L.dim)])
    mixed = _assert_double_splits(delta)
    assert len(mixed) == 2 * 196


@settings(max_examples=15, deadline=None)
@given(_deltas(SCHRODINGER))
def test_the_double_splits_for_any_delta(delta):
    _assert_double_splits(delta)


def test_the_double_of_a_tampered_algebra_shows_its_jacobi_residual():
    """With delta = 0 the (X, X, X) part is the tampered table's Jacobi
    residual, and the (xi, xi, xi) and mixed parts along X vanish."""
    L = formats.parse_algebra(formats.load_table("schrodinger.alg").replace(
        "[D,P] = -P", "[D,P] = P"), check_jacobi=False)
    assert jacobi_residual(L)
    _assert_double_splits(Cocommutator(L, [WedgeElement(L, 2, {})] * L.dim))


def test_a_broken_delta_shows_in_the_mixed_part_of_the_double():
    """Negative control: delta(D) = D^P alone is no cocycle, and the double
    sees it at (D, H), as ``cocycle_residual`` does."""
    L = SCHRODINGER
    rows = [WedgeElement(L, 2, {})] * L.dim
    bad = Cocommutator(L, [WedgeElement.from_pairs(L, [(1, "D", "P")])]
                       + rows[1:])
    mixed = _assert_double_splits(bad)
    D, H = L.index("D"), L.index("H")
    assert any(key[:2] == (D, H) for key in mixed)
