import contextlib
import io
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import dense_rref, sparse
from liebialg import cli, symkernel, verify
from liebialg.formats import ParseError, parse_eqs
from liebialg.symkernel import (PolyExpr, Q, ReadOnly, UnitError,
                                nullspace, rref, span_equal, span_rank,
                                inverse, solve_linear, solve_for,
                                linear_system_from, poly, substitution,
                                sum_by_key, _accumulate, _mono_mul, _q)

x, y = PolyExpr.var("x"), PolyExpr.var("y")
E = PolyExpr.var("E")


def V(name):
    return PolyExpr.var(name)


def canonical(c):
    """The kernel's coefficient form: an int when integral, otherwise a
    Fraction with denominator > 1; never a float or a bool."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def test_difference_of_squares():
    assert (x + y) * (x - y) == x * x - y * y


def test_discriminant_cancellation():
    a1, a3, a6 = V("a1"), V("a3"), V("a6")
    b1, b3, b6, c2 = V("b1"), V("b3"), V("b6"), V("c2")
    disc = a3 * a6 + b3 * b6 - a3 * b1 - a1 * b3 - c2 ** 2
    assert disc + c2 ** 2 == a3 * a6 + b3 * b6 - a3 * b1 - a1 * b3


def test_laurent_unit():
    assert E * E ** -1 == PolyExpr.const(1)
    assert (E ** -2 - 1) * E ** 2 == PolyExpr.const(1) - E ** 2


def test_negative_power_requires_invertible():
    """Any symbol of a value may take a negative power; in an input file
    only a name its 'invertible:' header declares may."""
    assert PolyExpr({(("x", -1),): Fraction(1)}) * x == 1
    assert parse_eqs("invertible: x\nx^-1 + 1/x") == [2 * x ** -1]
    with pytest.raises(ParseError, match="negative power of a non-unit"):
        parse_eqs("invertible: y\nx^-1")


def test_substitute_appendix_identification():
    p = V("alpha1") * V("alpha2") + V("alpha2") * V("alpha10")
    out = p.substitute({"alpha1": 2 * V("b2"), "alpha2": -2 * V("a2"),
                        "alpha10": V("b6")})
    assert out == -4 * V("a2") * V("b2") - 2 * V("a2") * V("b6")


def test_substitute_to_zero():
    assert (V("c2") ** 2).substitute({"c2": 0}).is_zero()


def test_substitute_unit_into_laurent():
    c2 = V("c2")
    val = V("a5").substitute({"a5": -V("a2") * V("a3") / c2})
    assert val == -V("a2") * V("a3") * c2 ** -1


def test_substitute_keeps_context_errors():
    """A bound value with a negative power of a name may meet that name
    left unbound, or bound elsewhere with a positive power: the mix that
    once raised a context error is an exact Laurent value."""
    z = V("z")
    assert (x * y).substitute({"y": x ** -1}) == PolyExpr.const(1)
    assert (y + z).substitute({"y": x, "z": x ** -1}) == x + x ** -1
    assert (y * z).substitute({"y": x, "z": 2 * x ** -1}) == PolyExpr.const(2)
    val = (E ** -2 * y).substitute({"E": 2, "y": x ** -1})
    assert val == Q(1, 4) * x ** -1


def test_substitute_nonunit_into_negative_power():
    with pytest.raises(UnitError):
        (E ** -1).substitute({"E": 1 + x})


def test_substitution_composition():
    p = x * x + y
    sigma = {"x": y + 1}
    tau = {"y": PolyExpr.const(3)}
    once = p.substitute(sigma).substitute(tau)
    composed = p.substitute({"x": (y + 1).substitute(tau), "y": PolyExpr.const(3)})
    assert once == composed


def test_division_by_nonunit_rejected():
    with pytest.raises(UnitError):
        x / (x + y)


def test_nullspace_identity():
    assert nullspace(sparse([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 3) == []


def test_nullspace_single_row():
    basis = nullspace(sparse([[1, -1]]), 2)
    assert basis == [[Fraction(1), Fraction(1)]]


def test_nullspace_remultiplies_to_zero():
    rng = random.Random(7)
    for _ in range(25):
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(6)] for _ in range(4)]
        for vec in nullspace(sparse(rows), 6):
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) == 0


def test_inverse_round_trip():
    rng = random.Random(11)
    done = 0
    while done < 20:
        n = rng.randint(1, 5)
        A = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
              for _ in range(n)] for _ in range(n)]
        if len(rref(sparse(A))) < n:
            continue
        inv = inverse(A)
        prod = [[sum(A[i][t] * inv[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)]
        assert prod == [[Fraction(int(i == j)) for j in range(n)]
                        for i in range(n)]
        done += 1


def test_inverse_rejects_singular():
    with pytest.raises(ValueError, match="singular matrix"):
        inverse([[1, 2, 3], [2, 4, 6], [0, 1, 1]])


def test_rref_fractions():
    red, piv = dense_rref([[Q(1, 2), 1], [1, 2]])
    assert red[0] == [Fraction(1), Fraction(2)]
    # the dependent row reduces to zero, and no zero row is written
    assert red[1:] == []
    assert piv == [0]


# Random sparse rational matrices: 0-8 rows, 0-8 columns, three entries in
# four zero, int and Fraction input, with a duplicate row, a zero row and a
# zero column mixed in.
_nonzero = st.one_of(st.integers(-3, 3), st.fractions(-4, 4, max_denominator=5)
                     ).filter(bool)
_entry = st.integers(0, 3).flatmap(
    lambda k: _nonzero if k == 0 else st.just(0))


@st.composite
def _sparse_matrices(draw):
    ncols = draw(st.integers(0, 8))
    rows = draw(st.lists(st.lists(_entry, min_size=ncols, max_size=ncols),
                         max_size=6))
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))),
                    list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    if ncols and draw(st.booleans()):
        zero_col = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[zero_col] = 0
    return rows


def _reconstructs(rows, red, piv):
    """Each input row is sum over the pivots of row[pc] * red[r]."""
    return all(
        list(row) == [sum((row[pc] * red[r][j] for r, pc in enumerate(piv)),
                          Fraction(0)) for j in range(len(row))]
        for row in rows)


@settings(max_examples=400, deadline=None)
@given(_sparse_matrices())
def test_rref_reduced_shape_and_reconstruction(rows):
    ncols = len(rows[0]) if rows else 0
    red, piv = dense_rref(rows)
    # one row per pivot: the zero rows are not written
    assert len(red) == len(piv) <= len(rows)
    assert all(len(r) == ncols for r in red)
    assert all(canonical(v) for r in red for v in r)
    assert all(a < b for a, b in zip(piv, piv[1:]))
    for r, pc in enumerate(piv):
        assert not any(red[r][:pc]) and red[r][pc] == 1
        assert all(red[r2][pc] == 0 for r2 in range(len(red)) if r2 != r)
    # and the sparse rows hold no zero entry
    assert all(v for r in rref(sparse(rows)).values() for v in r.values())
    assert _reconstructs(rows, red, piv)
    # negative control: one changed non-pivot entry breaks the reconstruction
    free = [j for j in range(ncols) if j not in piv]
    if piv and free:
        red[0][free[0]] += 1
        assert not _reconstructs(rows, red, piv)


def _fraction_rref(rows):
    """Reference: Gauss-Jordan elimination in Fractions on ``{column:
    value}`` rows, each reduced by the fully reduced pivot rows, divided by
    its leftmost entry, which is then cleared from the earlier pivot rows.
    Returns ``{pivot column: row}`` in ascending pivot column."""
    pivots = {}
    for row in rows:
        vec = {j: _q(v) for j, v in row.items() if v}
        for c in [c for c in vec if c in pivots]:
            f = -vec[c]
            _accumulate(vec, ((j, f * v) for j, v in pivots[c].items()))
        if vec:
            c = min(vec)
            pv = vec[c]
            if pv != 1:
                vec = {j: _q(Fraction(v, pv)) for j, v in vec.items()}
            for prow in pivots.values():
                if c in prow:
                    f = -prow[c]
                    _accumulate(prow, ((j, f * v) for j, v in vec.items()))
            pivots[c] = vec
    return {c: pivots[c] for c in sorted(pivots)}


def _row_polys(rows):
    """Each ``{column: value}`` row as the linear polynomial sum_j row[j]
    x_j."""
    return [PolyExpr({((f"x{j}", 1),): v for j, v in row.items() if v})
            for row in rows]


# the pool of classical-cli commands that reach rref
_CLI_SOLVES = [("cocycle-solve",), ("cojacobi",)] + [
    ("embed", "--sub", sub, "--target", target, "--map", mapping)
    for sub, target, mapping in (
        ("D,P,K,M", "oscillator_target.delta", "oscillator_embedding.map"),
        ("D,H,C,M", "gl2_target.delta", "gl2_embedding.map"),
        ("K,H,P,M", "galilei_target.delta", "galilei_embedding.map"))]


def _traffic():
    """The rows of every rref call of one ``verify.run_all(4)`` and of the
    commands of ``_CLI_SOLVES``, as their builders make them (with the zero
    a cancelled sum leaves).  Each call is answered by ``_fraction_rref``,
    so the traffic does not depend on the rref under test."""
    seen = []
    real = symkernel.rref

    def capture(rows):
        rows = [dict(row) for row in rows]
        seen.append(rows)
        return _fraction_rref(rows)

    symkernel.rref = capture
    try:
        verify.run_all(4)
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in _CLI_SOLVES:
                cli.main(list(argv))
    finally:
        symkernel.rref = real
    return seen


def _with_traffic(test):
    """``test`` with every matrix of ``_traffic`` as an explicit example."""
    for rows in _traffic():
        test = example(rows)(test)
    return test


@settings(max_examples=400, deadline=None)
@given(_sparse_matrices().map(sparse))
# mixed large denominators
@example(sparse([[Q(1, 2 ** 61 - 1), Q(3, 10 ** 12 + 39), 1],
                 [Q(5, 7919), Q(-1, 104729), Q(2, 3)], [1, Q(1, 7919), 0]]))
# integer rows whose content is above 1
@example(sparse([[6, 4, 2, 0], [3, 9, 0, 12],
                 [Q(4, 3), Q(8, 3), 0, Q(4, 3)]]))
# a negative pivot, and one that is not 1 after elimination
@example(sparse([[-3, 1, 0], [0, -2, 5], [-6, 0, 1]]))
@_with_traffic
def test_rref_equals_the_fraction_reference(rows):
    """Entry by entry, type by type and in pivot order, the integer-row
    rref is the Fraction Gauss-Jordan reference, on random matrices and on
    the real traffic; and span_rank's forward elimination counts its
    pivots."""
    red = rref(rows)
    want = _fraction_rref(rows)
    assert list(red.items()) == list(want.items())
    assert {c: {j: type(v) for j, v in r.items()} for c, r in red.items()} \
        == {c: {j: type(v) for j, v in r.items()} for c, r in want.items()}
    assert span_rank(_row_polys(rows)) == len(want)


def test_rref_empty_and_zero_shapes():
    assert rref([]) == {}
    assert rref([{}]) == {}
    assert rref(sparse([[0, 0], [0, 0]])) == {}
    # an explicit zero, as a builder's sum that cancels leaves it, is no
    # entry: not in a row's lowest column, and not as a whole row
    assert rref([{0: 0, 1: Q(0)}, {1: 0}]) == {}
    assert rref([{0: 0, 1: 2, 2: 1}, {0: Q(0), 2: 3}, {1: 0}]) \
        == rref([{1: 2, 2: 1}, {2: 3}]) == {1: {1: 1}, 2: {2: 1}}


def test_solve_linear_with_symbolic_rhs():
    rows = [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(1)]]
    part, null, conds, free = solve_linear(sparse(rows), [x, y], 2)
    assert not conds and not null and not free
    assert part[1] == y and part[0] == x - y


def test_solve_for_bindings_and_conditions():
    u, v, w = V("u"), V("v"), V("w")
    bindings, conds = solve_for([u + v - x, 2 * u + 2 * v - y, w - 1],
                                ["u", "v", "w"])
    assert bindings == {"u": x - v, "w": PolyExpr.const(1)}
    assert conds == [y - 2 * x]


def _random_system(rng):
    """A random ``A x = b``: an integer A whose rows are combinations of at
    most three base rows, so most systems have dependent rows, and a b of
    small polynomials in x, y, z and 1/E."""
    n = rng.randint(1, 4)
    base = [[rng.randint(-2, 2) for _ in range(n)]
            for _ in range(rng.randint(1, 3))]
    monomials = [PolyExpr.const(1), x, y, V("z"), x * y, x ** 2, E ** -1]
    rows, b = [], []
    for _ in range(rng.randint(1, 5)):
        ks = [rng.randint(-1, 1) for _ in base]
        rows.append([sum(k * v for k, v in zip(ks, col))
                     for col in zip(*base)])
        b.append(sum((rng.randint(-2, 2) * m
                      for m in rng.sample(monomials, 3)), PolyExpr.zero()))
    return rows, b


def _check_conditions(conds, values):
    """Each condition is monic on its leading monomial, and no value
    contains a condition's leading monomial."""
    leads = set()
    for c in conds:
        m, lead = c.sorted_terms()[0]
        assert lead == 1
        leads.add(m)
    assert not any(m in v.terms for v in values for m in leads)


def test_solve_linear_depends_only_on_row_space():
    rng = random.Random(8)
    with_conditions = 0
    for _ in range(200):
        rows, b = _random_system(rng)
        n = len(rows[0])
        part, null, conds, free = solve_linear(sparse(rows), b, n)
        order = rng.sample(range(len(rows)), len(rows))
        assert solve_linear(sparse([rows[i] for i in order]),
                            [b[i] for i in order], n) == \
            (part, null, conds, free)
        # A particular - b lies in the span of the conditions
        for row, rhs in zip(rows, b):
            res = sum((a * p for a, p in zip(row, part)),
                      PolyExpr.zero()) - rhs
            assert span_rank(conds + [res]) == span_rank(conds)
        for vec in null:
            assert all(sum(a * v for a, v in zip(row, vec)) == 0
                       for row in rows)
        _check_conditions(conds, part)
        with_conditions += bool(conds)
    assert with_conditions > 50


def test_solve_for_depends_only_on_row_space():
    rng = random.Random(9)
    with_conditions = 0
    for _ in range(200):
        rows, b = _random_system(rng)
        unknowns = [f"u{j}" for j in range(len(rows[0]))]
        polys = [sum((a * V(u) for a, u in zip(row, unknowns)),
                     PolyExpr.zero()) - rhs for row, rhs in zip(rows, b)]
        bindings, conds = solve_for(polys, unknowns)
        order = rng.sample(range(len(polys)), len(polys))
        assert solve_for([polys[i] for i in order], unknowns) == \
            (bindings, conds)
        # with the bindings in, each polynomial is a combination of the
        # conditions
        for p in polys:
            res = p.substitute(bindings)
            assert span_rank(conds + [res]) == span_rank(conds)
        _check_conditions(conds, bindings.values())
        with_conditions += bool(conds)
    assert with_conditions > 50


def test_linear_system_from_rejects_quadratic():
    with pytest.raises(ValueError):
        linear_system_from([V("u") * V("u")], ["u"])


def test_span_equal_examples():
    w = span_equal([2 * x, x + y], [x, y])
    assert w.equal
    assert w.a_in_b == ((Fraction(2), Fraction(0)), (Fraction(1), Fraction(1)))
    assert not span_equal([x * x], [x]).equal


def test_span_equal_properties_sampled():
    rng = random.Random(3)
    vars_ = [V(n) for n in "uvw"]

    def rand_poly():
        out = PolyExpr.zero()
        for _ in range(rng.randint(1, 3)):
            term = PolyExpr.const(rng.randint(-3, 3))
            for v in rng.sample(vars_, rng.randint(1, 2)):
                term = term * v
            out = out + term
        return out

    for _ in range(20):
        A = [rand_poly() for _ in range(3)]
        assert span_equal(A, A).equal                      # reflexive
        B = [A[1], A[0] + A[2], A[2]]
        wab = span_equal(A, B)
        assert wab.equal == span_equal(B, A).equal          # symmetric
        C = [2 * p for p in B]
        if wab.equal and span_equal(B, C).equal:            # transitive
            assert span_equal(A, C).equal


def test_span_equal_witness_rebuilds_a():
    rng = random.Random(5)
    vars_ = [V(n) for n in "uvw"]

    def rand_poly():
        out = PolyExpr.zero()
        for _ in range(rng.randint(1, 3)):
            term = PolyExpr.const(rng.randint(-3, 3))
            for v in rng.sample(vars_, rng.randint(0, 2)):
                term = term * v
            out = out + term
        return out

    seen_equal = 0
    for _ in range(60):
        B = [rand_poly() for _ in range(rng.randint(1, 4))]
        # dependent members in B: a combination and a duplicate
        B += [B[0] * 3 - B[-1], B[0]]
        A = [sum((rng.randint(-2, 2) * b for b in B), PolyExpr.zero())
             for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:
            A.append(rand_poly())
        wit = span_equal(A, B)
        assert wit.equal == (span_rank(A) == span_rank(B) == span_rank(A + B))
        if wit.equal:
            seen_equal += 1
            for a, row in zip(A, wit.a_in_b):
                assert sum((c * b for c, b in zip(row, B)),
                           PolyExpr.zero()) == a
    assert seen_equal > 10


_coeffs = st.integers(min_value=-6, max_value=6)
_exps = st.integers(min_value=0, max_value=3)
_mono = st.lists(st.tuples(st.sampled_from("pqr"), _exps),
                 min_size=0, max_size=2)
_poly = st.lists(st.tuples(_mono, _coeffs), min_size=0, max_size=3)


def _build(terms):
    out = PolyExpr.zero()
    for mono, c in terms:
        term = PolyExpr.const(c)
        for name, e in mono:
            term = term * PolyExpr.var(name) ** e
        out = out + term
    return out


@settings(max_examples=1000, deadline=None)
@given(_poly, _poly, _poly)
def test_ring_axioms(ta, tb, tc):
    a, b, c = _build(ta), _build(tb), _build(tc)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert a + b == b + a


def _termwise_product(p, q):
    out = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            exps = dict(m1)
            for name, e in m2:
                exps[name] = exps.get(name, 0) + e
            m = tuple(sorted((n, e) for n, e in exps.items() if e))
            out[m] = out.get(m, 0) + c1 * c2
    return PolyExpr(out)


def _same(got, want):
    assert got == want
    assert all(canonical(c) and c for c in got.terms.values())


_scalars = st.one_of(st.integers(min_value=-6, max_value=6),
                     st.fractions(min_value=-3, max_value=3,
                                  max_denominator=7))


def _direct(terms, e_power):
    """``terms`` times E**e_power (None: no E), built by the public
    constructor alone."""
    out = {}
    for mono, c in terms:
        exps = {"E": e_power or 0}
        for name, e in mono:
            exps[name] = exps.get(name, 0) + e
        m = tuple(sorted((n, e) for n, e in exps.items() if e))
        out[m] = out.get(m, 0) + c
    return PolyExpr(out)


@settings(max_examples=300, deadline=None)
@given(_poly, st.one_of(st.none(), st.integers(min_value=-2, max_value=2)),
       _scalars)
def test_scalar_and_zero_operands(terms, e_power, c):
    """Products with a number or a constant and sums with zero give the
    term-by-term result."""
    p = _direct(terms, e_power)
    const = PolyExpr.const(c)
    for got in (p * c, c * p, p * const, const * p):
        _same(got, _termwise_product(p, const))
    for got in (p + 0, 0 + p, p + PolyExpr.zero(), PolyExpr.zero() + p, p - 0):
        _same(got, PolyExpr(dict(p.terms)))
    _same(p * 0, PolyExpr({}))
    _same(p * PolyExpr.zero(), PolyExpr({}))


def test_canonical_string():
    p = 3 * x * x - Q(1, 2) * y + 1
    assert str(p) == "3*x^2 - 1/2*y + 1"
    assert str(PolyExpr.zero()) == "0"
    assert str(E ** -2) == "E^-2"


def test_monic():
    p = 2 * x + 4 * y
    m = p.monic()
    lead = max(m.terms, key=lambda t: (sum(e for _, e in t), t))
    assert m.terms[lead] == 1


# Canonical coefficients: every result of the kernel holds ints for integral
# values and Fractions only for the rest.  Operands hold powers of E, so
# Laurent monomials, units and negative powers occur.
_laurent_mono = st.lists(st.tuples(st.sampled_from("pqE"),
                                   st.integers(min_value=0, max_value=2)),
                         max_size=2)
_laurent = st.lists(st.tuples(_laurent_mono, _scalars), max_size=3)


def _laurent_poly(terms, e_shift):
    out = {}
    for mono, c in terms:
        exps = {"E": e_shift}
        for name, e in mono:
            exps[name] = exps.get(name, 0) + e
        m = tuple(sorted((n, e) for n, e in exps.items() if e))
        out[m] = out.get(m, 0) + c
    return PolyExpr(out)


def _assert_canonical(*polys):
    for p in polys:
        assert all(canonical(c) and c for c in p.terms.values()), p


@settings(max_examples=300, deadline=None)
@given(_laurent, _laurent, st.integers(min_value=-2, max_value=2),
       _scalars.filter(bool), st.integers(min_value=-2, max_value=2),
       st.integers(min_value=1, max_value=3), _scalars)
def test_coefficients_stay_canonical(ta, tb, shift, k, unit_e, n, bound):
    a, b = _laurent_poly(ta, shift), _laurent_poly(tb, 0)
    unit = PolyExpr.const(k) * E ** unit_e
    one = PolyExpr.const(1)
    results = [a + b, a - b, a * b, -a, a * k, k * a, a / unit, a / k,
               a ** 2, unit ** -n, unit ** n, a.derivative("p"),
               a.derivative("E"), a.monic(),
               a.substitute({"p": bound, "q": b}),
               a.substitute({"E": unit, "p": PolyExpr.const(bound)})]
    _assert_canonical(*results)
    # the divisions are exact
    assert (a / unit) * unit == a and (a / k) * k == a
    assert unit ** -n * unit ** n == one
    if a:
        lead = max(a.terms, key=lambda m: (sum(e for _, e in m), m))
        assert a.monic() * a.terms[lead] == a
    # printing and parsing back give the same canonical polynomial
    for p in (a, a * b, a / unit):
        (parsed,) = parse_eqs(f"invertible: E\n{p}")
        assert parsed == p
        _assert_canonical(parsed)


def test_zero_is_shared_and_read_only():
    assert PolyExpr.zero() is PolyExpr.zero()
    assert PolyExpr.const(0) is PolyExpr.zero()
    with pytest.raises(AttributeError):
        PolyExpr.zero().terms.clear()
    with pytest.raises(AttributeError):
        PolyExpr.zero().terms = {}


def test_canonicalizer_refuses_floats_and_bools():
    assert type(PolyExpr.const(True).const_value()) is int
    assert type(PolyExpr.const(Q(6, 3)).const_value()) is int
    assert PolyExpr.zero().constant_term() == 0
    assert type(PolyExpr.zero().constant_term()) is int
    with pytest.raises(TypeError):
        PolyExpr.const(0.5)
    with pytest.raises(TypeError):
        PolyExpr({(): 1.0})


def test_linear_algebra_results_are_canonical():
    rows = [[2, 4, Q(1, 2)], [1, Q(1, 3), 0], [3, Q(13, 3), Q(1, 2)]]
    red, piv = dense_rref(rows)
    # the third row is the sum of the first two: no zero row is written
    assert red == [[1, 0, Q(-1, 20)], [0, 1, Q(3, 20)]]
    assert all(canonical(v) for row in red for v in row)
    for vec in nullspace(sparse(rows), 3):
        assert all(canonical(v) for v in vec)
    part, null, conds, free = solve_linear(sparse([[2, 4], [1, 3]]), [x, y],
                                           2)
    assert part == [Q(3, 2) * x - 2 * y, y - Q(1, 2) * x]
    _assert_canonical(*part)
    assert all(canonical(v) for v in inverse([[2, 4], [1, 3]])[0])


# ---------------------------------------------------------------------------
# _accumulate, the one keyed accumulator of exact coefficients
# ---------------------------------------------------------------------------

# ints, Fractions (integral ones such as Fraction(4, 2) among them) and
# PolyExpr coefficients of one context
_acc_coeffs = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3))),
    st.builds(lambda k, p: k * p, st.integers(-2, 2),
              st.sampled_from((PolyExpr.const(1), x, y, x * y))))


@st.composite
def _acc_streams(draw):
    """``(key, coefficient)`` pairs in which some keys cancel and then come
    back."""
    pairs = draw(st.lists(st.tuples(st.sampled_from("abc"), _acc_coeffs),
                          max_size=12))
    if pairs:
        for i in draw(st.lists(st.integers(0, len(pairs) - 1), max_size=3)):
            key = pairs[i][0]
            total = sum((c for k, c in pairs if k == key), 0)
            pairs += [(key, -total), (key, draw(_acc_coeffs))]
    return pairs


@settings(max_examples=300, deadline=None)
@given(_acc_streams())
def test_accumulate_matches_a_running_sum(pairs):
    """The sums of a running sum with the zeros filtered out; no stored
    value is zero and every number is in canonical form."""
    want = {}
    for k, c in pairs:
        want[k] = want.get(k, 0) + c
    out = {}
    got = _accumulate(out, pairs)
    assert got is out
    assert got == {k: v for k, v in want.items() if v}
    for v in got.values():
        assert v
        if not isinstance(v, PolyExpr):
            assert type(_q(v)) is type(v)


def test_accumulate_examples():
    # an integral Fraction is stored as its int, alone or as a sum
    got = _accumulate({}, [("a", Q(4, 2)), ("b", Q(1, 3)), ("b", Q(2, 3))])
    assert got == {"a": 2, "b": 1}
    assert all(type(v) is int for v in got.values())
    # a zero pair adds nothing; a key that cancels is dropped, and one that
    # comes back is stored again
    got = _accumulate({"a": 1}, [("z", 0), ("a", -1), ("b", x), ("a", 3),
                                 ("b", -x)])
    assert got == {"a": 3}


# ---------------------------------------------------------------------------
# sum_by_key, the one (key, number, PolyExpr) accumulator
# ---------------------------------------------------------------------------

_ACC_ATOMS = (PolyExpr.const(1), x, x * y, E, E ** -1, E * x, x ** -2,
              E * 0)
_acc_items = st.lists(st.tuples(
    st.sampled_from("ab"),
    st.one_of(st.integers(-2, 2),
              st.fractions(min_value=-2, max_value=2, max_denominator=3)),
    st.lists(st.tuples(st.integers(-2, 2), st.sampled_from(range(8))),
             min_size=1, max_size=2)), max_size=6)


def _atom_sum(parts):
    """A sum of scaled atoms."""
    return sum((_ACC_ATOMS[a] * c for c, a in parts), PolyExpr.zero())


@settings(max_examples=200, deadline=None)
@given(_acc_items)
def test_sum_by_key_matches_running_sum(raw):
    """Same sums as the running sum with `+`, cancelled sums dropped,
    coefficients canonical."""
    items = [(key, k, _atom_sum(parts)) for key, k, parts in raw]
    want = {}
    for key, k, p in items:
        want[key] = want.get(key, PolyExpr.zero()) + k * p
    got = sum_by_key(items)
    assert got == {key: v for key, v in want.items() if v}
    assert list(got) == [key for key in want if want[key]]
    for key, v in got.items():
        assert all(canonical(c) and c for c in v.terms.values())


def test_sum_by_key_drops_cancelled_sums_and_keeps_canonical_form():
    got = sum_by_key([("k", 1, x), ("j", Q(1, 3), y), ("k", -1, x),
                      ("j", Q(2, 3), y), ("i", Q(1, 3), y), ("i", Q(1, 3), y),
                      ("z", 0, x)])
    assert list(got) == ["j", "i"]
    assert got["j"] == y and type(got["j"].terms[(("y", 1),)]) is int
    assert got["i"].terms[(("y", 1),)] == Q(2, 3)
    # a key met once keeps its PolyExpr
    assert sum_by_key([("k", 1, x)])["k"] is x


# ---------------------------------------------------------------------------
# the shortcut branches of the kernel, each against a plain reference
# ---------------------------------------------------------------------------

_short_mono = st.dictionaries(st.sampled_from("abcd"),
                              st.integers(-2, 2).filter(bool),
                              max_size=3).map(lambda d: tuple(sorted(d.items())))


def _exponent_sum(m1, m2):
    exps = dict(m1)
    for name, e in m2:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted((n, e) for n, e in exps.items() if e))


@settings(max_examples=300, deadline=None)
@given(_short_mono, _short_mono)
@example((("a", 1), ("c", 2)), (("b", 1),))                # interleaved
@example((("a", 1),), (("b", 2), ("c", -1)))               # disjoint
@example((("b", 2), ("c", -1)), (("a", 1),))               # disjoint, reversed
@example((("a", 1), ("b", 1)), (("b", 2),))                # a shared name
@example((("a", 1), ("b", -1)), (("a", -1), ("b", 1)))     # cancels to ()
@example((), (("a", 1),))
@example((("a", 1),), ())
def test_mono_mul_adds_exponents(m1, m2):
    got = _mono_mul(m1, m2)
    assert type(got) is tuple and got == _exponent_sum(m1, m2)


_nonzero_scalars = _scalars.filter(bool)
_one_term = st.tuples(_short_mono, _nonzero_scalars).map(
    lambda mc: PolyExpr({mc[0]: mc[1]}))
_operands = st.one_of(
    st.just(PolyExpr.zero()),
    _nonzero_scalars.map(PolyExpr.const),
    _one_term,
    st.dictionaries(_short_mono, _nonzero_scalars, min_size=2,
                    max_size=4).map(PolyExpr))


@settings(max_examples=300, deadline=None)
@given(_operands, _operands, _scalars)
def test_products_match_the_termwise_product(p, q, c):
    """Zero, constant, one-term and many-term operands on either side, and
    a number on either side, give the term-by-term product."""
    _same(p * q, _termwise_product(p, q))
    _same(q * p, _termwise_product(p, q))
    for got in (p * c, c * p):
        _same(got, _termwise_product(p, PolyExpr({(): c})))


def test_products_of_zero_and_unit_operands():
    assert x * PolyExpr.zero() is PolyExpr.zero()
    assert PolyExpr.zero() * (x + y) is PolyExpr.zero()
    assert (x * x ** -1).terms == {(): 1}
    assert (Q(1, 2) * x) * (4 * y) == 2 * x * y
    assert type(((Q(1, 2) * x) * (4 * y)).terms[(("x", 1), ("y", 1))]) is int
    assert PolyExpr.__rmul__ is PolyExpr.__mul__
    assert x.__mul__(1.5) is NotImplemented


_sub_terms = st.dictionaries(
    st.dictionaries(st.sampled_from("xyz"), st.integers(-2, 2).filter(bool),
                    max_size=3).map(lambda d: tuple(sorted(d.items()))),
    _nonzero_scalars, max_size=4)
_sub_values = st.one_of(st.integers(-3, 3),
                        st.fractions(min_value=-3, max_value=3,
                                     max_denominator=4))


@settings(max_examples=300, deadline=None)
@given(_sub_terms, st.dictionaries(st.sampled_from("xyz"), _sub_values),
       st.booleans())
@example({(("x", -1),): 1}, {"x": 0}, False)
@example({(("x", -2), ("y", 1)): Q(1, 3)}, {"x": Q(1, 2)}, True)
def test_substitute_numbers_matches_termwise_evaluation(terms, binds, wrap):
    """Int, Fraction and zero bindings, as numbers or as constant PolyExprs,
    evaluated term by term in Fractions; 0 into a negative power raises
    the UnitError naming the first such symbol met."""
    p = PolyExpr(terms)
    bindings = {n: PolyExpr.const(v) if wrap else v for n, v in binds.items()}
    want, bad = {}, None
    for m, c in p.terms.items():
        c, rest = Fraction(c), []
        for name, e in m:
            if name not in binds:
                rest.append((name, e))
            elif binds[name] == 0 and e < 0:
                bad = bad or name
            else:
                c *= Fraction(binds[name]) ** e
        want[tuple(rest)] = want.get(tuple(rest), 0) + c
    if bad is not None:
        with pytest.raises(UnitError) as err:
            p.substitute(bindings)
        assert str(err.value) == (f"{bad!r} occurs with negative power; "
                                  "binding 0 is not a unit")
        return
    _same(p.substitute(bindings), PolyExpr(want))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("ab"),
                          _nonzero_scalars.filter(lambda k: k != 1),
                          _operands), min_size=2, max_size=6))
def test_sum_by_key_scales_repeated_keys(items):
    """Every item scaled (k != 1), keys repeated: the sums of k * c term by
    term, the cancelled ones dropped."""
    want = {}
    for key, k, p in items:
        acc = want.setdefault(key, {})
        for m, c in p.terms.items():
            acc[m] = acc.get(m, 0) + Fraction(k) * c
    got = sum_by_key(items)
    want = {key: PolyExpr(acc) for key, acc in want.items()}
    assert got == {key: v for key, v in want.items() if v}
    _assert_canonical(*got.values())


def test_equal_values_hash_equal():
    """A constant, zero included, hashes as its number, which it equals."""
    for c in (0, 3, -1, Q(1, 2)):
        assert PolyExpr.const(c) == c
        assert hash(PolyExpr.const(c)) == hash(c)
        assert c in {PolyExpr.const(c)} and PolyExpr.const(c) in {c}
    assert 0 in {PolyExpr.zero()}
    assert 3 in {PolyExpr.const(3)}
    assert {x * y, y * x, (x + 1) * (x - 1), x * x - 1} == {x * y, x * x - 1}
    assert hash(2 * x / 3) == hash(Q(2, 3) * x)


@settings(max_examples=100, deadline=None)
@given(_operands, _operands)
def test_hash_agrees_with_equality(p, q):
    built = PolyExpr(dict(p.terms)) * q
    assert built == q * p and hash(built) == hash(q * p)
    assert hash(p) == hash(PolyExpr(dict(p.terms)))
    with pytest.raises(AttributeError):
        p._hash = 0


# ---------------------------------------------------------------------------
# units: a single nonzero term, in any symbols
# ---------------------------------------------------------------------------

# Laurent polynomials with negative exponents on any name
_unit_mono = st.lists(st.tuples(st.sampled_from("xyz"),
                                st.integers(-2, 2).filter(bool)),
                      max_size=3, unique_by=lambda t: t[0]).map(
    lambda m: tuple(sorted(m)))
_units = st.tuples(_unit_mono, _scalars.filter(bool)).map(
    lambda mc: PolyExpr({mc[0]: mc[1]}))
_laurent_polys = st.dictionaries(_unit_mono, _scalars, max_size=4).map(
    PolyExpr)


def _termwise_substitute(p, bindings):
    """Reference: the sum over the terms of p of the coefficient times each
    factor, a bound one as its value to the power, in PolyExpr arithmetic."""
    out = PolyExpr.zero()
    for m, c in p.terms.items():
        term = PolyExpr.const(c)
        for name, e in m:
            base = poly(bindings[name]) if name in bindings else V(name)
            term = term * base ** e
        out = out + term
    return out


_sub_bound = st.one_of(_sub_values, _units,
                       st.dictionaries(_unit_mono, _nonzero_scalars,
                                       max_size=3).map(PolyExpr))


@settings(max_examples=300, deadline=None)
@given(st.lists(_sub_terms.map(PolyExpr), max_size=6),
       st.dictionaries(st.sampled_from("xyz"), _sub_bound))
def test_prepared_substitution_matches_a_fresh_one_per_value(values, binds):
    """One prepared substitution applied to many values, its powers shared,
    gives what a fresh substitution per value gives and the term-by-term
    reference; a value it cannot form raises the fresh UnitError and
    leaves the later values unaffected; a value with no bound symbol comes
    back as it is; the caller's dict is not changed."""
    before = dict(binds)
    sub = substitution(binds)
    assert substitution(sub) is sub
    for p in values:
        try:
            want = p.substitute(dict(binds))
        except UnitError as err:
            with pytest.raises(UnitError) as got:
                sub(p)
            assert str(got.value) == str(err)
            continue
        got = sub(p)
        _same(got, want)
        assert got == _termwise_substitute(p, binds)
        if p.names().isdisjoint(binds):
            assert got is p
    assert binds == before and all(binds[k] is v for k, v in before.items())


def test_prepared_substitution_raises_only_where_a_non_unit_is_inverted():
    """Binding x to 1 + y: x^-1 cannot be formed, and only the value that
    holds it raises, each time it is asked for, with the one message."""
    binds = {"x": 1 + y}
    sub = substitution(binds)
    message = "'x' occurs with negative power; binding y + 1 is not a unit"
    assert sub(x ** 2 * y) == (1 + y) ** 2 * y
    for _ in range(2):
        with pytest.raises(UnitError) as err:
            sub(x ** -1 * y + x)
        assert str(err.value) == message
        assert sub(x) == 1 + y
    assert sub(y) is y and binds == {"x": 1 + y}


@settings(max_examples=200, deadline=None)
@given(_laurent_polys, _units, st.integers(1, 3))
def test_division_by_a_unit_is_exact(p, u, n):
    """Every single nonzero term is a unit: dividing by it is exact and is
    multiplying by its inverse."""
    one = PolyExpr.const(1)
    assert u.as_unit() is not None
    assert (p / u) * u == p
    assert u * u ** -1 == one and u ** -n * u ** n == one
    assert p / u == p * u ** -1
    _assert_canonical(p / u, u ** -n)


def test_non_units_are_refused():
    """A quotient by, a negative power of, and a binding into a negative
    power of a value that is not one nonzero term raise UnitError."""
    for bad in (x + y, PolyExpr.zero()):
        assert bad.as_unit() is None
        with pytest.raises(UnitError):
            x / bad
        with pytest.raises(UnitError):
            bad ** -1
    with pytest.raises(UnitError):
        (x ** -1).substitute({"x": 0})
    with pytest.raises(UnitError):
        (x ** -2 * y).substitute({"x": 1 + y})


# ---------------------------------------------------------------------------
# read-only values
# ---------------------------------------------------------------------------

# (class name, an attribute it sets at construction); HopfCase is a frozen
# dataclass, every other class inherits ReadOnly
READ_ONLY = (("PolyExpr", "terms"), ("LieAlgebra", "names"),
             ("AlgElement", "terms"), ("WedgeElement", "terms"),
             ("TensorElement", "degree"), ("Cocommutator", "rows"),
             ("VectorField", "terms"), ("GroupMatrix", "terms"),
             ("PoissonTable", "terms"),
             ("DeformedAlgebra", "relations"), ("HopfCase", "coproduct"))


@pytest.fixture(scope="module")
def shared_values():
    from liebialg import formats, schrodinger, sklyanin
    from liebialg.hopfdeform import build_case
    L = schrodinger.algebra()
    r = formats.table("general.rmat")
    case = build_case("ucc", 2)
    return [x, L, L.gen("D"), r, r.to_tensor(),
            formats.table("cocycle_general.delta"),
            sklyanin.left_field("H"), sklyanin.group_element(),
            formats.table("poisson_general.ptable"),
            case.algebra, case]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_read_only_class_is_covered(shared_values):
    public = {c.__name__ for c in _subclasses(ReadOnly)
              if not c.__name__.startswith("_")}
    assert public == {name for name, _ in READ_ONLY} - {"HopfCase"}
    assert [type(v).__name__ for v in shared_values] == [
        name for name, _ in READ_ONLY]


@pytest.mark.parametrize("k", range(len(READ_ONLY)),
                         ids=[name for name, _ in READ_ONLY])
def test_shared_values_reject_assignment_and_deletion(shared_values, k):
    value, attr = shared_values[k], READ_ONLY[k][1]
    before = getattr(value, attr)
    with pytest.raises(AttributeError):
        setattr(value, attr, before)
    with pytest.raises(AttributeError):
        delattr(value, attr)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, attr) is before
