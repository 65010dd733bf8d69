import functools
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from importlib import resources
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from liebialg.symkernel import PolyExpr, poly
from liebialg.liealg import WedgeElement, _sort_tuple, schouten
from liebialg.bialgebra import delta_from_r
from liebialg import schrodinger, formats, families
from liebialg import sklyanin
from liebialg.sklyanin import (COORDS, E, coord, rep_matrices, group_element,
                               group_element_inverse,
                               closed_form_group_element, left_field,
                               right_field, invariant_field_check,
                               sklyanin_table, poisson_jacobi,
                               poisson_jacobi_on_charts,
                               poisson_jacobi_check, linearize_table,
                               linear_part, VectorField,
                               PoissonTable, GroupMatrix)

V = PolyExpr.var


# Test oracles: the commutator of two fields, and a table's bracket of any
# two coordinates (tests/test_oracle_sympy.py imports the second).

def field_commutator(f1, f2):
    """Commutator of derivations, [f1,f2]^q = f1(f2^q) - f2(f1^q)."""
    return VectorField({q: f1.apply(f2.coeff(q)) - f2.apply(f1.coeff(q))
                        for q in COORDS})


def table_bracket(table, x, y):
    """{x, y} read from a PoissonTable for any two coordinates: 0 when
    x == y, the stored entry with its sign flipped when y precedes x."""
    if x == y:
        return PolyExpr.zero()
    if COORDS.index(x) > COORDS.index(y):
        return -table.coeff((y, x))
    return table.coeff((x, y))


def test_rep_realizes_brackets(L):
    rep = {g: GroupMatrix.from_rows(m) for g, m in rep_matrices().items()}

    def comm(a, b):
        return a * b - b * a

    for i, j in combinations(range(L.dim), 2):
        x, y = L.names[i], L.names[j]
        want = GroupMatrix.from_rows([[0] * 4] * 4)
        for k, c in L.sc(i, j).items():
            want = want + rep[L.names[k]].scale(c)
        assert (comm(rep[x], rep[y]) - want).is_zero()


def test_rep_traceless():
    for g, m in rep_matrices().items():
        assert sum(m[t][t] for t in range(4)) == 0


def test_group_element_closed_form():
    g = group_element()
    assert (g - closed_form_group_element()).is_zero()
    assert g.det() == PolyExpr.const(1)
    h, p, k, m = (coord(q) for q in "hpkm")
    assert g.coeff((1, 2)) == h * E
    assert g.coeff((0, 3)) == 2 * m - p * k


def test_group_element_inverse():
    g, ginv = group_element(), group_element_inverse()
    eye = GroupMatrix.identity()
    assert g * ginv == eye
    assert ginv * g == eye
    # negative control: the same inverse factors in forward order
    wrong = functools.reduce(operator.mul, sklyanin._factors(-1))
    assert g * wrong != eye and wrong * g != eye


def test_group_element_is_built_once_and_immutable():
    g, ginv = group_element(), group_element_inverse()
    assert group_element() is g and group_element_inverse() is ginv
    terms = g.terms
    with pytest.raises(AttributeError):
        g.terms = None
    with pytest.raises(AttributeError):
        del ginv.terms
    with pytest.raises(AttributeError):
        g.extra = 1
    assert g.terms is terms and g * ginv == GroupMatrix.identity()


def test_group_element_entries_are_read_only():
    entry = group_element().coeff((1, 2))
    before = dict(entry.terms)
    assert before
    with pytest.raises(AttributeError):
        entry.terms.clear()
    with pytest.raises(TypeError):
        entry.terms[()] = Fraction(1)
    with pytest.raises(AttributeError):
        entry.terms = {}
    with pytest.raises(AttributeError):
        del entry.terms
    assert group_element().coeff((1, 2)) is entry and entry.terms == before
    assert group_element() * group_element_inverse() == GroupMatrix.identity()


def test_group_element_at_identity():
    g = group_element()
    at0 = {q: 0 for q in "hpkcm"}
    at0["E"] = PolyExpr.const(1)
    eye = GroupMatrix.identity()
    assert all(g.coeff((i, j)).substitute(at0) == eye.coeff((i, j))
               for i in range(4) for j in range(4))


@pytest.mark.parametrize("gen", schrodinger.algebra().names)
def test_invariant_fields(gen):
    assert invariant_field_check(left_field(gen), gen, "left").is_zero()
    assert invariant_field_check(right_field(gen), gen, "right").is_zero()


def test_left_fields_represent_brackets(L):
    for i, j in combinations(range(L.dim), 2):
        x, y = L.names[i], L.names[j]
        want = VectorField({})
        for k, c in L.sc(i, j).items():
            want = want + left_field(L.names[k]).scale(c)
        assert (field_commutator(left_field(x), left_field(y)) - want).is_zero()


def test_right_fields_antirepresent_brackets(L):
    for i, j in combinations(range(L.dim), 2):
        x, y = L.names[i], L.names[j]
        want = VectorField({})
        for k, c in L.sc(i, j).items():
            want = want + right_field(L.names[k]).scale(-c)
        assert (field_commutator(right_field(x), right_field(y)) - want).is_zero()


def test_left_right_fields_commute():
    for x in schrodinger.algebra().names:
        for y in schrodinger.algebra().names:
            assert field_commutator(left_field(x), right_field(y)).is_zero()


def test_field_self_commutator():
    f = left_field("P")
    assert field_commutator(f, f).is_zero()


def test_hc_commutator_is_dilation_field():
    got = field_commutator(left_field("H"), left_field("C"))
    assert (got - left_field("D")).is_zero()


def test_general_table_matches_fixture(L):
    T = sklyanin_table(families.load_rmatrix("general"))
    fixture = formats.parse_ptable(formats.load_table("poisson_general.ptable"))
    assert T == fixture
    h, c2v, c3v = coord("h"), V("c2"), V("c3")
    assert table_bracket(T, "d", "h") == \
        V("a2") * (E ** -2 - 1) + V("b2") * h * h - c3v * h


def test_two_parameter_family_brackets(L):
    r = families.load_rmatrix("d-primitive")
    T = sklyanin_table(r)
    h, p, k, c = (coord(q) for q in "hpkc")
    c1v, c2v = V("c1"), V("c2")
    nonzero = {key: v for key, v in T.terms.items() if v}
    assert set(nonzero) == {("h", "m"), ("p", "m"), ("k", "m"), ("c", "m")}
    assert table_bracket(T, "m", "h") == -2 * c1v * h
    assert table_bracket(T, "m", "p") == -(c1v - c2v) * p
    assert table_bracket(T, "m", "k") == (c1v + c2v) * k
    assert table_bracket(T, "m", "c") == 2 * c1v * c


@pytest.mark.parametrize("name", ["d-primitive", "p-primitive",
                                  "h-primitive-standard",
                                  "h-primitive-nonstandard"])
def test_family_tables_match_fixtures(L, name):
    spec = families.FAMILIES[name]
    T = sklyanin_table(families.load_rmatrix(name))
    assert T == formats.parse_ptable(formats.load_table(spec.ptable))


def test_linearization_general(L):
    T = sklyanin_table(families.load_rmatrix("general"))
    ci = formats.parse_delta(
        formats.load_table("cocommutators_general.delta"), L)
    assert linearize_table(T) == ci


def test_linearization_p_primitive(L):
    r = families.load_rmatrix("p-primitive")
    T = sklyanin_table(r)
    assert linearize_table(T) == delta_from_r(r)


@pytest.mark.parametrize("name", ["d-primitive", "p-primitive",
                                  "h-primitive-standard",
                                  "h-primitive-nonstandard", "oscillator"])
def test_poisson_jacobi_families(L, name):
    spec = families.FAMILIES[name]
    r = families.load_rmatrix(name)
    assert spec.charts
    for chart in spec.charts:
        T = sklyanin_table(r.substitute(chart))
        res = poisson_jacobi(T)
        assert all(not v for v in res.values()), (name, chart)
    assert poisson_jacobi_on_charts(r, spec.charts) is None


def _broken_table():
    """Criterion 12's control: the general table at a2 = 1, the other
    parameters 0, with the sign of {d,h} flipped."""
    r = families.load_rmatrix("general").substitute(
        {p: (1 if p == "a2" else 0) for p in families.family("general").params})
    entries = dict(sklyanin_table(r).terms)
    entries[("d", "h")] = -entries[("d", "h")]
    return PoissonTable(entries)


def test_poisson_jacobi_broken_table(L):
    res = poisson_jacobi(_broken_table())
    assert any(v for v in res.values())


def test_table_antisymmetry(L):
    T = sklyanin_table(families.load_rmatrix("general"))
    for x in COORDS:
        for y in COORDS:
            assert table_bracket(T, x, y) == -table_bracket(T, y, x)


def test_table_linearity_in_r(L):
    rng = random.Random(5)
    pairs = list(combinations(L.names, 2))

    def rand_r():
        return WedgeElement.from_pairs(
            L, [(Fraction(rng.randint(-3, 3)), x, y) for x, y in pairs])

    for _ in range(3):
        r1, r2 = rand_r(), rand_r()
        assert sklyanin_table(r1 + r2) == sklyanin_table(r1) + sklyanin_table(r2)


def test_table_vanishes_at_unit(L):
    # h-primitive-standard carries the invertible parameter c2
    for name in ("general", "h-primitive-standard"):
        T = sklyanin_table(families.load_rmatrix(name))
        for v in T.terms.values():
            const, _ = linear_part(v)
            assert const.is_zero()


def test_coordinate_d_is_not_a_ring_element():
    with pytest.raises(ValueError):
        coord("d")


def test_poisson_table_rejects_a_pair_given_in_both_orders():
    """{d,h} and {h,d} given together are one bracket given twice, which
    ``parse_ptable`` rejects too; the table does not keep the last one."""
    with pytest.raises(ValueError, match=r"^duplicate bracket \{d,h\}$"):
        PoissonTable({("d", "h"): E, ("h", "d"): E})
    with pytest.raises(ValueError, match=r"\{h,m\}"):
        PoissonTable({("m", "h"): E, ("d", "h"): E, ("h", "m"): -E})
    assert PoissonTable({("h", "d"): E}) == PoissonTable({("d", "h"): -E})


# -- the direct formulas, kept as the reference for the cached brackets -----

def _reference_table(r):
    """{q_i,q_j} = sum r^{ab} (X_a^L q_i X_b^L q_j - X_a^R q_i X_b^R q_j),
    each term and orientation multiplied out from the fields, running sums;
    the nonzero brackets, as a table keeps them."""
    names = r.algebra.names
    out = {xy: PolyExpr.zero() for xy in combinations(COORDS, 2)}
    for (i, j), cf in r.terms.items():
        for ga, gb, sign in ((names[i], names[j], 1),
                             (names[j], names[i], -1)):
            la, lb = left_field(ga), left_field(gb)
            ra, rb = right_field(ga), right_field(gb)
            for x, y in out:
                out[(x, y)] = out[(x, y)] + sign * cf * (
                    la.coeff(x) * lb.coeff(y)
                    - ra.coeff(x) * rb.coeff(y))
    return {xy: v for xy, v in out.items() if v}


def _reference_jacobi(table):
    """{{x,y},z} + cyclic, each {f, q} = sum_l (d f / d q_l) {q_l, q} taken
    afresh for every bracket of every triple."""
    def d(f, q):
        return E * f.derivative("E") if q == "d" else f.derivative(q)

    def br(x, y):
        return table_bracket(table, x, y)

    def pb(f, q):
        out = PolyExpr.zero()
        for l in COORDS:
            out = out + d(f, l) * br(l, q)
        return out

    return {(x, y, z): pb(br(x, y), z) + pb(br(y, z), x) + pb(br(z, x), y)
            for x, y, z in combinations(COORDS, 3)}


def _assert_matches_reference(r):
    T = sklyanin_table(r)
    assert dict(T.terms) == _reference_table(r)
    res = poisson_jacobi(T)
    assert res == _reference_jacobi(T)
    return res


@pytest.mark.parametrize("name", list(families.FAMILIES))
def test_table_and_jacobi_match_the_reference(name):
    """Every packaged family, as a whole (where Jacobi fails unless its
    constraints are built into r) and on each of its charts (where it
    holds)."""
    r = families.load_rmatrix(name)
    _assert_matches_reference(r)
    for chart in families.FAMILIES[name].charts:
        assert not any(_assert_matches_reference(r.substitute(chart)).values())


def test_broken_table_jacobi_matches_the_reference():
    broken = _broken_table()
    res = poisson_jacobi(broken)
    assert res == _reference_jacobi(broken)
    assert [t for t, v in res.items() if v]


_PAIRS = list(combinations(schrodinger.algebra().names, 2))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=len(_PAIRS),
                max_size=len(_PAIRS)), st.booleans())
def test_random_r_matches_the_reference(coeffs, with_c2):
    """A random integer r, and the same r plus h-primitive-standard's r, whose
    coefficients hold c2^-1."""
    L = schrodinger.algebra()
    r = WedgeElement.from_pairs(L, [(Fraction(c), x, y)
                                    for c, (x, y) in zip(coeffs, _PAIRS)])
    if with_c2:
        r = r + families.load_rmatrix("h-primitive-standard")
    _assert_matches_reference(r)


def test_basis_bracket_is_built_once_and_read_only():
    s = sklyanin._basis_bracket("K", "P")
    assert sklyanin._basis_bracket("K", "P") is s
    assert s and all(x < y for x, y in (map(COORDS.index, xy) for xy in s))
    with pytest.raises(TypeError):
        s[("d", "h")] = PolyExpr.zero()
    with pytest.raises(TypeError):
        del s[next(iter(s))]
    flipped = sklyanin._basis_bracket("P", "K")
    assert flipped.keys() == s.keys()
    assert all(flipped[xy] == -v for xy, v in s.items())


def test_basis_brackets_are_not_built_at_import():
    """A fresh process that imports this copy of the package has built no
    basis bracket."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sklyanin.__file__)))
    code = ("import liebialg.sklyanin as s; "
            "print(*(f.cache_info().currsize for f in (s._basis_bracket, "
            "s._basis_operands, s._jacobi_pair)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "0 0 0"


# -- the Jacobiator as a quadratic form in r: the pair table -----------------

def _assert_pair_table_jacobiator(r):
    """The Jacobiator summed from the pair table equals the Leibniz
    Jacobiator of the Sklyanin table of r, triple by triple."""
    got = sklyanin._jacobiator(r)
    want = poisson_jacobi(sklyanin_table(r))
    assert list(got) == list(want)
    for triple, v in want.items():
        assert got[triple] == v, triple


_RMATS = sorted(p.name for p in resources.files("liebialg.tables").iterdir()
                if p.name.endswith(".rmat"))


@pytest.mark.parametrize("name", _RMATS)
def test_pair_table_jacobiator_on_every_packaged_rmat(name):
    _assert_pair_table_jacobiator(formats.table(name))


def test_pair_table_jacobiator_on_general_at_random_points():
    r = families.load_rmatrix("general")
    params = sorted(set().union(*(cf.names() for cf in r.terms.values())))
    rng = random.Random(3803)
    for _ in range(6):
        chart = {p: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                             rng.randint(1, 9)) for p in params}
        # a random subset of the parameters bound, the rest kept symbolic
        part = {p: v for p, v in chart.items() if rng.random() < 0.6}
        for bindings in (chart, part):
            _assert_pair_table_jacobiator(r.substitute(bindings))


def test_pair_table_with_one_entry_negated_fails(monkeypatch):
    """Negative control: negating one nonzero entry K_pq of the pair table
    breaks the equality on the general r-matrix."""
    r = families.load_rmatrix("general")
    names = r.algebra.names
    keys = sorted((names[i], names[j]) for i, j in r.terms)
    p, q = next((p, q) for p, q in combinations(keys, 2)
                if sklyanin._jacobi_pair(p, q))
    original = sklyanin._jacobi_pair

    def negated(a, b):
        img = original(a, b)
        if (a, b) == (p, q):
            (t, v), *rest = img
            return ((t, -v), *rest)
        return img

    monkeypatch.setattr(sklyanin, "_jacobi_pair", negated)
    with pytest.raises(AssertionError):
        _assert_pair_table_jacobiator(r)


def test_pair_table_is_built_once_and_read_only():
    p, q = ("D", "P"), ("H", "M")
    img = sklyanin._jacobi_pair(p, q)
    assert img and sklyanin._jacobi_pair(p, q) is img
    assert isinstance(img, tuple) and all(isinstance(e, tuple) for e in img)
    with pytest.raises(TypeError):
        img[0] = img[0]
    grads, signed = sklyanin._basis_operands(p)
    assert sklyanin._basis_operands(p) == (grads, signed)
    for ops in (grads, signed):
        with pytest.raises(TypeError):
            ops[("d", "h")] = ()
        with pytest.raises(TypeError):
            del ops[next(iter(ops))]


@pytest.mark.parametrize("name", ["h", "E"])
def test_jacobi_on_charts_rejects_a_ring_symbol_parameter(name):
    """The pair-table path builds no Sklyanin table, yet raises its
    ValueError for a parameter named like a coordinate ring symbol."""
    L = schrodinger.algebra()
    r = formats.parse_rmatrix(f"{name}*D^M + c1*D^P\n", L)
    with pytest.raises(ValueError) as table_error:
        sklyanin_table(r)
    with pytest.raises(ValueError) as charts_error:
        poisson_jacobi_on_charts(r, [{}])
    assert str(charts_error.value) == str(table_error.value)
    assert f"parameter {name} is named like" in str(charts_error.value)


def _trivector(w, field):
    """The trivector field of the 3-wedge ``w`` through ``field`` (left or
    right invariant), on each coordinate triple: the alternating sum over
    the 3x3 minors of field components on coordinates."""
    names = w.algebra.names
    out = {}
    for t in combinations(COORDS, 3):
        total = PolyExpr.zero()
        for key, cf in w.terms.items():
            fields = [field(names[i]) for i in key]
            for perm in permutations(range(3)):
                term = _sort_tuple(perm)[1] * cf
                for f, col in zip(fields, perm):
                    term = term * f.coeff(t[col])
                total = total + term
        out[t] = total
    return out


def _schouten_trivector(w):
    """-([[r,r]]^L - [[r,r]]^R) for ``w`` = [[r,r]]."""
    left, right = _trivector(w, left_field), _trivector(w, right_field)
    return {t: right[t] - left[t] for t in left}


_SCHOUTEN_FAMILIES = ["general", "p-primitive", "gl2", "oscillator"]


@pytest.mark.parametrize("n", range(len(_SCHOUTEN_FAMILIES)))
def test_jacobiator_is_the_schouten_trivector(n):
    """Criteria 5 and 10 meet: the Jacobiator of the Sklyanin bracket of r
    is -([[r,r]]^L - [[r,r]]^R), the Schouten bracket carried by the
    invariant fields.  Negative control: the (nonzero) Schouten bracket of
    the next family's r gives another trivector."""
    r, other = (families.load_rmatrix(_SCHOUTEN_FAMILIES[k % 4])
                for k in (n, n + 1))
    jac = poisson_jacobi(sklyanin_table(r))
    assert any(jac.values())
    assert jac == _schouten_trivector(schouten(r))
    assert jac != _schouten_trivector(schouten(other))


# -- the Poisson-Jacobi witness ----------------------------------------------

def test_jacobi_witness_off_the_variety():
    """p-primitive without a chart lies off its variety a1*a4 + a5*c1 = 0;
    the witness names the chart, the first failing triple and its leading
    term, which carries the constraint's a5*c1."""
    r = families.load_rmatrix("p-primitive")
    w = poisson_jacobi_on_charts(r, [{}])
    assert (w.chart, w.triple) == (0, ("d", "p", "m"))
    assert str(w) == "chart 0, triple (d,p,m): leading term 2*E^-3*a5*c^2*c1*h"
    charts = families.FAMILIES["p-primitive"].charts
    w = poisson_jacobi_on_charts(r, (*charts, {}))
    assert str(w).startswith("chart 3, triple (d,p,m): ")
    res = poisson_jacobi(sklyanin_table(r))
    assert w.term == PolyExpr(dict([res[("d", "p", "m")].sorted_terms()[0]]))


def _first_failure(residuals):
    """(chart, triple, leading term) of the first nonzero residual over the
    per-chart residual dicts, or None."""
    for n, res in enumerate(residuals):
        for triple, v in res.items():
            if v:
                return n, triple, PolyExpr(dict([v.sorted_terms()[0]]))
    return None


@pytest.mark.parametrize("name", [n for n, spec in families.FAMILIES.items()
                                  if spec.charts])
def test_charts_substituted_into_the_jacobiator_match_per_chart_tables(name):
    """Substituting a chart commutes with the Sklyanin table and its
    Jacobiator: the residuals of r with each chart substituted afterwards
    equal the Jacobiator of each substituted r's own table, on the packaged
    charts and on two off the variety, and the witness is the first nonzero
    one of those."""
    r = families.load_rmatrix(name)
    first = min(set().union(*(cf.names() for cf in r.terms.values())))
    charts = (*families.FAMILIES[name].charts, {}, {first: 2})
    residuals = poisson_jacobi(sklyanin_table(r))
    per_chart = [poisson_jacobi(sklyanin_table(r.substitute(chart)))
                 for chart in charts]
    assert [{t: v.substitute(chart) for t, v in residuals.items()}
            for chart in charts] == per_chart
    def witness(charts):
        w = poisson_jacobi_on_charts(r, charts)
        return None if w is None else (w.chart, w.triple, w.term)

    for n, chart in enumerate(charts):
        assert witness([chart]) == _first_failure([per_chart[n]]), chart
    assert witness(charts) == _first_failure(per_chart)


def test_no_packaged_chart_binds_a_coordinate_ring_symbol():
    """A packaged chart binds parameters of r only, never E or a coordinate,
    and its values bring none of them in: ``poisson_jacobi_on_charts``
    substitutes it after the Jacobiator is built, which commutes with the
    coordinate derivatives only for such a chart."""
    ring = {"E", "h", "p", "k", "c", "m"}
    for name, spec in families.FAMILIES.items():
        for chart in spec.charts:
            assert ring.isdisjoint(chart), (name, chart)
            for v in chart.values():
                assert ring.isdisjoint(poly(v).names()), (name, chart)


def test_jacobi_check_text_is_shared_by_cli_and_verify(capsys, monkeypatch):
    """``poisson_jacobi_check`` gives the chart count or the witness, and
    ``sklyanin --family`` and criterion 10 report exactly what it gives."""
    from liebialg import cli, verify
    r = families.load_rmatrix("p-primitive")
    charts = families.FAMILIES["p-primitive"].charts
    assert poisson_jacobi_check(r, charts) == (
        True, f"{len(charts)} chart(s)")
    assert poisson_jacobi_check(r, [{}]) == (
        False, str(poisson_jacobi_on_charts(r, [{}])))
    monkeypatch.setattr(sklyanin, "poisson_jacobi_check",
                        lambda r, charts: (False, "marker"))
    cli.main(["sklyanin", "--family", "p-primitive"])
    assert "[FAIL] poisson-jacobi: marker" in capsys.readouterr().out
    got = [c for c in verify.criterion_10(4)
           if c[0].startswith("poisson-jacobi-")]
    assert len(got) == 5 and all(c[1:] == (False, "marker") for c in got)


# ---------------------------------------------------------------------------
# the matrix Sklyanin bracket: {g (x), g} = [g (x) g, r_rho], an oracle for
# sklyanin_table that needs no invariant vector field
# ---------------------------------------------------------------------------

_CELLS = [(i, j) for i in range(4) for j in range(4)]
_MATRIX_FAMILIES = ["general", "d-primitive", "p-primitive",
                    "h-primitive-standard", "h-primitive-nonstandard",
                    "oscillator"]


def _r_rho(r, sign):
    """sign * sum r^ab (rho_a (x) rho_b - rho_b (x) rho_a), as
    ``{((i, k), (j, l)): entry}`` with the zero entries left out."""
    names, rep = r.algebra.names, rep_matrices()
    out = {}
    for (a, b), cf in r.terms.items():
        ra, rb = rep[names[a]], rep[names[b]]
        for (i, j), (k, l) in [(u, v) for u in _CELLS for v in _CELLS]:
            n = ra[i][j] * rb[k][l] - rb[i][j] * ra[k][l]
            if n:
                key = ((i, k), (j, l))
                out[key] = out.get(key, PolyExpr.zero()) + sign * n * cf
    return {key: v for key, v in out.items() if v}


def _matrix_bracket(r, sign=1):
    """[g (x) g, r_rho]: entry ((i, k), (j, l)) is the matrix side of
    {g_ij, g_kl}."""
    g = {key: v for key, v in group_element().terms.items()}
    gg = {((i, k), (s, t)): g[(i, s)] * g[(k, t)]
          for (i, s) in g for (k, t) in g}
    rr = _r_rho(r, sign)
    out = {}
    for (row, mid), a in gg.items():       # (g (x) g) r_rho
        for (mid2, col), b in rr.items():
            if mid == mid2:
                out[(row, col)] = out.get((row, col), PolyExpr.zero()) + a * b
    for (row, mid), a in rr.items():       # - r_rho (g (x) g)
        for (mid2, col), b in gg.items():
            if mid == mid2:
                out[(row, col)] = out.get((row, col), PolyExpr.zero()) - a * b
    return out


def _chain_rule_bracket(table):
    """{g_ij, g_kl} = sum_xy d_x g_ij d_y g_kl {x, y} over the coordinates,
    the bracket of coordinates read from ``table``."""
    g = group_element()
    grads = {cell: [(q, d) for q in COORDS
                    if (d := sklyanin.d_coord(g.coeff(cell), q))]
             for cell in _CELLS}
    out = {}
    for (i, j), (k, l) in [(u, v) for u in _CELLS for v in _CELLS]:
        total = PolyExpr.zero()
        for x, dx in grads[(i, j)]:
            for y, dy in grads[(k, l)]:
                if x != y:
                    total = total + dx * dy * table_bracket(table, x, y)
        out[((i, k), (j, l))] = total
    return out


def _differing(chain, matrix):
    return sum(1 for key, v in chain.items()
               if v != matrix.get(key, PolyExpr.zero()))


@pytest.mark.parametrize("name", _MATRIX_FAMILIES)
def test_sklyanin_table_is_the_matrix_bracket(name):
    """All 256 entries {g_ij, g_kl} of the table's bracket equal those of
    [g (x) g, r_rho]; with r_rho's sign flipped, every nonzero one
    differs."""
    r = families.load_rmatrix(name)
    chain = _chain_rule_bracket(sklyanin_table(r))
    assert len(chain) == 256
    assert _differing(chain, _matrix_bracket(r)) == 0
    flipped = _differing(chain, _matrix_bracket(r, sign=-1))
    assert flipped == sum(1 for v in chain.values() if v)
    assert flipped == {"general": 72, "d-primitive": 12, "p-primitive": 60,
                       "h-primitive-standard": 64,
                       "h-primitive-nonstandard": 60, "oscillator": 60}[name]
