import functools
import operator
import random
from fractions import Fraction
from itertools import combinations

import pytest

from liebialg.symkernel import PolyExpr
from liebialg.liealg import WedgeElement
from liebialg.bialgebra import delta_from_r
from liebialg import schrodinger, formats, families
from liebialg import sklyanin
from liebialg.sklyanin import (COORDS, E, coord, rep_matrices, group_element,
                               group_element_inverse,
                               closed_form_group_element, left_field,
                               right_field, invariant_field_check,
                               field_commutator, sklyanin_table, poisson_jacobi,
                               linearize_table, linear_part, VectorField,
                               PoissonTable, GroupMatrix)

V = PolyExpr.var


def test_rep_realizes_brackets(L):
    rep = {g: GroupMatrix(m) for g, m in rep_matrices().items()}

    def comm(a, b):
        return a * b - b * a

    for i, j in combinations(range(L.dim), 2):
        x, y = L.names[i], L.names[j]
        want = GroupMatrix([[0] * 4] * 4)
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
    assert g.rows[1][2] == h * E
    assert g.rows[0][3] == 2 * m - p * k


def test_group_element_inverse():
    g, ginv = group_element(), group_element_inverse()
    eye = GroupMatrix.identity()
    assert g * ginv == eye
    assert ginv * g == eye
    # negative control: the same inverse factors in forward order
    wrong = functools.reduce(operator.mul, sklyanin._factors(-1))
    assert g * wrong != eye and wrong * g != eye


def test_group_element_at_identity():
    g = group_element()
    at0 = {q: 0 for q in "hpkcm"}
    at0["E"] = PolyExpr.const(1)
    eye = GroupMatrix.identity()
    assert all(g.rows[i][j].substitute(at0) == eye.rows[i][j]
               for i in range(4) for j in range(4))


@pytest.mark.parametrize("gen", schrodinger.GENERATORS)
def test_invariant_fields(gen):
    assert invariant_field_check(left_field(gen), gen, "left").is_zero()
    assert invariant_field_check(right_field(gen), gen, "right").is_zero()


def test_left_fields_represent_brackets(L):
    for i, j in combinations(range(L.dim), 2):
        x, y = L.names[i], L.names[j]
        want = VectorField.make()
        for k, c in L.sc(i, j).items():
            want = want + left_field(L.names[k]).scale(c)
        assert (field_commutator(left_field(x), left_field(y)) - want).is_zero()


def test_right_fields_antirepresent_brackets(L):
    for i, j in combinations(range(L.dim), 2):
        x, y = L.names[i], L.names[j]
        want = VectorField.make()
        for k, c in L.sc(i, j).items():
            want = want + right_field(L.names[k]).scale(-c)
        assert (field_commutator(right_field(x), right_field(y)) - want).is_zero()


def test_left_right_fields_commute():
    for x in schrodinger.GENERATORS:
        for y in schrodinger.GENERATORS:
            assert field_commutator(left_field(x), right_field(y)).is_zero()


def test_field_self_commutator():
    f = left_field("P")
    assert field_commutator(f, f).is_zero()


def test_hc_commutator_is_dilation_field():
    got = field_commutator(left_field("H"), left_field("C"))
    assert (got - left_field("D")).is_zero()


def test_general_table_matches_fixture(L):
    T = sklyanin_table(families.load_rmatrix("general", L))
    fixture = formats.parse_ptable(formats.load_table("poisson_general.ptable"))
    assert T == fixture
    h, c2v, c3v = coord("h"), V("c2"), V("c3")
    assert T.bracket("d", "h") == \
        V("a2") * (E ** -2 - 1) + V("b2") * h * h - c3v * h


def test_two_parameter_family_brackets(L):
    r = families.load_rmatrix("d-primitive", L)
    T = sklyanin_table(r)
    h, p, k, c = (coord(q) for q in "hpkc")
    c1v, c2v = V("c1"), V("c2")
    nonzero = {key: v for key, v in T.entries.items() if v}
    assert set(nonzero) == {("h", "m"), ("p", "m"), ("k", "m"), ("c", "m")}
    assert T.bracket("m", "h") == -2 * c1v * h
    assert T.bracket("m", "p") == -(c1v - c2v) * p
    assert T.bracket("m", "k") == (c1v + c2v) * k
    assert T.bracket("m", "c") == 2 * c1v * c


@pytest.mark.parametrize("name", ["d-primitive", "p-primitive",
                                  "h-primitive-standard",
                                  "h-primitive-nonstandard"])
def test_family_tables_match_fixtures(L, name):
    spec = families.FAMILIES[name]
    T = sklyanin_table(families.load_rmatrix(name, L))
    assert T == formats.parse_ptable(formats.load_table(spec.ptable))


def test_linearization_general(L):
    T = sklyanin_table(families.load_rmatrix("general", L))
    _, ci = formats.parse_delta(
        formats.load_table("cocommutators_general.delta"), L)
    assert linearize_table(T) == ci


def test_linearization_p_primitive(L):
    r = families.load_rmatrix("p-primitive", L)
    T = sklyanin_table(r)
    assert linearize_table(T) == delta_from_r(L, r)


@pytest.mark.parametrize("name", ["d-primitive", "p-primitive",
                                  "h-primitive-standard",
                                  "h-primitive-nonstandard", "oscillator"])
def test_poisson_jacobi_families(L, name):
    spec = families.FAMILIES[name]
    r = families.load_rmatrix(name, L)
    assert spec.charts
    for chart in spec.charts:
        T = sklyanin_table(r.substitute(chart))
        res = poisson_jacobi(T)
        assert all(not v for v in res.values()), (name, chart)


def test_poisson_jacobi_broken_table(L):
    r = families.load_rmatrix("general", L).substitute(
        {p: (1 if p == "a2" else 0) for p in schrodinger.ALL_PARAMS})
    T = sklyanin_table(r)
    entries = dict(T.entries)
    entries[("d", "h")] = -entries[("d", "h")]
    broken = PoissonTable(entries)
    res = poisson_jacobi(broken)
    assert any(v for v in res.values())


def test_table_antisymmetry(L):
    T = sklyanin_table(families.load_rmatrix("general", L))
    for x in COORDS:
        for y in COORDS:
            assert T.bracket(x, y) == -T.bracket(y, x)


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
        T = sklyanin_table(families.load_rmatrix(name, L))
        for v in T.entries.values():
            const, _ = linear_part(v)
            assert const.is_zero()


def test_coordinate_d_is_not_a_ring_element():
    with pytest.raises(ValueError):
        coord("d")
