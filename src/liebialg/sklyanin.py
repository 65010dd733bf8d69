"""Poisson-Lie structures on the Schrodinger group.

Group coordinates are (d, h, p, k, c, m); the dilation coordinate d only ever
enters through the invertible symbol E = e^d, and the derivation d/dd acts as
E d/dE.  Everything is exact Laurent-polynomial arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import mul

from .symkernel import PolyExpr, Q, Symbol, poly
from .liealg import WedgeElement
from .bialgebra import Cocommutator
from . import schrodinger

__all__ = [
    "COORDS", "COORD_TO_GEN", "E", "coord", "VectorField", "GroupMatrix",
    "PoissonTable", "rep_matrices", "group_element", "group_element_inverse",
    "closed_form_group_element", "left_field", "right_field",
    "invariant_field_check", "field_commutator", "sklyanin_table",
    "poisson_jacobi", "poisson_jacobi_on_charts", "linearize_table",
    "linear_part",
]

COORDS = ("d", "h", "p", "k", "c", "m")
COORD_TO_GEN = {"d": "D", "h": "H", "p": "P", "k": "K", "c": "C", "m": "M"}

E = PolyExpr.var(Symbol("E", invertible=True))
_COORD_VARS = {q: PolyExpr.var(q) for q in COORDS if q != "d"}


def coord(name):
    """Coordinate function; ``d`` itself is not a ring element (use E)."""
    if name == "d":
        raise ValueError("d enters only through E = e^d")
    return _COORD_VARS[name]


def d_coord(f, name):
    """Partial derivative along a coordinate; d/dd = E d/dE."""
    if name == "d":
        return E * f.derivative("E")
    return f.derivative(name)


@dataclass(frozen=True)
class VectorField:
    """Derivation sum_q comp[q] d/dq in the coordinate basis."""
    components: tuple      # one PolyExpr per entry of COORDS

    @staticmethod
    def make(**comps):
        return VectorField(tuple(poly(comps.get(q, 0)) for q in COORDS))

    def component(self, q):
        return self.components[COORDS.index(q)]

    def apply(self, f):
        out = PolyExpr.zero()
        for q, comp in zip(COORDS, self.components):
            if comp:
                out = out + comp * d_coord(f, q)
        return out

    def __add__(self, other):
        return VectorField(tuple(a + b for a, b in
                                 zip(self.components, other.components)))

    def __sub__(self, other):
        return VectorField(tuple(a - b for a, b in
                                 zip(self.components, other.components)))

    def scale(self, s):
        s = poly(s)
        return VectorField(tuple(s * a for a in self.components))

    def is_zero(self):
        return all(not c for c in self.components)

    def __str__(self):
        parts = [f"({c})*d/d{q}" for q, c in zip(COORDS, self.components) if c]
        return " + ".join(parts) if parts else "0"


def field_commutator(f1, f2):
    """Commutator of derivations, [f1,f2]^q = f1(f2^q) - f2(f1^q)."""
    return VectorField(tuple(f1.apply(b) - f2.apply(a)
                             for a, b in zip(f1.components, f2.components)))


# ---------------------------------------------------------------------------
# the 4x4 matrix representation and the group element
# ---------------------------------------------------------------------------

_REP = {
    "H": ((0, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
    "P": ((0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 0, 0), (0, 0, 0, 0)),
    "K": ((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, -1), (0, 0, 0, 0)),
    "D": ((0, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 0)),
    "C": ((0, 0, 0, 0), (0, 0, 0, 0), (0, -1, 0, 0), (0, 0, 0, 0)),
    "M": ((0, 0, 0, 2), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)),
}


def rep_matrices():
    """The six 4x4 rational matrices representing D, C, H, K, P, M."""
    return {g: tuple(tuple(Fraction(v) for v in row) for row in mat)
            for g, mat in _REP.items()}


class GroupMatrix:
    """4x4 matrix with PolyExpr entries (group elements, residuals)."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(poly(v) for v in row) for row in rows)
        if len(self.rows) != 4 or any(len(r) != 4 for r in self.rows):
            raise ValueError("need a 4x4 matrix")

    @staticmethod
    def identity():
        return GroupMatrix([[1 if i == j else 0 for j in range(4)]
                            for i in range(4)])

    def __mul__(self, other):
        return GroupMatrix([[sum((self.rows[i][t] * other.rows[t][j]
                                  for t in range(4)), PolyExpr.zero())
                             for j in range(4)] for i in range(4)])

    def __add__(self, other):
        return GroupMatrix([[a + b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return GroupMatrix([[a - b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.rows, other.rows)])

    def scale(self, s):
        s = poly(s)
        return GroupMatrix([[s * v for v in row] for row in self.rows])

    def is_zero(self):
        return all(not v for row in self.rows for v in row)

    def __eq__(self, other):
        return isinstance(other, GroupMatrix) and self.rows == other.rows

    def apply_field(self, field):
        return GroupMatrix([[field.apply(v) for v in row] for row in self.rows])

    def det(self):
        from itertools import permutations
        total = PolyExpr.zero()
        for perm in permutations(range(4)):
            sign = 1
            pl = list(perm)
            for a in range(4):
                for bidx in range(3 - a):
                    if pl[bidx] > pl[bidx + 1]:
                        pl[bidx], pl[bidx + 1] = pl[bidx + 1], pl[bidx]
                        sign = -sign
            term = PolyExpr.const(sign)
            for i in range(4):
                term = term * self.rows[i][perm[i]]
            total = total + term
        return total

    def __str__(self):
        return "\n".join("[" + ", ".join(str(v) for v in row) + "]"
                         for row in self.rows)


def _rep_matrix(gen):
    return GroupMatrix([[Fraction(v) for v in row] for row in _REP[gen]])


def _exp_coord(gen, value):
    """exp(value * rep(gen)): finite because every generator but D is
    nilpotent.  For D, ``value`` is the sign s of s*d, and exp(s*d*D) is the
    diagonal (1, E^-s, E^s, 1)."""
    if gen == "D":
        return GroupMatrix([
            [1, 0, 0, 0],
            [0, E ** -value, 0, 0],
            [0, 0, E ** value, 0],
            [0, 0, 0, 1],
        ])
    N = _rep_matrix(gen).scale(value)
    out = GroupMatrix.identity()
    power = GroupMatrix.identity()
    fact = 1
    for t in range(1, 5):
        power = power * N
        if power.is_zero():
            break
        fact *= t
        out = out + power.scale(Q(1, fact))
    return out


def _factors(sign):
    """exp(s*m*M), exp(s*p*P), exp(s*k*K), exp(s*h*H), exp(s*c*C),
    exp(s*d*D) for the sign s, in the order of the group element."""
    return [_exp_coord(gen, sign * coord(q)) for gen, q in
            (("M", "m"), ("P", "p"), ("K", "k"), ("H", "h"), ("C", "c"))] \
        + [_exp_coord("D", sign)]


def group_element():
    """g = exp(mM) exp(pP) exp(kK) exp(hH) exp(cC) exp(dD), multiplied out."""
    return reduce(mul, _factors(1))


def group_element_inverse():
    """g^-1 = exp(-dD) exp(-cC) exp(-hH) exp(-kK) exp(-pP) exp(-mM): the
    inverse factors of g in reverse order."""
    return reduce(mul, _factors(-1)[::-1])


def closed_form_group_element():
    """The closed-form matrix of the group element."""
    h, p, k, c, m = (coord(q) for q in "hpkcm")
    return GroupMatrix([
        [1, (k - (p + k * h) * c) * E ** -1, (p + k * h) * E, 2 * m - p * k],
        [0, (1 - h * c) * E ** -1, h * E, p],
        [0, -c * E ** -1, E, -k],
        [0, 0, 0, 1],
    ])


# ---------------------------------------------------------------------------
# invariant vector fields (data, verified through the defining equations)
# ---------------------------------------------------------------------------

def _fields():
    h, p, k, c, m = (coord(q) for q in "hpkcm")
    one = PolyExpr.const(1)
    left = {
        "D": VectorField.make(d=one),
        "C": VectorField.make(c=E ** 2),
        "M": VectorField.make(m=one),
        "H": VectorField.make(h=E ** -2, d=-c * E ** -2, c=-c * c * E ** -2),
        "P": VectorField.make(p=(1 - c * h) * E ** -1,
                              m=k * (1 - c * h) * E ** -1,
                              k=c * E ** -1),
        "K": VectorField.make(k=E, p=-h * E, m=-h * k * E),
    }
    right = {
        "H": VectorField.make(h=one, p=-k, m=-k * k * Q(1, 2)),
        "P": VectorField.make(p=one),
        "K": VectorField.make(k=one, m=p),
        "M": VectorField.make(m=one),
        "D": VectorField.make(d=one, c=2 * c, h=-2 * h, p=-p, k=k),
        "C": VectorField.make(d=-h, c=1 - 2 * h * c, h=h * h, k=p,
                              m=p * p * Q(1, 2)),
    }
    return left, right


_LEFT, _RIGHT = _fields()


def left_field(gen):
    return _LEFT[gen]


def right_field(gen):
    return _RIGHT[gen]


def invariant_field_check(field, gen, side):
    """Residual of the defining equation of an invariant field.

    left:  g^{-1} (X g) - rep(gen);  right: (X g) g^{-1} - rep(gen).
    A zero matrix certifies the field.
    """
    g = group_element()
    xg = g.apply_field(field)
    ginv = group_element_inverse()
    if side == "left":
        res = ginv * xg
    elif side == "right":
        res = xg * ginv
    else:
        raise ValueError("side must be 'left' or 'right'")
    return res - _rep_matrix(gen)


# ---------------------------------------------------------------------------
# the Sklyanin bracket
# ---------------------------------------------------------------------------

class PoissonTable:
    """The 15 coordinate brackets {q_i, q_j} (i < j in coordinate order)."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = {}
        for (x, y), v in entries.items():
            i, j = COORDS.index(x), COORDS.index(y)
            if i == j:
                raise ValueError("diagonal bracket")
            if i < j:
                self.entries[(x, y)] = poly(v)
            else:
                self.entries[(y, x)] = -poly(v)

    def bracket(self, x, y):
        i, j = COORDS.index(x), COORDS.index(y)
        if i == j:
            return PolyExpr.zero()
        if i < j:
            return self.entries.get((x, y), PolyExpr.zero())
        return -self.entries.get((y, x), PolyExpr.zero())

    def __add__(self, other):
        out = dict(self.entries)
        for key, v in other.entries.items():
            out[key] = out.get(key, PolyExpr.zero()) + v
        return PoissonTable(out)

    def substitute(self, bindings):
        return PoissonTable({key: v.substitute(bindings)
                             for key, v in self.entries.items()})

    def __eq__(self, other):
        a = {k: v for k, v in self.entries.items() if v}
        b = {k: v for k, v in other.entries.items() if v}
        return a == b

    def __str__(self):
        lines = []
        for pr in combinations(COORDS, 2):
            v = self.entries.get(pr, PolyExpr.zero())
            lines.append("{%s,%s} = %s" % (pr[0], pr[1], v))
        return "\n".join(lines)


def sklyanin_table(r):
    """{q_i,q_j} = sum r^{ab} (X_a^L q_i X_b^L q_j - X_a^R q_i X_b^R q_j)."""
    names = r.algebra.names
    comps = []
    for (i, j), cf in r.terms.items():
        comps.append((names[i], names[j], cf))
        comps.append((names[j], names[i], -cf))
    out = {}
    for x, y in combinations(COORDS, 2):
        total = PolyExpr.zero()
        for ga, gb, cf in comps:
            total = total + cf * (
                _LEFT[ga].component(x) * _LEFT[gb].component(y)
                - _RIGHT[ga].component(x) * _RIGHT[gb].component(y))
        out[(x, y)] = total
    return PoissonTable(out)


def poisson_jacobi(table):
    """{{q_i,q_j},q_k} + cyclic, per coordinate triple, via the Leibniz rule."""
    def pb_fn(f, q):
        out = PolyExpr.zero()
        for l in COORDS:
            df = d_coord(f, l)
            if df:
                out = out + df * table.bracket(l, q)
        return out

    residuals = {}
    for x, y, z in combinations(COORDS, 3):
        res = (pb_fn(table.bracket(x, y), z)
               + pb_fn(table.bracket(y, z), x)
               + pb_fn(table.bracket(z, x), y))
        residuals[(x, y, z)] = res
    return residuals


def poisson_jacobi_on_charts(r, charts):
    """True when the Sklyanin bracket of ``r`` satisfies the Jacobi identity
    on every chart (substitution) of its constraint variety."""
    return all(not any(poisson_jacobi(sklyanin_table(r.substitute(c))).values())
               for c in charts)


def linear_part(f):
    """Split off the affine part of a coordinate function.

    Returns (constant, {coord: coefficient}) treating E = e^d as 1 + d at
    first order; coefficients may still involve free parameters.
    """
    const = PolyExpr.zero()
    lin = {q: PolyExpr.zero() for q in COORDS}
    for mono, cf in f.terms.items():
        coords_present = [(nm, e) for nm, e in mono if nm in _COORD_VARS]
        e_exp = dict(mono).get("E", 0)
        par = tuple((nm, e) for nm, e in mono
                    if nm not in _COORD_VARS and nm != "E")
        pref = PolyExpr({par: cf}, f.inv)
        s = sum(e for _, e in coords_present)
        if s == 0:
            const = const + pref
            if e_exp:
                lin["d"] = lin["d"] + pref * e_exp
        elif s == 1:
            lin[coords_present[0][0]] = lin[coords_present[0][0]] + pref
    return const, lin


def linearize_table(table):
    """Dual structure constants from the linear terms of the brackets.

    The coefficient of q_l in the linear part of {q_i, q_j} is the
    cocommutator coefficient of X_l on the wedge X_i ^ X_j (coordinates are
    paired with the generators they exponentiate).  Returns the resulting
    Cocommutator; raises if some bracket fails to vanish at the unit.
    """
    L = schrodinger.algebra()
    rows = {g: [] for g in L.names}
    for (x, y), v in table.entries.items():
        const, lin = linear_part(v)
        if const:
            raise ValueError(f"bracket {{{x},{y}}} does not vanish at the unit")
        for q, cf in lin.items():
            if cf:
                rows[COORD_TO_GEN[q]].append(
                    (cf, COORD_TO_GEN[x], COORD_TO_GEN[y]))
    return Cocommutator(L, [WedgeElement.from_pairs(L, rows[g])
                            for g in L.names])
