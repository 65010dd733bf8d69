"""Poisson-Lie structures on the Schrodinger group.

Group coordinates are (d, h, p, k, c, m); the dilation coordinate d only ever
enters through the symbol E = e^d, a unit, and the derivation d/dd acts as
E d/dE.  Everything is exact Laurent-polynomial arithmetic.  A
``VectorField`` (keyed by coordinate), a ``GroupMatrix`` (by row and column)
and a ``PoissonTable`` (by coordinate pair) share the keyed arithmetic of
``symkernel._Keyed``: each keeps only its nonzero coefficients, a key it
lacks is 0, and its constructor rejects a key outside its space.

The Sklyanin bracket of r is linear in r: pi = sum_p r_p S_p over the
basis brackets S_p of the generator pairs p (``_basis_bracket``).  Its
Jacobiator is therefore a quadratic form in r, sum_{p <= q} r_p r_q K_pq,
and the Poisson-Jacobi check reads it off the group's pair table of K_pq
(``_jacobi_pair``) instead of differentiating a table per r.  One Leibniz
loop, ``_jacobi_terms``, builds both the pair table and the Jacobiator of
any ``PoissonTable`` (``poisson_jacobi``).  A parameter of r may not be
named E, h, p, k, c or m: the coordinate ring would read it as its own
symbol, so ``sklyanin_table`` and the Poisson-Jacobi check raise
ValueError for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce
from itertools import chain, combinations, permutations
from operator import mul
from types import MappingProxyType

from .symkernel import PolyExpr, Q, _Keyed, substitution, sum_by_key
from .liealg import WedgeElement, _sort_tuple
from .bialgebra import Cocommutator
from . import schrodinger

__all__ = [
    "COORDS", "COORD_TO_GEN", "E", "coord", "VectorField", "GroupMatrix",
    "PoissonTable", "rep_matrices", "group_element", "group_element_inverse",
    "closed_form_group_element", "left_field", "right_field",
    "invariant_field_check", "sklyanin_table",
    "poisson_jacobi", "poisson_jacobi_on_charts", "poisson_jacobi_check",
    "JacobiFailure",
    "linearize_table", "linear_part",
]

COORDS = ("d", "h", "p", "k", "c", "m")
COORD_TO_GEN = {"d": "D", "h": "H", "p": "P", "k": "K", "c": "C", "m": "M"}

E = PolyExpr.var("E")
_COORD_VARS = {q: PolyExpr.var(q) for q in COORDS if q != "d"}
# the symbols of the coordinate ring, which no parameter of r may reuse
_RING_NAMES = frozenset({"E", *_COORD_VARS})


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


class VectorField(_Keyed):
    """Derivation sum_q coeff(q) d/dq, keyed by coordinate in COORDS order."""

    __slots__ = ()

    def __init__(self, terms):
        for q in terms:
            if q not in COORDS:
                raise ValueError(f"unknown coordinate {q!r}")
        super().__init__({q: terms[q] for q in COORDS if q in terms})

    def apply(self, f):
        return _total((None, 1, comp, d_coord(f, q))
                      for q, comp in self.terms.items())


def _total(items):
    """The sum of the ``sum_by_key`` items ``items``, all under the key
    None."""
    return sum_by_key(items).get(None, PolyExpr.zero())


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
    """The six 4x4 integer matrices representing D, C, H, K, P, M."""
    return dict(_REP)


_CELLS = {(i, j) for i in range(4) for j in range(4)}


class GroupMatrix(_Keyed):
    """A 4x4 matrix keyed by (row, column) (group elements, residuals)."""

    __slots__ = ()

    def __init__(self, terms):
        for key in terms:
            if key not in _CELLS:
                raise ValueError(f"no entry {key!r} in a 4x4 matrix")
        super().__init__(terms)

    @staticmethod
    def from_rows(rows):
        """The matrix of four rows of four entries each."""
        if len(rows) != 4 or any(len(r) != 4 for r in rows):
            raise ValueError("need a 4x4 matrix")
        return GroupMatrix({(i, j): v for i, row in enumerate(rows)
                            for j, v in enumerate(row)})

    @staticmethod
    def identity():
        return GroupMatrix({(i, i): 1 for i in range(4)})

    def __mul__(self, other):
        by_row = {}
        for (t, j), b in other.terms.items():
            by_row.setdefault(t, []).append((j, b))
        return GroupMatrix(sum_by_key(
            ((i, j), 1, a, b) for (i, t), a in self.terms.items()
            for j, b in by_row.get(t, ())))

    def apply_field(self, field):
        return self.map_coeffs(field.apply)

    def det(self):
        c = self.coeff
        return _total((None, _sort_tuple(perm)[1],
                       c((0, perm[0])) * c((1, perm[1])) * c((2, perm[2])),
                       c((3, perm[3])))
                      for perm in permutations(range(4)))


def _rep_matrix(gen):
    return GroupMatrix.from_rows(_REP[gen])


def _exp_coord(gen, value):
    """exp(value * rep(gen)): finite because every generator but D is
    nilpotent.  For D, ``value`` is the sign s of s*d, and exp(s*d*D) is the
    diagonal (1, E^-s, E^s, 1)."""
    if gen == "D":
        return GroupMatrix({(0, 0): 1, (1, 1): E ** -value,
                            (2, 2): E ** value, (3, 3): 1})
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


@cache
def group_element():
    """g = exp(mM) exp(pP) exp(kK) exp(hH) exp(cC) exp(dD), multiplied out.
    Built once; the matrix is immutable, so every caller shares it."""
    return reduce(mul, _factors(1))


@cache
def group_element_inverse():
    """g^-1 = exp(-dD) exp(-cC) exp(-hH) exp(-kK) exp(-pP) exp(-mM): the
    inverse factors of g in reverse order.  Built once, like g."""
    return reduce(mul, _factors(-1)[::-1])


def closed_form_group_element():
    """The closed-form matrix of the group element."""
    h, p, k, c, m = (coord(q) for q in "hpkcm")
    return GroupMatrix.from_rows([
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
        "D": VectorField({"d": one}),
        "C": VectorField({"c": E ** 2}),
        "M": VectorField({"m": one}),
        "H": VectorField({"h": E ** -2, "d": -c * E ** -2,
                          "c": -c * c * E ** -2}),
        "P": VectorField({"p": (1 - c * h) * E ** -1,
                          "m": k * (1 - c * h) * E ** -1,
                          "k": c * E ** -1}),
        "K": VectorField({"k": E, "p": -h * E, "m": -h * k * E}),
    }
    right = {
        "H": VectorField({"h": one, "p": -k, "m": -k * k * Q(1, 2)}),
        "P": VectorField({"p": one}),
        "K": VectorField({"k": one, "m": p}),
        "M": VectorField({"m": one}),
        "D": VectorField({"d": one, "c": 2 * c, "h": -2 * h, "p": -p,
                          "k": k}),
        "C": VectorField({"d": -h, "c": 1 - 2 * h * c, "h": h * h, "k": p,
                          "m": p * p * Q(1, 2)}),
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

# every ordered pair of two coordinates: its key in a table, and the sign
_PAIRS = {**{xy: (xy, 1) for xy in combinations(COORDS, 2)},
          **{(y, x): ((x, y), -1) for x, y in combinations(COORDS, 2)}}
_TRIPLES = tuple(combinations(COORDS, 3))


def _thirds():
    """For each pair (x, y), x before y: ``((q, triple, sign), ...)`` for
    each third coordinate q, the sign of {{x,y},q} in the cyclic sum of
    the triple; it is -1 when q lies between x and y, the term
    {{z,x},y} = -{{x,z},y} of the triple (x, y, z)."""
    out = {xy: [] for xy in combinations(COORDS, 2)}
    for x, y, z in _TRIPLES:
        for pair, sign, q in (((x, y), 1, z), ((y, z), 1, x),
                              ((x, z), -1, y)):
            out[pair].append((q, (x, y, z), sign))
    return {pair: tuple(thirds) for pair, thirds in out.items()}


_THIRDS = _thirds()


class PoissonTable(_Keyed):
    """The coordinate brackets {q_i, q_j}: the keyed value on the pairs
    (q_i, q_j), i < j in coordinate order.  A pair it lacks has bracket 0;
    a pair given in the other order is stored with its sign flipped, and
    a pair given in both orders is rejected."""

    __slots__ = ()

    def __init__(self, terms):
        out = {}
        for key, v in terms.items():
            if key not in _PAIRS:
                raise ValueError(f"not a pair of two coordinates: {key!r}")
            xy, sign = _PAIRS[key]
            if xy in out:
                raise ValueError("duplicate bracket {%s,%s}" % xy)
            out[xy] = v if sign == 1 else -v
        super().__init__(out)

    def __str__(self):
        return "\n".join("{%s,%s} = %s" % (x, y, self.coeff((x, y)))
                         for x, y in combinations(COORDS, 2))


@cache
def _basis_bracket(ga, gb):
    """S_ab, the Sklyanin bracket of the bivector X_a ^ X_b:
    ``{(x, y): L_a^x L_b^y - R_a^x R_b^y - (a <-> b)}`` for x < y, with the
    zero entries left out.  It depends on the group alone, so it is built on
    first use, once per generator pair, and shared read-only."""
    la, lb, ra, rb = (f.terms for f in
                      (_LEFT[ga], _LEFT[gb], _RIGHT[ga], _RIGHT[gb]))
    return MappingProxyType(sum_by_key(
        ((x, y), k, u[x], v[y]) for x, y in combinations(COORDS, 2)
        for k, u, v in ((1, la, lb), (-1, ra, rb), (-1, lb, la), (1, rb, ra))
        if x in u and y in v))


def _check_parameter_names(r):
    """A parameter of r named E or like a coordinate would be read as that
    symbol of the coordinate ring: ValueError names the first one."""
    clash = sorted(_RING_NAMES.intersection(
        set().union(*(cf.names() for cf in r.terms.values()))))
    if clash:
        raise ValueError(f"the r-matrix parameter {clash[0]} is named like "
                         f"a group coordinate symbol (E, h, p, k, c, m)")


def sklyanin_table(r):
    """{q_i,q_j} = sum r^{ab} (X_a^L q_i X_b^L q_j - X_a^R q_i X_b^R q_j),
    summed as sum r^{ab} S_ab over the basis brackets of the terms of r.
    Raises ValueError for a parameter of r named like a symbol of the
    coordinate ring (E, h, p, k, c, m)."""
    _check_parameter_names(r)
    names = r.algebra.names
    return PoissonTable(sum_by_key(
        (xy, 1, cf, s) for (i, j), cf in r.terms.items()
        for xy, s in _basis_bracket(names[i], names[j]).items()))


def _leibniz_operands(terms):
    """The two operands of ``_jacobi_terms`` for the brackets ``terms``
    (``{(x, y): PolyExpr}``, x before y): the gradient of each entry,
    ``{(x, y): ((l, d v / d q_l), ...)}`` with the zero derivatives left
    out, and the signed entries ``{(x, y): (1, v), (y, x): (-1, v)}``."""
    grads = {xy: tuple((l, g) for l in COORDS if (g := d_coord(v, l)))
             for xy, v in terms.items()}
    signed = {}
    for (x, y), v in terms.items():
        signed[(x, y)], signed[(y, x)] = (1, v), (-1, v)
    return grads, signed


def _jacobi_terms(grads, signed):
    """The Leibniz terms of the Jacobiator pairing of two brackets a and b,
    J(a, b) = {{x,y}_a, z}_b + cyclic per coordinate triple, where
    {f, q}_b = sum_l (d f / d q_l) {q_l, q}_b: ``(triple, sign, derivative,
    entry)`` product items for ``sum_by_key``, from the gradients of a's
    entries and the signed entries of b.  The reversed pair
    {z, x} = -{x, z} reuses the gradient of {x, z} with sign -1.  J(T, T)
    is the Jacobiator of T."""
    for pair, grad in grads.items():
        for q, triple, sign in _THIRDS[pair]:
            for l, g in grad:
                s, b = signed.get((l, q), (0, None))
                if s:
                    yield triple, sign * s, g, b


def _residuals(items):
    """The ``sum_by_key`` items of the Leibniz terms summed per triple,
    every coordinate triple present."""
    sums = sum_by_key(items)
    return {t: sums.get(t, PolyExpr.zero()) for t in _TRIPLES}


def poisson_jacobi(table):
    """{{q_i,q_j},q_k} + cyclic, per coordinate triple, via the Leibniz rule
    {f, q} = sum_l (d f / d q_l) {q_l, q}, for any ``PoissonTable``: the
    sum of ``_jacobi_terms`` of the table against itself, the gradient of
    each entry taken once.  The Poisson-Jacobi check of an r-matrix reads
    the pair table instead (``poisson_jacobi_on_charts``)."""
    return _residuals(_jacobi_terms(*_leibniz_operands(table.terms)))


@cache
def _basis_operands(p):
    """``_leibniz_operands`` of the basis bracket S_p of the generator pair
    p = (a, b): taken once per pair, on first use, and shared read-only."""
    return tuple(map(MappingProxyType, _leibniz_operands(_basis_bracket(*p))))


@cache
def _jacobi_pair(p, q):
    """K_pq, the entry of the group's Jacobiator pair table for the
    generator pairs p = (a, b) <= q = (c, d), compared as tuples, as
    ``((triple, PolyExpr), ...)`` with the zero triples left out.  The
    Sklyanin bracket is linear in r, pi = sum_p r_p S_p, so its Jacobiator
    is the quadratic form sum_{p <= q} r_p r_q K_pq, where
    K_pp = J(S_p, S_p) and K_pq = J(S_p, S_q) + J(S_q, S_p)
    (``_jacobi_terms``).  It depends on the group alone, so each entry is
    built on first use, once per process, and shared; a tuple of immutable
    values, it is read-only."""
    (gp, sp), (gq, sq) = _basis_operands(p), _basis_operands(q)
    items = _jacobi_terms(gp, sq)
    if p != q:
        items = chain(items, _jacobi_terms(gq, sp))
    return tuple(sum_by_key(items).items())


def _jacobiator(r):
    """The Jacobiator of the Sklyanin bracket of ``r``, equal to
    ``poisson_jacobi(sklyanin_table(r))``, read off the pair table: each
    unordered pair {p, q} of r's terms, p = q included, adds r_p r_q K_pq
    (``_jacobi_pair``).  The parameters of r are constants of the
    coordinate derivatives only when none is named like a symbol of the
    coordinate ring, so such a name raises the ValueError of
    ``sklyanin_table``."""
    _check_parameter_names(r)
    names = r.algebra.names
    # r's terms by generator pair, so that p <= q in every pair below
    terms = sorted((((names[i], names[j]), cf)
                    for (i, j), cf in r.terms.items()),
                   key=lambda term: term[0])
    items = []
    for a, (p, cp) in enumerate(terms):
        for q, cq in terms[a:]:
            if img := _jacobi_pair(p, q):
                c = cp * cq
                items.extend((t, 1, c, v) for t, v in img)
    return _residuals(items)


@dataclass(frozen=True)
class JacobiFailure:
    """Where the Jacobi identity first fails: the chart's index, the
    coordinate triple and the leading term of its residual."""
    chart: int
    triple: tuple
    term: PolyExpr

    def __str__(self):
        return (f"chart {self.chart}, triple ({','.join(self.triple)}): "
                f"leading term {self.term}")


def poisson_jacobi_on_charts(r, charts):
    """The first failure of the Jacobi identity for the Sklyanin bracket of
    ``r`` over the charts (substitutions) of its constraint variety, in
    chart and triple order, or None when it holds on every chart.

    A chart binds parameters of ``r`` only, and its values bring in no
    symbol of the coordinate ring (``E``, ``h``, ``p``, ``k``, ``c``,
    ``m``): every packaged chart is such, and the tests hold them to it.
    Substituting it is then a ring map that commutes with the coordinate
    derivatives and products, so the Jacobiator of ``r`` is summed once
    from the group's pair table (``_jacobiator``; no Sklyanin table is
    built) and each chart is substituted into its residuals.  Raises the
    ValueError of ``sklyanin_table`` for a parameter of r named like a
    symbol of the coordinate ring."""
    residuals = _jacobiator(r)
    for n, chart in enumerate(charts):
        sub = substitution(chart)
        for triple, v in residuals.items():
            if v := sub(v):
                m, c = v.sorted_terms()[0]
                return JacobiFailure(n, triple, PolyExpr({m: c}))
    return None


def poisson_jacobi_check(r, charts):
    """``(ok, payload)`` of the Poisson-Jacobi check on the charts, as
    ``liebialg sklyanin`` and criterion 10 report it: the number of charts
    when the identity holds on all of them, else the first failure."""
    failure = poisson_jacobi_on_charts(r, charts)
    if failure is None:
        return True, f"{len(charts)} chart(s)"
    return False, str(failure)


def linear_part(f):
    """Split off the affine part of a coordinate function.

    Returns (constant, {coord: coefficient}) treating E = e^d as 1 + d at
    first order; coefficients may still involve free parameters.
    """
    items = []              # the key None collects the constant
    for mono, cf in f.terms.items():
        coords_present = [(nm, e) for nm, e in mono if nm in _COORD_VARS]
        e_exp = dict(mono).get("E", 0)
        par = tuple((nm, e) for nm, e in mono
                    if nm not in _COORD_VARS and nm != "E")
        pref = PolyExpr({par: cf})
        s = sum(e for _, e in coords_present)
        if s == 0:
            items.append((None, 1, pref))
            if e_exp:
                items.append(("d", e_exp, pref))
        elif s == 1:
            items.append((coords_present[0][0], 1, pref))
    sums = sum_by_key(items)
    return (sums.get(None, PolyExpr.zero()),
            {q: sums.get(q, PolyExpr.zero()) for q in COORDS})


def linearize_table(table):
    """Dual structure constants from the linear terms of the brackets.

    The coefficient of q_l in the linear part of {q_i, q_j} is the
    cocommutator coefficient of X_l on the wedge X_i ^ X_j (coordinates are
    paired with the generators they exponentiate).  Returns the resulting
    Cocommutator; raises if some bracket fails to vanish at the unit.
    """
    L = schrodinger.algebra()
    rows = {g: [] for g in L.names}
    for (x, y), v in table.terms.items():
        const, lin = linear_part(v)
        if const:
            raise ValueError(f"bracket {{{x},{y}}} does not vanish at the unit")
        for q, cf in lin.items():
            if cf:
                rows[COORD_TO_GEN[q]].append(
                    (cf, COORD_TO_GEN[x], COORD_TO_GEN[y]))
    return Cocommutator(L, [WedgeElement.from_pairs(L, rows[g])
                            for g in L.names])
