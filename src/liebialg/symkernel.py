"""Exact arithmetic kernel: rationals, sparse Laurent polynomials, linear algebra.

Every value is immutable and every operation is a pure function, so the whole
module is safe to use concurrently without coordination.  Every coefficient
the kernel stores or returns is in one canonical form, made by ``_q``: an
``int`` when the value is integral, a ``fractions.Fraction`` only when it is
not, and never a ``float`` or a ``bool``.  Division is always exact; nothing
here ever rounds.  A symbol is named by a plain string and ``PolyExpr.var``
makes it.  Every value is a Laurent polynomial in every symbol, and a unit
is a single nonzero term: dividing by one, or raising one to a negative
power, always succeeds.  Which symbols an input may invert is a rule of
the input, checked where it is read (``formats``), not a property of the
value.

The hot operations keep only the shortcuts paired timings show paying
(ROADMAP, "Measured, and not candidates"), with no module-level cache: a
product with a zero or a number, a monomial product of names that do not
interleave, the power of a number bound by a substitution, and a value
met once or a scaled repeated key in ``sum_by_key``.  Set-up is done
once per call and kept no longer: a prepared ``substitution`` turns its
bindings to PolyExprs once and computes each bound power once for every
value it is applied to; ``rref`` eliminates on integer rows and divides
by a pivot only when it writes the result; ``span_equal`` eliminates once.

The exact linear algebra has one row format and one elimination loop.  A
row is a ``{column: value}`` dict of its entries, a column left out being
zero, and the row builders fill it directly.  ``_forward`` is the one
forward elimination: a rank is its pivot count, and ``rref`` is it followed
by back-substitution over the pivot rows, returning ``{pivot column:
row}``.  The results that callers keep are dense lists: kernel vectors,
``inverse`` and the ``span_equal`` witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

Q = Fraction

__all__ = [
    "Q", "ReadOnly", "PolyExpr", "UnitError", "poly", "substitution",
    "sum_by_key", "rref", "nullspace", "inverse", "solve_linear", "solve_for",
    "linear_system_from", "span_rank", "span_equal", "SpanWitness",
]


class UnitError(ValueError):
    """An exact quotient or negative power of a non-unit: a divisor, a base
    or a value bound into a negative power that is not one nonzero
    term."""


class ReadOnly:
    """Base of the values shared by every caller: attribute assignment and
    deletion raise AttributeError once the value is built.  A constructor
    sets its attributes once, through ``_set``."""

    __slots__ = ()

    def _set(self, **attrs):
        for name, value in attrs.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only; "
                             f"cannot change {name!r}")

    __delattr__ = __setattr__


def _q(c):
    """The canonical form of an exact coefficient: an ``int`` when ``c`` is
    integral, a ``Fraction`` only when it is not.  A ``bool`` becomes an
    ``int``; a ``float`` is refused, because nothing here rounds."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        if isinstance(c, float):
            raise TypeError(f"inexact coefficient {c!r}")
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


# A monomial is a tuple of (name, exponent) pairs, sorted by name, exponents nonzero.
_EMPTY = ()


def _accumulate(out, pairs):
    """The one keyed accumulator: add the ``(key, coefficient)`` ``pairs``
    into ``out`` and return it.  A sum that cancels is dropped, and so is a
    zero coefficient; a ``Fraction`` is stored as ``_q`` gives it, an
    ``int`` or a ``PolyExpr`` as it is.  ``out`` is changed in place, so it
    must be the caller's own dict, never a shared or cached one."""
    get = out.get
    for k, c in pairs:
        old = get(k)
        if old is not None:
            c = old + c
        if c:
            out[k] = _q(c) if c.__class__ is Fraction else c
        elif old is not None:
            del out[k]
    return out


def _mono_mul(m1, m2):
    if not m1 or not m2:
        return m2 or m1
    # names that do not interleave: the sorted pairs just concatenate
    if m1[-1][0] < m2[0][0]:
        return m1 + m2
    if m2[-1][0] < m1[0][0]:
        return m2 + m1
    out = dict(m1)
    for name, e in m2:
        ne = out.get(name, 0) + e
        if ne:
            out[name] = ne
        else:
            out.pop(name, None)
    return tuple(sorted(out.items()))


def _add_products(out, a, b, k):
    """Add ``k`` times the product of the terms dicts ``a`` and ``b`` into
    the caller's own dict ``out`` and return it: the one product loop, of
    ``PolyExpr`` ``*`` and ``sum_by_key``, summed inline (``_accumulate``
    would add a generator and a call per term)."""
    get = out.get
    b = b.items()
    for m1, c1 in a.items():
        if k != 1:
            c1 = c1 * k
        for m2, c2 in b:
            m = _mono_mul(m1, m2)
            c = c1 * c2
            old = get(m)
            if old is not None:
                c = old + c
            if c:
                out[m] = c if c.__class__ is int else _q(c)
            elif old is not None:
                del out[m]
    return out


def _mono_deg(m):
    return sum(e for _, e in m)


def _mono_key(m):
    # graded, then lexicographic on the (name, exponent) sequence
    return (_mono_deg(m), m)


class PolyExpr(ReadOnly):
    """Sparse Laurent polynomial over Q: any symbol may take a negative
    exponent, and a unit is a single nonzero term.

    ``terms`` is a read-only mapping from monomials to nonzero coefficients
    in the canonical form of ``_q`` (``int`` or non-integral ``Fraction``).
    It cannot be changed after construction, so a PolyExpr can be shared
    freely.  A constant, zero included, hashes as its number, which it
    compares equal to; the hash is computed on each call, not kept.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        clean = {}
        for m, c in terms.items():
            c = _q(c)
            if c:
                clean[m] = c
        self._set(terms=MappingProxyType(clean))

    @classmethod
    def _trusted(cls, terms):
        """Wrap a result built from valid operands, skipping the checks of
        ``__init__``: ``terms`` is a fresh dict of canonical monomials to
        nonzero canonical coefficients."""
        p = object.__new__(cls)
        _set_terms(p, MappingProxyType(terms))
        return p

    # -- construction ------------------------------------------------------
    @staticmethod
    def zero():
        """The one shared zero (it is immutable)."""
        return _ZERO

    @staticmethod
    def const(c):
        c = _q(c)
        return PolyExpr._trusted({_EMPTY: c}) if c else _ZERO

    @staticmethod
    def var(name):
        """The symbol ``name``."""
        return PolyExpr._trusted({((name, 1),): 1})

    def names(self):
        out = set()
        for m in self.terms:
            for name, _ in m:
                out.add(name)
        return out

    # -- predicates / access -------------------------------------------------
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_const(self):
        return not self.terms or (len(self.terms) == 1 and _EMPTY in self.terms)

    def const_value(self):
        if not self.is_const():
            raise ValueError("not a constant: %s" % self)
        return self.terms.get(_EMPTY, 0)

    def constant_term(self):
        return self.terms.get(_EMPTY, 0)

    def as_unit(self):
        """Return (coeff, mono) if this is a unit: one nonzero term."""
        if len(self.terms) != 1:
            return None
        (m, c), = self.terms.items()
        return (c, m)

    # -- arithmetic ----------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, PolyExpr):
            return other
        if isinstance(other, (int, Fraction)):
            return PolyExpr.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return PolyExpr._trusted(
            _accumulate(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return PolyExpr._trusted({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is not PolyExpr:
            if isinstance(other, (int, Fraction)):
                return self._scaled(_q(other))
            if not isinstance(other, PolyExpr):
                return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return _ZERO
        return PolyExpr._trusted(_add_products({}, a, b, 1))

    __rmul__ = __mul__

    def _scaled(self, k):
        """``k * self``, for a canonical number ``k``."""
        if not k:
            return _ZERO
        return PolyExpr._trusted({m: _q(c * k) for m, c in self.terms.items()})

    def __truediv__(self, other):
        """Divide by a unit, a single nonzero term; the quotient is exact."""
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        unit = other.as_unit()
        if unit is None:
            raise UnitError("division only by single-term divisors")
        c, m = unit
        m = tuple((name, -e) for name, e in m)
        # multiplying by one monomial maps distinct monomials to distinct ones
        return PolyExpr._trusted({_mono_mul(mono, m): _q(Fraction(k, c))
                                  for mono, k in self.terms.items()})

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            unit = self.as_unit()
            if unit is None:
                raise UnitError("negative power of a non-unit")
            c, m = unit
            inverse = PolyExpr({tuple((nm, -e) for nm, e in m):
                                Fraction(1, c)})
            return inverse ** -n
        result = PolyExpr.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- structural ops --------------------------------------------------------
    def substitute(self, bindings):
        """Replace symbols by expressions: ``substitution(bindings)(self)``.
        ``bindings`` maps names to PolyExpr / Fraction / int, or is a
        prepared ``substitution``; names absent from the expression are
        ignored.  Substituting into a negative power requires the bound
        value to be a unit (one nonzero term)."""
        return substitution(bindings)(self)

    def derivative(self, name):
        out = {}
        for m, c in self.terms.items():
            d = dict(m)
            e = d.get(name, 0)
            if e == 0:
                continue
            if e == 1:
                d.pop(name)
            else:
                d[name] = e - 1
            # lowering one exponent maps distinct monomials to distinct ones
            out[tuple(sorted(d.items()))] = _q(c * e)
        return PolyExpr._trusted(out)

    def truncate_degree(self, n):
        """Drop monomials of total degree > n."""
        return PolyExpr._trusted(
            {m: c for m, c in self.terms.items() if _mono_deg(m) <= n})

    def monic(self):
        """Scale so the leading coefficient (canonical order) is 1."""
        if not self.terms:
            return self
        lead = self.terms[max(self.terms, key=_mono_key)]
        if lead == 1:
            return self
        return PolyExpr._trusted(
            {m: _q(Fraction(c, lead)) for m, c in self.terms.items()})

    # -- comparison / output -----------------------------------------------------
    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        terms = self.terms
        if not terms or (len(terms) == 1 and _EMPTY in terms):
            return hash(terms.get(_EMPTY, 0))   # as the number it equals
        return hash(frozenset(terms.items()))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _mono_key(t[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            factors = []
            if abs(c) != 1 or not m:
                factors.append(str(abs(c)))
            for name, e in m:
                factors.append(name if e == 1 else f"{name}^{e}")
            s = "*".join(factors)
            if not parts:
                parts.append(s if c > 0 else "-" + s)
            else:
                parts.append(("+ " if c > 0 else "- ") + s)
        return " ".join(parts)

    def __repr__(self):
        return f"PolyExpr({self})"


# the slot descriptor, so that ``_trusted`` fills the slot without going
# through the refusing ``__setattr__``
_set_terms = PolyExpr.terms.__set__
_ZERO = PolyExpr._trusted({})


def poly(value):
    """Coerce ints/Fractions/PolyExpr to PolyExpr."""
    if isinstance(value, PolyExpr):
        return value
    return PolyExpr.const(value)


class _Substitution:
    """A prepared substitution: the bindings turned to PolyExprs once, and
    each bound power ``val ** e`` computed once, on first use, for every
    value it is applied to.  A caller that applies one dict to many values
    prepares it once with ``substitution`` and drops it after; nothing
    outlives that."""

    __slots__ = ("binds", "powers")

    def __init__(self, bindings):
        self.binds = {name: poly(val) for name, val in bindings.items()}
        self.powers = {}

    def __contains__(self, name):
        return name in self.binds

    def _power(self, name, e):
        """``val ** e``, a number when the bound value is a constant, kept
        in ``powers``."""
        val = self.binds[name]
        if e < 0 and val.as_unit() is None:
            raise UnitError(f"{name!r} occurs with negative power; "
                            f"binding {val} is not a unit")
        if val.is_const():
            p = _q(Fraction(val.constant_term()) ** e)
        else:
            p = val ** e
        self.powers[(name, e)] = p
        return p

    def __call__(self, value):
        """The PolyExpr ``value`` with the bound symbols replaced; a value
        with no bound symbol is returned as it is.  One pass over the
        terms: the unbound factors of a monomial stay one monomial, and the
        power of a number scales the coefficient instead of being
        multiplied in."""
        binds, powers = self.binds, self.powers
        if binds.keys().isdisjoint([name for m in value.terms
                                    for name, _ in m]):
            return value
        out = {}
        for m, c in value.terms.items():
            rest, factors = [], []
            for name, e in m:
                if name not in binds:
                    rest.append((name, e))
                    continue
                p = powers.get((name, e))
                if p is None:
                    p = self._power(name, e)
                if p.__class__ is PolyExpr:
                    factors.append(p)
                else:
                    c = _q(c * p)
            term = PolyExpr._trusted({tuple(rest): c} if c else {})
            for p in factors:
                term = term * p
            _accumulate(out, term.terms.items())
        return PolyExpr._trusted(out)


def substitution(bindings):
    """The prepared substitution of ``bindings`` (a ``{name: value}`` dict,
    or a prepared substitution, returned as it is): a callable from
    PolyExpr to PolyExpr, ``name in`` it for a bound name.  Each
    ``substitute`` method takes either form, so a caller that substitutes
    one dict into many values prepares it once."""
    if isinstance(bindings, _Substitution):
        return bindings
    return _Substitution(bindings)


def sum_by_key(items):
    """``{key: PolyExpr}``: for each key, the sum of ``k * p`` over the
    ``(key, k, p)`` items and of ``k * p * q`` over the product items
    ``(key, k, p, q)``, ``k`` a number and ``p``, ``q`` PolyExprs, in the
    order the keys first appear; the sums that cancel are dropped.

    A key met once with ``(key, k, p)`` keeps ``k * p`` itself.  Every
    other sum is built in place in one terms dict and wrapped once, each
    ``p`` scaled by ``k`` as it is added and each product added by
    ``_add_products``, so no intermediate PolyExpr is made.
    """
    acc = {}
    for item in items:
        if len(item) == 4:
            key, k, p, q = item
            out = acc.get(key)
            if out is None:
                out = acc[key] = {}
            elif out.__class__ is PolyExpr:
                out = acc[key] = dict(out.terms)
            _add_products(out, p.terms, q.terms, k)
            continue
        key, k, p = item
        old = acc.get(key)
        if old is None:
            acc[key] = p if k == 1 else p._scaled(k)
            continue
        if old.__class__ is PolyExpr:
            old = acc[key] = dict(old.terms)
        _accumulate(old, p.terms.items() if k == 1 else
                    ((m, c * k) for m, c in p.terms.items()))
    out = {}
    for key, v in acc.items():
        if v.__class__ is not PolyExpr:
            v = PolyExpr._trusted(v)
        if v.terms:
            out[key] = v
    return out


class _Keyed(ReadOnly):
    """The linear arithmetic of every keyed value, each sum one
    ``sum_by_key``: ``terms`` maps keys to nonzero PolyExpr coefficients,
    read-only, and a key it lacks has coefficient 0.  A subclass's
    constructor checks each key; ``_like(terms)`` builds a value of the
    same kind and space, and ``_combinable(other)`` raises ValueError for
    an operand of another kind."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        clean = {}
        for key, c in terms.items():
            c = poly(c)
            if c:
                clean[key] = c
        self._set(terms=MappingProxyType(clean))

    def _like(self, terms):
        return type(self)(terms)

    def _combinable(self, other):
        if type(self) is not type(other):
            raise ValueError(f"cannot combine {type(self).__name__} "
                             f"with {type(other).__name__}")

    def coeff(self, key):
        return self.terms.get(key, _ZERO)

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        try:
            self._combinable(other)
        except ValueError:
            return False
        return self.terms == other.terms

    def _sum(self, other, sign):
        """``self + sign * other``."""
        self._combinable(other)
        return self._like(sum_by_key(
            (key, k, c) for k, t in ((1, self), (sign, other))
            for key, c in t.terms.items()))

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, s):
        s = poly(s)
        return self._like({key: s * c for key, c in self.terms.items()})

    def map_coeffs(self, fn):
        return self._like({key: fn(c) for key, c in self.terms.items()})

    def substitute(self, bindings):
        return self.map_coeffs(substitution(bindings))


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------

def _int_row(row):
    """The content-normalised integer row of a ``{column: value}`` row:
    ``{column: int}`` of its nonzero entries, scaled by the lcm of their
    denominators and divided by the gcd of the result.  A zero value (a
    builder's sum that cancelled) is dropped, so it never becomes a
    pivot."""
    vec = {}
    den = 1
    for j, v in row.items():
        if v:
            if v.__class__ is not int:
                v = _q(v)
                if v.__class__ is Fraction:
                    den = lcm(den, v.denominator)
            vec[j] = v
    if den != 1:
        vec = {j: v * den if v.__class__ is int
               else v.numerator * (den // v.denominator)
               for j, v in vec.items()}
    return _primitive(vec)


def _primitive(vec):
    """An integer row divided by the gcd of its entries."""
    g = gcd(*vec.values())
    if g > 1:
        return {j: v // g for j, v in vec.items()}
    return vec


def _cancel(a, b, c):
    """``(b[c]/g) a - (a[c]/g) b``, with g = gcd(a[c], b[c]): the integer
    combination of the rows ``a`` and ``b`` that is 0 in column ``c``."""
    x, y = a[c], b[c]
    g = gcd(x, y)
    if g != 1:
        x, y = x // g, y // g
    out = dict(a) if y == 1 else {j: v * y for j, v in a.items()}
    get = out.get
    for j, v in b.items():
        v = get(j, 0) - x * v
        if v:
            out[j] = v
        else:
            del out[j]
    return out


def _forward(rows):
    """Forward elimination of ``{column: value}`` rows: ``{pivot column:
    integer row}``, each an ``_int_row`` whose lowest column is its pivot.
    A row is cancelled at its lowest column by the pivot row there
    (``_cancel``) until that column is no pivot yet or nothing is left."""
    pivots = {}
    for row in rows:
        vec = _int_row(row)
        while vec:
            c = min(vec)
            prow = pivots.get(c)
            if prow is None:
                pivots[c] = vec
                break
            vec = _primitive(_cancel(vec, prow, c))
    return pivots


def _rank(rows):
    """The rank of ``{column: value}`` rows: the pivot count of
    ``_forward``, with no back-substitution."""
    return len(_forward(rows))


def rref(rows):
    """Reduced row echelon form over Q by sparse Gauss-Jordan elimination.

    Accepts an iterable of ``{column: value}`` rows of Fraction/int, a
    column left out (or a zero value) being a zero entry; returns
    ``{pivot column: row}`` in ascending pivot column, each row a
    ``{column: value}`` dict of its nonzero canonical coefficients, 1 at
    its pivot.  No zero row is returned.

    One forward elimination (``_forward``) on content-normalised integer
    rows, then back-substitution: from the highest pivot down, each pivot
    row is cleared in the higher pivot columns by the rows there, which are
    already reduced, by integer cross-multiples (``_cancel``).  Only when a
    pivot row is written out is it divided by its pivot entry, each
    quotient an ``int`` when it is integral.  The reduced row echelon form
    of a matrix is unique, so the result does not depend on the order of
    the rows or of the elimination.
    """
    pivots = _forward(rows)
    cols = sorted(pivots)
    for c in reversed(cols):
        # a reduced pivot row is zero in every other pivot column, so
        # cancelling one never brings another pivot column back
        hits = [pc for pc in pivots[c] if pc != c and pc in pivots]
        if hits:
            vec = pivots[c]
            for pc in hits:
                vec = _cancel(vec, pivots[pc], pc)
            pivots[c] = _primitive(vec)
    red = {}
    for c in cols:
        prow, p = pivots[c], pivots[c][c]
        red[c] = {j: v // p if v % p == 0 else Fraction(v, p)
                  for j, v in prow.items()}
    return red


def _kernel(red, n):
    """Kernel basis of the first ``n`` columns of an rref ``red``, and the
    free columns among them: one dense basis vector per free column, in
    ascending order, with that coordinate 1 and, at each pivot, minus the
    pivot row's entry in the free column."""
    basis = {fc: [0] * n for fc in range(n) if fc not in red}
    for fc, vec in basis.items():
        vec[fc] = 1
    for pc, row in red.items():
        for j, v in row.items():
            if j in basis:
                basis[j][pc] = -v
    return list(basis.values()), list(basis)


def nullspace(rows, n):
    """Exact kernel basis of ``{column: value}`` rows in ``n`` unknowns.

    Basis vectors are dense, one per free column, in ascending column
    order, normalized so the free coordinate is 1.
    """
    return _kernel(rref(rows), n)[0]


def inverse(mat):
    """Exact inverse of a square matrix over Q, given and returned as dense
    rows, via the rref of ``[A | I]``."""
    n = len(mat)
    red = rref({**{j: v for j, v in enumerate(row) if v}, n + i: 1}
               for i, row in enumerate(mat))
    if any(c >= n for c in red):
        raise ValueError("singular matrix")
    return [[row.get(n + j, 0) for j in range(n)] for row in red.values()]


def solve_linear(a_rows, rhs, n):
    """Solve ``A x = b`` for a rational matrix A, given as ``{column: value}``
    rows in ``n`` unknowns, and a PolyExpr right side b.

    Returns (particular, null_basis, conditions, free_cols).  ``particular``
    is the solution with every free unknown set to zero, each entry a
    PolyExpr in the symbols of b; ``null_basis`` spans the kernel of A, one
    vector per free column of ``free_cols``.  ``conditions`` are the
    combinations of b that must vanish for a solution to exist.

    One rref of ``[A | C]``, where C holds the coefficients of b on its
    monomials in descending canonical order: a pivot row in A gives a
    ``particular`` entry, and a pivot row in C a condition, monic on its
    leading monomial, which no ``particular`` entry then contains.  The rref
    is unique, so the result depends only on the row space of ``[A | C]``,
    not on the order of the equations.
    """
    b = [poly(v) for v in rhs]
    col = {m: n + j for j, m in enumerate(_monomials(b)[::-1])}
    red = rref({**row, **{col[m]: c for m, c in p.terms.items()}}
               for row, p in zip(a_rows, b))
    null_basis, free_cols = _kernel(red, n)
    particular = [PolyExpr.zero()] * n
    conditions = []
    for pc, row in red.items():
        val = PolyExpr._trusted({m: row[j] for m, j in col.items()
                                 if j in row})
        if pc < n:
            particular[pc] = val
        else:
            conditions.append(val)
    return particular, null_basis, conditions, free_cols


def linear_system_from(polys, unknowns):
    """Extract ``A x + rest = 0`` from polynomials linear in ``unknowns``.

    Each polynomial must be degree <= 1 in the unknown names, with rational
    coefficients multiplying them.  Returns (rows, rest): one row per
    polynomial, ``{column: coefficient}`` over the unknowns' positions, and
    rest the unknown-free remainder of each polynomial.
    """
    index = {u: i for i, u in enumerate(unknowns)}
    rows, rest = [], []
    for p in polys:
        row, rem = {}, {}
        for m, c in p.terms.items():
            hits = [(name, e) for name, e in m if name in index]
            if not hits:
                rem[m] = c
                continue
            if len(hits) > 1 or hits[0][1] != 1:
                raise ValueError(f"polynomial is not linear in unknowns: {p}")
            others = tuple(t for t in m if t[0] not in index)
            if others:
                raise ValueError(
                    f"unknown {hits[0][0]!r} has non-constant coefficient in {p}")
            # an unknown alone is one monomial, so each column is set once
            row[index[hits[0][0]]] = c
        rows.append(row)
        rest.append(PolyExpr._trusted(rem))
    return rows, rest


def solve_for(polys, unknowns):
    """Solve ``polys == 0`` for ``unknowns``, each polynomial linear in them.

    Returns (bindings, conditions): ``bindings`` maps every pivot unknown to
    a PolyExpr in the free unknowns and the remaining symbols, and
    ``conditions`` lists the unknown-free combinations that must vanish for
    the system to be solvable.
    """
    unknowns = list(unknowns)
    rows, rest = linear_system_from(polys, unknowns)
    particular, null_basis, conditions, free_cols = solve_linear(
        rows, [-p for p in rest], len(unknowns))
    bindings = {}
    for pc, val in enumerate(particular):
        if pc in free_cols:
            continue
        for fc, vec in zip(free_cols, null_basis):
            if vec[pc]:
                val = val + PolyExpr.var(unknowns[fc]) * vec[pc]
        bindings[unknowns[pc]] = val
    return bindings, conditions


# ---------------------------------------------------------------------------
# linear span comparison of polynomial sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpanWitness:
    equal: bool
    a_in_b: tuple | None     # coefficient rows expressing each A member in B


def _monomials(polys):
    return sorted({m for p in polys for m in p.terms}, key=_mono_key)


def span_equal(set_a, set_b):
    """Decide Q-linear span equality of two polynomial lists, with witness.

    One rref of the columns ``[B | A]``, one row per monomial: a pivot in an
    A column puts that member outside span(B).  Otherwise A = B_piv X,
    where B_piv are the pivot members of B, independent, and X is the A
    block of the pivot rows; so rank(A) = rank(X), read off those at most
    rank(B) rows without a second elimination over the monomials, and the
    spans are equal exactly when it is the pivot count.  ``a_in_b`` (None
    when A is not inside span(B)) writes each A member in B, free B
    coordinates 0.
    """
    set_a = [poly(p) for p in set_a]
    set_b = [poly(p) for p in set_b]
    nb = len(set_b)
    rows = {}                   # monomial -> each member's coefficient on it
    for k, p in enumerate(set_b + set_a):
        for m, c in p.terms.items():
            rows.setdefault(m, {})[k] = c
    red = rref(rows.values())
    if any(pc >= nb for pc in red):
        return SpanWitness(False, None)
    x = [{j: v for j, v in row.items() if j >= nb} for row in red.values()]
    a_in_b = [[0] * nb for _ in set_a]
    for pc, xrow in zip(red, x):
        for j, v in xrow.items():
            a_in_b[j - nb][pc] = v
    return SpanWitness(_rank(x) == len(red),
                       tuple(tuple(row) for row in a_in_b))


def span_rank(polys):
    """Dimension of the Q-linear span of a polynomial list: the rank of
    its coefficient rows, one column per monomial in the order first met
    (a rank does not depend on the column order), by ``_rank``."""
    index = {}
    return _rank({index.setdefault(m, len(index)): c
                  for m, c in poly(p).terms.items()} for p in polys)
