"""Lie algebras from structure constants; wedge and tensor calculus.

Elements, wedges and tensors carry PolyExpr coefficients so that everything
stays exact and may depend on free parameters.  All values are immutable.
"""

from __future__ import annotations

from itertools import (combinations, combinations_with_replacement,
                       permutations, product)
from types import MappingProxyType

from .symkernel import (PolyExpr, Q, ReadOnly, _Keyed, _accumulate, _q,
                        poly, nullspace, sum_by_key)

__all__ = [
    "LieAlgebra", "AlgElement", "WedgeElement", "TensorElement",
    "bracket", "jacobi_residual", "ad_tensor", "ad_images", "schouten",
    "basis_keys", "ad_matrix", "invariant_kernel", "invariant_tensors",
    "homomorphism_residuals", "push_wedge2",
]


_NO_TERMS = MappingProxyType({})


class LieAlgebra(ReadOnly):
    """Finite-dimensional Lie algebra presented by structure constants.

    Structure constants are entered for ordered generator pairs i < j only;
    antisymmetry fills in the rest.  The Jacobi identity is *not* imposed at
    construction -- validate with :func:`jacobi_residual`.  The ad action on
    the degree-2 and degree-3 bases is one table per algebra instance
    (:meth:`ad_table`), built on first use; so is any other value that
    depends on the algebra alone (:meth:`memo`).
    """

    __slots__ = ("names", "_sc", "_index", "_memo")

    def __init__(self, names, brackets):
        """``brackets`` maps (name_i, name_j) -> {name_k: rational coefficient}
        for generators appearing earlier,later in ``names``.  Missing pairs are
        zero (e.g. central generators need no entries).  The coefficients are
        stored in the kernel's canonical form (``symkernel._q``).  Like
        ``PolyExpr``, the algebra is read-only once built, so one instance
        can be shared by every caller.
        """
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        index = {g: i for i, g in enumerate(names)}
        sc = {}
        for (x, y), terms in brackets.items():
            i, j = index[x], index[y]
            if i == j:
                raise ValueError(f"bracket [{x},{x}] must not be declared")
            pair, sign = ((i, j), 1) if i < j else ((j, i), -1)
            if pair in sc:
                raise ValueError("duplicate bracket [%s,%s]"
                                 % (names[pair[0]], names[pair[1]]))
            sc[pair] = MappingProxyType({index[z]: _q(c) * sign
                                         for z, c in terms.items() if c})
        self._set(names=names, _index=index, _sc=MappingProxyType(sc),
                  _memo={})

    @property
    def dim(self):
        return len(self.names)

    def index(self, name):
        return self._index[name]

    def sc(self, i, j):
        """[X_i, X_j] as a mapping k -> canonical coefficient: read-only for
        i < j, a fresh dict otherwise."""
        if i < j:
            return self._sc.get((i, j), _NO_TERMS)
        return {k: -c for k, c in self._sc.get((j, i), _NO_TERMS).items()}

    def ad_table(self, degree, wedge):
        """The action of ad on the basis of the degree-``degree`` wedges
        (``wedge`` true) or tensors, for degree 2 or 3.

        One read-only mapping per generator X_g, from every basis key
        ``src`` (see :func:`basis_keys`) to the tuple ``((dst, c), ...)``
        with ad_{X_g} e_src = sum c e_dst by the Leibniz rule; the ``c``
        are canonical numbers, and the sums that cancel are dropped.  The
        table is built once per algebra instance and shared by every
        caller, so it is immutable: a tuple of ``MappingProxyType`` of
        tuples.
        """
        wedge = bool(wedge)
        return self.memo(("ad", degree, wedge),
                         lambda: self._build_ad_table(degree, wedge))

    def memo(self, key, build):
        """The value ``build()`` stored under ``key``: built on the first
        call for this algebra instance and shared by every later caller, so
        it must be immutable."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build()
        return value

    def _build_ad_table(self, degree, wedge):
        if degree not in (2, 3):
            raise ValueError(f"unsupported degree {degree}")
        keys = basis_keys(self.dim, degree, wedge)
        table = []
        for g in range(self.dim):
            rows = {}
            for src in keys:
                img = []
                for slot, j in enumerate(src):
                    for k, s in self.sc(g, j).items():
                        dst = src[:slot] + (k,) + src[slot + 1:]
                        if wedge:
                            dst, sign = _sort_tuple(dst)
                            if not sign:
                                continue
                            s = s * sign
                        img.append((dst, s))
                rows[src] = tuple(_accumulate({}, img).items())
            table.append(MappingProxyType(rows))
        return tuple(table)

    def gen(self, name):
        """Basis generator as an AlgElement."""
        return AlgElement(self, 1, {(self._index[name],): 1})

    def element(self, mapping):
        return AlgElement(self, 1, {(self._index[name],): c
                                    for name, c in mapping.items()})

    def __eq__(self, other):
        return self is other or (isinstance(other, LieAlgebra)
                                 and self.names == other.names
                                 and self._sc == other._sc)

    def __repr__(self):
        return f"LieAlgebra({', '.join(self.names)})"


def bracket(x, y):
    """Bilinear antisymmetric extension of the structure constants."""
    x._check(y)
    L = x.algebra
    return AlgElement(L, 1, sum_by_key(
        ((k,), s, ci, cj) for (i,), ci in x.terms.items()
        for (j,), cj in y.terms.items() for k, s in L.sc(i, j).items()))


def _structure_jacobiator(sc):
    """The Jacobiator of the structure constants ``sc``, {(i, j): {k:
    PolyExpr}} for i < j: {(i, j, k, m): PolyExpr}, the X_m coefficient of
    [[X_i,X_j],X_k] + cyclic for i < j < k, cancelled sums dropped.  Only
    products of two nonzero constants are visited."""
    partners = {}           # l -> [(c, s, row)]: [X_l,X_c] = s * row
    for (p, q), row in sc.items():
        partners.setdefault(p, []).append((q, 1, row))
        partners.setdefault(q, []).append((p, -1, row))
    items = []
    for (a, b), row in sc.items():
        for l, x in row.items():
            for c, s, lc in partners.get(l, ()):
                # [[X_a,X_b],X_c] is +- a cyclic term of the sorted triple
                if c > b:
                    t = (a, b, c)
                elif c < a:
                    t = (c, a, b)
                elif a < c < b:
                    t, s = (a, c, b), -s
                else:
                    continue
                for m, y in lc.items():
                    items.append((t + (m,), s, x, y))
    return sum_by_key(items)


def jacobi_residual(L):
    """The nonzero [[X_i,X_j],X_k] + cyclic, i<j<k, as ((name_i, name_j,
    name_k), AlgElement) pairs in triple order.  Empty means Lie algebra."""
    sc = {pair: {k: PolyExpr.const(c) for k, c in row.items()}
          for pair, row in L._sc.items()}
    per_triple = {}
    for (i, j, k, m), c in _structure_jacobiator(sc).items():
        per_triple.setdefault((i, j, k), {})[(m,)] = c
    return [(tuple(L.names[g] for g in t), AlgElement._trusted(L, 1, terms))
            for t, terms in sorted(per_triple.items())]


# ---------------------------------------------------------------------------
# keyed elements: algebra elements, wedges and tensors
# ---------------------------------------------------------------------------

def basis_keys(n, degree, wedge):
    """The basis keys of the degree-``degree`` wedges (``wedge`` true:
    strictly increasing index tuples) or tensors (all index tuples) over
    ``n`` generators, in lexicographic order."""
    if wedge:
        return list(combinations(range(n), degree))
    return list(product(range(n), repeat=degree))


def _sort_tuple(idx):
    """Sort an index tuple, returning (sorted, sign); sign 0 on repeats.
    The sign is the parity of the inversions of ``idx``."""
    key = tuple(sorted(idx))
    if len(set(key)) != len(key):
        return key, 0
    odd = sum(a > b for a, b in combinations(idx, 2)) % 2
    return key, -1 if odd else 1


class _Multilinear(_Keyed):
    """A degree-``degree`` tensor over ``algebra``, degree 1 an element:
    the keyed value (``symkernel._Keyed``) on index tuples, read-only like
    every attribute, so a value can be shared freely.  ``_sep`` joins the
    factors of a basis key when it is printed."""

    __slots__ = ("algebra", "degree")

    def __init__(self, algebra, degree, terms):
        self._set(algebra=algebra, degree=degree)
        super().__init__(terms)

    @classmethod
    def from_pairs(cls, algebra, pairs, degree=2):
        """Build from (coefficient, name, name[, name]) tuples."""
        return cls(algebra, degree, sum_by_key(
            (tuple(algebra.index(g) for g in gens), 1, poly(coeff))
            for coeff, *gens in pairs))

    @classmethod
    def _trusted(cls, algebra, degree, terms):
        """Wrap a ``sum_by_key`` result on canonical basis keys (sorted,
        repeat-free index tuples for a wedge), skipping the checks of
        ``__init__``, as ``PolyExpr._trusted`` does: ``terms`` is a fresh
        dict of nonzero PolyExpr coefficients."""
        t = object.__new__(cls)
        t._set(algebra=algebra, degree=degree, terms=MappingProxyType(terms))
        return t

    def _like(self, terms):
        return type(self)(self.algebra, self.degree, terms)

    def _check(self, other):
        if self.algebra != other.algebra:
            raise ValueError("elements of different algebras")

    def _combinable(self, other):
        if type(self) is not type(other) or self.degree != other.degree:
            raise ValueError("degree mismatch")
        self._check(other)

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.algebra.names
        return " + ".join(
            f"({self.terms[key]})*{self._sep.join(names[i] for i in key)}"
            for key in sorted(self.terms))

    __repr__ = __str__


class AlgElement(_Multilinear):
    """An element of a Lie algebra: the degree-1 keyed value, one key
    ``(i,)`` per generator X_i with a nonzero coefficient."""

    __slots__ = ()
    _sep = ""


class WedgeElement(_Multilinear):
    """Element of Lambda^2 g or Lambda^3 g on strictly increasing index tuples.

    The tensor normalization is X^Y = X(x)Y - Y(x)X (no 1/2), and for degree 3
    the full signed sum over permutations (no 1/6).
    """

    __slots__ = ()
    _sep = "^"

    def __init__(self, algebra, degree, terms):
        items = []
        for key, c in terms.items():
            key, sign = _sort_tuple(tuple(key))
            if sign:
                items.append((key, sign, poly(c)))
        super().__init__(algebra, degree, sum_by_key(items))

    def signed_coeff(self, gens):
        """Coefficient on an arbitrary-order wedge of named generators."""
        key, sign = _sort_tuple(tuple(self.algebra.index(g) for g in gens))
        if sign == 0:
            return PolyExpr.zero()
        c = self.coeff(key)
        return c if sign == 1 else -c

    def to_tensor(self):
        perms = [(perm, _sort_tuple(perm)[1])
                 for perm in permutations(range(self.degree))]
        return TensorElement(self.algebra, self.degree, sum_by_key(
            (tuple(key[t] for t in perm), sign, c)
            for key, c in self.terms.items() for perm, sign in perms))


class TensorElement(_Multilinear):
    """Element of g tensor g (degree 2) or g^(x)3 (degree 3)."""

    __slots__ = ()
    _sep = "(x)"


def ad_tensor(x, t):
    """Leibniz extension of ad_x to degree-2/3 tensors or wedges: the sum
    of x_g ad_images(t)[g] over the generators X_g of ``x``, an AlgElement
    or a generator name, whose image is returned as it is."""
    L = t.algebra
    if isinstance(x, str):
        return ad_images(t)[L.index(x)]
    x._check(t)
    images = ad_images(t)
    # the images' keys are canonical: sorted for a wedge
    return type(t)._trusted(L, t.degree, sum_by_key(
        (key, 1, cg, c) for (g,), cg in x.terms.items()
        for key, c in images[g].terms.items()))


def ad_images(t):
    """The images ad_{X_g} t of a degree-2/3 tensor or wedge ``t`` under
    every generator X_g of its algebra, in generator order, read off the
    algebra's ad table: one ``sum_by_key`` per generator, wrapped without
    the constructor's checks (the table's keys are canonical).  The one
    walk of the ad table: ``ad_tensor`` sums these images."""
    L = t.algebra
    is_wedge = isinstance(t, WedgeElement)
    cls = WedgeElement if is_wedge else TensorElement
    terms = t.terms.items()
    return [cls._trusted(L, t.degree, sum_by_key(
        (dst, s, c) for src, c in terms for dst, s in rows[src]))
        for rows in L.ad_table(t.degree, is_wedge)]


def _schouten_pairs(L):
    """The Schouten pair table of ``L``: ``table[p][q]``, for basis wedges
    ``p`` and ``q``, is the Lambda^3 image of the unordered pair {p, q} as
    ``((key, number), ...)``, the sums that cancel dropped; both orders
    share one tuple, and every level is read-only.

    For terms X_i^X_j (``p``) and X_k^X_l (``q``) the ordered pair (p, q)
    adds (1/2) times

        [X_i,X_k]^X_j^X_l - [X_i,X_l]^X_j^X_k
        - [X_j,X_k]^X_i^X_l + [X_j,X_l]^X_i^X_k

    to [[r,r]], scaled by the product of their coefficients, and by the
    antisymmetry of the bracket (q, p) adds the same: a pair p != q counts
    twice.
    """
    table = {p: {} for p in basis_keys(L.dim, 2, True)}
    for p, q in combinations_with_replacement(table, 2):
        (i, j), (k, l) = p, q
        h = Q(1, 2) if p == q else 1
        items = []
        for a, b, o1, o2, sgn in ((i, k, j, l, h), (i, l, j, k, -h),
                                  (j, k, i, l, -h), (j, l, i, k, h)):
            for m, s in L.sc(a, b).items():
                key, sign = _sort_tuple((m, o1, o2))
                if sign:
                    items.append((key, sign * sgn * s))
        table[p][q] = table[q][p] = tuple(_accumulate({}, items).items())
    return MappingProxyType({p: MappingProxyType(row)
                             for p, row in table.items()})


def schouten(r):
    """Schouten bracket [[r,r]] of a degree-2 wedge, as a degree-3 wedge.

    Read off the algebra's Schouten pair table (:func:`_schouten_pairs`,
    built once per algebra instance by ``LieAlgebra.memo``): each unordered
    pair {c_p X_p, c_q X_q} of r's terms, p = q included, adds c_p c_q
    times its image, one ``sum_by_key`` product item per image term.
    """
    L = r.algebra
    images = L.memo("schouten-pairs", lambda: _schouten_pairs(L))
    terms = list(r.terms.items())
    items = []
    for a, (p, cp) in enumerate(terms):
        for q, cq in terms[a:]:
            img = images[p][q]
            if img:
                items.extend((key, s, cp, cq) for key, s in img)
    # the pair table's keys are sorted wedge keys
    return WedgeElement._trusted(L, 3, sum_by_key(items))


def ad_matrix(L, degree, wedge):
    """The basis keys of the degree-``degree`` wedges (``wedge`` true) or
    tensors of ``L``, and the matrix of ad on them: the algebra's ad table
    stacked over its generators, one row per generator and target key in
    key order, one column per source key.  Exact numbers, no PolyExpr.

    Both are tuples built once per algebra instance (``LieAlgebra.memo``):
    the keys, and each row as ``((column, value), ...)`` with no zero
    entry, an empty tuple for a zero row.  A caller that eliminates hands
    the solver fresh ``dict(row)`` copies."""
    wedge = bool(wedge)
    return L.memo(("ad-matrix", degree, wedge),
                  lambda: _build_ad_matrix(L, degree, wedge))


def _build_ad_matrix(L, degree, wedge):
    keys = tuple(basis_keys(L.dim, degree, wedge))
    col = {k: c for c, k in enumerate(keys)}
    rows = []
    for per_gen in L.ad_table(degree, wedge):
        block = {k: {} for k in keys}
        for src, img in per_gen.items():
            for dst, s in img:
                block[dst][col[src]] = s
        rows.extend(tuple(row.items()) for row in block.values())
    return keys, tuple(rows)


def invariant_kernel(L, degree, wedge):
    """The ad-invariant degree-``degree`` wedges (``wedge`` true) or tensors
    of ``L``, as (basis keys, kernel vectors over those keys): the kernel of
    :func:`ad_matrix`, one vector per free column as ``nullspace`` gives
    them."""
    keys, rows = ad_matrix(L, degree, wedge)
    return keys, nullspace([dict(row) for row in rows], len(keys))


def invariant_tensors(L):
    """Basis of Ad-invariant degree-2 tensors: {t : ad_tensor(X_i,t)=0 for all i}."""
    keys, basis = invariant_kernel(L, 2, False)
    return [TensorElement(L, 2, {keys[c]: PolyExpr.const(v)
                                 for c, v in enumerate(vec) if v})
            for vec in basis]


def homomorphism_residuals(source, images):
    """The nonzero [phi X_i, phi X_j] - phi [X_i, X_j], i < j, as ((name_i,
    name_j), residual) pairs, for the linear map phi that sends generator i
    of ``source`` to ``images[i]``, an AlgElement of any one algebra (such
    as the values of a ``.map`` table).  Empty iff phi is a homomorphism."""
    if len(images) != source.dim:
        raise ValueError("need one image per generator")
    out = []
    for i, j in combinations(range(source.dim), 2):
        res = bracket(images[i], images[j])
        for k, c in source.sc(i, j).items():
            res = res - images[k].scale(c)
        if not res.is_zero():
            out.append(((source.names[i], source.names[j]), res))
    return out


def push_wedge2(w, images):
    """(phi^phi)(w) of a degree-2 wedge, for the linear map phi that sends
    generator i of ``w.algebra`` to ``images[i]``, an AlgElement of any one
    algebra (such as the values of a ``.map`` table): the wedge's algebra."""
    # WedgeElement folds (v, u) into (u, v) with its sign
    return WedgeElement(images[0].algebra, 2, sum_by_key(
        ((u, v), 1, c, cu * cv)
        for (p, q), c in w.terms.items()
        for (u,), cu in images[p].terms.items()
        for (v,), cv in images[q].terms.items() if u != v))
