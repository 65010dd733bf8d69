"""Order-N verification of quantum deformations: PBW rewriting, coproducts,
Hopf axioms, antipodes and universal R-matrices.

Series are flat truncated graded series: a dict ``{(key, code): coefficient}``.
``key`` is a normal-ordered word (a non-decreasing tuple of generator
indices) or, in a tensor square or cube, a tuple of such words, normal
ordered factorwise.  ``code`` is an int, the algebra's number for a monomial
over its deformation ``symbols``.  Each algebra numbers its monomials of
degree <= N once, in graded order, so a term's deformation degree, which
never exceeds the order N, is read off its code, and the code of a product
of two monomials is one lookup by two small ints.  A product groups each
factor's terms by key once, visits only the pairs of key groups whose
lowest degrees sum to at most N, and expands each in nested loops that stop
at the first term past N; a private cut ``top`` below N stops it earlier,
for the antipode's degree-by-degree solve.  A product adds its terms in
place into the caller's own dict, so a difference of two products is one
signed sum; linear maps and sums are generators fed to the one keyed
accumulator ``symkernel._accumulate``, which drops what cancels, as the
product's in-place sum does.  ``nf_word`` returns an immutable tuple of
``(word, code, degree, coefficient)`` in ascending degree and is
memoised.  It is a right fold of one memoised insertion X_g m of a
generator into a sorted word: for m = X_h rest with h < g, X_g m =
X_h (X_g rest) + [X_g, X_h] rest.  So the algebra keeps the words it was
asked for and the insertions, not every word that rewriting passes through.
Its third memo, the pair table, maps two keys a product has met to the
normal forms of their concatenated words (one per leg of a tensor key):
references to the ``nf_word`` tuples, not new terms.

A case is its data, with R one tensor-square series in written order, and
``HopfCase.substitute`` is its one transform.  The registry builds both
cases on one code path, every exponential e^{cX} (relations, coproduct
legs, R's factors) from the one helper ``_exp``.  ``build_case`` returns one
shared case per (name, order) per process, so criterion 11, criterion 12
and ``hopf-check`` reuse its memos of normal forms, insertions and
Delta(word), and its table of key pairs.  Only those memos are shared:
every check, residual and antipode is computed afresh on each call.

Coefficients are degree-scaled: a term c a^exps is stored as the number
c K^sum(exps), with one constant K = (N+1)! per algebra.  That is the change
of variables a -> K u, which keeps the grading, so products, sums, degree
truncation and ``deformation_slice`` commute with it and no series operation
knows about K.  It clears the 1/t! of the exponentials, so every stored
coefficient of the registered cases is an ``int``; a value that still is not
integral stays an exact ``Fraction`` in the kernel's canonical form (see
``symkernel._q``), and exactness never depends on K.

The public boundary speaks PolyExpr: the constructor takes ``{word: PolyExpr}``
relations, and ``relations``, ``HopfCase.coproduct``, ``HopfCase.r`` and the
dicts the five checks return are ``{key: PolyExpr}``.  ``from_poly`` and
``to_poly`` encode and decode the monomial codes and multiply and divide by
K^degree at that boundary; inside it no series holds an exponent tuple.
The three tables are read-only: the checks read the flat copies made from
them once, so a change to them would not reach the checks.

R exists only where the symbols of ``HopfCase.nonstandard_limit`` are 0;
``universal_r_check`` puts R in normal order on each call, in the case's
own algebra, and drops the terms that carry them (``_drop_zeroed``).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import combinations
from math import factorial
from operator import add, index
from types import MappingProxyType

from .symkernel import (PolyExpr, Q, ReadOnly, _accumulate, _q, poly,
                        substitution)
from .liealg import LieAlgebra, WedgeElement
from .bialgebra import delta_from_r
from . import families, schrodinger

__all__ = [
    "DeformedAlgebra", "HopfCase", "MalformedAlgebraError", "build_case",
    "CASE_NAMES", "diamond_check", "hopf_axiom_residuals", "antipode_solve",
    "first_order_check", "universal_r_check", "hopf_checks",
]

_ONE = 1


class MalformedAlgebraError(ValueError):
    """A relation table the algebra cannot use: a key that is no generator
    pair j > i, or a right side that is not in normal form."""


def _is_sorted(word):
    return all(word[t] <= word[t + 1] for t in range(len(word) - 1))


def _terms(s, deg):
    """``(key, code, degree, coefficient)`` terms of a flat series, each
    degree read off its monomial code in ``deg``; an ``nf_word`` tuple
    already has this form."""
    if isinstance(s, tuple):
        return s
    return [(k, e, deg[e], c) for (k, e), c in s.items()]


def _by_key(s, deg, scale=1):
    """``{key: [lowest degree, [(code, degree, coeff), ...]]}`` of ``scale``
    times a series."""
    out = {}
    for k, e, d, c in _terms(s, deg):
        group = out.setdefault(k, [d, []])
        group[1].append((e, d, c if scale == 1 else scale * c))
        if d < group[0]:
            group[0] = d
    return out


def _ascending(s, deg):
    """The terms of a series as a tuple in ascending degree, the form
    ``nf_word`` returns."""
    return tuple(sorted(_terms(s, deg), key=lambda t: t[2]))


def _read_only(table):
    """A read-only copy of a ``{key: {key: PolyExpr}}`` table."""
    return MappingProxyType({k: MappingProxyType(dict(v))
                             for k, v in table.items()})


class DeformedAlgebra(ReadOnly):
    """Generators with deformed commutation relations, truncated at order N.

    ``relations[(j, i)]`` for generator indices j > i holds X_j X_i - X_i X_j
    as a normal-ordered ``{word: PolyExpr}`` series; missing pairs commute.
    A key that is no such pair, or a right-side word that is unsorted or
    names no generator, raises ``MalformedAlgebraError`` before any memo
    exists.  The monomials of degree <= N in the deformation symbols are
    numbered once, in graded order: ``_exps[code]`` is a monomial's exponent
    tuple and ``_codes`` its inverse, ``_deg[code]`` its degree, and
    ``_emul[c1][c2]`` the code of a product, listed only up to degree N.
    Series carry codes alone; the exponents are read by ``from_poly`` and
    ``to_poly``, and by ``_drop_zeroed`` to find the codes that carry a
    symbol.  The zeroth deformation order of the table must reproduce a Lie
    algebra bracket, for the registered cases the packaged one (see
    ``classical_algebra`` and
    ``test_degree_zero_relations_are_the_schrodinger_bracket``).  No
    attribute can be replaced once the algebra is built; only the memos of
    normal forms (``_nf_cache``, per word asked for), of insertions
    (``_inserts``) and of key pairs (``_pairs``, ``{k1: {k2: (f1, f2,
    f3)}}``, the normal forms of the concatenated words, ``None`` past the
    key's legs) grow, and the values they hold are tuples.
    """

    def __init__(self, names, relations, deformation_symbols, order):
        names, order = tuple(names), int(order)
        if order < 0:
            raise ValueError("order must be >= 0")
        symbols = tuple(deformation_symbols)
        scale = factorial(order + 1)
        monos = [()]
        for _ in symbols:
            monos = [m + (e,) for m in monos
                     for e in range(order + 1 - sum(m))]
        # a monomial's code is its index in graded order
        exps = sorted(monos, key=sum)
        deg = tuple(map(sum, exps))
        codes = {e: c for c, e in enumerate(exps)}
        # the code of the product of two monomials, listed only where its
        # degree is at most N: the codes of degree <= N - d1 come first, so
        # a row is indexed by code
        emul = tuple(tuple(codes[tuple(map(add, e1, e2))]
                           for e2, d2 in zip(exps, deg) if d1 + d2 <= order)
                     for e1, d1 in zip(exps, deg))
        self._set(names=names, n=len(names), order=order, symbols=symbols,
                  _kpow=[scale ** d for d in range(order + 1)], _unit=0,
                  _exps=tuple(exps), _codes=codes, _deg=deg, _emul=emul)
        rels = {}
        for (j, i), series in relations.items():
            if not 0 <= i < j < len(names):
                raise MalformedAlgebraError(
                    f"relation key {(j, i)} is no generator pair j > i "
                    f"of {len(names)} generators")
            flat = self.from_poly(series)
            for w, _ in flat:
                if not all(0 <= x < len(names) for x in w):
                    raise MalformedAlgebraError(
                        f"relation [{names[j]},{names[i]}] right side "
                        f"word {w} names no generator of {len(names)}")
                if not _is_sorted(w):
                    raise MalformedAlgebraError(
                        f"relation [{names[j]},{names[i]}] "
                        f"right side contains unordered word {w}")
            rels[(j, i)] = flat
        self._set(_rels=rels,
                  relations=_read_only({k: self.to_poly(f)
                                        for k, f in rels.items()}),
                  _rules={k: [(u, cs) for u, (_, cs)
                              in _by_key(f, deg).items()]
                          for k, f in rels.items()},
                  _nf_cache={}, _inserts={}, _pairs={})

    # -- boundary ------------------------------------------------------------
    def from_poly(self, series):
        """Flat series of a ``{key: PolyExpr}`` series, truncated at order N,
        each coefficient times K^degree.

        Raises ValueError on a symbol outside ``symbols`` or a negative power.
        """
        pos = {s: t for t, s in enumerate(self.symbols)}
        kpow, codes, deg = self._kpow, self._codes, self._deg
        out = {}
        for key, c in series.items():
            for mono, q in poly(c).terms.items():
                exps = [0] * len(pos)
                for name, e in mono:
                    if name not in pos or e < 0:
                        raise ValueError(
                            f"{name}^{e} is not a monomial in the deformation "
                            f"symbols {self.symbols}")
                    exps[pos[name]] = e
                code = codes.get(tuple(exps))     # None past order N
                if code is not None:
                    out[(tuple(key), code)] = _q(q * kpow[deg[code]])
        return out

    def to_poly(self, s):
        """``{key: PolyExpr}`` view of a flat series or an ``nf_word`` tuple,
        each coefficient divided by K^degree."""
        out = {}
        kpow = self._kpow
        for k, e, d, c in _terms(s, self._deg):
            mono = tuple(sorted((name, x) for name, x
                                in zip(self.symbols, self._exps[e]) if x))
            out.setdefault(k, {})[mono] = Fraction(c, kpow[d]) if d else c
        return {k: PolyExpr(terms) for k, terms in out.items()}

    # -- series plumbing ---------------------------------------------------
    @staticmethod
    def add(s1, s2, scale=1):
        return _accumulate(dict(s1), ((k, scale * c) for k, c in s2.items()))

    @staticmethod
    def sub(s1, s2):
        return DeformedAlgebra.add(s1, s2, -1)

    def term(self, key):
        """The series ``key`` with coefficient 1."""
        return {(key, self._unit): _ONE}

    def one(self):
        return self.term(())

    def one_tensor(self):
        return self.term(((), ()))

    # -- rewriting -----------------------------------------------------------
    def nf_word(self, word):
        """Normal form of a single word: the right fold
        X_w0 (X_w1 (... (X_wk 1))) of ``_insert``; memoised."""
        word = tuple(word)
        cached = self._nf_cache.get(word)
        if cached is None:
            cached = self._nf_cache[word] = self._left_mul(word, ())
        return cached

    def _left_mul(self, word, m):
        """Normal form of ``word`` times the sorted word ``m``: one
        ``_insert`` per letter of ``word``, right to left."""
        terms = ((m, self._unit, 0, _ONE),)
        for g in reversed(word):
            if len(terms) == 1 and terms[0][2] == 0 and terms[0][3] == 1:
                terms = self._insert(g, terms[0][0])    # a bare word
            else:
                terms = tuple(_terms(self.linear(terms,
                                                 partial(self._insert, g)),
                                     self._deg))
        return _ascending(terms, self._deg)

    def _insert(self, g, m):
        """Normal form of X_g m for a sorted word m.  For m = X_h rest with
        h < g, X_g m = X_h (X_g rest) + [X_g, X_h] rest; memoised per
        (g, m)."""
        if not m or g <= m[0]:
            return (((g,) + m, self._unit, 0, _ONE),)
        out = self._inserts.get((g, m))
        if out is None:
            h, rest = m[0], m[1:]
            N, emul = self.order, self._emul
            parts = [((w, e), c) for w, e, _, c
                     in self._left_mul((h, g), rest)]
            for u, coeffs in self._rules.get((g, h), ()):
                terms = self._left_mul(u, rest)
                parts += [((w, emul[e1][e2]), c1 if c2 is _ONE else c1 * c2)
                          for e1, d1, c1 in coeffs
                          for w, e2, d2, c2 in terms if d1 + d2 <= N]
            out = self._inserts[(g, m)] = _ascending(_accumulate({}, parts),
                                                     self._deg)
        return out

    def linear(self, series, image):
        """The linear extension of ``image`` applied to ``series``, from one
        generator: each key's coefficients times ``image(key)``, a series or
        an ``nf_word`` tuple, whose terms need not ascend in degree."""
        N, emul, deg = self.order, self._emul, self._deg
        return _accumulate({}, (
            ((k, emul[e1][e2]), c1 if c2 is _ONE else c1 * c2)
            for key, (_, coeffs) in _by_key(series, deg).items()
            for img in (_terms(image(key), deg),)
            for e1, d1, c1 in coeffs for k, e2, d2, c2 in img
            if d1 + d2 <= N))

    def _product(self, out, s1, s2, tensor, scale=1, top=None):
        """Add ``scale`` s1 s2, cut at degree ``top`` (N by default), into
        the caller's own dict ``out`` and return it, summed in place as
        ``_accumulate`` sums; ``out`` is never a shared or cached series.
        Each operand is grouped by key once; the groups of ``s2`` go in
        ascending lowest degree, so the first one past ``top`` ends the row.
        The merged coefficients of two groups meet the normal forms of their
        keys' concatenated words (a word, or each leg of a tensor square or
        cube), read from the pair table, in nested loops each broken at its
        first term past ``top``, as ``nf_word`` terms ascend; a term's
        monomial code is ``_emul`` of the codes it multiplies.  A pair pruned
        by degree never reaches the table."""
        N = self.order if top is None else top
        emul, deg, pairs, nf = self._emul, self._deg, self._pairs, self.nf_word
        groups2 = sorted(_by_key(s2, deg, scale).items(),
                         key=lambda g: g[1][0])
        if not groups2:
            return out
        lowest2, get = groups2[0][1][0], out.get
        for k1, (low1, cs1) in _by_key(s1, deg).items():
            room = N - low1
            if lowest2 > room:
                continue
            row = pairs.get(k1)
            if row is None:
                row = pairs[k1] = {}
            for k2, (low2, cs2) in groups2:
                if low2 > room:
                    break
                if len(cs1) == 1 and len(cs2) == 1:
                    (e1, d1, c1), (e2, d2, c2) = cs1[0], cs2[0]
                    coeffs = [(emul[e1][e2], d1 + d2, c1 * c2)]
                else:
                    cs = _accumulate({}, ((emul[e1][e2], c1 * c2)
                                          for e1, d1, c1 in cs1
                                          for e2, d2, c2 in cs2
                                          if d1 + d2 <= N))
                    if not cs:
                        continue
                    coeffs = [(e, deg[e], c) for e, c in cs.items()]
                fs = row.get(k2)
                if fs is None:
                    if not tensor:
                        fs = (nf(k1 + k2), None, None)
                    elif len(k1) == 2:
                        fs = (nf(k1[0] + k2[0]), nf(k1[1] + k2[1]), None)
                    else:           # a cube; a longer key raises here
                        f1, f2, f3 = map(nf, map(add, k1, k2))
                        fs = (f1, f2, f3)
                    row[k2] = fs
                f1, f2, f3 = fs
                for e, d, c in coeffs:
                    erow, left = emul[e], N - d
                    for w1, e1, d1, c1 in f1:
                        if d1 > left:
                            break
                        e1, c1 = erow[e1], c if c1 is _ONE else c * c1
                        if f2 is None:
                            key = (w1, e1)
                            old = get(key)
                            if old is not None:
                                c1 += old
                            if c1:
                                out[key] = (_q(c1) if c1.__class__ is Fraction
                                            else c1)
                            elif old is not None:
                                del out[key]
                            continue
                        row1, left1 = emul[e1], left - d1
                        for w2, e2, d2, c2 in f2:
                            if d2 > left1:
                                break
                            c2 = c1 if c2 is _ONE else c1 * c2
                            if f3 is None:
                                key = ((w1, w2), row1[e2])
                                old = get(key)
                                if old is not None:
                                    c2 += old
                                if c2:
                                    out[key] = (_q(c2) if c2.__class__ is
                                                Fraction else c2)
                                elif old is not None:
                                    del out[key]
                                continue
                            e2, left2 = row1[e2], left1 - d2
                            row2 = emul[e2]
                            for w3, e3, d3, c3 in f3:
                                if d3 > left2:
                                    break
                                key = ((w1, w2, w3), row2[e3])
                                c3 = c2 if c3 is _ONE else c2 * c3
                                old = get(key)
                                if old is not None:
                                    c3 += old
                                if c3:
                                    out[key] = (_q(c3) if c3.__class__ is
                                                Fraction else c3)
                                elif old is not None:
                                    del out[key]
        return out

    def mul(self, s1, s2):
        return self._product({}, s1, s2, False)

    # -- tensor squares / cubes ------------------------------------------------
    def tensor_mul(self, t1, t2):
        return self._product({}, t1, t2, True)

    @staticmethod
    def tensor_swap(t):
        return {((w2, w1), e): c for ((w1, w2), e), c in t.items()}

    @staticmethod
    def embed_cube(t, slots):
        """Place a tensor-square series into a cube at the given slot pair."""
        out = {}
        for ((w1, w2), e), c in t.items():
            key = [(), (), ()]
            key[slots[0]] = w1
            key[slots[1]] = w2
            out[(tuple(key), e)] = c
        return out

    def substitute(self, bindings):
        """New algebra with deformation symbols substituted; it derives its
        normal forms from its own relations."""
        sub = substitution(bindings)
        rels = {key: {w: sub(c) for w, c in series.items()}
                for key, series in self.relations.items()}
        syms = tuple(s for s in self.symbols if s not in sub)
        return DeformedAlgebra(self.names, rels, syms, self.order)


def _drop_zeroed(A, zeroed, series):
    """A flat series of ``A`` with the deformation symbols ``zeroed`` set
    to 0.  That is a ring map, and rewriting commutes with it, so the drop of
    a product is the drop of the product of the drops; a kept term keeps its
    degree, hence the coefficient the substituted algebra stores."""
    pos = [A.symbols.index(s) for s in zeroed]
    keep = [not any(e[t] for t in pos) for e in A._exps]
    return {k: c for k, c in series.items() if keep[k[1]]}


def deformation_slice(A, series, degree):
    """The terms of a flat series of ``A`` of the given total deformation
    degree."""
    deg = A._deg
    return {k: c for k, c in series.items() if deg[k[1]] == degree}


def _exp_terms(coeff, order, shift=0):
    """``[(t, c^(t - shift) / t!)]`` for t >= shift, truncated at order N:
    the terms of sum_t (c X)^t / t!, with its first ``shift`` terms dropped
    and the rest divided by c^shift.

    Raises ValueError when ``coeff`` has a constant term: e^{c X} then has
    no finite truncation in the deformation degree."""
    if poly(coeff).constant_term():
        raise ValueError(f"exponent coefficient {coeff} has a constant term; "
                         f"it must carry a deformation symbol")
    out, power = [], PolyExpr.const(1)
    for t in range(shift, order + shift + 1):
        if not power:
            break
        out.append((t, power * Q(1, factorial(t))))
        power = (power * poly(coeff)).truncate_degree(order)
    return out


def _exp(coeff, order, power, shift=0):
    """The series of ``_exp_terms(coeff, order, shift)`` as ``{key: c}``,
    where ``power(t)`` is the key of X^t: a word, or a pair of words for
    an exponential in a tensor square.  Every exponential of a case goes
    through here."""
    return {power(t): c for t, c in _exp_terms(coeff, order, shift)}


# ---------------------------------------------------------------------------
# case registry
# ---------------------------------------------------------------------------

CASE_NAMES = ("ucc", "uac")


@dataclass(frozen=True)
class HopfCase:
    """A deformed algebra with its coproduct table and universal R.

    The case is frozen.  The coproduct table and R, whose words are as
    written, are read once, at construction, truncated at order N by
    ``from_poly``; ``coproduct`` and ``r`` keep their ``to_poly`` views
    read-only, as the algebra keeps ``relations``.  ``delta_word`` memoises
    Delta(word) per case.  R exists where the symbols of
    ``nonstandard_limit`` are 0; ``()`` checks R on the whole case."""
    algebra: DeformedAlgebra
    coproduct: Mapping            # generator -> {(word, word): PolyExpr}
    r: Mapping                    # {(word, word): PolyExpr}, words as written
    classical_family: str         # family whose r-matrix is the classical limit
    nonstandard_limit: tuple      # symbols set to 0 at the triangular limit

    def __post_init__(self):
        A = self.algebra
        cop = {g: A.from_poly(t) for g, t in self.coproduct.items()}
        r = A.from_poly(self.r)
        object.__setattr__(self, "coproduct", _read_only(
            {g: A.to_poly(t) for g, t in cop.items()}))
        object.__setattr__(self, "r", MappingProxyType(A.to_poly(r)))
        object.__setattr__(self, "_cop", cop)
        object.__setattr__(self, "_r", r)
        object.__setattr__(self, "_delta_words", {})

    def delta_word(self, word):
        """Delta(word) = Delta(word[:-1]) Delta(word[-1]), built once per
        case and word; the cached series is returned read-only."""
        word = tuple(word)
        out = self._delta_words.get(word)
        if out is None:
            A = self.algebra
            out = (A.tensor_mul(self.delta_word(word[:-1]),
                                self._cop[word[-1]])
                   if word else A.one_tensor())
            out = self._delta_words[word] = MappingProxyType(out)
        return out

    def delta_series(self, series):
        return self.algebra.linear(series, self.delta_word)

    def counit_slot(self, t, slot):
        """(eps (x) id) or (id (x) eps) of a tensor square; eps kills every
        generator, so only empty words in the given slot survive."""
        return _accumulate({}, (((key[1 - slot], e), c)
                                for (key, e), c in t.items() if not key[slot]))

    def delta_slot(self, t, slot):
        """Apply the coproduct inside one slot of a tensor square -> cube."""
        A = self.algebra

        def image(key):
            w1, w2 = key
            return tuple(((u, v, w2) if slot == 0 else (w1, u, v), e, d, c)
                         for (u, v), e, d, c
                         in _terms(self.delta_word(key[slot]), A._deg))
        return A.linear(t, image)

    def substitute(self, bindings):
        """The case with deformation symbols substituted in its relations,
        coproducts and R; the bound symbols leave ``nonstandard_limit``, so
        ``dict.fromkeys(case.nonstandard_limit, 0)`` gives the limit."""
        sub = substitution(bindings)

        def sub_series(series):
            return {key: sub(c) for key, c in series.items()}
        return HopfCase(self.algebra.substitute(sub),
                        {g: sub_series(t) for g, t in self.coproduct.items()},
                        sub_series(self.r), self.classical_family,
                        tuple(s for s in self.nonstandard_limit
                              if s not in sub))


def build_case(name, order=4):
    """The registered quantum-deformation case ``name`` at truncation order
    N, built once per (name, order) per process and shared:
    ``build_case("uac")``, ``build_case("uac", 4)`` and
    ``build_case("uac", order=4)`` return one case, whose nf, insertion and
    Delta(word) memos every caller reuses.  ``build_case.__wrapped__``
    builds a fresh case."""
    return _shared_case(name, index(order))


def _new_case(name, order=4):
    """Construct a registered quantum-deformation case at truncation order N.

    One code path builds both cases from data: symbols, the relations that
    replace the classical ones, the legs l of each Delta(X_g) = 1 (x) X_g +
    X_g (x) prod_l e^{c_l X_l} (a primitive generator has none), extra
    coproduct terms and R = e^{-x A (x) B} e^{x B (x) A}; every exponential
    comes from ``_exp``.  A product of legs is taken termwise on sorted
    words, since its generators commute (H and M, or M alone), R termwise on
    words as written, and ``HopfCase`` truncates both at N: a product in the
    algebra would fill the fresh case's nf cache."""
    L = schrodinger.algebra()
    iD, iC, iH, iK, iP, iM = (L.index(g) for g in "DCHKPM")
    c1, c2, a2 = (PolyExpr.var(s) for s in ("c1", "c2", "a2"))
    # X_j X_i - X_i X_j = [X_j, X_i] = -[X_i, X_j]
    rels = {(j, i): {(k,): PolyExpr.const(-c) for k, c in L.sc(i, j).items()}
            for i, j in combinations(range(L.dim), 2) if L.sc(i, j)}
    # [P, K] = -(1 - e^{-2 c2 M})/(2 c2)
    rels[(iP, iK)] = {w: -c for w, c in
                      _exp(-2 * c2, order, lambda t: (iM,) * t, 1).items()}
    extra = {}
    if name == "ucc":
        symbols, family = ("c1", "c2"), "d-primitive"
        x, ia, ib = c1, iM, iD
        legs = {iP: [(c1 - c2, iM)], iK: [(-(c1 + c2), iM)],
                iH: [(2 * c1, iM)], iC: [(-2 * c1, iM)]}
    elif name == "uac":
        symbols, family = ("a2", "c2"), "hstd-deformation"
        x, ia, ib = a2, iH, iD
        legs = {iD: [(-2 * a2, iH)], iC: [(-2 * a2, iH)],
                iP: [(a2, iH), (-c2, iM)], iK: [(-a2, iH), (-c2, iM)]}
        hp = _exp(-2 * a2, order, lambda t: (iH,) * t + (iP,))  # e^{-2a2 H} P
        rels.update({
            # [H, D] = (1 - e^{-2 a2 H})/a2 and [K, H] = e^{-2 a2 H} P
            (iH, iD): {w: 2 * c for w, c in
                       _exp(-2 * a2, order, lambda t: (iH,) * t, 1).items()},
            (iC, iD): {(iC,): PolyExpr.const(-2), (iD, iD): a2},
            (iK, iC): {(iD, iK): -a2, (iK,): a2 * Q(1, 2)},
            (iP, iC): {(iK,): PolyExpr.const(-1), (iD, iP): a2,
                       (iP,): a2 * Q(1, 2)},
            (iK, iH): hp})
        # Delta(K) also carries a2 D (x) e^{-2 a2 H} P
        extra = {iK: {((iD,), w): a2 * c for w, c in hp.items()}}
    else:
        raise KeyError(f"unknown case {name!r}; choices: {CASE_NAMES}")
    cop = {}
    for g in range(L.dim):
        leg = {(): PolyExpr.const(1)}
        for coeff, h in legs.get(g, ()):
            leg = {tuple(sorted(w + u)): c * e for w, c in leg.items()
                   for u, e in _exp(coeff, order, lambda t: (h,) * t).items()}
        cop[g] = {((), (g,)): PolyExpr.const(1),
                  **{((g,), w): c for w, c in leg.items()}, **extra.get(g, {})}
    # the term (A^s B^t) (x) (B^s A^t) of R
    r = {(u1 + v1, u2 + v2): c * e for (u1, u2), c
         in _exp(-x, order, lambda s: ((ia,) * s, (ib,) * s)).items()
         for (v1, v2), e
         in _exp(x, order, lambda t: ((ib,) * t, (ia,) * t)).items()}
    alg = DeformedAlgebra(L.names, rels, symbols, order)
    return HopfCase(alg, cop, r, family, ("c2",))


_shared_case = cache(_new_case)
build_case.__wrapped__ = _new_case


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def diamond_check(A):
    """Overlap residuals: for every i<j<k reduce X_k X_j X_i along both
    association orders; all zero certifies a flat order-N deformation."""
    out = {}
    for i, j, k in combinations(range(A.n), 3):
        res = A._product(A.mul(A.nf_word((k, j)), A.term((i,))),
                         A.term((k,)), A.nf_word((j, i)), False, -1)
        out[(A.names[i], A.names[j], A.names[k])] = A.to_poly(res)
    return out


def hopf_axiom_residuals(case):
    """Coproduct homomorphism, coassociativity and counit residuals."""
    A = case.algebra
    hom = {}
    for (j, i), rhs in sorted(A._rels.items()):
        di, dj = case._cop[i], case._cop[j]
        lhs = A._product(A.tensor_mul(dj, di), di, dj, True, -1)
        res = A.sub(lhs, case.delta_series(rhs))
        hom[(A.names[j], A.names[i])] = A.to_poly(res)
    coassoc = {}
    counit = {}
    for g in range(A.n):
        t = case._cop[g]
        coassoc[A.names[g]] = A.to_poly(
            A.sub(case.delta_slot(t, 0), case.delta_slot(t, 1)))
        lres = A.sub(case.counit_slot(t, 0), A.term((g,)))
        rres = A.sub(case.counit_slot(t, 1), A.term((g,)))
        counit[A.names[g]] = A.to_poly(A.add(lres, rres))
    return {"homomorphism": hom, "coassociativity": coassoc, "counit": counit}


def _sides(t):
    """A tensor-square series grouped by each leg: ``({u: {(v, exps): c}},
    {v: {(u, exps): c}})`` for its terms c u (x) v."""
    left, right = {}, {}
    for ((u, v), e), c in t.items():
        left.setdefault(u, {})[(v, e)] = c
        right.setdefault(v, {})[(u, e)] = c
    return left, right


def _solve_order(case):
    """The generators in the order the antipode solve takes them at each
    degree: X_g after the generators of the words u of the degree-0 terms
    u (x) v of Delta(X_g) but X_g (x) 1, since X_g's degree-tau slice reads
    S(u) at degree tau; else in index order.  ValueError when these reads
    form a cycle, X_g reading itself included."""
    A = case.algebra
    reads = [{h for ((u, v), e) in case._cop[g]
              if not A._deg[e] and (u, v) != ((g,), ()) for h in u}
             for g in range(A.n)]
    order = []
    while len(order) < A.n:
        ready = [g for g in range(A.n)
                 if g not in order and reads[g].issubset(order)]
        if not ready:
            left = ", ".join(x for g, x in enumerate(A.names) if g not in order)
            raise ValueError(f"the degree-0 terms of the coproducts of {left} "
                             f"read their antipodes in a cycle")
        order.append(ready[0])
    return order


def antipode_solve(case):
    """Solve m (S (x) id) Delta(X) = eps(X) 1 order by order.

    Returns (antipode series per generator, right-axiom residuals).  The right
    counit axiom is the independent verification; a nonzero entry there means
    the structure is not a Hopf algebra at this order.

    Each axiom is one product per distinct word of one leg of Delta(X):
    m (S (x) id) Delta(X) = sum_u S(u) (sum_v c_uv v), and the right axiom
    sum_v (sum_u c_uv u) S(v).  Step tau keeps only the degree-tau slice of
    the left axiom, and a product's terms of degree <= tau read only its
    factors' terms of degree <= tau; so at step tau the S(word) memo and the
    left axiom are products cut at degree tau, and only the right axiom, the
    verification, is taken to order N.  A product prunes the pairs past its
    cut before it rewrites them, so no normal form of such a pair is made.
    Within a degree the generators go in ``_solve_order``, so each S(u) a
    degree-0 term u (x) v reads is final when read: one sweep per degree.
    """
    A = case.algebra
    order = _solve_order(case)
    sides = [_sides(case._cop[g]) for g in range(A.n)]
    smap = {g: {((g,), A._unit): -_ONE} for g in range(A.n)}
    memo = {}                   # S(word) at the current cut and smap

    def s_word(word, top):
        """S(word) = S(word[1:]) S(word[0]) cut at degree ``top``, memoised
        for every suffix until an S(g) or the cut changes.  A loop from the
        longest memoised suffix, not a recursive closure: that would be a
        reference cycle keeping the case and its nf cache alive after the
        call, until the cyclic collector runs."""
        k = 0
        while k < len(word) and word[k:] not in memo:
            k += 1
        out = memo[word[k:]] if k < len(word) else A.one()
        for i in range(k - 1, -1, -1):
            out = memo[word[i:]] = A._product({}, out, smap[word[i]], False,
                                              top=top)
        return out

    def axiom(g, left, top):
        """m (S (x) id) Delta(X_g) when ``left``, else m (id (x) S)
        Delta(X_g), cut at degree ``top``: the products for every word of
        one leg, summed in place into one fresh dict (never ``s_word``'s
        memoised ones)."""
        out = {}
        if left:
            for u, rest in sides[g][0].items():
                A._product(out, s_word(u, top), rest, False, top=top)
        else:
            for v, rest in sides[g][1].items():
                A._product(out, rest, s_word(v, top), False, top=top)
        return out

    for tau in range(A.order + 1):
        memo.clear()
        for g in order:
            res = deformation_slice(A, axiom(g, True, tau), tau)
            if res:
                smap[g] = A.sub(smap[g], res)
                memo.clear()
    return ({A.names[g]: A.to_poly(smap[g]) for g in range(A.n)},
            {A.names[g]: A.to_poly(axiom(g, False, A.order))
             for g in range(A.n)})


def classical_algebra(A):
    """The Lie algebra carried by the deformation-degree-zero slice of the
    relation table: the one shared built-in instance
    (``schrodinger.algebra()``) when the slice equals it, so its ad tables
    are built once per process, and a new ``LieAlgebra`` otherwise."""
    brackets = {}
    for (j, i), flat in A._rels.items():
        entry = {}
        for (w, _), c in deformation_slice(A, flat, 0).items():
            if len(w) != 1:
                raise MalformedAlgebraError(
                    "degree-zero slice is not a Lie bracket")
            entry[A.names[w[0]]] = -c
        if entry:
            brackets[(A.names[i], A.names[j])] = entry
    L, shared = LieAlgebra(A.names, brackets), schrodinger.algebra()
    return shared if L == shared else L


def first_order_check(case):
    """(Delta - sigma Delta)(X) at first deformation order against the
    cocommutator of the classical r-matrix, read from the case's classical
    family and taken on the case's own degree-zero bracket."""
    A = case.algebra
    L = classical_algebra(A)
    r = families.load_rmatrix(case.classical_family)
    delta = delta_from_r(WedgeElement(L, 2, r.terms))
    residuals = {}
    for g in range(A.n):
        t = case._cop[g]
        got = A.to_poly(deformation_slice(A, A.sub(t, A.tensor_swap(t)), 1))
        # compared as PolyExpr: the degree-1 target is not truncated at N,
        # so at order 0 it is left over as the residual
        want = {((i,), (j,)): poly(c)
                for (i, j), c in delta.rows[g].to_tensor().terms.items()}
        residuals[A.names[g]] = A.sub(got, want)
    return residuals


def universal_r_check(case):
    """Intertwining, triangularity and quantum YBE residuals for the case's
    R, put in normal order on each call, at the case's non-standard limit:
    R, the coproducts and the residuals go through ``_drop_zeroed``."""
    A = case.algebra

    def drop(s):
        return _drop_zeroed(A, case.nonstandard_limit, s)

    def residual(s):
        return A.to_poly(drop(s))

    R = drop(A.tensor_mul(case._r, A.one_tensor()))
    inter = {}
    for g in range(A.n):
        t = drop(case._cop[g])
        inter[A.names[g]] = residual(A._product(
            A.tensor_mul(R, t), A.tensor_swap(t), R, True, -1))
    tri = residual(A.sub(A.tensor_mul(A.tensor_swap(R), R), A.one_tensor()))
    r12, r13, r23 = (A.embed_cube(R, s) for s in ((0, 1), (0, 2), (1, 2)))
    qybe = residual(A._product(A.tensor_mul(A.tensor_mul(r12, r13), r23),
                               A.tensor_mul(r23, r13), r12, True, -1))
    return {"intertwining": inter, "triangularity": tri, "qybe": qybe}


def _key_text(A, key):
    """A word as ``D*H`` (``1`` when empty), a tuple of words as
    ``D*H (x) P``."""
    if key and isinstance(key[0], tuple):
        return " (x) ".join(_key_text(A, w) for w in key)
    return "*".join(A.names[i] for i in key) or "1"


def _first_residual(A, residuals):
    """Where ``{label: {key: PolyExpr}}`` residuals first fail: the lowest
    deformation degree of any nonzero residual, the first label failing
    there and its leading term there, the first in (key, monomial) order;
    "" when every residual vanishes.  A label is a generator's name, a
    tuple of names, printed as ``(K,D)``, or the name of a single series."""
    first = None
    for g, res in residuals.items():
        terms = [(sum(e for _, e in m), w, m, c)
                 for w, p in res.items() for m, c in p.terms.items()]
        if terms:
            low = min(terms)
            if first is None or low[0] < first[1][0]:
                first = g, low
    if first is None:
        return ""
    g, (d, w, m, c) = first
    label = f"({','.join(g)})" if isinstance(g, tuple) else g
    return (f"{label} at degree {d}: leading term "
            f"({PolyExpr({m: c})})*{_key_text(A, w)}")


def hopf_checks(case):
    """The nine Hopf checks of a case, as (name, ok, payload) triples in the
    order `hopf-check` reports them; criterion 11 runs the same list.  A
    failing check names its first residual (``_first_residual``), but for
    the first-order cocommutator: at N=0 it fails by design, and its report
    there is pinned.  A passing check's payload is "", but for the
    diamond's count."""
    A = case.algebra

    def check(name, residuals, passing=""):
        ok = all(not v for v in residuals.values())
        return name, ok, passing if ok else _first_residual(A, residuals)

    dc = diamond_check(A)
    res = hopf_axiom_residuals(case)
    _, right = antipode_solve(case)
    fo = first_order_check(case)
    ur = universal_r_check(case)
    return [
        check("diamond", dc, f"{len(dc)} overlaps at order {A.order}"),
        check("coproduct-homomorphism", res["homomorphism"]),
        check("coassociativity", res["coassociativity"]),
        check("counit", res["counit"]),
        check("antipode", right),
        ("first-order-cocommutator", all(not v for v in fo.values()), ""),
        check("universal-r-intertwining", ur["intertwining"]),
        check("universal-r-triangularity", {"R21 R": ur["triangularity"]}),
        check("universal-r-qybe", {"R12 R13 R23": ur["qybe"]}),
    ]
