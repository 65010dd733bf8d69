"""Order-N verification of quantum deformations: PBW rewriting, coproducts,
Hopf axioms, antipodes and universal R-matrices.

Series are flat truncated graded series: a dict ``{(key, exps): Fraction}``.
``key`` is a normal-ordered word (a non-decreasing tuple of generator
indices) or, in a tensor square or cube, a tuple of such words, normal
ordered factorwise.  ``exps`` is the exponent tuple of a monomial over the
algebra's deformation ``symbols``; its deformation degree ``sum(exps)`` never
exceeds the order N.  A product skips every pair of terms whose degrees sum
past N before it multiplies anything, so nothing is built only to be
truncated.  ``nf_word`` returns an immutable tuple of
``(word, exps, degree, coefficient)`` in ascending degree and is memoised.

The public boundary speaks PolyExpr: the constructor takes ``{word: PolyExpr}``
relations, and ``relations``, ``HopfCase.coproduct`` and the dicts returned
by the five checks are ``{key: PolyExpr}``.  ``from_poly`` and ``to_poly``
convert at that boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import factorial

from .symkernel import PolyExpr, Q, poly
from .liealg import WedgeElement
from . import schrodinger

__all__ = [
    "DeformedAlgebra", "HopfCase", "MalformedAlgebraError", "build_case",
    "CASE_NAMES", "diamond_check", "hopf_axiom_residuals", "antipode_solve",
    "first_order_check", "universal_r_check", "hopf_checks",
]

_ONE = Fraction(1)


class MalformedAlgebraError(ValueError):
    """A relation right-hand side is not in normal form."""


def _is_sorted(word):
    return all(word[t] <= word[t + 1] for t in range(len(word) - 1))


def _collect(pairs):
    """The one accumulator: sum ``(key, coefficient)`` pairs and drop the
    sums that cancel.  Every coefficient fed in is nonzero."""
    out = {}
    get = out.get
    cancelled = False
    for k, c in pairs:
        old = get(k)
        if old is None:
            out[k] = c
        else:
            c = out[k] = old + c
            cancelled = cancelled or not c
    return {k: c for k, c in out.items() if c} if cancelled else out


def _terms(s):
    """``(key, exps, degree, coefficient)`` terms of a flat series; an
    ``nf_word`` tuple already has this form."""
    if isinstance(s, tuple):
        return s
    return [(k, e, sum(e), c) for (k, e), c in s.items()]


def _by_key(s):
    """``{key: [(exps, degree, coefficient), ...]}`` of a series."""
    out = {}
    for k, e, d, c in _terms(s):
        out.setdefault(k, []).append((e, d, c))
    return out


class DeformedAlgebra:
    """Generators with deformed commutation relations, truncated at order N.

    ``relations[(j, i)]`` for j > i holds X_j X_i - X_i X_j as a normal-ordered
    ``{word: PolyExpr}`` series; missing pairs commute.  The zeroth deformation
    order of the table must reproduce a Lie algebra bracket (checked by the
    case builders).
    """

    def __init__(self, names, relations, deformation_symbols, order):
        self.names = tuple(names)
        self.n = len(self.names)
        self.order = int(order)
        if self.order < 0:
            raise ValueError("order must be >= 0")
        self.symbols = tuple(deformation_symbols)
        monos = [()]
        for _ in self.symbols:
            monos = [m + (e,) for m in monos
                     for e in range(self.order + 1 - sum(m))]
        self._unit = monos[0]
        # exponents of the product of two monomials, present only when its
        # degree is at most N
        self._emul = {e1: {e2: tuple(map(sum, zip(e1, e2))) for e2 in monos
                           if sum(e1) + sum(e2) <= self.order}
                      for e1 in monos}
        self._rels = {}
        for (j, i), series in relations.items():
            if not j > i:
                raise MalformedAlgebraError("relations must be keyed j > i")
            flat = self.from_poly(series)
            for w, _ in flat:
                if not _is_sorted(w):
                    raise MalformedAlgebraError(
                        f"relation [{self.names[j]},{self.names[i]}] "
                        f"right side contains unordered word {w}")
            self._rels[(j, i)] = flat
        self.relations = {k: self.to_poly(f) for k, f in self._rels.items()}
        self._rules = {k: list(_by_key(f).items())
                       for k, f in self._rels.items()}
        self._nf_cache = {}

    # -- boundary ------------------------------------------------------------
    def from_poly(self, series):
        """Flat series of a ``{key: PolyExpr}`` series, truncated at order N.

        Raises ValueError on a symbol outside ``symbols`` or a negative power.
        """
        pos = {s: t for t, s in enumerate(self.symbols)}
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
                if sum(exps) <= self.order:
                    out[(tuple(key), tuple(exps))] = q
        return out

    def to_poly(self, s):
        """``{key: PolyExpr}`` view of a flat series or an ``nf_word`` tuple."""
        out = {}
        for k, e, _, c in _terms(s):
            mono = tuple(sorted((name, x) for name, x in zip(self.symbols, e)
                                if x))
            out.setdefault(k, {})[mono] = c
        return {k: PolyExpr(terms) for k, terms in out.items()}

    # -- series plumbing ---------------------------------------------------
    @staticmethod
    def add(s1, s2, scale=1):
        return _collect(chain(s1.items(),
                              ((k, scale * c) for k, c in s2.items())))

    @staticmethod
    def sub(s1, s2):
        return DeformedAlgebra.add(s1, s2, -1)

    def term(self, key):
        """The series ``key`` with coefficient 1."""
        return {(key, self._unit): _ONE}

    def gen(self, name):
        return self.term((self.names.index(name),))

    def one(self):
        return self.term(())

    def one_tensor(self):
        return self.term(((), ()))

    def rel(self, j, i):
        return self.relations.get((j, i), {})

    def _scaled(self, coeffs, terms):
        """``((key, exps), c)`` pairs of the scalar ``coeffs`` times the
        ``terms``, skipping every pair whose degrees sum past N."""
        N, emul = self.order, self._emul
        for e1, d1, c1 in coeffs:
            row = emul[e1]
            for k, e2, d2, c2 in terms:
                if d1 + d2 <= N:
                    yield (k, row[e2]), c1 if c2 is _ONE else c1 * c2

    # -- rewriting -----------------------------------------------------------
    def nf_word(self, word):
        """Normal form of a single word.  Deterministic strategy: always
        rewrite the leftmost descent."""
        word = tuple(word)
        cached = self._nf_cache.get(word)
        if cached is not None:
            return cached
        pos = next((t for t in range(len(word) - 1)
                    if word[t] > word[t + 1]), None)
        if pos is None:
            res = ((word, self._unit, 0, _ONE),)
        else:
            a, b = word[pos], word[pos + 1]
            left, right = word[:pos], word[pos + 2:]
            parts = [((w, e), c) for w, e, _, c
                     in self.nf_word(left + (b, a) + right)]
            for u, coeffs in self._rules.get((a, b), ()):
                parts.extend(self._scaled(coeffs,
                                          self.nf_word(left + u + right)))
            res = tuple(sorted(_terms(_collect(parts)), key=lambda t: t[2]))
        self._nf_cache[word] = res
        return res

    def nf(self, series):
        """Normal form of a word-combination series."""
        return _collect(chain.from_iterable(
            self._scaled(coeffs, self.nf_word(w))
            for w, coeffs in _by_key(series).items()))

    def _product(self, s1, s2, tensor):
        """Terms of s1 s2, for each pair of keys: the merged coefficient
        products times the normal form of the concatenated keys.  Keys are
        words or, with ``tensor``, tuples of words normal ordered
        factorwise; the algebra product is the one-factor case."""
        N, emul, nf = self.order, self._emul, self.nf_word
        by2 = _by_key(s2).items()
        for k1, cs1 in _by_key(s1).items():
            for k2, cs2 in by2:
                cs = _collect((emul[e1][e2], c1 * c2)
                              for e1, d1, c1 in cs1
                              for e2, d2, c2 in cs2 if d1 + d2 <= N)
                if not cs:
                    continue
                coeffs = [(e, sum(e), c) for e, c in cs.items()]
                if tensor:
                    terms = self._distribute(
                        [nf(a + b) for a, b in zip(k1, k2)],
                        N - min(d for _, d, _ in coeffs))
                else:
                    terms = nf(k1 + k2)
                yield from self._scaled(coeffs, terms)

    def _distribute(self, factors, budget):
        """Terms of the tensor product of normal forms, each partial product
        pruned once its degree passes ``budget``."""
        emul = self._emul
        partial = [((), self._unit, 0, _ONE)]
        for fac in factors:
            if len(fac) == 1 and fac[0][2] == 0 and fac[0][3] == 1:
                w = fac[0][0]                   # a bare word: append it
                partial = [(key + (w,), e, d, c) for key, e, d, c in partial]
                continue
            partial = [(key + (w,), emul[e1][e2], d1 + d2,
                        c2 if c1 is _ONE else c1 * c2)
                       for key, e1, d1, c1 in partial
                       for w, e2, d2, c2 in fac if d1 + d2 <= budget]
        return partial

    def mul(self, s1, s2):
        return _collect(self._product(s1, s2, False))

    # -- tensor squares / cubes ------------------------------------------------
    def tensor_mul(self, t1, t2):
        return _collect(self._product(t1, t2, True))

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
        """New algebra with deformation symbols substituted (e.g. a limit)."""
        rels = {key: {w: c.substitute(bindings) for w, c in series.items()}
                for key, series in self.relations.items()}
        syms = tuple(s for s in self.symbols if s not in bindings)
        return DeformedAlgebra(self.names, rels, syms, self.order)


def series_eq(s1, s2):
    return {w: c for w, c in s1.items() if c} == {w: c for w, c in s2.items() if c}


def deformation_slice(series, degree):
    """The terms of a flat series of the given total deformation degree."""
    return {k: c for k, c in series.items() if sum(k[1]) == degree}


def _exp_terms(coeff, order, shift=0):
    """``[(t, c^(t - shift) / t!)]`` for t >= shift, truncated at order N:
    the terms of sum_t (c X)^t / t!, with its first ``shift`` terms dropped
    and the rest divided by c^shift."""
    out, power = [], PolyExpr.const(1)
    for t in range(shift, order + shift + 1):
        if not power:
            break
        out.append((t, power * Q(1, factorial(t))))
        power = (power * poly(coeff)).truncate_degree(order)
    return out


# ---------------------------------------------------------------------------
# case registry
# ---------------------------------------------------------------------------

CASE_NAMES = ("ucc", "uac")


@dataclass
class HopfCase:
    """A deformed algebra with its coproduct table and R-matrix data.

    The coproduct table is read once, at construction."""
    name: str
    algebra: DeformedAlgebra
    coproduct: dict               # generator index -> {key: PolyExpr}
    classical_r_pairs: tuple      # (param, gen, gen) wedge data for delta
    r_exponents: tuple            # ((coeff sign * param, genA, genB), ...) for R
    nonstandard_limit: dict       # bindings giving the triangular limit

    def __post_init__(self):
        self._cop = {g: self.algebra.from_poly(t)
                     for g, t in self.coproduct.items()}

    def delta_word(self, word):
        A = self.algebra
        out = A.one_tensor()
        for letter in word:
            out = A.tensor_mul(out, self._cop[letter])
        return out

    def delta_series(self, series):
        return _collect(chain.from_iterable(
            self.algebra._scaled(coeffs, _terms(self.delta_word(w)))
            for w, coeffs in _by_key(series).items()))

    def counit_slot(self, t, slot):
        """(eps (x) id) or (id (x) eps) of a tensor square; eps kills every
        generator, so only empty words in the given slot survive."""
        return _collect(((key[1 - slot], e), c)
                        for (key, e), c in t.items() if not key[slot])

    def delta_slot(self, t, slot):
        """Apply the coproduct inside one slot of a tensor square -> cube."""
        A = self.algebra
        pairs = []
        for (w1, w2), coeffs in _by_key(t).items():
            inner = self.delta_word(w1 if slot == 0 else w2)
            pairs.append(A._scaled(coeffs, [
                ((u, v, w2) if slot == 0 else (w1, u, v), e, d, c)
                for (u, v), e, d, c in _terms(inner)]))
        return _collect(chain.from_iterable(pairs))

    def limit(self, bindings=None):
        """The case with deformation symbols substituted; by default the
        non-standard (triangular) limit."""
        binds = self.nonstandard_limit if bindings is None else bindings
        alg = self.algebra.substitute(binds)
        cop = {g: {key: c.substitute(binds) for key, c in t.items()}
               for g, t in self.coproduct.items()}
        cop = {g: {key: c for key, c in t.items() if c} for g, t in cop.items()}
        rexp = tuple((poly(c).substitute(binds), ga, gb)
                     for c, ga, gb in self.r_exponents)
        return HopfCase(self.name + "-limit", alg, cop, self.classical_r_pairs,
                        rexp, {})

    def universal_r(self):
        """R = exp(term1) exp(term2) from the registered exponent data."""
        A = self.algebra
        out = A.one_tensor()
        for coeff, ga, gb in self.r_exponents:
            ia, ib = A.names.index(ga), A.names.index(gb)
            out = A.tensor_mul(out, A.from_poly(
                {((ia,) * t, (ib,) * t): c
                 for t, c in _exp_terms(coeff, A.order)}))
        return out


def _classical_relations(names):
    L = schrodinger.algebra()
    assert L.names == tuple(names)
    rels = {}
    for i, j in combinations(range(len(names)), 2):
        terms = {(k,): PolyExpr.const(-c) for k, c in L.sc(i, j).items()}
        if terms:
            rels[(j, i)] = terms    # X_j X_i - X_i X_j = [X_j, X_i] = -[X_i, X_j]
    return rels


def _exp_leg(legs, order):
    """Product of exponentials e^{c X} acting on one tensor leg.

    ``legs`` is a list of (coefficient PolyExpr, generator index) with
    distinct generators that commute among themselves (they do in every
    coproduct leg used here), so the result is the termwise product.
    """
    out = {(): PolyExpr.const(1)}
    for coeff, gi in legs:
        nxt = {}
        for w, c in out.items():
            for t, e in _exp_terms(coeff, order):
                p = (c * e).truncate_degree(order)
                if p:
                    nxt[tuple(sorted(w + (gi,) * t))] = p
        out = nxt
    return out


def _coproduct(g, legs, order):
    """Delta(X_g) = 1 (x) X_g + X_g (x) (product of the leg exponentials)."""
    t = {((), (g,)): PolyExpr.const(1)}
    for w, c in _exp_leg(legs, order).items():
        t[((g,), w)] = c
    return t


def build_case(name, order=4):
    """Construct a registered quantum-deformation case at truncation order N."""
    names = schrodinger.GENERATORS
    idx = {g: i for i, g in enumerate(names)}
    iD, iC, iH, iK, iP, iM = (idx[g] for g in "DCHKPM")
    rels = _classical_relations(names)
    # [P, K] = -(1 - e^{-2 c2 M})/(2 c2)
    c2 = PolyExpr.var("c2")
    rels[(iP, iK)] = {(iM,) * t: -c
                      for t, c in _exp_terms(-2 * c2, order, shift=1)}
    if name == "ucc":
        c1 = PolyExpr.var("c1")
        alg = DeformedAlgebra(names, rels, ("c1", "c2"), order)
        cop = {g: _coproduct(g, [], order) for g in (iD, iM)}
        for g, expo in ((iP, c1 - c2), (iK, -(c1 + c2)),
                        (iH, 2 * c1), (iC, -2 * c1)):
            cop[g] = _coproduct(g, [(expo, iM)], order)
        return HopfCase(
            name="ucc", algebra=alg, coproduct=cop,
            classical_r_pairs=((c1, "D", "M"), (c2, "P", "K")),
            r_exponents=((-c1, "M", "D"), (c1, "D", "M")),
            nonstandard_limit={"c2": PolyExpr.zero()},
        )
    if name == "uac":
        a2 = PolyExpr.var("a2")
        # [H, D] = (1 - e^{-2 a2 H})/a2
        rels[(iH, iD)] = {(iH,) * t: 2 * c
                          for t, c in _exp_terms(-2 * a2, order, shift=1)}
        rels[(iC, iD)] = {(iC,): PolyExpr.const(-2), (iD, iD): a2}
        rels[(iK, iC)] = {(iD, iK): -a2, (iK,): a2 * Q(1, 2)}
        rels[(iP, iC)] = {(iK,): PolyExpr.const(-1), (iD, iP): a2,
                          (iP,): a2 * Q(1, 2)}
        # [K, H] = e^{-2 a2 H} P
        rels[(iK, iH)] = {(iH,) * t + (iP,): c
                          for t, c in _exp_terms(-2 * a2, order)}
        alg = DeformedAlgebra(names, rels, ("a2", "c2"), order)
        cop = {g: _coproduct(g, [], order) for g in (iH, iM)}
        for g, legs in ((iD, [(-2 * a2, iH)]), (iC, [(-2 * a2, iH)]),
                        (iP, [(a2, iH), (-c2, iM)]),
                        (iK, [(-a2, iH), (-c2, iM)])):
            cop[g] = _coproduct(g, legs, order)
        # extra a2 D (x) e^{-2 a2 H} P term in Delta(K)
        for w, c in _exp_leg([(-2 * a2, iH)], order).items():
            p = (a2 * c).truncate_degree(order)
            if p:
                cop[iK][((iD,), w + (iP,))] = p
        return HopfCase(
            name="uac", algebra=alg, coproduct=cop,
            classical_r_pairs=((a2, "D", "H"), (c2, "P", "K")),
            r_exponents=((-a2, "H", "D"), (a2, "D", "H")),
            nonstandard_limit={"c2": PolyExpr.zero()},
        )
    raise KeyError(f"unknown case {name!r}; choices: {CASE_NAMES}")


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def diamond_check(A):
    """Overlap residuals: for every i<j<k reduce X_k X_j X_i along both
    association orders; all zero certifies a flat order-N deformation."""
    out = {}
    for i, j, k in combinations(range(A.n), 3):
        left = A.mul(A.nf_word((k, j)), A.term((i,)))
        right = A.mul(A.term((k,)), A.nf_word((j, i)))
        out[(A.names[i], A.names[j], A.names[k])] = A.to_poly(
            A.sub(left, right))
    return out


def hopf_axiom_residuals(case):
    """Coproduct homomorphism, coassociativity and counit residuals."""
    A = case.algebra
    hom = {}
    for (j, i), rhs in sorted(A._rels.items()):
        di, dj = case._cop[i], case._cop[j]
        lhs = A.sub(A.tensor_mul(dj, di), A.tensor_mul(di, dj))
        res = A.sub(lhs, case.delta_series(rhs))
        hom[(A.names[j], A.names[i])] = A.to_poly(res)
    coassoc = {}
    counit = {}
    for g in range(A.n):
        t = case._cop[g]
        coassoc[A.names[g]] = A.to_poly(
            A.sub(case.delta_slot(t, 0), case.delta_slot(t, 1)))
        lres = A.sub(case.counit_slot(t, 0), A.gen(A.names[g]))
        rres = A.sub(case.counit_slot(t, 1), A.gen(A.names[g]))
        counit[A.names[g]] = A.to_poly(A.add(lres, rres))
    return {"homomorphism": hom, "coassociativity": coassoc, "counit": counit}


def _antipode_word(A, smap, word):
    out = A.one()
    for letter in reversed(word):
        out = A.mul(out, smap[letter])
    return out


def antipode_solve(case):
    """Solve m (S (x) id) Delta(X) = eps(X) 1 order by order.

    Returns (antipode series per generator, right-axiom residuals).  The right
    counit axiom is the independent verification; a nonzero entry there means
    the structure is not a Hopf algebra at this order.
    """
    A = case.algebra
    smap = {g: {((g,), A._unit): -_ONE} for g in range(A.n)}

    def axiom(g, left):
        pairs = []
        for (w1, w2), coeffs in _by_key(case._cop[g]).items():
            if left:
                term = A.mul(_antipode_word(A, smap, w1), A.term(w2))
            else:
                term = A.mul(A.term(w1), _antipode_word(A, smap, w2))
            pairs.append(A._scaled(coeffs, _terms(term)))
        return _collect(chain.from_iterable(pairs))

    for tau in range(A.order + 1):
        for g in range(A.n):
            res = deformation_slice(axiom(g, True), tau)
            if res:
                smap[g] = A.sub(smap[g], res)
    return ({A.names[g]: A.to_poly(smap[g]) for g in range(A.n)},
            {A.names[g]: A.to_poly(axiom(g, False)) for g in range(A.n)})


def classical_algebra(A):
    """The Lie algebra carried by the deformation-degree-zero slice of the
    relation table."""
    from .liealg import LieAlgebra
    brackets = {}
    for (j, i), flat in A._rels.items():
        entry = {}
        for (w, _), c in deformation_slice(flat, 0).items():
            if len(w) != 1:
                raise MalformedAlgebraError(
                    "degree-zero slice is not a Lie bracket")
            entry[A.names[w[0]]] = -c
        if entry:
            brackets[(A.names[i], A.names[j])] = entry
    return LieAlgebra(A.names, brackets)


def first_order_check(case, r=None):
    """(Delta - sigma Delta)(X) at first deformation order against the
    cocommutator of the classical r-matrix."""
    from .bialgebra import delta_from_r
    A = case.algebra
    L = classical_algebra(A)
    if r is None:
        r = WedgeElement.from_pairs(
            L, [(c, x, y) for c, x, y in case.classical_r_pairs])
    delta = delta_from_r(L, r)
    residuals = {}
    for g in range(A.n):
        t = case._cop[g]
        got = A.to_poly(deformation_slice(A.sub(t, A.tensor_swap(t)), 1))
        # compared as PolyExpr: the degree-1 target is not truncated at N,
        # so at order 0 it is left over as the residual
        want = {((i,), (j,)): poly(c)
                for (i, j), c in delta.rows[g].to_tensor().terms.items()}
        residuals[A.names[g]] = A.sub(got, want)
    return residuals


def universal_r_check(case):
    """Intertwining, triangularity and quantum YBE residuals for the
    registered exponential R-matrix, at the case's non-standard limit."""
    lim = case.limit() if case.nonstandard_limit else case
    A = lim.algebra
    R = lim.universal_r()
    inter = {}
    for g in range(A.n):
        t = lim._cop[g]
        lhs = A.tensor_mul(R, t)
        rhs = A.tensor_mul(A.tensor_swap(t), R)
        inter[A.names[g]] = A.to_poly(A.sub(lhs, rhs))
    tri = A.sub(A.tensor_mul(A.tensor_swap(R), R), A.one_tensor())
    r12, r13, r23 = (A.embed_cube(R, s) for s in ((0, 1), (0, 2), (1, 2)))
    lhs = A.tensor_mul(A.tensor_mul(r12, r13), r23)
    rhs = A.tensor_mul(A.tensor_mul(r23, r13), r12)
    return {"intertwining": inter, "triangularity": A.to_poly(tri),
            "qybe": A.to_poly(A.sub(lhs, rhs))}


def hopf_checks(case):
    """The nine Hopf checks of a case, as (name, ok, payload) triples in the
    order `hopf-check` reports them; criterion 11 runs the same list."""
    def vanish(residuals):
        return all(not v for v in residuals.values())

    dc = diamond_check(case.algebra)
    res = hopf_axiom_residuals(case)
    _, right = antipode_solve(case)
    fo = first_order_check(case)
    ur = universal_r_check(case)
    return [
        ("diamond", vanish(dc),
         f"{len(dc)} overlaps at order {case.algebra.order}"),
        ("coproduct-homomorphism", vanish(res["homomorphism"]), ""),
        ("coassociativity", vanish(res["coassociativity"]), ""),
        ("counit", vanish(res["counit"]), ""),
        ("antipode", vanish(right), ""),
        ("first-order-cocommutator", vanish(fo), ""),
        ("universal-r-intertwining", vanish(ur["intertwining"]), ""),
        ("universal-r-triangularity", not ur["triangularity"], ""),
        ("universal-r-qybe", not ur["qybe"], ""),
    ]
