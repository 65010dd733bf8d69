"""Coboundary cocommutators, cocycle solving, co-Jacobi constraints,
classification, the bialgebra automorphism and primitive-generator families."""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

from .symkernel import (PolyExpr, ReadOnly, inverse, nullspace, poly,
                        solve_linear, solve_for, substitution, sum_by_key)
from .liealg import (LieAlgebra, WedgeElement, ad_tensor, bracket, schouten,
                     ad_matrix, invariant_kernel, homomorphism_residuals,
                     push_wedge2)

__all__ = [
    "Cocommutator", "BialgebraFamily", "InconsistencyError",
    "InfeasibleSpecialization", "delta_from_r", "cocycle_residual",
    "cocycle_solve", "CocycleSolution", "cojacobi_constraints",
    "coboundary_match", "CoboundaryMatch", "rmatrix_family", "classify_point",
    "automorphism_transform", "AutomorphismReport", "specialize",
    "impose_primitive", "SpecializationReport", "normalize_constraints",
    "force_pure_powers",
]


class InconsistencyError(RuntimeError):
    """A check that the theory guarantees has failed; implementation bug."""


class InfeasibleSpecialization(ValueError):
    def __init__(self, violated):
        self.violated = violated
        super().__init__(f"binding violates constraint: {violated}")


class Cocommutator(ReadOnly):
    """A linear map g -> Lambda^2 g given by one wedge per generator;
    read-only once built."""

    __slots__ = ("algebra", "rows")

    def __init__(self, algebra, rows):
        rows = tuple(rows)
        if len(rows) != algebra.dim:
            raise ValueError("need one row per generator")
        self._set(algebra=algebra, rows=rows)

    def row(self, gen):
        return self.rows[self.algebra.index(gen)]

    def of(self, elem):
        """delta of an AlgElement of the same algebra, by linearity."""
        elem._check(self)
        return WedgeElement(self.algebra, 2, sum_by_key(
            (key, 1, c * v) for (i,), c in elem.terms.items()
            for key, v in self.rows[i].terms.items()))

    def substitute(self, bindings):
        sub = substitution(bindings)
        return Cocommutator(self.algebra,
                            [r.substitute(sub) for r in self.rows])

    def __eq__(self, other):
        return (isinstance(other, Cocommutator) and self.rows == other.rows)

    def __str__(self):
        return "\n".join(f"delta({g}) = {row}"
                         for g, row in zip(self.algebra.names, self.rows))


def delta_from_r(r):
    """Coboundary cocommutator delta(X) = [1(x)X + X(x)1, r] on r.algebra."""
    L = r.algebra
    return Cocommutator(L, [ad_tensor(L.gen(g), r) for g in L.names])


def cocycle_residual(delta):
    """1-cocycle residuals, one wedge per generator pair i<j (nonzero only)."""
    L = delta.algebra
    out = []
    for i, j in combinations(range(L.dim), 2):
        xi, xj = L.gen(L.names[i]), L.gen(L.names[j])
        res = (delta.of(bracket(xi, xj)) - ad_tensor(xi, delta.rows[j])
               + ad_tensor(xj, delta.rows[i]))
        if not res.is_zero():
            out.append(((L.names[i], L.names[j]), res))
    return out


@dataclass(frozen=True)
class CocycleSolution:
    algebra: LieAlgebra
    dim: int
    params: tuple                  # parameter names, one per kernel vector
    basis: tuple                   # kernel vectors over the unknown layout
    unknown_layout: tuple          # (gen index, (j, k)) per column
    cocommutator: Cocommutator     # general cocycle with the parameters inserted


def cocycle_solve(L):
    """General solution of the 1-cocycle condition with unknown coefficients.

    Treats every f_i^{jk}, the coefficient of X_j^X_k in delta(X_i), as an
    unknown.  The condition delta([X_i,X_j]) = ad_{X_i} delta(X_j) -
    ad_{X_j} delta(X_i) is linear in them, so its matrix is read straight
    off the structure constants and the degree-2 wedge ad table, one row
    per pair i<j and wedge key.  The kernel is parameterized with fresh
    symbols ``t1..tN``.
    """
    n = L.dim
    pairs = list(combinations(range(n), 2))
    layout = [(i, pr) for i in range(n) for pr in pairs]
    col = {u: c for c, u in enumerate(layout)}
    ad = L.ad_table(2, True)
    rows = []
    for i, j in pairs:
        block = {w: {col[(k, w)]: s for k, s in L.sc(i, j).items()}
                 for w in pairs}
        for a, b, sign in ((i, j, -1), (j, i, 1)):
            for src, img in ad[a].items():
                for w, s in img:
                    row, c = block[w], col[(b, src)]
                    row[c] = row.get(c, 0) + sign * s
        # a sum that cancels stays as a 0, which rref drops
        rows.extend(row for row in block.values() if any(row.values()))
    basis = nullspace(rows, len(layout))
    params = tuple(f"t{k+1}" for k in range(len(basis)))
    gen_rows = [dict() for _ in range(n)]
    for c, (gi, pr) in enumerate(layout):
        terms = {((pname, 1),): kvec[c]
                 for kvec, pname in zip(basis, params) if kvec[c]}
        if terms:
            gen_rows[gi][pr] = PolyExpr(terms)
    cocomm = Cocommutator(L, [WedgeElement(L, 2, r) for r in gen_rows])
    return CocycleSolution(L, len(basis), params, tuple(tuple(v) for v in basis),
                           tuple(layout), cocomm)


def normalize_constraints(polys):
    """Monic-normalize, drop zeros and duplicates, sort canonically.

    Equal monic polynomials are collapsed before anything is printed, so
    each distinct one is printed once; the survivors are then keyed and
    sorted by their text, the last of equal texts winning.
    """
    last = {}
    for p in polys:
        p = poly(p)
        if p:
            p = p.monic()
            last.pop(p, None)
            last[p] = None
    seen = {str(p): p for p in last}
    return [seen[k] for k in sorted(seen)]


def cojacobi_constraints(delta):
    """Polynomial constraints equivalent to the co-Jacobi identity: the
    Lambda^3 coefficients of the cyclic sum of (delta (x) id) o delta(X_i),
    one per generator X_i and sorted triple, deduplicated by
    :func:`normalize_constraints`.

    The cyclic sum is antisymmetric in its first two slots, so it is totally
    antisymmetric, and its tensor-cube coefficient on any ordering of a
    triple is +- its Lambda^3 coefficient there; ``monic`` removes the sign,
    so the two give the same constraints.  Each term c*X_p^X_q of delta(X_i)
    with each term c2*X_u^X_v of delta(X_p), and with sign -1 of
    delta(X_q), adds c*c2 * X_u^X_v^X_o, X_o the other factor of X_p^X_q:
    one product, at the sorted triple with its permutation sign.  A triple
    with a repeated index adds nothing.
    """
    rows = [row.terms for row in delta.rows]
    raw = []
    for terms in rows:
        items = []
        for (p, q), c in terms.items():
            for src, o, sign in ((p, q, 1), (q, p, -1)):
                for (u, v), c2 in rows[src].items():
                    if o in (u, v):
                        continue
                    if o > v:          # u < v: place o, count the swaps
                        key, s = (u, v, o), sign
                    elif o < u:
                        key, s = (o, u, v), sign
                    else:
                        key, s = (u, o, v), -sign
                    items.append((key, s, c * c2))
        raw.extend(sum_by_key(items).values())
    return normalize_constraints(raw)


@dataclass(frozen=True)
class CoboundaryMatch:
    r: WedgeElement               # particular solution (free coefficients at 0)
    kernel: tuple                 # wedges spanning ker(r -> delta_r)
    residual: tuple               # must vanish for delta to be coboundary

    @property
    def is_coboundary(self):
        return not self.residual


def coboundary_match(delta):
    """Solve delta_from_r(r) = delta for the wedge coefficients of r.

    delta_r(X_g) = ad_{X_g} r is linear in the coefficients of r, with the
    degree-2 wedge :func:`ad_matrix` as its matrix: one row per generator
    and wedge key, the matching coefficient of ``delta`` on the right.
    """
    L = delta.algebra
    pairs, mat = ad_matrix(L, 2, True)
    rhs = [row.coeff(w) for row in delta.rows for w in pairs]
    particular, null_basis, conditions, _ = solve_linear(mat, rhs, len(pairs))
    r_part = WedgeElement(L, 2, dict(zip(pairs, particular)))
    kernel = tuple(WedgeElement(L, 2,
                                {pr: PolyExpr.const(v)
                                 for pr, v in zip(pairs, vec) if v})
                   for vec in null_basis)
    return CoboundaryMatch(r_part, kernel, tuple(normalize_constraints(conditions)))


# ---------------------------------------------------------------------------
# r-matrix families and classification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BialgebraFamily:
    algebra: LieAlgebra
    r: WedgeElement
    delta: Cocommutator
    params: tuple                 # free parameter names
    constraints: tuple            # generated constraint polynomials
    discriminant: PolyExpr        # Schouten coefficient on the invariant direction
    invariant_wedge: tuple        # generator names giving its presentation order

    def substitute(self, bindings):
        sub = substitution(bindings)
        return BialgebraFamily(
            self.algebra,
            self.r.substitute(sub),
            self.delta.substitute(sub),
            tuple(p for p in self.params if p not in sub),
            tuple(map(sub, self.constraints)),
            sub(self.discriminant),
            self.invariant_wedge)


def _invariant_wedge3_axes(L):
    """Basis triples (i<j<k) spanning the ad-invariant part of Lambda^3,
    provided that part is axis-aligned: a tuple, computed once per algebra
    instance (``LieAlgebra.memo``)."""
    return L.memo("invariant-wedge3-axes", lambda: _wedge3_axes(L))


def _wedge3_axes(L):
    keys, basis = invariant_kernel(L, 3, True)
    axes = []
    for vec in basis:
        nz = [c for c, v in enumerate(vec) if v]
        if len(nz) != 1:
            raise ValueError(
                "invariant subspace of Lambda^3 is not axis-aligned")
        axes.append(keys[nz[0]])
    return tuple(axes)


def rmatrix_family(r, invariant_order=None):
    """Family generated by a symbolic r-matrix, on the algebra of ``r``.

    The constraint set comes from the modified classical Yang-Baxter equation:
    [[r,r]] must be ad-invariant, and since the ad-invariant part of Lambda^3
    is spanned by basis wedges, that is equivalent to the vanishing of every
    Schouten component outside those axes.  The discriminant is the Schouten
    coefficient along the (unique) invariant direction.  The parameters are
    the symbols of r in sorted order; ``invariant_order`` presents the
    discriminant (default: generator order).  An algebra whose invariant
    part of Lambda^3 is not one basis wedge raises ValueError.
    """
    L = r.algebra
    s3 = schouten(r)
    axes = _invariant_wedge3_axes(L)
    if len(axes) != 1:
        raise ValueError("need a unique invariant Lambda^3 direction")
    constraints = normalize_constraints(
        c for key, c in s3.terms.items() if key not in axes)
    if invariant_order is None:
        invariant_order = tuple(L.names[t] for t in axes[0])
    disc = s3.signed_coeff(invariant_order)
    params = tuple(sorted(set().union(*(c.names() for c in r.terms.values()))))
    return BialgebraFamily(L, r, delta_from_r(r), params,
                           tuple(constraints), disc, tuple(invariant_order))


def _check_feasible(family, bindings):
    """Raise InfeasibleSpecialization carrying the first constraint of
    ``family`` that ``bindings`` turn into a nonzero constant."""
    for con in family.constraints:
        v = con.substitute(bindings)
        if v.is_const() and v.const_value() != 0:
            raise InfeasibleSpecialization(con)


def classify_point(family, bindings):
    """Label a concrete rational point Standard / Non-standard.

    Standard: nonzero Schouten bracket satisfying the modified classical YBE.
    Non-standard: vanishing Schouten bracket (classical YBE).

    A name that is no parameter raises ValueError.  A point off the
    constraint variety raises InfeasibleSpecialization: first for a
    constraint it makes a nonzero constant, then for any that is nonzero.
    """
    unknown = sorted(set(bindings).difference(family.params))
    if unknown:
        raise ValueError(f"no parameter {unknown[0]!r} in the family")
    _check_feasible(family, bindings)
    for con in family.constraints:
        if con.substitute(bindings):
            raise InfeasibleSpecialization(con)
    r_point = family.r.substitute(bindings)
    w = schouten(r_point)
    if w.is_zero():
        return "non-standard"
    L = family.algebra
    for g in L.names:
        if not ad_tensor(L.gen(g), w).is_zero():
            raise InconsistencyError(
                f"Schouten bracket not ad-invariant at point (generator {g})")
    return "standard"


# ---------------------------------------------------------------------------
# the bialgebra automorphism
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AutomorphismReport:
    rows_equal: dict              # generator -> bool, transformed row == original
    r_equal: bool
    row_pairing: dict             # generator -> generator whose row it came from


def automorphism_transform(family, images, pmap):
    """Push a bialgebra family through an algebra automorphism.

    ``images`` gives the automorphism O (the AlgElements O X_i in generator
    order) and ``pmap`` the accompanying parameter substitution, a dict or
    a prepared ``substitution``.  Returns the transformed cocommutator
    delta' = (O(x)O) o delta o O^{-1}, parameters renamed, and a report
    comparing its rows and the transformed r-matrix with the original's.
    """
    L = family.algebra
    # homomorphism_residuals rejects a list of the wrong length or of mixed
    # algebras
    if homomorphism_residuals(L, images):
        raise ValueError("gmap is not a Lie algebra automorphism")
    images[0]._check(family)
    inv = inverse([[img.coeff((u,)).const_value() for u in range(L.dim)]
                   for img in images])
    pushed = [push_wedge2(row, images) for row in family.delta.rows]
    sub = substitution(pmap)
    new_rows = []
    pairing = {}
    for i, g in enumerate(L.names):
        support = [j for j in range(L.dim) if inv[i][j]]
        row = WedgeElement(L, 2, sum_by_key(
            (key, inv[i][j], c) for j in support
            for key, c in pushed[j].terms.items()))
        pairing[g] = L.names[support[0]] if len(support) == 1 else None
        new_rows.append(row.substitute(sub))
    delta_t = Cocommutator(L, new_rows)
    r_t = push_wedge2(family.r, images).substitute(sub)
    report = AutomorphismReport(
        rows_equal={g: delta_t.rows[i] == family.delta.rows[i]
                    for i, g in enumerate(L.names)},
        r_equal=(r_t == family.r),
        row_pairing=pairing,
    )
    return delta_t, report


# ---------------------------------------------------------------------------
# specialization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpecializationReport:
    bindings: dict                # parameter -> PolyExpr value
    surviving: tuple
    forced_zero: tuple            # parameters killed by pure-power constraints


def specialize(family, bindings):
    """Substitute parameter bindings, checking them against the constraints.

    A binding that turns some constraint into a nonzero constant raises
    InfeasibleSpecialization carrying the violated polynomial.
    """
    _check_feasible(family, bindings)
    out = family.substitute(bindings)
    return replace(out, constraints=tuple(
        normalize_constraints(out.constraints)))


def _pure_power_param(p, params):
    """Name of the parameter forced to zero by p == coeff * name^k, else None."""
    if len(p.terms) != 1:
        return None
    (mono, _), = p.terms.items()
    if len(mono) != 1:
        return None
    name, e = mono[0]
    return name if name in params and e > 0 else None


def force_pure_powers(constraints, params):
    """Force to zero, one at a time, every parameter whose constraint reduces
    to a pure power (q^k = 0 forces q = 0 over the reals).

    Returns (forced parameter names in order, the remaining constraints).
    """
    forced = []
    residual = list(constraints)
    while True:
        victim = next((v for v in (_pure_power_param(c, params)
                                   for c in residual) if v), None)
        if victim is None:
            return forced, residual
        forced.append(victim)
        residual = normalize_constraints(
            c.substitute({victim: PolyExpr.zero()}) for c in residual)


def impose_primitive(family, gen):
    """Impose delta(gen) = 0 on a family, the primitive-generator reduction.

    Solves the linear conditions on the parameters (eliminating later
    parameters in favour of earlier ones), substitutes, and then repeatedly
    forces to zero any parameter whose constraint reduces to a pure power.
    Returns (specialized family, SpecializationReport).
    """
    eqs = list(family.delta.row(gen).terms.values())
    bindings, _ = solve_for(eqs, reversed(family.params))
    # a monomial free of every parameter makes the row inhomogeneous
    params = set(family.params)
    if any(params.isdisjoint(nm for nm, _ in m)
           for eq in eqs for m in eq.terms):
        raise InconsistencyError("delta row is not linear-homogeneous in params")
    fam = specialize(family, bindings)
    forced, _ = force_pure_powers(fam.constraints, set(fam.params))
    if forced:
        zero = {victim: PolyExpr.zero() for victim in forced}
        bindings = {k: v.substitute(zero) for k, v in bindings.items()}
        bindings.update(zero)
        fam = specialize(fam, zero)
    report = SpecializationReport(bindings=bindings,
                                  surviving=fam.params,
                                  forced_zero=tuple(forced))
    return fam, report
