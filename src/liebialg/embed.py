"""Sub-bialgebra analysis: when does a bialgebra on a subalgebra sit inside
a bialgebra of the full algebra?"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .symkernel import PolyExpr, solve_for
from .liealg import LieAlgebra, homomorphism_residuals, push_wedge2
from .bialgebra import normalize_constraints, force_pure_powers

__all__ = [
    "SubalgebraSpan", "closure_check", "sub_bialgebra_condition",
    "EmbeddingReport", "match_sub_bialgebra", "proposition_rmatrix",
]


@dataclass(frozen=True)
class SubalgebraSpan:
    """Subspace of a parent algebra spanned by a subset of its generators."""
    parent: LieAlgebra
    members: tuple                # generator names

    def indices(self):
        return tuple(self.parent.index(g) for g in self.members)


def closure_check(span):
    """True iff the generator subset is closed under the bracket."""
    idx = set(span.indices())
    for i in idx:
        for j in idx:
            if i < j and any(k not in idx for k in span.parent.sc(i, j)):
                return False
    return True


def sub_bialgebra_condition(family, span):
    """Linear conditions on the family parameters forcing delta(X) into
    h^h for every X in the subalgebra h."""
    if not closure_check(span):
        raise ValueError("span is not a subalgebra")
    inside = set(span.indices())
    conds = []
    for i in sorted(inside):
        for key, c in family.delta.rows[i].terms.items():
            if any(t not in inside for t in key):
                conds.append(c)
    return normalize_constraints(conds)


@dataclass(frozen=True)
class EmbeddingReport:
    consistent: bool
    bindings: dict               # parent parameter -> PolyExpr in target params
    matching_constraints: tuple  # linear target-parameter conditions from matching
    free_parent: tuple           # parent parameters left free by the matching
    residual_raw: tuple          # parent constraints after substitution
    forced_zero: tuple           # target params killed by pure-power residuals
    residual: tuple              # residual after applying the forced zeros


def match_sub_bialgebra(family, span, target, rename):
    """Match the family cocommutator against a target sub-bialgebra family.

    ``target`` is a Cocommutator on the subalgebra's own presentation with its
    own parameter symbols; ``rename`` maps each target generator name to an
    AlgElement of the parent.  Solves linearly for the parent parameters.
    An inconsistent system is reported (consistent=False), not raised.
    A ``rename`` that is not a Lie algebra homomorphism from the target
    algebra into the span (a generator without an image or with an image
    outside the span, a name the target lacks, a bracket not preserved)
    raises ValueError naming the generator or the first failing pair.
    """
    if not closure_check(span):
        raise ValueError("span is not a subalgebra")
    parent = family.algebra
    tl = target.algebra
    missing = [g for g in tl.names if g not in rename]
    if missing:
        raise ValueError(f"the map has no line for {', '.join(missing)}")
    extra = [g for g in rename if g not in tl.names]
    if extra:
        raise ValueError(f"the map has a line for {', '.join(extra)}, "
                         f"not a generator of the target algebra")
    phi = [rename[g] for g in tl.names]
    for img in phi:
        if img.algebra is not parent and img.algebra != parent:
            raise ValueError("rename images must live in the parent algebra")
    images = [img.coeffs for img in phi]
    inside = set(span.indices())
    for g, coeffs in zip(tl.names, images):
        if any(c and u not in inside for u, c in enumerate(coeffs)):
            raise ValueError(f"the image of {g} leaves the subalgebra "
                             f"{', '.join(span.members)}")
    broken = homomorphism_residuals(tl, phi)
    if broken:
        (x, y), _ = broken[0]
        raise ValueError(
            f"the map is not a Lie algebra homomorphism at ({x}, {y})")
    params = list(family.params)
    pairs = list(combinations(range(parent.dim), 2))
    eqs = []
    for ti, tg in enumerate(tl.names):
        lhs = push_wedge2(target.rows[ti], images, parent)
        rhs = family.delta.of(phi[ti])
        for pr in pairs:
            eqs.append(rhs.coeff(pr) - lhs.coeff(pr))
    bindings, conditions = solve_for(eqs, params)
    matching = normalize_constraints(conditions)
    # a matching constraint with no target parameters at all = hard inconsistency
    consistent = all(not c.is_const() for c in matching)
    free_parent = tuple(p for p in params if p not in bindings)
    # the matching constraints are linear in the target parameters: solve and
    # substitute them (e.g. parameters forced to vanish outright)
    lin_subs = {}
    if matching and consistent:
        tnames = sorted({nm for cst in matching for nm in cst.names()})
        subs, _ = solve_for(matching, reversed(tnames))
        if not any(cst.constant_term() for cst in matching):
            lin_subs = subs
    if lin_subs:
        bindings = {k: v.substitute(lin_subs) for k, v in bindings.items()}
    residual_raw = normalize_constraints(
        con.substitute(bindings).substitute(lin_subs)
        for con in family.constraints)
    tparams = set().union(*(cst.names() for cst in residual_raw))
    forced, residual = force_pure_powers(residual_raw, tparams)
    if forced:
        zero = {victim: PolyExpr.zero() for victim in forced}
        bindings = {k: v.substitute(zero) for k, v in bindings.items()}
    return EmbeddingReport(
        consistent=consistent,
        bindings=bindings,
        matching_constraints=tuple(matching),
        free_parent=free_parent,
        residual_raw=tuple(residual_raw),
        forced_zero=tuple(forced),
        residual=tuple(residual),
    )


def proposition_rmatrix(family, report):
    """The parent r-matrix with the embedding bindings applied."""
    if not report.consistent:
        raise ValueError("no embedding: matching was inconsistent")
    return family.r.substitute(report.bindings)
