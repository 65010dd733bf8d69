"""Sub-bialgebra analysis: when does a bialgebra on a subalgebra sit inside
a bialgebra of the full algebra?"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .symkernel import PolyExpr, solve_for, substitution
from .liealg import bracket, homomorphism_residuals, push_wedge2
from .bialgebra import normalize_constraints, force_pure_powers

__all__ = [
    "closure_check", "EmbeddingReport", "match_sub_bialgebra",
    "proposition_rmatrix",
]


def closure_check(L, members):
    """The first ((name_i, name_j), [X_i, X_j]), i < j in generator order,
    of two of the generators ``members`` of ``L`` whose bracket leaves
    their span; None when the span is a subalgebra."""
    idx = sorted(L.index(g) for g in members)
    for i, j in combinations(idx, 2):
        if any(k not in idx for k in L.sc(i, j)):
            x, y = L.names[i], L.names[j]
            return (x, y), bracket(L.gen(x), L.gen(y))


@dataclass(frozen=True)
class EmbeddingReport:
    consistent: bool
    bindings: dict               # parent parameter -> PolyExpr in target params
    matching_constraints: tuple  # linear target-parameter conditions from matching
    free_parent: tuple           # parent parameters left free by the matching
    forced_zero: tuple           # target params killed by pure-power residuals
    residual: tuple              # residual after applying the forced zeros
    target_bindings: dict        # target parameter -> value: matching + forced


def match_sub_bialgebra(family, members, target, rename):
    """Match the family cocommutator against a target sub-bialgebra family.

    ``members`` names the generators of the family's algebra that span the
    subalgebra.  ``target`` is a Cocommutator on the subalgebra's own
    presentation with its own parameter symbols; ``rename`` maps each target
    generator name to its image, an AlgElement of the family's algebra (a
    ``.map`` table), and the target rows are pushed along those images.
    Solves linearly for the parent parameters.  An inconsistent system is
    reported (consistent=False), not raised.  A span that is no subalgebra
    raises ValueError naming the first bracket that leaves it; so does a
    ``rename`` that is not a Lie algebra homomorphism from the target
    algebra into the span (a generator without an image or with an image
    outside the span, a name the target lacks, a bracket not preserved),
    naming the generator or the first failing pair, and so does a target
    that shares a parameter name with the family, naming every shared one.
    """
    parent = family.algebra
    leak = closure_check(parent, members)
    if leak:
        (x, y), br = leak
        raise ValueError(f"the span of {', '.join(members)} is not a "
                         f"subalgebra: [{x},{y}] = {br}")
    tl = target.algebra
    missing = [g for g in tl.names if g not in rename]
    if missing:
        raise ValueError(f"the map has no line for {', '.join(missing)}")
    extra = [g for g in rename if g not in tl.names]
    if extra:
        raise ValueError(f"the map has a line for {', '.join(extra)}, "
                         f"not a generator of the target algebra")
    phi = [rename[g] for g in tl.names]
    inside = {parent.index(g) for g in members}
    for g, img in zip(tl.names, phi):
        img._check(family)
        if any(u not in inside for (u,) in img.terms):
            raise ValueError(f"the image of {g} leaves the subalgebra "
                             f"{', '.join(members)}")
    broken = homomorphism_residuals(tl, phi)
    if broken:
        (x, y), _ = broken[0]
        raise ValueError(
            f"the map is not a Lie algebra homomorphism at ({x}, {y})")
    params = list(family.params)
    shared = sorted(set(params) & set().union(
        *(c.names() for row in target.rows for c in row.terms.values())))
    if shared:
        raise ValueError(f"the target shares the parameters "
                         f"{', '.join(shared)} with the family")
    pairs = list(combinations(range(parent.dim), 2))
    eqs = []
    for row, img in zip(target.rows, phi):
        diff = family.delta.of(img) - push_wedge2(row, phi)
        eqs.extend(diff.coeff(pr) for pr in pairs)
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
    # each dict applied to many values is prepared once
    lin = substitution(lin_subs)
    if lin_subs:
        bindings = {k: lin(v) for k, v in bindings.items()}
    bind = substitution(bindings)
    substituted = normalize_constraints(
        lin(bind(con)) for con in family.constraints)
    tparams = set().union(*(cst.names() for cst in substituted))
    forced, residual = force_pure_powers(substituted, tparams)
    target_bindings = dict(lin_subs)
    if forced:
        zero = {victim: PolyExpr.zero() for victim in forced}
        kill = substitution(zero)
        bindings = {k: kill(v) for k, v in bindings.items()}
        target_bindings = {k: kill(v)
                           for k, v in target_bindings.items()} | zero
    return EmbeddingReport(
        consistent=consistent,
        bindings=bindings,
        matching_constraints=tuple(matching),
        free_parent=free_parent,
        forced_zero=tuple(forced),
        residual=tuple(residual),
        target_bindings=target_bindings,
    )


def proposition_rmatrix(family, report):
    """The parent r-matrix with the embedding bindings applied."""
    if not report.consistent:
        raise ValueError("no embedding: matching was inconsistent")
    return family.r.substitute(report.bindings)
