"""Named r-matrix families and the sub-bialgebra embedding setups.

Each family records its packaged tables and a list of
*charts*: substitutions that resolve the family's constraint set identically,
jointly covering every real solution.  Verifications that must hold on the
whole constraint variety (e.g. Poisson-Jacobi) run once per chart.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from types import MappingProxyType

from .symkernel import PolyExpr
from .bialgebra import rmatrix_family
from .embed import match_sub_bialgebra
from . import formats
from . import schrodinger


def _v(name):
    return PolyExpr.var(name)


@dataclass(frozen=True)
class FamilySpec:
    rmat_table: str
    charts: tuple                # read-only substitutions solving the constraints
    delta_table: str = None
    ptable: str = None

    def __post_init__(self):
        # the registry is shared by every command in the process
        object.__setattr__(self, "charts",
                           tuple(MappingProxyType(dict(c)) for c in self.charts))


FAMILIES = MappingProxyType({
    "general": FamilySpec(
        rmat_table="general.rmat",
        charts=(),
        delta_table="cocommutators_general.delta",
        ptable="poisson_general.ptable",
    ),
    "d-primitive": FamilySpec(
        rmat_table="d_primitive.rmat",
        charts=({},),
        delta_table="d_primitive.delta",
        ptable="poisson_d_primitive.ptable",
    ),
    "p-primitive": FamilySpec(
        rmat_table="p_primitive.rmat",
        # constraint a1*a4 + a5*c1 = 0, covered by inverting c1 plus the
        # two branches of the c1 = 0 locus
        charts=(
            {"a5": -_v("a1") * _v("a4") / _v("c1")},
            {"c1": 0, "a1": 0},
            {"c1": 0, "a4": 0},
        ),
        delta_table="p_primitive.delta",
        ptable="poisson_p_primitive.ptable",
    ),
    "h-primitive-standard": FamilySpec(
        rmat_table="h_primitive_standard.rmat",
        charts=({},),            # the constraint is built into the r-matrix
        delta_table="h_primitive_standard.delta",
        ptable="poisson_h_primitive_standard.ptable",
    ),
    "h-primitive-nonstandard": FamilySpec(
        rmat_table="h_primitive_nonstandard.rmat",
        charts=({},),
        delta_table="h_primitive_nonstandard.delta",
        ptable="poisson_h_primitive_nonstandard.ptable",
    ),
    "oscillator": FamilySpec(
        rmat_table="oscillator_family.rmat",
        # constraints ap*am = ap*(xi+theta) = am*(xi-theta) = 0
        charts=(
            {"ap": 0, "am": 0},
            {"am": 0, "xi": -_v("theta")},
            {"ap": 0, "xi": _v("theta")},
        ),
        delta_table="oscillator_family.delta",
    ),
    "gl2": FamilySpec(
        rmat_table="gl2_family.rmat",
        charts=(),
        delta_table="gl2_family.delta",
    ),
    "galilei": FamilySpec(
        rmat_table="galilei_family.rmat",
        # constraint beta2*(2*beta4 - xi) = 0
        charts=(
            {"beta2": 0},
            {"xi": 2 * _v("beta4")},
        ),
        delta_table="galilei_family.delta",
    ),
    "hstd-deformation": FamilySpec(
        rmat_table="hstd_deformation.rmat",
        charts=({},),
        delta_table="hstd_deformation.delta",
    ),
})


def load_rmatrix(name):
    """The packaged r-matrix of a family, on the Schrodinger algebra."""
    return formats.table(FAMILIES[name].rmat_table)


def family_of(r):
    """The r-matrix family of ``r``; on the Schrodinger algebra (the
    built-in instance or an equal one) its discriminant is presented on
    the paper's K^M^P."""
    order = (schrodinger.INVARIANT_WEDGE
             if r.algebra == schrodinger.algebra() else None)
    return rmatrix_family(r, invariant_order=order)


@cache
def family(name):
    """The r-matrix family of a registered name, built once per process;
    its parameters are the r-matrix's symbols in sorted order."""
    return family_of(load_rmatrix(name))


# ---------------------------------------------------------------------------
# embedding setups
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmbeddingSpec:
    members: tuple               # parent generators spanning the subalgebra
    target_table: str            # self-contained target cocommutator family
    map_table: str
    bindings_table: str          # expected parent-parameter bindings
    residual_tables: tuple       # expected residual constraint sets


EMBEDDINGS = MappingProxyType({
    "oscillator": EmbeddingSpec(
        members=("D", "P", "K", "M"),
        target_table="oscillator_target.delta",
        map_table="oscillator_embedding.map",
        bindings_table="oscillator_bindings.subs",
        residual_tables=("oscillator_constraints.eqs",),
    ),
    "gl2": EmbeddingSpec(
        members=("D", "H", "C", "M"),
        target_table="gl2_target.delta",
        map_table="gl2_embedding.map",
        bindings_table="gl2_bindings.subs",
        residual_tables=("gl2_constraints.eqs", "gl2_obstruction.eqs"),
    ),
    "galilei": EmbeddingSpec(
        members=("K", "H", "P", "M"),
        target_table="galilei_target.delta",
        map_table="galilei_embedding.map",
        bindings_table="galilei_bindings.subs",
        residual_tables=("galilei_constraint.eqs",),
    ),
})


def run_embedding(name, fam):
    """Match a registered embedding against the family ``fam`` (the general
    family), returning (report, target)."""
    spec = EMBEDDINGS[name]
    target = formats.table(spec.target_table)
    report = match_sub_bialgebra(fam, spec.members, target,
                                 formats.table(spec.map_table))
    return report, target
