"""The built-in Schrodinger algebra.

The algebra, its generator order (D, C, H, K, P, M; all wedge coordinates
and solver output follow it) and its brackets live only in
``tables/schrodinger.alg``, like every other algebra, map and r-matrix.
"""

from __future__ import annotations

from . import formats

# The paper's presentation of the one ad-invariant direction of Lambda^3:
# a family's discriminant is the Schouten coefficient on K^M^P.
INVARIANT_WEDGE = ("K", "M", "P")


def algebra():
    """The (1+1) centrally extended Schrodinger algebra, parsed from its
    table once per process.  Every caller gets this one read-only instance,
    and with it the ad tables it has built."""
    return formats.table("schrodinger.alg")
