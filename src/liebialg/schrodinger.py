"""The built-in Schrodinger algebra and the parameter names of its general
r-matrix.

The algebra, its generator order (D, C, H, K, P, M; all wedge coordinates
and solver output follow it) and its brackets live only in
``tables/schrodinger.alg``, like every other algebra, map and r-matrix.
"""

from __future__ import annotations

from functools import cache

from . import formats

# the 15 free parameters of the general r-matrix (tables/general.rmat)
ALL_PARAMS = ("a1", "a2", "a3", "a4", "a5", "a6",
              "b1", "b2", "b3", "b4", "b5", "b6",
              "c1", "c2", "c3")


@cache
def algebra():
    """The (1+1) centrally extended Schrodinger algebra, parsed from its
    table once per process.  Every caller gets this one read-only instance,
    and with it the ad tables it has built."""
    return formats.parse_algebra(formats.load_table("schrodinger.alg"))
