"""The built-in Schrodinger algebra and the parameter names of its general
r-matrix.

Generator order for the centrally extended Schrodinger algebra is fixed to
D, C, H, K, P, M; all wedge coordinates and solver output follow it.  Every
other algebra, map and r-matrix lives only in ``tables/``.
"""

from __future__ import annotations

from .liealg import LieAlgebra

GENERATORS = ("D", "C", "H", "K", "P", "M")

_BRACKETS = {
    ("D", "P"): {"P": -1},
    ("D", "K"): {"K": 1},
    ("K", "P"): {"M": 1},
    ("D", "H"): {"H": -2},
    ("D", "C"): {"C": 2},
    ("H", "C"): {"D": 1},
    ("K", "H"): {"P": 1},
    ("P", "C"): {"K": -1},
}

# the 15 free parameters of the general r-matrix (tables/general.rmat)
ALL_PARAMS = ("a1", "a2", "a3", "a4", "a5", "a6",
              "b1", "b2", "b3", "b4", "b5", "b6",
              "c1", "c2", "c3")


def algebra():
    """The (1+1) centrally extended Schrodinger algebra."""
    return LieAlgebra(GENERATORS, _BRACKETS)
