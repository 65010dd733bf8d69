import pytest

from liebialg import schrodinger, families, formats
from liebialg.symkernel import rref


@pytest.fixture(scope="session")
def L():
    return schrodinger.algebra()


@pytest.fixture(scope="session")
def general_family(L):
    return families.family("general")


@pytest.fixture(scope="session")
def basis_flip(L):
    """The order-two automorphism as the images of L's generators, in
    generator order (tables/basis_flip.map)."""
    images = formats.parse_map(formats.load_table("basis_flip.map"), L)
    return [images[g] for g in L.names]


# ---------------------------------------------------------------------------
# dense matrices for the sparse linear algebra
# ---------------------------------------------------------------------------

def sparse(rows):
    """Dense rows as the ``{column: value}`` rows of ``symkernel``, zero
    entries left out."""
    return [{j: v for j, v in enumerate(row) if v} for row in rows]


def dense_rref(rows):
    """The rref of dense rows read back as dense: (the pivot rows, each a
    list over every column with ``int`` 0 off its support, the pivot
    columns in ascending order)."""
    ncols = len(rows[0]) if rows else 0
    red = rref(sparse(rows))
    return [[row.get(j, 0) for j in range(ncols)] for row in red.values()], \
        list(red)
