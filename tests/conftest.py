import pytest

from liebialg import schrodinger, families, formats


@pytest.fixture(scope="session")
def L():
    return schrodinger.algebra()


@pytest.fixture(scope="session")
def general_family(L):
    return families.family("general", L)


@pytest.fixture(scope="session")
def basis_flip(L):
    """The order-two automorphism as a matrix over L's basis
    (tables/basis_flip.map)."""
    images = formats.parse_map(formats.load_table("basis_flip.map"), L)
    return [[c.const_value() for c in images[g].coeffs] for g in L.names]
