import pytest

from liebialg import schrodinger, families, formats


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
