import pytest

from frobqec import identity_form, make_chain_ring, make_product, make_space, make_zm


def std_space(ring, k, n):
    return make_space(ring, k, n, identity_form(ring, k))


def vectors(space):
    """Every vector of the space as a tuple, in index order."""
    return [tuple(row) for row in space.coords.tolist()]


def apply_by_hand(space, g, v):
    """Reference: the k x k matrix g applied to each k-block of v, one
    ring operation at a time."""
    ring, k = space.ring, space.k
    out = []
    for base in range(0, len(v), k):
        for i in range(k):
            acc = ring.zero
            for j in range(k):
                acc = ring.add(acc, ring.mul(g[i][j], v[base + j]))
            out.append(acc)
    return tuple(out)


@pytest.fixture(scope="session")
def z2():
    return make_zm(2)


@pytest.fixture(scope="session")
def z3():
    return make_zm(3)


@pytest.fixture(scope="session")
def z4():
    return make_zm(4)


@pytest.fixture(scope="session")
def f2u():
    return make_chain_ring(2, 2)


@pytest.fixture(scope="session")
def z6():
    return make_product(make_zm(2), make_zm(3))


@pytest.fixture(scope="session")
def z2_line(z2):
    return std_space(z2, 1, 1)


@pytest.fixture(scope="session")
def z4_line(z4):
    return std_space(z4, 1, 1)


@pytest.fixture(scope="session")
def z4_pair(z4):
    return std_space(z4, 1, 2)


@pytest.fixture(scope="session")
def f2u_line(f2u):
    return std_space(f2u, 1, 1)


@pytest.fixture(scope="session")
def f2u_plane(f2u):
    return std_space(f2u, 2, 1)
