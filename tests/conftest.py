import pytest

from heckespecht import Cyclotomic, PrimeField, prime_extension_auto

# the fields the ROADMAP sweeps: e = 2, 3 and 4 over Q(q), q = -1 in
# characteristics 2 and 3, a prime extension and a generic q
ROADMAP_FIELDS = (
    "cyclotomic:e=2", "cyclotomic:e=3", "cyclotomic:e=4",
    "p=2,q=1", "p=3,q=2", "ext:p=2,e=3", "p=97,q=3",
)


@pytest.fixture(scope="session")
def cyclo3():
    return Cyclotomic(3)


@pytest.fixture(scope="session")
def cyclo4():
    return Cyclotomic(4)


@pytest.fixture(scope="session")
def f7q2():
    return PrimeField(7, 2)


@pytest.fixture(scope="session")
def f97q3():
    # large prime with q of large order: behaves like a generic q
    return PrimeField(97, 3)


@pytest.fixture(scope="session")
def ext23():
    return prime_extension_auto(2, 3)
