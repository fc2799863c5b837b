import json
from fractions import Fraction

import pytest

from blocko import blocks, rootdata

A1 = [[2]]
A2 = [[2, -1], [-1, 2]]
A3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
A4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
B2 = [[2, -2], [-1, 2]]
B3 = [[2, -1, 0], [-1, 2, -2], [0, -1, 2]]
G2 = [[2, -1], [-3, 2]]
A1_AFFINE = [[2, -2], [-2, 2]]
A2_AFFINE = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]


def weight(cartan, *coords, delta=0):
    return rootdata.Weight(
        cartan, tuple(Fraction(c) for c in coords), Fraction(delta)
    )


@pytest.fixture(scope="session")
def a1():
    return rootdata.cartan_datum(A1)


@pytest.fixture(scope="session")
def a2():
    return rootdata.cartan_datum(A2)


@pytest.fixture(scope="session")
def b2():
    return rootdata.cartan_datum(B2)


@pytest.fixture(scope="session")
def a1_affine():
    return rootdata.cartan_datum(A1_AFFINE)


@pytest.fixture(scope="session")
def a1_block(a1):
    return blocks.block_data(a1, weight(a1, 0))


@pytest.fixture(scope="session")
def a2_block(a2):
    return blocks.block_data(a2, weight(a2, 0, 0))


@pytest.fixture(scope="session")
def b2_block(b2):
    return blocks.block_data(b2, weight(b2, 0, 0))


@pytest.fixture()
def cartan_file(tmp_path):
    def write(matrix, name="cartan.json"):
        path = tmp_path / name
        path.write_text(json.dumps({"rank": len(matrix), "matrix": matrix}))
        return str(path)

    return write
