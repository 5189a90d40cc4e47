import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gnetcode import Field, classical_channel, table_channel, toy_channel


def hamming_7_4_codewords():
    """The 16 words of the [7,4] binary Hamming code, systematic generator."""
    g = ((1, 0, 0, 0, 1, 1, 0),
         (0, 1, 0, 0, 1, 0, 1),
         (0, 0, 1, 0, 0, 1, 1),
         (0, 0, 0, 1, 1, 1, 1))
    words = set()
    for mask in range(16):
        w = (0,) * 7
        for i in range(4):
            if (mask >> i) & 1:
                w = tuple(a ^ b for a, b in zip(w, g[i]))
        words.add(w)
    return sorted(words)


def disjoint_images_channel():
    """F(x, z) = (x, z): the codeword images never intersect."""
    gf2 = Field(2)
    table = {((x,), (z,)): (x, z) for x in range(2) for z in range(2)}
    return table_channel(gf2, [(0,), (1,)], 1, 2, table)


@pytest.fixture(scope="session")
def gf2():
    return Field(2)


@pytest.fixture(scope="session")
def gf3():
    return Field(3)


@pytest.fixture(scope="session")
def toy():
    return toy_channel()


@pytest.fixture(scope="session")
def repetition(gf2):
    return classical_channel(gf2, [(0, 0, 0), (1, 1, 1)])


@pytest.fixture(scope="session")
def hamming_code_channel(gf2):
    return classical_channel(gf2, hamming_7_4_codewords())
