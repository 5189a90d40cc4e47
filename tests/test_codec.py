"""The output codec, exhaustively on small spaces and sampled on wide words.

For every space: decode(encode(y)) == y and distinct words get distinct
codes, over the whole space; code addition agrees with the space's checked
addition, on every pair of a space of at most 141 words and on 20,000
sampled pairs of a larger one; the zero word's code is 0; and the bulk
packer agrees with ``encode``.
"""

import math
import random

import pytest

from gnetcode import Field, MatrixSpace, VectorSpace
from gnetcode.codec import Codec

SMALL = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]
SPACES = ([VectorSpace(Field(p, k), n) for p, k in SMALL for n in (1, 2, 3)]
          + [MatrixSpace(Field(p, k), r, c) for p, k in SMALL
             for r, c in ((1, 2), (2, 1), (2, 2)) if (p ** k) ** (r * c) <= 6561])


def _id(space):
    return f"GF({space.field.q})^{'x'.join(map(str, space.shape))}"


@pytest.mark.parametrize("space", SPACES, ids=_id)
def test_codec_round_trips_and_adds_exhaustively(space):
    codec = Codec(space)
    words = list(space.elements())
    codes = codec.encode_all(words)
    assert codes == [codec.encode(y) for y in words]
    assert [codec.decode(c) for c in codes] == words
    assert len(set(codes)) == len(words)
    assert codec.encode(space.zero()) == 0
    code_of = dict(zip(words, codes))
    if len(words) ** 2 <= 20_000:
        pairs = [(a, b) for a in words for b in words]
    else:
        rng = random.Random(_id(space))
        pairs = [(rng.choice(words), rng.choice(words)) for _ in range(20_000)]
    for a, b in pairs:
        assert codec.add(code_of[a], code_of[b]) == code_of[space.add(a, b)]


def _sample(space, count=3000):
    """``count`` seeded random words of ``space``."""
    rng = random.Random(_id(space))
    cols = space.shape[-1]
    words = []
    for _ in range(count):
        flat = tuple(rng.randrange(space.field.q) for _ in range(math.prod(space.shape)))
        words.append(flat if len(space.shape) == 1
                     else tuple(flat[i:i + cols] for i in range(0, len(flat), cols)))
    return words


# words of more than 8 bytes, symbols of 2 bytes (GF(9), GF(251), GF(512))
WIDE = [VectorSpace(Field(2), 10), VectorSpace(Field(3), 9), VectorSpace(Field(3, 2), 5),
        VectorSpace(Field(251), 3), VectorSpace(Field(251), 5),
        VectorSpace(Field(2, 9, max_size=512), 3)]


@pytest.mark.parametrize("space", WIDE + [MatrixSpace(Field(251), 2, 2)], ids=_id)
def test_codec_on_sampled_wide_words(space):
    """Sampled, since the spaces are large; p >= 128 takes 16-bit digits."""
    codec = Codec(space)
    words = _sample(space)
    codes = codec.encode_all(words)
    assert [codec.decode(c) for c in codes] == words
    assert len(set(codes)) == len(set(words))
    for a, b, ca, cb in zip(words, words[1:], codes, codes[1:]):
        assert codec.add(ca, cb) == codec.encode(space.add(a, b))
