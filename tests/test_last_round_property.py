"""The draw kernel's skipped mixer round, as a property of 64-bit words.

SplitMix64's last round z ^= z >> 31 flips bits 32..0 of z only, so it
changes no compare z >= T with a threshold T whose low 33 bits are 0;
simulate._thresholds skips the round when every threshold is such a word.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

MASK64 = (1 << 64) - 1
LOW33 = (1 << 33) - 1

# thresholds with their low 33 bits 0, from 0 to 2**64 - 2**33
thresholds = st.integers(0, (1 << 31) - 1).map(lambda k: k << 33)
words = st.integers(0, MASK64)


@st.composite
def word_and_threshold(draw):
    """A threshold T and a word z, half of the time within 2**33 of T."""
    t = draw(thresholds)
    if draw(st.booleans()):
        return draw(words), t
    return (t + draw(st.integers(-(1 << 33), 1 << 33))) & MASK64, t


def last_round(z: int) -> int:
    return z ^ (z >> 31)


@settings(max_examples=2000, deadline=None)
@given(word_and_threshold())
def test_last_round_changes_no_compare(pair):
    z, t = pair
    assert (last_round(z) >= t) == (z >= t)


@settings(max_examples=200, deadline=None)
@given(st.lists(word_and_threshold(), min_size=1, max_size=64))
def test_last_round_changes_no_uint64_compare(pairs):
    z = np.array([p[0] for p in pairs], dtype=np.uint64)
    t = np.array([p[1] for p in pairs], dtype=np.uint64)
    assert np.array_equal((z ^ (z >> np.uint64(31))) >= t, z >= t)


def test_a_low_bit_makes_the_round_visible():
    # the premise is needed: T = 2**33 + 1 and z = 2**33 differ after the round
    z, t = 1 << 33, (1 << 33) + 1
    assert t & LOW33 and (last_round(z) >= t) != (z >= t)
