"""Integer ranges of grid flags are exact, as a property of Python ints.

A start:stop:step range read by cli.integer holds the points of
range(start, stop + 1, step) at any magnitude; a float range would round
ends past 2**53 and add a slack past the stop.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ncsums.cli import GRID_POINT_LIMIT, _parse_grid, integer  # noqa: E402
from ncsums.errors import InputError  # noqa: E402

END = 1 << 70
ends = st.integers(-END, END)


@st.composite
def int_range(draw):
    """(start, stop, step): half of the time a range of 1 to 64 points, else
    any ends, which mostly give an empty range or one past the point limit."""
    start, step = draw(ends), draw(st.integers(1, END))
    if draw(st.booleans()):
        return start, draw(ends), step
    points, past = draw(st.integers(1, 64)), draw(st.integers(0, step - 1))
    return start, start + (points - 1) * step + past, step


@settings(max_examples=500, deadline=None)
@given(int_range())
# past 2**40 a 1e-12 relative slack is wider than the step
@example((2000000000000, 2000000000002, 1))
# past 2**53 floats skip odd integers
@example((9007199254740993, 9007199254740997, 2))
def test_integer_range_is_exact(bounds):
    start, stop, step = bounds
    text = f"{start}:{stop}:{step}"
    count = max(0, (stop - start) // step + 1)
    if count == 0:
        with pytest.raises(InputError, match="is empty"):
            _parse_grid(text, integer)
    elif count > GRID_POINT_LIMIT:
        with pytest.raises(InputError, match=f"has more than {GRID_POINT_LIMIT} points"):
            _parse_grid(text, integer)
    else:
        assert _parse_grid(text, integer) == list(range(start, stop + 1, step))

