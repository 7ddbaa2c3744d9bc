"""Property tests of the command line's JSON writer (``wsimplex.jsonout``)
against ``json.dumps(value, indent=2)``: nested dicts and lists of str,
int, bool, None and float, with -0.0, 1e16, 1e22, 5e-324, nan and +-inf
and strings holding non-ASCII and control characters; numpy vectors against
the 12-digit rounding the command line printed before; and exact
matrices against their dense rows of strings.  Under
hypothesis's default profile each test runs 100 derandomized examples;
``HYPOTHESIS_PROFILE=deep`` searches further (see conftest.py).
"""

import json
import os

import pytest

pytest.importorskip("hypothesis")
import numpy as np  # noqa: E402
from hypothesis import given, settings, strategies as st  # noqa: E402

from wsimplex import ExactMatrix, GaussianRational  # noqa: E402
from wsimplex.jsonout import dump  # noqa: E402

# a profile named by HYPOTHESIS_PROFILE sets the depth; else 100 fixed examples
SETTINGS = (settings() if os.environ.get("HYPOTHESIS_PROFILE")
            else settings(derandomize=True, max_examples=100, deadline=None))

EDGE_FLOATS = [0.0, -0.0, 1e16, 1e22, 5e-324, -5e-324, 1.7976931348623157e308,
               float("nan"), float("inf"), float("-inf"), 0.1, 123456789012.5]
floats = st.floats() | st.sampled_from(EDGE_FLOATS)
texts = st.text() | st.sampled_from(["", "\x00", "\x1f\x7f", "\"\\/", "é \U0001f600",
                                     "\ud800", "tab\there\nline"])
leaves = st.none() | st.booleans() | st.integers() | floats | texts
# homogeneous lists take the writer's one-join paths
flat_lists = (st.lists(st.integers()) | st.lists(floats) | st.lists(texts)
              | st.lists(st.booleans() | st.integers()))
values = st.recursive(
    leaves | flat_lists,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(texts, inner, max_size=5)),
    max_leaves=20)


def dumped(value) -> str:
    parts = []
    dump(value, parts.append)
    return "".join(parts)


@SETTINGS
@given(values)
def test_writer_matches_json_dumps_property(value):
    assert dumped(value) == json.dumps(value, indent=2) + "\n"


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


@st.composite
def arrays(draw):
    """A real or complex vector or 2-d array, edge floats mixed in."""
    shape = draw(st.sampled_from([(0,), (1,), (5,), (0, 0), (3, 0), (2, 4)]))
    size = int(np.prod(shape))
    parts = [draw(st.lists(floats, min_size=size, max_size=size))
             for _ in range(draw(st.integers(1, 2)))]
    a = np.empty(shape, dtype=float if len(parts) == 1 else complex)
    a.real = np.reshape(parts[0], shape)
    if len(parts) == 2:
        a.imag = np.reshape(parts[1], shape)
    return a


def _reference(a):
    """The nested list the command line printed for a numpy array before:
    12 significant digits, [re, im] per complex entry, rows of a 2-d array."""
    if a.ndim == 2:
        return [_reference(row) for row in a]
    if a.dtype.kind == "c":
        return [[_sig12(x), _sig12(y)] for x, y in zip(a.real.tolist(), a.imag.tolist())]
    return [_sig12(x) for x in a.tolist()]


@SETTINGS
@given(arrays(), st.integers(0, 3))
def test_arrays_match_the_rounded_lists_property(a, depth):
    wrapped, reference = a, _reference(a)
    for _ in range(depth):
        wrapped, reference = {"k": [wrapped]}, {"k": [reference]}
    assert dumped(wrapped) == json.dumps(reference, indent=2) + "\n"


@SETTINGS
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_sparse_rows_match_the_dense_lists_property(rows, width, data):
    """An ExactMatrix, held as sparse rows, prints as its dense rows of str."""
    text = [[data.draw(st.sampled_from(["0", "0", "1", "-3", "2/3", "1-2i"]))
             for _ in range(width)] for _ in range(rows)]
    matrix = ExactMatrix([list(map(GaussianRational.from_string, row)) for row in text],
                         cols=width)
    assert dumped({"entries": matrix}) == json.dumps({"entries": text}, indent=2) + "\n"
