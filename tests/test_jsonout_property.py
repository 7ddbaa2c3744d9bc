"""Property tests of the command line's JSON writer (``wsimplex.jsonout``)
against ``json.dumps(value, indent=2)``: nested dicts and lists of str,
int, bool, None and float, with -0.0, 1e16, 1e22, 5e-324, nan and +-inf
and strings holding non-ASCII and control characters; numpy arrays against
the per-float spelling of their 12-digit rounding (``oracles.float_text``),
with the entries whose bulk ``.12g`` text differs from it (integer values,
|x| >= 1e12, subnormals, nan and inf), values one ulp from a 12-digit tie,
random exponents across the whole double range and shapes that span
several blocks of rows; and exact matrices against their dense rows of
strings.  Under
hypothesis's default profile each test runs 100 derandomized examples;
``HYPOTHESIS_PROFILE=deep`` searches further (see conftest.py).
"""

import json
import os

import pytest

pytest.importorskip("hypothesis")
import numpy as np  # noqa: E402
from hypothesis import given, settings, strategies as st  # noqa: E402

from oracles import float_text, rounded_lists  # noqa: E402
from wsimplex import ExactMatrix, GaussianRational  # noqa: E402
from wsimplex.jsonout import _BLOCK, dump  # noqa: E402

# a profile named by HYPOTHESIS_PROFILE sets the depth; else 100 fixed examples
SETTINGS = (settings() if os.environ.get("HYPOTHESIS_PROFILE")
            else settings(derandomize=True, max_examples=100, deadline=None))

EDGE_FLOATS = [0.0, -0.0, 1e16, 1e22, 5e-324, -5e-324, 1.7976931348623157e308,
               float("nan"), float("inf"), float("-inf"), 0.1, 123456789012.5,
               # integer values, the 1e12..1e16 band, a 12-digit subnormal
               13.0, -7.0, 999999999999.7, 1e13, 123456789012345.0, 1e-310,
               # near-integers, and one ulp either side of a 12-digit tie
               0.99999999999995, 9.999999999996,
               float(np.nextafter(0.1234567890125, np.inf)),
               float(np.nextafter(0.1234567890125, -np.inf))]
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


@SETTINGS
@given(arrays(), st.integers(0, 3))
def test_arrays_match_the_rounded_lists_property(a, depth):
    wrapped, reference = a, rounded_lists(a)
    for _ in range(depth):
        wrapped, reference = {"k": [wrapped]}, {"k": [reference]}
    assert dumped(wrapped) == json.dumps(reference, indent=2) + "\n"


def random_exponents(rng, size: int):
    """Floats of either sign whose binary exponents are drawn uniformly over
    the whole double range, subnormals included, with an edge float at
    about every tenth entry."""
    x = np.ldexp(rng.uniform(0.5, 1.0, size) * rng.choice([-1.0, 1.0], size),
                 rng.integers(-1073, 1025, size))
    edge = rng.random(size) < 0.1
    x[edge] = rng.choice(EDGE_FLOATS, int(edge.sum()))
    return x


def test_each_float_is_spelled_as_its_rounding():
    """A vector prints as the per-float spelling of its 12-digit rounding,
    compared text for text: random exponents, near-integers, round numbers
    and the edge floats."""
    rng = np.random.default_rng(23)
    x = np.concatenate([random_exponents(rng, 20000), EDGE_FLOATS,
                        np.round(rng.standard_normal(2000) * 10.0 ** rng.integers(0, 17, 2000)),
                        rng.integers(-9, 10, 2000) * (1 + rng.uniform(-1e-11, 1e-11, 2000))])
    out = dumped({"v": x}).splitlines()[2:-2]
    assert [line.strip().rstrip(",") for line in out] == list(map(float_text, x.tolist()))


@pytest.mark.parametrize("shape, kind", [
    ((2 * (_BLOCK // 30) + 7, 30), float),  # three blocks of rows, the last partial
    ((3, _BLOCK // 2 + 1), complex),        # a row of more floats than a block
    ((1, _BLOCK + 1), float),               # one row wider than a block
    ((2, 3), complex),
], ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else v.__name__)
def test_blocks_of_rows_match_the_rounded_lists(shape, kind):
    """A 2-d array prints one block of rows at a time; the text is the same
    across block boundaries, and for the transposed array."""
    rng = np.random.default_rng(29)
    a = np.empty(shape, dtype=kind)
    a.real = random_exponents(rng, a.size).reshape(shape)
    if kind is complex:
        a.imag = random_exponents(rng, a.size).reshape(shape)
    for b in (a, a.T):
        assert dumped(b) == json.dumps(rounded_lists(b), indent=2) + "\n"


@SETTINGS
@given(st.integers(0, 4), st.integers(0, 4), st.data())
def test_sparse_rows_match_the_dense_lists_property(rows, width, data):
    """An ExactMatrix, held as sparse rows, prints as its dense rows of str."""
    text = [[data.draw(st.sampled_from(["0", "0", "1", "-3", "2/3", "1-2i"]))
             for _ in range(width)] for _ in range(rows)]
    matrix = ExactMatrix([list(map(GaussianRational.from_string, row)) for row in text],
                         cols=width)
    assert dumped({"entries": matrix}) == json.dumps({"entries": text}, indent=2) + "\n"
