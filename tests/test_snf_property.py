"""Property test of the sparse-row Smith normal form against the dense
loop it replaced (``oracles.dense_smith_normal_form``), on hypothesis
matrices of up to 8 x 8 with entries up to 10^12, empty shapes included.
Under hypothesis's default profile it runs 300 derandomized examples;
``HYPOTHESIS_PROFILE=deep`` searches further (see conftest.py).
"""

import os

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from oracles import assert_matches_dense, snf_input  # noqa: E402

# a profile named by HYPOTHESIS_PROFILE sets the depth; else 300 fixed examples
SETTINGS = (settings() if os.environ.get("HYPOTHESIS_PROFILE")
            else settings(derandomize=True, max_examples=300, deadline=None))


@st.composite
def matrices(draw):
    """Up to 8 x 8 integer rows and their column count: one magnitude
    bound per matrix, and a bit mask that zeroes entries."""
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    big = draw(st.sampled_from([1, 9, 10**3, 10**12]))
    size = rows * cols
    flat = draw(st.lists(st.integers(-big, big), min_size=size, max_size=size))
    zeros = draw(st.integers(0, 2**size - 1))
    flat = [0 if zeros >> k & 1 else x for k, x in enumerate(flat)]
    return [flat[i * cols:(i + 1) * cols] for i in range(rows)], cols


@SETTINGS
@given(matrices())
def test_matches_dense_loop_property(case):
    assert_matches_dense(snf_input(*case))
