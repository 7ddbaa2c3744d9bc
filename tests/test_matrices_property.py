"""Property tests of ``ExactMatrix``, which holds one ``{column: value}``
dict of non-zeros per row, against the dense list-of-rows references in
``oracles.py``: every operation on hypothesis matrices over Q(i) of up to
9 x 9, zero rows and 0 x n and n x 0 shapes included, and the rule that
no zero is stored, on which ``==`` of the sparse rows rests.  Under
hypothesis's default profile each test runs 200 derandomized examples;
``HYPOTHESIS_PROFILE=deep`` searches further (see conftest.py).
"""

import os
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
import numpy as np  # noqa: E402
from hypothesis import given, settings, strategies as st  # noqa: E402

from wsimplex import ExactMatrix, GaussianRational  # noqa: E402

from oracles import (  # noqa: E402
    dense_add,
    dense_is_hermitian,
    dense_ndarray,
    dense_rank,
    dense_repr,
    dense_transpose,
)

# a profile named by HYPOTHESIS_PROFILE sets the depth; else 200 fixed examples
SETTINGS = (settings() if os.environ.get("HYPOTHESIS_PROFILE")
            else settings(derandomize=True, max_examples=200, deadline=None))

ZERO = GaussianRational(0)
# entries are drawn from these, zero four times in eleven
REAL = [ZERO] * 4 + [GaussianRational(x) for x in (1, -1, 2, -3, Fraction(1, 2),
                                                   Fraction(-2, 3), Fraction(7, 3))]
COMPLEX = REAL[:7] + [GaussianRational(*x) for x in ((0, 1), (1, -1), (Fraction(3, 2), 2),
                                                     (-2, Fraction(-1, 3)))]


@st.composite
def cases(draw):
    """Two matrices a, b of one shape as dense rows, and the column count.
    Entries are mostly zero, some rows wholly so; a is real or Hermitian
    at times, and b cancels some entries of a, or all of them."""
    # 8 and 9 reach repr's short form past 64 entries
    size = st.integers(0, 5) | st.sampled_from([8, 9])
    rows, cols = draw(size), draw(size)
    palette = draw(st.sampled_from([REAL, COMPLEX]))

    def matrix():
        picks = draw(st.lists(st.integers(0, len(palette) - 1),
                              min_size=rows * cols, max_size=rows * cols))
        blank = draw(st.integers(0, 2**rows - 1))
        return [[ZERO if blank >> i & 1 else palette[picks[i * cols + j]] for j in range(cols)]
                for i in range(rows)]

    a = matrix()
    if rows == cols and draw(st.booleans()):
        a = dense_add(a, dense_transpose(a, cols, conjugate=True))
    b = matrix()
    cancel = draw(st.sampled_from(["none", "some", "all"]))
    if cancel != "none":
        flips = draw(st.integers(0, 2**(rows * cols) - 1)) if cancel == "some" else -1
        b = [[-x if flips >> (i * cols + j) & 1 else y for j, (x, y) in enumerate(zip(r, s))]
             for i, (r, s) in enumerate(zip(a, b))]
    return a, b, cols


def assert_no_zero_stored(m: ExactMatrix) -> None:
    assert all(x for row in m._entries for x in row.values())


@SETTINGS
@given(cases())
def test_operations_match_the_dense_reference_property(case):
    a, b, cols = case
    m, n = ExactMatrix(a, cols=cols), ExactMatrix(b, cols=cols)
    assert m.shape == (len(a), cols)
    assert m.data == a
    assert all(m[i, j] == a[i][j] for i in range(len(a)) for j in range(cols))
    assert repr(m) == dense_repr(a, cols)
    assert m.is_zero() == (not any(x for row in a for x in row))
    assert m.is_hermitian() == dense_is_hermitian(a, cols)
    assert m.rank() == dense_rank(a, cols)
    array, reference = m.to_ndarray(), dense_ndarray(a, cols)
    assert array.dtype == reference.dtype and np.array_equal(array, reference)
    assert (m == n) == (a == b)
    assert m == ExactMatrix(a, cols=cols) and not m != ExactMatrix(a, cols=cols)

    total = m + n
    assert total.data == dense_add(a, b)
    assert total == ExactMatrix(dense_add(a, b), cols=cols)
    assert_no_zero_stored(total)
    for conjugate in (False, True):
        t = m.conj_transpose() if conjugate else m.transpose()
        assert t.shape == (cols, len(a))
        assert t.data == dense_transpose(a, cols, conjugate)
        assert t == ExactMatrix(dense_transpose(a, cols, conjugate), cols=len(a))
        assert t.rank() == m.rank()


@SETTINGS
@given(cases())
def test_constructor_drops_zeros_property(case):
    a, b, cols = case
    m = ExactMatrix(a, cols=cols)
    assert_no_zero_stored(m)
    assert [sorted(row) for row in m._entries] == [
        [j for j, x in enumerate(row) if x] for row in a]
    negated = ExactMatrix([[-x for x in row] for row in a], cols=cols)
    difference = m + negated
    assert difference.is_zero() and not any(difference._entries)
    assert difference == ExactMatrix([[0] * cols for _ in a], cols=cols)
    # the private constructor keeps the rows it is handed
    rows = [{j: x for j, x in enumerate(row) if x} for row in a]
    built = ExactMatrix._from_rows(rows, cols)
    assert built == m and built._entries is rows


def test_labels_follow_the_operations():
    m = ExactMatrix([[1, 0, 2], [0, 0, 0]], row_labels="ab", col_labels="xyz")
    assert m.transpose().row_labels == tuple("xyz")
    assert m.conj_transpose().col_labels == tuple("ab")
    bare = ExactMatrix([[0, 0, 1], [3, 0, 0]])
    assert (bare + m).row_labels == tuple("ab") and (m + bare).col_labels == tuple("xyz")
    with pytest.raises(ValueError, match="shape mismatch"):
        m + m.transpose()


def test_data_is_a_fresh_copy():
    m = ExactMatrix([[1, 0], [0, GaussianRational(0, 1)]])
    m.data[0][0] = GaussianRational(7)
    m.data.append([GaussianRational(7)] * 2)
    assert m == ExactMatrix([[1, 0], [0, GaussianRational(0, 1)]]) and m.shape == (2, 2)
    with pytest.raises(AttributeError):
        m.data = [[5, 5], [5, 5]]
