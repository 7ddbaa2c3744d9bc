"""The diagonal-only Smith normal form against three references.

``smith_normal_form(m)`` without transforms eliminates in its own pivot
order (drop, 2x2 gcd and division steps on a sparse pivot) and reads the
invariant factors off the recorded pivots through a coprime base.  The
diagonal is unique, so it must equal:

* the diagonal of ``smith_normal_form(m, transforms=True)``, which reaches
  the divisibility chain from the same pivots by 2x2 gcd steps;
* the dense loop ``oracles.dense_smith_normal_form``;
* sympy's invariant factors over ZZ (skipped without sympy).

The matrices are drawn with no unit entry (values from {2, 3, 4, 6, 9, 12,
18}, the entries of the CFW boundaries that force non-unit pivots), with
40-100-bit entries, with zero rows and columns, and in the empty shapes.
Cycles with wide weights are checked against the polygon closed form.
Under hypothesis's default profile each property runs a fixed, derandomized
set of 60-150 examples; ``HYPOTHESIS_PROFILE=deep`` searches further (see
conftest.py).
"""

import os
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from wsimplex import (  # noqa: E402
    boundary_matrix,
    make_ngon,
    ngon_homology_closed_form,
    smith_normal_form,
)
from wsimplex.homology import weighted_homology  # noqa: E402

from oracles import dense_smith_normal_form, snf_input, sympy_invariant_factors  # noqa: E402


def fixed(count):
    """The SETTINGS of the other property tests with ``count`` examples: a
    profile named by HYPOTHESIS_PROFILE sets the depth; else ``count``
    fixed examples."""
    return (settings() if os.environ.get("HYPOTHESIS_PROFILE")
            else settings(derandomize=True, max_examples=count, deadline=None))


NO_UNITS = [2, 3, 4, 6, 9, 12, 18]


@st.composite
def matrices(draw, max_side):
    """Integer rows and their column count, up to max_side x max_side, some
    rows and columns all zero: entries with no unit, or of 40-100 bits, or
    small with units among them."""
    rows, cols = draw(st.integers(0, max_side)), draw(st.integers(0, max_side))
    kind = draw(st.sampled_from(["no units", "wide", "small"]))
    if kind == "no units":
        entry = st.sampled_from(NO_UNITS).flatmap(lambda v: st.sampled_from([v, -v]))
    elif kind == "wide":
        bits = draw(st.integers(40, 100))
        entry = st.integers(-2 ** bits, 2 ** bits)
    else:
        entry = st.integers(-3, 3)
    size = rows * cols
    flat = draw(st.lists(entry, min_size=size, max_size=size))
    zeros = draw(st.integers(0, 2 ** size - 1))
    flat = [0 if zeros >> k & 1 else x for k, x in enumerate(flat)]
    matrix = [flat[i * cols:(i + 1) * cols] for i in range(rows)]
    # whole zero rows and columns, beside the zeros of the mask
    for i in draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=2)) if rows else ():
        matrix[i] = [0] * cols
    for j in draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=2)) if cols else ():
        for row in matrix:
            row[j] = 0
    return matrix, cols


def assert_diagonal(matrix, cols):
    plain = smith_normal_form(snf_input(matrix, cols))
    chain = smith_normal_form(snf_input(matrix, cols), transforms=True)
    assert (plain.diagonal, plain.rank) == (chain.diagonal, chain.rank)
    assert plain.U is plain.V is None
    assert len(plain.diagonal) == min(len(matrix), cols)
    return plain


def test_empty_shapes_and_zero_matrices():
    for rows, cols in ((0, 0), (0, 4), (4, 0), (3, 5)):
        plain = assert_diagonal([[0] * cols for _ in range(rows)], cols)
        assert (plain.diagonal, plain.rank) == ([0] * min(rows, cols), 0)


def test_steps_that_need_more_than_a_schur_step():
    """Fixed cases for each step outcome: a pivot that divides its row and
    column is dropped, non-unit ones included (every case); one that does
    not, in a column with one other entry, takes the 2x2 gcd step (the
    first three cases and the last); one that does not, in a column with
    no other entry or more, runs the division pass (the second and third,
    after their 2x2 step).  Some pivots are recorded out of valuation
    order, so the coprime base has to sort them."""
    cases = {
        ((2, 4), (3, 0)): [1, 12],
        ((2, 3), (4, 0)): [1, 12],
        ((4, 6, 0), (6, 0, 9), (0, 9, 4)): [1, 1, 468],
        ((12, 0), (0, 18)): [6, 36],
        ((4, 0, 0), (0, 6, 0), (0, 0, 9)): [1, 6, 36],
        ((2, 0, 0), (0, 3, 0), (0, 0, 4)): [1, 2, 12],
        ((6, 9), (-9, 12)): [3, 51],
    }
    for block, diagonal in cases.items():
        matrix = [list(row) for row in block]
        assert assert_diagonal(matrix, len(matrix[0])).diagonal == diagonal, block
        assert dense_smith_normal_form(matrix).diagonal == diagonal, block


@fixed(150)
@given(matrices(max_side=10))
def test_diagonal_matches_the_chain_loop(case):
    assert_diagonal(*case)


@fixed(150)
@given(matrices(max_side=8))
def test_diagonal_matches_the_dense_loop(case):
    matrix, cols = case
    dense = dense_smith_normal_form(matrix, cols=cols)
    plain = smith_normal_form(snf_input(matrix, cols))
    assert (plain.diagonal, plain.rank) == (dense.diagonal, dense.rank)


@fixed(60)
@given(matrices(max_side=7))
def test_diagonal_matches_sympy(case):
    matrix, cols = case
    assert (smith_normal_form(snf_input(matrix, cols)).diagonal
            == sympy_invariant_factors(matrix, cols))


def cycle_boundary(alphas):
    complex, phi = make_ngon(alphas)
    return complex, phi, boundary_matrix(complex, phi, 1)


@fixed(60)
@given(st.integers(3, 60).flatmap(lambda n: st.tuples(
    st.integers(8, 100).flatmap(lambda bits: st.lists(
        st.integers(1, 2 ** bits), min_size=n, max_size=n)),
    st.lists(st.sampled_from([1, 2, 3, 4, 6, 12]), min_size=n, max_size=n))))
def test_wide_weight_cycles_match_the_closed_form(case):
    """Wide weights times small shared factors, so both coprime and shared
    primes appear among the vertex weights."""
    wide, shared = case
    alphas = [a * b for a, b in zip(wide, shared)]
    complex, phi, d1 = cycle_boundary(alphas)
    closed = ngon_homology_closed_form(alphas)
    group = weighted_homology(complex, phi, 0)
    assert (group.torsion, group.free_rank) == (closed.torsion, closed.free_rank)
    plain = smith_normal_form(d1)
    assert [d for d in plain.diagonal if d > 1] == closed.torsion


def test_seeded_cycles_and_zero_weights():
    """Seeded cycles whose weights share a few wide primes, and cycles with
    zero weights, against the closed form and the transforms path."""
    rng = random.Random(2027)
    primes = [2**61 - 1, 2**89 - 1, 3, 5]
    for trial in range(40):
        n = rng.randint(3, 40)
        alphas = [rng.choice(primes) ** rng.randint(0, 2) * rng.choice(primes)
                  * rng.choice([0, 1, 1, 1, -1]) for _ in range(n)]
        complex, phi, d1 = cycle_boundary(alphas)
        closed = ngon_homology_closed_form(alphas)
        plain = smith_normal_form(d1)
        assert [d for d in plain.diagonal if d > 1] == closed.torsion, alphas
        assert n - plain.rank == closed.free_rank, alphas
        if n <= 12:
            assert plain.diagonal == smith_normal_form(d1, transforms=True).diagonal
