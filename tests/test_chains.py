import copy
import pickle
import random
from fractions import Fraction

import pytest

from conftest import (
    doubled_edge_triangle,
    random_complex,
    random_valid_weight,
    sample_triangle,
    single_edge,
)
from oracles import matmul
from wsimplex import (
    Chain,
    ExactMatrix,
    GaussianRational,
    Simplex,
    adjoint_matrix,
    apply_boundary,
    boundary_matrix,
    build_complex,
    coboundary_matrix,
    identity_weight,
    zero_weight,
)


def test_sample_triangle_boundaries():
    k, phi = sample_triangle()
    b2 = boundary_matrix(k, phi, 2)
    assert b2.shape == (3, 1)
    assert [row[0] for row in b2.data] == [1, -3, 0]  # rows [0,1], [0,2], [1,2]
    b1 = boundary_matrix(k, phi, 1)
    assert [row[0] for row in b1.data] == [-6, 0, 0]
    assert [row[1] for row in b1.data] == [-2, 0, 0]
    assert [row[2] for row in b1.data] == [0, -4, 2]
    assert matmul(b1, b2).is_zero()


def test_boundary_labels():
    k, phi = sample_triangle()
    b2 = boundary_matrix(k, phi, 2)
    assert b2.col_labels == (Simplex((0, 1, 2)),)
    assert b2.row_labels == k.basis(1)


def test_boundary_out_of_range():
    k, phi = sample_triangle()
    assert boundary_matrix(k, phi, 0).shape == (0, 3)
    assert boundary_matrix(k, phi, -1).shape == (0, 0)
    assert boundary_matrix(k, phi, 3).shape == (1, 0)
    assert boundary_matrix(k, phi, 9).shape == (0, 0)


def test_identity_weight_gives_classical_signs():
    k = build_complex([(0, 1, 2)])
    b1 = boundary_matrix(k, identity_weight(k), 1)
    assert [row[0] for row in b1.data] == [-1, 1, 0]
    assert [row[1] for row in b1.data] == [-1, 0, 1]
    assert [row[2] for row in b1.data] == [0, -1, 1]


def test_zero_weight_gives_zero_matrices():
    k = build_complex([(0, 1, 2)])
    phi = zero_weight(k)
    assert boundary_matrix(k, phi, 1).is_zero()
    assert boundary_matrix(k, phi, 2).is_zero()


def test_coboundary_is_transpose():
    k, phi = doubled_edge_triangle()
    d0 = coboundary_matrix(k, phi, 0)
    assert d0.shape == (3, 3)
    assert d0 == boundary_matrix(k, phi, 1).transpose()
    assert d0.row_labels == k.basis(1)
    assert d0.col_labels == k.basis(0)
    # rows: [0,1] -> -2 r0 + r1; [0,2] -> r2 - r0; [1,2] -> r2 - r1
    assert d0.data[0] == [-2, 1, 0]
    assert d0.data[1] == [-1, 0, 1]
    assert d0.data[2] == [0, -1, 1]


def test_adjoint_conjugates():
    m = ExactMatrix([[GaussianRational(1, 2), 3], [0, GaussianRational(0, -1)]])
    a = adjoint_matrix(m)
    assert a[0, 0] == GaussianRational(1, -2)
    assert a[1, 0] == 3
    assert a[0, 1] == 0
    assert a[1, 1] == GaussianRational(0, 1)
    assert adjoint_matrix(a) == m


def test_boundary_squares_to_zero_randomized():
    rng = random.Random(101)
    for _ in range(60):
        k = random_complex(rng)
        phi = random_valid_weight(rng, k)
        for n in range(k.max_dim + 2):
            prod = matmul(boundary_matrix(k, phi, n), boundary_matrix(k, phi, n + 1))
            assert prod.is_zero()


def test_violating_table_breaks_square_zero():
    # the converse direction: corrupt one entry, revalidate by force, and
    # watch the composite fail to vanish
    from conftest import sample_triangle_table
    from wsimplex import WeightFunction

    k = build_complex([(0, 1, 2)])
    table = sample_triangle_table()
    table[(Simplex((0, 2)), 1)] = 5
    phi = WeightFunction(k, table)
    assert phi.validate()  # nonempty violations
    phi._validated = True  # bypass the gate on purpose
    prod = matmul(boundary_matrix(k, phi, 1), boundary_matrix(k, phi, 2))
    assert not prod.is_zero()


def test_apply_boundary_matches_matrix():
    rng = random.Random(55)
    for _ in range(20):
        k = random_complex(rng)
        phi = random_valid_weight(rng, k)
        n = rng.randint(1, max(1, k.max_dim))
        basis = k.basis(n)
        if not basis:
            continue
        coeffs = {s: rng.randint(-4, 4) for s in basis}
        chain = Chain(n, coeffs)
        image = apply_boundary(k, phi, chain)
        matrix = boundary_matrix(k, phi, n)
        vec = [chain.coefficient(s) for s in basis]
        for r, t in enumerate(k.basis(n - 1)):
            expected = sum((matrix[r, c] * vec[c] for c in range(len(vec))),
                           GaussianRational(0))
            assert image.coefficient(t) == expected


def test_apply_boundary_degree_zero():
    k, phi = single_edge()
    out = apply_boundary(k, phi, Chain(0, {(0,): 5}))
    assert out.dimension == -1
    assert out.is_zero()


def test_apply_boundary_rejects_foreign_simplex():
    k, phi = single_edge()
    with pytest.raises(ValueError):
        apply_boundary(k, phi, Chain(1, {(1, 2): 1}))


def test_chain_algebra():
    a = Chain(1, {(0, 1): 1, (1, 2): Fraction(1, 2)})
    b = Chain(1, {(0, 1): -1})
    s = a + b
    assert s.coefficient((0, 1)) == 0
    assert (0, 1) not in s.coefficients  # zeros are dropped
    assert s.coefficient((1, 2)) == Fraction(1, 2)
    assert a.scale(2).coefficient((1, 2)) == 1
    with pytest.raises(ValueError):
        Chain(1, {(0, 1, 2): 1})


def test_chain_and_matrix_pickle_and_copy_round_trip():
    chain = Chain(1, {(0, 1): 2, (1, 2): GaussianRational(Fraction(1, 2), -1)})
    k, phi = sample_triangle()
    matrix = boundary_matrix(k, phi, 2)
    for value in (chain, matrix):
        for again in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                      copy.deepcopy(value)):
            assert type(again) is type(value) and again == value
            assert repr(again) == repr(value)
    again = copy.deepcopy(matrix)
    assert (again.row_labels, again.col_labels) == (matrix.row_labels, matrix.col_labels)
    assert not {id(row) for row in again._entries} & {id(row) for row in matrix._entries}
