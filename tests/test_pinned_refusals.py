"""Refusals and small values that no other test reaches: each message and
exception type is pinned as the library words it, so a change that moves
a check keeps its words."""

import numpy as np
import pytest

from wsimplex import Chain, ExactMatrix, GaussianRational, SimplicialComplex, WeightFunction
from wsimplex.jsonout import dump
from wsimplex.weights import identity_weight


def test_ragged_rows_are_refused():
    with pytest.raises(ValueError, match="^ragged rows$"):
        ExactMatrix([[1, 2], [3]])


def test_label_counts_must_match_the_matrix():
    with pytest.raises(ValueError, match="^row label count mismatch$"):
        ExactMatrix([[1, 2]], row_labels=["a", "b"])
    with pytest.raises(ValueError, match="^column label count mismatch$"):
        ExactMatrix([[1, 2]], col_labels=["a"])


def test_chains_of_different_dimensions_do_not_add():
    with pytest.raises(ValueError, match="^chain dimensions differ$"):
        Chain(1, {(0, 1): 1}) + Chain(0, {(0,): 1})


def test_gaussian_rational_constructor_refusals():
    with pytest.raises(ValueError, match="^imag part given twice$"):
        GaussianRational(GaussianRational(1), 2)
    with pytest.raises(TypeError, match="^expected int or Fraction, got float$"):
        GaussianRational(1.5)


def test_weight_lookups_name_the_missing_entry():
    phi = identity_weight(SimplicialComplex([(0, 1, 2)]))
    with pytest.raises(KeyError) as caught:
        phi.value((0, 1), 5)
    assert caught.value.args == ("no weight for ([0,1], face 5)",)
    with pytest.raises(KeyError) as caught:
        phi.value_on_face((0, 1, 2), (0,))
    assert caught.value.args == ("[0] is not a codimension-one face of [0,1,2]",)


@pytest.mark.parametrize("value, message", [
    ({1: 2}, "keys must be str, not int"),
    (object(), "Object of type object is not JSON serializable"),
    ([1, object()], "Object of type object is not JSON serializable"),
    (np.zeros((2, 2, 2)), "cannot print a 3-d array"),
])
def test_dump_refusals(value, message):
    with pytest.raises(TypeError) as caught:
        dump(value, [].append)
    assert str(caught.value) == message


def test_vertices_and_reprs():
    complex = SimplicialComplex([(0, 1, 2), (2, 3)])
    assert complex.vertices == ((0,), (1,), (2,), (3,))
    assert repr(complex) == "SimplicialComplex(dim 2; basis sizes [4, 4, 1])"
    phi = WeightFunction(SimplicialComplex([(0, 1)]), {((0, 1), 0): 1, ((0, 1), 1): 1})
    assert repr(phi) == "WeightFunction(2 entries, unvalidated)"
    assert phi.validate() == []
    assert repr(phi) == "WeightFunction(2 entries, validated)"
