"""The package's record classes behave as the dataclasses they replace:
construction by position and keyword with the same defaults, the same
checks, ``==`` by class and fields, ``repr`` text, hashability (none for
the five mutable records, by fields for the two frozen ones) and pickling.
The expected strings are those the dataclass versions printed."""

import copy
import pickle

import numpy as np
import pytest

from wsimplex import (
    Chain,
    FFLSignature,
    FFLSpec,
    GaussianRational,
    HarmonicBasis,
    HomologyGroup,
    SNFResult,
    Simplex,
    Violation,
)
from wsimplex.eigen import Spectrum


def mutable_records():
    return [
        Chain(1, {(0, 1): 2}),
        SNFResult([1, 2], 2),
        HomologyGroup([2], 1),
        HarmonicBasis(1, (Simplex((0, 1)),), np.zeros((1, 0))),
        Spectrum(np.array([0.0, 1.0]), np.eye(2)),
    ]


def frozen_records():
    return [FFLSpec("coherent", 1), FFLSignature((1.0, 3.0), ((1.0, None), (3.0, None)))]


# -- construction and defaults ------------------------------------------------


def test_positional_and_keyword_construction_agree():
    assert Chain(1, {(0, 1): 2}) == Chain(dimension=1, coefficients={(0, 1): 2})
    assert SNFResult([1], 1, [[1]], [[1]]) == SNFResult(V=[[1]], U=[[1]], rank=1, diagonal=[1])
    assert HomologyGroup([2], 1) == HomologyGroup(free_rank=1, torsion=[2])
    assert HarmonicBasis(0, (), None) == HarmonicBasis(vectors=None, labels=(), dimension=0)
    assert FFLSpec("incoherent", 2) == FFLSpec(variant=2, coherence="incoherent")
    assert FFLSignature((1.0, 2.0), ()) == FFLSignature(clusters=(), eigenvalues=(1.0, 2.0))
    s = Spectrum(eigenvectors=None, eigenvalues=None)
    assert (s.eigenvalues, s.eigenvectors) == (None, None)


def test_defaults():
    snf = SNFResult([1, 2], 2)
    assert snf.U is None and snf.V is None
    a, b = Chain(2), Chain(2)
    assert a.coefficients == {} and a.coefficients is not b.coefficients
    a.coefficients[Simplex((0, 1, 2))] = GaussianRational(1)
    assert b.is_zero()
    given = {(0, 1): 3}
    assert Chain(1, given).coefficients is not given


def test_argument_counts_are_checked():
    with pytest.raises(TypeError):
        SNFResult([1])
    with pytest.raises(TypeError):
        SNFResult([1], 1, None, None, None)
    with pytest.raises(TypeError):
        HomologyGroup([2])
    with pytest.raises(TypeError):
        FFLSpec("coherent", 1, 2)


def test_chain_checks_dimensions_and_drops_zeros():
    with pytest.raises(ValueError, match="has dimension 0, chain has 1"):
        Chain(1, {(0,): 1})
    chain = Chain(1, {(0, 1): 2, (1, 2): 0})
    assert chain.coefficients == {Simplex((0, 1)): GaussianRational(2)}
    assert isinstance(next(iter(chain.coefficients)), Simplex)


def test_fflspec_refuses_an_unknown_type():
    with pytest.raises(ValueError, match="no such motif type: coherent 7"):
        FFLSpec("coherent", 7)
    with pytest.raises(ValueError, match="no such motif type: neutral 1"):
        FFLSpec(variant=1, coherence="neutral")


# -- equality -------------------------------------------------------------------


def test_equality_is_by_class_and_fields():
    assert HomologyGroup([2], 0) == HomologyGroup((2,), 0)
    assert HomologyGroup([2], 0) != HomologyGroup([2], 1)
    assert SNFResult([1], 1) == SNFResult([1], 1, None, None)
    assert SNFResult([1], 1) != SNFResult([1], 1, [[1]])
    assert FFLSpec("coherent", 1) != FFLSpec("coherent", 2)
    # a chain compares its cleaned coefficients
    assert Chain(1, {(0, 1): 2}) == Chain(1, {(0, 1): 2, (0, 2): 0})
    assert Chain(1) != Chain(2)


@pytest.mark.parametrize("record", mutable_records() + frozen_records(),
                         ids=lambda r: type(r).__name__)
def test_equality_against_other_types(record):
    assert record.__eq__(object()) is NotImplemented
    assert record != object() and not record == 3
    assert record != tuple(getattr(record, name) for name in type(record).__match_args__)
    assert record == record


def test_equal_fields_of_another_record_class_differ():
    assert Spectrum([2], 1) != HomologyGroup([2], 1)
    assert FFLSignature("coherent", 1) != FFLSpec("coherent", 1)


def test_array_fields_compare_as_tuples_of_them_do():
    """Equal but distinct arrays make ``==`` ambiguous, as in a tuple."""
    values = np.array([0.0, 1.0])
    with pytest.raises(ValueError, match="ambiguous"):
        Spectrum(values, np.eye(2)) == Spectrum(values.copy(), np.eye(2))
    vectors = np.eye(2)
    assert Spectrum(values, vectors) == Spectrum(values, vectors)


# -- repr -------------------------------------------------------------------------


def test_repr_text():
    assert repr(HomologyGroup([2], 1)) == "HomologyGroup(torsion=[2], free_rank=1)"
    assert repr(HomologyGroup([], 0)) == "HomologyGroup(torsion=[], free_rank=0)"
    assert str(HomologyGroup([2, 4], 2)) == "Z/2 + Z/4 + Z + Z"
    assert str(HomologyGroup([], 0)) == "0"
    assert repr(SNFResult([1, 2], 2)) == "SNFResult(diagonal=[1, 2], rank=2, U=None, V=None)"
    assert (repr(SNFResult([2], 1, [[1]], [[-1]]))
            == "SNFResult(diagonal=[2], rank=1, U=[[1]], V=[[-1]])")
    assert repr(FFLSpec("coherent", 1)) == "FFLSpec(coherence='coherent', variant=1)"
    assert (repr(FFLSignature((1.0, 3.0), ((1.0, 2), (3.0, 4))))
            == "FFLSignature(eigenvalues=(1.0, 3.0), clusters=((1.0, 2), (3.0, 4)))")
    assert repr(Chain(1, {(1, 2): 1, (0, 1): 2})) == "Chain(dim 1: (2)*[0,1] + (1)*[1,2])"
    assert repr(Chain(0)) == "Chain(dim 0: 0)"
    assert (repr(Violation(Simplex((0, 1, 2)), 1, 0, GaussianRational(2), GaussianRational(3)))
            == "Violation(simplex=[0,1,2], i=1, j=0, left=GaussianRational('2'), "
               "right=GaussianRational('3'))")


def test_repr_of_array_fields():
    vectors = np.zeros((1, 0))
    assert (repr(HarmonicBasis(1, (Simplex((0, 1)),), vectors))
            == f"HarmonicBasis(dimension=1, labels=([0,1],), vectors={vectors!r})")
    values, eigenvectors = np.array([0.0, 1.0]), np.eye(2)
    assert (repr(Spectrum(values, eigenvectors))
            == f"Spectrum(eigenvalues={values!r}, eigenvectors={eigenvectors!r})")


# -- hashing, assignment, pickling ----------------------------------------------------


@pytest.mark.parametrize("record", mutable_records(), ids=lambda r: type(r).__name__)
def test_mutable_records_are_unhashable_and_assignable(record):
    with pytest.raises(TypeError, match="unhashable"):
        hash(record)
    name = type(record).__match_args__[-1]
    value = getattr(record, name)
    setattr(record, name, value)
    assert getattr(record, name) is value


def test_frozen_records_hash_by_their_fields():
    table = {FFLSpec("coherent", 1): "one"}
    assert table[FFLSpec.from_label("coherent1")] == "one"
    assert hash(FFLSpec("coherent", 1)) == hash(("coherent", 1))
    assert hash(FFLSignature((1.0, 3.0), ())) == hash(((1.0, 3.0), ()))


@pytest.mark.parametrize("record", frozen_records(), ids=lambda r: type(r).__name__)
def test_frozen_records_refuse_assignment(record):
    name = type(record).__match_args__[0]
    value = getattr(record, name)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
        setattr(record, name, value)
    with pytest.raises(AttributeError, match="cannot assign to field 'other'"):
        record.other = 1
    with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
        delattr(record, name)
    assert getattr(record, name) is value


@pytest.mark.parametrize("record", [
    SNFResult([2], 1, [[1]], [[1]]), HomologyGroup([2], 1), HarmonicBasis(0, (), None),
    FFLSpec("incoherent", 3), FFLSignature((1.0, 3.0), ((1.0, None), (3.0, None))),
], ids=lambda r: type(r).__name__)
def test_pickle_and_copy_round_trip(record):
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is type(record) and clone == record


def test_positional_patterns_follow_the_fields():
    match HomologyGroup([2], 1):
        case HomologyGroup(torsion, free_rank):
            assert (torsion, free_rank) == ([2], 1)
    match FFLSpec("coherent", 3):
        case FFLSpec("coherent", variant):
            assert variant == 3


def test_violation_is_a_named_tuple():
    v = Violation(simplex=(0, 1, 2), i=2, j=1, left=3, right=4)
    assert v == ((0, 1, 2), 2, 1, 3, 4) and isinstance(v, tuple)
    assert Violation._fields == ("simplex", "i", "j", "left", "right")
    assert (v.simplex, v.i, v.j, v.left, v.right) == tuple(v)


# -- HomologyGroup takes integers only ----------------------------------------------


def test_homology_group_takes_ints_and_index_types():
    group = HomologyGroup([np.int64(2), 3], np.int32(1))
    assert group == HomologyGroup([2, 3], 1)
    assert all(type(d) is int for d in group.torsion) and type(group.free_rank) is int
    assert str(group) == "Z/2 + Z/3 + Z"


@pytest.mark.parametrize("torsion, free_rank, message", [
    ([2.7, 3], 0, "torsion coefficient 2.7 is not an integer"),
    ([2.0], 0, "torsion coefficient 2.0 is not an integer"),
    (["3"], 0, "torsion coefficient '3' is not an integer"),
    ([], 1.5, "free rank 1.5 is not an integer"),
    ([], "1", "free rank '1' is not an integer"),
    ([], None, "free rank None is not an integer"),
], ids=["float-torsion", "integral-float-torsion", "str-torsion", "float-free-rank",
        "str-free-rank", "none-free-rank"])
def test_homology_group_refuses_non_integers(torsion, free_rank, message):
    with pytest.raises(ValueError, match=message):
        HomologyGroup(torsion, free_rank)


def test_homology_group_range_checks_stay():
    with pytest.raises(ValueError, match="torsion coefficients must be >= 2"):
        HomologyGroup([1], 0)
    with pytest.raises(ValueError, match="free rank must be >= 0"):
        HomologyGroup([], -1)
