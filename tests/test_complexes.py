import copy
import pickle
import random
from pathlib import Path

import pytest

from wsimplex import (
    Simplex,
    SimplicialComplex,
    build_complex,
    face,
    parse_complex_text,
    read_complex_file,
    read_weight_file,
)
from wsimplex.chains import boundary_columns

from conftest import spectral_fixtures


def test_simplex_validation():
    assert Simplex((0, 2, 5)).dim == 2
    with pytest.raises(ValueError):
        Simplex(())
    with pytest.raises(ValueError):
        Simplex((2, 1))
    with pytest.raises(ValueError):
        Simplex((1, 1))
    with pytest.raises(ValueError):
        Simplex((-1, 0))
    with pytest.raises(ValueError):
        Simplex((0, "1"))


def test_faces():
    s = Simplex((0, 1, 2, 3))
    assert s.face(0) == (1, 2, 3)
    assert s.face(3) == (0, 1, 2)
    assert face(s, 2) == (0, 1, 3)
    assert list(s.faces()) == [(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)]
    with pytest.raises(IndexError):
        s.face(4)
    with pytest.raises(IndexError):
        Simplex((5,)).face(0)


def test_face_is_the_checked_simplex_on_every_fixture():
    # face() skips the ascending re-check; it must build what Simplex() builds
    seen = 0
    for _, complex, _ in spectral_fixtures(count=16):
        for s in complex.simplices():
            if s.dim == 0:
                with pytest.raises(IndexError):
                    s.face(0)
                continue
            for i in range(len(s)):
                t = s.face(i)
                assert type(t) is Simplex
                assert t == Simplex(s[:i] + s[i + 1:])
                seen += 1
            for bad in (-1, len(s)):
                with pytest.raises(IndexError):
                    s.face(bad)
    assert seen > 100


def test_face_commutation():
    # d_j d_i == d_{i-1} d_j for j < i, on a few simplices
    for verts in [(0, 1, 2), (0, 1, 2, 3), (1, 3, 4, 6, 9)]:
        s = Simplex(verts)
        for i in range(1, s.dim + 1):
            for j in range(i):
                assert s.face(i).face(j) == s.face(j).face(i - 1)


def test_face_example():
    s = Simplex((0, 1, 2, 3))
    assert s.face(3).face(1) == (0, 2)
    assert s.face(1).face(2) == (0, 2)


def test_closure_and_basis():
    k = build_complex([(0, 1, 2)])
    assert k.max_dim == 2
    assert k.basis(0) == (Simplex((0,)), Simplex((1,)), Simplex((2,)))
    assert k.basis(1) == (Simplex((0, 1)), Simplex((0, 2)), Simplex((1, 2)))
    assert k.basis(2) == (Simplex((0, 1, 2)),)
    assert k.basis(3) == ()
    assert k.basis(-1) == ()
    assert len(k) == 7
    assert (0, 2) in k and [1, 2] in k and Simplex((0, 1, 2)) in k
    assert (0, 3) not in k and (0, 1, 2, 3) not in k and [0, 5] not in k
    # not even a simplex: a bool vertex is refused though (0, True) == (0, 1)
    for absent in ((2, 1), (1, 0), (), "a", (0, True)):
        assert absent not in k, absent


def test_basis_is_sorted():
    k = build_complex([(2, 5), (0, 7), (2, 3), (0, 1, 4)])
    for n in range(k.max_dim + 1):
        b = k.basis(n)
        assert list(b) == sorted(b)


def test_build_complex_rejects_bad_input():
    with pytest.raises(ValueError):
        build_complex([(1, 0)])
    with pytest.raises(ValueError):
        build_complex([()])


def test_equality():
    a = build_complex([(0, 1), (1, 2)])
    b = SimplicialComplex([(1, 2), (0, 1), (0,)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != build_complex([(0, 1)])
    # the same simplices in any order, some repeated, make one complex
    rng = random.Random(31)
    simplices = [(0, 1, 2), (1, 3), (2, 3, 4), (4,), (0, 2), (5,), (1, 2, 3)]
    first = build_complex(simplices)
    for _ in range(20):
        rng.shuffle(simplices)
        again = build_complex(simplices + rng.sample(simplices, 2))
        assert again == first and hash(again) == hash(first)
        assert [again.basis(d) for d in range(4)] == [first.basis(d) for d in range(4)]


def _copies(obj):
    yield pickle.loads(pickle.dumps(obj))
    yield copy.copy(obj)
    yield copy.deepcopy(obj)


def test_a_complex_and_a_loaded_pair_survive_pickle_and_copy():
    """The complex's simplex index and its face tables pickle and copy with
    it: a copy is equal, hashes equal, reads the same face tables, and a
    copied pair answers as the original.  ``==`` and ``hash`` read the
    index alone, so a complex whose face tables are built equals one
    whose tables are not."""
    for _, k, _ in spectral_fixtures(count=8):
        tables = [k._faces(n) for n in range(k.max_dim + 1)]
        bare = build_complex(k.simplices())
        assert not bare._face_tables and bare == k and hash(bare) == hash(k)
        for other in _copies(k):
            assert other == k and hash(other) == hash(k) and len(other) == len(k)
            assert all(s in other for s in k.simplices())
            assert [other._faces(n) for n in range(k.max_dim + 1)] == tables
            assert [bare._faces(n) for n in range(k.max_dim + 1)] == tables
    fixtures = Path(__file__).parent / "fixtures"
    k = read_complex_file(fixtures / "simplex5_dawson.cplx")
    phi = read_weight_file(fixtures / "simplex5_dawson.wts", k, strict=True)
    assert not phi.validate()
    assert sorted(k._face_tables) == list(range(k.max_dim + 1))  # the reader built them
    want = [boundary_columns(k, phi, n) for n in range(k.max_dim + 2)]
    for other_k, other_phi in _copies((k, phi)):
        assert other_k == k and hash(other_k) == hash(k) and other_phi == phi
        assert other_phi.complex is other_k
        assert [boundary_columns(other_k, other_phi, n)
                for n in range(k.max_dim + 2)] == want


def test_parse_text():
    text = """
    # pentagon
    0 1
    1 2
    2 3
    3 4
    0 4   # closing edge
    """
    k = parse_complex_text(text)
    assert k.max_dim == 1
    assert len(k.basis(1)) == 5
    assert len(k.basis(0)) == 5


def test_parse_text_errors():
    with pytest.raises(ValueError):
        parse_complex_text("# nothing here")
    with pytest.raises(ValueError) as err:
        parse_complex_text("0 1\n2 2\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ValueError):
        parse_complex_text("0 x\n")
