import pytest

from wsimplex import (
    Simplex,
    SimplicialComplex,
    build_complex,
    face,
    parse_complex_text,
)

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
    assert (0, 2) in k
    assert (0, 3) not in k
    assert (2, 1) not in k  # not even a simplex


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
