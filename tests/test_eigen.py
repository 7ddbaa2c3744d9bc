import numpy as np
import pytest

from wsimplex import jacobi_eigh
from wsimplex.eigen import spectrum_of_ndarray


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def check_decomposition(a, w, v, tol=1e-9):
    n = a.shape[0]
    scale = 1.0 + np.linalg.norm(a)
    assert np.all(np.diff(w) >= -1e-12 * scale)  # ascending
    assert np.linalg.norm(a @ v - v @ np.diag(w)) <= tol * scale
    assert np.linalg.norm(v.conj().T @ v - np.eye(n)) <= tol


def test_real_small_cases():
    w, v = jacobi_eigh(np.array([[4.0, -6.0], [-6.0, 9.0]]))
    assert np.allclose(w, [0.0, 13.0], atol=1e-12)
    check_decomposition(np.array([[4.0, -6.0], [-6.0, 9.0]]), w, v)

    w, _ = jacobi_eigh(np.zeros((3, 3)))
    assert np.allclose(w, 0.0)

    w, v = jacobi_eigh(np.zeros((0, 0)))
    assert w.shape == (0,) and v.shape == (0, 0)

    w, _ = jacobi_eigh(np.array([[5.0]]))
    assert np.allclose(w, [5.0])


def test_real_random_against_numpy():
    rng = np.random.default_rng(99)
    for n in [2, 3, 5, 8, 13, 20]:
        for _ in range(6):
            a = random_symmetric(rng, n)
            w, v = jacobi_eigh(a)
            check_decomposition(a, w, v)
            ref = np.linalg.eigvalsh(a)
            assert np.allclose(w, ref, atol=1e-9 * (1 + np.linalg.norm(a)))


def test_real_degenerate_spectrum():
    rng = np.random.default_rng(5)
    # eigenvalues (1, 1, 1, 4, 4) through a random rotation
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    a = q @ np.diag([1.0, 1.0, 1.0, 4.0, 4.0]) @ q.T
    a = (a + a.T) / 2
    w, v = jacobi_eigh(a)
    check_decomposition(a, w, v)
    assert np.allclose(w, [1, 1, 1, 4, 4], atol=1e-9)


def random_imaginary_offdiagonal(rng, n):
    a = 1j * rng.standard_normal((n, n))
    a = (a + a.conj().T) / 2
    return a + np.diag(rng.standard_normal(n))


def test_complex_random_against_numpy():
    rng = np.random.default_rng(1234)
    for n in [1, 2, 3, 5, 9, 14, 22, 30]:
        for make in (random_hermitian, random_imaginary_offdiagonal):
            for _ in range(5 if n < 20 else 2):
                a = make(rng, n)
                w, v = jacobi_eigh(a)
                assert w.shape == (n,) and v.shape == (n, n)
                check_decomposition(a, w, v)
                ref = np.linalg.eigvalsh(a)
                assert np.allclose(w, ref, atol=1e-9 * (1 + np.linalg.norm(a)))


def test_complex_degenerate_spectrum():
    rng = np.random.default_rng(21)
    a = random_hermitian(rng, 4)
    q, _ = np.linalg.qr(a)  # unitary
    a = q @ np.diag([2.0, 2.0, 2.0, 7.0]) @ q.conj().T
    a = (a + a.conj().T) / 2
    w, v = jacobi_eigh(a)
    check_decomposition(a, w, v)
    assert np.allclose(w, [2, 2, 2, 7], atol=1e-9)


def test_complex_real_valued_input():
    a = np.array([[2.0, 1.0], [1.0, 2.0]]).astype(np.complex128)
    w, v = jacobi_eigh(a)
    assert np.allclose(w, [1.0, 3.0])
    assert np.iscomplexobj(v)


def test_rejects_non_square():
    with pytest.raises(ValueError):
        jacobi_eigh(np.zeros((2, 3)))


def test_spectrum_wrapper():
    spec = spectrum_of_ndarray(np.diag([3.0, 0.0, 1e-14]))
    assert spec.size == 3
    assert spec.zero_count(1e-9) == 2
    assert spec.vectors_below(1e-9).shape == (3, 2)
