"""jacobi_svd on both its paths (LAPACK's xGEJSV and the one-sided Jacobi
loop), and spectrum(ExactMatrix): an exact Hermitian check, then numpy's
eigh on the float copy."""

from fractions import Fraction

import numpy as np
import pytest

from wsimplex import ExactMatrix, GaussianRational, Spectrum, eigen, jacobi_svd, spectrum
from wsimplex.eigen import _schedule

from conftest import DEEP


def random_symmetric(rng, n):
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2


def random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def exact(a) -> ExactMatrix:
    """A float matrix as an ExactMatrix with the same values (every float is
    a rational), so an exactly Hermitian float matrix stays Hermitian."""
    a = np.asarray(a)
    return ExactMatrix([[GaussianRational(Fraction(x.real), Fraction(x.imag)) for x in row]
                        for row in a.astype(complex).tolist()], cols=a.shape[1])


def eigh(a) -> tuple[np.ndarray, np.ndarray]:
    spec = spectrum(exact(a))
    assert isinstance(spec, Spectrum)
    return spec.eigenvalues, spec.eigenvectors


def check_decomposition(a, w, v, tol=1e-13):
    n = a.shape[0]
    scale = 1.0 + np.linalg.norm(a)
    assert np.all(np.diff(w) >= -1e-12 * scale)  # ascending
    assert np.linalg.norm(a @ v - v @ np.diag(w)) <= tol * scale
    assert np.linalg.norm(v.conj().T @ v - np.eye(n)) <= tol


def test_real_small_cases():
    a = np.array([[4.0, -6.0], [-6.0, 9.0]])
    w, v = eigh(a)
    assert np.allclose(w, [0.0, 13.0], atol=1e-12)
    assert not np.iscomplexobj(v)  # real input, real eigenvectors
    check_decomposition(a, w, v)

    w, _ = eigh(np.zeros((3, 3)))
    assert np.allclose(w, 0.0)

    w, v = eigh(np.zeros((0, 0)))
    assert w.shape == (0,) and v.shape == (0, 0)

    w, _ = eigh(np.array([[5.0]]))
    assert np.allclose(w, [5.0])


def test_real_random_against_numpy():
    rng = np.random.default_rng(99)
    for n in [2, 3, 5, 8, 13, 20]:
        for _ in range(6):
            a = random_symmetric(rng, n)
            w, v = eigh(a)
            check_decomposition(a, w, v)
            ref = np.linalg.eigvalsh(a)
            assert np.allclose(w, ref, atol=1e-9 * (1 + np.linalg.norm(a)))


def test_real_degenerate_spectrum():
    rng = np.random.default_rng(5)
    # eigenvalues (1, 1, 1, 4, 4) through a random rotation
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    a = q @ np.diag([1.0, 1.0, 1.0, 4.0, 4.0]) @ q.T
    a = (a + a.T) / 2
    w, v = eigh(a)
    check_decomposition(a, w, v)
    assert np.allclose(w, [1, 1, 1, 4, 4], atol=1e-9)
    assert np.allclose(w, np.linalg.eigvalsh(a), rtol=0, atol=1e-12)


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
                w, v = eigh(a)
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
    w, v = eigh(a)
    check_decomposition(a, w, v)
    assert np.allclose(w, [2, 2, 2, 7], atol=1e-9)
    assert np.allclose(w, np.linalg.eigvalsh(a), rtol=0, atol=1e-12)


def test_complex_real_valued_input():
    """The float copy is real exactly when every entry is, so Gaussian
    rationals with zero imaginary parts give real eigenvectors and one
    non-real entry pair gives complex ones."""
    real = ExactMatrix([[GaussianRational(2), GaussianRational(1)],
                        [GaussianRational(1), GaussianRational(2)]])
    spec = spectrum(real)
    assert np.allclose(spec.eigenvalues, [1.0, 3.0])
    assert not np.iscomplexobj(spec.eigenvectors)

    a = np.array([[2.0, 1j], [-1j, 2.0]])
    w, v = eigh(a)
    assert np.allclose(w, [1.0, 3.0])
    assert np.iscomplexobj(v)
    check_decomposition(a, w, v)


def test_rejects_non_square():
    with pytest.raises(ValueError, match="not Hermitian"):
        spectrum(ExactMatrix([[0, 0, 0], [0, 0, 0]]))
    with pytest.raises(ValueError, match="not Hermitian"):
        spectrum(ExactMatrix([[1, 2], [3, 1]]))


def test_spectrum_wrapper():
    spec = spectrum(ExactMatrix([[3, 0, 0], [0, 0, 0], [0, 0, Fraction(1, 10 ** 14)]]))
    assert spec.size == 3


def test_eigh_and_gejsv_run_on_one_thread(monkeypatch):
    """spectrum's eigh and jacobi_svd's xGEJSV run with the OpenBLAS thread
    count set to 1 by the thread-local setter, and restored after, even
    when the call raises; where there is no setter eigh runs as it is."""
    threads, seen = [2], []

    def set_threads(k):
        before, threads[0] = threads[0], k
        return before

    def gejsv(*args):
        seen.append(("gejsv", threads[0]))
        # INFO, by reference seventh from the end, > 0: no convergence, so the
        # one-sided Jacobi loop answers
        args[-7]._obj.value = 1

    eigh = np.linalg.eigh

    def counted_eigh(a):
        seen.append(("eigh", threads[0]))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(eigen, "_lapack", lambda: (gejsv, gejsv, set_threads))
    spectrum(ExactMatrix([[2, 1], [1, 2]]))
    jacobi_svd(np.eye(2))
    assert (seen, threads) == ([("eigh", 1), ("gejsv", 1)], [2])

    monkeypatch.setattr(np.linalg, "eigh", lambda a: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        spectrum(ExactMatrix([[1]]))
    assert threads == [2]

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(eigen, "_lapack", lambda: None)
    assert spectrum(ExactMatrix([[1]])).size == 1 and seen[-1] == ("eigh", 2)


def test_gejsv_refuses_arrays_it_cannot_allocate(monkeypatch):
    """xGEJSV's copy of m, V and workspace are asked for before the call;
    when one cannot be allocated the SVD is refused in one line naming the
    shape, the dtype and the MB the three need.  The allocation is made to
    raise and m is a broadcast view, so no large array is asked for."""
    def exhausted(*args, **kwargs):
        raise MemoryError

    m = np.broadcast_to(np.complex128(1), (4824, 3138))
    monkeypatch.setattr(np, "array", exhausted)
    with pytest.raises(ValueError) as err:
        eigen._gejsv((None, None, None), m)
    # 4824 x 3138 + 3138^2 + 4 x 3138^2 + 10 x 3138 entries of 16 bytes
    assert str(err.value) == ("the SVD of the 4824 x 3138 complex128 factor needs 1,030.5 MB "
                              "for its copy, V and workspace, more than can be allocated")
    monkeypatch.undo()
    monkeypatch.setattr(np, "empty", exhausted)
    with pytest.raises(ValueError, match=r"^the SVD of the 5 x 3 float64 factor needs 0\.0 MB"):
        eigen._gejsv((None, None, None), np.ones((5, 3)))


def test_round_robin_schedule():
    for n in range(13):
        steps = _schedule(n)
        # n - 1 steps of n/2 pairs; odd n takes n steps of (n - 1)/2
        assert len(steps) == (0 if n < 2 else n - 1 if n % 2 == 0 else n)
        pairs = []
        for pq in steps:
            k = len(pq) // 2
            assert k == n // 2 and len(set(pq.tolist())) == 2 * k  # disjoint
            pairs += list(zip(pq[:k].tolist(), pq[k:].tolist()))
        assert sorted(pairs) == [(p, q) for p in range(n) for q in range(p + 1, n)]


def random_matrix(rng, shape, complex_):
    m = rng.standard_normal(shape)
    return m + 1j * rng.standard_normal(shape) if complex_ else m


def check_svd(m, w, v, tol=1e-13):
    """w ascending equals numpy's squared singular values padded with zeros
    to m's column count; v is unitary and m^* m v = v diag(w)."""
    n = m.shape[1]
    assert w.shape == (n,) and v.shape == (n, n)
    assert np.iscomplexobj(v) == np.iscomplexobj(m)
    sigma = np.linalg.svd(m, compute_uv=False) if m.size else np.zeros(0)
    ref = np.sort(np.concatenate([sigma ** 2, np.zeros(n - len(sigma))]))
    scale = 1.0 + (ref[-1] if n else 0.0)
    assert np.all(np.diff(w) >= 0)
    assert np.allclose(w, ref, rtol=0, atol=tol * scale)
    assert np.linalg.norm(v.conj().T @ v - np.eye(n)) <= tol * 10
    gram = m.conj().T @ m
    assert np.linalg.norm(gram @ v - v * w) <= tol * scale
    if n:
        assert np.allclose(w, np.linalg.eigvalsh(gram), rtol=0, atol=tol * scale)


def test_svd_shapes_against_numpy(svd_path):
    rng = np.random.default_rng(17)
    for complex_ in (False, True):
        for shape in [(12, 5), (4, 9), (7, 7), (1, 1), (3, 1), (1, 4), (0, 4), (5, 0), (0, 0)]:
            for _ in range(3):
                m = random_matrix(rng, shape, complex_)
                check_svd(m, *jacobi_svd(m))
        for shape in [(6, 4), (3, 8), (0, 3)]:
            m = np.zeros(shape, dtype=complex if complex_ else float)
            w, v = jacobi_svd(m)
            assert np.all(w == 0)
            assert np.allclose(v.conj().T @ v, np.eye(shape[1]), rtol=0, atol=1e-14)


def test_svd_rank_deficient(svd_path):
    rng = np.random.default_rng(18)
    for complex_ in (False, True):
        for rows, cols, rank in [(8, 6, 2), (5, 9, 3), (15, 20, 7), (6, 6, 5), (30, 12, 1)]:
            m = random_matrix(rng, (rows, rank), complex_) @ random_matrix(rng, (rank, cols),
                                                                           complex_)
            w, v = jacobi_svd(m)
            check_svd(m, w, v, tol=1e-12)
            # the numerical kernel: cols - rank values at rounding level, the
            # rest well above it
            tiny = w <= 1e-20 * w[-1]
            assert np.count_nonzero(tiny) == cols - rank, (rows, cols, rank)
            assert np.linalg.norm(m @ v[:, tiny]) <= 1e-12 * np.sqrt(w[-1])


def test_svd_graded_columns_relative_accuracy(svd_path):
    """Columns 10^15 apart: every squared singular value, the smallest too,
    to relative accuracy.  LAPACK's bidiagonal SVD (numpy's svd) loses the
    small ones."""
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(7)
    for shape in [(8, 5), (5, 5), (12, 6)]:
        for complex_ in (False, True):
            b = random_matrix(rng, shape, complex_)
            m = b * (10.0 ** np.linspace(0, 15, shape[1]))[None, :]
            w, _ = jacobi_svd(m)
            with mpmath.workdps(50):
                ref = sorted(float(x) ** 2 for x in
                             mpmath.svd(mpmath.matrix(m.tolist()), compute_uv=False))
            rel = np.abs(w - ref) / np.array(ref)
            assert np.all(rel <= 1e-12 * np.linalg.cond(b)), (shape, complex_, rel)


def test_svd_refuses_non_finite(svd_path):
    """Refused before either path, naming the first non-finite entry in
    row-major order."""
    cases = [
        (np.array([[1.0, np.inf, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), (0, 1)),
        (np.array([[1.0, 2.0], [3.0, 4.0], [np.nan, -np.inf]]), (2, 0)),
        (np.array([[1.0, 1j, 0.0, 2.0], [0.0, 1.0, complex(0.0, np.nan), 0.0]]), (1, 2)),
        (np.array([[complex(-np.inf, 0.0)]]), (0, 0)),
    ]
    for m, (row, col) in cases:
        with pytest.raises(ValueError, match=rf"entry \({row}, {col}\) .* not finite"):
            jacobi_svd(m)


def differential_matrix(rng, i: int) -> np.ndarray:
    """Random real or complex matrix of 1 to 30 columns and 1 to 40 rows;
    every third has a zeroed column, every third another a collinear pair."""
    rows, cols = int(rng.integers(1, 41)), int(rng.integers(1, 31))
    complex_ = bool(rng.integers(2))
    m = random_matrix(rng, (rows, cols), complex_)
    if i % 3 == 1:
        m[:, rng.integers(cols)] = 0
    elif i % 3 == 2 and cols > 1:
        p, q = rng.choice(cols, 2, replace=False)
        m[:, q] = m[:, p] * random_matrix(rng, (), complex_)
    return m


def test_svd_lapack_against_loop_and_numpy(monkeypatch):
    """Seeded differential test of xGEJSV against the one-sided Jacobi loop
    and numpy's svd: w within 1e-13 of the largest, v unitary.  300
    matrices, 3,000 under HYPOTHESIS_PROFILE=deep."""
    if eigen._lapack() is None:
        pytest.skip("numpy bundles no OpenBLAS with xGEJSV")
    rng = np.random.default_rng(1717)
    for i in range(3000 if DEEP else 300):
        m = differential_matrix(rng, i)
        n = m.shape[1]
        w, v = jacobi_svd(m)
        with monkeypatch.context() as patch:
            patch.setattr(eigen, "_lapack", lambda: None)
            w_loop, _ = jacobi_svd(m)
        sigma = np.linalg.svd(m, compute_uv=False)
        ref = np.sort(np.concatenate([sigma ** 2, np.zeros(n - len(sigma))]))
        scale = max(ref[-1], np.finfo(float).tiny)
        assert np.all(np.diff(w) >= 0), i
        assert np.max(np.abs(w - ref)) <= 1e-13 * scale, i
        assert np.max(np.abs(w - w_loop)) <= 1e-13 * scale, i
        assert np.linalg.norm(v.conj().T @ v - np.eye(n)) <= 1e-13, i
